// Crash-safe execution journal for the batch farm (docs/ROBUSTNESS.md).
//
// A farm directory is durable state, not just output: the supervisor can
// be SIGKILLed at any instant and `fpkit farm --resume <dir>` must pick
// up exactly where the jobs stood. Three files carry that contract:
//
//   <dir>/farm.json      header snapshot, schema "farm.journal.v1":
//                        circuit/jobs-file paths, job labels in index
//                        order, worker/retry/timeout configuration and
//                        the backoff seed. Written once, atomically
//                        (tmp + rename), so it is either absent or whole.
//   <dir>/journal.jsonl  append-only event log, one JSON object per
//                        line, flushed line-by-line: start/done/retry
//                        per attempt plus farm-level markers. Replay
//                        tolerates a torn final line (the write the
//                        crash interrupted) by ignoring it.
//   <dir>/farm.lock      liveness lock ({"pid": N}, tmp + rename). A
//                        second supervisor on the same directory is
//                        refused while the pid is alive and *takes over*
//                        when it is dead (stale-lock takeover after a
//                        SIGKILL), recording the takeover in the journal.
//
// Replaying the journal classifies every job as pending (never finished),
// done (ok/degraded) or terminally failed (attempts exhausted, or bad
// input: an attempt that exited 2); a resume re-runs only the pending
// ones, which is what makes an interrupted farm converge to the same
// artifact tree as an uninterrupted run. The live journal folds each
// event it appends through the same transitions, so its state is always
// what a replay of its file would rebuild.
//
// The retry schedule is deterministic: backoff_delay_ms() derives each
// delay from (seed, job index, attempt) through splitmix-seeded Rng
// jitter, so a fixed seed reproduces the exact schedule -- asserted by
// tests/farm_test.cpp.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace fp::farm {

inline constexpr std::string_view kJournalSchema = "farm.journal.v1";

/// Immutable farm configuration, snapshotted into <dir>/farm.json at
/// start and read back verbatim by --resume.
struct FarmHeader {
  std::string circuit;                   // circuit file path
  std::string jobs_file;                 // jobs file path
  std::vector<std::string> labels;       // job labels, index order
  int workers = 1;                       // worker process count
  int max_attempts = 3;                  // per job (1 = no retries)
  double job_timeout_s = 0.0;            // wall cap per attempt; 0 = off
  double hang_timeout_s = 0.0;           // heartbeat staleness cap; 0 = off
  long long retry_base_ms = 250;         // backoff base delay
  std::uint64_t backoff_seed = 1;        // jitter seed
  std::string fault_spec;                // forwarded to first attempts only
  std::vector<std::string> base_flags;   // flow flags forwarded to workers

  friend bool operator==(const FarmHeader&, const FarmHeader&) = default;
};

[[nodiscard]] obs::Json header_to_json(const FarmHeader& header);
[[nodiscard]] FarmHeader header_from_json(const obs::Json& doc);

/// Terminal state of one attempt, as the journal records it.
struct AttemptRecord {
  int attempt = 0;         // 1-based
  std::string outcome;     // "ok"|"degraded"|"error"|"crash"|"timeout"
  std::string code;        // stable FP-* code for failures, "" for ok
  int exit_code = 0;       // worker exit code (normal exits)
  int signal = 0;          // terminating signal (crashes/kills)
  std::string detail;      // classification text + stderr tail

  friend bool operator==(const AttemptRecord&,
                         const AttemptRecord&) = default;
};

/// One job's replayed progress.
struct JobProgress {
  enum class State { Pending, Running, Done, Failed };
  std::string label;
  State state = State::Pending;
  int attempts = 0;                     // attempts started so far
  std::vector<AttemptRecord> history;   // finished attempts, in order
  bool degraded = false;                // final attempt exited 3

  friend bool operator==(const JobProgress&, const JobProgress&) = default;
};

/// Whole-journal replay result.
struct JournalState {
  FarmHeader header;
  std::vector<JobProgress> jobs;
  bool completed = false;   // a farm_done marker was journaled
  bool took_over = false;   // this open performed a stale-lock takeover
  // Wall-clock range of the replayed events (unix seconds; 0 when the
  // journal is empty or predates event timestamps). `fpkit dash
  // --follow` derives throughput and an ETA from these.
  double first_event_t = 0.0;
  double last_event_t = 0.0;

  [[nodiscard]] std::size_t pending_count() const;
  [[nodiscard]] std::size_t done_count() const;
  [[nodiscard]] std::size_t failed_count() const;
  [[nodiscard]] std::size_t running_count() const;

  friend bool operator==(const JournalState&, const JournalState&) = default;
};

/// Read-only journal replay: loads <dir>/farm.json and folds the event
/// log without touching the lock, so a live farm can be observed while
/// it runs (`fpkit dash --follow`). Jobs with a start event and no done
/// event are reported as Running -- the caller decides whether the
/// supervisor behind them is still alive. Throws InvalidArgument when
/// the directory holds no farm.json.
[[nodiscard]] JournalState replay_journal(const std::string& dir);

/// Deterministic retry delay before attempt `attempt + 1` of job
/// `job_index`: retry_base_ms * 2^(attempt-1) plus seeded jitter in
/// [0, retry_base_ms), capped at `max_ms`. Pure -- a fixed seed yields
/// an identical schedule on every host.
[[nodiscard]] long long backoff_delay_ms(std::uint64_t seed, int job_index,
                                         int attempt, long long retry_base_ms,
                                         long long max_ms = 10000);

/// The append side of the journal, held open by the supervisor.
class FarmJournal {
 public:
  /// Starts a fresh farm: creates <dir>, acquires the lock, writes
  /// farm.json and opens a new journal. Throws InvalidArgument when the
  /// directory already holds a journal (use resume) or a live lock.
  [[nodiscard]] static FarmJournal create(const std::string& dir,
                                          const FarmHeader& header);

  /// Re-opens an existing farm directory: validates the header, takes
  /// over a stale lock (refusing a live one), replays the event log and
  /// reopens it for append. In-flight "start" events without a matching
  /// "done" are rolled back to pending.
  [[nodiscard]] static FarmJournal resume(const std::string& dir);

  /// The replayed (or freshly initialised) state snapshot.
  [[nodiscard]] const JournalState& state() const { return state_; }
  [[nodiscard]] const std::string& dir() const { return dir_; }

  // Event appenders; each stamps the wall clock ("t", unix seconds),
  // writes one line, flushes it and folds the event into state() as
  // replay_journal would.
  void record_start(int job, int attempt);
  void record_done(int job, const AttemptRecord& record);
  void record_retry(int job, int next_attempt, long long delay_ms);
  void record_marker(std::string_view event);  // "farm_done", "interrupted"

  /// Drops the lock file (clean shutdown; a crash leaves it for the
  /// next resume to take over).
  void release_lock();

 private:
  std::string dir_;
  std::ofstream log_;
  JournalState state_;

  void append(obs::Json event);
};

}  // namespace fp::farm
