// Crash-contained, resumable multi-process batch farm
// (docs/ROBUSTNESS.md).
//
// `fpkit batch` fans jobs out over threads inside one process, which
// means one crashing job (a sanitizer abort, an injected std::abort, an
// OOM kill) takes the whole sweep with it. The farm trades threads for
// *processes*: a supervisor shards the jobs-file across N self-exec'd
// `fpkit farm --worker` children, so the blast radius of any job is its
// own process. A dead worker becomes a failed attempt with a stable
// FP-CRASH/FP-TIMEOUT code and a captured stderr tail -- the farm keeps
// going.
//
// Robustness machinery on top of the process isolation:
//   * every attempt is journaled (farm/journal.h) before and after it
//     runs, so SIGKILLing the supervisor loses nothing: `--resume`
//     replays the journal and re-runs only unfinished jobs, converging
//     to the same artifact tree as an uninterrupted run;
//   * per-attempt wall-clock caps and heartbeat staleness detection kill
//     hung workers (FP-TIMEOUT);
//   * failed attempts retry up to --max-attempts with deterministic
//     exponential backoff (seeded jitter: a fixed --backoff-seed yields
//     an identical schedule);
//   * SIGINT/SIGTERM drain gracefully: stop launching, let in-flight
//     workers finish, flush the journal, exit 5 (a second signal
//     SIGKILLs the stragglers, whose attempts do not count).
//
// The output directory is a batch-compatible fpkit.run.v1 tree -- a
// farm-level manifest (+ farm.* metrics) over jobs/job<i>/ artifacts
// shaped exactly like `fpkit batch` job artifacts -- so `fpkit compare`
// and `fpkit dash` consume it unchanged. CI diffs a crash-riddled,
// killed-and-resumed farm against a single-process batch of the same
// jobs-file with --require-equal-cost and expects a clean exit.
#pragma once

#include <cstddef>
#include <string>

#include "codesign/flow.h"
#include "farm/journal.h"

namespace fp::farm {

/// One worker's marching orders (`fpkit farm --worker ...`).
struct WorkerOptions {
  std::string circuit;         // circuit file path
  std::string jobs_file;       // jobs file; the worker re-parses it
  int job_index = 0;           // which line of the jobs file to run
  std::string out_dir;         // per-job artifact dir (jobs/job<i>)
  std::string heartbeat_path;  // liveness file; empty = no heartbeat
  FlowOptions base;            // base options the jobs-file layers over
};

/// Runs one job in this process and writes its artifact (job_manifest in
/// codesign/report.h, as for a `fpkit batch` job). Returns the recorded
/// exit code: the flow's 0 ok, 3 degraded or 5 interrupted; a thrown
/// fp::Error is caught, recorded and mapped by exit_code_for to 2/4.
/// Crashes are the point of running in a child -- nothing here contains
/// them.
[[nodiscard]] int run_farm_worker(const WorkerOptions& options);

/// Supervisor configuration for a fresh farm.
struct FarmOptions {
  std::string exe;   // fpkit binary to self-exec as the worker
  std::string dir;   // farm output directory (journal + artifacts)
  FarmHeader header; // jobs, worker count, retry/timeout policy
};

/// What the supervisor hands back to the CLI.
struct FarmOutcome {
  int exit_code = 0;        // 0 ok / 3 degraded / 4 failed / 5 interrupted
  std::size_t jobs = 0;
  std::size_t done = 0;     // ok + degraded
  std::size_t failed = 0;   // attempts exhausted
  std::size_t degraded = 0;
  long long retries = 0;    // extra attempts across all jobs
  long long crashes = 0;    // attempts that died on a signal
  long long timeouts = 0;   // attempts killed by wall/heartbeat caps
  bool interrupted = false; // drained on SIGINT/SIGTERM
  double runtime_s = 0.0;
};

/// Runs a fresh farm in `options.dir`. Throws InvalidArgument when the
/// directory already holds a journal (use resume_farm) or is locked by a
/// live supervisor.
[[nodiscard]] FarmOutcome run_farm(const FarmOptions& options);

/// Resumes an interrupted/killed farm: replays the journal, takes over a
/// stale lock and re-runs only unfinished jobs. Resuming a completed
/// farm is a no-op that re-publishes the farm manifest.
[[nodiscard]] FarmOutcome resume_farm(const std::string& exe,
                                      const std::string& dir);

}  // namespace fp::farm
