#include "farm/journal.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <sstream>

#include <unistd.h>

#include "util/error.h"
#include "util/file.h"
#include "util/rng.h"
#include "util/strings.h"

namespace fp::farm {

namespace fs = std::filesystem;
using obs::Json;

namespace {

std::string lock_path(const std::string& dir) { return dir + "/farm.lock"; }
std::string header_path(const std::string& dir) { return dir + "/farm.json"; }
std::string journal_path(const std::string& dir) {
  return dir + "/journal.jsonl";
}

/// Acquires (or takes over) the farm lock. Returns true when a stale
/// lock from a dead supervisor was replaced.
bool acquire_lock(const std::string& dir) {
  const std::string path = lock_path(dir);
  bool took_over = false;
  if (fs::exists(path)) {
    long long owner = 0;
    try {
      owner = static_cast<long long>(obs::json_load(path).at("pid").as_number());
    } catch (const Error&) {
      owner = 0;  // torn/garbage lock: treat as stale
    }
    // kill(pid, 0) probes liveness without sending a signal. ESRCH means
    // the owning supervisor is gone (e.g. SIGKILLed) and we may take over.
    if (owner > 0 && (::kill(static_cast<pid_t>(owner), 0) == 0 ||
                      errno == EPERM)) {
      throw InvalidArgument("farm directory " + dir +
                            " is locked by a live supervisor (pid " +
                            std::to_string(owner) + ")");
    }
    took_over = true;
  }
  Json lock = Json::object();
  lock.set("pid", Json::number(static_cast<long long>(::getpid())));
  write_file_atomic(path, lock.dump() + "\n");
  return took_over;
}

Json string_array(const std::vector<std::string>& values) {
  Json array = Json::array();
  for (const std::string& value : values) {
    array.push(Json::string(value));
  }
  return array;
}

std::vector<std::string> string_vector(const Json& array) {
  std::vector<std::string> values;
  values.reserve(array.items().size());
  for (const Json& item : array.items()) {
    values.push_back(item.as_string());
  }
  return values;
}

}  // namespace

Json header_to_json(const FarmHeader& header) {
  Json doc = Json::object();
  doc.set("schema", Json::string(std::string(kJournalSchema)));
  doc.set("circuit", Json::string(header.circuit));
  doc.set("jobs_file", Json::string(header.jobs_file));
  doc.set("labels", string_array(header.labels));
  doc.set("workers", Json::number(static_cast<long long>(header.workers)));
  doc.set("max_attempts",
          Json::number(static_cast<long long>(header.max_attempts)));
  doc.set("job_timeout_s", Json::number(header.job_timeout_s));
  doc.set("hang_timeout_s", Json::number(header.hang_timeout_s));
  doc.set("retry_base_ms", Json::number(header.retry_base_ms));
  doc.set("backoff_seed",
          Json::number(static_cast<long long>(header.backoff_seed)));
  doc.set("fault_spec", Json::string(header.fault_spec));
  doc.set("base_flags", string_array(header.base_flags));
  return doc;
}

FarmHeader header_from_json(const Json& doc) {
  const std::string schema = doc.at("schema").as_string();
  if (schema != kJournalSchema) {
    throw InvalidArgument("farm journal: unsupported schema '" + schema +
                          "' (expected " + std::string(kJournalSchema) + ")");
  }
  FarmHeader header;
  header.circuit = doc.at("circuit").as_string();
  header.jobs_file = doc.at("jobs_file").as_string();
  header.labels = string_vector(doc.at("labels"));
  header.workers = static_cast<int>(doc.at("workers").as_number());
  header.max_attempts = static_cast<int>(doc.at("max_attempts").as_number());
  header.job_timeout_s = doc.at("job_timeout_s").as_number();
  header.hang_timeout_s = doc.at("hang_timeout_s").as_number();
  header.retry_base_ms =
      static_cast<long long>(doc.at("retry_base_ms").as_number());
  header.backoff_seed =
      static_cast<std::uint64_t>(doc.at("backoff_seed").as_number());
  header.fault_spec = doc.at("fault_spec").as_string();
  header.base_flags = string_vector(doc.at("base_flags"));
  return header;
}

std::size_t JournalState::pending_count() const {
  return static_cast<std::size_t>(
      std::count_if(jobs.begin(), jobs.end(), [](const JobProgress& job) {
        return job.state == JobProgress::State::Pending ||
               job.state == JobProgress::State::Running;
      }));
}

namespace {

std::size_t count_state(const std::vector<JobProgress>& jobs,
                        JobProgress::State state) {
  return static_cast<std::size_t>(
      std::count_if(jobs.begin(), jobs.end(), [state](const JobProgress& job) {
        return job.state == state;
      }));
}

/// A fresh farm's state: one pending job per header label.
JournalState initial_state(const FarmHeader& header) {
  JournalState state;
  state.header = header;
  state.jobs.resize(header.labels.size());
  for (std::size_t i = 0; i < header.labels.size(); ++i) {
    state.jobs[i].label = header.labels[i];
  }
  return state;
}

/// Folds one journal event into `state`: the only place a job changes
/// state. replay_journal folds every line of the log and the live
/// journal folds each event it appends, so a running farm's state is
/// what a resume would rebuild. Unknown events and jobs are ignored.
void apply_event(JournalState& state, const Json& event) {
  const Json* kind = event.find("event");
  if (kind == nullptr || !kind->is_string()) return;
  // Event timestamps arrived with the observability work; journals
  // written before them replay with first/last left at 0.
  if (const Json* stamp = event.find("t");
      stamp != nullptr && stamp->is_number()) {
    const double t = stamp->as_number();
    if (state.first_event_t == 0.0) state.first_event_t = t;
    state.last_event_t = t;
  }
  const std::string& name = kind->as_string();
  if (name == "farm_done") {
    state.completed = true;
    return;
  }
  if (name != "start" && name != "done" && name != "retry") return;
  const double index = obs::number_or(event, "job", -1.0);
  if (index < 0.0 || index >= static_cast<double>(state.jobs.size())) return;
  JobProgress& job = state.jobs[static_cast<std::size_t>(index)];
  if (name == "start") {
    job.state = JobProgress::State::Running;
    job.attempts = std::max(
        job.attempts, static_cast<int>(event.at("attempt").as_number()));
    return;
  }
  if (name == "retry") {
    job.state = JobProgress::State::Pending;
    return;
  }
  AttemptRecord record;
  record.attempt = static_cast<int>(event.at("attempt").as_number());
  record.outcome = event.at("outcome").as_string();
  record.code = obs::string_or(event, "code", "");
  record.exit_code = static_cast<int>(obs::number_or(event, "exit", 0.0));
  record.signal = static_cast<int>(obs::number_or(event, "signal", 0.0));
  record.detail = obs::string_or(event, "detail", "");
  job.history.push_back(record);
  if (record.outcome == "ok" || record.outcome == "degraded") {
    job.state = JobProgress::State::Done;
    job.degraded = record.outcome == "degraded";
  } else if (record.outcome == "interrupted") {
    // A drained attempt is free: it was the *user's* signal, not the
    // job's fault, so it neither counts towards max_attempts nor leaves
    // the job failed.
    job.state = JobProgress::State::Pending;
    job.attempts = std::max(0, record.attempt - 1);
  } else if ((record.outcome == "error" && record.exit_code == 2) ||
             job.attempts >= state.header.max_attempts) {
    // Exit 2 is bad input (FP-INVALID, FP-IO, FP-PROTO): every retry
    // would fail the same way.
    job.state = JobProgress::State::Failed;
  } else {
    job.state = JobProgress::State::Pending;
  }
}

}  // namespace

std::size_t JournalState::done_count() const {
  return count_state(jobs, JobProgress::State::Done);
}

std::size_t JournalState::failed_count() const {
  return count_state(jobs, JobProgress::State::Failed);
}

std::size_t JournalState::running_count() const {
  return count_state(jobs, JobProgress::State::Running);
}

long long backoff_delay_ms(std::uint64_t seed, int job_index, int attempt,
                           long long retry_base_ms, long long max_ms) {
  require(attempt >= 1, "backoff_delay_ms: attempt must be >= 1");
  require(retry_base_ms >= 0, "backoff_delay_ms: negative base delay");
  if (retry_base_ms == 0) return 0;
  // Exponential base: base * 2^(attempt-1), saturating well below
  // overflow before the cap is applied.
  long long delay = retry_base_ms;
  for (int i = 1; i < attempt && delay < max_ms; ++i) delay *= 2;
  // Seeded jitter in [0, base): the stream is keyed on (seed, job,
  // attempt) so every (job, attempt) pair has its own reproducible draw
  // and two jobs retrying together don't thundering-herd in lockstep.
  constexpr std::uint64_t kGolden = std::uint64_t{0x9e3779b97f4a7c15};
  const std::uint64_t key = seed ^
                            (static_cast<std::uint64_t>(job_index) * kGolden) ^
                            (static_cast<std::uint64_t>(attempt) << 32);
  Rng rng(key);
  delay += rng.uniform_int(0, retry_base_ms - 1);
  return std::min(delay, max_ms);
}

FarmJournal FarmJournal::create(const std::string& dir,
                                const FarmHeader& header) {
  require(!dir.empty(), "FarmJournal::create: empty directory");
  require(!header.labels.empty(), "FarmJournal::create: no jobs");
  fs::create_directories(dir);
  if (fs::exists(journal_path(dir)) || fs::exists(header_path(dir))) {
    throw InvalidArgument("farm directory " + dir +
                          " already holds a journal; use --resume");
  }
  FarmJournal journal;
  journal.dir_ = dir;
  const bool took_over = acquire_lock(dir);
  write_file_atomic(header_path(dir), header_to_json(header).dump() + "\n");
  journal.state_ = initial_state(header);
  journal.state_.took_over = took_over;
  journal.log_.open(journal_path(dir), std::ios::binary | std::ios::app);
  if (!journal.log_) {
    throw IoError("farm journal: cannot open " + journal_path(dir));
  }
  return journal;
}

JournalState replay_journal(const std::string& dir) {
  if (!fs::exists(header_path(dir))) {
    throw InvalidArgument("farm directory " + dir +
                          " has no farm.json; nothing to resume");
  }
  JournalState state =
      initial_state(header_from_json(obs::json_load(header_path(dir))));

  // Replay. Each event line is independent; a torn final line (the write
  // a SIGKILL interrupted) fails json_parse and is skipped -- its job
  // simply replays as not-yet-done and re-runs.
  std::ifstream log(journal_path(dir), std::ios::binary);
  std::string line;
  while (log && std::getline(log, line)) {
    if (trim(line).empty()) continue;
    Json event;
    try {
      event = obs::json_parse(line);
    } catch (const Error&) {
      continue;  // torn tail
    }
    apply_event(state, event);
  }
  return state;
}

FarmJournal FarmJournal::resume(const std::string& dir) {
  if (!fs::exists(header_path(dir))) {
    throw InvalidArgument("farm directory " + dir +
                          " has no farm.json; nothing to resume");
  }
  FarmJournal journal;
  journal.dir_ = dir;
  const bool took_over = acquire_lock(dir);
  journal.state_ = replay_journal(dir);
  journal.state_.took_over = took_over;
  // In-flight attempts (start without done) belong to the killed
  // supervisor's workers; they re-run from scratch.
  for (JobProgress& job : journal.state_.jobs) {
    if (job.state == JobProgress::State::Running) {
      job.state = JobProgress::State::Pending;
    }
  }

  journal.log_.open(journal_path(dir), std::ios::binary | std::ios::app);
  if (!journal.log_) {
    throw IoError("farm journal: cannot open " + journal_path(dir));
  }
  if (journal.state_.took_over) journal.record_marker("takeover");
  return journal;
}

void FarmJournal::append(Json event) {
  // Wall clock, not steady: the journal outlives supervisor processes
  // (resume), and `dash --follow` compares against the current time.
  const double now_s =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  event.set("t", Json::number(now_s));
  log_ << event.dump() << '\n';
  log_.flush();
  if (!log_) throw IoError("farm journal: append failed in " + dir_);
  apply_event(state_, event);
}

void FarmJournal::record_start(int job, int attempt) {
  Json event = Json::object();
  event.set("event", Json::string("start"));
  event.set("job", Json::number(static_cast<long long>(job)));
  event.set("attempt", Json::number(static_cast<long long>(attempt)));
  append(event);
}

void FarmJournal::record_done(int job, const AttemptRecord& record) {
  Json event = Json::object();
  event.set("event", Json::string("done"));
  event.set("job", Json::number(static_cast<long long>(job)));
  event.set("attempt", Json::number(static_cast<long long>(record.attempt)));
  event.set("outcome", Json::string(record.outcome));
  if (!record.code.empty()) event.set("code", Json::string(record.code));
  event.set("exit", Json::number(static_cast<long long>(record.exit_code)));
  event.set("signal", Json::number(static_cast<long long>(record.signal)));
  if (!record.detail.empty()) {
    event.set("detail", Json::string(record.detail));
  }
  append(event);
}

void FarmJournal::record_retry(int job, int next_attempt, long long delay_ms) {
  Json event = Json::object();
  event.set("event", Json::string("retry"));
  event.set("job", Json::number(static_cast<long long>(job)));
  event.set("attempt", Json::number(static_cast<long long>(next_attempt)));
  event.set("delay_ms", Json::number(delay_ms));
  append(event);
}

void FarmJournal::record_marker(std::string_view event_name) {
  Json event = Json::object();
  event.set("event", Json::string(std::string(event_name)));
  append(event);
}

void FarmJournal::release_lock() {
  std::error_code ec;
  fs::remove(lock_path(dir_), ec);  // best effort; stale locks are taken over
}

}  // namespace fp::farm
