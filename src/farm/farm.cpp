#include "farm/farm.h"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "codesign/report.h"
#include "exec/subprocess.h"
#include "io/circuit_file.h"
#include "obs/artifact.h"
#include "obs/merge.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/file.h"
#include "util/signal.h"
#include "util/strings.h"
#include "util/timer.h"

namespace fp::farm {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

constexpr std::size_t kStderrTailBytes = 2048;
constexpr auto kPollInterval = std::chrono::milliseconds(10);

std::string job_dir(const std::string& farm_dir, int job) {
  return farm_dir + "/jobs/job" + std::to_string(job);
}

/// FPKIT_FARM_WORKER_STALL_MS test hook: park before running the job so
/// timeout/hang paths are deterministic in tests. Sleeps in small slices
/// so an interrupt drain still gets through.
void maybe_stall() {
  const char* env = std::getenv("FPKIT_FARM_WORKER_STALL_MS");
  if (env == nullptr) return;
  long long remaining_ms = 0;
  try {
    remaining_ms = parse_int(env);
  } catch (const Error&) {
    return;
  }
  while (remaining_ms > 0 && !sig::interrupted()) {
    const long long slice = std::min<long long>(remaining_ms, 20);
    std::this_thread::sleep_for(std::chrono::milliseconds(slice));
    remaining_ms -= slice;
  }
}

}  // namespace

int run_farm_worker(const WorkerOptions& options) {
  sig::install_graceful();
  // The flow's own progress ticks keep the heartbeat file fresh, so the
  // supervisor's hang detector sees a flow that stops moving.
  obs::set_progress_heartbeat(options.heartbeat_path);
  maybe_stall();

  // The job runs as a one-job batch, so it is run, skipped on a signal
  // and mapped to an error and exit code exactly as a `fpkit batch` job.
  BatchJob job;  // its label is known once the jobs file parses
  BatchJobResult result;
  try {
    const std::vector<BatchJob> jobs =
        load_batch_jobs(options.jobs_file, options.base);
    require(options.job_index >= 0 &&
                static_cast<std::size_t>(options.job_index) < jobs.size(),
            "farm worker: --job-index " + std::to_string(options.job_index) +
                " out of range (jobs file has " +
                std::to_string(jobs.size()) + " job(s))");
    job = jobs[static_cast<std::size_t>(options.job_index)];
    job.options.interruptible = true;  // SIGINT/SIGTERM -> exit 5
    const Package package = load_circuit(options.circuit);
    result = std::move(run_flow_batch(package, {job}).jobs.front());
  } catch (const Error& error) {
    result.error = error.describe();
    result.exit_code = exit_code_for(error.code());
  }
  // The supervisor quotes this stderr line in the attempt's record.
  if (!result.ok) {
    std::fprintf(stderr, "fpkit farm worker: %s\n", result.error.c_str());
  }
  obs::RunManifest manifest = job_manifest(job, result);
  // Host info (peak RSS, cores) per attempt; the supervisor aggregates
  // these into the farm manifest's host rollup.
  obs::capture_environment(manifest);
  obs::write_run_artifact(options.out_dir, manifest,
                          /*include_metrics=*/false, /*include_trace=*/false);
  return manifest.exit_code;
}

namespace {

/// One running worker process tracked by the supervisor.
struct Slot {
  int job = -1;
  int attempt = 0;
  exec::Child child;
  Timer started;
  std::string stdout_path;
  std::string stderr_path;
  std::string heartbeat_path;
  bool killing = false;      // SIGKILL sent, waiting for the reap
  std::string kill_reason;   // "timeout" | "hang" | "drain"
};

/// A pending job and the earliest instant it may launch (backoff).
struct PendingJob {
  Clock::time_point ready_at;
  int job = 0;
};

/// Seconds since the heartbeat file was last touched; `fallback` (time
/// since spawn) when the file does not exist yet.
double heartbeat_age_s(const std::string& path, double fallback) {
  std::error_code ec;
  const fs::file_time_type stamp = fs::last_write_time(path, ec);
  if (ec) return fallback;
  const auto age = fs::file_time_type::clock::now() - stamp;
  return std::chrono::duration<double>(age).count();
}

/// Farm trace id: unique enough across runs on one host (pid + wall
/// clock); only minted when --trace is on, so determinism of untraced
/// runs is untouched.
std::string make_trace_id() {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  char buf[48];
  std::snprintf(
      buf, sizeof(buf), "farm-%x-%llx", static_cast<unsigned>(::getpid()),
      static_cast<unsigned long long>(
          std::chrono::duration_cast<std::chrono::milliseconds>(now)
              .count()));
  return buf;
}

std::string trace_index_path(const std::string& farm_dir) {
  return farm_dir + "/trace/index.json";
}

/// Lenient read of one worker heartbeat's progress payload. Returns the
/// job's completion fraction in [0, 1], or nothing for a missing file, a
/// torn write, or a stage without a total.
std::optional<double> heartbeat_fraction(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  try {
    const obs::Json doc = obs::json_parse(trim(buffer.str()));
    const double total = obs::number_or(doc, "total", 0.0);
    if (total <= 0.0) return std::nullopt;
    return std::clamp(obs::number_or(doc, "done", 0.0) / total, 0.0, 1.0);
  } catch (const Error&) {
    return std::nullopt;  // torn heartbeat; next beat will be whole
  }
}

/// Renders the supervisor's folded progress line: terminal jobs count
/// whole, in-flight jobs contribute their heartbeat fraction, and the
/// ETA extrapolates linearly from the farm's own elapsed time.
void render_farm_progress(const JournalState& state,
                          const std::vector<Slot>& slots, double elapsed_s,
                          bool final) {
  const std::size_t jobs = state.jobs.size();
  if (jobs == 0) return;
  const std::size_t terminal = state.done_count() + state.failed_count();
  double units = static_cast<double>(terminal);
  for (const Slot& slot : slots) {
    if (const std::optional<double> fraction =
            heartbeat_fraction(slot.heartbeat_path)) {
      units += *fraction;
    }
  }
  char counts[96];
  std::snprintf(counts, sizeof(counts), "%zu/%zu jobs, %zu running",
                terminal, jobs, slots.size());
  obs::progress_render(
      obs::percent_line("farm",
                        std::min(1.0, units / static_cast<double>(jobs)),
                        counts, elapsed_s),
      final);
}

/// Turns a reaped worker's exit status into the journal's attempt record.
AttemptRecord classify(const Slot& slot, const exec::ExitStatus& status) {
  AttemptRecord record;
  record.attempt = slot.attempt;
  const std::string tail = exec::read_tail(slot.stderr_path, kStderrTailBytes);
  const auto with_tail = [&tail](std::string detail) {
    if (!tail.empty()) detail += "; stderr: " + tail;
    return detail;
  };
  if (slot.killing && slot.kill_reason == "drain") {
    record.outcome = "interrupted";
    record.signal = SIGKILL;
    record.detail = "killed during interrupt drain";
  } else if (slot.killing) {
    record.outcome = "timeout";
    record.code = std::string(to_string(ErrorCode::Timeout));
    record.signal = SIGKILL;
    record.detail = slot.kill_reason == "hang"
                        ? "heartbeat stalled; worker killed"
                        : "wall-clock cap exceeded; worker killed";
  } else if (!status.exited) {
    record.outcome = "crash";
    record.code = std::string(to_string(ErrorCode::Crash));
    record.signal = status.signal;
    record.detail = with_tail("worker died: " + status.to_string());
  } else {
    switch (status.code) {
      case 0:
        record.outcome = "ok";
        break;
      case 3:
        record.outcome = "degraded";
        record.exit_code = 3;
        break;
      case 5:
        record.outcome = "interrupted";
        record.exit_code = 5;
        record.detail = "worker drained on signal";
        break;
      case 2:
        record.outcome = "error";
        record.code = std::string(to_string(ErrorCode::InvalidInput));
        record.exit_code = 2;
        record.detail = with_tail("worker rejected its input");
        break;
      default:
        record.outcome = "error";
        record.code = std::string(to_string(ErrorCode::Internal));
        record.exit_code = status.code;
        record.detail = with_tail("worker failed: " + status.to_string());
        break;
    }
  }
  return record;
}

/// Aggregates the replayed journal into the outcome the CLI reports.
FarmOutcome summarize(const JournalState& state, bool interrupted,
                      double runtime_s) {
  FarmOutcome outcome;
  outcome.jobs = state.jobs.size();
  outcome.interrupted = interrupted;
  outcome.runtime_s = runtime_s;
  for (const JobProgress& job : state.jobs) {
    if (job.state == JobProgress::State::Done) {
      ++outcome.done;
      if (job.degraded) ++outcome.degraded;
    } else if (job.state == JobProgress::State::Failed) {
      ++outcome.failed;
    }
    outcome.retries += std::max(0, job.attempts - 1);
    for (const AttemptRecord& record : job.history) {
      if (record.outcome == "crash") ++outcome.crashes;
      if (record.outcome == "timeout") ++outcome.timeouts;
    }
  }
  outcome.exit_code = sweep_exit_code(
      interrupted, outcome.failed,
      outcome.jobs - outcome.done - outcome.failed, outcome.degraded);
  return outcome;
}

/// Folds the per-job artifact host samples (written by the workers) into
/// one farm-level rollup: the *maximum* peak RSS over attempts (the
/// worst single process) and the *minimum* core count (the most
/// constrained host, relevant once workers span machines).
obs::Json host_rollup(const std::string& dir, std::size_t jobs) {
  double peak_rss = 0.0;
  double min_cores = 0.0;
  long long sampled = 0;
  for (std::size_t i = 0; i < jobs; ++i) {
    obs::Json host;
    try {
      const obs::Json doc = obs::json_load(
          job_dir(dir, static_cast<int>(i)) + "/manifest.json");
      const obs::Json* extra = doc.find("extra");
      if (extra == nullptr) continue;
      const obs::Json* entry = extra->find("host");
      if (entry == nullptr || !entry->is_object()) continue;
      host = *entry;
    } catch (const Error&) {
      continue;  // failed job without a manifest, or a torn tree
    }
    const obs::Json* rss = host.find("peak_rss_bytes");
    const obs::Json* cores = host.find("cores");
    if (rss != nullptr && rss->is_number()) {
      peak_rss = std::max(peak_rss, rss->as_number());
    }
    if (cores != nullptr && cores->is_number()) {
      min_cores = sampled == 0 ? cores->as_number()
                               : std::min(min_cores, cores->as_number());
    }
    ++sampled;
  }
  obs::Json rollup = obs::Json::object();
  rollup.set("jobs_sampled", obs::Json::number(sampled));
  rollup.set("peak_rss_bytes", obs::Json::number(peak_rss));
  rollup.set("min_cores", obs::Json::number(min_cores));
  return rollup;
}

/// Publishes the farm-level manifest (+ metrics) into the farm directory
/// without disturbing jobs/ or the journal. Result keys mirror `fpkit
/// batch` (jobs/jobs_failed/jobs_degraded/runtime_s) so compare diffs
/// farm-vs-batch top manifests cleanly; the farm_* keys are one-sided
/// extras that never gate.
void publish_manifest(const std::string& dir, const FarmJournal& journal,
                      const FarmOutcome& outcome, double wall_s,
                      const obs::TraceIndex* trace_index) {
  const JournalState& state = journal.state();
  obs::RunManifest manifest;
  manifest.subcommand = "farm";
  manifest.version = std::string(obs::kToolVersion);
  manifest.threads = state.header.workers;
  manifest.wall_s = wall_s;
  manifest.exit_code = outcome.exit_code;
  manifest.fault_spec = state.header.fault_spec;
  auto& results = manifest.results;
  results["jobs"] = static_cast<double>(outcome.jobs);
  results["jobs_failed"] = static_cast<double>(outcome.failed);
  results["jobs_degraded"] = static_cast<double>(outcome.degraded);
  results["runtime_s"] = outcome.runtime_s;
  results["farm_retries"] = static_cast<double>(outcome.retries);
  results["farm_crashes"] = static_cast<double>(outcome.crashes);
  results["farm_timeouts"] = static_cast<double>(outcome.timeouts);

  obs::Json jobs = obs::Json::array();
  for (const JobProgress& job : state.jobs) {
    obs::Json entry = obs::Json::object();
    entry.set("label", obs::Json::string(job.label));
    const char* status = job.state == JobProgress::State::Done
                             ? (job.degraded ? "degraded" : "ok")
                             : job.state == JobProgress::State::Failed
                                   ? "failed"
                                   : "pending";
    entry.set("status", obs::Json::string(status));
    entry.set("attempts",
              obs::Json::number(static_cast<long long>(job.attempts)));
    obs::Json history = obs::Json::array();
    for (const AttemptRecord& record : job.history) {
      obs::Json attempt = obs::Json::object();
      attempt.set("attempt",
                  obs::Json::number(static_cast<long long>(record.attempt)));
      attempt.set("outcome", obs::Json::string(record.outcome));
      if (!record.code.empty()) {
        attempt.set("code", obs::Json::string(record.code));
      }
      attempt.set("exit",
                  obs::Json::number(static_cast<long long>(record.exit_code)));
      attempt.set("signal",
                  obs::Json::number(static_cast<long long>(record.signal)));
      if (!record.detail.empty()) {
        attempt.set("detail", obs::Json::string(record.detail));
      }
      history.push(attempt);
    }
    entry.set("history", history);
    jobs.push(entry);
  }
  obs::Json farm = obs::Json::object();
  farm.set("workers",
           obs::Json::number(static_cast<long long>(state.header.workers)));
  farm.set("max_attempts", obs::Json::number(static_cast<long long>(
                               state.header.max_attempts)));
  farm.set("interrupted", obs::Json::boolean(outcome.interrupted));
  farm.set("resumed", obs::Json::boolean(state.took_over));
  farm.set("jobs", jobs);
  obs::Json extra = obs::Json::object();
  extra.set("farm", farm);
  extra.set("host_rollup", host_rollup(dir, outcome.jobs));
  manifest.extra = std::move(extra);
  // After extra is in place: capture_environment merges the supervisor's
  // own host block into the existing object instead of being clobbered.
  obs::capture_environment(manifest);

  obs::gauge("farm.jobs", static_cast<double>(outcome.jobs));
  obs::gauge("farm.failed", static_cast<double>(outcome.failed));
  obs::gauge("farm.degraded", static_cast<double>(outcome.degraded));
  obs::gauge("farm.runtime_s", outcome.runtime_s);

  if (trace_index == nullptr) {
    obs::write_manifest_into(dir, manifest, /*include_metrics=*/true);
    return;
  }

  // Traced farm: stitch the supervisor + worker trace parts into one
  // timeline and roll the per-worker metrics up into the farm-level
  // metrics.json, so compare/dash see the whole farm, not just the
  // supervisor. Both outputs are deterministic for fixed part files.
  obs::save_trace(dir + "/trace/supervisor/trace.json");
  try {
    obs::MergedTrace merged = obs::merge_trace_dir(dir + "/trace");
    write_file_atomic(dir + "/trace.json", merged.json);
    for (const std::string& note : merged.notes) {
      std::fprintf(stderr, "farm: trace: %s\n", note.c_str());
    }
  } catch (const Error& error) {
    std::fprintf(stderr, "farm: trace merge failed: %s\n", error.what());
  }

  std::vector<obs::MetricsPart> parts;
  double stamp = 0.0;
  for (const obs::TracePart& part : trace_index->parts) {
    if (part.name == "supervisor") continue;
    const std::size_t slash = part.file.find_last_of('/');
    if (slash == std::string::npos) continue;
    const std::string metrics_path =
        dir + "/trace/" + part.file.substr(0, slash) + "/metrics.json";
    try {
      parts.push_back(
          obs::MetricsPart{obs::json_load(metrics_path), part.name, stamp});
    } catch (const Error&) {
      // A killed attempt never wrote metrics; its successful retry did.
    }
    stamp += 1.0;
  }
  // The supervisor's own registry goes last so its farm.* gauges win
  // the last-writer-wins merge.
  parts.push_back(obs::MetricsPart{
      obs::json_parse(obs::MetricsRegistry::global().to_json()),
      "supervisor", stamp});
  try {
    obs::MergedMetrics rolled = obs::merge_metrics(std::move(parts));
    write_file_atomic(dir + "/metrics.json", rolled.doc.dump());
    for (const std::string& note : rolled.notes) {
      std::fprintf(stderr, "farm: metrics: %s\n", note.c_str());
    }
    obs::write_manifest_into(dir, manifest, /*include_metrics=*/false);
  } catch (const Error& error) {
    // Incompatible worker metrics must not lose the farm manifest; fall
    // back to the supervisor-only snapshot.
    std::fprintf(stderr, "farm: metrics rollup failed: %s\n", error.what());
    obs::write_manifest_into(dir, manifest, /*include_metrics=*/true);
  }
}

/// Writes the failed-job artifact (the batch shape: extra.error, exit 4)
/// for a failed job whose last attempt left no manifest of its own -- a
/// crash or a timeout -- so the tree stays batch-compatible.
/// A worker that exited by itself already recorded its own error and
/// code, as a batch job does, and that manifest is kept.
void write_failure_artifact(const std::string& dir, const JobProgress& job,
                            const AttemptRecord& record) {
  if (record.outcome == "error" && fs::exists(dir + "/manifest.json")) return;
  std::string error = record.code.empty() ? std::string("FP-INTERNAL")
                                          : record.code;
  error += ": " + (record.detail.empty() ? "attempt failed" : record.detail);
  error += " (after " + std::to_string(job.attempts) + " attempt(s))";
  obs::write_run_artifact(dir, job_manifest(job.label, error, 4),
                          /*include_metrics=*/false, /*include_trace=*/false);
}

/// The supervisor proper: launch/poll/reap until every job is terminal
/// or a drain empties the in-flight set.
FarmOutcome run_supervisor(const std::string& exe, FarmJournal& journal) {
  const Timer wall;
  const FarmHeader& header = journal.state().header;
  sig::install_graceful();
  obs::set_metrics_enabled(true);

  fs::create_directories(journal.dir() + "/logs");
  fs::create_directories(journal.dir() + "/hb");

  // Traced farm: assign this run a trace id and maintain the part index
  // that merge_trace_dir stitches. A resume reuses the existing index --
  // old parts keep their lanes -- though offsets recorded by a previous
  // supervisor are approximations relative to this one's epoch.
  const bool tracing = obs::tracing_enabled();
  obs::TraceIndex trace_index;
  if (tracing) {
    fs::create_directories(journal.dir() + "/trace/supervisor");
    try {
      trace_index = obs::trace_index_from_json(
          obs::json_load(trace_index_path(journal.dir())));
    } catch (const Error&) {
      trace_index.trace_id = make_trace_id();
    }
    const bool have_supervisor = std::any_of(
        trace_index.parts.begin(), trace_index.parts.end(),
        [](const obs::TracePart& part) { return part.name == "supervisor"; });
    if (!have_supervisor) {
      obs::TracePart supervisor;
      supervisor.file = "supervisor/trace.json";
      supervisor.name = "supervisor";
      supervisor.pid = 1;
      supervisor.sort_index = 0;
      supervisor.offset_us = 0;
      trace_index.parts.insert(trace_index.parts.begin(),
                               std::move(supervisor));
    }
    obs::TraceProcess identity;
    identity.pid = 1;
    identity.sort_index = 0;
    identity.name = "supervisor";
    identity.trace_id = trace_index.trace_id;
    obs::set_trace_process(std::move(identity));
    write_file_atomic(trace_index_path(journal.dir()),
                      trace_index_to_json(trace_index).dump() + "\n");
  }

  std::deque<PendingJob> pending;
  for (std::size_t i = 0; i < journal.state().jobs.size(); ++i) {
    if (journal.state().jobs[i].state == JobProgress::State::Pending) {
      pending.push_back(PendingJob{Clock::now(), static_cast<int>(i)});
    }
  }
  std::vector<Slot> slots;
  bool draining = false;
  bool hard_drain = false;
  Clock::time_point last_progress = Clock::now();

  const auto spawn_job = [&](int job) {
    const JobProgress& progress =
        journal.state().jobs[static_cast<std::size_t>(job)];
    Slot slot;
    slot.job = job;
    slot.attempt = progress.attempts + 1;
    const std::string stem = journal.dir() + "/logs/job" +
                             std::to_string(job) + ".attempt" +
                             std::to_string(slot.attempt);
    slot.stdout_path = stem + ".stdout";
    slot.stderr_path = stem + ".stderr";
    slot.heartbeat_path =
        journal.dir() + "/hb/job" + std::to_string(job) + ".hb";
    std::error_code ec;
    fs::remove(slot.heartbeat_path, ec);  // stale mtime must not mask a hang

    exec::SpawnOptions spawn;
    spawn.argv = {exe,
                  "farm",
                  header.circuit,
                  "--worker=1",
                  "--jobs-file=" + header.jobs_file,
                  "--job-index=" + std::to_string(job),
                  "--job-out=" + job_dir(journal.dir(), job),
                  "--heartbeat-file=" + slot.heartbeat_path};
    spawn.argv.insert(spawn.argv.end(), header.base_flags.begin(),
                      header.base_flags.end());
    // Faults fire on the *first* attempt only: a retry of a crashed job
    // must run clean or it would crash forever. The worker must also
    // never inherit the supervisor's artifact/trace/progress plumbing.
    if (slot.attempt == 1 && !header.fault_spec.empty()) {
      spawn.set_env.emplace_back("FPKIT_FAULTS", header.fault_spec);
    } else {
      spawn.unset_env.emplace_back("FPKIT_FAULTS");
    }
    spawn.unset_env.emplace_back("FPKIT_ARTIFACT_DIR");
    spawn.unset_env.emplace_back("FPKIT_TRACE");
    spawn.unset_env.emplace_back("FPKIT_PROGRESS");
    // Trace-context propagation: hand the worker its lane in the shared
    // timeline and a directory to dump its trace + metrics into. The
    // part is indexed *before* the spawn (offset sampled now, against
    // this supervisor's epoch) so even a crashed farm leaves a
    // mergeable index behind.
    if (tracing) {
      const std::string lane_name =
          "job" + std::to_string(job) + " " + progress.label;
      const std::string part_dir = "job" + std::to_string(job) + ".attempt" +
                                   std::to_string(slot.attempt);
      fs::create_directories(journal.dir() + "/trace/" + part_dir);
      spawn.set_env.emplace_back("FPKIT_TRACE_PARENT",
                                 trace_index.trace_id + ":" +
                                     std::to_string(job + 1) + ":" +
                                     lane_name);
      spawn.set_env.emplace_back("FPKIT_TRACE_DIR",
                                 journal.dir() + "/trace/" + part_dir);
      obs::TracePart part;
      part.file = part_dir + "/trace.json";
      part.name = lane_name;
      part.pid = job + 2;        // retries share the job's process band
      part.sort_index = job + 1;
      part.offset_us = obs::trace_now_us();
      trace_index.parts.push_back(std::move(part));
      write_file_atomic(trace_index_path(journal.dir()),
                        trace_index_to_json(trace_index).dump() + "\n");
    } else {
      spawn.unset_env.emplace_back("FPKIT_TRACE_PARENT");
      spawn.unset_env.emplace_back("FPKIT_TRACE_DIR");
    }
    spawn.stdout_path = slot.stdout_path;
    spawn.stderr_path = slot.stderr_path;

    journal.record_start(job, slot.attempt);
    slot.child = exec::Child::spawn(spawn);
    slot.started = Timer();
    slots.push_back(std::move(slot));
  };

  const auto handle_done = [&](const Slot& slot,
                               const exec::ExitStatus& status) {
    const AttemptRecord record = classify(slot, status);
    journal.record_done(slot.job, record);
    if (record.outcome == "crash") obs::count("farm.crashes");
    if (record.outcome == "timeout") obs::count("farm.timeouts");
    // A crashed publish can leave the job's half-written artifact staging
    // directory behind; clear it so the tree holds whole artifacts only.
    std::error_code ec;
    fs::remove_all(job_dir(journal.dir(), slot.job) + ".tmp-partial", ec);

    const JobProgress& progress =
        journal.state().jobs[static_cast<std::size_t>(slot.job)];
    const std::string& label = progress.label;
    // Clear any in-place progress line before regular per-job output.
    obs::progress_finish();
    if (progress.state == JobProgress::State::Done) {
      std::printf("farm: job %d (%s) %s  [attempt %d, %.2fs]\n", slot.job,
                  label.c_str(), progress.degraded ? "degraded" : "ok",
                  record.attempt, slot.started.seconds());
      return;
    }
    if (progress.state == JobProgress::State::Failed) {
      write_failure_artifact(job_dir(journal.dir(), slot.job), progress,
                             record);
      std::fprintf(stderr,
                   "farm: job %d (%s) FAILED after %d attempt(s): %s %s\n",
                   slot.job, label.c_str(), progress.attempts,
                   record.code.c_str(), record.detail.c_str());
      return;
    }
    // Pending again: a retryable failure or an interrupted attempt.
    if (draining) return;  // --resume picks it up later
    if (record.outcome == "interrupted") {
      pending.push_back(PendingJob{Clock::now(), slot.job});
      return;
    }
    const long long delay_ms =
        backoff_delay_ms(header.backoff_seed, slot.job, record.attempt,
                         header.retry_base_ms);
    journal.record_retry(slot.job, progress.attempts + 1, delay_ms);
    obs::count("farm.retries");
    std::fprintf(stderr,
                 "farm: job %d (%s) attempt %d %s (%s); retrying in "
                 "%lld ms\n",
                 slot.job, label.c_str(), record.attempt,
                 record.outcome.c_str(), record.code.c_str(), delay_ms);
    pending.push_back(
        PendingJob{Clock::now() + std::chrono::milliseconds(delay_ms),
                   slot.job});
  };

  while (true) {
    // Signal edge: first signal drains, second hard-kills the stragglers.
    if (sig::interrupted() && !draining) {
      draining = true;
      journal.record_marker("interrupted");
      std::fprintf(stderr,
                   "farm: interrupt received; draining %zu in-flight "
                   "job(s), %zu left pending (exit code 5)\n",
                   slots.size(), pending.size());
    }
    if (draining && !hard_drain && sig::received_count() >= 2) {
      hard_drain = true;
      for (Slot& slot : slots) {
        if (!slot.killing) {
          slot.child.kill(SIGKILL);
          slot.killing = true;
          slot.kill_reason = "drain";
        }
      }
    }

    // Launch phase: fill free slots with due pending jobs.
    while (!draining && static_cast<int>(slots.size()) < header.workers) {
      const auto due = std::find_if(
          pending.begin(), pending.end(),
          [](const PendingJob& p) { return p.ready_at <= Clock::now(); });
      if (due == pending.end()) break;
      const int job = due->job;
      pending.erase(due);
      spawn_job(job);
    }

    // Reap phase; also enforce wall/heartbeat caps on the still-running.
    bool reaped = false;
    for (std::size_t i = 0; i < slots.size();) {
      Slot& slot = slots[i];
      exec::ExitStatus status;
      if (slot.child.try_wait(status)) {
        handle_done(slot, status);
        slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(i));
        reaped = true;
        continue;
      }
      const double elapsed = slot.started.seconds();
      if (!slot.killing && header.job_timeout_s > 0.0 &&
          elapsed > header.job_timeout_s) {
        slot.child.kill(SIGKILL);
        slot.killing = true;
        slot.kill_reason = "timeout";
      } else if (!slot.killing && header.hang_timeout_s > 0.0 &&
                 elapsed > header.hang_timeout_s &&
                 heartbeat_age_s(slot.heartbeat_path, elapsed) >
                     header.hang_timeout_s) {
        slot.child.kill(SIGKILL);
        slot.killing = true;
        slot.kill_reason = "hang";
      }
      ++i;
    }

    if (slots.empty() && (draining || pending.empty())) break;
    // Folded farm progress: terminal jobs plus in-flight heartbeat
    // fractions. Throttled here (not just in the renderer) so the
    // 10 ms poll doesn't re-read every heartbeat file each lap.
    if (obs::progress_enabled() &&
        std::chrono::duration<double>(Clock::now() - last_progress)
                .count() > 0.1) {
      last_progress = Clock::now();
      render_farm_progress(journal.state(), slots, wall.seconds(),
                           /*final=*/false);
    }
    // A reap that freed a slot for a due job launches it on the next lap
    // at once instead of a poll interval later.
    const bool launch_now =
        reaped && !draining &&
        std::any_of(pending.begin(), pending.end(), [](const PendingJob& p) {
          return p.ready_at <= Clock::now();
        });
    if (!launch_now) std::this_thread::sleep_for(kPollInterval);
  }

  const FarmOutcome outcome =
      summarize(journal.state(), draining, wall.seconds());
  if (obs::progress_enabled()) {
    render_farm_progress(journal.state(), slots, wall.seconds(),
                         /*final=*/true);
    obs::progress_finish();
  }
  if (!draining && !journal.state().completed &&
      outcome.done + outcome.failed == outcome.jobs) {
    journal.record_marker("farm_done");
  }
  publish_manifest(journal.dir(), journal, outcome, wall.seconds(),
                   tracing ? &trace_index : nullptr);
  journal.release_lock();
  return outcome;
}

}  // namespace

FarmOutcome run_farm(const FarmOptions& options) {
  require(!options.exe.empty(), "run_farm: empty worker executable path");
  FarmJournal journal = FarmJournal::create(options.dir, options.header);
  return run_supervisor(options.exe, journal);
}

FarmOutcome resume_farm(const std::string& exe, const std::string& dir) {
  require(!exe.empty(), "resume_farm: empty worker executable path");
  FarmJournal journal = FarmJournal::resume(dir);
  return run_supervisor(exe, journal);
}

}  // namespace fp::farm
