// The batch farm's robustness contract (docs/ROBUSTNESS.md): the
// journal replays to the exact job states the events described (torn
// tails and stale locks included), the retry schedule is a pure function
// of the backoff seed, and -- end to end, driving the real fpkit binary
// -- a farm whose workers crash, hang or whose supervisor is SIGKILLed
// mid-run still converges to the same artifact tree as an uninterrupted
// single-process `fpkit batch` of the same jobs file.
#include <gtest/gtest.h>

#include <csignal>
#include <chrono>
#include <fstream>
#include <filesystem>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "exec/subprocess.h"
#include "farm/farm.h"
#include "farm/journal.h"
#include "io/circuit_file.h"
#include "obs/json.h"
#include "obs/merge.h"
#include "obs/profile.h"
#include "package/circuit_generator.h"
#include "util/error.h"

namespace fp::farm {
namespace {

namespace fs = std::filesystem;
using obs::Json;

#ifndef FPKIT_CLI_PATH
#define FPKIT_CLI_PATH ""
#endif

/// Fresh per-test scratch directory under the gtest temp root.
std::string scratch_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + "fpkit_farm_" +
                          info->test_suite_name() + "_" + info->name();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

FarmHeader small_header(std::vector<std::string> labels) {
  FarmHeader header;
  header.circuit = "circuit.fp";
  header.jobs_file = "jobs.txt";
  header.labels = std::move(labels);
  header.workers = 2;
  header.max_attempts = 3;
  header.retry_base_ms = 100;
  header.backoff_seed = 7;
  return header;
}

AttemptRecord make_record(int attempt, const std::string& outcome,
                          const std::string& code = "", int exit_code = 0,
                          int signal = 0) {
  AttemptRecord record;
  record.attempt = attempt;
  record.outcome = outcome;
  record.code = code;
  record.exit_code = exit_code;
  record.signal = signal;
  record.detail = outcome + " detail";
  return record;
}

// --- deterministic backoff ----------------------------------------------

TEST(BackoffTest, FixedSeedReproducesTheExactSchedule) {
  for (int job = 0; job < 4; ++job) {
    for (int attempt = 1; attempt <= 5; ++attempt) {
      EXPECT_EQ(backoff_delay_ms(42, job, attempt, 250),
                backoff_delay_ms(42, job, attempt, 250))
          << "job " << job << " attempt " << attempt;
    }
  }
}

TEST(BackoffTest, DelayGrowsExponentiallyWithinJitterBand) {
  // attempt k: base * 2^(k-1) <= delay < base * 2^(k-1) + base (pre-cap).
  const long long base = 200;
  for (int attempt = 1; attempt <= 4; ++attempt) {
    const long long floor = base << (attempt - 1);
    const long long delay =
        backoff_delay_ms(1, 0, attempt, base, 1 << 20);
    EXPECT_GE(delay, floor) << "attempt " << attempt;
    EXPECT_LT(delay, floor + base) << "attempt " << attempt;
  }
}

TEST(BackoffTest, JitterDecorrelatesJobsAndAttempts) {
  // Distinct (job, attempt) keys must not all draw the same jitter, or
  // retrying jobs thundering-herd in lockstep.
  std::vector<long long> jitters;
  for (int job = 0; job < 8; ++job) {
    jitters.push_back(backoff_delay_ms(9, job, 1, 1000, 1 << 20) - 1000);
  }
  bool varied = false;
  for (const long long jitter : jitters) {
    varied = varied || jitter != jitters.front();
  }
  EXPECT_TRUE(varied) << "8 jobs drew identical jitter";
}

TEST(BackoffTest, CapAndZeroBaseEdgeCases) {
  EXPECT_EQ(backoff_delay_ms(1, 0, 1, 0), 0);
  EXPECT_EQ(backoff_delay_ms(1, 0, 30, 250, 10000), 10000);
  EXPECT_THROW((void)backoff_delay_ms(1, 0, 0, 250), InvalidArgument);
}

// --- header round trip --------------------------------------------------

TEST(FarmHeaderTest, RoundTripsThroughJson) {
  FarmHeader header = small_header({"a", "b", "c"});
  header.job_timeout_s = 12.5;
  header.hang_timeout_s = 3.25;
  header.fault_spec = "sa.step:after=1:mode=abort";
  header.base_flags = {"--mesh=24", "--no-exchange=1"};
  const FarmHeader back = header_from_json(header_to_json(header));
  EXPECT_EQ(back.circuit, header.circuit);
  EXPECT_EQ(back.jobs_file, header.jobs_file);
  EXPECT_EQ(back.labels, header.labels);
  EXPECT_EQ(back.workers, header.workers);
  EXPECT_EQ(back.max_attempts, header.max_attempts);
  EXPECT_DOUBLE_EQ(back.job_timeout_s, header.job_timeout_s);
  EXPECT_DOUBLE_EQ(back.hang_timeout_s, header.hang_timeout_s);
  EXPECT_EQ(back.retry_base_ms, header.retry_base_ms);
  EXPECT_EQ(back.backoff_seed, header.backoff_seed);
  EXPECT_EQ(back.fault_spec, header.fault_spec);
  EXPECT_EQ(back.base_flags, header.base_flags);
}

TEST(FarmHeaderTest, RejectsForeignSchema) {
  Json doc = header_to_json(small_header({"a"}));
  doc.set("schema", Json::string("not.a.journal"));
  EXPECT_THROW((void)header_from_json(doc), InvalidArgument);
}

// --- journal create / replay --------------------------------------------

TEST(FarmJournalTest, ReplayReconstructsJobStates) {
  const std::string dir = scratch_dir();
  {
    FarmJournal journal = FarmJournal::create(dir, small_header({"a", "b"}));
    // Job 0: clean first-attempt success.
    journal.record_start(0, 1);
    journal.record_done(0, make_record(1, "ok"));
    // Job 1: crash, retry, then degraded success.
    journal.record_start(1, 1);
    journal.record_done(1, make_record(1, "crash", "FP-CRASH", 0, SIGABRT));
    journal.record_retry(1, 2, 150);
    journal.record_start(1, 2);
    journal.record_done(1, make_record(2, "degraded", "", 3));
    journal.release_lock();
  }
  const FarmJournal replay = FarmJournal::resume(dir);
  const JournalState& state = replay.state();
  EXPECT_FALSE(state.took_over);  // lock was released cleanly
  EXPECT_FALSE(state.completed);  // no farm_done marker
  ASSERT_EQ(state.jobs.size(), 2u);
  EXPECT_EQ(state.jobs[0].state, JobProgress::State::Done);
  EXPECT_EQ(state.jobs[0].attempts, 1);
  EXPECT_FALSE(state.jobs[0].degraded);
  EXPECT_EQ(state.jobs[1].state, JobProgress::State::Done);
  EXPECT_EQ(state.jobs[1].attempts, 2);
  EXPECT_TRUE(state.jobs[1].degraded);
  ASSERT_EQ(state.jobs[1].history.size(), 2u);
  EXPECT_EQ(state.jobs[1].history[0].outcome, "crash");
  EXPECT_EQ(state.jobs[1].history[0].code, "FP-CRASH");
  EXPECT_EQ(state.jobs[1].history[0].signal, SIGABRT);
  EXPECT_EQ(state.pending_count(), 0u);
}

TEST(FarmJournalTest, InFlightStartRollsBackToPending) {
  const std::string dir = scratch_dir();
  {
    FarmJournal journal = FarmJournal::create(dir, small_header({"a"}));
    journal.record_start(0, 1);
    // Supervisor dies here: no done event, lock left behind. The lock
    // carries *this* process's pid, which is very much alive, so stand
    // in a dead owner before resuming.
  }
  {
    std::ofstream lock(dir + "/farm.lock", std::ios::trunc);
    lock << "{\"pid\": 0}\n";
  }
  const FarmJournal replay = FarmJournal::resume(dir);
  EXPECT_TRUE(replay.state().took_over);
  ASSERT_EQ(replay.state().jobs.size(), 1u);
  EXPECT_EQ(replay.state().jobs[0].state, JobProgress::State::Pending);
  EXPECT_EQ(replay.state().pending_count(), 1u);
}

TEST(FarmJournalTest, TornFinalLineIsIgnored) {
  const std::string dir = scratch_dir();
  {
    FarmJournal journal = FarmJournal::create(dir, small_header({"a"}));
    journal.record_start(0, 1);
    journal.record_done(0, make_record(1, "ok"));
    journal.release_lock();
  }
  {
    // Simulate a crash mid-append: a half-written JSON line at the tail.
    std::ofstream log(dir + "/journal.jsonl",
                      std::ios::binary | std::ios::app);
    log << "{\"event\":\"done\",\"job\":0,\"att";
  }
  const FarmJournal replay = FarmJournal::resume(dir);
  ASSERT_EQ(replay.state().jobs.size(), 1u);
  EXPECT_EQ(replay.state().jobs[0].state, JobProgress::State::Done);
  EXPECT_EQ(replay.state().jobs[0].attempts, 1);
}

TEST(FarmJournalTest, InterruptedAttemptDoesNotConsumeRetryBudget) {
  const std::string dir = scratch_dir();
  {
    FarmJournal journal = FarmJournal::create(dir, small_header({"a"}));
    journal.record_start(0, 1);
    AttemptRecord record = make_record(1, "interrupted", "", 5);
    journal.record_done(0, record);
    journal.release_lock();
  }
  const FarmJournal replay = FarmJournal::resume(dir);
  ASSERT_EQ(replay.state().jobs.size(), 1u);
  EXPECT_EQ(replay.state().jobs[0].state, JobProgress::State::Pending);
  EXPECT_EQ(replay.state().jobs[0].attempts, 0)
      << "a drained attempt must be free: the operator's Ctrl-C is not "
         "the job's fault";
}

TEST(FarmJournalTest, CreateRefusesADirectoryThatAlreadyHoldsAJournal) {
  const std::string dir = scratch_dir();
  {
    FarmJournal journal = FarmJournal::create(dir, small_header({"a"}));
    journal.release_lock();
  }
  EXPECT_THROW((void)FarmJournal::create(dir, small_header({"a"})),
               InvalidArgument);
}

TEST(FarmJournalTest, StaleLockIsTakenOverAndLiveLockRefused) {
  const std::string dir = scratch_dir();
  {
    FarmJournal journal = FarmJournal::create(dir, small_header({"a"}));
    journal.record_start(0, 1);
    // No release_lock(): the supervisor was SIGKILLed. Overwrite the
    // lock with a pid that is guaranteed dead: a reaped child's.
    exec::SpawnOptions probe;
    probe.argv = {"/bin/true"};
    exec::Child child = exec::Child::spawn(probe);
    const pid_t dead = child.pid();
    (void)child.wait();
    std::ofstream lock(dir + "/farm.lock", std::ios::trunc);
    lock << "{\"pid\": " << dead << "}\n";
  }
  {
    const FarmJournal replay = FarmJournal::resume(dir);
    EXPECT_TRUE(replay.state().took_over);
  }
  {
    // A live supervisor (this process) holds the lock: refuse. Close
    // the stream before resuming or the probe reads an unflushed file.
    {
      std::ofstream lock(dir + "/farm.lock", std::ios::trunc);
      lock << "{\"pid\": " << ::getpid() << "}\n";
    }
    EXPECT_THROW((void)FarmJournal::resume(dir), InvalidArgument);
  }
  {
    // Garbage lock content counts as stale, not fatal.
    {
      std::ofstream lock(dir + "/farm.lock", std::ios::trunc);
      lock << "not json";
    }
    const FarmJournal replay = FarmJournal::resume(dir);
    EXPECT_TRUE(replay.state().took_over);
  }
}

// --- end to end, driving the real binary --------------------------------

struct CliResult {
  exec::ExitStatus status;
  std::string out;
  std::string err;
};

/// Runs the fpkit binary with stdio captured; `tag` keeps log files of
/// concurrent invocations apart inside one test's scratch dir.
CliResult run_cli(
    const std::string& dir, const std::string& tag,
    std::vector<std::string> argv,
    std::vector<std::pair<std::string, std::string>> env = {}) {
  exec::SpawnOptions options;
  options.argv.push_back(FPKIT_CLI_PATH);
  for (std::string& arg : argv) options.argv.push_back(std::move(arg));
  options.set_env = std::move(env);
  // A farm test re-invoked under an outer artifact recorder must not
  // leak that recorder into the children under test.
  options.unset_env = {"FPKIT_ARTIFACT_DIR", "FPKIT_TRACE", "FPKIT_FAULTS",
                       "FPKIT_TRACE_DIR", "FPKIT_TRACE_PARENT",
                       "FPKIT_PROGRESS", "FPKIT_PROGRESS_CAPTURE"};
  options.stdout_path = dir + "/" + tag + ".out";
  options.stderr_path = dir + "/" + tag + ".err";
  exec::Child child = exec::Child::spawn(options);
  CliResult result;
  result.status = child.wait();
  result.out = exec::read_tail(options.stdout_path, 1 << 16);
  result.err = exec::read_tail(options.stderr_path, 1 << 16);
  return result;
}

/// Writes the shared fixture: a tiny circuit and a three-job jobs file
/// (exchange off keeps each job fast; distinct seeds keep results
/// distinguishable across jobs).
void write_fixture(const std::string& dir) {
  const Package package =
      CircuitGenerator::generate(CircuitGenerator::table1(1));
  save_circuit(package, dir + "/circuit.fp");
  std::ofstream jobs(dir + "/jobs.txt");
  jobs << "# farm_test fixture\n"
       << "alpha method=dfa seed=1 mesh=12 exchange=off\n"
       << "beta  method=dfa seed=2 mesh=12 exchange=off\n"
       << "gamma method=ifa seed=3 mesh=12 exchange=off\n";
}

Json load_manifest(const std::string& dir) {
  return obs::json_load(dir + "/manifest.json");
}

double result_value(const Json& manifest, const std::string& key) {
  const Json& results = manifest.at("results");
  return results.at(key).as_number();
}

TEST(FarmEndToEndTest, FarmTreeMatchesSingleProcessBatch) {
  const std::string dir = scratch_dir();
  write_fixture(dir);
  // A plain run, then one whose budget degrades every job: batch and farm
  // record the outcome alike (exit code, jobs_degraded, job exit codes).
  struct Case {
    std::string name;
    std::vector<std::string> flags;
    int exit_code;
    double jobs_degraded;
  };
  for (const Case& c : {Case{"plain", {}, 0, 0.0},
                        Case{"budget", {"--budget", "1e-9"}, 3, 3.0}}) {
    SCOPED_TRACE(c.name);
    const std::string batch_dir = dir + "/" + c.name + "_batch";
    const std::string farm_dir = dir + "/" + c.name + "_farm";
    std::vector<std::string> batch_argv = {
        "batch", dir + "/circuit.fp", "--jobs-file", dir + "/jobs.txt",
        "--artifact-dir", batch_dir};
    std::vector<std::string> farm_argv = {
        "farm", dir + "/circuit.fp", "--jobs-file", dir + "/jobs.txt",
        "--out", farm_dir, "--workers", "2"};
    batch_argv.insert(batch_argv.end(), c.flags.begin(), c.flags.end());
    farm_argv.insert(farm_argv.end(), c.flags.begin(), c.flags.end());
    const CliResult batch = run_cli(dir, c.name + "_batch", batch_argv);
    ASSERT_TRUE(batch.status.exited) << batch.err;
    ASSERT_EQ(batch.status.code, c.exit_code) << batch.err;
    const CliResult farm = run_cli(dir, c.name + "_farm", farm_argv);
    ASSERT_TRUE(farm.status.exited) << farm.err;
    ASSERT_EQ(farm.status.code, c.exit_code) << farm.err;

    // Batch-compatible tree: top manifest plus one manifest per job.
    const Json manifest = load_manifest(farm_dir);
    EXPECT_EQ(manifest.at("subcommand").as_string(), "farm");
    EXPECT_EQ(result_value(manifest, "jobs"), 3.0);
    EXPECT_EQ(result_value(manifest, "jobs_failed"), 0.0);
    EXPECT_EQ(result_value(manifest, "farm_retries"), 0.0);
    EXPECT_EQ(result_value(manifest, "farm_crashes"), 0.0);
    EXPECT_EQ(result_value(manifest, "jobs_degraded"), c.jobs_degraded);
    EXPECT_EQ(result_value(load_manifest(batch_dir), "jobs_degraded"),
              c.jobs_degraded);
    for (int i = 0; i < 3; ++i) {
      for (const std::string& tree : {farm_dir, batch_dir}) {
        const Json job =
            load_manifest(tree + "/jobs/job" + std::to_string(i));
        EXPECT_EQ(job.at("subcommand").as_string(), "batch-job");
        EXPECT_EQ(job.at("exit_code").as_number(), c.exit_code) << tree;
      }
    }
    EXPECT_TRUE(fs::exists(farm_dir + "/journal.jsonl"));
    EXPECT_FALSE(fs::exists(farm_dir + "/farm.lock"))
        << "clean completion must release the lock";

    // The compare gate CI uses: equal per-job costs, one-sided farm_*
    // extras are informational, exit 0.
    const CliResult compare =
        run_cli(dir, c.name + "_compare",
                {"compare", farm_dir, batch_dir, "--require-equal-cost"});
    ASSERT_TRUE(compare.status.exited);
    EXPECT_EQ(compare.status.code, 0)
        << compare.out << "\n" << compare.err;
  }
}

TEST(FarmEndToEndTest, TracedFarmMergesTimelinesAndRollsUpMetrics) {
  const std::string dir = scratch_dir();
  write_fixture(dir);
  const CliResult farm = run_cli(
      dir, "farm",
      {"farm", dir + "/circuit.fp", "--jobs-file", dir + "/jobs.txt",
       "--out", dir + "/farm", "--workers", "2", "--trace"});
  ASSERT_TRUE(farm.status.exited) << farm.err;
  ASSERT_EQ(farm.status.code, 0) << farm.err;

  // One merged Chrome trace with a process band per worker attempt plus
  // the supervisor, all sharing one trace id.
  const obs::ChromeTrace trace =
      obs::load_chrome_trace(dir + "/farm/trace.json");
  EXPECT_FALSE(trace.trace_id.empty());
  ASSERT_GE(trace.process_names.size(), 4u);  // supervisor + 3 jobs
  EXPECT_EQ(trace.process_names.at(1), "supervisor");
  std::set<int> worker_pids;
  for (const obs::ProfileSpan& span : trace.spans) {
    if (span.process_id > 1) worker_pids.insert(span.process_id);
  }
  EXPECT_GE(worker_pids.size(), 2u)
      << "worker spans must land in distinct process lanes";

  // The farm-level metrics rollup: every summed counter equals the sum
  // over the per-worker metrics snapshots.
  const obs::TraceIndex index = obs::trace_index_from_json(
      obs::json_load(dir + "/farm/trace/index.json"));
  std::map<std::string, double> summed;
  for (const obs::TracePart& part : index.parts) {
    if (part.name == "supervisor") continue;
    const std::string metrics_path =
        dir + "/farm/trace/" +
        part.file.substr(0, part.file.rfind('/')) + "/metrics.json";
    const Json worker = obs::json_load(metrics_path);
    for (const auto& [name, value] : worker.at("counters").fields()) {
      summed[name] += value.as_number();
    }
  }
  EXPECT_FALSE(summed.empty());
  const Json rollup = obs::json_load(dir + "/farm/metrics.json");
  for (const auto& [name, value] : summed) {
    ASSERT_TRUE(rollup.at("counters").has(name)) << name;
    EXPECT_DOUBLE_EQ(rollup.at("counters").at(name).as_number(), value)
        << name;
  }

  // Re-merging the parts reproduces the farm's own merged trace byte for
  // byte (the CI determinism check), and --follow sees the finished farm.
  const CliResult merge = run_cli(
      dir, "merge",
      {"dash", "--merge", dir + "/farm", "--out", dir + "/remerged.json"});
  ASSERT_TRUE(merge.status.exited) << merge.err;
  ASSERT_EQ(merge.status.code, 0) << merge.err;
  std::ifstream a(dir + "/farm/trace.json"), b(dir + "/remerged.json");
  const std::string merged_a((std::istreambuf_iterator<char>(a)),
                             std::istreambuf_iterator<char>());
  const std::string merged_b((std::istreambuf_iterator<char>(b)),
                             std::istreambuf_iterator<char>());
  EXPECT_FALSE(merged_a.empty());
  EXPECT_EQ(merged_a, merged_b);

  const CliResult follow = run_cli(
      dir, "follow", {"dash", "--follow", dir + "/farm"});
  ASSERT_TRUE(follow.status.exited) << follow.err;
  EXPECT_EQ(follow.status.code, 0) << follow.err;
  EXPECT_NE(follow.out.find("3/3 job(s) done"), std::string::npos)
      << follow.out;
}

TEST(FarmEndToEndTest, UntracedFarmLeavesNoTraceArtifacts) {
  const std::string dir = scratch_dir();
  write_fixture(dir);
  const CliResult farm = run_cli(
      dir, "farm",
      {"farm", dir + "/circuit.fp", "--jobs-file", dir + "/jobs.txt",
       "--out", dir + "/farm", "--workers", "2"});
  ASSERT_TRUE(farm.status.exited) << farm.err;
  ASSERT_EQ(farm.status.code, 0) << farm.err;
  // The disabled path stays disabled: no merged trace, no trace dir.
  EXPECT_FALSE(fs::exists(dir + "/farm/trace.json"));
  EXPECT_FALSE(fs::exists(dir + "/farm/trace"));
  // But the metrics rollup-free manifest still carries the host rollup
  // aggregated from the per-worker manifests.
  const Json manifest = load_manifest(dir + "/farm");
  const Json& host = manifest.at("extra").at("host_rollup");
  EXPECT_GE(host.at("jobs_sampled").as_number(), 3.0);
  EXPECT_GT(host.at("peak_rss_bytes").as_number(), 0.0);
  EXPECT_GE(host.at("min_cores").as_number(), 1.0);
}

TEST(FarmEndToEndTest, AbortingWorkerIsContainedRetriedAndConverges) {
  const std::string dir = scratch_dir();
  write_fixture(dir);
  // alloc.grid fires inside every worker's first attempt as a hard
  // std::abort() (SIGABRT mid-job); retries run clean because the fault
  // spec is forwarded to first attempts only.
  const CliResult farm = run_cli(
      dir, "farm",
      {"farm", dir + "/circuit.fp", "--jobs-file", dir + "/jobs.txt",
       "--out", dir + "/farm", "--workers", "2", "--retry-base-ms", "10",
       "--inject", "alloc.grid:after=1:mode=abort"});
  ASSERT_TRUE(farm.status.exited) << farm.err;
  ASSERT_EQ(farm.status.code, 0)
      << "crashes must be contained per-job, not sink the farm\n"
      << farm.err;

  const Json manifest = load_manifest(dir + "/farm");
  EXPECT_GE(result_value(manifest, "farm_crashes"), 3.0);
  EXPECT_GE(result_value(manifest, "farm_retries"), 3.0);
  EXPECT_EQ(result_value(manifest, "jobs_failed"), 0.0);
  // The per-job attempt history names the crash with its stable code.
  const Json& jobs = manifest.at("extra").at("farm").at("jobs");
  bool saw_crash = false;
  for (const Json& job : jobs.items()) {
    for (const Json& attempt : job.at("history").items()) {
      if (attempt.at("outcome").as_string() == "crash") {
        saw_crash = true;
        EXPECT_EQ(attempt.at("code").as_string(), "FP-CRASH");
        EXPECT_EQ(static_cast<int>(attempt.at("signal").as_number()),
                  SIGABRT);
      }
    }
  }
  EXPECT_TRUE(saw_crash);

  // Despite the crashes, results converge to the clean batch tree.
  const CliResult batch = run_cli(
      dir, "batch",
      {"batch", dir + "/circuit.fp", "--jobs-file", dir + "/jobs.txt",
       "--artifact-dir", dir + "/batch"});
  ASSERT_EQ(batch.status.code, 0) << batch.err;
  const CliResult compare = run_cli(
      dir, "compare",
      {"compare", dir + "/farm", dir + "/batch", "--require-equal-cost"});
  EXPECT_EQ(compare.status.code, 0)
      << compare.out << "\n" << compare.err;
}

TEST(FarmEndToEndTest, HungWorkerIsKilledAsTimeout) {
  const std::string dir = scratch_dir();
  write_fixture(dir);
  // Workers park for 30 s without ever heartbeating; the supervisor's
  // hang detector must SIGKILL them long before that and record
  // FP-TIMEOUT. One attempt only, so the farm fails fast.
  const CliResult farm = run_cli(
      dir, "farm",
      {"farm", dir + "/circuit.fp", "--jobs-file", dir + "/jobs.txt",
       "--out", dir + "/farm", "--workers", "3", "--max-attempts", "1",
       "--hang-timeout", "0.4"},
      {{"FPKIT_FARM_WORKER_STALL_MS", "30000"},
       {"FPKIT_FARM_WORKER_NO_HEARTBEAT", "1"}});
  ASSERT_TRUE(farm.status.exited) << farm.err;
  EXPECT_EQ(farm.status.code, 4);
  const Json manifest = load_manifest(dir + "/farm");
  EXPECT_EQ(result_value(manifest, "jobs_failed"), 3.0);
  EXPECT_GE(result_value(manifest, "farm_timeouts"), 3.0);
  const Json& jobs = manifest.at("extra").at("farm").at("jobs");
  for (const Json& job : jobs.items()) {
    EXPECT_EQ(job.at("status").as_string(), "failed");
    EXPECT_EQ(job.at("history").items().front().at("code").as_string(),
              "FP-TIMEOUT");
  }
  // Failed jobs still publish a batch-shaped artifact with the error.
  const Json job0 = load_manifest(dir + "/farm/jobs/job0");
  EXPECT_EQ(static_cast<int>(job0.at("exit_code").as_number()), 4);
  EXPECT_NE(job0.at("extra").at("error").as_string().find("FP-TIMEOUT"),
            std::string::npos);
}

TEST(FarmEndToEndTest, WallClockCapKillsSlowAttempt) {
  const std::string dir = scratch_dir();
  write_fixture(dir);
  // Heartbeats keep arriving (no NO_HEARTBEAT), so only the per-attempt
  // wall cap can fire here.
  const CliResult farm = run_cli(
      dir, "farm",
      {"farm", dir + "/circuit.fp", "--jobs-file", dir + "/jobs.txt",
       "--out", dir + "/farm", "--workers", "3", "--max-attempts", "1",
       "--job-timeout", "0.4"},
      {{"FPKIT_FARM_WORKER_STALL_MS", "30000"}});
  ASSERT_TRUE(farm.status.exited) << farm.err;
  EXPECT_EQ(farm.status.code, 4);
  const Json manifest = load_manifest(dir + "/farm");
  EXPECT_GE(result_value(manifest, "farm_timeouts"), 3.0);
}

/// Polls until `path` exists and is non-empty (the supervisor has
/// started journaling) or the deadline passes.
bool wait_for_file(const std::string& path, double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    std::error_code ec;
    if (fs::exists(path, ec) && fs::file_size(path, ec) > 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

TEST(FarmEndToEndTest, KilledSupervisorResumesToEquivalentTree) {
  const std::string dir = scratch_dir();
  write_fixture(dir);
  // Reference: an uninterrupted farm of the same jobs file.
  const CliResult reference = run_cli(
      dir, "ref",
      {"farm", dir + "/circuit.fp", "--jobs-file", dir + "/jobs.txt",
       "--out", dir + "/ref", "--workers", "1"});
  ASSERT_EQ(reference.status.code, 0) << reference.err;

  // Victim: one worker, stalled jobs so the SIGKILL lands mid-farm.
  exec::SpawnOptions options;
  options.argv = {FPKIT_CLI_PATH,   "farm",
                  dir + "/circuit.fp", "--jobs-file=" + dir + "/jobs.txt",
                  "--out=" + dir + "/farm", "--workers=1"};
  options.set_env = {{"FPKIT_FARM_WORKER_STALL_MS", "400"}};
  options.unset_env = {"FPKIT_ARTIFACT_DIR", "FPKIT_TRACE", "FPKIT_FAULTS",
                       "FPKIT_TRACE_DIR", "FPKIT_TRACE_PARENT",
                       "FPKIT_PROGRESS", "FPKIT_PROGRESS_CAPTURE"};
  options.stdout_path = dir + "/victim.out";
  options.stderr_path = dir + "/victim.err";
  exec::Child supervisor = exec::Child::spawn(options);
  ASSERT_TRUE(wait_for_file(dir + "/farm/journal.jsonl", 20.0))
      << exec::read_tail(dir + "/victim.err", 4096);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  supervisor.kill(SIGKILL);
  const exec::ExitStatus victim = supervisor.wait();
  EXPECT_FALSE(victim.exited);
  EXPECT_EQ(victim.signal, SIGKILL);
  // Let the orphaned worker finish its stalled job before the resumed
  // farm re-runs (and atomically overwrites) the same job directory.
  std::this_thread::sleep_for(std::chrono::milliseconds(2500));

  const CliResult resumed = run_cli(
      dir, "resume", {"farm", "--resume", dir + "/farm"});
  ASSERT_TRUE(resumed.status.exited) << resumed.err;
  ASSERT_EQ(resumed.status.code, 0) << resumed.err;

  const Json manifest = load_manifest(dir + "/farm");
  EXPECT_TRUE(manifest.at("extra").at("farm").at("resumed").as_bool());
  EXPECT_EQ(result_value(manifest, "jobs_failed"), 0.0);
  // Equivalent to the uninterrupted run modulo wall time / host: every
  // cost equal, no regressions.
  const CliResult compare = run_cli(
      dir, "compare",
      {"compare", dir + "/farm", dir + "/ref", "--require-equal-cost"});
  EXPECT_EQ(compare.status.code, 0)
      << compare.out << "\n" << compare.err;
}

TEST(FarmEndToEndTest, SigtermDrainsWithDistinctExitCodeThenResumes) {
  const std::string dir = scratch_dir();
  write_fixture(dir);
  exec::SpawnOptions options;
  options.argv = {FPKIT_CLI_PATH,   "farm",
                  dir + "/circuit.fp", "--jobs-file=" + dir + "/jobs.txt",
                  "--out=" + dir + "/farm", "--workers=1"};
  options.set_env = {{"FPKIT_FARM_WORKER_STALL_MS", "400"}};
  options.unset_env = {"FPKIT_ARTIFACT_DIR", "FPKIT_TRACE", "FPKIT_FAULTS",
                       "FPKIT_TRACE_DIR", "FPKIT_TRACE_PARENT",
                       "FPKIT_PROGRESS", "FPKIT_PROGRESS_CAPTURE"};
  options.stdout_path = dir + "/drain.out";
  options.stderr_path = dir + "/drain.err";
  exec::Child supervisor = exec::Child::spawn(options);
  ASSERT_TRUE(wait_for_file(dir + "/farm/journal.jsonl", 20.0))
      << exec::read_tail(dir + "/drain.err", 4096);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  supervisor.kill(SIGTERM);
  const exec::ExitStatus status = supervisor.wait();
  ASSERT_TRUE(status.exited) << "graceful drain must exit, not die";
  EXPECT_EQ(status.code, 5) << exec::read_tail(dir + "/drain.err", 4096);

  const CliResult resumed = run_cli(
      dir, "resume", {"farm", "--resume", dir + "/farm"});
  ASSERT_EQ(resumed.status.code, 0) << resumed.err;
  const Json manifest = load_manifest(dir + "/farm");
  EXPECT_EQ(result_value(manifest, "jobs_failed"), 0.0);
  EXPECT_EQ(result_value(manifest, "jobs"), 3.0);
}

TEST(FarmEndToEndTest, DuplicateJobLabelsFailFastWithExitTwo) {
  const std::string dir = scratch_dir();
  write_fixture(dir);
  std::ofstream jobs(dir + "/dup.txt");
  jobs << "same method=dfa seed=1\n"
       << "same method=dfa seed=2\n";
  jobs.close();
  const CliResult farm = run_cli(
      dir, "dup",
      {"farm", dir + "/circuit.fp", "--jobs-file", dir + "/dup.txt",
       "--out", dir + "/farm"});
  ASSERT_TRUE(farm.status.exited);
  EXPECT_EQ(farm.status.code, 2);
  EXPECT_NE(farm.err.find("duplicate job label"), std::string::npos)
      << farm.err;
  EXPECT_NE(farm.err.find("line 2"), std::string::npos) << farm.err;
}

}  // namespace
}  // namespace fp::farm
