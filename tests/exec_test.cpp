// The exec layer's contracts (docs/PARALLELISM.md): canonical chunking,
// bit-identical reductions at every thread count, inline nested regions,
// exception propagation out of workers, and race-free observability from
// inside parallel regions.
#include <gtest/gtest.h>

#include <cmath>
#include <csignal>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "exec/exec.h"
#include "exec/subprocess.h"
#include "exec/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"

namespace fp {
namespace {

/// Restores the configured worker count (and so the shared pool) on scope
/// exit, so each test leaves the process-wide default untouched.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(exec::default_threads()) {}
  ~ThreadGuard() { exec::set_default_threads(saved_); }

 private:
  int saved_;
};

TEST(ExecPartition, BoundariesDependOnlyOnSizeAndGrain) {
  const std::vector<exec::ChunkRange> chunks = exec::partition(10, 4);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].begin, 0u);
  EXPECT_EQ(chunks[0].end, 4u);
  EXPECT_EQ(chunks[1].begin, 4u);
  EXPECT_EQ(chunks[1].end, 8u);
  EXPECT_EQ(chunks[2].begin, 8u);
  EXPECT_EQ(chunks[2].end, 10u);  // last chunk is short, never dropped
}

TEST(ExecPartition, ZeroGrainMeansOne) {
  const std::vector<exec::ChunkRange> chunks = exec::partition(3, 0);
  ASSERT_EQ(chunks.size(), 3u);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].begin, i);
    EXPECT_EQ(chunks[i].end, i + 1);
  }
}

TEST(ExecPartition, EmptyRangeYieldsNoChunks) {
  EXPECT_TRUE(exec::partition(0, 16).empty());
}

TEST(ExecParallelFor, CoversEveryIndexExactlyOnce) {
  const ThreadGuard guard;
  for (const int threads : {1, 4}) {
    exec::set_default_threads(threads);
    std::vector<int> hits(10'000, 0);
    exec::parallel_for(hits.size(), 64,
                       [&](std::size_t begin, std::size_t end) {
                         for (std::size_t i = begin; i < end; ++i) ++hits[i];
                       });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 10'000)
        << "threads=" << threads;
    for (const int h : hits) ASSERT_EQ(h, 1);
  }
}

TEST(ExecParallelSum, BitIdenticalAcrossThreadCounts) {
  const ThreadGuard guard;
  // Values with enough cancellation that any re-association of the total
  // would flip low-order bits.
  std::vector<double> values(100'000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = std::sin(static_cast<double>(i)) * 1e6 /
                (static_cast<double>(i) + 1.0);
  }
  const auto partial = [&](std::size_t begin, std::size_t end) {
    double acc = 0.0;
    for (std::size_t i = begin; i < end; ++i) acc += values[i];
    return acc;
  };
  exec::set_default_threads(1);
  const double expected = exec::parallel_sum(values.size(), 1024, partial);
  for (const int threads : {2, 8}) {
    exec::set_default_threads(threads);
    const double total = exec::parallel_sum(values.size(), 1024, partial);
    EXPECT_EQ(total, expected) << "threads=" << threads;
  }
}

TEST(ExecParallelSum, SingleChunkMatchesStreamingSum) {
  const ThreadGuard guard;
  exec::set_default_threads(4);
  std::vector<double> values{0.1, 0.2, 0.3, 0.4, 0.5};
  double streaming = 0.0;
  for (const double v : values) streaming += v;
  // Grain >= n: exactly one chunk, so the canonical combine degenerates
  // to the plain left-to-right sum (the byte-identity escape hatch the
  // solvers rely on for small meshes).
  const double total = exec::parallel_sum(
      values.size(), 1024, [&](std::size_t begin, std::size_t end) {
        double acc = 0.0;
        for (std::size_t i = begin; i < end; ++i) acc += values[i];
        return acc;
      });
  EXPECT_EQ(total, streaming);
}

TEST(ExecNesting, InnerRegionsRunInline) {
  const ThreadGuard guard;
  exec::set_default_threads(4);
  EXPECT_FALSE(exec::in_parallel_region());
  std::vector<double> inner_sums(8, 0.0);
  exec::parallel_tasks(inner_sums.size(), [&](std::size_t i) {
    EXPECT_TRUE(exec::in_parallel_region());
    // A nested region must not deadlock on the shared pool and must
    // produce the same canonical result as the outer-level call.
    inner_sums[i] = exec::parallel_sum(
        100, 8, [](std::size_t begin, std::size_t end) {
          double acc = 0.0;
          for (std::size_t j = begin; j < end; ++j) {
            acc += static_cast<double>(j);
          }
          return acc;
        });
  });
  EXPECT_FALSE(exec::in_parallel_region());
  for (const double sum : inner_sums) EXPECT_EQ(sum, 4950.0);
}

TEST(ExecExceptions, WorkerExceptionTypeReachesCaller) {
  const ThreadGuard guard;
  for (const int threads : {1, 4}) {
    exec::set_default_threads(threads);
    EXPECT_THROW(
        exec::parallel_for(1000, 8,
                           [](std::size_t begin, std::size_t) {
                             if (begin >= 504) {
                               throw InvalidArgument("boom at chunk");
                             }
                           }),
        InvalidArgument)
        << "threads=" << threads;
  }
}

TEST(ExecThreads, DefaultsAndClamping) {
  const ThreadGuard guard;
  exec::set_default_threads(4);
  EXPECT_EQ(exec::default_threads(), 4);
  exec::set_default_threads(1);
  EXPECT_EQ(exec::default_threads(), 1);
  // 0 = auto: every hardware thread.
  exec::set_default_threads(0);
  EXPECT_EQ(exec::default_threads(), exec::hardware_threads());
  EXPECT_GE(exec::hardware_threads(), 1);
}

TEST(ExecParallelTasks, ResultsKeyedByTaskIndex) {
  const ThreadGuard guard;
  exec::set_default_threads(4);
  std::vector<std::size_t> results(64, 0);
  exec::parallel_tasks(results.size(),
                       [&](std::size_t i) { results[i] = i * i; });
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(ExecThreadPool, RunsEveryTaskOnceAndRethrows) {
  exec::ThreadPool pool(3);
  EXPECT_EQ(pool.threads(), 3);
  std::vector<int> hits(257, 0);
  pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const int h : hits) ASSERT_EQ(h, 1);
  // Fewer tasks than threads: some threads' blocks of the job are empty.
  std::vector<int> few(2, 0);
  pool.run(few.size(), [&](std::size_t i) { ++few[i]; });
  for (const int h : few) ASSERT_EQ(h, 1);
  EXPECT_THROW(pool.run(64,
                        [](std::size_t i) {
                          if (i == 33) throw SolverError("replica died");
                        }),
               SolverError);
  // The pool survives a failed job and keeps scheduling.
  pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const int h : hits) ASSERT_EQ(h, 2);
}

TEST(ExecObservability, RegionMetricsFromWorkers) {
  const ThreadGuard guard;
  obs::MetricsRegistry::global().clear();
  obs::set_metrics_enabled(true);
  exec::set_default_threads(2);
  exec::parallel_for(4096, 64, [](std::size_t, std::size_t) {});
  obs::set_metrics_enabled(false);
  const auto regions =
      obs::MetricsRegistry::global().counter_value("exec.regions");
  const auto tasks = obs::MetricsRegistry::global().counter_value("exec.tasks");
  const auto threads =
      obs::MetricsRegistry::global().gauge_value("exec.threads");
  ASSERT_TRUE(regions.has_value());
  EXPECT_GE(*regions, 1);
  ASSERT_TRUE(tasks.has_value());
  EXPECT_EQ(*tasks, 64);  // 4096 / 64 canonical chunks
  ASSERT_TRUE(threads.has_value());
  EXPECT_EQ(*threads, 2.0);
  const auto histogram =
      obs::MetricsRegistry::global().histogram("exec.region_chunks");
  ASSERT_TRUE(histogram.has_value());
  EXPECT_EQ(histogram->count, 1u);
  obs::MetricsRegistry::global().clear();
}

TEST(ExecObservability, CountersAreRaceFreeFromWorkers) {
  const ThreadGuard guard;
  obs::MetricsRegistry::global().clear();
  obs::set_metrics_enabled(true);
  exec::set_default_threads(4);
  exec::parallel_tasks(1000, [](std::size_t) { obs::count("exec_test.hits"); });
  obs::set_metrics_enabled(false);
  // exec.* counters were also recorded; the test counter must be exact.
  EXPECT_EQ(
      obs::MetricsRegistry::global().counter_value("exec_test.hits").value_or(0),
      1000);
  obs::MetricsRegistry::global().clear();
}

TEST(ExecObservability, SpansNestCorrectlyOnWorkerThreads) {
  const ThreadGuard guard;
  obs::reset_trace();
  obs::set_tracing_enabled(true);
  exec::set_default_threads(4);
  exec::parallel_tasks(16, [](std::size_t) {
    const obs::ScopedSpan outer("exec_test.outer", "exec");
    const obs::ScopedSpan inner("exec_test.inner", "exec");
  });
  obs::set_tracing_enabled(false);
  int outer = 0;
  int inner = 0;
  for (const obs::ProfileSpan& span : obs::trace_spans()) {
    if (span.name == "exec_test.outer") {
      ++outer;
      EXPECT_EQ(span.depth, 0);
    } else if (span.name == "exec_test.inner") {
      ++inner;
      // Per-thread depth: the inner span always nests under the outer
      // one opened by the same task, whichever worker ran it.
      EXPECT_EQ(span.depth, 1);
    }
  }
  EXPECT_EQ(outer, 16);
  EXPECT_EQ(inner, 16);
  obs::reset_trace();
}

// --- subprocess primitives (exec/subprocess.h, the farm's substrate) ----

TEST(Subprocess, CapturesExitCodeAndRedirectsStdio) {
  const std::string out = ::testing::TempDir() + "subproc_stdout.txt";
  const std::string err = ::testing::TempDir() + "subproc_stderr.txt";
  exec::SpawnOptions options;
  options.argv = {"/bin/sh", "-c", "echo to-stdout; echo to-stderr 1>&2; exit 7"};
  options.stdout_path = out;
  options.stderr_path = err;
  exec::Child child = exec::Child::spawn(options);
  EXPECT_GT(child.pid(), 0);
  const exec::ExitStatus status = child.wait();
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.code, 7);
  EXPECT_EQ(status.to_string(), "exit 7");
  EXPECT_NE(exec::read_tail(out, 4096).find("to-stdout"), std::string::npos);
  EXPECT_NE(exec::read_tail(err, 4096).find("to-stderr"), std::string::npos);
}

TEST(Subprocess, TryWaitIsNonBlockingAndIdempotent) {
  exec::SpawnOptions options;
  options.argv = {"/bin/sh", "-c", "exit 0"};
  exec::Child child = exec::Child::spawn(options);
  exec::ExitStatus status;
  while (!child.try_wait(status)) {
    // Non-blocking: spin until the child is reaped.
  }
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.code, 0);
  EXPECT_FALSE(child.running());
  // Reaped exactly once; later calls replay the stored status.
  exec::ExitStatus again;
  EXPECT_TRUE(child.try_wait(again));
  EXPECT_TRUE(again.exited);
  EXPECT_EQ(again.code, 0);
}

TEST(Subprocess, SignalDeathIsDistinguishedFromNormalExit) {
  exec::SpawnOptions options;
  // Spawned directly: a shell killed after forking `sleep` would leave
  // the orphan holding the test's stdout open for 30 s.
  options.argv = {"/bin/sleep", "30"};
  exec::Child child = exec::Child::spawn(options);
  child.kill(SIGKILL);
  const exec::ExitStatus status = child.wait();
  EXPECT_FALSE(status.exited)
      << "a killed worker must be classifiable as a crash, not an exit";
  EXPECT_EQ(status.signal, SIGKILL);
  EXPECT_NE(status.to_string().find("SIGKILL"), std::string::npos);
}

TEST(Subprocess, SetAndUnsetEnvReachTheChild) {
  const std::string out = ::testing::TempDir() + "subproc_env.txt";
  exec::SpawnOptions options;
  options.argv = {"/bin/sh", "-c", "echo \"${FPKIT_SUBPROC_TEST:-absent}\""};
  options.set_env = {{"FPKIT_SUBPROC_TEST", "present"}};
  options.stdout_path = out;
  EXPECT_TRUE(exec::Child::spawn(options).wait().exited);
  EXPECT_NE(exec::read_tail(out, 256).find("present"), std::string::npos);
  // unset_env is how a retry attempt sheds the supervisor's FPKIT_FAULTS.
  ::setenv("FPKIT_SUBPROC_TEST", "leaked", 1);
  options.set_env.clear();
  options.unset_env = {"FPKIT_SUBPROC_TEST"};
  EXPECT_TRUE(exec::Child::spawn(options).wait().exited);
  ::unsetenv("FPKIT_SUBPROC_TEST");
  EXPECT_NE(exec::read_tail(out, 256).find("absent"), std::string::npos);
}

TEST(Subprocess, ExecFailureSurfacesAsExit127) {
  exec::SpawnOptions options;
  options.argv = {"/no/such/binary/anywhere"};
  exec::Child child = exec::Child::spawn(options);
  const exec::ExitStatus status = child.wait();
  EXPECT_TRUE(status.exited);
  EXPECT_EQ(status.code, 127);
}

TEST(Subprocess, ReadTailBoundsAndMarksTruncation) {
  const std::string path = ::testing::TempDir() + "subproc_tail.txt";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    for (int i = 0; i < 500; ++i) out << "line " << i << "\n";
  }
  const std::string tail = exec::read_tail(path, 128);
  EXPECT_EQ(tail.rfind("...(truncated)", 0), 0u);
  EXPECT_LE(tail.size(), 128u + std::string("...(truncated)").size());
  EXPECT_NE(tail.find("line 499"), std::string::npos);
  EXPECT_TRUE(exec::read_tail("/no/such/tail/file", 128).empty());
}

}  // namespace
}  // namespace fp
