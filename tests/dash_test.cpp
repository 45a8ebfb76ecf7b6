// Tests for the observability read-back layer behind `fpkit dash`
// (docs/DASHBOARD.md): the Chrome-trace profiler and its span repair,
// histogram quantiles, dashboard determinism and regression
// highlighting, and the progress layer's bit-identical disabled path.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>

#include "codesign/flow.h"
#include "obs/dash.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/progress.h"
#include "package/circuit_generator.h"
#include "util/error.h"

namespace fp {
namespace {

// ------------------------------------------------------------ profiler

/// A hand-built two-thread trace with known self/total arithmetic:
/// thread 0: root [0,100us] with children a [10,30us] and b [50,20us]
///           -> root self = 100 - 50 = 50us
/// thread 1: a [0,40us], no nesting.
std::string handbuilt_trace() {
  return R"({"displayTimeUnit":"ms","traceEvents":[
    {"ph":"M","pid":1,"tid":0,"name":"thread_name","args":{"name":"main"}},
    {"ph":"X","pid":1,"tid":0,"name":"root","cat":"flow","ts":0,"dur":100},
    {"ph":"X","pid":1,"tid":0,"name":"a","cat":"work","ts":10,"dur":30},
    {"ph":"X","pid":1,"tid":0,"name":"b","cat":"work","ts":50,"dur":20},
    {"ph":"X","pid":1,"tid":1,"name":"a","cat":"work","ts":0,"dur":40}
  ]})";
}

TEST(ProfileTest, SelfTotalArithmetic) {
  const obs::ChromeTrace trace = obs::parse_chrome_trace(handbuilt_trace());
  ASSERT_EQ(trace.spans.size(), 4u);
  EXPECT_FALSE(trace.degraded());
  EXPECT_EQ(trace.thread_names.at({1, 0}), "main");

  const obs::TraceProfile profile = obs::profile_trace(trace);
  EXPECT_EQ(profile.span_count, 4u);
  EXPECT_EQ(profile.thread_count, 2);
  // Top-level spans: root (100) on thread 0, a (40) on thread 1.
  EXPECT_DOUBLE_EQ(profile.root_total_us, 140.0);

  ASSERT_EQ(profile.entries.size(), 3u);
  const auto find = [&](const std::string& name) -> const obs::ProfileEntry& {
    for (const obs::ProfileEntry& e : profile.entries) {
      if (e.name == name) return e;
    }
    throw InternalError("entry not found: " + name);
  };
  const obs::ProfileEntry& root = find("root");
  EXPECT_EQ(root.count, 1);
  EXPECT_DOUBLE_EQ(root.total_us, 100.0);
  EXPECT_DOUBLE_EQ(root.self_us, 50.0);  // 100 - (30 + 20)
  const obs::ProfileEntry& a = find("a");
  EXPECT_EQ(a.count, 2);
  EXPECT_DOUBLE_EQ(a.total_us, 70.0);   // 30 (nested) + 40 (top-level)
  EXPECT_DOUBLE_EQ(a.self_us, 70.0);    // neither instance has children
  EXPECT_DOUBLE_EQ(a.min_us, 30.0);
  EXPECT_DOUBLE_EQ(a.max_us, 40.0);
  const obs::ProfileEntry& b = find("b");
  EXPECT_DOUBLE_EQ(b.self_us, 20.0);

  // Per-thread self times sum back to the traced wall time.
  double self_sum = 0.0;
  for (const obs::ProfileEntry& e : profile.entries) self_sum += e.self_us;
  EXPECT_DOUBLE_EQ(self_sum, profile.root_total_us);

  // Entries are sorted by self time, largest first.
  for (std::size_t i = 1; i < profile.entries.size(); ++i) {
    EXPECT_GE(profile.entries[i - 1].self_us, profile.entries[i].self_us);
  }
}

TEST(ProfileTest, OutputsAreDeterministicAndWellFormed) {
  const obs::TraceProfile profile =
      obs::profile_trace(obs::parse_chrome_trace(handbuilt_trace()));
  EXPECT_EQ(profile.to_text(), profile.to_text());
  EXPECT_EQ(profile.to_json().dump(), profile.to_json().dump());
  const std::string svg = profile.to_flame_svg();
  EXPECT_EQ(svg, profile.to_flame_svg());
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("root"), std::string::npos);
  // The JSON document carries the schema marker and every entry.
  const obs::Json doc = profile.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), "fpkit.profile.v1");
  EXPECT_EQ(doc.at("entries").items().size(), 3u);
}

TEST(ProfileTest, UnbalancedBeginEndPairsRepair) {
  const std::string text = R"({"traceEvents":[
    {"ph":"B","pid":1,"tid":0,"name":"outer","cat":"x","ts":0},
    {"ph":"B","pid":1,"tid":0,"name":"inner","cat":"x","ts":10},
    {"ph":"E","pid":1,"tid":0,"ts":30},
    {"ph":"E","pid":1,"tid":5,"ts":40},
    {"ph":"X","pid":1,"tid":0,"name":"tail","cat":"x","ts":60,"dur":40}
  ]})";
  const obs::ChromeTrace trace = obs::parse_chrome_trace(text);
  // inner closed by its E (20us); outer never closed -> closed at the
  // last timestamp (100us, the end of "tail"); the orphan E is ignored.
  EXPECT_TRUE(trace.degraded());
  ASSERT_EQ(trace.spans.size(), 3u);
  const obs::TraceProfile profile = obs::profile_trace(trace);
  bool saw_outer = false;
  for (const obs::ProfileEntry& e : profile.entries) {
    if (e.name == "outer") {
      saw_outer = true;
      EXPECT_DOUBLE_EQ(e.total_us, 100.0);
    }
    if (e.name == "inner") {
      EXPECT_DOUBLE_EQ(e.total_us, 20.0);
    }
  }
  EXPECT_TRUE(saw_outer);
}

TEST(ProfileTest, HopelessDocumentThrows) {
  EXPECT_THROW((void)obs::parse_chrome_trace("not json at all"),
               InvalidArgument);
  EXPECT_THROW((void)obs::parse_chrome_trace("{\"traceEvents\":["),
               InvalidArgument);
}

TEST(ProfileTest, TruncatedTraceThrows) {
  // A trace cut mid-event is malformed input, not a partial profile:
  // fpkit writes traces atomically, so only a foreign writer cuts one.
  const std::string full = handbuilt_trace();
  EXPECT_THROW(
      (void)obs::parse_chrome_trace(
          full.substr(0, full.rfind("{\"ph\":\"X\"") + 20)),
      InvalidArgument);
}

// ----------------------------------------------------------- quantiles

TEST(QuantileTest, LinearInterpolationInsideBuckets) {
  obs::HistogramSnapshot h;
  h.bounds = {10.0, 20.0, 40.0};
  h.counts = {10, 10, 0, 0};  // 10 samples in (0,10], 10 in (10,20]
  h.count = 20;
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);   // rank 10 = end of bucket 0
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 5.0);   // middle of bucket 0
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 15.0);  // middle of bucket 1
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
}

TEST(QuantileTest, OverflowBucketClampsAndEmptyIsZero) {
  obs::HistogramSnapshot h;
  h.bounds = {10.0};
  h.counts = {0, 5};  // every sample above the last bound
  h.count = 5;
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 10.0);
  EXPECT_DOUBLE_EQ(obs::HistogramSnapshot{}.quantile(0.5), 0.0);
}

TEST(QuantileTest, RegistryHistogramRoundTrip) {
  obs::MetricsRegistry registry;
  for (int i = 1; i <= 100; ++i) {
    registry.observe("iters", static_cast<double>(i),
                     {25.0, 50.0, 75.0, 100.0});
  }
  const auto h = registry.histogram("iters");
  ASSERT_TRUE(h.has_value());
  EXPECT_NEAR(h->quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h->quantile(0.95), 95.0, 1.5);
  EXPECT_NEAR(h->quantile(0.99), 99.0, 1.5);
}

// ----------------------------------------------------------- dashboard

/// Builds a synthetic artifact directory with fixed numbers (no clocks),
/// so the golden determinism test has byte-stable input.
void write_synthetic_artifact(const std::string& dir, double wall_s,
                              double exchange_s, double cost) {
  obs::RunManifest manifest;
  manifest.subcommand = "run";
  manifest.version = std::string(obs::kToolVersion);
  manifest.threads = 1;
  manifest.wall_s = wall_s;
  manifest.stages.push_back(StageTiming{"assign", 0.010});
  manifest.stages.push_back(StageTiming{"exchange", exchange_s});
  manifest.results["sa_final_cost"] = cost;
  manifest.results["sa_best_cost"] = cost - 1.0;
  manifest.results["ir_drop_final_v"] = 0.045;
  manifest.results["ir_drop_mean_final_v"] = 0.012;
  manifest.results["check_errors"] = 0.0;
  obs::write_run_artifact(dir, manifest, /*include_metrics=*/false,
                          /*include_trace=*/false);
}

TEST(DashTest, GoldenHtmlIsByteIdentical) {
  const std::string root = ::testing::TempDir() + "dash_golden";
  std::filesystem::remove_all(root);
  write_synthetic_artifact(root + "/a", 1.0, 0.5, 100.0);
  write_synthetic_artifact(root + "/b", 1.1, 0.55, 99.0);

  obs::DashOptions options;
  options.gates.max_slowdown = 2.0;
  const auto render = [&] {
    return obs::build_dashboard(obs::scan_artifacts(root), options)
        .to_html();
  };
  const std::string first = render();
  EXPECT_EQ(first, render());
  // Self-contained page with the expected panels.
  EXPECT_EQ(first.rfind("<!DOCTYPE html>", 0), 0u);
  EXPECT_NE(first.find("Wall clock"), std::string::npos);
  EXPECT_NE(first.find("Stage timings"), std::string::npos);
  EXPECT_NE(first.find("SA cost"), std::string::npos);
  EXPECT_NE(first.find("IR drop"), std::string::npos);
  EXPECT_NE(first.find("Solver iterations"), std::string::npos);
  EXPECT_NE(first.find("Check findings"), std::string::npos);
  EXPECT_NE(first.find("<svg"), std::string::npos);
  EXPECT_EQ(first.find("http://"),
            first.find("http://www.w3.org"));  // no external fetches
}

TEST(DashTest, ScanOrdersByPathAndReadsBatchJobs) {
  const std::string root = ::testing::TempDir() + "dash_scan";
  std::filesystem::remove_all(root);
  write_synthetic_artifact(root + "/z_last", 1.0, 0.5, 10.0);
  write_synthetic_artifact(root + "/a_first", 1.0, 0.5, 10.0);
  write_synthetic_artifact(root + "/a_first/jobs/job0", 0.5, 0.2, 5.0);

  const std::vector<obs::DashRun> runs = obs::scan_artifacts(root);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].label, "a_first");
  EXPECT_EQ(runs[1].label, "a_first/jobs/job0");
  EXPECT_EQ(runs[2].label, "z_last");
}

TEST(DashTest, RegressionGateMatchesCompare) {
  const std::string root = ::testing::TempDir() + "dash_gate";
  std::filesystem::remove_all(root);
  write_synthetic_artifact(root + "/r1", 1.0, 0.5, 100.0);
  write_synthetic_artifact(root + "/r2", 5.0, 2.5, 100.0);  // 5x slower

  obs::DashOptions options;
  options.gates.max_slowdown = 2.0;
  const obs::Dashboard dash =
      obs::build_dashboard(obs::scan_artifacts(root), options);
  // wall_s and stage.exchange both breach 2x; stage.assign (10 ms) sits
  // below min_time_s and is exempt -- exactly the compare_artifacts
  // exemption.
  ASSERT_EQ(dash.regressions.size(), 2u);
  EXPECT_EQ(dash.regressions[0].quantity, "stage.exchange");
  EXPECT_EQ(dash.regressions[1].quantity, "wall_s");
  EXPECT_NE(dash.to_html().find("timing regression"), std::string::npos);

  // The shared predicate agrees with the comparer on both sides of the
  // gate.
  EXPECT_TRUE(obs::timing_regression(1.0, 5.0, options.gates));
  EXPECT_FALSE(obs::timing_regression(1.0, 1.5, options.gates));
  EXPECT_FALSE(obs::timing_regression(0.001, 1.0, options.gates));

  // Without a gate the same artifacts produce zero regressions.
  const obs::Dashboard ungated =
      obs::build_dashboard(obs::scan_artifacts(root), obs::DashOptions{});
  EXPECT_TRUE(ungated.regressions.empty());
}

TEST(DashTest, SolverPanelReadsMetricsQuantiles) {
  const std::string root = ::testing::TempDir() + "dash_metrics";
  std::filesystem::remove_all(root);
  write_synthetic_artifact(root + "/m1", 1.0, 0.5, 10.0);
  // Hand-written metrics.json with a solver.iterations histogram.
  std::ofstream metrics(root + "/m1/metrics.json");
  metrics << R"({"schema":"fpkit.metrics.v1","counters":{"solver.fallbacks":2},)"
          << R"("gauges":{},"histograms":{"solver.iterations":)"
          << R"({"bounds":[8,16,32],"counts":[4,4,0,0],"count":8,"sum":96}},)"
          << R"("series":{}})" << "\n";
  metrics.close();

  const std::vector<obs::DashRun> runs = obs::scan_artifacts(root);
  ASSERT_EQ(runs.size(), 1u);
  ASSERT_TRUE(runs[0].metrics.is_object());
  const std::string html =
      obs::build_dashboard(runs, obs::DashOptions{}).to_html();
  EXPECT_NE(html.find("iterations p50"), std::string::npos);
  EXPECT_NE(html.find("fallbacks"), std::string::npos);
}

// ------------------------------------------------------------ progress

TEST(ProgressTest, LineFormatting) {
  EXPECT_EQ(obs::progress_line("exchange", 0, 0, 0.0), "[exchange] ...");
  EXPECT_EQ(obs::progress_line("exchange", 42, 0, 0.0),
            "[exchange] 42 units");
  EXPECT_EQ(obs::progress_line("sa", 50, 100, 2.0),
            "[sa]  50% (50/100) eta 2.0s");
  EXPECT_EQ(obs::progress_line("sa", 100, 100, 2.0),
            "[sa] 100% (100/100)");
  // done is clamped into [0, total].
  EXPECT_EQ(obs::progress_line("sa", 150, 100, 2.0),
            "[sa] 100% (100/100)");
}

TEST(ProgressTest, PercentLineTakesTheCountsText) {
  // The farm supervisor's and `dash --follow`'s lines.
  EXPECT_EQ(obs::percent_line("farm", 0.5, "1/2 jobs, 1 running", 2.0),
            "[farm]  50% (1/2 jobs, 1 running) eta 2.0s");
  EXPECT_EQ(obs::percent_line("farm", 1.0, "2/2 jobs, 0 running", 2.0),
            "[farm] 100% (2/2 jobs, 0 running)");
  EXPECT_EQ(obs::percent_line("farm", 0.0, "0/0 jobs, 0 running, 0 failed",
                              2.0),
            "[farm]   0% (0/0 jobs, 0 running, 0 failed)");
  EXPECT_EQ(obs::percent_line("farm", 0.25, "1/4 jobs", 0.0),
            "[farm]  25% (1/4 jobs)");
}

TEST(ProgressTest, DisabledPathIsBitIdentical) {
  const Package package =
      CircuitGenerator::generate(CircuitGenerator::table1(0));
  FlowOptions options;
  options.exchange.schedule.moves_per_temperature = 8;
  options.exchange.schedule.initial_temperature = 1.0;
  options.exchange.schedule.final_temperature = 0.05;

  ASSERT_FALSE(obs::progress_enabled());
  const FlowResult off = CodesignFlow(options).run(package);
  obs::set_progress_enabled(true);
  const FlowResult on = CodesignFlow(options).run(package);
  obs::set_progress_enabled(false);
  const FlowResult off2 = CodesignFlow(options).run(package);

  // Progress rendering must not perturb a single numeric result, and the
  // disabled path after an enabled run must match the first run exactly.
  EXPECT_EQ(off.anneal.final_cost, on.anneal.final_cost);
  EXPECT_EQ(off.anneal.best_cost, on.anneal.best_cost);
  EXPECT_EQ(off.anneal.proposed, on.anneal.proposed);
  EXPECT_EQ(off.anneal.accepted, on.anneal.accepted);
  EXPECT_EQ(off.ir_final.max_drop_v, on.ir_final.max_drop_v);
  EXPECT_EQ(off.final.ring_order(), on.final.ring_order());
  EXPECT_EQ(off.anneal.final_cost, off2.anneal.final_cost);
  EXPECT_EQ(off.final.ring_order(), off2.final.ring_order());
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

TEST(ProgressTest, HeartbeatFileHoldsTheLatestThrottledTick) {
  const std::string path = ::testing::TempDir() + "progress_test.hb";
  std::filesystem::remove(path);
  ASSERT_FALSE(obs::progress_enabled());
  obs::set_progress_heartbeat(path);
  EXPECT_TRUE(obs::progress_enabled());

  // The first stage after arming beats at once; a tick within 200 ms of
  // that beat leaves the file as it was.
  obs::progress_stage("exchange");
  EXPECT_EQ(read_text(path), "{\"done\":0,\"stage\":\"exchange\",\"total\":0}\n");
  obs::progress_tick("exchange", 3, 10);
  EXPECT_EQ(read_text(path), "{\"done\":0,\"stage\":\"exchange\",\"total\":0}\n");
  // The latest tick is still recorded for progress_snapshot.
  const obs::ProgressSnapshot snapshot = obs::progress_snapshot();
  EXPECT_TRUE(snapshot.valid);
  EXPECT_EQ(snapshot.stage, "exchange");
  EXPECT_EQ(snapshot.done, 3);
  EXPECT_EQ(snapshot.total, 10);

  // Past the 200 ms interval, the next tick rewrites the file.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  obs::progress_tick("exchange", 4, 10);
  EXPECT_EQ(read_text(path), "{\"done\":4,\"stage\":\"exchange\",\"total\":10}\n");

  // Arming "" stops the writes and turns progress off again.
  obs::set_progress_heartbeat("");
  EXPECT_FALSE(obs::progress_enabled());
  std::filesystem::remove(path);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  obs::progress_stage("solver");
  obs::progress_tick("solver", 5, 10);
  EXPECT_FALSE(std::filesystem::exists(path));
  // With progress off the ticks record nothing either.
  EXPECT_EQ(obs::progress_snapshot().done, 4);
}

// -------------------------------------------------------- host capture

TEST(HostInfoTest, CaptureRecordsCoresPageSizeAndPeakRss) {
  obs::RunManifest manifest;
  // An existing extra block (the check subcommand's) must be merged into,
  // not overwritten.
  obs::Json extra = obs::Json::object();
  extra.set("check", obs::Json::string("summary"));
  manifest.extra = std::move(extra);
  obs::capture_environment(manifest);
#if defined(__unix__) || defined(__APPLE__)
  const obs::Json* host = manifest.extra.find("host");
  ASSERT_NE(host, nullptr);
  EXPECT_GE(host->at("cores").as_number(), 1.0);
  EXPECT_GE(host->at("page_size_bytes").as_number(), 512.0);
  EXPECT_GT(host->at("peak_rss_bytes").as_number(), 0.0);
  EXPECT_TRUE(manifest.extra.has("check"));  // merged, not clobbered
#endif
}

}  // namespace
}  // namespace fp
