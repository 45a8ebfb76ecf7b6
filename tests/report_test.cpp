// Tests of the markdown report generator and the package-level renderer.
#include <gtest/gtest.h>

#include <fstream>

#include "assign/dfa.h"
#include "codesign/report.h"
#include "package/circuit_generator.h"
#include "route/render.h"
#include "route/router.h"

namespace fp {
namespace {

FlowOptions light_options() {
  FlowOptions options;
  options.method = AssignmentMethod::Dfa;
  options.grid_spec.nodes_per_side = 12;
  options.exchange.schedule.initial_temperature = 1.0;
  options.exchange.schedule.final_temperature = 0.1;
  options.exchange.schedule.cooling = 0.8;
  options.exchange.schedule.moves_per_temperature = 8;
  return options;
}

TEST(Report, ContainsEverySection) {
  CircuitSpec spec = CircuitGenerator::table1(0);
  spec.tier_count = 2;
  const Package package = CircuitGenerator::generate(spec);
  const FlowOptions options = light_options();
  const FlowResult result = CodesignFlow(options).run(package);
  const std::string report = write_flow_report(package, options, result);

  for (const char* needle :
       {"# fpkit co-design report", "## Package", "## Flow", "## Metrics",
        "## Sign-off checks", "max density", "max IR-drop", "omega",
        "DRC", "cut-line congestion", "annealing"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
}

TEST(Report, ExchangeDisabledOmitsAnnealing) {
  const Package package =
      CircuitGenerator::generate(CircuitGenerator::table1(0));
  FlowOptions options = light_options();
  options.run_exchange = false;
  const FlowResult result = CodesignFlow(options).run(package);
  const std::string report = write_flow_report(package, options, result);
  EXPECT_EQ(report.find("annealing"), std::string::npos);
  EXPECT_NE(report.find("exchange: disabled"), std::string::npos);
}

TEST(Report, SaveWritesFile) {
  const Package package =
      CircuitGenerator::generate(CircuitGenerator::table1(0));
  const FlowOptions options = light_options();
  const FlowResult result = CodesignFlow(options).run(package);
  const std::string path = ::testing::TempDir() + "/report.md";
  save_flow_report(package, options, result, path);
  std::ifstream file(path);
  std::string first;
  ASSERT_TRUE(std::getline(file, first));
  EXPECT_EQ(first.rfind("# fpkit", 0), 0u);
}

TEST(Report, BadPathThrows) {
  const Package package =
      CircuitGenerator::generate(CircuitGenerator::table1(0));
  const FlowOptions options = light_options();
  const FlowResult result = CodesignFlow(options).run(package);
  EXPECT_THROW(save_flow_report(package, options, result, "/no/dir/r.md"),
               IoError);
}

TEST(JobManifest, RecordsTheFlowsExitCode) {
  // One builder for every batch and farm job manifest. An interrupted
  // job records 5, where a degraded one records 3.
  const BatchJob alpha{"alpha", FlowOptions{}};
  BatchJobResult finished;
  finished.ok = true;
  finished.result.degraded = true;
  finished.result.degrade_events.push_back(
      DegradeEvent{"exchange", DegradeReason::BudgetExpired, ""});
  const obs::RunManifest degraded = job_manifest(alpha, finished);
  EXPECT_EQ(degraded.subcommand, "batch-job");
  EXPECT_EQ(degraded.version, obs::kToolVersion);
  EXPECT_EQ(degraded.extra.at("label").as_string(), "alpha");
  EXPECT_EQ(degraded.events.size(), 1u);
  EXPECT_EQ(degraded.results.at("degraded"), 1.0);
  EXPECT_EQ(degraded.exit_code, 3);

  finished.result.degrade_events.push_back(
      DegradeEvent{"flow", DegradeReason::Interrupted, ""});
  EXPECT_EQ(job_manifest(alpha, finished).exit_code, 5);

  BatchJobResult error;
  error.error = "[FP-IO] gone";
  error.exit_code = 2;
  const obs::RunManifest failed =
      job_manifest(BatchJob{"beta", FlowOptions{}}, error);
  EXPECT_EQ(failed.subcommand, "batch-job");
  EXPECT_EQ(failed.extra.at("label").as_string(), "beta");
  EXPECT_EQ(failed.extra.at("error").as_string(), "[FP-IO] gone");
  EXPECT_TRUE(failed.results.empty());
  EXPECT_EQ(failed.exit_code, 2);
}

TEST(PackageRender, DrawsAllQuadrants) {
  const Package package =
      CircuitGenerator::generate(CircuitGenerator::table1(0));
  const PackageAssignment assignment = DfaAssigner().assign(package);
  const PackageRoute route = MonotonicRouter().route(package, assignment);
  const std::string svg =
      render_package_route(package, route, "whole package");
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("die"), std::string::npos);
  EXPECT_NE(svg.find("whole package"), std::string::npos);
  // One polyline per net across all four quadrants.
  std::size_t polylines = 0;
  for (std::size_t pos = svg.find("<polyline"); pos != std::string::npos;
       pos = svg.find("<polyline", pos + 1)) {
    ++polylines;
  }
  EXPECT_EQ(polylines, static_cast<std::size_t>(package.finger_count()));
}

TEST(PackageRender, MismatchRejected) {
  const Package package =
      CircuitGenerator::generate(CircuitGenerator::table1(0));
  PackageRoute route;  // empty
  EXPECT_THROW((void)render_package_route(package, route, "t"),
               InvalidArgument);
}

TEST(PackageRender, SaveWritesFile) {
  const Package package =
      CircuitGenerator::generate(CircuitGenerator::table1(0));
  const PackageRoute route =
      MonotonicRouter().route(package, DfaAssigner().assign(package));
  const std::string path = ::testing::TempDir() + "/package.svg";
  save_package_route_svg(package, route, "t", path);
  std::ifstream file(path);
  EXPECT_TRUE(file.good());
}

}  // namespace
}  // namespace fp
