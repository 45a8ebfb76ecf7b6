// Cross-module integration: the full user journey (generate -> plan ->
// archive -> reload -> route -> score) must be lossless.
#include <gtest/gtest.h>

#include <sstream>

#include "codesign/flow.h"
#include "io/assignment_file.h"
#include "io/circuit_file.h"
#include "package/circuit_generator.h"
#include "route/router.h"

namespace fp {
namespace {

TEST(Integration, ArchiveRoundTripPreservesEveryMetric) {
  // generate -> flow -> save circuit+assignment -> reload both -> the
  // routed metrics must be bit-identical.
  CircuitSpec spec = CircuitGenerator::table1(1);
  spec.tier_count = 2;
  const Package package = CircuitGenerator::generate(spec);

  FlowOptions options;
  options.method = AssignmentMethod::Dfa;
  options.grid_spec.nodes_per_side = 12;
  options.exchange.schedule.moves_per_temperature = 8;
  options.exchange.schedule.cooling = 0.8;
  const FlowResult flow = CodesignFlow(options).run(package);

  const std::string circuit_text = write_circuit(package);
  const std::string assignment_text =
      write_assignment(package, flow.final);

  std::istringstream circuit_in(circuit_text);
  const Package reloaded = read_circuit(circuit_in);
  std::istringstream assignment_in(assignment_text);
  const PackageAssignment replan = read_assignment(assignment_in, reloaded);

  const MonotonicRouter router;
  const PackageRoute original = router.route(package, flow.final);
  const PackageRoute restored = router.route(reloaded, replan);
  EXPECT_EQ(restored.max_density, original.max_density);
  EXPECT_DOUBLE_EQ(restored.total_flyline_um, original.total_flyline_um);
  EXPECT_DOUBLE_EQ(restored.total_routed_um, original.total_routed_um);
}

TEST(Integration, AssignmentFileRejectsForeignPackage) {
  // An assignment archived for one circuit must not load against another.
  const Package a = CircuitGenerator::generate(CircuitGenerator::table1(0));
  const Package b = CircuitGenerator::generate(CircuitGenerator::table1(1));
  FlowOptions options;
  options.run_exchange = false;
  const FlowResult flow = CodesignFlow(options).run(a);
  const std::string text = write_assignment(a, flow.final);
  std::istringstream in(text);
  EXPECT_THROW((void)read_assignment(in, b), IoError);
}

TEST(Integration, SameSeedSameFlowResult) {
  // The whole pipeline is deterministic end to end.
  const auto run_once = [] {
    CircuitSpec spec = CircuitGenerator::table1(0);
    spec.seed = 42;
    const Package package = CircuitGenerator::generate(spec);
    FlowOptions options;
    options.grid_spec.nodes_per_side = 12;
    options.exchange.schedule.seed = 42;
    options.exchange.schedule.moves_per_temperature = 16;
    options.exchange.schedule.cooling = 0.85;
    const FlowResult flow = CodesignFlow(options).run(package);
    return flow.final.ring_order();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace fp
