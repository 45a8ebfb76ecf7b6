// Tests of the greedy best-improvement exchange baseline.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "assign/dfa.h"
#include "exchange/greedy.h"
#include "package/circuit_generator.h"
#include "route/legality.h"

namespace fp {
namespace {

Package make_package(int tiers = 1) {
  CircuitSpec spec = CircuitGenerator::table1(0);
  spec.tier_count = tiers;
  spec.supply_fraction = 0.25;
  return CircuitGenerator::generate(spec);
}

GreedyOptions light_options() {
  GreedyOptions options;
  options.cost.grid_spec.nodes_per_side = 16;
  options.max_passes = 60;
  return options;
}

TEST(Greedy, ReachesLocalOptimumLegally) {
  const Package package = make_package();
  const PackageAssignment initial = DfaAssigner().assign(package);
  const GreedyExchanger exchanger(package, light_options());
  const ExchangeResult result = exchanger.optimize(initial);
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    const Quadrant& q = package.quadrant(qi);
    const QuadrantAssignment& qa =
        result.assignment.quadrants[static_cast<std::size_t>(qi)];
    EXPECT_TRUE(is_permutation_of(qa, q));
    EXPECT_TRUE(is_monotone_legal(q, qa));
  }
  EXPECT_LE(result.anneal.final_cost, result.anneal.initial_cost);
  EXPECT_GT(result.anneal.proposed, 0);
}

TEST(Greedy, NeverIncreasesCost) {
  const Package package = make_package();
  const PackageAssignment initial = DfaAssigner().assign(package);
  const GreedyExchanger exchanger(package, light_options());
  const ExchangeResult result = exchanger.optimize(initial);
  // Hill climbing: every applied move strictly improved, so the IR proxy
  // after must be at most the before value given the other terms start 0.
  EXPECT_LE(result.anneal.final_cost, result.anneal.initial_cost);
  EXPECT_LE(result.ir_cost_after, result.ir_cost_before + 1e-9);
}

TEST(Greedy, IsDeterministic) {
  const Package package = make_package();
  const PackageAssignment initial = DfaAssigner().assign(package);
  const GreedyExchanger exchanger(package, light_options());
  const ExchangeResult a = exchanger.optimize(initial);
  const ExchangeResult b = exchanger.optimize(initial);
  EXPECT_EQ(a.assignment.ring_order(), b.assignment.ring_order());
  EXPECT_DOUBLE_EQ(a.anneal.final_cost, b.anneal.final_cost);
}

TEST(Greedy, PassCapRespected) {
  const Package package = make_package();
  const PackageAssignment initial = DfaAssigner().assign(package);
  GreedyOptions options = light_options();
  options.max_passes = 1;
  const ExchangeResult result =
      GreedyExchanger(package, options).optimize(initial);
  EXPECT_LE(result.anneal.temperature_steps, 1);
  EXPECT_LE(result.anneal.accepted, 1);
}

TEST(Greedy, StackingImprovesOmega) {
  const Package package = make_package(4);
  const PackageAssignment initial = DfaAssigner().assign(package);
  GreedyOptions options = light_options();
  options.cost.phi = 4.0;
  const ExchangeResult result =
      GreedyExchanger(package, options).optimize(initial);
  EXPECT_LE(result.omega_after, result.omega_before);
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    EXPECT_TRUE(is_monotone_legal(
        package.quadrant(qi),
        result.assignment.quadrants[static_cast<std::size_t>(qi)]));
  }
}

TEST(Greedy, InvalidInputsRejected) {
  const Package package = make_package();
  GreedyOptions options = light_options();
  options.max_passes = 0;
  EXPECT_THROW(GreedyExchanger(package, options), InvalidArgument);

  PackageAssignment bad = DfaAssigner().assign(package);
  std::reverse(bad.quadrants[0].order.begin(), bad.quadrants[0].order.end());
  EXPECT_THROW(
      (void)GreedyExchanger(package, light_options()).optimize(bad),
      InvalidArgument);
}

// Greedy scores every probe from the swap engine, so its costs must be
// the cold Eq.-(3) recomputation of the orders it reports, to the bit.
TEST(Greedy, FinalCostEqualsColdRecomputation) {
  for (const IrCostMode mode : {IrCostMode::Proxy, IrCostMode::Exact}) {
    for (const int circuit : {0, 4}) {
      for (const int tiers : {1, 4}) {
        CircuitSpec spec = CircuitGenerator::table1(circuit);
        spec.tier_count = tiers;
        const Package package = CircuitGenerator::generate(spec);
        const PackageAssignment initial = DfaAssigner().assign(package);
        GreedyOptions options;
        options.cost.ir_mode = mode;
        options.cost.grid_spec.nodes_per_side = 12;
        const ExchangeResult result =
            GreedyExchanger(package, options).optimize(initial);
        const IncreasedDensity baseline(package, initial);
        const ExchangeOptimizer cold(package, options.cost);
        const std::string where =
            std::string(mode == IrCostMode::Exact ? "exact" : "proxy") +
            " circuit " + std::to_string(circuit + 1) + " psi " +
            std::to_string(tiers);
        EXPECT_GT(result.anneal.accepted, 0) << where;
        EXPECT_EQ(result.anneal.initial_cost, cold.cost(initial, baseline))
            << where;
        EXPECT_EQ(result.anneal.final_cost,
                  cold.cost(result.assignment, baseline))
            << where;
      }
    }
  }
}

}  // namespace
}  // namespace fp
