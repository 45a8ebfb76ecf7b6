// Additional parameterised sweeps across modules: annealer trace
// recording, SOR relaxation factors, mesh-refinement consistency, via-plan
// pivots, exchange schedules, and supply-fraction generation.
#include <gtest/gtest.h>

#include "assign/dfa.h"
#include "exchange/exchange.h"
#include "obs/metrics.h"
#include "package/circuit_generator.h"
#include "power/pad_ring.h"
#include "power/solver.h"
#include "route/density.h"
#include "route/via_plan.h"

namespace fp {
namespace {

// ------------------------------------------------------ annealer trace ----

TEST(AnnealerTrace, RecordsRequestedSamples) {
  SaSchedule schedule;
  schedule.initial_temperature = 10.0;
  schedule.final_temperature = 0.01;
  schedule.cooling = 0.9;
  schedule.moves_per_temperature = 4;
  schedule.record_every = 3;
  int x = 20;
  int step = 0;
  std::vector<int> moves;
  obs::MetricsRegistry::global().clear();
  obs::set_metrics_enabled(true);
  const AnnealResult result = Annealer(schedule).run(
      400.0,
      [&](Rng& rng) -> std::optional<double> {
        step = rng.chance(0.5) ? 1 : -1;
        return static_cast<double>(x + step) * (x + step);
      },
      [&]() {
        x += step;
        moves.push_back(step);
      },
      [&]() {
        x -= moves.back();
        moves.pop_back();
      });
  obs::set_metrics_enabled(false);
  const std::optional<obs::SeriesSnapshot> cooling =
      obs::MetricsRegistry::global().series("sa.cooling");
  obs::MetricsRegistry::global().clear();
  ASSERT_TRUE(cooling.has_value());
  const std::vector<std::vector<double>>& rows = cooling->rows;
  EXPECT_EQ(rows.size(),
            static_cast<std::size_t>((result.temperature_steps + 2) / 3));
  // Temperatures strictly decrease along the series; the first sample is
  // taken at the initial temperature with the initial cost. Columns:
  // temperature, cost, accepted_moves.
  ASSERT_FALSE(rows.empty());
  EXPECT_DOUBLE_EQ(rows.front()[0], 10.0);
  EXPECT_DOUBLE_EQ(rows.front()[1], 400.0);
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i][0], rows[i - 1][0]);
    EXPECT_GE(rows[i][2], rows[i - 1][2]);
  }
}

// ------------------------------------------------------------ SOR sweep ----

class SorOmegaSweep : public ::testing::TestWithParam<double> {};

TEST_P(SorOmegaSweep, ConvergesToTheSameField) {
  PowerGridSpec spec;
  spec.nodes_per_side = 12;
  spec.total_current_a = 2.0;
  PowerGrid grid(spec);
  grid.set_pads({{0, 0}, {11, 5}});

  SolverOptions reference;
  reference.kind = SolverKind::ConjugateGradient;
  reference.tolerance = 1e-11;
  const double expected = max_ir_drop(grid, solve(grid, reference));

  SolverOptions sor;
  sor.kind = SolverKind::Sor;
  sor.sor_omega = GetParam();
  sor.tolerance = 1e-10;
  const SolveResult result = solve(grid, sor);
  ASSERT_TRUE(result.converged) << "omega " << GetParam();
  EXPECT_NEAR(max_ir_drop(grid, result), expected, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Omegas, SorOmegaSweep,
                         ::testing::Values(0.5, 1.0, 1.3, 1.6, 1.9));

TEST(MeshRefinement, MaxDropIsGridConsistent) {
  // Refining the mesh must not change the physical answer wildly: the
  // same die and pad layout at K and 2K agree within a modest factor.
  double drops[2] = {0.0, 0.0};
  int slot = 0;
  for (const int k : {16, 32}) {
    PowerGridSpec spec;
    spec.nodes_per_side = k;
    spec.total_current_a = 4.0;
    PowerGrid grid(spec);
    std::vector<IPoint> pads;
    for (int i = 0; i < 8; ++i) pads.push_back(ring_slot_node(i * 16, 128, k));
    grid.set_pads(pads);
    drops[slot++] = max_ir_drop(grid, solve(grid));
  }
  EXPECT_GT(drops[1], 0.5 * drops[0]);
  EXPECT_LT(drops[1], 2.0 * drops[0]);
}

// ------------------------------------------------------- via-plan sweep ----

class PivotSweep : public ::testing::TestWithParam<int> {};

TEST_P(PivotSweep, EveryTopRowPivotIsLegalAndConserving) {
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  QuadrantAssignment a;
  a.order = {10, 1, 2, 3, 11, 6, 9, 4, 5, 8, 7, 0};
  QuadrantViaPlan plan = QuadrantViaPlan::bottom_left(q);
  plan.rows[2] = QuadrantViaPlan::suffix_shift(3, GetParam());
  ASSERT_FALSE(validate_via_plan(q, plan).has_value());
  const DensityMap d(q, a, plan);
  EXPECT_EQ(d.total_crossings(), 14);  // conservation, pivot-independent
  EXPECT_GT(d.max_density(), 0);
}

INSTANTIATE_TEST_SUITE_P(TopRowPivots, PivotSweep, ::testing::Range(0, 4));

// -------------------------------------------------- exchange schedules ----

class ScheduleSweep
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(ScheduleSweep, AnyScheduleStaysLegalAndNonWorsening) {
  const auto [cooling, moves] = GetParam();
  CircuitSpec spec = CircuitGenerator::table1(0);
  const Package package = CircuitGenerator::generate(spec);
  const PackageAssignment initial = DfaAssigner().assign(package);

  ExchangeOptions options;
  options.grid_spec.nodes_per_side = 12;
  options.schedule.initial_temperature = 2.0;
  options.schedule.final_temperature = 1e-3;
  options.schedule.cooling = cooling;
  options.schedule.moves_per_temperature = moves;
  const ExchangeResult result =
      ExchangeOptimizer(package, options).optimize(initial);
  EXPECT_LE(result.anneal.final_cost, result.anneal.initial_cost + 1e-9);
  EXPECT_LE(result.ir_cost_after, result.ir_cost_before + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Schedules, ScheduleSweep,
                         ::testing::Combine(::testing::Values(0.8, 0.9,
                                                              0.97),
                                            ::testing::Values(8, 64)));

// ------------------------------------------------- generation fractions ----

class SupplyFractionSweep : public ::testing::TestWithParam<double> {};

TEST_P(SupplyFractionSweep, FractionHonouredWithinRounding) {
  CircuitSpec spec = CircuitGenerator::table1(2);  // 208 nets
  spec.supply_fraction = GetParam();
  const Package package = CircuitGenerator::generate(spec);
  const double actual =
      static_cast<double>(package.netlist().supply_nets().size()) /
      static_cast<double>(package.netlist().size());
  EXPECT_NEAR(actual, GetParam(), 1.0 / 208.0 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Fractions, SupplyFractionSweep,
                         ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.9, 1.0));

}  // namespace
}  // namespace fp
