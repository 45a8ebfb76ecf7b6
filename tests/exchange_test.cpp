// Tests of the exchange step: the generic annealer, the Eq.-(2) increased-
// density tracker, and the full Fig.-14 optimizer (legality preservation,
// cost improvement, 2-D vs stacking move policies).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "assign/dfa.h"
#include "exchange/exchange.h"
#include "package/circuit_generator.h"
#include "power/pad_ring.h"
#include "route/legality.h"
#include "route/router.h"
#include "stack/stacking.h"
#include "util/cancel.h"
#include "util/faultpoint.h"
#include "util/signal.h"

namespace fp {
namespace {

// ------------------------------------------------------------ annealer ----

TEST(Annealer, ScheduleValidation) {
  SaSchedule s;
  s.cooling = 1.0;
  EXPECT_THROW(Annealer{s}, InvalidArgument);
  s = SaSchedule{};
  s.initial_temperature = -1.0;
  EXPECT_THROW(Annealer{s}, InvalidArgument);
  s = SaSchedule{};
  s.final_temperature = 2.0;  // above initial
  EXPECT_THROW(Annealer{s}, InvalidArgument);
  s = SaSchedule{};
  s.moves_per_temperature = 0;
  EXPECT_THROW(Annealer{s}, InvalidArgument);
}

TEST(Annealer, MinimisesQuadratic) {
  // State: integer x in [-50, 50]; cost x^2; moves +/-1. SA must land far
  // below the start.
  SaSchedule schedule;
  schedule.initial_temperature = 50.0;
  schedule.final_temperature = 1e-3;
  schedule.cooling = 0.95;
  schedule.moves_per_temperature = 20;
  int x = 47;
  std::vector<int> moves;  // undo pops these newest first
  const Annealer annealer(schedule);
  const AnnealResult result = annealer.run(
      static_cast<double>(x) * x,
      [&](Rng& rng) -> std::optional<double> {
        const int delta = rng.chance(0.5) ? 1 : -1;
        const int nx = x + delta;
        if (nx < -50 || nx > 50) return std::nullopt;
        x = nx;
        moves.push_back(delta);
        return static_cast<double>(x) * x;
      },
      [&]() {
        x -= moves.back();
        moves.pop_back();
      });
  EXPECT_LE(std::abs(x), 5);
  EXPECT_DOUBLE_EQ(result.final_cost, static_cast<double>(x) * x);
  EXPECT_LE(result.best_cost, result.initial_cost);
  EXPECT_GT(result.accepted, 0);
  EXPECT_GT(result.temperature_steps, 0);
}

TEST(Annealer, CountsIllegalMoves) {
  SaSchedule schedule;
  schedule.initial_temperature = 1.0;
  schedule.final_temperature = 0.5;
  schedule.cooling = 0.9;
  schedule.moves_per_temperature = 10;
  const Annealer annealer(schedule);
  const AnnealResult result = annealer.run(
      1.0, [](Rng&) -> std::optional<double> { return std::nullopt; },
      []() { FAIL() << "undo must not run for illegal moves"; });
  EXPECT_EQ(result.rejected_illegal, result.proposed);
  EXPECT_EQ(result.accepted, 0);
  EXPECT_DOUBLE_EQ(result.final_cost, 1.0);
}

TEST(Annealer, DeterministicInSeed) {
  const auto run_once = [] {
    SaSchedule schedule;
    schedule.seed = 99;
    schedule.initial_temperature = 10.0;
    schedule.final_temperature = 0.01;
    schedule.cooling = 0.9;
    schedule.moves_per_temperature = 8;
    int x = 30;
    int last = 0;
    return Annealer(schedule).run(
        900.0,
        [&](Rng& rng) -> std::optional<double> {
          last = rng.chance(0.5) ? 1 : -1;
          x += last;
          return static_cast<double>(x) * x;
        },
        [&]() { x -= last; });
  };
  const AnnealResult a = run_once();
  const AnnealResult b = run_once();
  EXPECT_DOUBLE_EQ(a.final_cost, b.final_cost);
  EXPECT_EQ(a.accepted, b.accepted);
}

// --------------------------------------------------- increased density ----

TEST(IncreasedDensity, SectionLoadsOfFig5Dfa) {
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  QuadrantAssignment dfa;
  dfa.order = {10, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0};
  // Top-row nets 11, 6, 9 sit at fingers 1, 4, 7: sections hold
  // {10}, {1,2}, {3,4}, {5,7,8,0} -> loads 1,2,2,4.
  const std::vector<int> expected{1, 2, 2, 4};
  EXPECT_EQ(section_loads(q, dfa), expected);
}

TEST(IncreasedDensity, ZeroAgainstItself) {
  const Package package =
      CircuitGenerator::generate(CircuitGenerator::table1(0));
  const PackageAssignment initial = DfaAssigner().assign(package);
  const IncreasedDensity id(package, initial);
  EXPECT_EQ(id.evaluate(initial), 0);
}

TEST(IncreasedDensity, DetectsCrowdingGrowth) {
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  Netlist netlist(12);
  std::vector<Quadrant> quadrants{q};
  const Package package("p", std::move(netlist), q.geometry(),
                        std::move(quadrants));
  PackageAssignment initial;
  initial.quadrants.push_back(
      {{10, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0}});
  const IncreasedDensity id(package, initial);

  // Swap net 6 (top row, finger 4) with net 3 (finger 5): net 3 moves into
  // the section left of net 6, growing it from 2 to 3.
  PackageAssignment moved;
  moved.quadrants.push_back({{10, 11, 1, 2, 3, 6, 4, 9, 5, 7, 8, 0}});
  EXPECT_EQ(id.evaluate(moved), 1);
}

TEST(IncreasedDensity, SignalOnlySwapInsideSectionIsFree) {
  const Quadrant q = CircuitGenerator::fig5_quadrant();
  Netlist netlist(12);
  std::vector<Quadrant> quadrants{q};
  const Package package("p", std::move(netlist), q.geometry(),
                        std::move(quadrants));
  PackageAssignment initial;
  initial.quadrants.push_back(
      {{10, 11, 1, 2, 6, 3, 4, 9, 5, 7, 8, 0}});
  const IncreasedDensity id(package, initial);
  // Swap nets 1 and 2 (both non-top-row, same section).
  PackageAssignment moved;
  moved.quadrants.push_back({{10, 11, 2, 1, 6, 3, 4, 9, 5, 7, 8, 0}});
  EXPECT_EQ(id.evaluate(moved), 0);
}

// ------------------------------------------------------------ optimizer ----

Package make_package(int tier_count = 1, int circuit = 0) {
  CircuitSpec spec = CircuitGenerator::table1(circuit);
  spec.tier_count = tier_count;
  spec.supply_fraction = 0.25;
  return CircuitGenerator::generate(spec);
}

ExchangeOptions light_options() {
  ExchangeOptions options;
  options.schedule.initial_temperature = 2.0;
  options.schedule.final_temperature = 1e-3;
  options.schedule.cooling = 0.9;
  options.schedule.moves_per_temperature = 32;
  options.grid_spec.nodes_per_side = 16;
  return options;
}

TEST(Exchange, PreservesLegalityAndPermutation2D) {
  const Package package = make_package(1);
  const PackageAssignment initial = DfaAssigner().assign(package);
  const ExchangeOptimizer optimizer(package, light_options());
  const ExchangeResult result = optimizer.optimize(initial);
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    const Quadrant& q = package.quadrant(qi);
    const QuadrantAssignment& qa =
        result.assignment.quadrants[static_cast<std::size_t>(qi)];
    EXPECT_TRUE(is_permutation_of(qa, q));
    EXPECT_TRUE(is_monotone_legal(q, qa));
  }
}

TEST(Exchange, PreservesLegalityStacking) {
  const Package package = make_package(4);
  const PackageAssignment initial = DfaAssigner().assign(package);
  const ExchangeOptimizer optimizer(package, light_options());
  const ExchangeResult result = optimizer.optimize(initial);
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    const Quadrant& q = package.quadrant(qi);
    EXPECT_TRUE(is_monotone_legal(
        q, result.assignment.quadrants[static_cast<std::size_t>(qi)]));
  }
}

TEST(Exchange, ImprovesIrProxy2D) {
  const Package package = make_package(1);
  const PackageAssignment initial = DfaAssigner().assign(package);
  const ExchangeOptimizer optimizer(package, light_options());
  const ExchangeResult result = optimizer.optimize(initial);
  EXPECT_LT(result.ir_cost_after, result.ir_cost_before);
  EXPECT_LE(result.anneal.final_cost, result.anneal.initial_cost);
}

TEST(Exchange, ImprovesOmegaWhenStacked) {
  const Package package = make_package(4);
  const PackageAssignment initial = DfaAssigner().assign(package);
  ExchangeOptions options = light_options();
  options.phi = 4.0;  // emphasise bonding wires
  const ExchangeOptimizer optimizer(package, options);
  const ExchangeResult result = optimizer.optimize(initial);
  EXPECT_LT(result.omega_after, result.omega_before);
}

TEST(Exchange, IncreasedDensityStaysBounded) {
  // With a strong rho the Eq.-(2) growth must stay small.
  const Package package = make_package(1);
  const PackageAssignment initial = DfaAssigner().assign(package);
  ExchangeOptions options = light_options();
  options.rho = 50.0;
  const ExchangeOptimizer optimizer(package, options);
  const ExchangeResult result = optimizer.optimize(initial);
  EXPECT_LE(result.increased_density, 2);
}

TEST(Exchange, RejectsIllegalInitial) {
  const Package package = make_package(1);
  PackageAssignment initial = DfaAssigner().assign(package);
  // Reverse one quadrant: almost surely illegal.
  std::reverse(initial.quadrants[0].order.begin(),
               initial.quadrants[0].order.end());
  const ExchangeOptimizer optimizer(package, light_options());
  EXPECT_THROW((void)optimizer.optimize(initial), InvalidArgument);
}

TEST(Exchange, Requires2DSupplyNets) {
  CircuitSpec spec = CircuitGenerator::table1(0);
  spec.supply_fraction = 0.0;
  const Package package = CircuitGenerator::generate(spec);
  const PackageAssignment initial = DfaAssigner().assign(package);
  const ExchangeOptimizer optimizer(package, light_options());
  EXPECT_THROW((void)optimizer.optimize(initial), InvalidArgument);
}

TEST(Exchange, NegativeWeightsRejected) {
  const Package package = make_package(1);
  ExchangeOptions options = light_options();
  options.lambda = -1.0;
  EXPECT_THROW(ExchangeOptimizer(package, options), InvalidArgument);
}

TEST(Exchange, TwoDMovesOnlyTouchSupplyPadNeighbourhoods) {
  // In 2-D mode only swaps adjacent to a supply pad may occur; a signal net
  // farther than the annealing could carry it must keep its distance from
  // supply pads bounded. Weak but cheap sanity: the multiset of signal nets
  // per quadrant is unchanged (permutation checked elsewhere) and at least
  // one supply net moved when the proxy improved.
  const Package package = make_package(1);
  const PackageAssignment initial = DfaAssigner().assign(package);
  const ExchangeOptimizer optimizer(package, light_options());
  const ExchangeResult result = optimizer.optimize(initial);
  if (result.ir_cost_after < result.ir_cost_before) {
    bool any_supply_moved = false;
    const auto before_ring = initial.ring_order();
    const auto after_ring = result.assignment.ring_order();
    for (std::size_t i = 0; i < before_ring.size(); ++i) {
      if (before_ring[i] != after_ring[i] &&
          is_supply(package.netlist().net(after_ring[i]).type)) {
        any_supply_moved = true;
        break;
      }
    }
    EXPECT_TRUE(any_supply_moved);
  }
}

TEST(Exchange, CostAccessorMatchesComposition) {
  const Package package = make_package(4);
  const PackageAssignment initial = DfaAssigner().assign(package);
  ExchangeOptions options = light_options();
  options.lambda = 2.0;
  options.rho = 3.0;
  options.phi = 5.0;
  const ExchangeOptimizer optimizer(package, options);
  const IncreasedDensity id(package, initial);
  const double expected =
      2.0 * supply_dispersion(initial.ring_order(), package.netlist()) +
      3.0 * id.evaluate(initial) +
      5.0 * omega_zero_bits(initial.ring_order(), package.netlist(),
                            package.netlist().tier_count());
  EXPECT_NEAR(optimizer.cost(initial, id), expected, 1e-9);
}

// Exact mode scores every proposal with a cold solve, so its reported
// cost is the cold recomputation of the returned order, to the bit. A
// stacking design without supply nets has no IR term to score (0).
TEST(Exchange, ExactIrModeRuns) {
  for (const double supply_fraction : {0.25, 0.0}) {
    CircuitSpec spec = CircuitGenerator::table1(0);
    spec.tier_count = supply_fraction > 0.0 ? 1 : 2;
    spec.supply_fraction = supply_fraction;
    const Package package = CircuitGenerator::generate(spec);
    const PackageAssignment initial = DfaAssigner().assign(package);
    ExchangeOptions options = light_options();
    options.ir_mode = IrCostMode::Exact;
    options.grid_spec.nodes_per_side = 10;
    options.schedule.initial_temperature = 1.0;
    options.schedule.final_temperature = 0.5;
    options.schedule.cooling = 0.8;
    options.schedule.moves_per_temperature = 4;
    const ExchangeOptimizer optimizer(package, options);
    const ExchangeResult result = optimizer.optimize(initial);
    if (supply_fraction > 0.0) {
      EXPECT_GT(result.ir_cost_before, 0.0);
    } else {
      EXPECT_EQ(result.ir_cost_before, 0.0);
      EXPECT_EQ(result.ir_cost_after, 0.0);
    }
    EXPECT_EQ(result.anneal.final_cost,
              optimizer.cost(result.assignment,
                             IncreasedDensity(package, initial)));
    EXPECT_EQ(result.anneal.final_cost, result.anneal.best_cost);
    for (int qi = 0; qi < package.quadrant_count(); ++qi) {
      EXPECT_TRUE(is_monotone_legal(
          package.quadrant(qi),
          result.assignment.quadrants[static_cast<std::size_t>(qi)]));
    }
  }
}

// ------------------------------------------------- best-state property ----

// SA hands back the best state it saw, whatever ends the run: the cold
// Eq.-(3) cost of the returned assignment equals the reported final and
// best costs, which never exceed the initial cost. Table-1 circuits 1 and
// 5 at psi 1 and 4, seeds 1-5, one and four restarts, under the default
// (`fpkit run`) schedule.
enum class SaStop { Completed, Budget, Fault, Interrupt };

std::string_view to_string(SaStop stop) {
  switch (stop) {
    case SaStop::Completed:
      return "completed";
    case SaStop::Budget:
      return "budget";
    case SaStop::Fault:
      return "fault";
    case SaStop::Interrupt:
      return "interrupt";
  }
  return "unknown";
}

// Cases are listed as "(circuit, psi, stop)", e.g. "(1, 4, budget)".
void PrintTo(SaStop stop, std::ostream* os) { *os << to_string(stop); }

class SaBestState
    : public ::testing::TestWithParam<std::tuple<int, int, SaStop>> {
 protected:
  void SetUp() override {
    fault::disarm();
    sig::reset();
  }
  void TearDown() override {
    fault::disarm();
    sig::reset();
  }
};

TEST_P(SaBestState, ReturnsTheStateItReports) {
  const auto [circuit, psi, stop] = GetParam();
  CircuitSpec spec = CircuitGenerator::table1(circuit - 1);
  spec.tier_count = psi;
  const Package package = CircuitGenerator::generate(spec);
  const PackageAssignment initial = DfaAssigner().assign(package);
  const IncreasedDensity id_tracker(package, initial);
  const ExchangeOptimizer cold(package, ExchangeOptions{});

  // Budgets and interrupts are timed to land about halfway through a run;
  // the property must hold wherever they land.
  const auto start = std::chrono::steady_clock::now();
  (void)cold.optimize(initial);
  const auto half_run = (std::chrono::steady_clock::now() - start) / 2;

  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (const int restarts : {1, 4}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", restarts " +
                   std::to_string(restarts));
      ExchangeOptions options;
      options.schedule.seed = seed;
      CancelToken token;
      std::jthread interrupter;
      switch (stop) {
        case SaStop::Completed:
          break;
        case SaStop::Budget:
          token = CancelToken::after_seconds(
              std::chrono::duration<double>(half_run).count() * restarts);
          options.schedule.cancel = &token;
          break;
        case SaStop::Fault:
          fault::arm("sa.step:after=" + std::to_string(80 * seed));
          break;
        case SaStop::Interrupt:
          token.set_interrupt_linked(true);
          options.schedule.cancel = &token;
          interrupter = std::jthread([half_run] {
            std::this_thread::sleep_for(half_run);
            sig::request_cancel(SIGINT);
          });
          break;
      }
      const ExchangeOptimizer optimizer(package, options);
      const ExchangeResult result =
          restarts == 1 ? optimizer.optimize(initial)
                        : optimizer.optimize_multistart(initial, restarts);
      if (interrupter.joinable()) interrupter.join();
      fault::disarm();
      sig::reset();

      if (stop == SaStop::Fault && restarts == 1) {
        EXPECT_EQ(result.anneal.stop, AnnealStop::FaultInjected);
      }
      EXPECT_EQ(cold.cost(result.assignment, id_tracker),
                result.anneal.final_cost);
      EXPECT_EQ(result.anneal.final_cost, result.anneal.best_cost);
      EXPECT_LE(result.anneal.best_cost, result.anneal.initial_cost);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table1, SaBestState,
    ::testing::Combine(::testing::Values(1, 5), ::testing::Values(1, 4),
                       ::testing::Values(SaStop::Completed, SaStop::Budget,
                                         SaStop::Fault, SaStop::Interrupt)));

}  // namespace
}  // namespace fp
