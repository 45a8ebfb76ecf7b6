// Property tests of the swap engine: after any sequence of random legal
// adjacent swaps and multi-level undos, every Eq.-(3) term must equal the
// full recomputation on the same order, and the position index must
// match the order.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "assign/dfa.h"
#include "exchange/exchange.h"
#include "exchange/incremental_cost.h"
#include "package/circuit_generator.h"
#include "power/pad_ring.h"
#include "stack/stacking.h"
#include "util/rng.h"

namespace fp {
namespace {

Package make_package(int tiers, std::uint64_t seed = 3) {
  CircuitSpec spec = CircuitGenerator::table1(1);
  spec.tier_count = tiers;
  spec.seed = seed;
  return CircuitGenerator::generate(spec);
}

void check_equivalence(const Package& package,
                       const PackageAssignment& initial,
                       const IncrementalCost& incremental,
                       const IncreasedDensity& baseline) {
  const PackageAssignment& current = incremental.assignment();
  if (!package.netlist().supply_nets().empty()) {
    EXPECT_EQ(incremental.dispersion(),
              supply_dispersion(current.ring_order(), package.netlist()));
  } else {
    EXPECT_DOUBLE_EQ(incremental.dispersion(), 0.0);
  }
  EXPECT_EQ(incremental.increased_density(), baseline.evaluate(current));
  EXPECT_EQ(incremental.omega(),
            omega_zero_bits(current.ring_order(), package.netlist(),
                            package.netlist().tier_count()));
  (void)initial;
}

/// The position index names, for every net, the finger that holds it.
void check_positions(const IncrementalCost& incremental) {
  const PackageAssignment& current = incremental.assignment();
  for (std::size_t qi = 0; qi < current.quadrants.size(); ++qi) {
    const auto& order = current.quadrants[qi].order;
    for (std::size_t f = 0; f < order.size(); ++f) {
      const IPoint pos = incremental.position(order[f]);
      ASSERT_EQ(pos.x, static_cast<int>(qi)) << "net " << order[f];
      ASSERT_EQ(pos.y, static_cast<int>(f)) << "net " << order[f];
    }
  }
}

/// Random legal swaps and multi-level undos from the DFA order: after
/// every step the journal rewinds to the saved orders, the position index
/// matches the order and the supply slots are the ring's; every few steps
/// each term equals the full recomputation.
void sweep_swaps_and_undos(const Package& package, std::uint64_t seed) {
  const PackageAssignment initial = DfaAssigner().assign(package);
  const IncreasedDensity baseline(package, initial);
  IncrementalCost incremental(package, initial, 20.0, 2.0, 1.0);
  const PadRing ring(package, 32);
  check_equivalence(package, initial, incremental, baseline);
  check_positions(incremental);
  ASSERT_EQ(incremental.supply_slots(),
            ring.supply_slots(incremental.assignment()));

  Rng rng(seed * 77 + 1);
  int applied = 0;
  // history[i] = ring order before the i-th journalled swap.
  std::vector<std::vector<NetId>> history;
  for (int step = 0; step < 1500; ++step) {
    if (!history.empty() && step % 11 == 0) {
      // Undo several levels deep; each undo restores the order saved
      // before the swap it reverts.
      const std::size_t depth =
          1 + rng.index(std::min<std::size_t>(history.size(), 6));
      for (std::size_t d = 0; d < depth; ++d) {
        incremental.undo_last();
        ASSERT_EQ(incremental.assignment().ring_order(), history.back());
        ASSERT_EQ(incremental.supply_slots(),
                  ring.supply_slots(incremental.assignment()));
        history.pop_back();
      }
    } else {
      const int qi = static_cast<int>(rng.index(
          static_cast<std::size_t>(package.quadrant_count())));
      const Quadrant& q = package.quadrant(qi);
      const auto& order =
          incremental.assignment().quadrants[static_cast<std::size_t>(qi)]
              .order;
      const int left = static_cast<int>(rng.index(order.size() - 1));
      const NetId a = order[static_cast<std::size_t>(left)];
      const NetId b = order[static_cast<std::size_t>(left + 1)];
      const bool legal = q.net_row(a) != q.net_row(b);
      ASSERT_EQ(incremental.swap_legal(qi, left), legal);
      if (!legal) continue;  // illegal move, skip

      history.push_back(incremental.assignment().ring_order());
      incremental.apply_swap(qi, left);
      ASSERT_EQ(incremental.supply_slots(),
                ring.supply_slots(incremental.assignment()));
      ++applied;
    }
    ASSERT_EQ(incremental.swap_count(), history.size());
    check_positions(incremental);
    if (step % 7 == 0) {
      check_equivalence(package, initial, incremental, baseline);
    }
  }
  EXPECT_GT(applied, 300);
  check_equivalence(package, initial, incremental, baseline);

  // Eq.-(3) composition matches the optimizer's full evaluation.
  ExchangeOptions options;
  options.lambda = 20.0;
  options.rho = 2.0;
  options.phi = 1.0;
  const ExchangeOptimizer evaluator(package, options);
  EXPECT_EQ(incremental.current(),
            evaluator.cost(incremental.assignment(), baseline));
  EXPECT_EQ(evaluator.cost(incremental), incremental.current());
}

class IncrementalSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(IncrementalSweep, MatchesFullRecomputation) {
  const auto [tiers, seed] = GetParam();
  sweep_swaps_and_undos(make_package(tiers, seed), seed);
}

INSTANTIATE_TEST_SUITE_P(
    TiersAndSeeds, IncrementalSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values<std::uint64_t>(1, 2, 3)));

constexpr int kAllSupply = -1;      // every net a supply net
constexpr int kDefaultSupply = -2;  // the generator's 25 %

/// (table1 index, tiers, supply nets). With 1-3 supply pads a moving
/// pad's neighbours at ranks r-1 and r+1 coincide or wrap; with every
/// net a supply net each swap trades two supply pads' ranks; with none
/// the dispersion term stays 0.
class SupplyCountSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SupplyCountSweep, MatchesFullRecomputation) {
  const auto [circuit, tiers, supply] = GetParam();
  CircuitSpec spec = CircuitGenerator::table1(circuit);
  spec.tier_count = tiers;
  if (supply == kAllSupply) {
    spec.supply_fraction = 1.0;
  } else if (supply >= 0) {
    spec.supply_fraction = supply / static_cast<double>(spec.finger_count);
  }
  const Package package = CircuitGenerator::generate(spec);
  const std::size_t supply_nets = package.netlist().supply_nets().size();
  if (supply == kAllSupply) {
    ASSERT_EQ(supply_nets, package.netlist().size());
  } else if (supply >= 0) {
    ASSERT_EQ(supply_nets, static_cast<std::size_t>(supply));
  }
  sweep_swaps_and_undos(package, 1);
}

std::string supply_case_name(
    const ::testing::TestParamInfo<SupplyCountSweep::ParamType>& info) {
  const int supply = std::get<2>(info.param);
  const std::string count = supply == kAllSupply       ? "All"
                            : supply == kDefaultSupply ? "Default"
                                                       : std::to_string(supply);
  return "circuit" + std::to_string(std::get<0>(info.param) + 1) + "_psi" +
         std::to_string(std::get<1>(info.param)) + "_supply" + count;
}

INSTANTIATE_TEST_SUITE_P(
    Circuits2And5, SupplyCountSweep,
    ::testing::Combine(::testing::Values(1, 4), ::testing::Values(1, 4),
                       ::testing::Values(0, 1, 2, 3, kAllSupply,
                                         kDefaultSupply)),
    supply_case_name);

TEST(IncrementalCost, UndoWithoutApplyThrows) {
  const Package package = make_package(1);
  const PackageAssignment initial = DfaAssigner().assign(package);
  IncrementalCost incremental(package, initial, 1.0, 1.0, 1.0);
  EXPECT_THROW(incremental.undo_last(), InvalidArgument);
}

TEST(IncrementalCost, SameRowSwapRejected) {
  const Package package = make_package(1);
  const PackageAssignment initial = DfaAssigner().assign(package);
  IncrementalCost incremental(package, initial, 1.0, 1.0, 1.0);
  // Find a same-row adjacent pair in quadrant 0.
  const Quadrant& q = package.quadrant(0);
  const auto& order = initial.quadrants[0].order;
  for (int left = 0; left + 1 < static_cast<int>(order.size()); ++left) {
    if (q.net_row(order[static_cast<std::size_t>(left)]) ==
        q.net_row(order[static_cast<std::size_t>(left + 1)])) {
      EXPECT_FALSE(incremental.swap_legal(0, left));
      EXPECT_THROW(incremental.apply_swap(0, left), InvalidArgument);
      EXPECT_EQ(incremental.swap_count(), 0u);
      return;
    }
  }
  GTEST_SKIP() << "no same-row adjacent pair in this instance";
}

}  // namespace
}  // namespace fp
