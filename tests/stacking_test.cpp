// Tests of the stacking-IC model: the paper's omega worked example
// (Section 3.2: psi = 2, blocked tiers -> omega = 6, interleaved -> 0) and
// the bonding-wire geometry.
#include <gtest/gtest.h>

#include "package/circuit_generator.h"
#include "stack/stacking.h"

namespace fp {
namespace {

Netlist tiered_netlist(const std::vector<int>& tiers) {
  Netlist netlist;
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    netlist.add(std::string("n").append(std::to_string(i)), NetType::Signal,
                tiers[i]);
  }
  return netlist;
}

std::vector<NetId> identity_ring(int size) {
  std::vector<NetId> ring(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) ring[static_cast<std::size_t>(i)] = i;
  return ring;
}

TEST(Omega, PaperFig4AExample) {
  // psi = 2, 12 fingers. Fig. 4(A): pads blocked per tier -- the paper
  // computes omega = 6 (every pair from one tier).
  const Netlist netlist =
      tiered_netlist({1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0});
  EXPECT_EQ(omega_zero_bits(identity_ring(12), netlist, 2), 6);
}

TEST(Omega, PaperFig4BExample) {
  // Fig. 4(B): tiers alternate -- "The result is 0."
  const Netlist netlist =
      tiered_netlist({0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1});
  EXPECT_EQ(omega_zero_bits(identity_ring(12), netlist, 2), 0);
}

TEST(Omega, PairInsideGroupCountsOnce) {
  // Group (tier0, tier0) has union 01 -> one zero bit.
  const Netlist netlist = tiered_netlist({0, 0, 0, 1});
  EXPECT_EQ(omega_zero_bits(identity_ring(4), netlist, 2), 1);
}

TEST(Omega, SingleTierIsAlwaysZero) {
  const Netlist netlist = tiered_netlist({0, 0, 0, 0});
  EXPECT_EQ(omega_zero_bits(identity_ring(4), netlist, 1), 0);
}

TEST(Omega, RaggedLastGroup) {
  // 5 fingers, psi = 2: last group has one member -> at least one zero bit.
  const Netlist netlist = tiered_netlist({0, 1, 0, 1, 0});
  EXPECT_EQ(omega_zero_bits(identity_ring(5), netlist, 2), 1);
}

TEST(Omega, FourTiersWorstCase) {
  // 8 fingers all on tier 0, psi = 4: two groups, each missing 3 tiers.
  const Netlist netlist = tiered_netlist({0, 0, 0, 0, 0, 0, 0, 0});
  EXPECT_EQ(omega_zero_bits(identity_ring(8), netlist, 4), 6);
}

TEST(Omega, FourTiersPerfectInterleave) {
  const Netlist netlist = tiered_netlist({0, 1, 2, 3, 0, 1, 2, 3});
  EXPECT_EQ(omega_zero_bits(identity_ring(8), netlist, 4), 0);
}

TEST(Omega, Validation) {
  const Netlist netlist = tiered_netlist({0, 1});
  EXPECT_THROW((void)omega_zero_bits(identity_ring(2), netlist, 0),
               InvalidArgument);
  EXPECT_THROW((void)omega_zero_bits({}, netlist, 2), InvalidArgument);
  // Net on tier 1 with tier_count 1 is inconsistent.
  EXPECT_THROW((void)omega_zero_bits(identity_ring(2), netlist, 1),
               InvalidArgument);
}

// --------------------------------------------------------- bonding wire ----

Package stacked_package(int tier_count, std::uint64_t seed = 1) {
  CircuitSpec spec = CircuitGenerator::table1(0);
  spec.tier_count = tier_count;
  spec.seed = seed;
  return CircuitGenerator::generate(spec);
}

PackageAssignment ring_assignment(const Package& package,
                                  const std::vector<NetId>& ring) {
  PackageAssignment out;
  std::size_t cursor = 0;
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    const auto count =
        static_cast<std::size_t>(package.quadrant(qi).finger_count());
    QuadrantAssignment qa;
    qa.order.assign(ring.begin() + static_cast<std::ptrdiff_t>(cursor),
                    ring.begin() + static_cast<std::ptrdiff_t>(cursor) +
                        static_cast<std::ptrdiff_t>(count));
    out.quadrants.push_back(std::move(qa));
    cursor += count;
  }
  return out;
}

TEST(Bonding, InterleavedBeatsBlocked) {
  // The quantitative Fig.-4 contrast: per quadrant, sorting nets by tier
  // (blocked) must give longer total bonding wire than interleaving tiers.
  const Package package = stacked_package(2);
  // Build blocked and interleaved ring orders from the same nets.
  std::vector<NetId> blocked;
  std::vector<NetId> interleaved;
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    std::vector<NetId> nets = package.quadrant(qi).all_nets();
    std::vector<NetId> t0;
    std::vector<NetId> t1;
    for (const NetId net : nets) {
      (package.netlist().net(net).tier == 0 ? t0 : t1).push_back(net);
    }
    blocked.insert(blocked.end(), t0.begin(), t0.end());
    blocked.insert(blocked.end(), t1.begin(), t1.end());
    for (std::size_t i = 0; i < std::max(t0.size(), t1.size()); ++i) {
      if (i < t0.size()) interleaved.push_back(t0[i]);
      if (i < t1.size()) interleaved.push_back(t1[i]);
    }
  }
  const BondingWireReport blocked_report = analyze_bonding(
      package, ring_assignment(package, blocked), StackingSpec{});
  const BondingWireReport interleaved_report = analyze_bonding(
      package, ring_assignment(package, interleaved), StackingSpec{});
  EXPECT_LT(interleaved_report.total_um, blocked_report.total_um);
  // Tier membership per quadrant is random and may be unbalanced, so a
  // perfect omega of 0 is not always reachable -- but interleaving must get
  // much closer to it than blocking.
  EXPECT_LT(interleaved_report.omega, blocked_report.omega / 2);
  // Blocked tiers force plan-view wire crossings; interleaving removes
  // most of them.
  EXPECT_LT(interleaved_report.crossings, blocked_report.crossings);
}

TEST(Bonding, SingleTierLengthsArePositive) {
  const Package package = stacked_package(1);
  std::vector<NetId> ring;
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    const auto nets = package.quadrant(qi).all_nets();
    ring.insert(ring.end(), nets.begin(), nets.end());
  }
  const BondingWireReport report =
      analyze_bonding(package, ring_assignment(package, ring));
  EXPECT_GT(report.total_um, 0.0);
  EXPECT_GT(report.max_um, 0.0);
  EXPECT_EQ(report.omega, 0);
  // Single tier: pads spread in finger order along the same edge span, so
  // no bonding wire ever crosses another.
  EXPECT_EQ(report.crossings, 0);
}

TEST(Bonding, HigherTiersCostMore) {
  // Same layout, more tiers: extra inset/height must lengthen the wires.
  const Package two = stacked_package(2, 5);
  const Package four = stacked_package(4, 5);
  const auto ring_of = [](const Package& package) {
    std::vector<NetId> ring;
    for (int qi = 0; qi < package.quadrant_count(); ++qi) {
      const auto nets = package.quadrant(qi).all_nets();
      ring.insert(ring.end(), nets.begin(), nets.end());
    }
    return ring;
  };
  StackingSpec spec;
  spec.tier_height_um = 2.0;
  spec.tier_inset_um = 2.0;
  const double two_total =
      analyze_bonding(two, ring_assignment(two, ring_of(two)), spec).total_um;
  const double four_total =
      analyze_bonding(four, ring_assignment(four, ring_of(four)), spec)
          .total_um;
  EXPECT_GT(four_total, two_total);
}

TEST(Bonding, MismatchedAssignmentRejected) {
  const Package package = stacked_package(2);
  PackageAssignment assignment;
  assignment.quadrants.resize(2);  // package has 4
  EXPECT_THROW((void)analyze_bonding(package, assignment), InvalidArgument);
}

}  // namespace
}  // namespace fp
