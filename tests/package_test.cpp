// Unit tests for the package model: quadrants, assignments, whole package.
#include <gtest/gtest.h>

#include "package/assignment.h"
#include "package/circuit_generator.h"
#include "package/package.h"
#include "package/quadrant.h"

namespace fp {
namespace {

Quadrant make_small() {
  // Two rows: outermost {3, 4, 5}, top {0, 1}.
  return Quadrant("t", PackageGeometry{}, {{3, 4, 5}, {0, 1}});
}

TEST(Quadrant, StructureQueries) {
  const Quadrant q = make_small();
  EXPECT_EQ(q.row_count(), 2);
  EXPECT_EQ(q.top_row(), 1);
  EXPECT_EQ(q.bumps_in_row(0), 3);
  EXPECT_EQ(q.bumps_in_row(1), 2);
  EXPECT_EQ(q.via_slots_in_row(0), 4);
  EXPECT_EQ(q.gaps_in_row(0), 5);
  EXPECT_EQ(q.net_count(), 5);
  EXPECT_EQ(q.finger_count(), 5);
}

TEST(Quadrant, NetLookup) {
  const Quadrant q = make_small();
  EXPECT_EQ(q.bump_net(0, 1), 4);
  EXPECT_EQ(q.bump_net(1, 0), 0);
  EXPECT_TRUE(q.contains(5));
  EXPECT_FALSE(q.contains(2));
  EXPECT_FALSE(q.contains(99));
  EXPECT_EQ(q.net_row(4), 0);
  EXPECT_EQ(q.net_col(4), 1);
  EXPECT_EQ(q.net_row(1), 1);
  EXPECT_EQ(q.net_col(1), 1);
}

TEST(Quadrant, AllNetsRowMajor) {
  const Quadrant q = make_small();
  const std::vector<NetId> expected{3, 4, 5, 0, 1};
  EXPECT_EQ(q.all_nets(), expected);
}

TEST(Quadrant, RejectsDuplicateNet) {
  EXPECT_THROW(Quadrant("bad", PackageGeometry{}, {{1, 2}, {2}}),
               InvalidArgument);
}

TEST(Quadrant, RejectsEmptyRow) {
  EXPECT_THROW(Quadrant("bad", PackageGeometry{}, {{1, 2}, {}}),
               InvalidArgument);
}

TEST(Quadrant, RejectsNegativeNet) {
  EXPECT_THROW(Quadrant("bad", PackageGeometry{}, {{1, -2}}),
               InvalidArgument);
}

TEST(Quadrant, RejectsNoRows) {
  EXPECT_THROW(Quadrant("bad", PackageGeometry{}, {}), InvalidArgument);
}

TEST(Quadrant, RowsAreCenteredOnAxis) {
  const Quadrant q = make_small();
  // Bump x positions of a row must be symmetric around x = 0.
  for (int r = 0; r < q.row_count(); ++r) {
    const int m = q.bumps_in_row(r);
    for (int c = 0; c < m; ++c) {
      const double left = q.bump_position(r, c).x;
      const double right = q.bump_position(r, m - 1 - c).x;
      EXPECT_NEAR(left, -right, 1e-12);
    }
  }
}

TEST(Quadrant, RowLinesAscendTowardDie) {
  const Quadrant q = make_small();
  EXPECT_LT(q.row_line_y(0), q.row_line_y(1));
  EXPECT_LT(q.row_line_y(1), q.finger_line_y());
}

TEST(Quadrant, ViaIsBottomLeftOfBump) {
  const Quadrant q = make_small();
  const double pitch = q.geometry().bump_space_um;
  for (int r = 0; r < q.row_count(); ++r) {
    for (int c = 0; c < q.bumps_in_row(r); ++c) {
      const Point bump = q.bump_position(r, c);
      const Point via = q.via_position(r, c);
      EXPECT_NEAR(via.x, bump.x - 0.5 * pitch, 1e-12);
      EXPECT_NEAR(via.y, bump.y - 0.5 * pitch, 1e-12);
    }
  }
}

TEST(Quadrant, ViaSlotsAscend) {
  const Quadrant q = make_small();
  for (int r = 0; r < q.row_count(); ++r) {
    for (int s = 1; s < q.via_slots_in_row(r); ++s) {
      EXPECT_LT(q.via_slot_position(r, s - 1).x,
                q.via_slot_position(r, s).x);
    }
  }
}

TEST(Quadrant, FingerPitchRespected) {
  const Quadrant q = make_small();
  const double pitch = q.geometry().finger_pitch_um();
  for (int a = 1; a < q.finger_count(); ++a) {
    EXPECT_NEAR(q.finger_position(a).x - q.finger_position(a - 1).x, pitch,
                1e-12);
  }
}

TEST(Quadrant, BoundsChecking) {
  const Quadrant q = make_small();
  EXPECT_THROW((void)q.bumps_in_row(2), InvalidArgument);
  EXPECT_THROW((void)q.bump_net(0, 3), InvalidArgument);
  EXPECT_THROW((void)q.finger_position(5), InvalidArgument);
  EXPECT_THROW((void)q.via_slot_position(0, 4), InvalidArgument);
  EXPECT_THROW((void)q.net_row(2), InvalidArgument);
}

// --------------------------------------------------------- assignments ----

TEST(Assignment, FingerOf) {
  QuadrantAssignment a;
  a.order = {5, 3, 0, 4, 1};
  EXPECT_EQ(a.size(), 5);
  EXPECT_EQ(a.finger_of(0), 2);
  EXPECT_EQ(a.finger_of(5), 0);
  EXPECT_EQ(a.finger_of(9), -1);
}

TEST(Assignment, PermutationCheck) {
  const Quadrant q = make_small();
  QuadrantAssignment good;
  good.order = {1, 3, 0, 5, 4};
  EXPECT_TRUE(is_permutation_of(good, q));

  QuadrantAssignment wrong_size;
  wrong_size.order = {1, 3, 0};
  EXPECT_FALSE(is_permutation_of(wrong_size, q));

  QuadrantAssignment duplicate;
  duplicate.order = {1, 3, 0, 5, 5};
  EXPECT_FALSE(is_permutation_of(duplicate, q));

  QuadrantAssignment foreign;
  foreign.order = {1, 3, 0, 5, 9};
  EXPECT_FALSE(is_permutation_of(foreign, q));

  // Right-sized orders with ids outside every quadrant's range; the check
  // must reject them before using them as an index.
  QuadrantAssignment negative;
  negative.order = {1, 3, 0, 5, -1};
  EXPECT_FALSE(is_permutation_of(negative, q));

  QuadrantAssignment huge;
  huge.order = {1, 3, 0, 5, 2147483647};
  EXPECT_FALSE(is_permutation_of(huge, q));
}

TEST(Assignment, RingOrderConcatenatesQuadrants) {
  PackageAssignment pa;
  pa.quadrants.push_back({{1, 2}});
  pa.quadrants.push_back({{3}});
  pa.quadrants.push_back({{4, 5}});
  EXPECT_EQ(pa.total_fingers(), 5);
  const std::vector<NetId> expected{1, 2, 3, 4, 5};
  EXPECT_EQ(pa.ring_order(), expected);
}

// -------------------------------------------------------------- package ----

TEST(Package, ConstructionAndQueries) {
  Netlist netlist(6);
  std::vector<Quadrant> quadrants;
  quadrants.emplace_back("a", PackageGeometry{},
                         std::vector<std::vector<NetId>>{{0, 1}, {2}});
  quadrants.emplace_back("b", PackageGeometry{},
                         std::vector<std::vector<NetId>>{{3, 4}, {5}});
  const Package package("pkg", std::move(netlist), PackageGeometry{},
                        std::move(quadrants));
  EXPECT_EQ(package.quadrant_count(), 2);
  EXPECT_EQ(package.finger_count(), 6);
  EXPECT_EQ(package.quadrant_of(4), 1);
  EXPECT_EQ(package.quadrant_of(0), 0);
  EXPECT_EQ(package.ring_offset(0), 0);
  EXPECT_EQ(package.ring_offset(1), 3);
  EXPECT_GT(package.die_edge_um(), 0.0);
}

TEST(Package, RejectsMissingNet) {
  Netlist netlist(3);
  std::vector<Quadrant> quadrants;
  quadrants.emplace_back("a", PackageGeometry{},
                         std::vector<std::vector<NetId>>{{0, 1}});
  EXPECT_THROW(Package("pkg", std::move(netlist), PackageGeometry{},
                       std::move(quadrants)),
               InvalidArgument);
}

TEST(Package, RejectsNetInTwoQuadrants) {
  Netlist netlist(3);
  std::vector<Quadrant> quadrants;
  quadrants.emplace_back("a", PackageGeometry{},
                         std::vector<std::vector<NetId>>{{0, 1}});
  quadrants.emplace_back("b", PackageGeometry{},
                         std::vector<std::vector<NetId>>{{1, 2}});
  EXPECT_THROW(Package("pkg", std::move(netlist), PackageGeometry{},
                       std::move(quadrants)),
               InvalidArgument);
}

TEST(Package, RejectsForeignNet) {
  Netlist netlist(2);
  std::vector<Quadrant> quadrants;
  quadrants.emplace_back("a", PackageGeometry{},
                         std::vector<std::vector<NetId>>{{0, 1, 7}});
  EXPECT_THROW(Package("pkg", std::move(netlist), PackageGeometry{},
                       std::move(quadrants)),
               InvalidArgument);
}

TEST(Package, DieEdgeOverride) {
  Netlist netlist(2);
  std::vector<Quadrant> quadrants;
  quadrants.emplace_back("a", PackageGeometry{},
                         std::vector<std::vector<NetId>>{{0, 1}});
  Package package("pkg", std::move(netlist), PackageGeometry{},
                  std::move(quadrants));
  package.set_die_edge_um(123.0);
  EXPECT_DOUBLE_EQ(package.die_edge_um(), 123.0);
  EXPECT_THROW(package.set_die_edge_um(0.0), InvalidArgument);
}

}  // namespace
}  // namespace fp
