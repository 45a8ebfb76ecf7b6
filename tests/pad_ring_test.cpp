// Tests of the pad-ring mapping and the IR proxy (supply-pad dispersion).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "assign/dfa.h"
#include "package/circuit_generator.h"
#include "power/ir_analysis.h"
#include "power/pad_ring.h"

namespace fp {
namespace {

Package table1_package(int index, double supply_fraction = 0.25) {
  CircuitSpec spec = CircuitGenerator::table1(index);
  spec.supply_fraction = supply_fraction;
  return CircuitGenerator::generate(spec);
}

TEST(PadRing, SlotsLieOnBoundary) {
  const Package package = table1_package(0);
  const PadRing ring(package, 32);
  EXPECT_EQ(ring.slot_count(), 96);
  for (int slot = 0; slot < ring.slot_count(); ++slot) {
    const IPoint node = ring.node_of_slot(slot);
    const bool on_boundary =
        node.x == 0 || node.x == 31 || node.y == 0 || node.y == 31;
    EXPECT_TRUE(on_boundary) << "slot " << slot;
  }
}

TEST(PadRing, QuadrantsMapToEdges) {
  const Package package = table1_package(0);  // 4 x 24 pads
  const PadRing ring(package, 64);
  // Quadrant 0 (slots 0..23) -> bottom edge, quadrant 1 -> right, etc.
  EXPECT_EQ(ring.node_of_slot(0).y, 0);
  EXPECT_EQ(ring.node_of_slot(23).y, 0);
  EXPECT_EQ(ring.node_of_slot(24 + 5).x, 63);
  EXPECT_EQ(ring.node_of_slot(48 + 5).y, 63);
  EXPECT_EQ(ring.node_of_slot(72 + 5).x, 0);
}

TEST(PadRing, WalksCounterclockwise) {
  const Package package = table1_package(0);
  const PadRing ring(package, 64);
  // Along the bottom edge x must grow; along the right edge y must grow.
  for (int slot = 1; slot < 24; ++slot) {
    EXPECT_GE(ring.node_of_slot(slot).x, ring.node_of_slot(slot - 1).x);
  }
  for (int slot = 25; slot < 48; ++slot) {
    EXPECT_GE(ring.node_of_slot(slot).y, ring.node_of_slot(slot - 1).y);
  }
  // Top edge: x shrinks.
  for (int slot = 49; slot < 72; ++slot) {
    EXPECT_LE(ring.node_of_slot(slot).x, ring.node_of_slot(slot - 1).x);
  }
}

TEST(PadRing, SlotOutOfRangeThrows) {
  const Package package = table1_package(0);
  const PadRing ring(package, 32);
  EXPECT_THROW((void)ring.node_of_slot(-1), InvalidArgument);
  EXPECT_THROW((void)ring.node_of_slot(96), InvalidArgument);
}

TEST(PadRing, SupplySlotsMatchNetTypes) {
  const Package package = table1_package(1);
  const PadRing ring(package, 32);
  const PackageAssignment assignment = DfaAssigner().assign(package);
  const std::vector<int> slots = ring.supply_slots(assignment);
  EXPECT_EQ(slots.size(), package.netlist().supply_nets().size());
  const std::vector<NetId> ring_order = assignment.ring_order();
  for (const int slot : slots) {
    EXPECT_TRUE(is_supply(
        package.netlist().net(ring_order[static_cast<std::size_t>(slot)])
            .type));
  }
  EXPECT_EQ(ring.supply_nodes(assignment).size(), slots.size());
}

// ----------------------------------------------------------- dispersion ----

Netlist ring_netlist(const std::vector<int>& supply_positions, int size) {
  Netlist netlist;
  std::set<int> supply(supply_positions.begin(), supply_positions.end());
  for (int i = 0; i < size; ++i) {
    netlist.add(std::string("n").append(std::to_string(i)),
                supply.count(i) ? NetType::Power : NetType::Signal);
  }
  return netlist;
}

std::vector<NetId> identity_ring(int size) {
  std::vector<NetId> ring(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) ring[static_cast<std::size_t>(i)] = i;
  return ring;
}

TEST(Dispersion, PerfectlyEvenIsOne) {
  // 4 supply pads at 0, 4, 8, 12 of a 16-ring: all gaps equal.
  const Netlist netlist = ring_netlist({0, 4, 8, 12}, 16);
  EXPECT_NEAR(supply_dispersion(identity_ring(16), netlist), 1.0, 1e-12);
  EXPECT_EQ(max_supply_gap(identity_ring(16), netlist), 4);
}

TEST(Dispersion, ClusteringRaisesCost) {
  const Netlist even = ring_netlist({0, 4, 8, 12}, 16);
  const Netlist clustered = ring_netlist({0, 1, 2, 3}, 16);
  const double even_cost = supply_dispersion(identity_ring(16), even);
  const double clustered_cost =
      supply_dispersion(identity_ring(16), clustered);
  EXPECT_GT(clustered_cost, even_cost);
  EXPECT_EQ(max_supply_gap(identity_ring(16), clustered), 13);
}

TEST(Dispersion, SingleSupplyPad) {
  const Netlist netlist = ring_netlist({5}, 12);
  // One pad: one cyclic gap of 12; ideal is 12^2/1 -> dispersion exactly 1.
  EXPECT_NEAR(supply_dispersion(identity_ring(12), netlist), 1.0, 1e-12);
  EXPECT_EQ(max_supply_gap(identity_ring(12), netlist), 12);
}

TEST(Dispersion, NoSupplyThrows) {
  const Netlist netlist = ring_netlist({}, 8);
  EXPECT_THROW((void)supply_dispersion(identity_ring(8), netlist),
               InvalidArgument);
  EXPECT_THROW((void)max_supply_gap(identity_ring(8), netlist),
               InvalidArgument);
}

TEST(Dispersion, InvariantUnderRotation) {
  const Netlist netlist = ring_netlist({0, 1, 7}, 12);
  std::vector<NetId> ring = identity_ring(12);
  const double base = supply_dispersion(ring, netlist);
  std::rotate(ring.begin(), ring.begin() + 5, ring.end());
  EXPECT_NEAR(supply_dispersion(ring, netlist), base, 1e-12);
}

// ------------------------------------------------------------ analysis ----

TEST(AnalyzeIr, ReportsDropAndConverges) {
  const Package package = table1_package(0);
  const PackageAssignment assignment = DfaAssigner().assign(package);
  PowerGridSpec spec;
  spec.nodes_per_side = 24;
  const IrReport report = analyze_ir(package, assignment, spec);
  EXPECT_TRUE(report.converged);
  EXPECT_GT(report.max_drop_v, 0.0);
  EXPECT_GT(report.mean_drop_v, 0.0);
  EXPECT_LT(report.mean_drop_v, report.max_drop_v);
  EXPECT_EQ(report.supply_pad_count, 24);
}

TEST(AnalyzeIr, NoSupplyNetsThrows) {
  const Package package = table1_package(0, 0.0);
  const PackageAssignment assignment = DfaAssigner().assign(package);
  PowerGridSpec spec;
  spec.nodes_per_side = 16;
  EXPECT_THROW((void)analyze_ir(package, assignment, spec), InvalidArgument);
}

TEST(AnalyzeIr, EvenRingBeatsClusteredRing) {
  // The core premise of the exchange step: spreading supply pads along the
  // ring lowers the Eq.-(1) max IR-drop.
  CircuitSpec cspec = CircuitGenerator::table1(0);
  cspec.supply_fraction = 0.25;
  const Package package = CircuitGenerator::generate(cspec);
  PowerGridSpec spec;
  spec.nodes_per_side = 24;

  // Build two artificial assignments over the same package: supply nets
  // clustered at the start of each quadrant vs. spread evenly.
  const Netlist& netlist = package.netlist();
  PackageAssignment clustered;
  PackageAssignment spread;
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    std::vector<NetId> nets = package.quadrant(qi).all_nets();
    std::vector<NetId> supply;
    std::vector<NetId> signal;
    for (const NetId net : nets) {
      (is_supply(netlist.net(net).type) ? supply : signal).push_back(net);
    }
    QuadrantAssignment c;
    c.order = supply;
    c.order.insert(c.order.end(), signal.begin(), signal.end());
    clustered.quadrants.push_back(std::move(c));

    QuadrantAssignment s;
    s.order.assign(nets.size(), kInvalidNet);
    // Place supply nets at even strides, then fill signals.
    const std::size_t stride = nets.size() / std::max<std::size_t>(
                                                 1, supply.size());
    std::size_t cursor = 0;
    for (const NetId net : supply) {
      s.order[std::min(cursor, nets.size() - 1)] = net;
      cursor += stride;
    }
    std::size_t next = 0;
    for (NetId& slot : s.order) {
      if (slot == kInvalidNet) slot = signal[next++];
    }
    spread.quadrants.push_back(std::move(s));
  }
  const double clustered_drop =
      analyze_ir(package, clustered, spec).max_drop_v;
  const double spread_drop = analyze_ir(package, spread, spec).max_drop_v;
  EXPECT_LT(spread_drop, clustered_drop);
}

TEST(Heatmap, ProducesSvg) {
  PowerGridSpec spec;
  spec.nodes_per_side = 8;
  PowerGrid grid(spec);
  grid.set_pads({{0, 0}, {7, 7}});
  const SolveResult result = solve(grid);
  const std::string svg = ir_heatmap_svg(grid, result.voltage, "test map");
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("test map"), std::string::npos);
}

}  // namespace
}  // namespace fp
