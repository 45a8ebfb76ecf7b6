// Regenerates the Fig. 6 experiment: one die, three power-pad plans.
//
// The paper simulates a 138-pad, 2.3M-gate chip with commercial tools and
// reports max IR-drop 117.4 mV for randomly planned power pads (A),
// 77.3 mV for regularly planned pads (B) and 55.2 mV for its optimized
// plan (C). We reproduce the setting on the Eq.-(1) mesh: 138 ring slots,
// a fixed budget of power pads, a non-uniform (hotspot) current map
// standing in for the real chip's module power, and three plans:
//   A  random slot selection,
//   B  evenly spaced slots,
//   C  simulated annealing over slot selections scored by exact solves.
// The published ordering A > B > C is the reproduction target; C beats B
// because even spacing ignores the hotspots. The harness exits 1 when the
// ordering misses (ctest label `paper_shapes`).
#include <cstdio>

#include <optional>
#include <set>
#include <vector>

#include "bench_common.h"
#include "exchange/annealer.h"
#include "power/ir_analysis.h"
#include "power/pad_ring.h"
#include "power/solver.h"
#include "util/rng.h"

namespace {

constexpr int kRingSlots = 138;  // the paper's finger/pad count
constexpr int kPowerPads = 16;
constexpr int kMesh = 32;

fp::PowerGrid make_die() {
  fp::PowerGridSpec spec;
  spec.nodes_per_side = kMesh;
  spec.vdd = 1.0;
  spec.sheet_res_x = 0.05;
  spec.sheet_res_y = 0.05;
  spec.total_current_a = 7.0;
  fp::PowerGrid grid(spec);
  // Module power map: a hot core block and a hot corner macro.
  grid.add_hotspot({0.55, 0.55, 0.95, 0.95}, 8.0);
  grid.add_hotspot({0.05, 0.60, 0.30, 0.90}, 4.0);
  return grid;
}

double score(fp::PowerGrid& grid, const std::vector<int>& slots) {
  std::vector<fp::IPoint> nodes;
  nodes.reserve(slots.size());
  for (const int slot : slots) {
    nodes.push_back(fp::ring_slot_node(slot, kRingSlots, kMesh));
  }
  grid.set_pads(nodes);
  return fp::max_ir_drop(grid, fp::solve(grid));
}

void heatmap(fp::PowerGrid& grid, const std::vector<int>& slots,
             const std::string& title, const std::string& path) {
  std::vector<fp::IPoint> nodes;
  for (const int slot : slots) {
    nodes.push_back(fp::ring_slot_node(slot, kRingSlots, kMesh));
  }
  grid.set_pads(nodes);
  fp::save_ir_heatmap_svg(grid, fp::solve(grid).voltage, title, path);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fp;
  bench::parse_out_flag(argc, argv);
  PowerGrid grid = make_die();

  // Plan A: random slots.
  Rng rng(2009);
  std::set<int> chosen;
  while (static_cast<int>(chosen.size()) < kPowerPads) {
    chosen.insert(static_cast<int>(rng.index(kRingSlots)));
  }
  const std::vector<int> random_plan(chosen.begin(), chosen.end());
  const double random_drop = score(grid, random_plan);

  // Plan B: evenly spaced slots.
  std::vector<int> regular_plan;
  for (int i = 0; i < kPowerPads; ++i) {
    regular_plan.push_back(i * kRingSlots / kPowerPads);
  }
  const double regular_drop = score(grid, regular_plan);

  // Plan C: annealed slot selection, scored by exact Eq.-(1) solves,
  // started from the regular plan.
  std::vector<int> plan = regular_plan;
  std::set<int> in_use(plan.begin(), plan.end());
  struct Move {
    std::size_t index = 0;
    int old_slot = 0;
    int new_slot = 0;
  };
  Move sampled;             // the last legal proposal
  std::vector<Move> moves;  // undo pops these newest first
  SaSchedule schedule;
  schedule.initial_temperature = 0.004;
  schedule.final_temperature = 1e-5;
  schedule.cooling = 0.95;
  schedule.moves_per_temperature = 24;
  schedule.seed = 7;
  const Annealer annealer(schedule);
  const AnnealResult anneal = annealer.run(
      regular_drop,
      [&](Rng& r) -> std::optional<double> {
        const std::size_t index = r.index(plan.size());
        const int target = static_cast<int>(r.index(kRingSlots));
        if (in_use.count(target)) return std::nullopt;
        sampled = Move{index, plan[index], target};
        plan[index] = target;
        const double drop = score(grid, plan);
        plan[index] = sampled.old_slot;
        return drop;
      },
      [&]() {
        moves.push_back(sampled);
        in_use.erase(sampled.old_slot);
        in_use.insert(sampled.new_slot);
        plan[sampled.index] = sampled.new_slot;
      },
      [&]() {
        const Move last = moves.back();
        moves.pop_back();
        in_use.erase(last.new_slot);
        in_use.insert(last.old_slot);
        plan[last.index] = last.old_slot;
      });
  const double optimized_drop = score(grid, plan);

  std::printf("Fig. 6 -- max IR-drop of three power-pad plans "
              "(%d ring slots, %d power pads, %dx%d mesh, hotspots on)\n\n",
              kRingSlots, kPowerPads, kMesh, kMesh);
  std::printf("  (A) random plan    : %7.1f mV   (paper: 117.4 mV)\n",
              random_drop * 1e3);
  std::printf("  (B) regular plan   : %7.1f mV   (paper:  77.3 mV)\n",
              regular_drop * 1e3);
  std::printf("  (C) optimized plan : %7.1f mV   (paper:  55.2 mV)\n",
              optimized_drop * 1e3);
  std::printf("\n  SA: %lld proposed, %lld accepted, %d temperature steps\n",
              anneal.proposed, anneal.accepted, anneal.temperature_steps);
  const bool shape_holds =
      random_drop > regular_drop && regular_drop > optimized_drop;
  std::printf("  ordering A > B > C %s\n",
              shape_holds ? "HOLDS" : "DOES NOT HOLD");

  heatmap(grid, random_plan, "Fig6A random pads",
          bench::artefact_path("fig6_random.svg"));
  heatmap(grid, regular_plan, "Fig6B regular pads",
          bench::artefact_path("fig6_regular.svg"));
  heatmap(grid, plan, "Fig6C optimized pads",
          bench::artefact_path("fig6_optimized.svg"));
  std::printf("  wrote %s, %s, %s\n",
              bench::artefact_path("fig6_random.svg").c_str(),
              bench::artefact_path("fig6_regular.svg").c_str(),
              bench::artefact_path("fig6_optimized.svg").c_str());
  return shape_holds ? 0 : 1;
}
