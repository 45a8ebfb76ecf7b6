// Scenario: IR-drop sign-off of a 2-D design with power hotspots.
//
// A 208-pad chip has a hot compute cluster in one corner of the die. The
// example runs the co-design flow, then re-scores both the pre- and
// post-exchange pad plans on a hotspot-aware Eq.-(1) mesh and writes the
// two voltage heat maps (Fig.-6 style) next to the binary.
//
// Build & run:  ./build/examples/irdrop_codesign
#include <cstdio>

#include "codesign/flow.h"
#include "package/circuit_generator.h"
#include "power/ir_analysis.h"

int main() {
  using namespace fp;

  CircuitSpec spec = CircuitGenerator::table1(2);  // 208 finger/pads
  spec.name = "hotspot-chip";
  spec.supply_fraction = 0.3;
  const Package package = CircuitGenerator::generate(spec);

  PowerGridSpec grid_spec;
  grid_spec.nodes_per_side = 40;
  grid_spec.total_current_a = 9.0;

  FlowOptions options;
  options.method = AssignmentMethod::Dfa;
  options.grid_spec = grid_spec;
  options.exchange.lambda = 40.0;  // IR-focused run
  options.exchange.rho = 4.0;
  const FlowResult result = CodesignFlow(options).run(package);

  // Re-score on the hotspot-aware mesh and render heat maps.
  const auto score_and_render = [&](const PackageAssignment& assignment,
                                    const char* title, const char* path) {
    PowerGrid grid(grid_spec);
    grid.add_hotspot({0.6, 0.6, 0.95, 0.95}, 6.0);
    const IrReport report = analyze_ir(package, assignment, grid);
    const SolveResult solved = solve(grid);
    save_ir_heatmap_svg(grid, solved.voltage, title, path);
    return report;
  };

  const IrReport before = score_and_render(
      result.initial, "after DFA", "irdrop_before.svg");
  const IrReport after = score_and_render(
      result.final, "after exchange", "irdrop_after.svg");

  std::printf("hotspot chip, %d pads, %d supply pads, %dx%d mesh\n\n",
              package.finger_count(), before.supply_pad_count,
              grid_spec.nodes_per_side, grid_spec.nodes_per_side);
  std::printf("  uniform-load scoring : %.1f -> %.1f mV (%.1f%%)\n",
              result.ir_initial.max_drop_v * 1e3,
              result.ir_final.max_drop_v * 1e3,
              result.ir_improvement_percent());
  std::printf("  hotspot-aware scoring: %.1f -> %.1f mV (%.1f%%)\n",
              before.max_drop_v * 1e3, after.max_drop_v * 1e3,
              (1.0 - after.max_drop_v / before.max_drop_v) * 100.0);
  std::printf("  package max density  : %d -> %d\n",
              result.max_density_initial, result.max_density_final);
  std::printf("\nwrote irdrop_before.svg, irdrop_after.svg\n");
  return 0;
}
