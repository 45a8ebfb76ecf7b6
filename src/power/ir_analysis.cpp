#include "power/ir_analysis.h"

#include <algorithm>
#include <utility>

#include "io/svg.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/file.h"

namespace fp {

IrReport ir_report(const PowerGrid& grid, const SolveResult& solved,
                   std::size_t supply_pads) {
  return IrReport{
      .max_drop_v = max_ir_drop(grid, solved),
      .mean_drop_v = mean_ir_drop(grid, solved),
      .supply_pad_count = static_cast<int>(supply_pads),
      .solver_iterations = solved.iterations,
      .converged = solved.converged,
      .solver_stop = solved.stop,
      .solver_attempts = static_cast<int>(solved.attempts.size())};
}

IrReport analyze_ir(const Package& package,
                    const PackageAssignment& assignment,
                    const PowerGridSpec& spec, const SolverOptions& options,
                    Grid2D<double>* voltage) {
  PowerGrid grid(spec);
  return analyze_ir(package, assignment, grid, options, voltage);
}

IrReport analyze_ir(const Package& package,
                    const PackageAssignment& assignment, PowerGrid& grid,
                    const SolverOptions& options, Grid2D<double>* voltage) {
  const obs::ScopedSpan span("power.analyze_ir", "power");
  const PadRing ring(package, grid.k());
  const std::vector<IPoint> nodes = ring.supply_nodes(assignment);
  require(!nodes.empty(), "analyze_ir: assignment has no supply pads");
  grid.set_pads(nodes);
  SolveResult solved = solve(grid, options);
  const IrReport report = ir_report(grid, solved, nodes.size());
  if (voltage != nullptr) *voltage = std::move(solved.voltage);
  return report;
}

std::vector<PadCriticality> pad_criticality(PowerGrid& grid,
                                            const SolverOptions& options) {
  const std::vector<IPoint> pads = grid.pads();
  require(pads.size() >= 2,
          "pad_criticality: need at least two pads (removing the only pad "
          "makes the mesh singular)");
  const double baseline = max_ir_drop(grid, solve(grid, options));
  std::vector<PadCriticality> ranking;
  ranking.reserve(pads.size());
  for (std::size_t skip = 0; skip < pads.size(); ++skip) {
    std::vector<IPoint> reduced;
    reduced.reserve(pads.size() - 1);
    for (std::size_t i = 0; i < pads.size(); ++i) {
      if (i != skip) reduced.push_back(pads[i]);
    }
    grid.set_pads(reduced);
    ranking.push_back(PadCriticality{
        pads[skip], max_ir_drop(grid, solve(grid, options)) - baseline});
  }
  grid.set_pads(pads);  // restore
  std::sort(ranking.begin(), ranking.end(),
            [](const PadCriticality& a, const PadCriticality& b) {
              return a.drop_increase_v > b.drop_increase_v;
            });
  return ranking;
}

std::string ir_heatmap_svg(const PowerGrid& grid,
                           const Grid2D<double>& voltage,
                           const std::string& title) {
  const int k = grid.k();
  require(voltage.width() == static_cast<std::size_t>(k) &&
              voltage.height() == static_cast<std::size_t>(k),
          "ir_heatmap_svg: the field is not the grid's k x k mesh");
  const double edge = grid.spec().die_edge_um;
  const double cell = edge / k;
  SvgCanvas canvas(Rect{0.0, 0.0, edge, edge}, 640.0);

  const double vdd = grid.spec().vdd;
  double worst = 0.0;
  for (const double v : voltage.data()) {
    worst = std::max(worst, vdd - v);
  }
  const double scale = worst > 0.0 ? 1.0 / worst : 1.0;
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      const double drop =
          vdd - voltage(static_cast<std::size_t>(x),
                        static_cast<std::size_t>(y));
      canvas.cell({x * cell, y * cell}, cell, cell,
                  heat_color(drop * scale));
    }
  }
  for (const IPoint pad : grid.pads()) {
    canvas.circle({(pad.x + 0.5) * cell, (pad.y + 0.5) * cell}, 3.5,
                  "#000000", "#ffffff");
  }
  canvas.text({0.02 * edge, 0.97 * edge},
              title + "  (max IR-drop " +
                  std::to_string(static_cast<int>(worst * 1e3 + 0.5)) +
                  " mV)",
              14.0, "#ffffff");
  return canvas.str();
}

void save_ir_heatmap_svg(const PowerGrid& grid, const Grid2D<double>& voltage,
                         const std::string& title, const std::string& path) {
  write_file_atomic(path, ir_heatmap_svg(grid, voltage, title));
}

}  // namespace fp
