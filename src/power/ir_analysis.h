// End-to-end IR-drop analysis of a package assignment, plus rendering.
//
// This is the "IR_before / IR_after" scoring path of Table 3 and the
// simulation behind Fig. 6: place the assignment's supply pads on the die
// mesh boundary, solve Eq. (1), and report the worst drop.
#pragma once

#include <cstddef>
#include <string>

#include "package/assignment.h"
#include "package/package.h"
#include "power/pad_ring.h"
#include "power/power_grid.h"
#include "power/solver.h"

namespace fp {

struct IrReport {
  double max_drop_v = 0.0;
  double mean_drop_v = 0.0;
  int supply_pad_count = 0;
  int solver_iterations = 0;
  bool converged = false;
  /// Why the (last) solve ended; Budget means a flow budget expired and
  /// the drop figures are best-so-far, not converged values.
  SolveStop solver_stop = SolveStop::Converged;
  /// Backends tried by the fallback chain (1 on the healthy path, more
  /// when the primary diverged and solve() escalated; 0 = trivial mesh).
  int solver_attempts = 0;
};

/// The report of one solve of `grid`. `supply_pads` is the assignment's
/// supply pad count (one per power or ground net), which exceeds the
/// grid's distinct pad nodes when several pads snap to one mesh node.
[[nodiscard]] IrReport ir_report(const PowerGrid& grid,
                                 const SolveResult& solved,
                                 std::size_t supply_pads);

/// Builds the mesh from `spec` (hotspots may be added via the overload
/// taking a prepared grid), pins the assignment's supply pads to Vdd and
/// solves. A non-null `voltage` receives the solved field, moved out of
/// the solve. Throws InvalidArgument when the assignment carries no
/// supply nets.
[[nodiscard]] IrReport analyze_ir(const Package& package,
                                  const PackageAssignment& assignment,
                                  const PowerGridSpec& spec,
                                  const SolverOptions& options = {},
                                  Grid2D<double>* voltage = nullptr);

/// Same, but reuses a caller-prepared grid (e.g. with hotspots); only the
/// pad set is replaced.
[[nodiscard]] IrReport analyze_ir(const Package& package,
                                  const PackageAssignment& assignment,
                                  PowerGrid& grid,
                                  const SolverOptions& options = {},
                                  Grid2D<double>* voltage = nullptr);

/// Leave-one-out criticality of each pad of `grid`: how much the max
/// IR-drop rises if that pad alone is removed. The ranking tells a
/// co-design team which supply pads are load-bearing and which are
/// redundant (ECO candidates). Requires at least two pads; the grid's pad
/// set is restored before returning. Sorted most critical first.
struct PadCriticality {
  IPoint node;
  double drop_increase_v = 0.0;
};

[[nodiscard]] std::vector<PadCriticality> pad_criticality(
    PowerGrid& grid, const SolverOptions& options = {});

/// SVG heat map of a solved voltage field of `grid` (Fig. 6 style): blue
/// = full Vdd, red = worst drop. Pads are drawn as black dots.
[[nodiscard]] std::string ir_heatmap_svg(const PowerGrid& grid,
                                         const Grid2D<double>& voltage,
                                         const std::string& title);

/// Renders and writes the heat map with write_file_atomic (never a torn
/// file); throws IoError on failure.
void save_ir_heatmap_svg(const PowerGrid& grid, const Grid2D<double>& voltage,
                         const std::string& title, const std::string& path);

}  // namespace fp
