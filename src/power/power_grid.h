// Compact on-die IR-drop model (Shakeri-Meindl [17], the paper's Eq. (1)).
//
// The die's power distribution network is a uniform K x K mesh of nodes.
// Every node draws a load current J0*dx*dy (optionally scaled by a hotspot
// multiplier map, modelling non-uniform module power); neighbouring nodes
// are joined by sheet resistances Rsx/Rsy. Nodes carrying a power pad are
// Dirichlet sources pinned to Vdd. The resulting linear system
//
//     sum_j G_ij (V_i - V_j) = -I_i      (Eq. (1) in discrete form)
//
// is solved by the iterative solvers in solver.h; IR-drop at a node is
// Vdd - V. The paper uses this model both to drive the pad exchange and to
// score its result ("We use [17] method to calculate the maximum value of
// IR-drop").
#pragma once

#include <cstddef>
#include <vector>

#include "geom/grid2d.h"
#include "geom/point.h"
#include "geom/rect.h"

namespace fp {

struct PowerGridSpec {
  /// Mesh nodes per die side (K); the mesh has K*K nodes.
  int nodes_per_side = 32;
  double vdd = 1.0;  // volts
  /// Sheet resistance of the mesh in x / y (ohm/square).
  double sheet_res_x = 0.05;
  double sheet_res_y = 0.05;
  /// Total die load current (amps), spread uniformly over the nodes before
  /// hotspot scaling.
  double total_current_a = 8.0;
  /// Die edge length (um) -- only used to map pad ring positions and for
  /// rendering; the electrical model is scale-free given Rs and current.
  double die_edge_um = 1000.0;
};

class PowerGrid {
 public:
  explicit PowerGrid(PowerGridSpec spec);

  [[nodiscard]] const PowerGridSpec& spec() const { return spec_; }
  [[nodiscard]] int k() const { return spec_.nodes_per_side; }

  /// Scales the load current of every node inside `region` (given in
  /// fractional die coordinates, each axis in [0,1]) by `multiplier`.
  /// Models high-power modules; multipliers compose multiplicatively.
  void add_hotspot(Rect region_fraction, double multiplier);

  /// Replaces the load model with an explicit per-node current map (amps);
  /// spec().total_current_a and any hotspots are ignored afterwards.
  void set_explicit_currents(Grid2D<double> amps);

  /// Declares the Dirichlet (Vdd) nodes. Replaces any previous set.
  /// Duplicate nodes are allowed and collapse to one.
  void set_pads(const std::vector<IPoint>& pad_nodes);

  [[nodiscard]] const std::vector<IPoint>& pads() const { return pads_; }
  [[nodiscard]] bool is_pad(int x, int y) const {
    return pad_mask_(static_cast<std::size_t>(x), static_cast<std::size_t>(y));
  }
  /// Row y of the pad mask: node (x, y) is a pad when pad_row(y)[x] != 0.
  [[nodiscard]] const unsigned char* pad_row(int y) const {
    return &pad_mask_(0, static_cast<std::size_t>(y));
  }

  /// Load current drawn at node (x, y), amps.
  [[nodiscard]] double node_current(int x, int y) const;

  /// Every node's load current, for a pass over the whole mesh: node
  /// (x, y) is index y * k + x, the pad mask's layout, and at(i) equals
  /// node_current(x, y) bit for bit.
  struct LoadMap {
    const double* amps = nullptr;  // the explicit current map, or null
    double per_node = 0.0;         // the uniform share of the total current
    const double* multiplier = nullptr;  // the hotspot multipliers

    [[nodiscard]] double at(std::size_t i) const {
      return amps != nullptr ? amps[i] : per_node * multiplier[i];
    }
  };
  [[nodiscard]] LoadMap load_map() const;

  /// Link conductances (siemens), uniform across the mesh.
  [[nodiscard]] double gx() const { return 1.0 / spec_.sheet_res_x; }
  [[nodiscard]] double gy() const { return 1.0 / spec_.sheet_res_y; }

 private:
  PowerGridSpec spec_;
  Grid2D<double> current_multiplier_;
  Grid2D<double> explicit_current_;
  bool has_explicit_currents_ = false;
  Grid2D<unsigned char> pad_mask_;
  std::vector<IPoint> pads_;
};

}  // namespace fp
