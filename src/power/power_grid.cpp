#include "power/power_grid.h"

#include <algorithm>

#include "util/error.h"
#include "util/faultpoint.h"

namespace fp {

PowerGrid::PowerGrid(PowerGridSpec spec) : spec_(spec) {
  require(spec_.nodes_per_side >= 2, "PowerGrid: need at least a 2x2 mesh");
  require(spec_.nodes_per_side <= 16384,
          "PowerGrid: mesh side above 16384 (refusing an absurd "
          "allocation; check the K that reached the spec)");
  require(spec_.sheet_res_x > 0.0 && spec_.sheet_res_y > 0.0,
          "PowerGrid: sheet resistances must be positive");
  require(spec_.total_current_a >= 0.0,
          "PowerGrid: total current must be non-negative");
  require(spec_.vdd > 0.0, "PowerGrid: vdd must be positive");
  if (fault::enabled()) fault::check("alloc.grid");
  const auto k = static_cast<std::size_t>(spec_.nodes_per_side);
  current_multiplier_ = Grid2D<double>(k, k, 1.0);
  pad_mask_ = Grid2D<unsigned char>(k, k, 0);
}

void PowerGrid::add_hotspot(Rect region_fraction, double multiplier) {
  require(multiplier >= 0.0, "PowerGrid: hotspot multiplier must be >= 0");
  require(region_fraction.valid(), "PowerGrid: invalid hotspot region");
  const int k = spec_.nodes_per_side;
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      const Point frac{(static_cast<double>(x) + 0.5) / k,
                       (static_cast<double>(y) + 0.5) / k};
      if (region_fraction.contains(frac)) {
        current_multiplier_(static_cast<std::size_t>(x),
                            static_cast<std::size_t>(y)) *= multiplier;
      }
    }
  }
}

void PowerGrid::set_pads(const std::vector<IPoint>& pad_nodes) {
  const int k = spec_.nodes_per_side;
  pad_mask_.fill(0);
  pads_.clear();
  for (const IPoint p : pad_nodes) {
    require(p.x >= 0 && p.x < k && p.y >= 0 && p.y < k,
            "PowerGrid: pad node outside the mesh");
    auto& cell = pad_mask_(static_cast<std::size_t>(p.x),
                           static_cast<std::size_t>(p.y));
    if (cell == 0) {
      cell = 1;
      pads_.push_back(p);
    }
  }
}

void PowerGrid::set_explicit_currents(Grid2D<double> amps) {
  const auto k = static_cast<std::size_t>(spec_.nodes_per_side);
  require(amps.width() == k && amps.height() == k,
          "PowerGrid: explicit current map has wrong dimensions");
  for (const double value : amps.data()) {
    require(value >= 0.0, "PowerGrid: negative node current");
  }
  explicit_current_ = std::move(amps);
  has_explicit_currents_ = true;
}

double PowerGrid::node_current(int x, int y) const {
  const int k = spec_.nodes_per_side;
  require(x >= 0 && x < k && y >= 0 && y < k,
          "PowerGrid: node outside the mesh");
  return load_map().at(static_cast<std::size_t>(y) *
                           static_cast<std::size_t>(k) +
                       static_cast<std::size_t>(x));
}

PowerGrid::LoadMap PowerGrid::load_map() const {
  const double k = spec_.nodes_per_side;
  return {has_explicit_currents_ ? explicit_current_.data().data() : nullptr,
          spec_.total_current_a / (k * k),
          current_multiplier_.data().data()};
}

}  // namespace fp
