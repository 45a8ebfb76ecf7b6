#include "package/circuit_generator.h"

#include <algorithm>
#include <numeric>

#include "util/rng.h"

namespace fp {

CircuitSpec CircuitGenerator::table1(int index) {
  require(index >= 0 && index < 5, "table1: index must be in [0, 5)");
  // Columns of Table 1: finger/pad count, bump ball space, finger width,
  // finger height, finger space. Rows per quadrant is 4 (Section 4).
  static constexpr struct {
    int fingers;
    double bump_space, fw, fh, fs;
  } kRows[5] = {
      {96, 2.0, 0.025, 0.4, 0.025},
      {160, 1.4, 0.006, 0.3, 0.1},
      {208, 1.2, 0.006, 0.2, 0.007},
      {352, 1.2, 0.1, 0.2, 0.12},
      {448, 1.2, 0.1, 0.2, 0.12},
  };
  const auto& row = kRows[index];
  CircuitSpec spec;
  spec.name = "circuit" + std::to_string(index + 1);
  spec.finger_count = row.fingers;
  spec.bump_space_um = row.bump_space;
  spec.finger_width_um = row.fw;
  spec.finger_height_um = row.fh;
  spec.finger_space_um = row.fs;
  spec.seed = static_cast<std::uint64_t>(index + 1);
  return spec;
}

std::vector<int> CircuitGenerator::row_sizes(int net_count, int rows) {
  require(rows >= 1, "row_sizes: need at least one row");
  // Rows must shrink toward the die and hold at least one bump each, so the
  // smallest feasible triangle is 2*rows-1 + 2*rows-3 + ... = rows^2 bumps
  // when shrinking by 2; fall back to shrinking by 1 or flat rows for tiny
  // circuits.
  require(net_count >= rows, "row_sizes: fewer nets than rows");
  for (int step : {2, 1, 0}) {
    // Arithmetic progression outermost = base, then base-step, ...
    // sum = rows*base - step*rows*(rows-1)/2.
    const int tri = step * rows * (rows - 1) / 2;
    if (net_count < tri + rows) continue;  // innermost row would be < 1
    const int numerator = net_count + tri;
    int base = numerator / rows;
    int remainder = numerator % rows;
    std::vector<int> sizes(static_cast<std::size_t>(rows));
    for (int r = 0; r < rows; ++r) {
      sizes[static_cast<std::size_t>(r)] = base - step * r;
    }
    // Spread any remainder over the outermost rows, preserving monotonicity.
    for (int r = 0; remainder > 0; ++r, --remainder) {
      ++sizes[static_cast<std::size_t>(r % rows)];
    }
    std::sort(sizes.begin(), sizes.end(), std::greater<>());
    if (std::accumulate(sizes.begin(), sizes.end(), 0) == net_count &&
        sizes.back() >= 1) {
      return sizes;
    }
  }
  throw InternalError("row_sizes: could not partition nets into rows");
}

Package CircuitGenerator::generate(const CircuitSpec& spec) {
  require(spec.finger_count > 0, "generate: finger_count must be positive");
  require(spec.quadrant_count >= 1, "generate: need at least one quadrant");
  require(spec.tier_count >= 1, "generate: tier_count must be positive");
  require(spec.supply_fraction >= 0.0 && spec.supply_fraction <= 1.0,
          "generate: supply_fraction must be in [0, 1]");

  PackageGeometry geometry;
  geometry.bump_space_um = spec.bump_space_um;
  geometry.finger_width_um = spec.finger_width_um;
  geometry.finger_height_um = spec.finger_height_um;
  geometry.finger_space_um = spec.finger_space_um;

  Rng rng(spec.seed);

  // ---- netlist: names, supply types, tiers -----------------------------
  const std::size_t n = static_cast<std::size_t>(spec.finger_count);
  Netlist netlist;
  const auto supply_count = static_cast<std::size_t>(
      static_cast<double>(n) * spec.supply_fraction + 0.5);
  // Choose which net ids are supply nets, alternating power/ground.
  std::vector<std::size_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  rng.shuffle(ids);
  std::vector<NetType> types(n, NetType::Signal);
  for (std::size_t i = 0; i < supply_count && i < n; ++i) {
    types[ids[i]] = (i % 2 == 0) ? NetType::Power : NetType::Ground;
  }
  // Tiers: equal split, randomized membership.
  std::vector<int> tiers(n, 0);
  if (spec.tier_count > 1) {
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    rng.shuffle(order);
    for (std::size_t i = 0; i < n; ++i) {
      tiers[order[i]] =
          static_cast<int>(i % static_cast<std::size_t>(spec.tier_count));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    std::string name;
    switch (types[i]) {
      case NetType::Power:
        name = "VDD" + std::to_string(i);
        break;
      case NetType::Ground:
        name = "VSS" + std::to_string(i);
        break;
      case NetType::Signal:
        name = std::string("N").append(std::to_string(i));
        break;
    }
    netlist.add(std::move(name), types[i], tiers[i]);
  }

  // ---- quadrants: nets split evenly, bumps shuffled per quadrant -------
  static constexpr const char* kQuadrantNames[4] = {"bottom", "right", "top",
                                                    "left"};
  std::vector<Quadrant> quadrants;
  quadrants.reserve(static_cast<std::size_t>(spec.quadrant_count));
  std::vector<NetId> pool(n);
  std::iota(pool.begin(), pool.end(), NetId{0});
  rng.shuffle(pool);

  std::size_t cursor = 0;
  for (int qi = 0; qi < spec.quadrant_count; ++qi) {
    // Distribute any remainder over the first quadrants.
    const int base = spec.finger_count / spec.quadrant_count;
    const int extra = (qi < spec.finger_count % spec.quadrant_count) ? 1 : 0;
    const int count = base + extra;
    require(count >= spec.rows_per_quadrant,
            "generate: quadrant has fewer nets than rows");
    std::vector<NetId> members(pool.begin() + static_cast<std::ptrdiff_t>(cursor),
                               pool.begin() +
                                   static_cast<std::ptrdiff_t>(cursor) + count);
    cursor += static_cast<std::size_t>(count);

    const std::vector<int> sizes = row_sizes(count, spec.rows_per_quadrant);
    std::vector<std::vector<NetId>> rows;
    rows.reserve(sizes.size());
    std::size_t m = 0;
    for (const int size : sizes) {
      rows.emplace_back(members.begin() + static_cast<std::ptrdiff_t>(m),
                        members.begin() + static_cast<std::ptrdiff_t>(m) +
                            size);
      m += static_cast<std::size_t>(size);
    }
    const std::string qname =
        qi < 4 ? kQuadrantNames[qi] : ("quadrant" + std::to_string(qi));
    quadrants.emplace_back(qname, geometry, std::move(rows));
  }

  return Package(spec.name, std::move(netlist), geometry,
                 std::move(quadrants));
}

Quadrant CircuitGenerator::fig5_quadrant() {
  // Fig. 5 of the paper: 12 nets, rows listed outermost -> nearest the die.
  // The paper's y=1 line holds nets 10,2,4,7,0; y=2 holds 1,3,5,8; the
  // highest line y=3 holds 11,6,9.
  PackageGeometry geometry;
  geometry.bump_space_um = 1.0;
  geometry.finger_width_um = 0.4;
  geometry.finger_space_um = 0.1;
  return Quadrant("fig5", geometry,
                  {{10, 2, 4, 7, 0}, {1, 3, 5, 8}, {11, 6, 9}});
}

Quadrant CircuitGenerator::fig13_quadrant() {
  // Fig. 13-shaped circuit: 20 nets over 4 rows of sizes 8/6/4/2 shrinking
  // toward the die (the exact figure layout is not published; this keeps
  // the row structure its caption describes).
  PackageGeometry geometry;
  geometry.bump_space_um = 1.0;
  geometry.finger_width_um = 0.4;
  geometry.finger_space_um = 0.1;
  return Quadrant("fig13", geometry,
                  {{1, 2, 3, 4, 5, 6, 7, 8},
                   {9, 10, 11, 12, 13, 14},
                   {15, 16, 17, 18},
                   {19, 20}});
}

}  // namespace fp
