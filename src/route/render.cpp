#include "route/render.h"

#include <algorithm>

#include "io/svg.h"
#include "util/file.h"

namespace fp {

std::string render_quadrant_route(const Quadrant& quadrant,
                                  const QuadrantRoute& route,
                                  const std::string& title) {
  // World bounds: widest of the finger row and the outermost bump row.
  const double pitch = quadrant.geometry().bump_space_um;
  double min_x = quadrant.finger_position(0).x;
  double max_x = quadrant.finger_position(quadrant.finger_count() - 1).x;
  for (int r = 0; r < quadrant.row_count(); ++r) {
    min_x = std::min(min_x, quadrant.bump_position(r, 0).x - pitch);
    max_x = std::max(
        max_x,
        quadrant.bump_position(r, quadrant.bumps_in_row(r) - 1).x + pitch);
  }
  const Rect world{min_x - pitch, 0.0, max_x + pitch,
                   quadrant.finger_line_y() + pitch};
  SvgCanvas canvas(world, 900.0);

  // Row lines with their hottest-gap density annotation.
  for (int r = 0; r < quadrant.row_count(); ++r) {
    const double y = quadrant.row_line_y(r);
    canvas.line({world.x0, y}, {world.x1, y}, "#dddddd", 0.8);
  }
  // Finger row.
  canvas.line({world.x0, quadrant.finger_line_y()},
              {world.x1, quadrant.finger_line_y()}, "#bbbbbb", 1.2);

  // Net polylines, shaded by how far the staircase detours from the flyline
  // (straight wires cold, detoured wires hot -- mirrors the visual contrast
  // between Fig. 15(A) and (C)).
  for (const RoutedNet& net : route.nets) {
    const double detour =
        net.flyline_length_um > 0.0
            ? std::clamp(net.routed_length_um / net.flyline_length_um - 1.0,
                         0.0, 1.0)
            : 0.0;
    canvas.polyline(net.path, heat_color(detour), 1.2);
  }

  // Bump balls and via slots on top of the wires.
  for (int r = 0; r < quadrant.row_count(); ++r) {
    for (int c = 0; c < quadrant.bumps_in_row(r); ++c) {
      canvas.circle(quadrant.bump_position(r, c), 5.0, "#4477aa", "#223355");
    }
    for (int s = 0; s < quadrant.via_slots_in_row(r); ++s) {
      canvas.circle(quadrant.via_slot_position(r, s), 2.0, "#999999");
    }
  }
  for (int a = 0; a < quadrant.finger_count(); ++a) {
    canvas.circle(quadrant.finger_position(a), 2.5, "#aa4444");
  }

  canvas.text({world.x0 + 0.02 * world.width(), world.y1 - 0.02 * world.height()},
              title + "  (max density " + std::to_string(route.max_density) +
                  ")",
              14.0);
  return canvas.str();
}

void save_quadrant_route_svg(const Quadrant& quadrant,
                             const QuadrantRoute& route,
                             const std::string& title,
                             const std::string& path) {
  write_file_atomic(path, render_quadrant_route(quadrant, route, title));
}

namespace {

/// Maps a quadrant-local point into package coordinates: the quadrant is
/// flipped so its fingers face the die, offset outward by the die half
/// edge, then rotated into its ring position.
Point to_package(Point local, int quadrant_index, double die_half) {
  const double x = local.x;
  const double y = -(local.y + die_half);  // quadrant 0 sits below the die
  switch (quadrant_index % 4) {
    case 0:
      return {x, y};
    case 1:  // right: rotate +90 degrees
      return {-y, x};
    case 2:  // top: rotate 180
      return {-x, -y};
    default:  // left: rotate 270
      return {y, -x};
  }
}

}  // namespace

std::string render_package_route(const Package& package,
                                 const PackageRoute& route,
                                 const std::string& title) {
  require(route.quadrants.size() ==
              static_cast<std::size_t>(package.quadrant_count()),
          "render_package_route: route/package quadrant count mismatch");
  // Extent: the deepest quadrant's outermost row plus margin.
  double reach = 0.0;
  for (const Quadrant& q : package.quadrants()) {
    const double width =
        0.5 * static_cast<double>(q.bumps_in_row(0) + 2) *
        q.geometry().bump_space_um;
    reach = std::max(reach, q.finger_line_y() + 1.0);
    reach = std::max(reach, width);
  }
  const double die_half = package.die_edge_um() > 2.0 * reach
                              ? reach * 0.25
                              : package.die_edge_um() * 0.5;
  const double extent = die_half + reach;
  SvgCanvas canvas(Rect{-extent, -extent, extent, extent}, 900.0);

  canvas.rect({-die_half, -die_half, die_half, die_half}, "#f4e7c8",
              "#8a7340");
  canvas.text({-die_half * 0.6, 0.0}, "die", 12.0, "#8a7340");

  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    const Quadrant& q = package.quadrant(qi);
    const QuadrantRoute& qr = route.quadrants[static_cast<std::size_t>(qi)];
    for (const RoutedNet& net : qr.nets) {
      std::vector<Point> path;
      path.reserve(net.path.size());
      for (const Point p : net.path) {
        path.push_back(to_package(p, qi, die_half));
      }
      const double detour =
          net.flyline_length_um > 0.0
              ? std::clamp(net.routed_length_um / net.flyline_length_um -
                               1.0,
                           0.0, 1.0)
              : 0.0;
      canvas.polyline(path, heat_color(detour), 1.0);
    }
    for (int r = 0; r < q.row_count(); ++r) {
      for (int c = 0; c < q.bumps_in_row(r); ++c) {
        canvas.circle(to_package(q.bump_position(r, c), qi, die_half), 3.0,
                      "#4477aa");
      }
    }
    for (int a = 0; a < q.finger_count(); ++a) {
      canvas.circle(to_package(q.finger_position(a), qi, die_half), 1.5,
                    "#aa4444");
    }
  }
  canvas.text({-extent * 0.98, extent * 0.95},
              title + "  (max density " + std::to_string(route.max_density) +
                  ")",
              14.0);
  return canvas.str();
}

void save_package_route_svg(const Package& package,
                            const PackageRoute& route,
                            const std::string& title,
                            const std::string& path) {
  write_file_atomic(path, render_package_route(package, route, title));
}

std::string render_congestion_map(const Quadrant& quadrant,
                                  const DensityMap& density,
                                  const std::string& title, int capacity) {
  const double pitch = quadrant.geometry().bump_space_um;
  double max_x = 0.0;
  for (int r = 0; r < quadrant.row_count(); ++r) {
    max_x = std::max(
        max_x, std::abs(quadrant.via_slot_position(r, 0).x) + pitch);
  }
  const Rect world{-max_x - pitch, 0.0, max_x + pitch,
                   quadrant.finger_line_y() + pitch};
  SvgCanvas canvas(world, 900.0);

  const int scale =
      capacity > 0 ? capacity : std::max(1, density.max_density());
  for (int r = 0; r < quadrant.row_count(); ++r) {
    const auto& loads = density.row_densities(r);
    const int slots = quadrant.via_slots_in_row(r);
    const double y = quadrant.via_slot_position(r, 0).y;
    for (int g = 0; g < static_cast<int>(loads.size()); ++g) {
      const double lo = g == 0
                            ? quadrant.via_slot_position(r, 0).x - pitch
                            : quadrant.via_slot_position(r, g - 1).x;
      const double hi = g >= slots
                            ? quadrant.via_slot_position(r, slots - 1).x +
                                  pitch
                            : quadrant.via_slot_position(r, g).x;
      const int load = loads[static_cast<std::size_t>(g)];
      const std::string fill =
          load == 0 ? "#eeeeee"
                    : heat_color(static_cast<double>(load) / scale);
      canvas.rect({lo, y - 0.3 * pitch, hi, y + 0.3 * pitch}, fill,
                  "#aaaaaa");
      if (load > 0) {
        canvas.text({0.5 * (lo + hi) - 0.1 * pitch, y - 0.15 * pitch},
                    std::to_string(load), 9.0, "#222222");
      }
    }
    for (int s = 0; s < slots; ++s) {
      canvas.circle(quadrant.via_slot_position(r, s), 2.0, "#555555");
    }
  }
  canvas.text({world.x0 + 0.02 * world.width(),
               world.y1 - 0.03 * world.height()},
              title + "  (max " + std::to_string(density.max_density()) +
                  (capacity > 0
                       ? ", capacity " + std::to_string(capacity)
                       : "") +
                  ")",
              14.0);
  return canvas.str();
}

void save_congestion_map_svg(const Quadrant& quadrant,
                             const DensityMap& density,
                             const std::string& title,
                             const std::string& path, int capacity) {
  write_file_atomic(path,
                    render_congestion_map(quadrant, density, title, capacity));
}

}  // namespace fp
