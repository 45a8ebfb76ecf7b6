// Rendering of quadrant routing results as SVG (regenerates the Fig.-15
// style plots: bump balls, via slots, finger row, and one polyline per
// net, coloured by congestion of the gap it crosses).
#pragma once

#include <string>

#include "package/package.h"
#include "route/density.h"
#include "route/router.h"

namespace fp {

/// Draws one quadrant's routing; `title` is printed in the image corner.
[[nodiscard]] std::string render_quadrant_route(const Quadrant& quadrant,
                                                const QuadrantRoute& route,
                                                const std::string& title);

/// Renders and writes to `path` with write_file_atomic (never a torn
/// file); throws IoError on failure.
void save_quadrant_route_svg(const Quadrant& quadrant,
                             const QuadrantRoute& route,
                             const std::string& title,
                             const std::string& path);

/// Draws the whole package in the Fig.-2 arrangement: the die outline at
/// the centre with the four routed quadrants rotated around it (quadrant
/// qi rotated by 90 * qi degrees, finger rows facing the die).
[[nodiscard]] std::string render_package_route(const Package& package,
                                               const PackageRoute& route,
                                               const std::string& title);

/// Renders and writes the package view with write_file_atomic; throws
/// IoError on failure.
void save_package_route_svg(const Package& package,
                            const PackageRoute& route,
                            const std::string& title,
                            const std::string& path);

/// The paper's "wire congestion map before routing" (contribution 2),
/// drawn directly: every gap of every line as a cell coloured by its
/// crossing load relative to `capacity` (gaps at or over capacity are
/// red), via slots as ticks. Pass capacity <= 0 to normalise by the map's
/// own maximum instead.
[[nodiscard]] std::string render_congestion_map(const Quadrant& quadrant,
                                                const DensityMap& density,
                                                const std::string& title,
                                                int capacity = 0);

/// Renders and writes the congestion map with write_file_atomic; throws
/// IoError on failure.
void save_congestion_map_svg(const Quadrant& quadrant,
                             const DensityMap& density,
                             const std::string& title,
                             const std::string& path, int capacity = 0);

}  // namespace fp
