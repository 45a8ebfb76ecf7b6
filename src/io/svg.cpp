#include "io/svg.h"

#include <algorithm>
#include <cstdio>

#include "util/error.h"
#include "util/file.h"
#include "util/strings.h"

namespace fp {
namespace {

std::string fmt(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%.2f", v);
  return buffer;
}

}  // namespace

SvgCanvas::SvgCanvas(Rect world, double pixels_wide) : world_(world) {
  require(world.valid() && world.width() > 0.0 && world.height() > 0.0,
          "SvgCanvas: world rect must have positive area");
  require(pixels_wide > 2.0 * margin_px_, "SvgCanvas: image too small");
  scale_ = (pixels_wide - 2.0 * margin_px_) / world.width();
  width_px_ = pixels_wide;
  height_px_ = world.height() * scale_ + 2.0 * margin_px_;
}

Point SvgCanvas::to_pixels(Point world) const {
  return {margin_px_ + (world.x - world_.x0) * scale_,
          margin_px_ + (world_.y1 - world.y) * scale_};
}

void SvgCanvas::line(Point a, Point b, std::string_view color,
                     double width_px) {
  const Point pa = to_pixels(a);
  const Point pb = to_pixels(b);
  elements_.push_back("<line x1=\"" + fmt(pa.x) + "\" y1=\"" + fmt(pa.y) +
                      "\" x2=\"" + fmt(pb.x) + "\" y2=\"" + fmt(pb.y) +
                      "\" stroke=\"" + std::string(color) +
                      "\" stroke-width=\"" + fmt(width_px) + "\"/>");
}

void SvgCanvas::polyline(const std::vector<Point>& points,
                         std::string_view color, double width_px) {
  if (points.size() < 2) return;
  std::string d = "<polyline fill=\"none\" stroke=\"" + std::string(color) +
                  "\" stroke-width=\"" + fmt(width_px) + "\" points=\"";
  for (const Point p : points) {
    const Point px = to_pixels(p);
    d += fmt(px.x) + "," + fmt(px.y) + " ";
  }
  d += "\"/>";
  elements_.push_back(std::move(d));
}

void SvgCanvas::circle(Point center, double radius_px, std::string_view fill,
                       std::string_view stroke) {
  const Point p = to_pixels(center);
  elements_.push_back("<circle cx=\"" + fmt(p.x) + "\" cy=\"" + fmt(p.y) +
                      "\" r=\"" + fmt(radius_px) + "\" fill=\"" +
                      std::string(fill) + "\" stroke=\"" +
                      std::string(stroke) + "\"/>");
}

void SvgCanvas::rect(Rect r, std::string_view fill, std::string_view stroke) {
  const Point top_left = to_pixels({r.x0, r.y1});
  elements_.push_back(
      "<rect x=\"" + fmt(top_left.x) + "\" y=\"" + fmt(top_left.y) +
      "\" width=\"" + fmt(r.width() * scale_) + "\" height=\"" +
      fmt(r.height() * scale_) + "\" fill=\"" + std::string(fill) +
      "\" stroke=\"" + std::string(stroke) + "\"/>");
}

void SvgCanvas::cell(Point lower_left, double w_world, double h_world,
                     std::string_view fill) {
  rect({lower_left.x, lower_left.y, lower_left.x + w_world,
        lower_left.y + h_world},
       fill);
}

void SvgCanvas::text(Point anchor, std::string_view content, double size_px,
                     std::string_view color) {
  const Point p = to_pixels(anchor);
  elements_.push_back("<text x=\"" + fmt(p.x) + "\" y=\"" + fmt(p.y) +
                      "\" font-size=\"" + fmt(size_px) +
                      "\" font-family=\"monospace\" fill=\"" +
                      std::string(color) + "\">" + xml_escape(content) +
                      "</text>");
}

std::string SvgCanvas::str() const {
  std::string out = "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" +
                    fmt(width_px_) + "\" height=\"" + fmt(height_px_) +
                    "\" viewBox=\"0 0 " + fmt(width_px_) + " " +
                    fmt(height_px_) + "\">\n";
  out += "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  for (const std::string& element : elements_) {
    out += element;
    out += '\n';
  }
  out += "</svg>\n";
  return out;
}

void SvgCanvas::save(const std::string& path) const {
  write_file_atomic(path, str());
}

std::string heat_color(double t) {
  t = std::clamp(t, 0.0, 1.0);
  // Piecewise-linear blue (cold) -> green -> yellow -> red (hot).
  double r = 0.0;
  double g = 0.0;
  double b = 0.0;
  if (t < 1.0 / 3.0) {
    const double u = t * 3.0;
    r = 0.0;
    g = u;
    b = 1.0 - u;
  } else if (t < 2.0 / 3.0) {
    const double u = (t - 1.0 / 3.0) * 3.0;
    r = u;
    g = 1.0;
    b = 0.0;
  } else {
    const double u = (t - 2.0 / 3.0) * 3.0;
    r = 1.0;
    g = 1.0 - u;
    b = 0.0;
  }
  char buffer[8];
  std::snprintf(buffer, sizeof buffer, "#%02x%02x%02x",
                static_cast<int>(r * 255.0 + 0.5),
                static_cast<int>(g * 255.0 + 0.5),
                static_cast<int>(b * 255.0 + 0.5));
  return buffer;
}

}  // namespace fp
