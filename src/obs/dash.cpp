#include "obs/dash.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <optional>
#include <set>

#include "obs/metrics.h"
#include "util/error.h"
#include "util/strings.h"

namespace fp::obs {

namespace {

namespace fs = std::filesystem;

/// Trend keys gated by the slowdown rule (mirrors the comparer's
/// is_timing_name, plus the stage.* keys the dashboard synthesises).
bool is_timing_key(std::string_view name) {
  const auto ends_with = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.substr(name.size() - suffix.size()) == suffix;
  };
  return ends_with("_s") || ends_with("_us") || ends_with("_seconds") ||
         name == "wall" || name == "runtime" ||
         name.substr(0, 6) == "stage.";
}

/// Flattens one run into the quantities the trend panels draw from.
std::map<std::string, double> trend_quantities(const DashRun& run) {
  std::map<std::string, double> out;
  out["wall_s"] = run.manifest.wall_s;
  for (const StageTiming& stage : run.manifest.stages) {
    out["stage." + stage.name] = stage.seconds;
  }
  for (const auto& [name, value] : run.manifest.results) {
    out[name] = value;
  }
  return out;
}

/// Rebuilds a HistogramSnapshot from a metrics.json document, or nullopt
/// when the run has no such histogram.
std::optional<HistogramSnapshot> histogram_from_metrics(
    const Json& metrics, std::string_view name) {
  if (!metrics.is_object()) return std::nullopt;
  const Json* histograms = metrics.find("histograms");
  if (histograms == nullptr) return std::nullopt;
  const Json* h = histograms->find(name);
  if (h == nullptr || !h->is_object()) return std::nullopt;
  HistogramSnapshot snapshot;
  if (const Json* bounds = h->find("bounds"); bounds && bounds->is_array()) {
    for (const Json& b : bounds->items()) {
      snapshot.bounds.push_back(b.as_number());
    }
  }
  if (const Json* counts = h->find("counts"); counts && counts->is_array()) {
    for (const Json& c : counts->items()) {
      snapshot.counts.push_back(
          static_cast<std::uint64_t>(std::max(0.0, c.as_number())));
    }
  }
  if (const Json* count = h->find("count")) {
    snapshot.count = static_cast<std::uint64_t>(count->as_number());
  }
  if (const Json* sum = h->find("sum")) snapshot.sum = sum->as_number();
  if (snapshot.bounds.empty() || snapshot.counts.empty()) {
    return std::nullopt;
  }
  return snapshot;
}

std::optional<double> counter_from_metrics(const Json& metrics,
                                           std::string_view name) {
  if (!metrics.is_object()) return std::nullopt;
  const Json* counters = metrics.find("counters");
  if (counters == nullptr) return std::nullopt;
  const Json* c = counters->find(name);
  if (c == nullptr || !c->is_number()) return std::nullopt;
  return c->as_number();
}

// ---------------------------------------------------------------------
// HTML / SVG rendering
// ---------------------------------------------------------------------

constexpr std::string_view kPalette[] = {
    "#4e79a7", "#f28e2b", "#59a14f", "#b07aa1",
    "#76b7b2", "#edc948", "#9c755f", "#e15759",
};
constexpr std::string_view kRegressionColor = "#d62728";

/// Display formatting for values: short, stable, locale-free.
std::string fmt_value(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.4g", value);
  return buf;
}

std::string fmt_coord(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.2f", value);
  return buf;
}

/// One polyline of a panel. Points are (run index, value); indices may be
/// sparse when only some runs carry the quantity. `timing_gated` paints a
/// point red when it breaches the slowdown gate vs the previous point.
struct ChartSeries {
  std::string name;
  std::vector<std::pair<std::size_t, double>> points;
  bool timing_gated = false;
};

/// Inline SVG line chart over the run timeline. `run_count` fixes the x
/// axis so every panel aligns; `labels[i]` feeds the point tooltips.
std::string chart_svg(const std::vector<ChartSeries>& series,
                      std::size_t run_count,
                      const std::vector<std::string>& labels,
                      const CompareOptions& gates) {
  constexpr double kW = 720.0, kH = 240.0;
  constexpr double kLeft = 64.0, kRight = 16.0, kTop = 14.0, kBottom = 30.0;
  const double plot_w = kW - kLeft - kRight;
  const double plot_h = kH - kTop - kBottom;

  double lo = 0.0, hi = 0.0;
  bool any = false;
  for (const ChartSeries& s : series) {
    for (const auto& [index, value] : s.points) {
      if (!any) {
        lo = hi = value;
        any = true;
      } else {
        lo = std::min(lo, value);
        hi = std::max(hi, value);
      }
    }
  }
  if (!any) return std::string();
  if (lo > 0.0) lo = 0.0;  // anchor positive panels at zero
  if (hi == lo) hi = lo + (lo == 0.0 ? 1.0 : std::fabs(lo) * 0.1);
  hi += (hi - lo) * 0.05;  // headroom so the top point is not clipped

  const auto x_of = [&](std::size_t index) {
    if (run_count <= 1) return kLeft + plot_w / 2.0;
    return kLeft + plot_w * static_cast<double>(index) /
                       static_cast<double>(run_count - 1);
  };
  const auto y_of = [&](double value) {
    return kTop + plot_h * (1.0 - (value - lo) / (hi - lo));
  };

  std::string svg;
  svg += "<svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"0 0 720 240\" "
         "class=\"chart\">\n";
  // Axes + y grid/tick labels.
  for (int tick = 0; tick <= 4; ++tick) {
    const double value = lo + (hi - lo) * tick / 4.0;
    const double y = y_of(value);
    svg += "<line x1=\"" + fmt_coord(kLeft) + "\" y1=\"" + fmt_coord(y) +
           "\" x2=\"" + fmt_coord(kW - kRight) + "\" y2=\"" + fmt_coord(y) +
           "\" stroke=\"#e0e0e0\"/>\n";
    svg += "<text x=\"" + fmt_coord(kLeft - 6.0) + "\" y=\"" +
           fmt_coord(y + 3.5) + "\" text-anchor=\"end\" class=\"tick\">" +
           xml_escape(fmt_value(value)) + "</text>\n";
  }
  // X tick labels: run indices, thinned on long timelines.
  const std::size_t stride =
      run_count <= 24 ? 1 : (run_count + 23) / 24;
  for (std::size_t i = 0; i < run_count; i += stride) {
    svg += "<text x=\"" + fmt_coord(x_of(i)) + "\" y=\"" +
           fmt_coord(kH - 10.0) + "\" text-anchor=\"middle\" "
           "class=\"tick\">" + std::to_string(i) + "</text>\n";
  }
  svg += "<line x1=\"" + fmt_coord(kLeft) + "\" y1=\"" + fmt_coord(kTop) +
         "\" x2=\"" + fmt_coord(kLeft) + "\" y2=\"" +
         fmt_coord(kH - kBottom) + "\" stroke=\"#888888\"/>\n";

  for (std::size_t si = 0; si < series.size(); ++si) {
    const ChartSeries& s = series[si];
    if (s.points.empty()) continue;
    const std::string_view color =
        kPalette[si % (sizeof(kPalette) / sizeof(kPalette[0]))];
    if (s.points.size() > 1) {
      svg += "<polyline fill=\"none\" stroke=\"";
      svg += color;
      svg += "\" stroke-width=\"1.5\" points=\"";
      for (const auto& [index, value] : s.points) {
        svg += fmt_coord(x_of(index)) + "," + fmt_coord(y_of(value)) + " ";
      }
      svg.pop_back();
      svg += "\"/>\n";
    }
    double previous = 0.0;
    bool has_previous = false;
    for (const auto& [index, value] : s.points) {
      const bool flagged = s.timing_gated && has_previous &&
                           timing_regression(previous, value, gates);
      previous = value;
      has_previous = true;
      svg += "<circle cx=\"" + fmt_coord(x_of(index)) + "\" cy=\"" +
             fmt_coord(y_of(value)) + "\" r=\"";
      svg += flagged ? "4.5" : "3";
      svg += "\" fill=\"";
      svg += flagged ? kRegressionColor : color;
      svg += "\"><title>";
      xml_escape_into(svg, s.name);
      svg += " @ ";
      xml_escape_into(svg, index < labels.size() ? labels[index] : "run");
      svg += ": " + xml_escape(fmt_value(value));
      if (flagged) svg += " (slowdown gate breached)";
      svg += "</title></circle>\n";
    }
  }
  svg += "</svg>\n";
  return svg;
}

/// One dashboard panel: legend + chart, or an empty-state note.
void render_panel(std::string& html, const std::string& title,
                  const std::vector<ChartSeries>& series,
                  std::size_t run_count,
                  const std::vector<std::string>& labels,
                  const CompareOptions& gates) {
  html += "<section class=\"panel\">\n<h2>";
  xml_escape_into(html, title);
  html += "</h2>\n";
  std::vector<ChartSeries> live;
  for (const ChartSeries& s : series) {
    if (!s.points.empty()) live.push_back(s);
  }
  if (live.empty()) {
    html += "<p class=\"empty\">no data in the scanned artifacts</p>\n";
  } else {
    html += "<div class=\"legend\">";
    for (std::size_t i = 0; i < live.size(); ++i) {
      html += "<span><i style=\"background:";
      html += kPalette[i % (sizeof(kPalette) / sizeof(kPalette[0]))];
      html += "\"></i>";
      xml_escape_into(html, live[i].name);
      html += "</span>";
    }
    html += "</div>\n";
    html += chart_svg(live, run_count, labels, gates);
  }
  html += "</section>\n";
}

constexpr std::string_view kCss =
    "body{font-family:system-ui,sans-serif;margin:24px;color:#1a1a1a;"
    "background:#fafafa}"
    "h1{font-size:22px}h2{font-size:15px;margin:0 0 6px}"
    ".panel{background:#ffffff;border:1px solid #dddddd;border-radius:6px;"
    "padding:12px 16px;margin:0 0 18px;max-width:780px}"
    ".chart{width:100%;height:auto}"
    ".tick{font-size:9px;fill:#666666;font-family:monospace}"
    ".legend{font-size:12px;margin-bottom:4px}"
    ".legend span{margin-right:14px}"
    ".legend i{display:inline-block;width:10px;height:10px;"
    "margin-right:4px;border-radius:2px}"
    ".empty{color:#888888;font-style:italic;font-size:13px}"
    ".regressions{background:#fdecea;border:1px solid #d62728;"
    "border-radius:6px;padding:10px 16px;margin:0 0 18px;max-width:780px}"
    ".regressions h2{color:#b71c1c}"
    ".ok{background:#edf7ed;border:1px solid #59a14f;border-radius:6px;"
    "padding:10px 16px;margin:0 0 18px;max-width:780px;font-size:13px}"
    "table{border-collapse:collapse;font-size:12px;background:#ffffff}"
    "th,td{border:1px solid #dddddd;padding:4px 8px;text-align:right}"
    "th{background:#f0f0f0}"
    "td.name,th.name{text-align:left;font-family:monospace}";

}  // namespace

std::vector<DashRun> scan_artifacts(const std::string& root) {
  std::vector<fs::path> manifest_dirs;
  std::error_code ec;
  const fs::path root_path(root);
  if (fs::exists(root_path / "manifest.json", ec)) {
    manifest_dirs.push_back(root_path);
  }
  if (fs::is_directory(root_path, ec)) {
    for (fs::recursive_directory_iterator
             it(root_path, fs::directory_options::skip_permission_denied,
                ec),
         end;
         !ec && it != end; it.increment(ec)) {
      if (it->is_regular_file(ec) &&
          it->path().filename() == "manifest.json") {
        manifest_dirs.push_back(it->path().parent_path());
      }
    }
  }
  std::sort(manifest_dirs.begin(), manifest_dirs.end());
  manifest_dirs.erase(
      std::unique(manifest_dirs.begin(), manifest_dirs.end()),
      manifest_dirs.end());

  std::vector<DashRun> runs;
  for (const fs::path& dir : manifest_dirs) {
    DashRun run;
    run.dir = dir.string();
    const fs::path relative = dir.lexically_relative(root_path);
    run.label = (relative.empty() || relative == ".")
                    ? dir.filename().string()
                    : relative.generic_string();
    if (run.label.empty()) run.label = run.dir;
    try {
      run.manifest =
          manifest_from_json(json_load((dir / "manifest.json").string()));
    } catch (const Error&) {
      continue;  // not an fpkit artifact; skip quietly
    }
    const fs::path metrics_path = dir / "metrics.json";
    if (fs::exists(metrics_path, ec)) {
      try {
        run.metrics = json_load(metrics_path.string());
      } catch (const Error&) {
        // A corrupt metrics.json degrades that run's metric panels only.
      }
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

Dashboard build_dashboard(std::vector<DashRun> runs,
                          const DashOptions& options) {
  Dashboard dash;
  dash.options = options;
  dash.runs = std::move(runs);
  if (options.gates.max_slowdown <= 0.0) return dash;

  // Gate every timing quantity between consecutive carriers: the exact
  // slowdowns `fpkit compare --max-slowdown` would fail pairwise.
  struct Last {
    double value = 0.0;
    std::size_t run = 0;
  };
  std::map<std::string, Last> last_seen;
  for (std::size_t i = 0; i < dash.runs.size(); ++i) {
    for (const auto& [name, value] : trend_quantities(dash.runs[i])) {
      if (!is_timing_key(name)) continue;
      const auto it = last_seen.find(name);
      if (it != last_seen.end() &&
          timing_regression(it->second.value, value, options.gates)) {
        dash.regressions.push_back(
            DashRegression{name, dash.runs[it->second.run].label,
                           dash.runs[i].label, it->second.value, value});
      }
      last_seen[name] = Last{value, i};
    }
  }
  return dash;
}

std::string Dashboard::to_html() const {
  const std::size_t n = runs.size();
  std::vector<std::string> labels;
  labels.reserve(n);
  std::vector<std::map<std::string, double>> quantities;
  quantities.reserve(n);
  for (const DashRun& run : runs) {
    labels.push_back(run.label);
    quantities.push_back(trend_quantities(run));
  }

  // Series builder: one point per run that carries the key, transformed
  // (e.g. V -> mV) before plotting.
  const auto series_of = [&](const std::string& display,
                             const std::string& key, double scale,
                             bool timing_gated) {
    ChartSeries s;
    s.name = display;
    s.timing_gated = timing_gated;
    for (std::size_t i = 0; i < n; ++i) {
      const auto it = quantities[i].find(key);
      if (it != quantities[i].end()) {
        s.points.emplace_back(i, it->second * scale);
      }
    }
    return s;
  };

  std::string html;
  html += "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta "
          "charset=\"utf-8\">\n<title>";
  xml_escape_into(html, options.title);
  html += "</title>\n<style>";
  html += kCss;
  html += "</style>\n</head>\n<body>\n<h1>";
  xml_escape_into(html, options.title);
  html += "</h1>\n<p>" + std::to_string(n) +
          " run(s) scanned; trend order is the artifact path order.</p>\n";

  // Regression summary box (the gate verdict, before any chart).
  if (options.gates.max_slowdown > 0.0) {
    if (regressions.empty()) {
      html += "<div class=\"ok\">No timing regression at --max-slowdown " +
              xml_escape(fmt_value(options.gates.max_slowdown)) + ".</div>\n";
    } else {
      html += "<div class=\"regressions\">\n<h2>" +
              std::to_string(regressions.size()) +
              " timing regression(s) at --max-slowdown " +
              xml_escape(fmt_value(options.gates.max_slowdown)) +
              "</h2>\n<ul>\n";
      for (const DashRegression& r : regressions) {
        html += "<li><code>";
        xml_escape_into(html, r.quantity);
        html += "</code>: " + xml_escape(fmt_value(r.baseline)) + " (";
        xml_escape_into(html, r.from_run);
        html += ") &rarr; " + xml_escape(fmt_value(r.value)) + " (";
        xml_escape_into(html, r.to_run);
        html += "), " + xml_escape(fmt_value(r.value / r.baseline)) +
                "x</li>\n";
      }
      html += "</ul>\n</div>\n";
    }
  }

  // Panel 1: whole-run wall clock.
  render_panel(html, "Wall clock (s)",
               {series_of("wall_s", "wall_s", 1.0, true)}, n, labels,
               options.gates);

  // Panel 2: per-stage timings (one series per stage name seen anywhere).
  {
    std::set<std::string> stage_keys;
    for (const auto& q : quantities) {
      for (const auto& [name, value] : q) {
        if (name.rfind("stage.", 0) == 0) stage_keys.insert(name);
      }
    }
    std::vector<ChartSeries> stage_series;
    for (const std::string& key : stage_keys) {
      stage_series.push_back(
          series_of(key.substr(6), key, 1.0, true));
    }
    render_panel(html, "Stage timings (s)", stage_series, n, labels,
                 options.gates);
  }

  // Panel 3: SA Eq.-(3) cost.
  render_panel(html, "SA cost (Eq. 3)",
               {series_of("final cost", "sa_final_cost", 1.0, false),
                series_of("best cost", "sa_best_cost", 1.0, false)},
               n, labels, options.gates);

  // Panel 4: IR drop, max and mean, in mV.
  render_panel(
      html, "IR drop (mV)",
      {series_of("max final", "ir_drop_final_v", 1e3, false),
       series_of("mean final", "ir_drop_mean_final_v", 1e3, false),
       series_of("max initial", "ir_drop_initial_v", 1e3, false)},
      n, labels, options.gates);

  // Panel 5: solver iteration quantiles (per-solve histogram) and
  // fallbacks, straight from each run's metrics.json.
  {
    ChartSeries p50{"iterations p50", {}, false};
    ChartSeries p95{"iterations p95", {}, false};
    ChartSeries p99{"iterations p99", {}, false};
    ChartSeries fallbacks{"fallbacks", {}, false};
    for (std::size_t i = 0; i < n; ++i) {
      if (const auto h =
              histogram_from_metrics(runs[i].metrics, "solver.iterations")) {
        p50.points.emplace_back(i, h->quantile(0.50));
        p95.points.emplace_back(i, h->quantile(0.95));
        p99.points.emplace_back(i, h->quantile(0.99));
      }
      if (const auto f =
              counter_from_metrics(runs[i].metrics, "solver.fallbacks")) {
        fallbacks.points.emplace_back(i, *f);
      }
    }
    render_panel(html, "Solver iterations (p50/p95/p99) and fallbacks",
                 {p50, p95, p99, fallbacks}, n, labels, options.gates);
  }

  // Panel 6: check findings and rule-cache hit rate.
  {
    ChartSeries hit_rate{"cache hit %", {}, false};
    for (std::size_t i = 0; i < n; ++i) {
      const auto hits = quantities[i].find("check_cache_hits");
      const auto rules = quantities[i].find("check_rules_run");
      if (hits != quantities[i].end() && rules != quantities[i].end() &&
          rules->second > 0.0) {
        hit_rate.points.emplace_back(i,
                                     100.0 * hits->second / rules->second);
      }
    }
    render_panel(html, "Check findings and cache hit rate",
                 {series_of("errors", "check_errors", 1.0, false),
                  series_of("warnings", "check_warnings", 1.0, false),
                  series_of("waived", "check_waived", 1.0, false),
                  hit_rate},
                 n, labels, options.gates);
  }

  // Runs table: the index -> artifact mapping behind every x axis.
  html += "<section class=\"panel\">\n<h2>Runs</h2>\n<table>\n<tr>"
          "<th>#</th><th class=\"name\">artifact</th>"
          "<th class=\"name\">subcommand</th><th>threads</th>"
          "<th>wall (s)</th><th>exit</th><th>cores</th>"
          "<th>peak RSS (MiB)</th></tr>\n";
  for (std::size_t i = 0; i < n; ++i) {
    const RunManifest& m = runs[i].manifest;
    std::string cores = "-";
    std::string rss = "-";
    if (const Json* host = m.extra.find("host")) {
      if (const Json* c = host->find("cores"); c && c->is_number()) {
        cores = fmt_value(c->as_number());
      }
      if (const Json* r = host->find("peak_rss_bytes");
          r && r->is_number()) {
        rss = fmt_value(r->as_number() / (1024.0 * 1024.0));
      }
    }
    html += "<tr><td>" + std::to_string(i) + "</td><td class=\"name\">" +
            xml_escape(runs[i].label) + "</td><td class=\"name\">" +
            xml_escape(m.subcommand) + "</td><td>" +
            std::to_string(m.threads) + "</td><td>" +
            xml_escape(fmt_value(m.wall_s)) + "</td><td>" +
            std::to_string(m.exit_code) + "</td><td>" +
            xml_escape(cores) + "</td><td>" + xml_escape(rss) +
            "</td></tr>\n";
  }
  html += "</table>\n</section>\n</body>\n</html>\n";
  return html;
}

}  // namespace fp::obs
