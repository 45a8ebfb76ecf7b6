#include "obs/metrics.h"

#include <algorithm>

#include "obs/json.h"
#include "util/error.h"
#include "util/file.h"

namespace fp::obs {

namespace detail {
std::atomic<bool> g_metrics{false};
}  // namespace detail

double HistogramSnapshot::quantile(double q) const {
  if (count == 0 || counts.empty() || bounds.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  // Rank of the q-th sample (1-based), then walk the cumulative counts.
  const double rank = q * static_cast<double>(count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    const auto in_bucket = static_cast<double>(counts[i]);
    if (in_bucket == 0.0) continue;
    if (cumulative + in_bucket >= rank) {
      // The overflow bucket is unbounded above; clamp to the last bound.
      if (i >= bounds.size()) return bounds.back();
      const double lower = i == 0 ? 0.0 : bounds[i - 1];
      const double upper = bounds[i];
      const double within = std::max(0.0, rank - cumulative) / in_bucket;
      return lower + (upper - lower) * within;
    }
    cumulative += in_bucket;
  }
  return bounds.back();
}

void set_metrics_enabled(bool on) {
  detail::g_metrics.store(on, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry instance;
  return instance;
}

void MetricsRegistry::add(std::string_view counter, long long delta) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(counter);
  if (it == counters_.end()) {
    counters_.emplace(std::string(counter), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::set(std::string_view gauge, double value) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(gauge);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(gauge), value);
  } else {
    it->second = value;
  }
}

void MetricsRegistry::observe(std::string_view histogram, double value,
                              const std::vector<double>& bounds) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(histogram);
  if (it == histograms_.end()) {
    require(!bounds.empty(),
            "MetricsRegistry::observe: first use must fix the buckets");
    require(std::is_sorted(bounds.begin(), bounds.end()),
            "MetricsRegistry::observe: bucket bounds must ascend");
    HistogramSnapshot fresh;
    fresh.bounds = bounds;
    fresh.counts.assign(bounds.size() + 1, 0);
    it = histograms_.emplace(std::string(histogram), std::move(fresh)).first;
  } else {
    require(bounds.empty() || bounds == it->second.bounds,
            "MetricsRegistry::observe: bucket bounds changed between calls");
  }
  HistogramSnapshot& h = it->second;
  const auto bucket = static_cast<std::size_t>(
      std::lower_bound(h.bounds.begin(), h.bounds.end(), value) -
      h.bounds.begin());
  ++h.counts[bucket];
  ++h.count;
  h.sum += value;
}

void MetricsRegistry::append(std::string_view series,
                             const std::vector<std::string>& columns,
                             const std::vector<double>& row) {
  const std::lock_guard<std::mutex> lock(mutex_);
  auto it = series_.find(series);
  if (it == series_.end()) {
    require(!columns.empty(),
            "MetricsRegistry::append: first use must name the columns");
    SeriesSnapshot fresh;
    fresh.columns = columns;
    it = series_.emplace(std::string(series), std::move(fresh)).first;
  } else {
    require(columns.empty() || columns == it->second.columns,
            "MetricsRegistry::append: column layout changed between calls");
  }
  require(row.size() == it->second.columns.size(),
          "MetricsRegistry::append: row width differs from the columns");
  it->second.rows.push_back(row);
}

std::optional<long long> MetricsRegistry::counter_value(
    std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  if (it == counters_.end()) return std::nullopt;
  return it->second;
}

std::optional<double> MetricsRegistry::gauge_value(
    std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  if (it == gauges_.end()) return std::nullopt;
  return it->second;
}

std::map<std::string, long long> MetricsRegistry::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {counters_.begin(), counters_.end()};
}

std::map<std::string, double> MetricsRegistry::gauges() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return {gauges_.begin(), gauges_.end()};
}

std::optional<HistogramSnapshot> MetricsRegistry::histogram(
    std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  if (it == histograms_.end()) return std::nullopt;
  return it->second;
}

std::optional<SeriesSnapshot> MetricsRegistry::series(
    std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = series_.find(name);
  if (it == series_.end()) return std::nullopt;
  return it->second;
}

std::string MetricsRegistry::to_json() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{\"schema\":\"fpkit.metrics.v1\",\"counters\":{";
  bool first = true;
  const auto key = [&](const std::string& name) {
    if (!first) out += ',';
    first = false;
    json_append_quoted(out, name);
    out += ':';
  };
  for (const auto& [name, value] : counters_) {
    key(name);
    out += std::to_string(value);
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : gauges_) {
    key(name);
    json_append_number(out, value);
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    key(name);
    out += "{\"bounds\":[";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i) out += ',';
      json_append_number(out, h.bounds[i]);
    }
    out += "],\"counts\":[";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(h.counts[i]);
    }
    out += "],\"count\":" + std::to_string(h.count) + ",\"sum\":";
    json_append_number(out, h.sum);
    out += '}';
  }
  out += "},\"series\":{";
  first = true;
  for (const auto& [name, s] : series_) {
    key(name);
    out += "{\"columns\":[";
    for (std::size_t i = 0; i < s.columns.size(); ++i) {
      if (i) out += ',';
      json_append_quoted(out, s.columns[i]);
    }
    out += "],\"rows\":[";
    for (std::size_t r = 0; r < s.rows.size(); ++r) {
      if (r) out += ',';
      out += '[';
      for (std::size_t c = 0; c < s.rows[r].size(); ++c) {
        if (c) out += ',';
        json_append_number(out, s.rows[r][c]);
      }
      out += ']';
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

void MetricsRegistry::save(const std::string& path) const {
  write_file_atomic(path, to_json());
}

void MetricsRegistry::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
  series_.clear();
}

void count(std::string_view counter, long long delta) {
  if (!metrics_enabled()) return;
  MetricsRegistry::global().add(counter, delta);
}

void gauge(std::string_view name, double value) {
  if (!metrics_enabled()) return;
  MetricsRegistry::global().set(name, value);
}

void observe(std::string_view histogram, double value,
             const std::vector<double>& bounds) {
  if (!metrics_enabled()) return;
  MetricsRegistry::global().observe(histogram, value, bounds);
}

void sample(std::string_view series, const std::vector<std::string>& columns,
            const std::vector<double>& row) {
  if (!metrics_enabled()) return;
  MetricsRegistry::global().append(series, columns, row);
}

}  // namespace fp::obs
