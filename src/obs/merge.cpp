#include "obs/merge.h"

#include <algorithm>
#include <cstddef>
#include <map>
#include <utility>

#include "util/error.h"

namespace fp::obs {

namespace {

/// 2^64 - 1 as a double: the rollup's counter saturation point. Doubles
/// cannot represent every integer this large, but a counter anywhere
/// near it is already saturated for reporting purposes.
constexpr double kCounterMax = 18446744073709551615.0;

double number_or(const Json& object, std::string_view key, double fallback) {
  const Json* value = object.find(key);
  return value != nullptr && value->is_number() ? value->as_number()
                                                : fallback;
}

std::string string_or(const Json& object, std::string_view key,
                      std::string fallback) {
  const Json* value = object.find(key);
  return value != nullptr && value->is_string() ? value->as_string()
                                                : std::move(fallback);
}

}  // namespace

Json trace_index_to_json(const TraceIndex& index) {
  Json doc = Json::object();
  doc.set("schema", Json::string("fpkit.traceindex.v1"));
  doc.set("trace_id", Json::string(index.trace_id));
  Json parts = Json::array();
  for (const TracePart& part : index.parts) {
    Json row = Json::object();
    row.set("file", Json::string(part.file));
    row.set("name", Json::string(part.name));
    row.set("pid", Json::number(static_cast<long long>(part.pid)));
    row.set("sort_index",
            Json::number(static_cast<long long>(part.sort_index)));
    row.set("offset_us",
            Json::number(static_cast<double>(part.offset_us)));
    parts.push(std::move(row));
  }
  doc.set("parts", std::move(parts));
  return doc;
}

TraceIndex trace_index_from_json(const Json& doc) {
  require(doc.is_object(), "trace index: document is not an object");
  const std::string schema = string_or(doc, "schema", "");
  require(schema == "fpkit.traceindex.v1",
          "trace index: unsupported schema '" + schema + "'");
  TraceIndex index;
  index.trace_id = string_or(doc, "trace_id", "");
  const Json* parts = doc.find("parts");
  require(parts != nullptr && parts->is_array(),
          "trace index: missing parts array");
  for (const Json& row : parts->items()) {
    require(row.is_object(), "trace index: part entry is not an object");
    TracePart part;
    part.file = string_or(row, "file", "");
    require(!part.file.empty(), "trace index: part entry without a file");
    part.name = string_or(row, "name", "");
    part.pid = static_cast<int>(number_or(row, "pid", 1.0));
    part.sort_index = static_cast<int>(number_or(row, "sort_index", 0.0));
    part.offset_us = static_cast<std::uint64_t>(
        std::max(0.0, number_or(row, "offset_us", 0.0)));
    index.parts.push_back(std::move(part));
  }
  return index;
}

MergedTrace merge_traces(const TraceIndex& index,
                         const std::vector<ChromeTrace>& parts) {
  require(parts.size() == index.parts.size(),
          "merge_traces: " + std::to_string(parts.size()) +
              " part(s) for " + std::to_string(index.parts.size()) +
              " index entr(ies)");
  MergedTrace merged;
  ChromeTrace lanes;
  lanes.trace_id = index.trace_id;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    const TracePart& lane = index.parts[p];
    const ChromeTrace& part = parts[p];
    if (!part.trace_id.empty() && part.trace_id != index.trace_id) {
      merged.notes.push_back("part '" + lane.file + "': trace id '" +
                             part.trace_id +
                             "' differs from the index's '" +
                             index.trace_id + "'");
    }
    for (const std::string& note : part.notes) {
      merged.notes.push_back("part '" + lane.file + "': " + note);
    }
    // The part moves onto its lane: the lane's pid and label, its clock
    // shifted by the lane's offset. An empty part (worker killed
    // pre-write) still gets its labelled band.
    lanes.process_names[lane.pid] = lane.name;
    lanes.process_sort_indices[lane.pid] = lane.sort_index;
    for (const auto& [key, label] : part.thread_names) {
      lanes.thread_names[{lane.pid, key.second}] = label;
    }
    for (ProfileSpan span : part.spans) {
      span.process_id = lane.pid;
      span.start_us += lane.offset_us;
      lanes.spans.push_back(std::move(span));
    }
    for (CounterSample sample : part.counters) {
      sample.process_id = lane.pid;
      sample.time_us += lane.offset_us;
      lanes.counters.push_back(std::move(sample));
    }
  }
  merged.json = chrome_trace_json(lanes);
  return merged;
}

MergedTrace merge_trace_dir(const std::string& dir) {
  const TraceIndex index =
      trace_index_from_json(json_load(dir + "/index.json"));
  std::vector<ChromeTrace> parts;
  std::vector<std::string> load_notes;
  parts.reserve(index.parts.size());
  for (const TracePart& part : index.parts) {
    try {
      parts.push_back(load_chrome_trace(dir + "/" + part.file));
    } catch (const Error& error) {
      // The lane stays in the merged trace as an empty band; the note
      // says why it has no events.
      load_notes.push_back("part '" + part.file +
                           "' could not be loaded: " + error.what());
      parts.emplace_back();
    }
  }
  MergedTrace merged = merge_traces(index, parts);
  merged.notes.insert(merged.notes.begin(), load_notes.begin(),
                      load_notes.end());
  return merged;
}

namespace {

/// One histogram being accumulated across parts, with the source that
/// fixed its bucket layout (for the mismatch error message).
struct HistogramRollup {
  Json bounds = Json::array();
  std::vector<double> counts;
  double count = 0.0;
  double sum = 0.0;
  std::string source;
};

struct SeriesRollup {
  Json columns = Json::array();
  std::vector<Json> rows;
  std::string source;
};

const Json* object_section(const Json& doc, std::string_view key) {
  const Json* section = doc.find(key);
  return section != nullptr && section->is_object() ? section : nullptr;
}

}  // namespace

MergedMetrics merge_metrics(std::vector<MetricsPart> parts) {
  // Gauges are last-writer-wins, so order the parts by time; the stable
  // sort keeps the caller's order for ties (the farm passes jobs in
  // (job, attempt) order and its own snapshot last).
  std::stable_sort(parts.begin(), parts.end(),
                   [](const MetricsPart& a, const MetricsPart& b) {
                     return a.timestamp < b.timestamp;
                   });

  MergedMetrics merged;
  std::map<std::string, double> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramRollup> histograms;
  std::map<std::string, SeriesRollup> series;

  for (const MetricsPart& part : parts) {
    if (!part.doc.is_object()) {
      merged.notes.push_back("part '" + part.source +
                             "' is not a metrics object; skipped");
      continue;
    }
    if (const Json* section = object_section(part.doc, "counters")) {
      for (const auto& [name, value] : section->fields()) {
        if (!value.is_number()) continue;
        double& total = counters[name];
        total += value.as_number();
        if (total >= kCounterMax) {
          if (total > kCounterMax) {
            merged.notes.push_back("counter '" + name +
                                   "' saturated at 2^64-1");
          }
          total = kCounterMax;
        }
      }
    }
    if (const Json* section = object_section(part.doc, "gauges")) {
      for (const auto& [name, value] : section->fields()) {
        if (!value.is_number()) continue;
        gauges[name] = value.as_number();
      }
    }
    if (const Json* section = object_section(part.doc, "histograms")) {
      for (const auto& [name, value] : section->fields()) {
        if (!value.is_object()) continue;
        const Json* bounds = value.find("bounds");
        const Json* counts = value.find("counts");
        if (bounds == nullptr || !bounds->is_array() || counts == nullptr ||
            !counts->is_array()) {
          continue;
        }
        auto [it, fresh] = histograms.emplace(name, HistogramRollup{});
        HistogramRollup& rollup = it->second;
        if (fresh) {
          rollup.bounds = *bounds;
          rollup.counts.assign(counts->items().size(), 0.0);
          rollup.source = part.source;
        } else {
          // Bucket-wise addition only makes sense over one bucket
          // layout; merging "solver.iters<=[10,100]" with "<=[8,64]"
          // would fabricate a distribution, so refuse loudly.
          require(rollup.bounds.dump() == bounds->dump() &&
                      rollup.counts.size() == counts->items().size(),
                  "merge_metrics: histogram '" + name +
                      "' has mismatched bucket bounds between '" +
                      rollup.source + "' and '" + part.source + "'");
        }
        for (std::size_t i = 0; i < counts->items().size(); ++i) {
          const Json& bucket = counts->items()[i];
          if (bucket.is_number()) rollup.counts[i] += bucket.as_number();
        }
        rollup.count += number_or(value, "count", 0.0);
        rollup.sum += number_or(value, "sum", 0.0);
      }
    }
    if (const Json* section = object_section(part.doc, "series")) {
      for (const auto& [name, value] : section->fields()) {
        if (!value.is_object()) continue;
        const Json* columns = value.find("columns");
        const Json* rows = value.find("rows");
        if (columns == nullptr || !columns->is_array() || rows == nullptr ||
            !rows->is_array()) {
          continue;
        }
        auto [it, fresh] = series.emplace(name, SeriesRollup{});
        SeriesRollup& rollup = it->second;
        if (fresh) {
          rollup.columns = *columns;
          rollup.source = part.source;
        } else if (rollup.columns.dump() != columns->dump()) {
          merged.notes.push_back("series '" + name + "' in '" + part.source +
                                 "' has different columns than '" +
                                 rollup.source + "'; rows skipped");
          continue;
        }
        for (const Json& row : rows->items()) {
          rollup.rows.push_back(row);
        }
      }
    }
  }

  Json doc = Json::object();
  doc.set("schema", Json::string("fpkit.metrics.v1"));
  Json counter_obj = Json::object();
  for (const auto& [name, value] : counters) {
    counter_obj.set(name, Json::number(value));
  }
  doc.set("counters", std::move(counter_obj));
  Json gauge_obj = Json::object();
  for (const auto& [name, value] : gauges) {
    gauge_obj.set(name, Json::number(value));
  }
  doc.set("gauges", std::move(gauge_obj));
  Json histogram_obj = Json::object();
  for (auto& [name, rollup] : histograms) {
    Json row = Json::object();
    row.set("bounds", std::move(rollup.bounds));
    Json count_list = Json::array();
    for (const double bucket : rollup.counts) {
      count_list.push(Json::number(bucket));
    }
    row.set("counts", std::move(count_list));
    row.set("count", Json::number(rollup.count));
    row.set("sum", Json::number(rollup.sum));
    histogram_obj.set(name, std::move(row));
  }
  doc.set("histograms", std::move(histogram_obj));
  Json series_obj = Json::object();
  for (auto& [name, rollup] : series) {
    Json row = Json::object();
    row.set("columns", std::move(rollup.columns));
    Json row_list = Json::array();
    for (Json& sample : rollup.rows) {
      row_list.push(std::move(sample));
    }
    row.set("rows", std::move(row_list));
    series_obj.set(name, std::move(row));
  }
  doc.set("series", std::move(series_obj));
  merged.doc = std::move(doc);
  return merged;
}

}  // namespace fp::obs
