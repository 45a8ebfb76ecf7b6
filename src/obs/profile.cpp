#include "obs/profile.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "util/error.h"
#include "util/strings.h"

namespace fp::obs {

namespace {

/// Pulls the events out of one parsed trace document. Chrome accepts two
/// top-level shapes: {"traceEvents":[...]} and a bare event array.
const std::vector<Json>* event_array(const Json& doc) {
  if (doc.is_array()) return &doc.items();
  if (doc.is_object()) {
    if (const Json* events = doc.find("traceEvents")) {
      if (events->is_array()) return &events->items();
    }
  }
  return nullptr;
}

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

/// An open "B" event waiting for its "E" partner.
struct OpenSpan {
  std::string name;
  std::string category;
  std::uint64_t start_us = 0;
};

/// Folds one event object into the trace under construction. Begin/end
/// stacks are keyed (pid, tid): two processes in a merged farm trace may
/// both use tid 0.
struct EventFolder {
  ChromeTrace& trace;
  std::map<std::pair<int, int>, std::vector<OpenSpan>>& open;
  std::uint64_t& max_ts;
  std::size_t& unmatched_ends;

  void fold(const Json& event) {
    if (!event.is_object()) return;
    const std::string ph = string_or(event, "ph", "");
    const int pid = static_cast<int>(number_or(event, "pid", 1.0));
    const int tid = static_cast<int>(number_or(event, "tid", 0.0));
    const auto ts = static_cast<std::uint64_t>(
        std::max(0.0, number_or(event, "ts", 0.0)));
    max_ts = std::max(max_ts, ts);
    if (ph == "X") {
      ProfileSpan span;
      span.name = string_or(event, "name", "(unnamed)");
      span.category = string_or(event, "cat", "");
      span.start_us = ts;
      span.duration_us = static_cast<std::uint64_t>(
          std::max(0.0, number_or(event, "dur", 0.0)));
      span.process_id = pid;
      span.thread_id = tid;
      if (const Json* args = event.find("args")) {
        span.depth = static_cast<int>(number_or(*args, "depth", -1.0));
      }
      max_ts = std::max(max_ts, span.start_us + span.duration_us);
      trace.spans.push_back(std::move(span));
    } else if (ph == "B") {
      open[{pid, tid}].push_back(
          OpenSpan{string_or(event, "name", "(unnamed)"),
                   string_or(event, "cat", ""), ts});
    } else if (ph == "E") {
      auto it = open.find({pid, tid});
      if (it == open.end() || it->second.empty()) {
        ++unmatched_ends;
        return;
      }
      OpenSpan begin = std::move(it->second.back());
      it->second.pop_back();
      ProfileSpan span;
      span.name = std::move(begin.name);
      span.category = std::move(begin.category);
      span.start_us = begin.start_us;
      span.duration_us = ts >= begin.start_us ? ts - begin.start_us : 0;
      span.process_id = pid;
      span.thread_id = tid;
      trace.spans.push_back(std::move(span));
    } else if (ph == "C") {
      CounterSample counter;
      counter.name = string_or(event, "name", "(unnamed)");
      counter.time_us = ts;
      counter.process_id = pid;
      counter.thread_id = tid;
      if (const Json* args = event.find("args")) {
        if (args->is_object()) {
          for (const auto& [key, value] : args->fields()) {
            if (value.is_number()) {
              counter.values.emplace_back(key, value.as_number());
            }
          }
        }
      }
      trace.counters.push_back(std::move(counter));
    } else if (ph == "M") {
      const std::string name = string_or(event, "name", "");
      const Json* args = event.find("args");
      if (args == nullptr) return;
      if (name == "thread_name") {
        trace.thread_names[{pid, tid}] = string_or(*args, "name", "");
      } else if (name == "process_name") {
        trace.process_names[pid] = string_or(*args, "name", "");
      } else if (name == "process_sort_index") {
        trace.process_sort_indices[pid] =
            static_cast<int>(number_or(*args, "sort_index", 0.0));
      }
    }
  }
};

}  // namespace

ChromeTrace parse_chrome_trace(std::string_view text) {
  ChromeTrace trace;
  std::map<std::pair<int, int>, std::vector<OpenSpan>> open;
  std::uint64_t max_ts = 0;
  std::size_t unmatched_ends = 0;
  EventFolder folder{trace, open, max_ts, unmatched_ends};

  const Json doc = json_parse(text);
  if (doc.is_object()) {
    if (const Json* other = doc.find("otherData")) {
      if (other->is_object()) {
        trace.trace_id = string_or(*other, "trace_id", "");
      }
    }
  }
  const std::vector<Json>* events = event_array(doc);
  require(events != nullptr,
          "parse_chrome_trace: no traceEvents array in the document");
  for (const Json& event : *events) folder.fold(event);

  // Close any span whose "E" never arrived (killed run) at the last seen
  // timestamp: the time was genuinely spent, only the close was lost.
  std::size_t unclosed = 0;
  for (auto& [key, stack] : open) {
    while (!stack.empty()) {
      OpenSpan begin = std::move(stack.back());
      stack.pop_back();
      ProfileSpan span;
      span.name = std::move(begin.name);
      span.category = std::move(begin.category);
      span.start_us = begin.start_us;
      span.duration_us =
          max_ts >= begin.start_us ? max_ts - begin.start_us : 0;
      span.process_id = key.first;
      span.thread_id = key.second;
      trace.spans.push_back(std::move(span));
      ++unclosed;
    }
  }
  if (unclosed > 0) {
    trace.notes.push_back(std::to_string(unclosed) +
                          " unclosed span(s) closed at the last recorded "
                          "timestamp");
  }
  if (unmatched_ends > 0) {
    trace.notes.push_back(std::to_string(unmatched_ends) +
                          " end event(s) without a matching begin ignored");
  }
  return trace;
}

ChromeTrace load_chrome_trace(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) {
    throw IoError("load_chrome_trace: cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return parse_chrome_trace(buffer.str());
}

namespace {

/// Resolves nesting by interval containment per (process, thread); fills
/// each span's depth (when the trace did not record one) and returns, per
/// span, the total duration of its direct children (for self-time
/// subtraction).
std::vector<double> resolve_nesting(std::vector<ProfileSpan>& spans) {
  std::sort(spans.begin(), spans.end(), layout_less);
  std::vector<double> child_us(spans.size(), 0.0);
  std::vector<std::size_t> stack;  // indices of open ancestors
  std::pair<int, int> current{-1, -1};
  for (std::size_t i = 0; i < spans.size(); ++i) {
    ProfileSpan& span = spans[i];
    if (std::pair<int, int>{span.process_id, span.thread_id} != current) {
      current = {span.process_id, span.thread_id};
      stack.clear();
    }
    const auto ends = [&](std::size_t j) {
      return spans[j].start_us + spans[j].duration_us;
    };
    while (!stack.empty() && ends(stack.back()) <= span.start_us) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      child_us[stack.back()] += static_cast<double>(span.duration_us);
    }
    span.depth = static_cast<int>(stack.size());
    stack.push_back(i);
  }
  return child_us;
}

std::string format_ms(double us) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", us / 1e3);
  return buf;
}

/// Deterministic category color (FNV-1a into a small fixed palette;
/// std::hash is not stable across implementations).
std::string_view category_color(std::string_view category) {
  static constexpr std::string_view kPalette[] = {
      "#4e79a7", "#f28e2b", "#59a14f", "#e15759",
      "#76b7b2", "#edc948", "#b07aa1", "#9c755f",
  };
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : category) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return kPalette[hash % (sizeof(kPalette) / sizeof(kPalette[0]))];
}

}  // namespace

TraceProfile profile_trace(const ChromeTrace& trace) {
  TraceProfile profile;
  profile.notes = trace.notes;
  profile.span_count = trace.spans.size();
  profile.thread_names = trace.thread_names;

  profile.spans = trace.spans;
  std::vector<ProfileSpan>& spans = profile.spans;
  const std::vector<double> child_us = resolve_nesting(spans);

  std::map<std::string, ProfileEntry> by_name;
  std::map<std::pair<int, int>, bool> threads;
  std::map<int, ProcessEntry> by_process;
  // Labeled-but-idle processes (e.g. a worker that crashed before its
  // first span) still get an attribution row.
  for (const auto& [pid, name] : trace.process_names) {
    ProcessEntry& entry = by_process[pid];
    entry.process_id = pid;
    entry.name = name;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const ProfileSpan& span = spans[i];
    threads[{span.process_id, span.thread_id}] = true;
    const auto duration = static_cast<double>(span.duration_us);
    // A child can outlive its parent in a repaired or external trace;
    // clamp so self time never goes negative.
    const double self = std::max(0.0, duration - child_us[i]);
    ProcessEntry& process = by_process[span.process_id];
    process.process_id = span.process_id;
    ++process.span_count;
    if (span.depth == 0) {
      profile.root_total_us += duration;
      process.total_us += duration;
    }
    auto [it, fresh] = by_name.emplace(span.name, ProfileEntry{});
    ProfileEntry& entry = it->second;
    if (fresh) {
      entry.name = span.name;
      entry.category = span.category;
      entry.min_us = duration;
      entry.max_us = duration;
    }
    ++entry.count;
    entry.total_us += duration;
    entry.self_us += self;
    entry.min_us = std::min(entry.min_us, duration);
    entry.max_us = std::max(entry.max_us, duration);
  }
  profile.thread_count = static_cast<int>(threads.size());
  profile.process_count = static_cast<int>(by_process.size());
  profile.processes.reserve(by_process.size());
  for (auto& [pid, entry] : by_process) {
    profile.processes.push_back(std::move(entry));
  }
  profile.entries.reserve(by_name.size());
  for (auto& [name, entry] : by_name) {
    profile.entries.push_back(std::move(entry));
  }
  std::sort(profile.entries.begin(), profile.entries.end(),
            [](const ProfileEntry& a, const ProfileEntry& b) {
              if (a.self_us != b.self_us) return a.self_us > b.self_us;
              return a.name < b.name;
            });
  return profile;
}

std::string TraceProfile::to_text() const {
  std::string out;
  char buf[200];
  std::snprintf(buf, sizeof(buf),
                "%zu span(s) on %d thread(s), %.3f ms traced\n", span_count,
                thread_count, root_total_us / 1e3);
  out += buf;
  // Merged farm traces: break the total down per process lane.
  if (process_count > 1) {
    std::snprintf(buf, sizeof(buf), "%d process(es):\n", process_count);
    out += buf;
    for (const ProcessEntry& process : processes) {
      std::string label = process.name.empty()
                              ? "pid " + std::to_string(process.process_id)
                              : process.name;
      std::snprintf(buf, sizeof(buf), "  %-28s %8lld span(s) %12s ms\n",
                    label.c_str(), process.span_count,
                    format_ms(process.total_us).c_str());
      out += buf;
    }
  }
  for (const std::string& note : notes) {
    out += "note: " + note + "\n";
  }
  std::snprintf(buf, sizeof(buf), "  %-28s %8s %12s %12s %12s %12s\n",
                "name", "count", "self(ms)", "total(ms)", "min(ms)",
                "max(ms)");
  out += buf;
  for (const ProfileEntry& entry : entries) {
    std::snprintf(buf, sizeof(buf), "  %-28s %8lld %12s %12s %12s %12s\n",
                  entry.name.c_str(), entry.count,
                  format_ms(entry.self_us).c_str(),
                  format_ms(entry.total_us).c_str(),
                  format_ms(entry.min_us).c_str(),
                  format_ms(entry.max_us).c_str());
    out += buf;
  }
  return out;
}

Json TraceProfile::to_json() const {
  Json doc = Json::object();
  doc.set("schema", Json::string("fpkit.profile.v1"));
  doc.set("span_count",
          Json::number(static_cast<long long>(span_count)));
  doc.set("thread_count",
          Json::number(static_cast<long long>(thread_count)));
  doc.set("process_count",
          Json::number(static_cast<long long>(process_count)));
  doc.set("root_total_us", Json::number(root_total_us));
  Json process_list = Json::array();
  for (const ProcessEntry& process : processes) {
    Json row = Json::object();
    row.set("pid", Json::number(static_cast<long long>(process.process_id)));
    row.set("name", Json::string(process.name));
    row.set("span_count", Json::number(process.span_count));
    row.set("total_us", Json::number(process.total_us));
    process_list.push(std::move(row));
  }
  doc.set("processes", std::move(process_list));
  Json note_list = Json::array();
  for (const std::string& note : notes) {
    note_list.push(Json::string(note));
  }
  doc.set("notes", std::move(note_list));
  Json entry_list = Json::array();
  for (const ProfileEntry& entry : entries) {
    Json row = Json::object();
    row.set("name", Json::string(entry.name));
    row.set("category", Json::string(entry.category));
    row.set("count", Json::number(entry.count));
    row.set("total_us", Json::number(entry.total_us));
    row.set("self_us", Json::number(entry.self_us));
    row.set("min_us", Json::number(entry.min_us));
    row.set("max_us", Json::number(entry.max_us));
    entry_list.push(std::move(row));
  }
  doc.set("entries", std::move(entry_list));
  return doc;
}

std::string TraceProfile::to_flame_svg() const {
  // Layout: one band per thread, one row per nesting depth inside the
  // band, span x/width proportional to its [start, start+dur] interval
  // within the trace's overall time range. fp_obs sits below the io
  // layer, so the SVG is emitted directly rather than via io/svg.h.
  constexpr double kWidth = 1000.0;
  constexpr double kRowH = 18.0;
  constexpr double kBandGap = 26.0;  // room for the thread label
  constexpr double kMargin = 8.0;

  std::uint64_t min_ts = UINT64_MAX;
  std::uint64_t max_ts = 0;
  // (pid, tid) -> max depth + 1; map order puts the supervisor band (the
  // lowest pid under the farm's lane scheme) on top, workers below it.
  std::map<std::pair<int, int>, int> band_rows;
  for (const ProfileSpan& span : spans) {
    min_ts = std::min(min_ts, span.start_us);
    max_ts = std::max(max_ts, span.start_us + span.duration_us);
    int& rows = band_rows[{span.process_id, span.thread_id}];
    rows = std::max(rows, span.depth + 1);
  }
  if (spans.empty()) {
    return "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"400\" "
           "height=\"40\"><text x=\"8\" y=\"24\" "
           "font-family=\"monospace\" font-size=\"12\">empty "
           "trace</text></svg>\n";
  }
  const double span_us =
      std::max<double>(1.0, static_cast<double>(max_ts - min_ts));
  const double scale = kWidth / span_us;

  std::map<std::pair<int, int>, double> band_top;  // y of the band's row 0
  double height = kMargin;
  for (const auto& [key, rows] : band_rows) {
    height += kBandGap;
    band_top[key] = height;
    height += rows * kRowH + kMargin;
  }
  const bool multi_process = processes.size() > 1;
  const auto process_label = [&](int pid) -> std::string {
    for (const ProcessEntry& process : processes) {
      if (process.process_id == pid && !process.name.empty()) {
        return process.name;
      }
    }
    return "pid " + std::to_string(pid);
  };

  std::string svg;
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"%.0f\" "
                "height=\"%.0f\" font-family=\"monospace\" "
                "font-size=\"11\">\n",
                kWidth + 2 * kMargin, height);
  svg += buf;
  for (const auto& [key, top] : band_top) {
    std::string label;
    if (multi_process) {
      label += process_label(key.first);
      label += " / ";
    }
    label += "thread " + std::to_string(key.second);
    auto named = thread_names.find(key);
    if (named != thread_names.end() && !named->second.empty()) {
      label += " (";
      label += named->second;
      label += ")";
    }
    std::snprintf(buf, sizeof(buf),
                  "<text x=\"%.1f\" y=\"%.1f\" font-weight=\"bold\">",
                  kMargin, top - 8.0);
    svg += buf;
    xml_escape_into(svg, label);
    svg += "</text>\n";
  }
  for (const ProfileSpan& span : spans) {
    const double x =
        kMargin + static_cast<double>(span.start_us - min_ts) * scale;
    const double w = std::max(
        0.5, static_cast<double>(span.duration_us) * scale);
    const double y =
        band_top[{span.process_id, span.thread_id}] + span.depth * kRowH;
    std::snprintf(buf, sizeof(buf),
                  "<rect x=\"%.2f\" y=\"%.1f\" width=\"%.2f\" "
                  "height=\"%.1f\" fill=\"%s\" stroke=\"#ffffff\" "
                  "stroke-width=\"0.5\">",
                  x, y, w, kRowH - 1.0,
                  std::string(category_color(span.category)).c_str());
    svg += buf;
    svg += "<title>";
    xml_escape_into(svg, span.name);
    std::snprintf(buf, sizeof(buf), " %s ms</title></rect>\n",
                  format_ms(static_cast<double>(span.duration_us)).c_str());
    svg += buf;
    // Label spans wide enough to hold a few characters.
    if (w > 48.0) {
      std::snprintf(buf, sizeof(buf), "<text x=\"%.2f\" y=\"%.1f\" "
                    "fill=\"#ffffff\">",
                    x + 3.0, y + kRowH - 6.0);
      svg += buf;
      const std::size_t fit = static_cast<std::size_t>(w / 7.0);
      xml_escape_into(svg, span.name.size() > fit
                               ? std::string_view(span.name).substr(0, fit)
                               : std::string_view(span.name));
      svg += "</text>\n";
    }
  }
  svg += "</svg>\n";
  return svg;
}

}  // namespace fp::obs
