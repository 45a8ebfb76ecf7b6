#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <mutex>

#include "obs/json.h"
#include "util/error.h"
#include "util/file.h"

namespace fp::obs {

namespace detail {
std::atomic<bool> g_tracing{false};
}  // namespace detail

namespace {

struct TraceStore {
  std::mutex mutex;
  std::vector<SpanRecord> spans;
  std::vector<CounterRecord> counters;
  // thread id -> label; deliberately not cleared by reset_trace().
  std::map<int, std::string> thread_names;
  // Cross-process identity; like the thread names it survives
  // reset_trace() so a long-lived worker keeps its lane.
  TraceProcess process;
};

// Never destroyed: exec-pool workers may still name their thread or
// record a span while static destructors run at exit.
TraceStore& store() {
  static TraceStore* const instance = new TraceStore;
  return *instance;
}

/// Microseconds since the process-wide trace epoch (first use).
std::uint64_t now_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            epoch)
          .count());
}

/// Small sequential id per thread (0 = first thread to record).
int thread_id() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

int& thread_depth() {
  thread_local int depth = 0;
  return depth;
}

}  // namespace

void set_tracing_enabled(bool on) {
  detail::g_tracing.store(on, std::memory_order_relaxed);
}

void set_trace_process(TraceProcess process) {
  TraceStore& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.process = std::move(process);
}

TraceProcess trace_process() {
  TraceStore& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.process;
}

bool apply_trace_parent(std::string_view parent) {
  // "<trace-id>:<lane>[:<name>]", lane >= 1. The name may itself contain
  // colons (job labels are free-form), so only the first two fields are
  // split off.
  const std::size_t first = parent.find(':');
  if (first == std::string_view::npos || first == 0) return false;
  const std::string_view rest = parent.substr(first + 1);
  const std::size_t second = rest.find(':');
  const std::string_view lane_text =
      second == std::string_view::npos ? rest : rest.substr(0, second);
  if (lane_text.empty()) return false;
  int lane = 0;
  for (const char c : lane_text) {
    if (c < '0' || c > '9') return false;
    lane = lane * 10 + (c - '0');
    if (lane > 1000000) return false;
  }
  if (lane < 1) return false;
  TraceProcess process;
  process.trace_id.assign(parent.substr(0, first));
  process.pid = lane + 1;
  process.sort_index = lane;
  if (second != std::string_view::npos) {
    process.name.assign(rest.substr(second + 1));
  }
  set_trace_process(std::move(process));
  return true;
}

std::uint64_t trace_now_us() { return now_us(); }

ScopedSpan::ScopedSpan(std::string_view name, std::string_view category) {
  if (!tracing_enabled()) return;
  active_ = true;
  name_.assign(name);
  category_.assign(category);
  start_us_ = now_us();
  ++thread_depth();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  const std::uint64_t end = now_us();
  const int depth = --thread_depth();
  SpanRecord record;
  record.name = std::move(name_);
  record.category = std::move(category_);
  record.start_us = start_us_;
  record.duration_us = end - start_us_;
  record.thread_id = thread_id();
  record.depth = depth;
  TraceStore& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.spans.push_back(std::move(record));
}

void counter(std::string_view name,
             std::initializer_list<std::pair<std::string_view, double>>
                 values) {
  if (!tracing_enabled()) return;
  CounterRecord record;
  record.name.assign(name);
  record.values.reserve(values.size());
  for (const auto& [key, value] : values) {
    record.values.emplace_back(std::string(key), value);
  }
  record.time_us = now_us();
  record.thread_id = thread_id();
  TraceStore& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.counters.push_back(std::move(record));
}

void set_thread_name(std::string_view name) {
  TraceStore& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.thread_names[thread_id()] = std::string(name);
}

std::vector<std::pair<int, std::string>> thread_names() {
  TraceStore& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  return {s.thread_names.begin(), s.thread_names.end()};
}

std::vector<SpanRecord> trace_spans() {
  TraceStore& s = store();
  std::vector<SpanRecord> spans;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    spans = s.spans;
  }
  std::sort(spans.begin(), spans.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              if (a.thread_id != b.thread_id) return a.thread_id < b.thread_id;
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              return a.depth < b.depth;
            });
  return spans;
}

std::vector<CounterRecord> trace_counters() {
  TraceStore& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  return s.counters;
}

std::string trace_to_json() {
  const std::vector<SpanRecord> spans = trace_spans();
  const std::vector<CounterRecord> counters = trace_counters();
  const std::vector<std::pair<int, std::string>> names = thread_names();
  const TraceProcess process = trace_process();
  // A default identity emits the historical single-process document byte
  // for byte: pid 1, no process metadata, no otherData block.
  const bool stamped = process.pid != 1 || process.sort_index != 0 ||
                       !process.name.empty() || !process.trace_id.empty();
  const std::string pid = std::to_string(process.pid);
  std::string out = "{\"displayTimeUnit\":\"ms\",";
  if (!process.trace_id.empty()) {
    out += "\"otherData\":{\"trace_id\":";
    json_append_quoted(out, process.trace_id);
    out += "},";
  }
  out += "\"traceEvents\":[";
  bool first = true;
  const auto comma = [&]() {
    if (!first) out += ",";
    first = false;
  };
  // Process metadata first (when stamped), then thread-name metadata, so
  // viewers label every track before the first real event: main thread,
  // exec workers, SA replicas, batch jobs, farm worker processes.
  if (stamped) {
    comma();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + pid +
           ",\"tid\":0,\"args\":{\"name\":";
    json_append_quoted(out, process.name);
    out += "}}";
    comma();
    out += "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":" + pid +
           ",\"tid\":0,\"args\":{\"sort_index\":" +
           std::to_string(process.sort_index) + "}}";
  }
  for (const auto& [tid, label] : names) {
    comma();
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" + pid +
           ",\"tid\":" + std::to_string(tid) + ",\"args\":{\"name\":";
    json_append_quoted(out, label);
    out += "}}";
  }
  for (const SpanRecord& span : spans) {
    comma();
    out += "{\"name\":";
    json_append_quoted(out, span.name);
    out += ",\"cat\":";
    json_append_quoted(out, span.category);
    out += ",\"ph\":\"X\",\"ts\":" + std::to_string(span.start_us) +
           ",\"dur\":" + std::to_string(span.duration_us) + ",\"pid\":" +
           pid + ",\"tid\":" + std::to_string(span.thread_id) +
           ",\"args\":{\"depth\":" + std::to_string(span.depth) + "}}";
  }
  for (const CounterRecord& record : counters) {
    comma();
    out += "{\"name\":";
    json_append_quoted(out, record.name);
    out += ",\"ph\":\"C\",\"ts\":" + std::to_string(record.time_us) +
           ",\"pid\":" + pid + ",\"tid\":" +
           std::to_string(record.thread_id) + ",\"args\":{";
    for (std::size_t i = 0; i < record.values.size(); ++i) {
      if (i) out += ",";
      json_append_quoted(out, record.values[i].first);
      out += ':';
      json_append_number(out, record.values[i].second);
    }
    out += "}}";
  }
  out += "]}";
  return out;
}

std::string trace_to_text() {
  const std::vector<SpanRecord> spans = trace_spans();
  std::string out;
  int current_thread = -1;
  for (const SpanRecord& span : spans) {
    if (span.thread_id != current_thread) {
      current_thread = span.thread_id;
      out += "thread " + std::to_string(current_thread) + "\n";
    }
    out.append(static_cast<std::size_t>(2 * (span.depth + 1)), ' ');
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f ms",
                  static_cast<double>(span.duration_us) / 1e3);
    out += span.name + " [" + span.category + "] " + buf + "\n";
  }
  return out;
}

void save_trace(const std::string& path) {
  write_file_atomic(path, trace_to_json());
}

void reset_trace() {
  TraceStore& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  s.spans.clear();
  s.counters.clear();
}

}  // namespace fp::obs
