#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <map>
#include <mutex>
#include <set>

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
  std::vector<ProfileSpan> spans;
  std::vector<CounterSample> counters;
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
  ProfileSpan record;
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
  CounterSample record;
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

std::vector<ProfileSpan> trace_spans() {
  TraceStore& s = store();
  std::vector<ProfileSpan> spans;
  {
    const std::lock_guard<std::mutex> lock(s.mutex);
    spans = s.spans;
    for (ProfileSpan& span : spans) span.process_id = s.process.pid;
  }
  std::sort(spans.begin(), spans.end(), layout_less);
  return spans;
}

std::vector<CounterSample> trace_counters() {
  TraceStore& s = store();
  const std::lock_guard<std::mutex> lock(s.mutex);
  std::vector<CounterSample> counters = s.counters;
  for (CounterSample& sample : counters) sample.process_id = s.process.pid;
  return counters;
}

bool layout_less(const ProfileSpan& a, const ProfileSpan& b) {
  if (a.process_id != b.process_id) return a.process_id < b.process_id;
  if (a.thread_id != b.thread_id) return a.thread_id < b.thread_id;
  if (a.start_us != b.start_us) return a.start_us < b.start_us;
  if (a.duration_us != b.duration_us) return a.duration_us > b.duration_us;
  return a.depth < b.depth;
}

std::string chrome_trace_json(const ChromeTrace& trace) {
  std::vector<ProfileSpan> spans = trace.spans;
  std::stable_sort(spans.begin(), spans.end(), layout_less);
  std::vector<CounterSample> counters = trace.counters;
  std::stable_sort(counters.begin(), counters.end(),
                   [](const CounterSample& a, const CounterSample& b) {
                     return a.process_id < b.process_id;
                   });
  std::set<int> pids;
  for (const auto& [pid, name] : trace.process_names) pids.insert(pid);
  for (const auto& [key, label] : trace.thread_names) pids.insert(key.first);
  for (const ProfileSpan& span : spans) pids.insert(span.process_id);
  for (const CounterSample& sample : counters) pids.insert(sample.process_id);

  std::string out = "{\"displayTimeUnit\":\"ms\",";
  if (!trace.trace_id.empty()) {
    out += "\"otherData\":{\"trace_id\":";
    json_append_quoted(out, trace.trace_id);
    out += "},";
  }
  out += "\"traceEvents\":[";
  bool first = true;
  const auto comma = [&]() {
    if (!first) out += ",";
    first = false;
  };
  auto span = spans.begin();
  auto sample = counters.begin();
  for (const int pid : pids) {
    const std::string pid_text = std::to_string(pid);
    // Process metadata, then thread names, so viewers label every track
    // before its first event: main thread, exec workers, SA replicas,
    // batch jobs, farm worker processes.
    if (const auto named = trace.process_names.find(pid);
        named != trace.process_names.end()) {
      const auto sort = trace.process_sort_indices.find(pid);
      comma();
      out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" + pid_text +
             ",\"tid\":0,\"args\":{\"name\":";
      json_append_quoted(out, named->second);
      out += "}}";
      comma();
      out += "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":" +
             pid_text + ",\"tid\":0,\"args\":{\"sort_index\":" +
             std::to_string(sort == trace.process_sort_indices.end()
                                ? 0
                                : sort->second) +
             "}}";
    }
    for (auto it = trace.thread_names.lower_bound({pid, INT_MIN});
         it != trace.thread_names.end() && it->first.first == pid; ++it) {
      comma();
      out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":" + pid_text +
             ",\"tid\":" + std::to_string(it->first.second) +
             ",\"args\":{\"name\":";
      json_append_quoted(out, it->second);
      out += "}}";
    }
    for (; span != spans.end() && span->process_id == pid; ++span) {
      comma();
      out += "{\"name\":";
      json_append_quoted(out, span->name);
      out += ",\"cat\":";
      json_append_quoted(out, span->category);
      out += ",\"ph\":\"X\",\"ts\":" + std::to_string(span->start_us) +
             ",\"dur\":" + std::to_string(span->duration_us) + ",\"pid\":" +
             pid_text + ",\"tid\":" + std::to_string(span->thread_id) +
             ",\"args\":{";
      if (span->depth >= 0) out += "\"depth\":" + std::to_string(span->depth);
      out += "}}";
    }
    for (; sample != counters.end() && sample->process_id == pid; ++sample) {
      comma();
      out += "{\"name\":";
      json_append_quoted(out, sample->name);
      out += ",\"ph\":\"C\",\"ts\":" + std::to_string(sample->time_us) +
             ",\"pid\":" + pid_text + ",\"tid\":" +
             std::to_string(sample->thread_id) + ",\"args\":{";
      for (std::size_t i = 0; i < sample->values.size(); ++i) {
        if (i) out += ",";
        json_append_quoted(out, sample->values[i].first);
        out += ':';
        json_append_number(out, sample->values[i].second);
      }
      out += "}}";
    }
  }
  out += "]}";
  return out;
}

std::string trace_to_json() {
  const TraceProcess process = trace_process();
  ChromeTrace trace;
  trace.spans = trace_spans();
  trace.counters = trace_counters();
  for (auto& [tid, label] : thread_names()) {
    trace.thread_names[{process.pid, tid}] = std::move(label);
  }
  trace.trace_id = process.trace_id;
  // A default identity keeps the single-process document: no process
  // metadata (the trace id, when set, goes to otherData).
  if (process.pid != 1 || process.sort_index != 0 || !process.name.empty() ||
      !process.trace_id.empty()) {
    trace.process_names[process.pid] = process.name;
    trace.process_sort_indices[process.pid] = process.sort_index;
  }
  return chrome_trace_json(trace);
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
