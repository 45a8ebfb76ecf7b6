// Span tracer for the codesign flow: RAII spans with nesting and
// thread-id capture, plus Chrome-trace-event JSON export (loadable in
// chrome://tracing and Perfetto) and a compact text tree dump.
//
// Tracing is disabled by default. Every instrumentation site is guarded
// by one relaxed atomic load (`tracing_enabled()`), so instrumented code
// costs a single predictable branch when tracing is off: a disabled
// ScopedSpan never copies its name and never takes the trace lock.
//
// Span names are dotted lowercase paths ("flow.assign", "solver.cg");
// categories group spans per subsystem ("flow", "power", "route",
// "exchange"). See docs/OBSERVABILITY.md for the naming conventions.
#pragma once

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fp::obs {

namespace detail {
extern std::atomic<bool> g_tracing;
}  // namespace detail

/// True when span/counter recording is on (one relaxed load).
inline bool tracing_enabled() {
  return detail::g_tracing.load(std::memory_order_relaxed);
}

/// Turns recording on or off; existing events are kept.
void set_tracing_enabled(bool on);

/// Cross-process identity stamped into exported traces so per-worker
/// trace files can be stitched into one timeline (obs/merge.h). The
/// default (pid 1, no name, no trace id) keeps single-process output
/// byte-identical to what the tracer always emitted.
struct TraceProcess {
  int pid = 1;           // Chrome-trace pid; the farm assigns lanes
  int sort_index = 0;    // process_sort_index metadata (viewer order)
  std::string name;      // process_name metadata; empty = single-process
  std::string trace_id;  // shared farm trace id; empty = standalone run
};

/// Installs this process's identity; trace_to_json() then emits
/// process_name/process_sort_index metadata and stamps every event with
/// the pid. Survives reset_trace().
void set_trace_process(TraceProcess process);
[[nodiscard]] TraceProcess trace_process();

/// Parses a FPKIT_TRACE_PARENT value "<trace-id>:<lane>[:<name>]" (lane
/// >= 1) and installs it as this process's identity: pid = lane + 1 and
/// sort_index = lane, so the supervisor that assigned the lane keeps
/// pid 1 / sort 0. Returns false (installing nothing) on malformed input.
bool apply_trace_parent(std::string_view parent);

/// Microseconds since this process's trace epoch (the steady-clock
/// instant of first trace use). The farm supervisor samples this at
/// spawn time to record each worker's epoch offset into the merged
/// timeline (obs::TracePart::offset_us).
[[nodiscard]] std::uint64_t trace_now_us();

/// One complete span: recorded by the tracer, or read back from a trace
/// ("X" events, or a matched "B"/"E" pair).
struct ProfileSpan {
  std::string name;
  std::string category;
  std::uint64_t start_us = 0;     // microseconds since the trace epoch
  std::uint64_t duration_us = 0;  // wall-clock duration
  int process_id = 1;  // Chrome pid; one lane per farm worker process
  int thread_id = 0;   // small sequential id, 0 = first thread
  int depth = -1;  // nesting depth within its thread; -1 = not recorded
};

/// One counter sample (a Chrome "C" event: a named time series).
struct CounterSample {
  std::string name;
  std::uint64_t time_us = 0;
  int process_id = 1;
  int thread_id = 0;
  std::vector<std::pair<std::string, double>> values;
};

/// A trace in memory: spans, counters, process/thread labels and any
/// repair diagnostics of the reader (obs/profile.h). Threads are keyed
/// (pid, tid) -- two processes may both have a tid 0.
struct ChromeTrace {
  std::vector<ProfileSpan> spans;
  std::vector<CounterSample> counters;
  std::map<std::pair<int, int>, std::string> thread_names;
  /// Labelled processes (process_name "M" events); only these get
  /// process metadata when written.
  std::map<int, std::string> process_names;
  std::map<int, int> process_sort_indices;  // process_sort_index events
  std::string trace_id;  // otherData.trace_id, "" when absent
  /// Human-readable repair notes ("2 unclosed span(s) closed at the last
  /// recorded timestamp"). Empty for a clean, complete trace.
  std::vector<std::string> notes;

  [[nodiscard]] bool degraded() const { return !notes.empty(); }
};

/// The one span order of the trace writer and the profiler: process,
/// thread, start time; on a start tie the longer (outer) span first, then
/// the recorded depth, so RAII parent/child pairs with equal timestamps
/// still stack correctly.
[[nodiscard]] bool layout_less(const ProfileSpan& a, const ProfileSpan& b);

/// Chrome trace event format: {"traceEvents":[...]}, the one writer of
/// traces and merged traces. Per pid, ascending: process_name and
/// process_sort_index metadata (labelled processes only), thread names,
/// "X" spans in layout order (with "args":{"depth":N} when recorded),
/// then "C" counters in stored order.
[[nodiscard]] std::string chrome_trace_json(const ChromeTrace& trace);

/// RAII span: opens on construction, records on destruction. When
/// tracing is disabled the constructor is a single branch and the
/// destructor another.
class ScopedSpan {
 public:
  explicit ScopedSpan(std::string_view name,
                      std::string_view category = "fpkit");
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  std::uint64_t start_us_ = 0;
  std::string name_;
  std::string category_;
};

/// Records one sample of a named time series ("sa" temperature/cost,
/// "solver.residual", ...). No-op when tracing is disabled.
void counter(std::string_view name,
             std::initializer_list<std::pair<std::string_view, double>>
                 values);

/// Labels the calling thread in exported traces ("main", "exec.worker3").
/// Names are recorded even while tracing is disabled -- worker threads
/// register once at startup, possibly before the tracer is armed -- and
/// survive reset_trace() so long-lived pools keep their labels. The last
/// call per thread wins. Exported as Chrome "M"/thread_name metadata
/// events, which is what merges per-thread/per-replica/per-batch-job
/// tracks into one readable timeline (docs/ARTIFACTS.md).
void set_thread_name(std::string_view name);

/// (sequential thread id, label) pairs, ordered by id.
[[nodiscard]] std::vector<std::pair<int, std::string>> thread_names();

/// Snapshot of every finished span in layout order, stamped with this
/// process's pid.
[[nodiscard]] std::vector<ProfileSpan> trace_spans();

/// Snapshot of every counter sample in emission order, stamped likewise.
[[nodiscard]] std::vector<CounterSample> trace_counters();

/// This process's trace through chrome_trace_json(). A default identity
/// writes no process metadata.
[[nodiscard]] std::string trace_to_json();

/// Indented per-thread tree of the recorded spans, for terminal use.
[[nodiscard]] std::string trace_to_text();

/// Writes trace_to_json() to `path`; throws IoError on failure.
void save_trace(const std::string& path);

/// Drops all recorded events (tests and long-lived processes).
void reset_trace();

}  // namespace fp::obs
