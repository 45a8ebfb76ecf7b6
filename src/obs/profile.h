// Chrome-trace profiler behind `fpkit dash --profile` (docs/DASHBOARD.md):
// loads a trace.json (the tracer's own output, or any Chrome trace event
// document), aggregates its spans into per-name self/total/count rows,
// and renders the result as a text table, canonical JSON, or a
// flamegraph-style SVG.
//
// The document must be well-formed JSON: fpkit writes every trace
// atomically, so a cut-off file is malformed input. Its events may be
// unbalanced, as in a trace of a killed run or an external tool:
// unclosed begin/end spans are closed at the last seen timestamp, and
// every repair is reported in ChromeTrace::notes so a degraded profile is
// never mistaken for a clean one.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "obs/trace.h"

namespace fp::obs {

/// Parses a Chrome trace event document (an event array, or an object
/// with a traceEvents array). Throws InvalidArgument when it is not
/// well-formed JSON or has no event array.
[[nodiscard]] ChromeTrace parse_chrome_trace(std::string_view text);

/// Reads and parses `path`; throws IoError when unreadable.
[[nodiscard]] ChromeTrace load_chrome_trace(const std::string& path);

/// One aggregated row of the profile: every span with this name, summed.
/// `self_us` excludes time covered by child spans (same thread, nested
/// inside), so the self column pinpoints where the time actually went.
struct ProfileEntry {
  std::string name;
  std::string category;
  long long count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  double min_us = 0.0;
  double max_us = 0.0;
};

/// Per-process attribution row for merged multi-process traces: how much
/// traced time each worker (or the supervisor) contributed.
struct ProcessEntry {
  int process_id = 1;
  std::string name;  // process_name metadata, "" when unlabeled
  long long span_count = 0;
  double total_us = 0.0;  // top-level (unnested) span time in this process
};

struct TraceProfile {
  /// Rows sorted by self time, largest first (ties by name).
  std::vector<ProfileEntry> entries;
  /// The spans in layout order (process, thread, then start time) with
  /// nesting depth resolved; to_flame_svg() draws from these.
  std::vector<ProfileSpan> spans;
  /// Thread labels carried over from the trace's metadata events.
  std::map<std::pair<int, int>, std::string> thread_names;
  /// One row per pid, ordered by pid (supervisor first under the farm's
  /// lane scheme); single-process traces get one unnamed row.
  std::vector<ProcessEntry> processes;
  /// Sum of top-level (unnested) span durations across all threads: the
  /// traced wall time, which per-thread self times sum back to.
  double root_total_us = 0.0;
  int process_count = 0;
  int thread_count = 0;
  std::size_t span_count = 0;
  std::vector<std::string> notes;  // carried over from the loader

  /// Fixed-width terminal table (self/total/count per name + notes).
  [[nodiscard]] std::string to_text() const;
  /// {"schema":"fpkit.profile.v1","entries":[...],...} (canonical JSON).
  [[nodiscard]] Json to_json() const;
  /// Flamegraph-style SVG: one band of depth rows per (process, thread),
  /// span width proportional to duration, colored by category. Merged
  /// farm traces render the supervisor and each worker as parallel
  /// process bands. Self-contained and deterministic for a fixed trace.
  [[nodiscard]] std::string to_flame_svg() const;
};

/// Aggregates a loaded trace (per-name self/total/count, nesting resolved
/// per (process, thread) by interval containment).
[[nodiscard]] TraceProfile profile_trace(const ChromeTrace& trace);

}  // namespace fp::obs
