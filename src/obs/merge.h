// Cross-process trace stitching and metrics rollup for the batch farm
// (docs/OBSERVABILITY.md "Multi-process tracing").
//
// Each farm worker writes its own trace.json and metrics.json with
// timestamps measured from its private steady-clock epoch. The
// supervisor records every part in a trace index (one entry per process
// lane, with the epoch offset it sampled at spawn time); merge_traces()
// then stitches the parts into one Chrome trace document -- one process
// band per worker plus the supervisor -- and merge_metrics() folds the
// per-worker metrics files into one farm-level fpkit.metrics.v1
// snapshot. Both merges are deterministic: the same inputs always
// produce byte-identical output, so CI can re-merge and compare.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/profile.h"

namespace fp::obs {

/// One process lane of a multi-process trace: where its part file lives
/// and how its private clock maps onto the merged timeline.
struct TracePart {
  std::string file;  // part path, relative to the index's directory
  std::string name;  // process_name shown for the lane ("job0 serve", ...)
  int pid = 1;       // Chrome pid in the merged document
  int sort_index = 0;       // viewer ordering (supervisor 0, lanes 1..n)
  std::uint64_t offset_us = 0;  // added to every timestamp in the part
};

/// The trace index ("fpkit.traceindex.v1"): the supervisor's record of
/// every part, rewritten atomically as workers spawn so a crashed farm
/// still leaves a mergeable index behind.
struct TraceIndex {
  std::string trace_id;
  std::vector<TracePart> parts;
};

[[nodiscard]] Json trace_index_to_json(const TraceIndex& index);
/// Throws InvalidArgument on a wrong schema or a malformed part entry.
[[nodiscard]] TraceIndex trace_index_from_json(const Json& doc);

/// A stitched multi-process trace: the merged Chrome trace document text
/// plus per-part repair notes (missing part file, clock-id mismatch,
/// unclosed spans). Deterministic for fixed inputs.
struct MergedTrace {
  std::string json;
  std::vector<std::string> notes;

  [[nodiscard]] bool degraded() const { return !notes.empty(); }
};

/// Stitches `parts` (one loaded trace per index entry, in index order)
/// into one document: each part's thread names, spans and counter
/// samples are re-stamped with its lane's pid and shifted by its offset,
/// the lane is labelled with its name and sort index, and
/// chrome_trace_json() writes the lanes in pid order. Throws
/// InvalidArgument when the part count does not match the index.
[[nodiscard]] MergedTrace merge_traces(const TraceIndex& index,
                                       const std::vector<ChromeTrace>& parts);

/// Loads `<dir>/index.json` and every listed part and merges them. A part
/// file that is missing, unreadable or malformed -- a worker killed
/// before its first write -- degrades to a note and an empty lane rather
/// than failing the merge.
[[nodiscard]] MergedTrace merge_trace_dir(const std::string& dir);

/// One metrics snapshot to roll up: a parsed fpkit.metrics.v1 document,
/// where it came from (for error messages and notes), and its position
/// in time (gauges are last-writer-wins by this timestamp).
struct MetricsPart {
  Json doc;
  std::string source;
  double timestamp = 0.0;
};

struct MergedMetrics {
  Json doc;  // one fpkit.metrics.v1 document
  std::vector<std::string> notes;
};

/// Rolls worker metrics snapshots up into one document:
///   - counters sum, saturating at 2^64 - 1 (a note records any clamp);
///   - gauges are last-writer-wins in timestamp order (stable for ties);
///   - histograms add bucket-wise; mismatched bucket bounds for the same
///     histogram name throw InvalidArgument naming the histogram and
///     both sources, because silently merging incompatible buckets would
///     fabricate a distribution;
///   - series concatenate in timestamp order when their columns match;
///     a column mismatch degrades to a note (the first layout wins).
/// No parts yields an empty metrics document; one part round-trips
/// byte-identically (merge(x).doc.dump() == json_parse(x).dump()).
[[nodiscard]] MergedMetrics merge_metrics(std::vector<MetricsPart> parts);

}  // namespace fp::obs
