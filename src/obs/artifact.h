// Run-artifact flight recorder and cross-run comparison
// (docs/ARTIFACTS.md).
//
// Every `fpkit run|batch|check --artifact-dir <d>` (or the
// FPKIT_ARTIFACT_DIR environment variable) persists the run as a
// directory so it can be diffed against any previous run:
//
//   <d>/manifest.json   schema "fpkit.run.v1": tool version, subcommand,
//                       flow options, seeds, thread count, environment
//                       overrides, wall time, exit code, stage timings,
//                       degrade events, results, fault-injection record
//   <d>/metrics.json    the "fpkit.metrics.v1" registry snapshot
//   <d>/trace.json      the Chrome span trace (per-thread/per-replica/
//                       per-batch-job tids merged into one timeline)
//
// Writes are atomic: everything lands in "<d>.tmp-partial" first and the
// directory is renamed into place only once complete, so a crashed run
// never leaves a half-written artifact where CI expects a whole one.
//
// compare_artifacts() diffs two artifacts -- manifest results, stage
// timing ratios, metric counters/gauges/histograms -- against the
// configurable gates behind `fpkit compare` (--max-slowdown,
// --require-equal-cost) with the CI exit contract 0 ok / 3 regression /
// 2 bad input. Value metrics that differ are reported as deltas; only
// gated findings count as regressions, so two identical-seed runs always
// compare clean even though their wall clocks differ.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "util/timer.h"

namespace fp::obs {

inline constexpr std::string_view kRunSchema = "fpkit.run.v1";

/// The tool version recorded in manifests (kept in step with the CMake
/// project version); shared by the CLI and the bench harness so both emit
/// identical manifest headers.
inline constexpr std::string_view kToolVersion = "1.0.0";

/// One degradation entry (stage, machine-readable reason, free text).
struct ManifestEvent {
  std::string stage;
  std::string reason;
  std::string detail;
};

/// One armed fault-injection site and its firing record.
struct ManifestFault {
  std::string site;
  long long after = 0;
  long long times = 1;
  long long hits = 0;
  long long fired = 0;
  std::string mode = "throw";  // "throw" or "abort" (util/faultpoint.h)
};

/// Everything manifest.json records about one run. The flow-specific
/// fields (options, results) are generic JSON/number maps so this layer
/// stays below src/codesign; codesign/report.h provides the fillers.
struct RunManifest {
  std::string subcommand;               // "run", "batch", "check", bench name
  std::string version;                  // fpkit version string
  int threads = 1;                      // exec worker-pool size
  std::map<std::string, std::string> env;  // FPKIT_* overrides present
  std::string fault_spec;               // --inject / FPKIT_FAULTS, verbatim
  std::vector<ManifestFault> faults;    // armed sites and firing counts
  Json options = Json::object();        // FlowOptions snapshot
  std::vector<std::uint64_t> seeds;     // every seed the run consumed
  double wall_s = 0.0;                  // whole-process wall time
  int exit_code = 0;                    // the documented CLI exit code
  std::vector<StageTiming> stages;      // per-stage wall-clock breakdown
  std::vector<ManifestEvent> events;    // degrade events, execution order
  std::map<std::string, double> results;  // headline numeric results
  Json extra = Json();                  // subcommand-specific block (check)
};

/// Captures the FPKIT_* environment overrides into `manifest.env` and the
/// armed fault sites (util/faultpoint.h status()) into `manifest.faults`.
void capture_environment(RunManifest& manifest);

/// The manifest as a canonical JSON document (schema fpkit.run.v1).
[[nodiscard]] Json manifest_to_json(const RunManifest& manifest);

/// Parses a manifest document back into the struct; throws
/// InvalidArgument when the schema marker is wrong or fields are
/// malformed. Unknown keys are ignored (forward compatibility).
[[nodiscard]] RunManifest manifest_from_json(const Json& doc);

/// Atomically writes the artifact directory: manifest.json always;
/// metrics.json (the global registry) and trace.json when the matching
/// flag is set (per-batch-job artifacts carry only their manifest, since
/// metrics and trace are process-wide). An existing `dir` is replaced.
/// Throws IoError on any filesystem failure.
void write_run_artifact(const std::string& dir, const RunManifest& manifest,
                        bool include_metrics = true,
                        bool include_trace = true);

/// In-place variant for incrementally grown artifact trees (the batch
/// farm, src/farm/): writes manifest.json -- and metrics.json when asked
/// -- *into* `dir` (created if missing) through a tmp file + rename per
/// file, without replacing the directory, so an existing jobs/ subtree
/// and journal survive. Throws IoError on any filesystem failure.
void write_manifest_into(const std::string& dir, const RunManifest& manifest,
                         bool include_metrics = false);

/// Reads `dir`/manifest.json (required) and `dir`/metrics.json (optional,
/// empty registry when absent). Throws IoError / InvalidArgument on a
/// missing or malformed artifact -- the CLI maps both to exit code 2.
struct LoadedArtifact {
  RunManifest manifest;
  Json metrics = Json();  // null when metrics.json is absent
};
[[nodiscard]] LoadedArtifact load_run_artifact(const std::string& dir);

/// Gates applied by compare_artifacts; all off by default, so a plain
/// compare only reports deltas and exits 0.
struct CompareOptions {
  /// When > 0: stage timings, manifest wall time and *_s/_us timing
  /// metrics in B may be at most `max_slowdown` times their A value
  /// (stages faster than min_time_s in A are exempt -- ratios on
  /// microsecond stages are noise).
  double max_slowdown = 0.0;
  /// Floor (seconds) under which a timing is too small to gate.
  double min_time_s = 0.01;
  /// Require bit-equal SA cost figures (sa.final_cost / sa.best_cost in
  /// results and gauges): the determinism gate for fixed-seed runs.
  bool require_equal_cost = false;
};

/// True for the timing quantities --max-slowdown gates, never equality:
/// names ending in _s, _us or _seconds, and "wall"/"runtime". Two
/// byte-identical runs still differ in wall clock.
[[nodiscard]] bool is_timing_name(std::string_view name);

/// The --max-slowdown timing gate on its own: true when baseline `a` is
/// gateable (at/above min_time_s) and `b` exceeds a * max_slowdown. The
/// comparer and the dashboard's regression highlighting share this exact
/// predicate so `fpkit dash` never flags what `fpkit compare` would pass.
[[nodiscard]] bool timing_regression(double a, double b,
                                     const CompareOptions& options);

/// One compared quantity. `regression` is only ever true for gated
/// findings (slowdown breach, unequal cost under require_equal_cost, a
/// sweep job present on one side only).
struct CompareFinding {
  std::string kind;   // "result", "stage", "counter", "gauge", "histogram",
                      // "series", or "job" for a one-sided sweep job
  std::string name;
  double a = 0.0;
  double b = 0.0;
  bool regression = false;
  std::string note;   // human-readable explanation for regressions
  /// Index into CompareReport::jobs of the sweep job the quantity belongs
  /// to; -1 for the top-level artifact.
  int job = -1;
};

struct CompareReport {
  std::vector<CompareFinding> findings;  // differing quantities only
  /// Quantities compared in total (equal ones are not listed above).
  int compared = 0;
  /// The sweep jobs diffed after the top-level artifact, in index order:
  /// "job<i> (<label>)", both labels ("a vs b") when they differ. Empty
  /// unless a side holds jobs/job0/.
  std::vector<std::string> jobs;

  [[nodiscard]] int regressions() const;
  /// Fixed-width text table of the findings, one section per sweep job,
  /// plus a one-line verdict.
  [[nodiscard]] std::string to_string() const;
};

/// Diffs two artifact directories (see the header comment), then the
/// jobs of a sweep tree (`fpkit batch`, `fpkit farm`): jobs/job<i> of A
/// against jobs/job<i> of B with the same gates, for as long as either
/// side has jobs/job<i>/manifest.json. A job on one side only is one
/// regression finding. Throws on unreadable/malformed artifacts; never
/// throws on mere differences.
[[nodiscard]] CompareReport compare_artifacts(const std::string& dir_a,
                                              const std::string& dir_b,
                                              const CompareOptions& options);

}  // namespace fp::obs
