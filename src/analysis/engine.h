// Incremental check engine + baseline diffing (fpkit check v2).
//
// CheckEngine wraps run_checks() with a per-rule result cache keyed on
// each rule's declared input set (CheckRule::inputs()). Callers tell the
// engine *what changed* -- invalidate(check_inputs::kAssignment | ...)
// after an edit, note_swap() after a finger/pad swap -- and the next
// run() re-executes only rules whose inputs intersect the dirty set,
// splicing cached findings for the rest. The merged report is
// bit-identical to a cold full scan: the engine walks the same
// check_stage_order() / registry order as run_checks(context), counts
// cached rules in rules_run, and applies the severity/waiver policy
// (analysis/config.h) to the merged raw findings exactly as a cold run
// would. The equivalence is enforced by tests/check_engine_test.cpp over
// randomized swap sequences.
//
// The codesign flow owns one engine per run: the entry gate scans cold,
// the post-assign and post-exchange gates re-run only the
// assignment-derived rules (roughly half the registry), and the saved
// wall time is published as check.* metrics (docs/OBSERVABILITY.md).
//
// Baseline diffing closes the CI loop: load_check_baseline() pulls the
// finding set out of a recorded fpkit.run.v1 check artifact and
// diff_check_baseline() reports which current findings are *new* against
// it -- the `fpkit check --baseline <dir>` gate exits 3 only on new
// findings, the same ratchet shape as `fpkit compare`.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/check.h"
#include "analysis/config.h"

namespace fp {

/// Bit for `stage` in CheckEngineOptions::stage_mask.
[[nodiscard]] constexpr unsigned check_stage_bit(CheckStage stage) {
  return 1u << static_cast<unsigned>(stage);
}

/// All stages (the default engine coverage).
inline constexpr unsigned kAllCheckStages =
    check_stage_bit(CheckStage::Package) |
    check_stage_bit(CheckStage::Assignment) |
    check_stage_bit(CheckStage::Route) |
    check_stage_bit(CheckStage::Power) |
    check_stage_bit(CheckStage::Stacking) |
    check_stage_bit(CheckStage::Determinism);

struct CheckEngineOptions {
  /// Severity overrides / waivers applied to every merged report.
  CheckConfig config;
  /// Stages this engine evaluates (stages outside the mask are skipped
  /// even when their inputs are present). The flow's self-check engine
  /// masks to Package|Stacking|Assignment, matching the v1 gates.
  unsigned stage_mask = kAllCheckStages;
};

class CheckEngine {
 public:
  CheckEngine() = default;
  explicit CheckEngine(CheckEngineOptions options);

  /// Marks `inputs` dirty: rules whose declared inputs intersect re-run
  /// on the next run(). A fresh engine starts fully dirty.
  void invalidate(CheckInputSet inputs);
  void invalidate_all() { invalidate(check_inputs::kAll); }

  /// Records a finger/pad assignment edit (swap/exchange move): dirties
  /// the assignment and everything derived from it downstream
  /// (check_inputs::kSwapDirty) and bumps the swap counter.
  void note_swap();

  /// Incremental scan: re-runs dirty rules, splices cached findings for
  /// clean ones, applies the policy layer, clears the dirty set.
  [[nodiscard]] CheckReport run(const CheckContext& context);

  /// Cold scan (invalidate_all + run); what tests compare run() against.
  [[nodiscard]] CheckReport run_full(const CheckContext& context);

  /// run() and throw CheckFailure (listing the findings) when any
  /// un-waived Error-severity finding fires; `where` labels the gate in
  /// the exception message ("flow entry", "after exchange", ...).
  void run_or_throw(const CheckContext& context, std::string_view where);

  struct Stats {
    long long full_scans = 0;        // runs with every covered rule dirty
    long long incremental_scans = 0; // runs that reused >= 1 cached rule
    long long rules_executed = 0;    // rule bodies actually run
    long long cache_hits = 0;        // rules served from cache
    long long swaps_noted = 0;
    double saved_s = 0.0;            // sum of cached rules' last cost
    long long last_executed = 0;     // rule bodies run by the last run()
    long long last_cache_hits = 0;   // cache hits of the last run()
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct CacheEntry {
    std::vector<CheckFinding> findings;  // raw (pre-policy) findings
    double seconds = 0.0;                // cost of the last execution
    bool valid = false;
  };

  CheckEngineOptions options_;
  CheckInputSet dirty_ = check_inputs::kAll;
  std::map<std::string, CacheEntry, std::less<>> cache_;
  Stats stats_;
};

/// Baseline gate: current findings not present in the baseline (keyed by
/// rule id + message, multiset semantics so one extra duplicate of a
/// known finding still counts as new). Waived current findings are never
/// new; baseline findings absent from the current run are "fixed".
struct CheckBaselineDiff {
  std::vector<CheckFinding> new_findings;
  std::vector<CheckFinding> fixed_findings;

  [[nodiscard]] bool clean() const { return new_findings.empty(); }
  [[nodiscard]] std::string to_string() const;
};

/// Reconstructs the finding set recorded by `fpkit check --artifact-dir`
/// from <dir>/manifest.json (manifest.extra.check). Throws IoError /
/// InvalidArgument when the artifact is missing or carries no check
/// block -- the CLI maps both onto exit code 2.
[[nodiscard]] CheckReport load_check_baseline(const std::string& dir);

[[nodiscard]] CheckBaselineDiff diff_check_baseline(
    const CheckReport& current, const CheckReport& baseline);

}  // namespace fp
