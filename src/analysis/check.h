// fpkit's pipeline-wide design-rule static analyzer ("fpkit check").
//
// The co-design flow only produces meaningful numbers when every
// intermediate artifact -- package geometry, netlist, finger/pad
// assignment, routes, power mesh, stacking tiers -- satisfies invariants
// that used to live in scattered asserts and the small package lint pass.
// This module makes them first-class: every invariant is a *rule* with a
// stable ID ("GEOM-002", "ROUTE-004", ...), a severity, a one-line
// summary, a declared input-dependency set, and a run function that
// inspects one pipeline stage through a CheckContext. The registry is
// the single source of truth: the `fpkit check` subcommand, the flow's
// debug-build self-checks, the docs (docs/CHECKS.md) and the test
// fixtures all enumerate it.
//
// v2 additions (see docs/CHECKS.md):
//   * every rule declares the inputs it reads (CheckInputSet), which is
//     the dirty-set unit of the incremental CheckEngine
//     (analysis/engine.h) -- after a finger/pad swap only
//     assignment-derived rules re-run;
//   * findings carry a waived flag filled by the severity-policy layer
//     (analysis/config.h, `.fpkit-check.json`);
//   * a Determinism stage (DET-*) audits run configurations and recorded
//     run manifests for reproducibility hazards;
//   * machine-readable output goes through the canonical JSON writer
//     (obs/json.h), with a SARIF 2.1.0 emitter in analysis/sarif.h.
//
// Severity semantics follow EDA sign-off practice: an Error means a
// downstream stage would compute garbage (or a solver would diverge); a
// Warning means the design is legal but suspicious enough that a human
// should look before trusting Table-2/3 style results.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "package/assignment.h"
#include "package/package.h"
#include "power/power_grid.h"
#include "power/solver.h"
#include "route/design_rules.h"
#include "route/density.h"
#include "route/router.h"
#include "route/via_plan.h"
#include "stack/stacking.h"
#include "util/error.h"

namespace fp {

enum class CheckSeverity { Warning, Error };

[[nodiscard]] std::string_view to_string(CheckSeverity severity);

/// Pipeline stage a rule inspects. Package-stage rules need only the
/// package; the artifact stages also need an assignment; the Determinism
/// stage audits a run configuration (CheckContext::determinism).
enum class CheckStage { Package, Assignment, Route, Power, Stacking,
                        Determinism };

[[nodiscard]] std::string_view to_string(CheckStage stage);

/// Input artifacts and configuration blocks a rule reads, as a bitmask.
/// This is the granularity of the incremental engine's dirty set: a rule
/// re-runs only when one of its declared inputs was invalidated.
using CheckInputSet = unsigned;

namespace check_inputs {
inline constexpr CheckInputSet kGeometry = 1u << 0;   // package geometry/rows
inline constexpr CheckInputSet kNetlist = 1u << 1;    // nets, types, tiers
inline constexpr CheckInputSet kAssignment = 1u << 2; // finger/pad order
inline constexpr CheckInputSet kRoutes = 1u << 3;     // routes + via plans
inline constexpr CheckInputSet kPowerMesh = 1u << 4;  // grid spec + solver
inline constexpr CheckInputSet kStacking = 1u << 5;   // stacking spec
inline constexpr CheckInputSet kDrc = 1u << 6;        // DRC rules + strategy
inline constexpr CheckInputSet kRunConfig = 1u << 7;  // determinism audit
inline constexpr CheckInputSet kAll = (1u << 8) - 1u;
/// What a finger/pad swap (or any assignment edit) invalidates: the
/// assignment itself and everything derived from it downstream.
inline constexpr CheckInputSet kSwapDirty = kAssignment | kRoutes |
                                            kPowerMesh;
}  // namespace check_inputs

/// Reproducibility facts about the run being signed off, audited by the
/// DET-* rule family. Filled either from the live process (CLI flags,
/// FPKIT_* environment, armed fault sites) or from a recorded
/// fpkit.run.v1 manifest (`fpkit check --audit-run <dir>`).
struct DeterminismInfo {
  /// The RNG seed the run consumes, and whether the caller pinned it
  /// explicitly (--seed / jobs-file seed=) rather than inheriting the
  /// default.
  std::uint64_t seed = 0;
  bool seed_explicit = false;
  /// True when the configured assignment method consumes the RNG
  /// (the random baseline); seeds matter only then.
  bool randomized_method = false;
  /// Resolved exec worker-pool size, and whether it was requested as
  /// "0 = all cores" (machine-dependent, so the recorded thread count of
  /// the run is not portable even though results are bit-identical).
  int threads = 1;
  bool threads_from_machine = false;
  /// Wall-clock budgets armed: results depend on machine speed.
  bool budget_enabled = false;
  /// Armed fault-injection sites (util/faultpoint.h) -- deliberate
  /// corruption has no place in a sign-off run.
  std::vector<std::string> armed_faults;
  /// Behaviour-changing FPKIT_* environment overrides present, by name:
  /// a command line alone cannot reproduce the run.
  std::vector<std::string> env_overrides;
  /// Manifest audit only: the recorded run degraded (budget expiry,
  /// solver fallback...) so its results are best-effort quality.
  bool audited = false;
  bool audited_degraded = false;
  int audited_exit_code = 0;
};

/// Everything a rule may inspect. `package` is mandatory; the remaining
/// pointers are optional artifacts -- a rule that cross-validates an
/// artifact silently passes when it is absent.
struct CheckContext {
  const Package* package = nullptr;
  /// Required by the Assignment/Route/Power/Stacking stages.
  const PackageAssignment* assignment = nullptr;
  /// Materialised routes to cross-validate against a fresh recount.
  const PackageRoute* route = nullptr;
  /// Explicit via plan to validate (the default bottom-left plan is
  /// checked implicitly through the density recount).
  const PackageViaPlan* via_plan = nullptr;
  /// Run-configuration audit inputs for the DET-* family; the stage is
  /// skipped by the aggregate run when null.
  const DeterminismInfo* determinism = nullptr;
  CrossingStrategy strategy = CrossingStrategy::Balanced;
  DrcRules drc;
  PowerGridSpec grid_spec;
  SolverOptions solver;
  StackingSpec stacking;
};

struct CheckFinding {
  std::string rule;  // registry id, e.g. "GEOM-002"
  CheckSeverity severity = CheckSeverity::Warning;
  std::string message;
  /// Set by the waiver layer (analysis/config.h): the finding stands but
  /// is suppressed from the pass/fail verdict, with the waiver's
  /// required justification recorded.
  bool waived = false;
  std::string justification;
};

struct CheckReport {
  std::vector<CheckFinding> findings;
  /// Rules actually evaluated for this report (stage inputs present);
  /// for an incremental engine run this counts cached rules too, so a
  /// warm report matches its cold-scan twin.
  int rules_run = 0;
  /// Policy-layer notes (expired or unmatched waivers); informational.
  std::vector<std::string> policy_notes;

  [[nodiscard]] bool clean() const { return findings.empty(); }
  /// True when no un-waived Error-severity finding exists.
  [[nodiscard]] bool passed() const { return error_count() == 0; }
  /// Un-waived errors / warnings; waived findings count separately.
  [[nodiscard]] std::size_t error_count() const;
  [[nodiscard]] std::size_t warning_count() const;
  [[nodiscard]] std::size_t waived_count() const;
  /// True if any finding of rule `id` exists (waived or not).
  [[nodiscard]] bool has(std::string_view id) const;

  /// "GEOM-002 error: ..." lines, then a one-line summary. Waived
  /// findings are listed (with their justifications) only when
  /// `include_waived` is set.
  [[nodiscard]] std::string to_string(bool include_waived = false) const;
  /// Canonical JSON document (schema "fpkit.check.v1", sorted keys,
  /// byte-identical re-emit through obs::json_parse + dump).
  [[nodiscard]] std::string to_json() const;
};

namespace obs {
class Json;
}  // namespace obs

/// The report as a canonical obs::Json value (schema "fpkit.check.v1");
/// CheckReport::to_json() is dump() of this plus a trailing newline.
[[nodiscard]] obs::Json check_report_to_json(const CheckReport& report);

class CheckRule;

/// Appends findings for one rule; handed to the rule's run function so
/// rules never spell their own id/severity twice.
class CheckEmitter {
 public:
  CheckEmitter(const CheckRule& rule, CheckReport& report)
      : rule_(&rule), report_(&report) {}
  void emit(std::string message) const;

 private:
  const CheckRule* rule_;
  CheckReport* report_;
};

class CheckRule {
 public:
  using RunFn = void (*)(const CheckContext&, const CheckEmitter&);

  constexpr CheckRule(std::string_view id, CheckStage stage,
                      CheckInputSet inputs, CheckSeverity severity,
                      std::string_view summary, RunFn run_fn)
      : id_(id), stage_(stage), inputs_(inputs), severity_(severity),
        summary_(summary), run_(run_fn) {}

  [[nodiscard]] std::string_view id() const { return id_; }
  [[nodiscard]] CheckStage stage() const { return stage_; }
  /// Declared input-dependency set; the incremental engine re-runs the
  /// rule only when one of these inputs is dirty.
  [[nodiscard]] CheckInputSet inputs() const { return inputs_; }
  [[nodiscard]] CheckSeverity severity() const { return severity_; }
  [[nodiscard]] std::string_view summary() const { return summary_; }
  void run(const CheckContext& context, CheckReport& report) const {
    run_(context, CheckEmitter(*this, report));
  }

 private:
  std::string_view id_;
  CheckStage stage_;
  CheckInputSet inputs_;
  CheckSeverity severity_;
  std::string_view summary_;
  RunFn run_;
};

/// The full registry, ordered by stage then id. Stable across a build;
/// docs and tests iterate it.
[[nodiscard]] std::span<const CheckRule> check_rules();

/// Rule by id, or nullptr.
[[nodiscard]] const CheckRule* find_rule(std::string_view id);

/// The aggregate stage order shared by run_checks(context) and the
/// incremental engine, so warm and cold reports list findings in one
/// canonical order.
[[nodiscard]] std::span<const CheckStage> check_stage_order();

/// True when `context` carries the inputs the aggregate run needs to
/// evaluate `stage` (see run_checks(context) for the exact conditions).
[[nodiscard]] bool check_stage_applies(const CheckContext& context,
                                       CheckStage stage);

/// Runs every rule of `stage`. Throws InvalidArgument when the context
/// lacks the stage's required inputs (package; plus assignment for the
/// artifact stages).
[[nodiscard]] CheckReport run_checks(const CheckContext& context,
                                     CheckStage stage);

/// Runs every stage whose required inputs are present: Package and
/// Stacking always, Assignment/Route when an assignment is set, Power
/// when additionally the netlist carries supply nets (a supply-less
/// design has no power intent to check), Determinism when the context
/// carries a DeterminismInfo.
[[nodiscard]] CheckReport run_checks(const CheckContext& context);

/// Thrown by CheckEngine::run_or_throw; carries the offending report.
class CheckFailure : public Error {
 public:
  CheckFailure(std::string what, CheckReport report);
  [[nodiscard]] const CheckReport& report() const { return report_; }

 private:
  CheckReport report_;
};

}  // namespace fp
