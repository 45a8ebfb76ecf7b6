// The chip-package co-design flow of Fig. 1(B): congestion-driven
// finger/pad assignment, then the IR-drop/bonding-aware exchange, with
// before/after scoring of every metric the paper reports (max density,
// flyline wirelength, Eq.-(1) max IR-drop, omega, bonding-wire length).
//
// This is the one-call public API a downstream user drives; the examples
// and every bench harness are built on it.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "assign/assigner.h"
#include "exchange/exchange.h"
#include "geom/grid2d.h"
#include "package/assignment.h"
#include "package/package.h"
#include "power/ir_analysis.h"
#include "route/density.h"
#include "stack/stacking.h"
#include "util/cancel.h"
#include "util/timer.h"

namespace fp {

/// Wall-clock budget of one flow run (docs/ROBUSTNESS.md). 0 = unlimited.
/// The total cap bounds every stage; per-stage caps can only shrink a
/// stage's window further. Budgets are enforced cooperatively inside the
/// SA loop, the solver iteration loops and the global-router improvement
/// passes; on expiry a stage keeps its best-so-far state and the run is
/// reported as degraded instead of aborted. The assignment step itself is
/// not preemptible (it is a single combinatorial construction), so very
/// small totals still pay for one assignment pass.
struct FlowBudget {
  /// Whole-run cap in seconds.
  double total_s = 0.0;
  /// Cap for the exchange (SA) stage.
  double exchange_s = 0.0;
  /// Cap for each of the two analyze stages.
  double analyze_s = 0.0;

  [[nodiscard]] bool enabled() const {
    return total_s > 0.0 || exchange_s > 0.0 || analyze_s > 0.0;
  }
};

/// Why a FlowResult is marked degraded (docs/ROBUSTNESS.md).
enum class DegradeReason {
  BudgetExpired,      // a stage hit its wall-clock budget
  SolverFallback,     // IR scoring survived only via the fallback chain
  SolverUnconverged,  // IR figures are best-so-far, not converged
  ExchangeAborted,    // the SA run stopped early (fault or error)
  AnalysisFailed,     // IR scoring failed entirely; drop figures zeroed
  Interrupted,        // SIGINT/SIGTERM drain: best-so-far results kept
};

[[nodiscard]] std::string_view to_string(DegradeReason reason);

/// One degradation, attributed to the stage that suffered it.
struct DegradeEvent {
  std::string stage;  // "exchange", "analyze_initial", "analyze_final"
  DegradeReason reason = DegradeReason::BudgetExpired;
  std::string detail;
};

struct FlowOptions {
  AssignmentMethod method = AssignmentMethod::Dfa;
  /// Seed for the Random assignment baseline.
  std::uint64_t random_seed = 1;
  /// DFA cut-line parameter n (>= 1).
  int dfa_cut_line_n = 1;
  /// Run the Fig.-14 exchange after the assignment step.
  bool run_exchange = true;
  ExchangeOptions exchange;
  /// Mesh + solver used for before/after IR scoring.
  PowerGridSpec grid_spec;
  SolverOptions solver;
  StackingSpec stacking;
  CrossingStrategy routing = CrossingStrategy::Balanced;
  /// Wall-clock budgets; all-zero (the default) means run to completion
  /// with bit-identical behaviour to an unbudgeted build.
  FlowBudget budget;
  /// Link the run's cancel tokens to the process-wide SIGINT/SIGTERM
  /// flag (util/signal.h): after a signal the stages drain keep-best-
  /// so-far exactly like a budget expiry and the result carries a
  /// DegradeReason::Interrupted event. Off by default -- a library user
  /// who never installs sig::install_graceful() is unaffected either
  /// way; the CLI turns it on for run/batch/farm workers.
  bool interruptible = false;
  /// Run the static analyzer (analysis/check.h) between flow stages and
  /// throw CheckFailure on any Error-severity finding: the package is
  /// checked on entry and the assignment after each step. On by default
  /// in debug builds, off in release builds (the checks re-derive density
  /// maps and cost time on hot paths).
  bool self_check =
#ifndef NDEBUG
      true;
#else
      false;
#endif
};

struct FlowResult {
  PackageAssignment initial;  // after the assignment step
  PackageAssignment final;    // after the exchange step (== initial when
                              // run_exchange is false)
  int max_density_initial = 0;
  int max_density_final = 0;
  double flyline_initial_um = 0.0;
  double flyline_final_um = 0.0;
  /// Zeroed when the netlist has no supply nets.
  IrReport ir_initial;
  IrReport ir_final;
  /// The final solve's voltage field (volts per mesh node), moved out of
  /// the analyze_final solve: the one field ir_final reports on, drawn by
  /// `fpkit run --heatmap`. Empty when the netlist has no supply nets or
  /// analyze_final failed; run_flow_batch releases it.
  Grid2D<double> final_voltage;
  BondingWireReport bonding_initial;
  BondingWireReport bonding_final;
  AnnealResult anneal;
  double runtime_s = 0.0;
  /// Per-stage wall-clock breakdown of runtime_s, in execution order:
  /// check, assign, analyze_initial, exchange, analyze_final. Always
  /// populated (stages that did no work report ~0 s); the same stages are
  /// emitted as "flow.*" spans when tracing is enabled (obs/trace.h).
  std::vector<StageTiming> stage_timings;
  /// True when any stage delivered best-effort rather than full-quality
  /// results (budget expiry, solver fallback, injected fault...). The
  /// assignments are still legal; only their scores/quality may suffer.
  bool degraded = false;
  /// What degraded, stage by stage, in execution order.
  std::vector<DegradeEvent> degrade_events;

  /// The run's documented exit code (docs/ROBUSTNESS.md): 0 ok, 3
  /// degraded, 5 interrupted (an Interrupted event outranks the rest).
  /// `run`, batch jobs and farm workers all record this one.
  [[nodiscard]] int exit_code() const;

  /// (1 - IR_after / IR_before) * 100, the paper's Table-3 "improved
  /// IR-drop"; 0 when IR was not evaluated.
  [[nodiscard]] double ir_improvement_percent() const;
  /// (omega_before - omega_after) / omega_before * 100, the paper's
  /// Table-3 "improved bonding wire"; 0 when omega_before is 0.
  [[nodiscard]] double bonding_improvement_percent() const;
};

class CodesignFlow {
 public:
  explicit CodesignFlow(FlowOptions options = {});

  [[nodiscard]] const FlowOptions& options() const { return options_; }

  /// Runs assignment (+ exchange) and scores every metric.
  [[nodiscard]] FlowResult run(const Package& package) const;

  /// Multi-line human-readable report of a finished run.
  [[nodiscard]] static std::string summary(const Package& package,
                                           const FlowResult& result);

 private:
  FlowOptions options_;
};

/// One job of a batch run: the options to evaluate plus a label used in
/// reports ("DFA/seed=3", a scenario name...).
struct BatchJob {
  std::string label;
  FlowOptions options;
};

/// Outcome of one batch job. A job that threw (CheckFailure, bad options,
/// unrecoverable solver error...) reports ok = false with the error text;
/// the other jobs are unaffected.
struct BatchJobResult {
  std::string label;
  bool ok = false;
  std::string error;  // non-empty iff !ok
  FlowResult result;  // valid iff ok
};

/// Results of run_flow_batch, in input-job order regardless of which
/// worker finished first.
struct BatchResult {
  std::vector<BatchJobResult> jobs;
  double runtime_s = 0.0;

  [[nodiscard]] int failed_count() const;
  /// Successful jobs that reported FlowResult::degraded.
  [[nodiscard]] int degraded_count() const;
};

/// Evaluates every job's FlowOptions against the same (shared, read-only)
/// package, fanning the jobs out over the exec worker pool
/// (docs/PARALLELISM.md). Each job is itself a plain CodesignFlow::run --
/// budgets, degradation tracking and fault injection all behave exactly
/// as in a single run -- and results land in slots keyed by job index, so
/// for a fixed job list the batch output is identical at every thread
/// count. Used by `fpkit batch` for parameter sweeps (method x seed x
/// mesh...). A batch keeps every job's result but draws no map, so each
/// job's final_voltage is released as the job ends.
[[nodiscard]] BatchResult run_flow_batch(const Package& package,
                                         const std::vector<BatchJob>& jobs);

/// Sets one named flow option from its text form, the one parser behind
/// `fpkit` flow flags and jobs-file fields. Keys: method (random|ifa|dfa),
/// seed, restarts, cut, mesh, lambda, rho, phi, exchange (on|off),
/// budget, budget-exchange, budget-analyze. Throws InvalidArgument on an
/// unknown key or a malformed value.
void set_flow_option(FlowOptions& options, std::string_view key,
                     std::string_view value);

/// Parses a job list: one job per line, blank lines and '#' comments
/// skipped. Each line is an optional label token (the first token without
/// '=') plus key=value set_flow_option fields layered over `base`:
///
///   baseline  method=dfa seed=1
///   stress    method=ifa seed=7 restarts=4 mesh=48 exchange=off
///
/// Unlabelled jobs get "<METHOD>/seed=<seed>". Throws InvalidArgument,
/// naming `source` and the line, on a bad field or a duplicate label.
[[nodiscard]] std::vector<BatchJob> parse_batch_jobs(std::istream& lines,
                                                     const FlowOptions& base,
                                                     std::string_view source);

/// parse_batch_jobs over a `fpkit batch --jobs-file` file; throws IoError
/// when it is unreadable.
[[nodiscard]] std::vector<BatchJob> load_batch_jobs(const std::string& path,
                                                    const FlowOptions& base);

}  // namespace fp
