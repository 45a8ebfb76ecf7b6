#include "codesign/flow.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>

#include "analysis/check.h"
#include "analysis/engine.h"
#include "exec/exec.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "route/router.h"
#include "util/error.h"
#include "util/faultpoint.h"
#include "util/signal.h"
#include "util/strings.h"
#include "util/timer.h"

namespace fp {

std::string_view to_string(DegradeReason reason) {
  switch (reason) {
    case DegradeReason::BudgetExpired:
      return "budget_expired";
    case DegradeReason::SolverFallback:
      return "solver_fallback";
    case DegradeReason::SolverUnconverged:
      return "solver_unconverged";
    case DegradeReason::ExchangeAborted:
      return "exchange_aborted";
    case DegradeReason::AnalysisFailed:
      return "analysis_failed";
    case DegradeReason::Interrupted:
      return "interrupted";
  }
  return "unknown";
}

double FlowResult::ir_improvement_percent() const {
  if (ir_initial.max_drop_v <= 0.0) return 0.0;
  return (1.0 - ir_final.max_drop_v / ir_initial.max_drop_v) * 100.0;
}

double FlowResult::bonding_improvement_percent() const {
  if (bonding_initial.omega <= 0) return 0.0;
  return static_cast<double>(bonding_initial.omega - bonding_final.omega) /
         static_cast<double>(bonding_initial.omega) * 100.0;
}

int FlowResult::exit_code() const {
  if (!degraded) return 0;
  const bool interrupted =
      std::any_of(degrade_events.begin(), degrade_events.end(),
                  [](const DegradeEvent& event) {
                    return event.reason == DegradeReason::Interrupted;
                  });
  return interrupted ? 5 : 3;
}

namespace {

/// One flow stage's span "flow.<stage>", progress line and, on exit,
/// StageTiming (the flow.stage.* gauges are written from those), recorded
/// even when the stage did no work so the breakdown sums to ~runtime_s.
/// `span_name` is a literal: with tracing and progress off, no name is built.
struct FlowStage {
  FlowStage(const char* span_name, std::vector<StageTiming>& out)
      : span(span_name, "flow"), name(span_name + sizeof("flow.") - 1),
        timings(out) {
    if (obs::progress_enabled()) obs::progress_stage(name);
  }
  ~FlowStage() { timings.push_back(StageTiming{name, timer.seconds()}); }

  const Timer timer;
  const obs::ScopedSpan span;
  const char* const name;
  std::vector<StageTiming>& timings;
};

}  // namespace

CodesignFlow::CodesignFlow(FlowOptions options)
    : options_(std::move(options)) {}

FlowResult CodesignFlow::run(const Package& package) const {
  const Timer timer;
  const obs::ScopedSpan flow_span("flow.run", "flow");
  FlowResult result;
  const auto degrade = [&result](const char* stage, DegradeReason reason,
                                 std::string detail) {
    result.degraded = true;
    result.degrade_events.push_back(
        DegradeEvent{stage, reason, std::move(detail)});
  };
  // Degradations an IR report carries out of the solver (fallback chain
  // engaged, deadline hit, iteration cap hit without convergence).
  const auto note_ir = [&degrade](const char* stage, const IrReport& report) {
    if (report.solver_attempts > 1) {
      degrade(stage, DegradeReason::SolverFallback,
              std::to_string(report.solver_attempts) + " solver attempt(s)");
    }
    if (report.solver_stop == SolveStop::Budget) {
      degrade(stage, DegradeReason::BudgetExpired,
              "solver stopped at its deadline; drop figures are best-so-far");
    } else if (report.solver_stop == SolveStop::IterationLimit) {
      degrade(stage, DegradeReason::SolverUnconverged,
              "solver hit its iteration limit; drop figures are best-so-far");
    }
  };

  // The run-level deadline; per-stage caps derive tighter children below.
  // All-zero budgets produce never-expiring tokens, and unless the run is
  // interruptible they are never even wired into the stages, so the plain
  // library path is untouched. An interruptible run wires the tokens too:
  // they stay limitless but answer the process-wide SIGINT/SIGTERM flag,
  // which never fires in a run that finishes undisturbed -- results are
  // bit-identical either way.
  const FlowBudget& budget = options_.budget;
  CancelToken run_token = budget.total_s > 0.0
                              ? CancelToken::after_seconds(budget.total_s)
                              : CancelToken();
  if (options_.interruptible) run_token.set_interrupt_linked(true);
  const bool cancellable = budget.enabled() || options_.interruptible;

  // Debug-build stage gates: validate the package before planning and the
  // assignment after each step, so a corrupt artifact aborts loudly at
  // the stage that produced it instead of skewing downstream metrics.
  // One incremental CheckEngine serves all three gates: the entry gate
  // scans cold, the post-assign/post-exchange gates dirty only the
  // assignment-derived inputs, so the package-shaped half of the registry
  // is checked once per run instead of once per gate.
  CheckContext check_context;
  check_context.package = &package;
  check_context.grid_spec = options_.grid_spec;
  check_context.solver = options_.solver;
  check_context.stacking = options_.stacking;
  CheckEngine check_engine(CheckEngineOptions{{}, kSelfCheckStages});
  {
    const FlowStage stage("flow.check", result.stage_timings);
    if (options_.self_check) {
      check_engine.run_or_throw(check_context, "flow entry");
    }
  }

  // --- step 1: congestion-driven assignment ------------------------------
  {
    const FlowStage stage("flow.assign", result.stage_timings);
    result.initial = plan_assignment(package, options_.method,
                                     options_.random_seed,
                                     options_.dfa_cut_line_n);
    if (options_.self_check) {
      check_context.assignment = &result.initial;
      check_engine.note_swap();
      check_engine.run_or_throw(check_context, "after assign");
    }
  }

  // The analysis stage run before and after the exchange: density and
  // flyline, the IR solve (a solver failure or injected fault degrades
  // to an empty report), bonding, then the stage record. A non-null
  // `voltage` keeps the solved field.
  const bool has_supply = !package.netlist().supply_nets().empty();
  const auto analyze = [&](const char* span_name,
                           const PackageAssignment& assignment, int& density,
                           double& flyline_um, IrReport& ir,
                           BondingWireReport& bonding,
                           Grid2D<double>* voltage) {
    const FlowStage stage(span_name, result.stage_timings);
    const CancelToken stage_token = run_token.child(budget.analyze_s);
    density = max_density(package, assignment);
    flyline_um = total_flyline_um(package, assignment);
    if (has_supply) {
      SolverOptions solver = options_.solver;
      if (cancellable) solver.cancel = &stage_token;
      try {
        ir = analyze_ir(package, assignment, options_.grid_spec, solver,
                        voltage);
        note_ir(stage.name, ir);
      } catch (const SolverError& error) {
        ir = IrReport{};
        degrade(stage.name, DegradeReason::AnalysisFailed, error.describe());
      } catch (const fault::FaultInjected& error) {
        ir = IrReport{};
        degrade(stage.name, DegradeReason::AnalysisFailed, error.describe());
      }
    }
    bonding = analyze_bonding(package, assignment, options_.stacking);
  };
  analyze("flow.analyze_initial", result.initial, result.max_density_initial,
          result.flyline_initial_um, result.ir_initial, result.bonding_initial,
          nullptr);

  // --- step 2: finger/pad exchange ---------------------------------------
  {
    const FlowStage stage("flow.exchange", result.stage_timings);
    const CancelToken stage_token = run_token.child(budget.exchange_s);
    if (options_.run_exchange) {
      ExchangeOptions exchange_options = options_.exchange;
      exchange_options.grid_spec = options_.grid_spec;
      exchange_options.solver = options_.solver;
      if (cancellable) {
        exchange_options.schedule.cancel = &stage_token;
        exchange_options.solver.cancel = &stage_token;
      }
      const ExchangeOptimizer optimizer(package, exchange_options);
      const int restarts = std::max(1, exchange_options.schedule.restarts);
      try {
        ExchangeResult exchanged =
            restarts > 1
                ? optimizer.optimize_multistart(result.initial, restarts)
                : optimizer.optimize(result.initial);
        result.final = std::move(exchanged.assignment);
        result.anneal = exchanged.anneal;
        if (result.anneal.stop == AnnealStop::BudgetExpired) {
          degrade("exchange", DegradeReason::BudgetExpired,
                  "SA stopped after " +
                      std::to_string(result.anneal.temperature_steps) +
                      " temperature step(s)");
        } else if (result.anneal.stop == AnnealStop::FaultInjected) {
          degrade("exchange", DegradeReason::ExchangeAborted,
                  "injected fault at sa.step");
        }
      } catch (const SolverError& error) {
        // Resilience contract: a solver that dies mid-exchange (exact IR
        // mode) forfeits the optimisation, not the run -- the initial
        // assignment is still a legal, scored result.
        result.final = result.initial;
        degrade("exchange", DegradeReason::ExchangeAborted, error.describe());
      } catch (const fault::FaultInjected& error) {
        result.final = result.initial;
        degrade("exchange", DegradeReason::ExchangeAborted, error.describe());
      }
    } else {
      result.final = result.initial;
    }
    if (options_.self_check) {
      check_context.assignment = &result.final;
      check_engine.note_swap();
      check_engine.run_or_throw(check_context, "after exchange");
    }
  }

  analyze("flow.analyze_final", result.final, result.max_density_final,
          result.flyline_final_um, result.ir_final, result.bonding_final,
          &result.final_voltage);

  // An interrupt is attributed once, at the run level: the stage-level
  // events above already say what was cut short, this one says *why* so
  // the CLI can map the run to the interrupted exit code (5) instead of
  // the plain degraded one (3).
  if (options_.interruptible && sig::interrupted()) {
    degrade("flow", DegradeReason::Interrupted,
            "SIGINT/SIGTERM received; best-so-far results kept");
  }

  result.runtime_s = timer.seconds();
  if (obs::progress_enabled()) obs::progress_finish();
  if (obs::metrics_enabled()) {
    obs::count("flow.runs");
    obs::gauge("flow.max_density", result.max_density_final);
    obs::gauge("flow.max_ir_drop_v", result.ir_final.max_drop_v);
    obs::gauge("flow.omega", result.bonding_final.omega);
    obs::gauge("flow.runtime_s", result.runtime_s);
    obs::gauge("flow.degraded", result.degraded ? 1.0 : 0.0);
    for (const DegradeEvent& event : result.degrade_events) {
      obs::count("flow.degrade." + std::string(to_string(event.reason)));
    }
    for (const StageTiming& stage : result.stage_timings) {
      obs::gauge("flow.stage." + stage.name + "_s", stage.seconds);
    }
  }
  return result;
}

int BatchResult::failed_count() const {
  int failed = 0;
  for (const BatchJobResult& job : jobs) {
    if (!job.ok && !job.skipped()) ++failed;
  }
  return failed;
}

int BatchResult::skipped_count() const {
  int skipped = 0;
  for (const BatchJobResult& job : jobs) {
    if (job.skipped()) ++skipped;
  }
  return skipped;
}

int BatchResult::degraded_count() const {
  int degraded = 0;
  for (const BatchJobResult& job : jobs) {
    if (job.ok && job.result.degraded) ++degraded;
  }
  return degraded;
}

BatchResult run_flow_batch(const Package& package,
                           const std::vector<BatchJob>& jobs) {
  const Timer timer;
  const obs::ScopedSpan span("flow.batch", "flow");
  BatchResult batch;
  batch.jobs.resize(jobs.size());
  // Batch progress counts whole jobs (any order); the per-stage hooks
  // inside CodesignFlow::run would interleave across workers, so they are
  // superseded by one jobs-done counter here.
  std::atomic<long long> completed{0};
  // Each job writes only its own slot; errors are captured per job rather
  // than propagated, so one failing scenario cannot take down a sweep.
  exec::parallel_tasks(jobs.size(), [&](std::size_t i) {
    BatchJobResult& out = batch.jobs[i];
    out.label = jobs[i].label;
    // One span per job, named by slot: a batch trace reads as
    // "flow.batch.job3" blocks fanned across the worker tracks.
    const obs::ScopedSpan job_span("flow.batch.job" + std::to_string(i),
                                   "flow");
    // Graceful-drain contract (docs/ROBUSTNESS.md): once the process has
    // taken a SIGINT/SIGTERM, jobs that have not started yet are skipped
    // outright, unfinished (exit 5) rather than failed -- only the
    // in-flight ones run to their best-so-far end. Without an installed
    // handler the flag can never be set, so plain library batches are
    // unaffected.
    if (sig::interrupted()) {
      out.error = "skipped: batch interrupted before this job started";
      out.exit_code = 5;
      return;
    }
    try {
      out.result = CodesignFlow(jobs[i].options).run(package);
      out.result.final_voltage = {};  // k² doubles the batch never draws
      out.ok = true;
    } catch (const Error& error) {
      out.error = error.describe();
      out.exit_code = exit_code_for(error.code());
    } catch (const std::exception& error) {
      out.error = "[FP-INTERNAL] " + std::string(error.what());
      out.exit_code = 4;
    }
    if (obs::progress_enabled()) {
      obs::progress_tick("batch", completed.fetch_add(1) + 1,
                         static_cast<long long>(batch.jobs.size()));
    }
  });
  if (obs::progress_enabled()) obs::progress_finish();
  batch.runtime_s = timer.seconds();
  if (obs::metrics_enabled()) {
    obs::count("flow.batch.runs");
    obs::count("flow.batch.jobs", static_cast<long long>(batch.jobs.size()));
    obs::gauge("flow.batch.runtime_s", batch.runtime_s);
    obs::gauge("flow.batch.failed", batch.failed_count());
  }
  return batch;
}

void set_flow_option(FlowOptions& options, std::string_view key,
                     std::string_view value) {
  const std::string text(value);
  try {
    if (key == "method") {
      options.method = parse_assignment_method(value);
    } else if (key == "seed") {
      const std::uint64_t seed = static_cast<std::uint64_t>(parse_int(value));
      options.random_seed = seed;
      options.exchange.schedule.seed = seed;
    } else if (key == "restarts") {
      options.exchange.schedule.restarts = static_cast<int>(parse_int(value));
      require(options.exchange.schedule.restarts >= 1,
              "restarts must be >= 1");
    } else if (key == "cut") {
      options.dfa_cut_line_n = static_cast<int>(parse_int(value));
    } else if (key == "mesh") {
      options.grid_spec.nodes_per_side = static_cast<int>(parse_int(value));
    } else if (key == "lambda") {
      options.exchange.lambda = parse_double(value);
    } else if (key == "rho") {
      options.exchange.rho = parse_double(value);
    } else if (key == "phi") {
      options.exchange.phi = parse_double(value);
    } else if (key == "exchange") {
      require(value == "on" || value == "off",
              "exchange must be on or off, got '" + text + "'");
      options.run_exchange = value == "on";
    } else if (key == "budget") {
      options.budget.total_s = parse_double(value);
    } else if (key == "budget-exchange") {
      options.budget.exchange_s = parse_double(value);
    } else if (key == "budget-analyze") {
      options.budget.analyze_s = parse_double(value);
    } else {
      throw InvalidArgument(
          std::string("unknown key '").append(key).append("'"));
    }
  } catch (const IoError&) {
    // parse_int/parse_double report generic malformed-number errors;
    // re-point them at the offending field.
    throw InvalidArgument("malformed value '" + text + "' for key '" +
                          std::string(key) + "'");
  }
}

std::vector<BatchJob> parse_batch_jobs(std::istream& lines,
                                       const FlowOptions& base,
                                       std::string_view source) {
  const auto where = [&](int line) {
    return std::string(source) + " line " + std::to_string(line) + ": ";
  };
  std::vector<BatchJob> jobs;
  // Labels key everything downstream -- batch report rows, jobs/job<i>
  // artifact matching, the farm journal -- so two jobs sharing one label
  // (explicit or generated, e.g. two unlabelled "method=dfa seed=1"
  // lines) are rejected here rather than silently shadowing each other.
  std::map<std::string, int> label_lines;
  std::string text;
  int line_number = 0;
  while (std::getline(lines, text)) {
    ++line_number;
    const std::string_view stripped = trim(text);
    if (stripped.empty() || stripped.front() == '#') continue;
    BatchJob job;
    job.options = base;
    for (const std::string& token : split_ws(stripped)) {
      const std::size_t eq = token.find('=');
      if (eq == std::string::npos) {
        // A bare token is the job's label; only one is allowed.
        if (!job.label.empty()) {
          throw InvalidArgument(where(line_number) + "second label token '" +
                                token + "' (fields must be key=value)");
        }
        job.label = token;
        continue;
      }
      try {
        set_flow_option(job.options, std::string_view(token).substr(0, eq),
                        std::string_view(token).substr(eq + 1));
      } catch (const InvalidArgument& error) {
        throw InvalidArgument(where(line_number) + error.what());
      }
    }
    if (job.label.empty()) {
      job.label = std::string(to_string(job.options.method)) + "/seed=" +
                  std::to_string(
                      static_cast<long long>(job.options.random_seed));
    }
    const auto [it, inserted] = label_lines.emplace(job.label, line_number);
    if (!inserted) {
      throw InvalidArgument(where(line_number) + "duplicate job label '" +
                            job.label + "' (first used on line " +
                            std::to_string(it->second) + ")");
    }
    jobs.push_back(std::move(job));
  }
  require(!jobs.empty(), std::string(source) + " contains no jobs");
  return jobs;
}

std::vector<BatchJob> load_batch_jobs(const std::string& path,
                                      const FlowOptions& base) {
  std::ifstream file(path);
  if (!file) {
    throw IoError("load_batch_jobs: cannot open '" + path + "'");
  }
  return parse_batch_jobs(file, base, "jobs file '" + path + "'");
}

std::string CodesignFlow::summary(const Package& package,
                                  const FlowResult& result) {
  std::string out;
  out += "package '" + package.name() + "': " +
         std::to_string(package.finger_count()) + " finger/pads, " +
         std::to_string(package.netlist().tier_count()) + " tier(s)\n";
  out += "  max density   : " + std::to_string(result.max_density_initial) +
         " -> " + std::to_string(result.max_density_final) + "\n";
  out += "  flyline length: " + format_fixed(result.flyline_initial_um, 1) +
         " -> " + format_fixed(result.flyline_final_um, 1) + " um\n";
  if (result.ir_initial.max_drop_v > 0.0) {
    out += "  max IR-drop   : " +
           format_fixed(result.ir_initial.max_drop_v * 1e3, 1) + " -> " +
           format_fixed(result.ir_final.max_drop_v * 1e3, 1) + " mV  (" +
           format_fixed(result.ir_improvement_percent(), 2) +
           "% improvement)\n";
  }
  out += "  omega         : " + std::to_string(result.bonding_initial.omega) +
         " -> " + std::to_string(result.bonding_final.omega) + "\n";
  out += "  bonding wire  : " +
         format_fixed(result.bonding_initial.total_um, 1) + " -> " +
         format_fixed(result.bonding_final.total_um, 1) + " um\n";
  out += "  runtime       : " + format_fixed(result.runtime_s, 3) + " s\n";
  if (!result.stage_timings.empty()) {
    out += "  stages        :";
    for (const StageTiming& stage : result.stage_timings) {
      out += " " + stage.name + " " + format_fixed(stage.seconds, 3) + " s";
      if (&stage != &result.stage_timings.back()) out += " |";
    }
    out += "\n";
  }
  if (result.degraded) {
    out += "  DEGRADED      : best-effort result (exit code 3)\n";
    for (const DegradeEvent& event : result.degrade_events) {
      out += "    - " + event.stage + ": " +
             std::string(to_string(event.reason));
      if (!event.detail.empty()) out += " (" + event.detail + ")";
      out += "\n";
    }
  }
  return out;
}

}  // namespace fp
