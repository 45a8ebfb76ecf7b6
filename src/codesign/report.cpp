#include "codesign/report.h"

#include "route/cutline.h"
#include "route/design_rules.h"
#include "util/file.h"
#include "util/strings.h"

namespace fp {
namespace {

std::string row(const std::string& metric, const std::string& before,
                const std::string& after) {
  return "| " + metric + " | " + before + " | " + after + " |\n";
}

}  // namespace

std::string write_flow_report(const Package& package,
                              const FlowOptions& options,
                              const FlowResult& result) {
  std::string out = "# fpkit co-design report: " + package.name() + "\n\n";

  out += "## Package\n\n";
  out += "* finger/pads: " + std::to_string(package.finger_count()) + "\n";
  out += "* nets: " + std::to_string(package.netlist().size()) + " (" +
         std::to_string(package.netlist().count(NetType::Power)) +
         " power, " +
         std::to_string(package.netlist().count(NetType::Ground)) +
         " ground)\n";
  out += "* tiers: " + std::to_string(package.netlist().tier_count()) + "\n";
  out += "* quadrants:";
  for (const Quadrant& q : package.quadrants()) {
    out += " " + q.name() + "(";
    for (int r = 0; r < q.row_count(); ++r) {
      if (r) out += "/";
      out += std::to_string(q.bumps_in_row(r));
    }
    out += ")";
  }
  out += "\n\n";

  out += "## Flow\n\n";
  out += "* assignment method: " + std::string(to_string(options.method)) +
         "\n";
  out += "* exchange: " +
         std::string(options.run_exchange ? "enabled" : "disabled") + "\n";
  if (options.run_exchange) {
    out += "* Eq.-(3) weights: lambda " +
           format_fixed(options.exchange.lambda, 1) + ", rho " +
           format_fixed(options.exchange.rho, 1) + ", phi " +
           format_fixed(options.exchange.phi, 1) + "\n";
    out += "* annealing: " + std::to_string(result.anneal.proposed) +
           " proposed, " + std::to_string(result.anneal.accepted) +
           " accepted, " + std::to_string(result.anneal.rejected_illegal) +
           " illegal, " + std::to_string(result.anneal.temperature_steps) +
           " temperature steps\n";
  }
  out += "* runtime: " + format_fixed(result.runtime_s, 3) + " s\n\n";

  if (result.degraded) {
    out += "## Degraded result\n\n";
    out += "This run delivered best-effort rather than full-quality "
           "results (docs/ROBUSTNESS.md); the assignments are legal but "
           "the figures below may be conservative.\n\n";
    for (const DegradeEvent& event : result.degrade_events) {
      out += "* " + event.stage + ": " +
             std::string(to_string(event.reason));
      if (!event.detail.empty()) out += " — " + event.detail;
      out += "\n";
    }
    out += "\n";
  }

  if (!result.stage_timings.empty()) {
    out += "## Stage timings\n\n";
    out += "| stage | seconds | share |\n";
    out += "|---|---|---|\n";
    for (const StageTiming& stage : result.stage_timings) {
      const double share = result.runtime_s > 0.0
                               ? stage.seconds / result.runtime_s * 100.0
                               : 0.0;
      out += row(stage.name, format_fixed(stage.seconds, 3) + " s",
                 format_fixed(share, 1) + "%");
    }
    out += "\n";
  }

  out += "## Metrics\n\n";
  out += "| metric | after assignment | after exchange |\n";
  out += "|---|---|---|\n";
  out += row("max density", std::to_string(result.max_density_initial),
             std::to_string(result.max_density_final));
  out += row("flyline wirelength (um)",
             format_fixed(result.flyline_initial_um, 1),
             format_fixed(result.flyline_final_um, 1));
  if (result.ir_initial.max_drop_v > 0.0) {
    out += row("max IR-drop (mV)",
               format_fixed(result.ir_initial.max_drop_v * 1e3, 2),
               format_fixed(result.ir_final.max_drop_v * 1e3, 2) + " (" +
                   format_fixed(result.ir_improvement_percent(), 1) +
                   "% better)");
  }
  out += row("omega", std::to_string(result.bonding_initial.omega),
             std::to_string(result.bonding_final.omega));
  out += row("bonding wire (um)",
             format_fixed(result.bonding_initial.total_um, 1),
             format_fixed(result.bonding_final.total_um, 1));
  out += row("bonding crossings",
             std::to_string(result.bonding_initial.crossings),
             std::to_string(result.bonding_final.crossings));
  out += "\n";

  out += "## Sign-off checks\n\n";
  const DrcReport drc = check_design_rules(package, result.final);
  out += "* DRC: " +
         std::string(drc.clean() ? "clean" : "VIOLATIONS") + " (" +
         std::to_string(drc.violations.size()) + " gaps over capacity " +
         std::to_string(drc.min_gap_capacity) + ", overflow " +
         std::to_string(drc.total_overflow) + ")\n";
  const CutLineReport cutline = analyze_cut_lines(package, result.final);
  out += "* cut-line congestion: max " +
         std::to_string(cutline.max_density) + " (boundaries";
  for (const int b : cutline.boundary_max) {
    out += ' ';
    out += std::to_string(b);
  }
  out += ")\n";
  return out;
}

void save_flow_report(const Package& package, const FlowOptions& options,
                      const FlowResult& result, const std::string& path) {
  write_file_atomic(path, write_flow_report(package, options, result));
}

obs::Json flow_options_to_json(const FlowOptions& options) {
  obs::Json doc = obs::Json::object();
  doc.set("method", obs::Json::string(std::string(to_string(options.method))));
  doc.set("seed", obs::Json::number(
                      static_cast<long long>(options.random_seed)));
  doc.set("dfa_cut_line_n",
          obs::Json::number(static_cast<long long>(options.dfa_cut_line_n)));
  doc.set("run_exchange", obs::Json::boolean(options.run_exchange));
  doc.set("mesh", obs::Json::number(static_cast<long long>(
                      options.grid_spec.nodes_per_side)));
  doc.set("self_check", obs::Json::boolean(options.self_check));

  obs::Json exchange = obs::Json::object();
  exchange.set("lambda", obs::Json::number(options.exchange.lambda));
  exchange.set("rho", obs::Json::number(options.exchange.rho));
  exchange.set("phi", obs::Json::number(options.exchange.phi));
  const SaSchedule& sa = options.exchange.schedule;
  exchange.set("initial_temperature",
               obs::Json::number(sa.initial_temperature));
  exchange.set("final_temperature", obs::Json::number(sa.final_temperature));
  exchange.set("cooling", obs::Json::number(sa.cooling));
  exchange.set("moves_per_temperature",
               obs::Json::number(
                   static_cast<long long>(sa.moves_per_temperature)));
  exchange.set("restarts",
               obs::Json::number(static_cast<long long>(sa.restarts)));
  doc.set("exchange", std::move(exchange));

  obs::Json budget = obs::Json::object();
  budget.set("total_s", obs::Json::number(options.budget.total_s));
  budget.set("exchange_s", obs::Json::number(options.budget.exchange_s));
  budget.set("analyze_s", obs::Json::number(options.budget.analyze_s));
  doc.set("budget", std::move(budget));
  return doc;
}

void fill_run_manifest(obs::RunManifest& manifest, const FlowOptions& options,
                       const FlowResult& result) {
  manifest.options = flow_options_to_json(options);
  // Every seed the run consumed: the base seed, then one per extra SA
  // replica (optimize_multistart seeds replica i with seed + i).
  manifest.seeds.push_back(options.random_seed);
  for (int i = 1; i < options.exchange.schedule.restarts; ++i) {
    manifest.seeds.push_back(options.exchange.schedule.seed +
                             static_cast<std::uint64_t>(i));
  }
  manifest.stages = result.stage_timings;
  for (const DegradeEvent& event : result.degrade_events) {
    manifest.events.push_back(obs::ManifestEvent{
        event.stage, std::string(to_string(event.reason)), event.detail});
  }
  // Headline results: numeric, so `fpkit compare` diffs them pairwise.
  // Names avoid the timing suffixes (_s/_us) except runtime_s, which is
  // deliberately a timing quantity (gated by --max-slowdown, never by
  // equality).
  auto& r = manifest.results;
  r["max_density_initial"] = result.max_density_initial;
  r["max_density_final"] = result.max_density_final;
  r["flyline_initial_um"] = result.flyline_initial_um;
  r["flyline_final_um"] = result.flyline_final_um;
  r["ir_drop_initial_v"] = result.ir_initial.max_drop_v;
  r["ir_drop_final_v"] = result.ir_final.max_drop_v;
  r["ir_drop_mean_initial_v"] = result.ir_initial.mean_drop_v;
  r["ir_drop_mean_final_v"] = result.ir_final.mean_drop_v;
  r["ir_improvement_percent"] = result.ir_improvement_percent();
  r["solver_iterations_final"] = result.ir_final.solver_iterations;
  r["solver_attempts_final"] = result.ir_final.solver_attempts;
  r["omega_initial"] = result.bonding_initial.omega;
  r["omega_final"] = result.bonding_final.omega;
  r["bonding_final_um"] = result.bonding_final.total_um;
  r["sa_final_cost"] = result.anneal.final_cost;
  r["sa_best_cost"] = result.anneal.best_cost;
  r["sa_temperature_steps"] = result.anneal.temperature_steps;
  r["degraded"] = result.degraded ? 1.0 : 0.0;
  r["runtime_s"] = result.runtime_s;
}

namespace {

obs::RunManifest labelled_job(const std::string& label) {
  obs::RunManifest manifest;
  manifest.subcommand = "batch-job";
  manifest.version = std::string(obs::kToolVersion);
  manifest.extra = obs::Json::object();
  manifest.extra.set("label", obs::Json::string(label));
  return manifest;
}

}  // namespace

obs::RunManifest job_manifest(const std::string& label,
                              const FlowOptions& options,
                              const FlowResult& result) {
  obs::RunManifest manifest = labelled_job(label);
  fill_run_manifest(manifest, options, result);
  manifest.exit_code = result.exit_code();
  return manifest;
}

obs::RunManifest job_manifest(const std::string& label,
                              const std::string& error, int exit_code) {
  obs::RunManifest manifest = labelled_job(label);
  manifest.extra.set("error", obs::Json::string(error));
  manifest.exit_code = exit_code;
  return manifest;
}

void fill_batch_manifest(obs::RunManifest& manifest,
                         const FlowOptions& base_options,
                         const BatchResult& batch) {
  manifest.options = flow_options_to_json(base_options);
  auto& r = manifest.results;
  r["jobs"] = static_cast<double>(batch.jobs.size());
  r["jobs_failed"] = batch.failed_count();
  r["jobs_degraded"] = batch.degraded_count();
  r["runtime_s"] = batch.runtime_s;
  // One summary block per job under "extra"; the full per-job story lives
  // in each job's own artifact subdirectory.
  obs::Json jobs = obs::Json::array();
  for (const BatchJobResult& job : batch.jobs) {
    obs::Json entry = obs::Json::object();
    entry.set("label", obs::Json::string(job.label));
    entry.set("ok", obs::Json::boolean(job.ok));
    if (!job.ok) {
      entry.set("error", obs::Json::string(job.error));
    } else {
      entry.set("degraded", obs::Json::boolean(job.result.degraded));
      entry.set("max_density",
                obs::Json::number(static_cast<long long>(
                    job.result.max_density_final)));
      entry.set("ir_drop_v",
                obs::Json::number(job.result.ir_final.max_drop_v));
      entry.set("omega", obs::Json::number(static_cast<long long>(
                             job.result.bonding_final.omega)));
      entry.set("sa_final_cost",
                obs::Json::number(job.result.anneal.final_cost));
      entry.set("runtime_s", obs::Json::number(job.result.runtime_s));
    }
    jobs.push(std::move(entry));
  }
  obs::Json extra = obs::Json::object();
  extra.set("batch_jobs", std::move(jobs));
  manifest.extra = std::move(extra);
}

}  // namespace fp
