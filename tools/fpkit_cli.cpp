// fpkit -- command line driver for the finger/pad planning flow.
//
// kCommands, near the end of this file, is the one statement of the
// command line: each subcommand's handler, flags, and signal and
// flight-recorder policies. `fpkit` without arguments prints it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>

#include "analysis/check.h"
#include "analysis/config.h"
#include "analysis/engine.h"
#include "analysis/sarif.h"
#include "assign/assigner.h"
#include "codesign/flow.h"
#include "codesign/report.h"
#include "exec/exec.h"
#include "farm/farm.h"
#include "farm/journal.h"
#include "io/assignment_file.h"
#include "io/circuit_file.h"
#include "obs/artifact.h"
#include "obs/dash.h"
#include "obs/json.h"
#include "obs/merge.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "package/circuit_generator.h"
#include "power/ir_analysis.h"
#include "power/spice_export.h"
#include "route/design_rules.h"
#include "route/render.h"
#include "route/router.h"
#include "session/serve.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/faultpoint.h"
#include "util/file.h"
#include "util/signal.h"
#include "util/strings.h"
#include "util/timer.h"

namespace {

using namespace fp;

/// Flags every subcommand takes: parallelism, observability and faults.
constexpr Flag kCommonFlags[] = {
    {"threads", "N", "threads; 0 or bare = all cores [env FPKIT_THREADS]"},
    {"trace", "<t.json>",
     "Chrome span trace for Perfetto [env FPKIT_TRACE]"},
    {"metrics", "<m.json>", "counters/gauges/histograms snapshot"},
    {"artifact-dir", "<dir>",
     "manifest+metrics+trace recorder [env FPKIT_ARTIFACT_DIR]"},
    {"progress", "", "live stage/percent/ETA on stderr [env FPKIT_PROGRESS]"},
    {"inject", "<spec>",
     "faults, e.g. solver.step:after=3 [env FPKIT_FAULTS]"},
};

/// Flags of the flow subcommands. Each one is a set_flow_option key
/// (--no-exchange is exchange=off) applied over FlowOptions{}; farm.json
/// records the forwarded ones in this order.
constexpr Flag kFlowFlags[] = {
    {"method", "random|ifa|dfa", "assignment method"},
    {"seed", "S", "random-assignment and SA seed"},
    {"restarts", "N", "independent SA replicas; the best final cost wins"},
    {"mesh", "K", "Eq.-(1) power mesh nodes per side"},
    {"lambda", "L", "Eq.-(3) IR-drop weight"},
    {"rho", "R", "Eq.-(3) density weight"},
    {"phi", "P", "Eq.-(3) bonding-wire weight"},
    {"budget", "S", "whole-run wall-clock budget in seconds"},
    {"budget-exchange", "S", "wall-clock cap of the SA exchange"},
    {"budget-analyze", "S", "wall-clock cap of each IR analysis"},
    {"no-exchange", "", "assignment only: skip the SA exchange"},
};

/// Run-artifact flight recorder (docs/ARTIFACTS.md). Armed by
/// --artifact-dir or FPKIT_ARTIFACT_DIR; the subcommand handlers fill the
/// manifest (codesign/report.h fillers) and main() publishes the
/// directory once the exit code and wall time are known -- on the error
/// path too, so a failing run still leaves its flight recording behind.
struct ArtifactState {
  std::string dir;  // empty = disabled
  obs::RunManifest manifest;
  /// Per-batch-job artifacts: (subdirectory below dir, manifest). Jobs
  /// carry only a manifest -- metrics and trace are process-wide and live
  /// in the parent artifact.
  std::vector<std::pair<std::string, obs::RunManifest>> jobs;

  [[nodiscard]] bool active() const { return !dir.empty(); }
};

ArtifactState g_artifact;

Package load_input(const ArgParser& args) {
  require(!args.positional().empty(), "missing circuit file argument");
  return load_circuit(args.positional().front());
}

FlowOptions flow_options(const ArgParser& args) {
  FlowOptions options;
  for (const Flag& flag : kFlowFlags) {
    if (!args.has(flag.name)) continue;
    if (flag.name == "no-exchange") {
      set_flow_option(options, "exchange", "off");
    } else {
      set_flow_option(options, flag.name, args.get_string(flag.name, ""));
    }
  }
  // Every CLI flow answers SIGINT/SIGTERM with a keep-best-so-far drain
  // (docs/ROBUSTNESS.md). The flag is inert unless main() installed the
  // graceful handler for this subcommand.
  options.interruptible = true;
  return options;
}

/// The run's exit code (FlowResult::exit_code), plus a stderr note so
/// scripted callers notice a degraded or interrupted run.
int flow_exit(const FlowResult& result) {
  const int code = result.exit_code();
  if (code == 5) {
    std::fprintf(stderr,
                 "fpkit: interrupted; best-so-far results kept "
                 "(exit code 5)\n");
  } else if (code == 3) {
    std::fprintf(stderr,
                 "fpkit: degraded result (%zu event(s); exit code 3)\n",
                 result.degrade_events.size());
  }
  return code;
}

int cmd_generate(const ArgParser& args) {
  const int table1 = static_cast<int>(args.get_int("table1", 1));
  CircuitSpec spec = CircuitGenerator::table1(table1 - 1);
  spec.tier_count = static_cast<int>(args.get_int("tiers", 1));
  spec.seed = static_cast<std::uint64_t>(
      args.get_int("seed", static_cast<std::int64_t>(spec.seed)));
  spec.supply_fraction = args.get_double("supply", spec.supply_fraction);
  const std::string out = args.get_string("out", "");
  require(!out.empty(), "generate: --out <file.fp> is required");
  const Package package = CircuitGenerator::generate(spec);
  save_circuit(package, out);
  std::printf("wrote %s: %d finger/pads, %d tiers, %zu supply nets\n",
              out.c_str(), package.finger_count(),
              package.netlist().tier_count(),
              package.netlist().supply_nets().size());
  return 0;
}

int cmd_info(const ArgParser& args) {
  const Package package = load_input(args);
  if (args.has("lint")) {
    // The Package and Stacking stages: all a bare package can show.
    CheckContext context;
    context.package = &package;
    const CheckReport report = run_checks(context);
    std::printf("%s", report.to_string().c_str());
    return report.passed() ? 0 : 1;
  }
  std::printf("circuit '%s'\n", package.name().c_str());
  std::printf("  finger/pads : %d\n", package.finger_count());
  std::printf("  nets        : %zu (%zu power, %zu ground)\n",
              package.netlist().size(),
              package.netlist().count(NetType::Power),
              package.netlist().count(NetType::Ground));
  std::printf("  tiers       : %d\n", package.netlist().tier_count());
  std::printf("  quadrants   : %d\n", package.quadrant_count());
  for (const Quadrant& q : package.quadrants()) {
    std::printf("    %-8s rows:", q.name().c_str());
    for (int r = 0; r < q.row_count(); ++r) {
      std::printf(" %d", q.bumps_in_row(r));
    }
    std::printf("  (outermost first)\n");
  }
  return 0;
}

/// The assignment `route` and `check` work on: the --assignment file when
/// given, else the flow's assignment step alone. Both are sign-off passes,
/// not optimisation runs: no exchange, no IR solve.
PackageAssignment stored_or_planned(const ArgParser& args,
                                    const Package& package,
                                    const FlowOptions& options) {
  const std::string stored = args.get_string("assignment", "");
  if (!stored.empty()) return load_assignment(stored, package);
  return plan_assignment(package, options.method, options.random_seed,
                         options.dfa_cut_line_n);
}

int cmd_run(const ArgParser& args) {
  const Package package = load_input(args);
  const FlowOptions options = flow_options(args);
  const FlowResult result = CodesignFlow(options).run(package);
  if (g_artifact.active()) {
    fill_run_manifest(g_artifact.manifest, options, result);
  }
  std::printf("%s", CodesignFlow::summary(package, result).c_str());
  const DrcReport drc = check_design_rules(package, result.final);
  std::printf("  DRC           : %zu violating gaps, overflow %d "
              "(gap capacity %d)\n",
              drc.violations.size(), drc.total_overflow,
              drc.min_gap_capacity);
  const std::string out = args.get_string("out-assignment", "");
  if (!out.empty()) {
    save_assignment(package, result.final, out);
    std::printf("wrote %s\n", out.c_str());
  }
  const std::string report = args.get_string("report", "");
  if (!report.empty()) {
    save_flow_report(package, options, result, report);
    std::printf("wrote %s\n", report.c_str());
  }
  // The deck and the heat map show the final assignment's mesh; the map
  // draws the field the run's final analysis solved.
  const std::string spice = args.get_string("spice", "");
  const std::string heatmap = args.get_string("heatmap", "");
  if (!spice.empty() || !heatmap.empty()) {
    PowerGrid grid(options.grid_spec);
    grid.set_pads(PadRing(package, grid.k()).supply_nodes(result.final));
    if (!spice.empty()) {
      save_spice_deck(grid, spice, "fpkit " + package.name() + " power mesh");
      std::printf("wrote %s (%d x %d mesh, %zu pads)\n", spice.c_str(),
                  grid.k(), grid.k(), grid.pads().size());
    }
    if (!heatmap.empty()) {
      require(!result.final_voltage.empty(),
              "run --heatmap: no IR-drop field to draw: " +
                  std::string(package.netlist().supply_nets().empty()
                                  ? "the circuit has no supply nets"
                                  : "the final IR analysis failed"));
      save_ir_heatmap_svg(grid, result.final_voltage, package.name(),
                          heatmap);
      std::printf("wrote %s\n", heatmap.c_str());
    }
  }
  return flow_exit(result);
}

int cmd_route(const ArgParser& args) {
  const Package package = load_input(args);
  const FlowOptions options = flow_options(args);
  const PackageAssignment assignment =
      stored_or_planned(args, package, options);
  const PackageRoute route = MonotonicRouter().route(package, assignment);
  std::printf("method %s: max density %d, flyline %.1f um, routed %.1f um\n",
              std::string(to_string(options.method)).c_str(),
              route.max_density, route.total_flyline_um,
              route.total_routed_um);
  const std::string package_svg = args.get_string("package-svg", "");
  if (!package_svg.empty()) {
    save_package_route_svg(package, route, package.name(), package_svg);
    std::printf("wrote %s\n", package_svg.c_str());
  }
  const std::string prefix = args.get_string("svg-prefix", "");
  if (!prefix.empty()) {
    for (int qi = 0; qi < package.quadrant_count(); ++qi) {
      const std::string path = prefix + "_" +
                               package.quadrant(qi).name() + ".svg";
      save_quadrant_route_svg(
          package.quadrant(qi), route.quadrants[static_cast<std::size_t>(qi)],
          package.name() + " " + package.quadrant(qi).name(), path);
      std::printf("wrote %s\n", path.c_str());
    }
  }
  return 0;
}

/// Renders a rule's declared input set ("geometry+drc") for --list-rules.
std::string inputs_text(CheckInputSet inputs) {
  static constexpr std::pair<CheckInputSet, const char*> kNames[] = {
      {check_inputs::kGeometry, "geometry"},
      {check_inputs::kNetlist, "netlist"},
      {check_inputs::kAssignment, "assignment"},
      {check_inputs::kRoutes, "routes"},
      {check_inputs::kPowerMesh, "power-mesh"},
      {check_inputs::kStacking, "stacking"},
      {check_inputs::kDrc, "drc"},
      {check_inputs::kRunConfig, "run-config"},
  };
  std::string out;
  for (const auto& [bit, name] : kNames) {
    if ((inputs & bit) == 0) continue;
    if (!out.empty()) out += '+';
    out += name;
  }
  return out;
}

/// The environment overrides that change behaviour (as opposed to the
/// observability-only FPKIT_TRACE/FPKIT_ARTIFACT_DIR), flagged by DET-004.
constexpr const char* kBehaviourEnv[] = {"FPKIT_THREADS", "FPKIT_FAULTS"};

/// DeterminismInfo for the live process: the configuration `fpkit check`
/// itself was invoked with.
DeterminismInfo live_determinism(const ArgParser& args,
                                 const FlowOptions& options) {
  DeterminismInfo det;
  det.seed = options.random_seed;
  det.seed_explicit = args.has("seed");
  det.randomized_method = options.method == AssignmentMethod::Random;
  det.threads = exec::default_threads();
  det.threads_from_machine =
      args.has("threads") && args.get_int("threads", 0) == 0;
  if (const char* env = std::getenv("FPKIT_THREADS")) {
    if (!args.has("threads") && std::string(env) == "0") {
      det.threads_from_machine = true;
    }
  }
  det.budget_enabled = options.budget.enabled();
  for (const fault::SiteStatus& site : fault::status()) {
    det.armed_faults.push_back(site.site);
  }
  for (const char* name : kBehaviourEnv) {
    if (std::getenv(name) != nullptr) det.env_overrides.emplace_back(name);
  }
  return det;
}

/// DeterminismInfo reconstructed from a recorded fpkit.run.v1 manifest
/// (`fpkit check --audit-run <dir>`): audits the run that already
/// happened instead of this process.
DeterminismInfo audit_determinism(const std::string& dir) {
  const obs::LoadedArtifact artifact = obs::load_run_artifact(dir);
  const obs::RunManifest& manifest = artifact.manifest;
  DeterminismInfo det;
  det.audited = true;
  det.audited_degraded = !manifest.events.empty();
  det.audited_exit_code = manifest.exit_code;
  det.threads = manifest.threads;
  // A recorded seed is pinned by definition; DET-005 audits the *live*
  // invocation, not the flight recording.
  det.seed_explicit = true;
  if (!manifest.seeds.empty()) det.seed = manifest.seeds.front();
  for (const obs::ManifestFault& fault : manifest.faults) {
    det.armed_faults.push_back(fault.site);
  }
  if (det.armed_faults.empty() && !manifest.fault_spec.empty()) {
    det.armed_faults.push_back(manifest.fault_spec);
  }
  for (const char* name : kBehaviourEnv) {
    if (manifest.env.find(name) != manifest.env.end()) {
      det.env_overrides.emplace_back(name);
    }
  }
  if (const obs::Json* method = manifest.options.find("method")) {
    det.randomized_method =
        method->is_string() && method->as_string() == "random";
  }
  if (const obs::Json* budget = manifest.options.find("budget")) {
    for (const char* key : {"total_s", "exchange_s", "analyze_s"}) {
      const obs::Json* value = budget->find(key);
      if (value != nullptr && value->is_number() &&
          value->as_number() > 0.0) {
        det.budget_enabled = true;
      }
    }
  }
  return det;
}

int cmd_check(const ArgParser& args) {
  if (args.has("list-rules")) {
    for (const CheckRule& rule : check_rules()) {
      std::printf("%-10s %-12s %-7s %-28s %s\n",
                  std::string(rule.id()).c_str(),
                  std::string(to_string(rule.stage())).c_str(),
                  std::string(to_string(rule.severity())).c_str(),
                  inputs_text(rule.inputs()).c_str(),
                  std::string(rule.summary()).c_str());
    }
    return 0;
  }

  const std::string format =
      args.get_string("format", args.has("json") ? "json" : "text");
  require(format == "text" || format == "json" || format == "sarif",
          "check: --format must be text, json or sarif");

  // Severity/waiver policy: --config <file>, or ./.fpkit-check.json when
  // present (--no-config opts out of the implicit load).
  CheckEngineOptions engine_options;
  const std::string config_path = args.get_string("config", "");
  if (!config_path.empty()) {
    engine_options.config = load_check_config(config_path);
  } else if (!args.has("no-config")) {
    if (std::ifstream probe(".fpkit-check.json"); probe.good()) {
      engine_options.config = load_check_config(".fpkit-check.json");
    }
  }

  const Package package = load_input(args);
  const FlowOptions options = flow_options(args);

  CheckContext context;
  context.package = &package;
  context.grid_spec = options.grid_spec;
  context.solver = options.solver;
  context.stacking = options.stacking;

  // Determinism audit (DET-*): the live configuration by default, a
  // recorded run manifest with --audit-run.
  const std::string audit_dir = args.get_string("audit-run", "");
  const DeterminismInfo det = audit_dir.empty()
                                  ? live_determinism(args, options)
                                  : audit_determinism(audit_dir);
  context.determinism = &det;

  const PackageAssignment assignment =
      stored_or_planned(args, package, options);
  context.assignment = &assignment;

  // Materialise routes and the planned vias so the artifact
  // cross-validation rules (ROUTE-003/004/005) have something to check.
  // An illegal assignment makes the router throw; check still runs so
  // the ASSIGN-* rules report the violation by rule id instead.
  PackageRoute route;
  PackageViaPlan via_plan;
  try {
    route = MonotonicRouter().route(package, assignment);
    context.route = &route;
    via_plan = plan_vias(package, assignment);
    context.via_plan = &via_plan;
  } catch (const Error&) {
    context.route = nullptr;
    context.via_plan = nullptr;
  }

  CheckEngine engine(engine_options);
  const CheckReport report = engine.run(context);

  // The baseline ratchet: exit on *new* findings only, mirroring the
  // `fpkit compare` gate (0 clean / 3 new findings / 2 bad input).
  const std::string baseline_dir = args.get_string("baseline", "");
  CheckBaselineDiff baseline_diff;
  if (!baseline_dir.empty()) {
    baseline_diff =
        diff_check_baseline(report, load_check_baseline(baseline_dir));
  }

  if (g_artifact.active()) {
    g_artifact.manifest.options = flow_options_to_json(options);
    g_artifact.manifest.seeds.push_back(options.random_seed);
    auto& results = g_artifact.manifest.results;
    results["check_rules_run"] = report.rules_run;
    results["check_errors"] = static_cast<double>(report.error_count());
    results["check_warnings"] = static_cast<double>(report.warning_count());
    results["check_waived"] = static_cast<double>(report.waived_count());
    results["check_rules_executed"] =
        static_cast<double>(engine.stats().last_executed);
    results["check_cache_hits"] =
        static_cast<double>(engine.stats().last_cache_hits);
    if (!baseline_dir.empty()) {
      results["check_new_findings"] =
          static_cast<double>(baseline_diff.new_findings.size());
    }
    obs::Json extra = obs::Json::object();
    extra.set("check", check_report_to_json(report));
    g_artifact.manifest.extra = std::move(extra);
  }

  const std::string rendered =
      format == "json"
          ? report.to_json()
          : format == "sarif"
                ? check_report_to_sarif(report, args.positional().front())
                          .dump() +
                      "\n"
                : report.to_string(args.has("waived"));
  // --out always writes a machine format (SARIF when selected, else the
  // canonical check JSON), independent of what stdout shows.
  const std::string out_path = args.get_string("out", "");
  if (!out_path.empty()) {
    write_file_atomic(out_path,
                      format == "sarif" ? rendered : report.to_json());
    std::printf("wrote %s\n", out_path.c_str());
  }
  std::printf("%s", rendered.c_str());

  if (!baseline_dir.empty()) {
    std::printf("%s", baseline_diff.to_string().c_str());
    if (!baseline_diff.clean()) {
      std::fprintf(stderr,
                   "fpkit check: %zu new finding(s) vs baseline "
                   "(exit code 3)\n",
                   baseline_diff.new_findings.size());
      return 3;
    }
    return 0;
  }
  // --strict also fails on warnings; waived findings never gate.
  const bool failed =
      !report.passed() ||
      (args.has("strict") &&
       report.error_count() + report.warning_count() > 0);
  return failed ? 1 : 0;
}

/// `fpkit batch`: either a --jobs-file job list or the methods x seeds
/// cross product of one base option set, fanned out over the worker pool
/// via run_flow_batch. Job order -- and therefore output order -- follows
/// the file / is methods-major, and is thread-count independent.
int cmd_batch(const ArgParser& args) {
  const Package package = load_input(args);
  const FlowOptions base = flow_options(args);

  std::vector<BatchJob> jobs;
  const std::string jobs_file = args.get_string("jobs-file", "");
  if (!jobs_file.empty()) {
    require(!args.has("methods") && !args.has("seeds"),
            "batch: --jobs-file excludes --methods/--seeds");
    jobs = load_batch_jobs(jobs_file, base);
  } else {
    // The methods x seeds cross product, one jobs-file line per job, so
    // both paths share method names, labels and the duplicate check.
    std::string lines;
    const std::string seeds = args.get_string(
        "seeds", std::to_string(static_cast<long long>(base.random_seed)));
    for (const std::string& method :
         split(args.get_string("methods", "dfa"), ',')) {
      for (const std::string& seed : split(seeds, ',')) {
        lines.append("method=").append(trim(method));
        lines.append(" seed=").append(trim(seed)).append("\n");
      }
    }
    std::istringstream in(lines);
    jobs = parse_batch_jobs(in, base, "--methods/--seeds");
  }

  const BatchResult batch = run_flow_batch(package, jobs);
  if (g_artifact.active()) {
    fill_batch_manifest(g_artifact.manifest, base, batch);
    for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
      g_artifact.jobs.emplace_back("jobs/job" + std::to_string(i),
                                   job_manifest(jobs[i], batch.jobs[i]));
    }
  }
  std::printf("batch: %zu job(s) on %d thread(s), %.3f s\n",
              batch.jobs.size(), exec::default_threads(), batch.runtime_s);
  std::printf("  %-16s %-8s %9s %12s %6s %9s\n", "job", "status",
              "density", "IR-drop(mV)", "omega", "runtime");
  for (const BatchJobResult& job : batch.jobs) {
    if (!job.ok) {
      std::printf("  %-16s %-8s %s\n", job.label.c_str(),
                  job.skipped() ? "skipped" : "FAILED",
                  job.error.c_str());
      continue;
    }
    std::printf("  %-16s %-8s %9d %12.2f %6d %8.3fs\n", job.label.c_str(),
                job.result.degraded ? "degraded" : "ok",
                job.result.max_density_final,
                job.result.ir_final.max_drop_v * 1e3,
                job.result.bonding_final.omega, job.result.runtime_s);
  }
  // Graceful drain: in-flight jobs kept their best-so-far results and
  // every artifact was still written; skipped jobs are unfinished and say
  // so in their error text. Interruption outranks the failed/degraded
  // codes.
  const int code = sweep_exit_code(
      sig::interrupted(), static_cast<std::size_t>(batch.failed_count()),
      static_cast<std::size_t>(batch.skipped_count()),
      static_cast<std::size_t>(batch.degraded_count()));
  if (code == 5) {
    std::fprintf(stderr,
                 "fpkit: batch interrupted; artifacts flushed "
                 "(exit code 5)\n");
  } else if (code == 4) {
    std::fprintf(stderr, "fpkit: %d batch job(s) failed (exit code 4)\n",
                 batch.failed_count());
  } else if (code == 3) {
    std::fprintf(stderr, "fpkit: degraded batch result (exit code 3)\n");
  }
  return code;
}

/// The fpkit binary itself, for the farm's self-exec'd workers. argv[0]
/// may be a bare "fpkit" found via PATH, so prefer the kernel's record.
std::string g_argv0;

std::string self_exe_path() {
  std::error_code ec;
  const std::filesystem::path exe =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec) return exe.string();
  return g_argv0;
}

/// The base flow flags a farm supervisor forwards to every worker, in
/// --flag=value form (a switch as --flag=1). Recorded in farm.json so
/// --resume re-creates identical workers without re-parsing the original
/// command line.
std::vector<std::string> forwarded_flow_flags(const ArgParser& args) {
  std::vector<std::string> flags;
  for (const Flag& flag : kFlowFlags) {
    if (!args.has(flag.name)) continue;
    flags.push_back(std::string("--").append(flag.name).append("=").append(
        flag.arg.empty() ? "1" : args.get_string(flag.name, "")));
  }
  return flags;
}

void print_farm_outcome(const farm::FarmOutcome& outcome,
                        const std::string& dir) {
  std::printf("farm: %zu job(s): %zu ok, %zu degraded, %zu failed | "
              "%lld retrie(s), %lld crash(es), %lld timeout(s) | %.3f s\n",
              outcome.jobs, outcome.done - outcome.degraded,
              outcome.degraded, outcome.failed, outcome.retries,
              outcome.crashes, outcome.timeouts, outcome.runtime_s);
  std::printf("wrote farm artifact %s\n", dir.c_str());
  if (outcome.exit_code == 5) {
    std::fprintf(stderr,
                 "fpkit farm: interrupted; journal flushed -- finish with "
                 "`fpkit farm --resume %s` (exit code 5)\n",
                 dir.c_str());
  } else if (outcome.exit_code == 4) {
    std::fprintf(stderr, "fpkit farm: %zu job(s) failed (exit code 4)\n",
                 outcome.failed);
  } else if (outcome.exit_code == 3) {
    std::fprintf(stderr, "fpkit farm: degraded result (exit code 3)\n");
  }
}

/// `fpkit farm`: the crash-contained multi-process batch
/// (docs/ROBUSTNESS.md). Three entry modes share the subcommand: the
/// supervisor (fresh farm), `--resume <dir>` (finish an interrupted or
/// killed farm) and `--worker` (one self-exec'd job; internal).
int cmd_farm(const ArgParser& args) {
  if (args.has("worker")) {
    farm::WorkerOptions worker;
    require(!args.positional().empty(),
            "farm --worker: missing circuit file argument");
    worker.circuit = args.positional().front();
    worker.jobs_file = args.get_string("jobs-file", "");
    require(!worker.jobs_file.empty(),
            "farm --worker: --jobs-file is required");
    worker.job_index = static_cast<int>(args.get_int("job-index", -1));
    worker.out_dir = args.get_string("job-out", "");
    require(!worker.out_dir.empty(), "farm --worker: --job-out is required");
    worker.heartbeat_path = args.get_string("heartbeat-file", "");
    worker.base = flow_options(args);
    return farm::run_farm_worker(worker);
  }
  if (args.has("resume")) {
    const std::string dir = args.get_string("resume", "");
    require(!dir.empty(), "farm: --resume needs the farm directory");
    const farm::FarmOutcome outcome = farm::resume_farm(self_exe_path(), dir);
    print_farm_outcome(outcome, dir);
    return outcome.exit_code;
  }

  require(!args.positional().empty(), "farm: missing circuit file argument");
  farm::FarmOptions options;
  options.exe = self_exe_path();
  options.dir = args.get_string("out", "");
  require(!options.dir.empty(), "farm: --out <dir> is required");
  farm::FarmHeader& header = options.header;
  header.circuit = args.positional().front();
  header.jobs_file = args.get_string("jobs-file", "");
  require(!header.jobs_file.empty(), "farm: --jobs-file is required");
  // Parse the jobs file up front: label list for the journal header, and
  // any malformed line or duplicate label fails fast (exit 2) before a
  // single worker is spawned.
  const FlowOptions base = flow_options(args);
  for (const BatchJob& job : load_batch_jobs(header.jobs_file, base)) {
    header.labels.push_back(job.label);
  }
  header.workers = static_cast<int>(args.get_int("workers", 2));
  require(header.workers >= 1, "farm: --workers must be >= 1");
  header.max_attempts = static_cast<int>(args.get_int("max-attempts", 3));
  require(header.max_attempts >= 1, "farm: --max-attempts must be >= 1");
  header.job_timeout_s = args.get_double("job-timeout", 0.0);
  header.hang_timeout_s = args.get_double("hang-timeout", 0.0);
  header.retry_base_ms = args.get_int("retry-base-ms", 250);
  require(header.retry_base_ms >= 0, "farm: --retry-base-ms must be >= 0");
  header.backoff_seed =
      static_cast<std::uint64_t>(args.get_int("backoff-seed", 1));
  header.fault_spec = args.get_string("inject", "");
  if (header.fault_spec.empty()) {
    if (const char* env = std::getenv("FPKIT_FAULTS")) {
      header.fault_spec = env;
    }
  }
  header.base_flags = forwarded_flow_flags(args);
  std::printf("farm: %zu job(s) across %d worker process(es) -> %s\n",
              header.labels.size(), header.workers, options.dir.c_str());
  const farm::FarmOutcome outcome = farm::run_farm(options);
  print_farm_outcome(outcome, options.dir);
  return outcome.exit_code;
}

/// `fpkit compare`: diff two run artifacts (sweep trees job by job) with
/// the CI exit contract 0 ok / 3 regression / 2 bad input
/// (docs/ARTIFACTS.md). Without gate flags only a one-sided sweep job
/// exits 3.
int cmd_compare(const ArgParser& args) {
  require(args.positional().size() == 2,
          "compare: need exactly two artifact directories");
  obs::CompareOptions options;
  options.max_slowdown = args.get_double("max-slowdown", 0.0);
  require(options.max_slowdown >= 0.0, "--max-slowdown must be >= 0");
  options.min_time_s = args.get_double("min-time", options.min_time_s);
  options.require_equal_cost = args.has("require-equal-cost");
  const std::string& dir_a = args.positional()[0];
  const std::string& dir_b = args.positional()[1];
  const obs::CompareReport report =
      obs::compare_artifacts(dir_a, dir_b, options);
  std::printf("comparing %s vs %s\n%s", dir_a.c_str(), dir_b.c_str(),
              report.to_string().c_str());
  if (report.regressions() > 0) {
    std::fprintf(stderr, "fpkit compare: %d regression(s) (exit code 3)\n",
                 report.regressions());
    return 3;
  }
  return 0;
}

/// `fpkit dash --profile <trace.json>`: aggregate one Chrome trace into
/// per-name self/total/count rows (text or JSON) and, with --flame, a
/// flamegraph-style SVG. An unbalanced trace still profiles; its repair
/// notes ride along in every output format.
int dash_profile(const ArgParser& args, const std::string& trace_path) {
  const obs::ChromeTrace trace = obs::load_chrome_trace(trace_path);
  const obs::TraceProfile profile = obs::profile_trace(trace);

  const std::string format = args.get_string("format", "text");
  require(format == "text" || format == "json",
          "dash --profile: --format must be text or json");
  const std::string rendered = format == "json"
                                   ? profile.to_json().dump() + "\n"
                                   : profile.to_text();
  const std::string out_path = args.get_string("out", "");
  if (out_path.empty()) {
    std::printf("%s", rendered.c_str());
  } else {
    write_file_atomic(out_path, rendered);
    std::printf("wrote %s\n", out_path.c_str());
  }
  const std::string flame_path = args.get_string("flame", "");
  if (!flame_path.empty()) {
    write_file_atomic(flame_path, profile.to_flame_svg());
    std::printf("wrote %s\n", flame_path.c_str());
  }
  return 0;
}

/// `fpkit dash --merge <farm-dir>`: re-stitch a farm's per-worker trace
/// parts (written under <dir>/trace/ with an index.json) into one
/// multi-process Chrome trace. Deterministic: merging the same parts
/// twice yields byte-identical output, which CI exploits to validate the
/// farm's own merged trace.
int dash_merge(const ArgParser& args, const std::string& dir) {
  namespace fs = std::filesystem;
  std::string trace_dir = dir;
  if (!fs::exists(trace_dir + "/index.json") &&
      fs::exists(dir + "/trace/index.json")) {
    trace_dir = dir + "/trace";
  }
  require(fs::exists(trace_dir + "/index.json"),
          "dash --merge: no trace index under '" + dir +
              "' (expected <dir>/index.json or <dir>/trace/index.json)");
  const obs::MergedTrace merged = obs::merge_trace_dir(trace_dir);
  for (const std::string& note : merged.notes) {
    std::fprintf(stderr, "dash --merge: %s\n", note.c_str());
  }
  const std::string out_path = args.get_string("out", "merged_trace.json");
  write_file_atomic(out_path, merged.json);
  std::printf("wrote %s (%zu note(s))\n", out_path.c_str(),
              merged.notes.size());
  return 0;
}

/// `fpkit dash --follow <farm-dir>`: poll the farm journal read-only
/// (no lock) and render a live progress line until every job reaches a
/// terminal state. Works on a finished farm too -- it renders the final
/// tally once and exits.
int dash_follow(const ArgParser& args, const std::string& dir) {
  const long long poll_ms = args.get_int("poll-ms", 250);
  require(poll_ms >= 10, "dash --follow: --poll-ms must be >= 10");
  obs::set_progress_enabled(true);
  while (true) {
    const farm::JournalState st = farm::replay_journal(dir);
    const std::size_t total = st.jobs.size();
    const std::size_t done = st.done_count();
    const std::size_t failed = st.failed_count();
    const std::size_t running = st.running_count();
    const std::size_t terminal = done + failed;
    const bool finished =
        st.completed || (total > 0 && terminal == total);
    const double elapsed =
        st.last_event_t > st.first_event_t && st.first_event_t > 0.0
            ? st.last_event_t - st.first_event_t
            : 0.0;
    char counts[128];
    std::snprintf(counts, sizeof counts,
                  "%zu/%zu jobs, %zu running, %zu failed", terminal, total,
                  running, failed);
    const double fraction = total > 0 ? static_cast<double>(terminal) /
                                            static_cast<double>(total)
                                      : 0.0;
    // A finished farm shows no ETA.
    obs::progress_render(
        obs::percent_line("farm", fraction, counts,
                          finished ? 0.0 : elapsed),
        /*final=*/finished);
    if (finished) {
      obs::progress_finish();
      std::printf("farm %s: %zu/%zu job(s) done, %zu failed%s\n",
                  dir.c_str(), done, total, failed,
                  st.completed ? "" : " (no farm_done marker)");
      return 0;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
}

/// `fpkit dash <artifact-dir>...`: scan for fpkit.run.v1 artifacts and
/// render the trend dashboard. Exit contract mirrors `fpkit compare`:
/// 0 ok / 3 when --max-slowdown is set and a gated slowdown was flagged /
/// 2 bad input.
int cmd_dash(const ArgParser& args) {
  const std::string trace_path = args.get_string("profile", "");
  if (!trace_path.empty()) return dash_profile(args, trace_path);
  const std::string merge_dir = args.get_string("merge", "");
  if (!merge_dir.empty()) return dash_merge(args, merge_dir);
  const std::string follow_dir = args.get_string("follow", "");
  if (!follow_dir.empty()) return dash_follow(args, follow_dir);

  require(!args.positional().empty(),
          "dash: need at least one artifact directory "
          "(or --profile <trace.json>)");
  obs::DashOptions options;
  options.title = args.get_string("title", options.title);
  options.gates.max_slowdown = args.get_double("max-slowdown", 0.0);
  require(options.gates.max_slowdown >= 0.0, "--max-slowdown must be >= 0");
  options.gates.min_time_s =
      args.get_double("min-time", options.gates.min_time_s);

  std::vector<obs::DashRun> runs;
  for (const std::string& root : args.positional()) {
    std::vector<obs::DashRun> found = obs::scan_artifacts(root);
    runs.insert(runs.end(), std::make_move_iterator(found.begin()),
                std::make_move_iterator(found.end()));
  }
  require(!runs.empty(),
          "dash: no fpkit.run.v1 artifacts under the given directories");

  const obs::Dashboard dash =
      obs::build_dashboard(std::move(runs), options);
  const std::string out_path = args.get_string("out", "dash.html");
  write_file_atomic(out_path, dash.to_html());
  std::printf("wrote %s (%zu run(s), %zu regression(s))\n",
              out_path.c_str(), dash.runs.size(), dash.regressions.size());
  if (!dash.regressions.empty()) {
    for (const obs::DashRegression& r : dash.regressions) {
      std::fprintf(stderr, "  %s: %g -> %g (%s -> %s)\n",
                   r.quantity.c_str(), r.baseline, r.value,
                   r.from_run.c_str(), r.to_run.c_str());
    }
    std::fprintf(stderr,
                 "fpkit dash: %zu timing regression(s) (exit code 3)\n",
                 dash.regressions.size());
    return 3;
  }
  return 0;
}

/// `fpkit serve` -- the session daemon (docs/SERVE.md). Flags set the
/// *defaults* a later `load` request starts from; `load` params override
/// them per session. Responses stream on stdout (one line each), so the
/// generic end-of-run notes (artifact/trace paths) land after the last
/// response -- scripted clients should treat only lines starting with
/// '{' as responses.
int cmd_serve(const ArgParser& args) {
  SessionOptions session;
  session.grid_spec.nodes_per_side = static_cast<int>(
      args.get_int("mesh", session.grid_spec.nodes_per_side));
  session.lambda = args.get_double("lambda", session.lambda);
  session.rho = args.get_double("rho", session.rho);
  session.phi = args.get_double("phi", session.phi);
  session.warm_start = !args.has("no-warm-start");

  ServeOptions options;
  // SIGINT/SIGTERM -> graceful drain: the token wakes the polling stdin
  // reader, stops the request loop, and cooperatively interrupts any
  // in-flight IR solve; main() then still publishes the session artifact.
  CancelToken cancel;
  cancel.set_interrupt_linked(true);
  session.solver.cancel = &cancel;
  options.session = session;
  options.cancel = &cancel;

  PollingFdSource source(/*fd=*/0, &cancel);
  const ServeOutcome outcome = run_serve(source, std::cout, options);

  if (g_artifact.active()) {
    auto& r = g_artifact.manifest.results;
    r["requests"] = static_cast<double>(outcome.requests);
    r["loads"] = static_cast<double>(outcome.loads);
    r["swaps"] = static_cast<double>(outcome.swaps);
    r["undos"] = static_cast<double>(outcome.undos);
    r["evaluations"] = static_cast<double>(outcome.evaluations);
    r["errors"] = static_cast<double>(outcome.errors);
    r["protocol_errors"] = static_cast<double>(outcome.protocol_errors);
    r["interrupted"] = outcome.interrupted ? 1.0 : 0.0;
    r["shutdown"] = outcome.shutdown ? 1.0 : 0.0;
    if (outcome.have_final_cost) r["final_cost"] = outcome.final_cost;
  }
  std::fprintf(stderr,
               "fpkit serve: %lld request(s), %lld swap(s), %lld "
               "evaluation(s), %lld error(s), %lld protocol error(s)%s\n",
               outcome.requests, outcome.swaps, outcome.evaluations,
               outcome.errors, outcome.protocol_errors,
               outcome.interrupted ? "; interrupted (exit code 5)" : "");
  return outcome.exit_code();
}

// --- the command table ----------------------------------------------------

constexpr Flag kGenerateFlags[] = {
    {"table1", "<1..5>", "Table-1 circuit (default 1)"},
    {"tiers", "N", "die tiers (default 1)"},
    {"seed", "S", "generator seed (default: the circuit's)"},
    {"supply", "F", "supply-net fraction (default: the circuit's)"},
    {"out", "<file.fp>", "output circuit (required)"},
};
constexpr Flag kInfoFlags[] = {
    {"lint", "", "run the Package and Stacking checks; exit 1 on errors"},
};
constexpr Flag kRunFlags[] = {
    {"out-assignment", "<a.fpa>", "write the final assignment"},
    {"report", "<r.md>", "write a markdown flow report"},
    {"heatmap", "<f.svg>", "IR-drop heat map of the final assignment"},
    {"spice", "<deck.sp>", "SPICE deck of the final power mesh"},
};
constexpr Flag kRouteFlags[] = {
    {"assignment", "<a.fpa>", "route a stored assignment instead"},
    {"package-svg", "<f.svg>", "whole-package route drawing"},
    {"svg-prefix", "<p>", "one <p>_<quadrant>.svg per quadrant"},
};
constexpr Flag kCheckFlags[] = {
    {"assignment", "<a.fpa>", "check a stored assignment"},
    {"format", "text|json|sarif", "stdout format (default text)"},
    {"json", "", "same as --format json"},
    {"out", "<f>", "also write the JSON (SARIF with --format sarif)"},
    {"strict", "", "exit 1 on warnings too"},
    {"waived", "", "list waived findings"},
    {"config", "<cfg.json>", "severity/waiver policy [./.fpkit-check.json]"},
    {"no-config", "", "ignore ./.fpkit-check.json"},
    {"baseline", "<artifact-dir>", "exit 3 only on findings new since it"},
    {"audit-run", "<artifact-dir>", "audit a recorded run's configuration"},
    {"list-rules", "", "print the rule catalogue"},
};
constexpr Flag kBatchFlags[] = {
    {"methods", "m1,m2,...", "methods of the cross product (default dfa)"},
    {"seeds", "s1,s2,...", "seeds of the cross product (default --seed)"},
    {"jobs-file", "<jobs.txt>", "one job per line instead of the product"},
};
constexpr Flag kFarmFlags[] = {
    {"jobs-file", "<jobs.txt>", "job list (required)"},
    {"out", "<dir>", "farm directory (required)"},
    {"workers", "N", "worker processes (default 2)"},
    {"max-attempts", "K", "attempts per job (default 3)"},
    {"job-timeout", "S", "wall-clock cap per attempt"},
    {"hang-timeout", "S", "progress-silence cap per attempt"},
    {"retry-base-ms", "M", "retry backoff base (default 250)"},
    {"backoff-seed", "S", "retry jitter seed (default 1)"},
    {"resume", "<dir>", "finish an interrupted or killed farm"},
    {"worker", "", "internal: run one job of a farm"},
    {"job-index", "I", "internal (--worker)"},
    {"job-out", "<dir>", "internal (--worker)"},
    {"heartbeat-file", "<f>", "internal (--worker)"},
};
constexpr Flag kCompareFlags[] = {
    {"max-slowdown", "X", "exit 3 when a timing is X times slower"},
    {"min-time", "S", "timings below S seconds never gate"},
    {"require-equal-cost", "", "exit 3 when the Eq.-(3) cost differs"},
};
constexpr Flag kDashFlags[] = {
    {"out", "<f>", "output (dash.html; merged_trace.json for --merge)"},
    {"title", "T", "dashboard title"},
    {"max-slowdown", "X", "exit 3 on a gated slowdown, as in compare"},
    {"min-time", "S", "timings below S seconds never gate"},
    {"profile", "<trace.json>", "self/total profile of one Chrome trace"},
    {"format", "text|json", "--profile output format (default text)"},
    {"flame", "<f.svg>", "--profile flame graph"},
    {"merge", "<farm-dir>", "stitch a farm's per-worker traces"},
    {"follow", "<farm-dir>", "live farm progress from its journal"},
    {"poll-ms", "M", "--follow poll interval (default 250)"},
};
constexpr Flag kServeFlags[] = {
    {"mesh", "K", "default power mesh nodes per side of a load"},
    {"lambda", "L", "default Eq.-(3) IR-drop weight"},
    {"rho", "R", "default Eq.-(3) density weight"},
    {"phi", "P", "default Eq.-(3) bonding-wire weight"},
    {"no-warm-start", "", "solve every evaluate cold"},
};

struct Command {
  std::string_view name;
  std::string_view alias = {};  // a second name; empty = none
  std::string_view synopsis;    // positional arguments and purpose
  int (*run)(const ArgParser&);
  std::span<const Flag> flags;  // the subcommand's own flags
  bool flow = false;            // also takes kFlowFlags
  bool drains = false;          // SIGINT/SIGTERM drain gracefully (exit 5)
  bool recorder = true;         // --artifact-dir records this run
};

// compare and dash read artifacts rather than produce one; farm writes
// its own artifact tree into --out, where workers must not collide.
constexpr Command kCommands[] = {
    {.name = "generate", .synopsis = "write a Table-1 benchmark circuit",
     .run = cmd_generate, .flags = kGenerateFlags},
    {.name = "info", .synopsis = "<circuit.fp>  circuit summary",
     .run = cmd_info, .flags = kInfoFlags},
    {.name = "run", .alias = "plan",
     .synopsis = "<circuit.fp>  assignment + exchange flow report",
     .run = cmd_run, .flags = kRunFlags, .flow = true, .drains = true},
    {.name = "route", .synopsis = "<circuit.fp>  route an assignment",
     .run = cmd_route, .flags = kRouteFlags, .flow = true},
    {.name = "check",
     .synopsis = "<circuit.fp>  design-rule analyzer (docs/CHECKS.md)",
     .run = cmd_check, .flags = kCheckFlags, .flow = true},
    {.name = "batch", .synopsis = "<circuit.fp>  flows over the worker pool",
     .run = cmd_batch, .flags = kBatchFlags, .flow = true, .drains = true},
    {.name = "farm",
     .synopsis = "<circuit.fp> | --resume <dir>  multi-process batch",
     .run = cmd_farm, .flags = kFarmFlags, .flow = true, .drains = true,
     .recorder = false},
    {.name = "compare", .synopsis = "<runA> <runB>  diff two run artifacts",
     .run = cmd_compare, .flags = kCompareFlags, .recorder = false},
    {.name = "dash",
     .synopsis = "<artifact-dir>...  trend dashboard (docs/DASHBOARD.md)",
     .run = cmd_dash, .flags = kDashFlags, .recorder = false},
    {.name = "serve", .synopsis = "JSON-RPC session daemon on stdin/stdout",
     .run = cmd_serve, .flags = kServeFlags, .drains = true},
};

/// Prints the command table to stderr; returns the bad-input exit code.
int usage() {
  std::string text = "usage: fpkit <command> [flags]\n";
  std::string flow_commands;
  for (const Command& command : kCommands) {
    text.append("\n").append(command.name);
    if (!command.alias.empty()) {
      text.append(" (alias ").append(command.alias).append(")");
    }
    text.append("  ").append(command.synopsis).append("\n");
    text += flag_help(command.flags);
    if (command.flow) {
      text += "  ...and the flow flags\n";
      flow_commands.append(" ").append(command.name);
    }
  }
  text.append("\nflow flags (").append(flow_commands, 1).append("):\n");
  text += flag_help(kFlowFlags);
  text += "\ncommon flags (every command):\n";
  text += flag_help(kCommonFlags);
  text +=
      "\nexit codes: 0 ok, 1 check violations, 2 invalid input, "
      "3 degraded result,\n  4 internal error, 5 interrupted "
      "(SIGINT/SIGTERM graceful drain)\n";
  std::fputs(text.c_str(), stderr);
  return 2;
}

/// Observability flags shared by every subcommand. --trace (or the
/// FPKIT_TRACE environment variable) arms the span tracer; either flag
/// arms the metrics registry. Returns the output paths.
struct ObsPaths {
  std::string trace;
  std::string metrics;
  std::string trace_dir;  // FPKIT_TRACE_DIR: farm-worker dump directory
};

ObsPaths arm_observability(const ArgParser& args, bool recorder) {
  ObsPaths paths;
  paths.trace = args.get_string("trace", "");
  if (paths.trace.empty()) {
    if (const char* env = std::getenv("FPKIT_TRACE")) paths.trace = env;
  }
  paths.metrics = args.get_string("metrics", "");
  // Farm-worker trace plumbing (docs/OBSERVABILITY.md "Multi-process
  // tracing"): the supervisor hands the child a lane in the shared
  // timeline (FPKIT_TRACE_PARENT) and a directory to dump trace +
  // metrics into (FPKIT_TRACE_DIR). Generic across subcommands, so any
  // future multi-process driver can reuse the same channel.
  if (const char* env = std::getenv("FPKIT_TRACE_DIR")) {
    if (*env != '\0') {
      paths.trace_dir = env;
      if (const char* parent = std::getenv("FPKIT_TRACE_PARENT")) {
        if (!obs::apply_trace_parent(parent)) {
          std::fprintf(stderr,
                       "fpkit: malformed FPKIT_TRACE_PARENT '%s' ignored\n",
                       parent);
        }
      }
    }
  }
  // Live progress heartbeat (docs/DASHBOARD.md): stderr-only, bit-
  // identical results either way.
  if (args.has("progress")) {
    obs::set_progress_enabled(true);
  } else {
    obs::arm_progress_from_env();
  }
  // The flight recorder wants the full flight: an armed artifact dir
  // turns on both metrics and tracing.
  if (recorder) {
    g_artifact.dir = args.get_string("artifact-dir", "");
    if (g_artifact.dir.empty()) {
      if (const char* env = std::getenv("FPKIT_ARTIFACT_DIR")) {
        g_artifact.dir = env;
      }
    }
  }
  // A bare --trace (no file) still arms recording: `fpkit farm --trace`
  // publishes its merged timeline into <out>/trace.json without needing
  // a standalone supervisor trace path.
  if (args.has("trace") || !paths.trace_dir.empty() ||
      g_artifact.active()) {
    obs::set_tracing_enabled(true);
  }
  if (args.has("trace") || !paths.metrics.empty() ||
      !paths.trace_dir.empty() || g_artifact.active()) {
    obs::set_metrics_enabled(true);
  }
  return paths;
}

/// Writes the armed trace/metrics files (also after a failed command, so
/// a trace of the failing run survives for debugging).
void save_observability(const ObsPaths& paths) {
  if (!paths.trace.empty()) {
    obs::save_trace(paths.trace);
    std::printf("wrote %s (%zu spans; open in Perfetto or "
                "chrome://tracing)\n",
                paths.trace.c_str(), obs::trace_spans().size());
  }
  if (!paths.metrics.empty()) {
    obs::MetricsRegistry::global().save(paths.metrics);
    std::printf("wrote %s\n", paths.metrics.c_str());
  }
  // Farm-worker dump: silent (worker stdout is captured and diffed per
  // attempt), best-effort on the error path like the flags above.
  if (!paths.trace_dir.empty()) {
    std::filesystem::create_directories(paths.trace_dir);
    obs::save_trace(paths.trace_dir + "/trace.json");
    obs::MetricsRegistry::global().save(paths.trace_dir + "/metrics.json");
  }
}

/// Publishes the armed artifact directory once the exit code and wall
/// time are known (called on the error path too).
void save_artifact(const std::string& command, int exit_code,
                   double wall_s) {
  if (!g_artifact.active()) return;
  obs::RunManifest& manifest = g_artifact.manifest;
  manifest.subcommand = command;
  manifest.version = std::string(obs::kToolVersion);
  manifest.threads = exec::default_threads();
  manifest.wall_s = wall_s;
  manifest.exit_code = exit_code;
  obs::capture_environment(manifest);
  obs::write_run_artifact(g_artifact.dir, manifest);
  for (auto& [subdir, job] : g_artifact.jobs) {
    job.threads = manifest.threads;
    obs::write_run_artifact(g_artifact.dir + "/" + subdir, job,
                            /*include_metrics=*/false,
                            /*include_trace=*/false);
  }
  std::printf("wrote artifact %s (%zu job artifact(s))\n",
              g_artifact.dir.c_str(), g_artifact.jobs.size());
}

}  // namespace

int main(int argc, char** argv) {
  const fp::Timer wall;
  if (argc < 2) return usage();
  const std::string name = argv[1];
  const auto command =
      std::find_if(std::begin(kCommands), std::end(kCommands),
                   [&](const Command& c) {
                     return c.name == name || c.alias == name;
                   });
  if (command == std::end(kCommands)) return usage();
  g_argv0 = argv[0];
  fp::obs::set_thread_name("main");
  // Long-running subcommands drain gracefully on SIGINT/SIGTERM (keep
  // best-so-far, flush artifacts, exit 5); everything else keeps the
  // default kill-me-now disposition.
  if (command->drains) fp::sig::install_graceful();
  ObsPaths obs_paths;
  try {
    std::vector<Flag> flags(std::begin(kCommonFlags), std::end(kCommonFlags));
    flags.insert(flags.end(), command->flags.begin(), command->flags.end());
    if (command->flow) {
      flags.insert(flags.end(), std::begin(kFlowFlags), std::end(kFlowFlags));
    }
    const ArgParser args(argc - 1, argv + 1, flags);
    // --threads overrides FPKIT_THREADS; 0 (or a bare --threads) = all
    // cores. Applied before the handler so every subcommand sees the pool.
    if (args.has("threads")) {
      exec::set_default_threads(static_cast<int>(args.get_int("threads", 0)));
    }
    obs_paths = arm_observability(args, command->recorder);
    fault::arm_from_env();
    const std::string inject = args.get_string("inject", "");
    if (!inject.empty()) fault::arm(inject);
    if (g_artifact.active()) {
      g_artifact.manifest.fault_spec = inject;
      if (inject.empty()) {
        if (const char* env = std::getenv("FPKIT_FAULTS")) {
          g_artifact.manifest.fault_spec = env;
        }
      }
    }
    const int code = command->run(args);
    save_observability(obs_paths);
    save_artifact(name, code, wall.seconds());
    return code;
  } catch (const fp::Error& e) {
    std::fprintf(stderr, "fpkit %s: %s\n", name.c_str(),
                 e.describe().c_str());
    const int code = fp::exit_code_for(e.code());
    try {
      save_observability(obs_paths);
      save_artifact(name, code, wall.seconds());
    } catch (const fp::Error& save_error) {
      std::fprintf(stderr, "fpkit %s: %s\n", name.c_str(),
                   save_error.what());
    }
    return code;
  }
}
