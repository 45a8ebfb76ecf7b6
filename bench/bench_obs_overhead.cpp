// Observability overhead: the same codesign flow with the recorders off
// (the disabled path: one relaxed atomic load per instrumentation site)
// and with the farm-worker configuration on (tracing + metrics + the
// progress heartbeat file, as FPKIT_TRACE_DIR and a worker's
// --heartbeat-file arm them; the file goes into the --out directory).
//
// The contract under test is twofold: tracing must not perturb numeric
// results (asserted bit-for-bit on the final scores), and the recording
// overhead must stay small -- CI soft-gates the traced stage time via
// `fpkit compare --max-slowdown` against bench/baselines/obs/.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "io/table.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/cli.h"
#include "util/timer.h"

namespace {

using namespace fp;

struct ModeResult {
  double best_s = 0.0;      // fastest rep (noise-resistant stage time)
  double total_s = 0.0;     // all reps
  double final_flyline = 0.0;
  double final_drop = 0.0;
  int final_density = 0;
  std::size_t spans = 0;
};

FlowOptions flow_options() {
  FlowOptions options;
  options.method = AssignmentMethod::Dfa;
  options.run_exchange = true;
  options.exchange = bench::standard_exchange(7);
  // A short schedule and a small mesh keep one rep in the tens of
  // milliseconds while still exercising every instrumented subsystem
  // (assign, SA exchange, router, IR solver, checks).
  options.exchange.schedule.moves_per_temperature = 16;
  options.exchange.schedule.cooling = 0.9;
  options.grid_spec = bench::standard_grid();
  options.grid_spec.nodes_per_side = 16;
  options.exchange.grid_spec = options.grid_spec;
  return options;
}

ModeResult run_mode(const Package& package, int reps, bool observed) {
  obs::set_tracing_enabled(observed);
  obs::set_metrics_enabled(observed);
  obs::set_progress_heartbeat(
      observed ? bench::artefact_path("obs_overhead.hb") : "");
  const CodesignFlow flow(flow_options());
  ModeResult mode;
  for (int rep = 0; rep < reps; ++rep) {
    // Long-lived processes reset between runs; the farm worker dumps and
    // exits. Either way each rep starts from an empty recorder.
    obs::reset_trace();
    obs::MetricsRegistry::global().clear();
    const Timer timer;
    const FlowResult result = flow.run(package);
    const double rep_s = timer.seconds();
    mode.total_s += rep_s;
    if (rep == 0 || rep_s < mode.best_s) mode.best_s = rep_s;
    mode.final_flyline = result.flyline_final_um;
    mode.final_drop = result.ir_final.max_drop_v;
    mode.final_density = result.max_density_final;
  }
  mode.spans = obs::trace_spans().size();
  obs::set_tracing_enabled(false);
  obs::set_metrics_enabled(false);
  obs::set_progress_heartbeat("");
  return mode;
}

void save_artifact(const std::string& dir, const ModeResult& plain,
                   const ModeResult& traced, double ratio, double wall_s) {
  obs::RunManifest manifest;
  manifest.subcommand = "bench_obs_overhead";
  manifest.version = std::string(obs::kToolVersion);
  manifest.threads = exec::default_threads();
  manifest.wall_s = wall_s;
  obs::capture_environment(manifest);
  manifest.stages.push_back(StageTiming{"flow_plain", plain.best_s});
  manifest.stages.push_back(
      StageTiming{"flow_traced", traced.best_s});
  manifest.results["overhead_ratio"] = ratio;
  manifest.results["spans_per_run"] = static_cast<double>(traced.spans);
  obs::write_run_artifact(dir, manifest, /*include_metrics=*/false,
                          /*include_trace=*/false);
  std::printf("wrote artifact %s\n", dir.c_str());
}

}  // namespace

constexpr Flag kFlags[] = {
    {"out", "<dir>", "artefact directory"},
    {"reps", "N", "timed repetitions per mode (default 5)"},
    {"artifact-dir", "<dir>", "write an fpkit.run.v1 artifact"},
};

int main(int argc, char** argv) {
  const ArgParser args(argc, argv, kFlags);
  bench::set_artefact_dir(args.get_string("out", ""));
  const int reps = static_cast<int>(args.get_int("reps", 5));

  const Package package =
      CircuitGenerator::generate(CircuitGenerator::table1(1));

  const Timer total;
  // Interleave a warmup of each mode before timing so neither pays the
  // first-touch allocation cost.
  (void)run_mode(package, 1, false);
  (void)run_mode(package, 1, true);
  const ModeResult plain = run_mode(package, reps, false);
  const ModeResult traced = run_mode(package, reps, true);

  // Tracing must observe, not perturb: identical final scores bit for bit.
  if (plain.final_flyline != traced.final_flyline ||
      plain.final_drop != traced.final_drop ||
      plain.final_density != traced.final_density) {
    std::fprintf(stderr,
                 "bench_obs_overhead: traced flow diverged from plain "
                 "(flyline %.17g vs %.17g, drop %.17g vs %.17g)\n",
                 plain.final_flyline, traced.final_flyline,
                 plain.final_drop, traced.final_drop);
    return 1;
  }

  const double ratio =
      plain.best_s > 0.0 ? traced.best_s / plain.best_s : 0.0;
  TablePrinter table({"mode", "best (ms)", "total (ms)", "spans"});
  table.add_row({"plain", format_fixed(plain.best_s * 1e3, 2),
                 format_fixed(plain.total_s * 1e3, 2), "0"});
  table.add_row({"traced+metrics", format_fixed(traced.best_s * 1e3, 2),
                 format_fixed(traced.total_s * 1e3, 2),
                 std::to_string(traced.spans)});
  std::printf("Observability overhead -- %d rep(s), best-of timing\n%s\n"
              "overhead: %.2fx (traced / plain)\n",
              reps, table.str().c_str(), ratio);

  const std::string artifact_dir = args.get_string("artifact-dir", "");
  if (!artifact_dir.empty()) {
    save_artifact(artifact_dir, plain, traced, ratio, total.seconds());
  }
  return 0;
}
