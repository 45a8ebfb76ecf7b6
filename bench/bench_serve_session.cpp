// Session-layer throughput: swaps/sec for an interactive swap stream
// served by the incremental DesignSession against cold from-scratch
// re-evaluation, at three mesh sizes.
//
// Both clients replay the same legal swap stream and end with the full
// verdict (IR + checks) on the same final assignment:
//   - incremental: each swap request returns the delta-maintained
//     Eq.-(3) cost (O(affected-nets)); a full evaluate (cached quadrant
//     maps, warm-started IR re-solve, dirty-rule checks) runs every
//     --evaluate-every swaps and once at the end of the stream.
//   - cold: the pre-session status quo -- rebuild the density map,
//     re-run the router, re-solve the mesh from zero, and re-run every
//     check after each swap.
// The harness asserts the two paths agree on the final Eq.-(3) cost;
// the headline figure is the speedup on the mid-size (32) mesh, which
// CI soft-gates via `fpkit compare` against bench/baselines/serve/.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "io/table.h"
#include "session/session.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/strings.h"
#include "util/timer.h"

namespace {

using namespace fp;

struct Sample {
  int mesh = 0;
  double incr_wall_s = 0.0;
  double cold_wall_s = 0.0;
  int swaps = 0;

  [[nodiscard]] double incr_rate() const {
    return incr_wall_s > 0.0 ? swaps / incr_wall_s : 0.0;
  }
  [[nodiscard]] double cold_rate() const {
    return cold_wall_s > 0.0 ? swaps / cold_wall_s : 0.0;
  }
  [[nodiscard]] double speedup() const {
    return cold_wall_s > 0.0 && incr_wall_s > 0.0
               ? cold_wall_s / incr_wall_s
               : 0.0;
  }
};

/// A deterministic stream of legal adjacent swaps, drawn against a
/// scratch session that applies each one so later draws stay legal for
/// any replay that starts from `initial`.
std::vector<std::pair<int, int>> swap_stream(const Package& package,
                                             const PackageAssignment& initial,
                                             int count) {
  SessionOptions options;
  options.grid_spec = bench::standard_grid();
  options.grid_spec.nodes_per_side = 12;  // never solved during the draw
  DesignSession scratch(package, initial, options);
  std::vector<std::pair<int, int>> stream;
  Rng rng(1234);
  while (static_cast<int>(stream.size()) < count) {
    const int qi = static_cast<int>(
        rng.index(static_cast<std::size_t>(package.quadrant_count())));
    const auto& order =
        scratch.assignment().quadrants[static_cast<std::size_t>(qi)].order;
    const int left = static_cast<int>(rng.index(order.size() - 1));
    if (scratch.swap_illegal(qi, left)) continue;
    scratch.apply_swap(qi, left);
    stream.emplace_back(qi, left);
  }
  return stream;
}

Sample run_mesh(const Package& package, const PackageAssignment& initial,
                const std::vector<std::pair<int, int>>& stream, int mesh,
                int evaluate_every) {
  SessionOptions options;
  options.grid_spec = bench::standard_grid();
  options.grid_spec.nodes_per_side = mesh;

  Sample sample;
  sample.mesh = mesh;
  sample.swaps = static_cast<int>(stream.size());
  SessionEvaluateOptions what;  // IR + checks: the full verdict

  double incr_final = 0.0;
  {
    DesignSession session(package, initial, options);
    (void)session.evaluate(what);  // prime caches + the warm-start field
    const Timer timer;
    int since_verdict = 0;
    double cost = 0.0;
    for (const auto& [quadrant, left] : stream) {
      session.apply_swap(quadrant, left);
      cost = session.cost();  // the per-swap answer, delta-maintained
      if (++since_verdict == evaluate_every) {
        cost = session.evaluate(what).cost;
        since_verdict = 0;
      }
    }
    incr_final = session.evaluate(what).cost;
    sample.incr_wall_s = timer.seconds();
    (void)cost;
  }

  double cold_final = 0.0;
  {
    DesignSession session(package, initial, options);
    const Timer timer;
    for (const auto& [quadrant, left] : stream) {
      session.apply_swap(quadrant, left);
      cold_final = session.evaluate_cold(what).cost;
    }
    sample.cold_wall_s = timer.seconds();
  }

  if (incr_final != cold_final) {
    std::fprintf(stderr,
                 "bench_serve_session: incremental final cost %.17g != "
                 "cold %.17g at mesh %d\n",
                 incr_final, cold_final, mesh);
    std::exit(1);
  }
  return sample;
}

void save_artifact(const std::string& dir,
                   const std::vector<Sample>& samples, double wall_s) {
  obs::RunManifest manifest;
  manifest.subcommand = "bench_serve_session";
  manifest.version = std::string(obs::kToolVersion);
  manifest.threads = exec::default_threads();
  manifest.wall_s = wall_s;
  obs::capture_environment(manifest);
  for (const Sample& s : samples) {
    const std::string mesh = "mesh" + std::to_string(s.mesh);
    manifest.stages.push_back(
        StageTiming{"serve_incr." + mesh, s.incr_wall_s});
    manifest.stages.push_back(
        StageTiming{"serve_cold." + mesh, s.cold_wall_s});
    manifest.results["swaps_per_s.serve_incr." + mesh] = s.incr_rate();
    manifest.results["swaps_per_s.serve_cold." + mesh] = s.cold_rate();
    manifest.results["speedup." + mesh] = s.speedup();
  }
  obs::write_run_artifact(dir, manifest, /*include_metrics=*/false,
                          /*include_trace=*/false);
  std::printf("wrote artifact %s\n", dir.c_str());
}

}  // namespace

constexpr Flag kFlags[] = {
    {"out", "<dir>", "artefact directory"},
    {"swaps", "N", "swaps per session (default 48)"},
    {"evaluate-every", "N", "swaps between evaluates (default 16)"},
    {"artifact-dir", "<dir>", "write an fpkit.run.v1 artifact"},
};

int main(int argc, char** argv) {
  const ArgParser args(argc, argv, kFlags);
  bench::set_artefact_dir(args.get_string("out", ""));
  const int swaps = static_cast<int>(args.get_int("swaps", 48));
  const int evaluate_every =
      static_cast<int>(args.get_int("evaluate-every", 16));

  // The interactive-session circuit: alpha = 768 fingers across 4
  // quadrants, where the O(alpha) -> O(affected-nets) swap contract is
  // visible over the fixed per-request overheads.
  CircuitSpec spec = CircuitGenerator::table1(2);
  spec.finger_count = 768;
  spec.rows_per_quadrant = 4;
  spec.tier_count = 2;
  const Package package = CircuitGenerator::generate(spec);
  const PackageAssignment initial = DfaAssigner().assign(package);
  const std::vector<std::pair<int, int>> stream =
      swap_stream(package, initial, swaps);

  const Timer total;
  std::vector<Sample> samples;
  for (const int mesh : {16, 32, 48}) {
    samples.push_back(
        run_mesh(package, initial, stream, mesh, evaluate_every));
  }

  TablePrinter table({"mesh", "swaps", "incremental (swaps/s)",
                      "cold (swaps/s)", "speedup"});
  for (const Sample& s : samples) {
    table.add_row({std::to_string(s.mesh), std::to_string(s.swaps),
                   format_fixed(s.incr_rate(), 1),
                   format_fixed(s.cold_rate(), 1),
                   format_fixed(s.speedup(), 1) + "x"});
  }
  std::printf("Serve session -- incremental swap stream (full verdict "
              "every %d swaps) vs cold re-evaluation per swap\n%s\n",
              evaluate_every, table.str().c_str());

  const std::string artifact_dir = args.get_string("artifact-dir", "");
  if (!artifact_dir.empty()) {
    save_artifact(artifact_dir, samples, total.seconds());
  }
  return 0;
}
