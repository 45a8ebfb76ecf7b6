// Shared experiment configuration of the bench harnesses, so every table
// and figure is regenerated from one consistent parameterisation.
#pragma once

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "assign/dfa.h"
#include "codesign/flow.h"
#include "exec/exec.h"
#include "exchange/exchange.h"
#include "obs/artifact.h"
#include "obs/metrics.h"
#include "package/circuit_generator.h"
#include "power/power_grid.h"
#include "power/solver.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/timer.h"

namespace fp::bench {

/// Mesh used for all Eq.-(1) scoring in the tables (kept modest so each
/// bench finishes in seconds on one core).
inline PowerGridSpec standard_grid() {
  PowerGridSpec spec;
  spec.nodes_per_side = 32;
  spec.vdd = 1.0;
  spec.sheet_res_x = 0.05;
  spec.sheet_res_y = 0.05;
  spec.total_current_a = 8.0;
  return spec;
}

/// The Fig.-14 annealing schedule used by the Table-3 reproduction.
inline SaSchedule standard_schedule(std::uint64_t seed = 7) {
  SaSchedule schedule;
  schedule.initial_temperature = 4.0;
  schedule.final_temperature = 1e-4;
  schedule.cooling = 0.97;
  schedule.moves_per_temperature = 64;
  schedule.seed = seed;
  return schedule;
}

/// Eq.-(3) weights used by the Table-3 reproduction (the paper does not
/// publish its weights; these are the repository defaults, ablated in
/// bench_ablation_weights).
inline ExchangeOptions standard_exchange(std::uint64_t seed = 7) {
  ExchangeOptions options;
  options.lambda = 20.0;
  options.rho = 2.0;
  options.phi = 1.0;
  options.schedule = standard_schedule(seed);
  options.grid_spec = standard_grid();
  return options;
}

/// Output directory for bench artefacts (CSV tables, SVG figures, JSON
/// documents). Defaults to bench/out/ relative to the invoking
/// directory -- gitignored, created on first use -- so regenerated
/// figures and tables never land in (and get committed at) the repo
/// root; every bench binary accepts `--out <dir>` to redirect.
inline std::string& artefact_dir() {
  static std::string dir = "bench/out";
  return dir;
}

/// Points artefact_path() at `dir` (created if missing); empty = keep the
/// current setting.
inline void set_artefact_dir(const std::string& dir) {
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  require(!ec, "bench: cannot create --out directory '" + dir + "': " +
                   ec.message());
  artefact_dir() = dir;
}

/// Resolves one output file name against the configured --out directory,
/// creating the directory on first use.
inline std::string artefact_path(const std::string& name) {
  const std::string& dir = artefact_dir();
  if (dir.empty()) return name;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  require(!ec, "bench: cannot create output directory '" + dir + "': " +
                   ec.message());
  return dir + "/" + name;
}

/// Handles the common `--out <dir>` / `--out=<dir>` flag for the bench
/// binaries that do not use ArgParser. Unknown flags are left alone.
inline void parse_out_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--out" && i + 1 < argc) {
      set_artefact_dir(argv[++i]);
    } else if (arg.rfind("--out=", 0) == 0) {
      set_artefact_dir(std::string(arg.substr(6)));
    }
  }
}

// ------------------------------------------------- parallel scaling ----
//
// The --json mode shared by bench_scaling and bench_perf_kernels: time
// the two headline parallel workloads (a large-mesh CG solve and a
// multi-start SA run) at growing worker counts and write the
// fpkit.bench.parallel.v1 JSON consumed by CI (BENCH_parallel.json).

/// One measurement: a named workload at one thread count.
struct ParallelSample {
  std::string name;
  int threads = 1;
  double wall_s = 0.0;
  /// Wall-time ratio vs the 1-thread run of the same workload.
  double speedup = 1.0;
};

/// The thread counts to sweep: 1, 2, 4 and every hardware thread,
/// deduplicated and sorted (a single-core machine just measures 1).
inline std::vector<int> scaling_thread_counts() {
  std::vector<int> counts{1, 2, 4, exec::hardware_threads()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  counts.erase(std::remove_if(counts.begin(), counts.end(),
                              [](int c) {
                                return c > exec::hardware_threads() && c != 1;
                              }),
               counts.end());
  if (counts.empty() || counts.front() != 1) counts.insert(counts.begin(), 1);
  return counts;
}

/// Times the mesh solve (`solve_cg_<mesh>`) and the `restarts`-replica SA
/// (`sa_multistart_<restarts>`) at each scaling thread count. Restores
/// the caller's thread count on return. Results are deterministic per
/// workload -- only the wall times vary with the thread count.
inline std::vector<ParallelSample> run_parallel_scaling(int mesh = 256,
                                                        int restarts = 8) {
  // Workload 1: one CG solve of a mesh x mesh power grid with a ring of
  // supply pads (the flow's analyze-stage kernel, scaled up).
  PowerGridSpec spec = standard_grid();
  spec.nodes_per_side = mesh;
  PowerGrid grid(spec);
  std::vector<IPoint> pads;
  for (int i = 0; i < 16; ++i) {
    pads.push_back(ring_slot_node(i * 8, 128, grid.k()));
  }
  grid.set_pads(pads);
  SolverOptions solver;
  solver.kind = SolverKind::ConjugateGradient;
  solver.tolerance = 1e-8;
  solver.max_iterations = 4000;

  // Workload 2: multi-start SA over a Table-1 circuit (the flow's
  // exchange-stage kernel with parallel replicas).
  const Package package =
      CircuitGenerator::generate(CircuitGenerator::table1(2));
  const PackageAssignment initial = DfaAssigner().assign(package);
  ExchangeOptions exchange = standard_exchange();
  exchange.schedule.moves_per_temperature = 128;

  struct Workload {
    std::string name;
    std::function<void()> run;
  };
  const std::vector<Workload> workloads{
      {"solve_cg_" + std::to_string(mesh),
       [&] { (void)solve(grid, solver); }},
      {"sa_multistart_" + std::to_string(restarts),
       [&] {
         (void)ExchangeOptimizer(package, exchange)
             .optimize_multistart(initial, restarts);
       }},
  };

  const int saved_threads = exec::default_threads();
  std::vector<ParallelSample> samples;
  for (const Workload& workload : workloads) {
    double base_s = 0.0;
    for (const int threads : scaling_thread_counts()) {
      exec::set_default_threads(threads);
      const Timer timer;
      workload.run();
      const double wall_s = timer.seconds();
      if (threads == 1) base_s = wall_s;
      samples.push_back(ParallelSample{
          workload.name, threads, wall_s,
          wall_s > 0.0 && base_s > 0.0 ? base_s / wall_s : 1.0});
    }
  }
  exec::set_default_threads(saved_threads);
  return samples;
}

/// Writes the fpkit.bench.parallel.v1 document (BENCH_parallel.json).
inline void save_parallel_json(const std::vector<ParallelSample>& samples,
                               const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"fpkit.bench.parallel.v1\",\n";
  out << "  \"hardware_threads\": " << exec::hardware_threads() << ",\n";
  out << "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const ParallelSample& s = samples[i];
    out << "    {\"name\": \"" << s.name << "\", \"threads\": " << s.threads
        << ", \"wall_s\": " << format_fixed(s.wall_s, 6)
        << ", \"speedup\": " << format_fixed(s.speedup, 3) << "}"
        << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  require(out.good(), "bench: cannot write '" + path + "'");
}

/// Writes an fpkit.run.v1 artifact for one bench invocation -- the same
/// schema the CLI's --artifact-dir produces, so `fpkit compare` gates
/// bench runs against the checked-in baselines under bench/baselines/
/// (docs/ARTIFACTS.md). Each (workload, thread-count) sample becomes one
/// manifest stage "<workload>.t<threads>" (slowdown-gated) plus a
/// "speedup.<workload>.t<threads>" result (reported as a plain delta).
inline void save_bench_artifact(const std::string& dir,
                                const std::string& bench_name,
                                const std::vector<ParallelSample>& samples,
                                double wall_s) {
  obs::RunManifest manifest;
  manifest.subcommand = bench_name;
  manifest.version = std::string(obs::kToolVersion);
  manifest.threads = exec::hardware_threads();
  manifest.wall_s = wall_s;
  obs::capture_environment(manifest);
  for (const ParallelSample& s : samples) {
    const std::string key = s.name + ".t" + std::to_string(s.threads);
    manifest.stages.push_back(StageTiming{key, s.wall_s});
    manifest.results["speedup." + key] = s.speedup;
  }
  // Metrics ride along when the sweep armed the registry (solver
  // iteration histograms feed the dashboard's quantile panel); the trace
  // stays off -- bench spans are timing noise, not flow structure.
  obs::write_run_artifact(dir, manifest,
                          /*include_metrics=*/obs::metrics_enabled(),
                          /*include_trace=*/false);
  std::printf("wrote artifact %s\n", dir.c_str());
}

/// Runs the scaling sweep once and emits every requested output: a short
/// stdout table always, the fpkit.bench.parallel.v1 document when
/// `json_path` is set, an fpkit.run.v1 artifact when `artifact_dir` is.
inline void emit_parallel_results(const std::string& json_path,
                                  const std::string& artifact_dir,
                                  const std::string& bench_name) {
  const Timer timer;
  // An artifact-producing sweep records metrics too, so `fpkit dash` can
  // chart solver iteration quantiles straight from the bench artifact.
  if (!artifact_dir.empty()) obs::set_metrics_enabled(true);
  const std::vector<ParallelSample> samples = run_parallel_scaling();
  const double wall_s = timer.seconds();
  std::printf("parallel scaling (%d hardware thread(s)):\n",
              exec::hardware_threads());
  for (const ParallelSample& s : samples) {
    std::printf("  %-20s threads=%d  %8.3f s  speedup %.2fx\n",
                s.name.c_str(), s.threads, s.wall_s, s.speedup);
  }
  if (!json_path.empty()) {
    save_parallel_json(samples, json_path);
    std::printf("wrote %s\n", json_path.c_str());
  }
  if (!artifact_dir.empty()) {
    save_bench_artifact(artifact_dir, bench_name, samples, wall_s);
  }
}

/// Back-compat entry point: sweep + JSON document only.
inline void emit_parallel_json(const std::string& path) {
  emit_parallel_results(path, "", "");
}

}  // namespace fp::bench
