// Google-benchmark microbenchmarks of the core kernels, backing the
// paper's "runtimes for all cases are within seconds" claim: the three
// assigners, the congestion estimator, the swap engine, the session's
// evaluate, the serve protocol, the Eq.-(1) solvers (cold, and serve's
// warm re-solves) and the full co-design flow, with the host's speed
// reference (BM_SpinReference) beside them. The *Threads benchmarks sweep
// the exec worker-pool size; `--json [path]` additionally writes the
// fpkit.bench.parallel.v1 scaling document (BENCH_parallel.json, see
// bench_common.h).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>

#include "assign/dfa.h"
#include "assign/ifa.h"
#include "assign/random_assigner.h"
#include "bench_common.h"
#include "exchange/incremental_cost.h"
#include "exec/exec.h"
#include "obs/json.h"
#include "route/density.h"
#include "route/router.h"
#include "session/protocol.h"
#include "session/session.h"
#include "util/rng.h"

namespace {

using namespace fp;

const Package& circuit(int index) {
  static std::vector<Package> packages = [] {
    std::vector<Package> out;
    for (int i = 0; i < 5; ++i) {
      out.push_back(CircuitGenerator::generate(CircuitGenerator::table1(i)));
    }
    return out;
  }();
  return packages[static_cast<std::size_t>(index)];
}

void BM_RandomAssign(benchmark::State& state) {
  const Package& package = circuit(static_cast<int>(state.range(0)));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(RandomAssigner(seed++).assign(package));
  }
}
BENCHMARK(BM_RandomAssign)->DenseRange(0, 4);

void BM_Ifa(benchmark::State& state) {
  const Package& package = circuit(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(IfaAssigner().assign(package));
  }
}
BENCHMARK(BM_Ifa)->DenseRange(0, 4);

void BM_Dfa(benchmark::State& state) {
  const Package& package = circuit(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DfaAssigner().assign(package));
  }
}
BENCHMARK(BM_Dfa)->DenseRange(0, 4);

void BM_DensityMap(benchmark::State& state) {
  const Package& package = circuit(static_cast<int>(state.range(0)));
  const PackageAssignment assignment = DfaAssigner().assign(package);
  for (auto _ : state) {
    benchmark::DoNotOptimize(max_density(package, assignment));
  }
}
BENCHMARK(BM_DensityMap)->DenseRange(0, 4);

void BM_Router(benchmark::State& state) {
  const Package& package = circuit(static_cast<int>(state.range(0)));
  const PackageAssignment assignment = DfaAssigner().assign(package);
  const MonotonicRouter router;
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.route(package, assignment));
  }
}
BENCHMARK(BM_Router)->DenseRange(0, 4);

/// The swap engine alone: one iteration is one engine op, an apply (with
/// the Eq.-(3) read SA makes after it) or an undo. The ops replay legal
/// swaps pre-drawn by the Fig.-14 move policy -- a supply pad at psi = 1,
/// any pad at psi > 1 -- keeping 37 % of them (SA's accept ratio on the
/// e2e `sweep` workload), then undo every kept swap, so the stream
/// repeats from the DFA order. The Time column is ns per engine op.
void BM_SwapEngine(benchmark::State& state) {
  CircuitSpec spec =
      CircuitGenerator::table1(static_cast<int>(state.range(0)));
  spec.tier_count = static_cast<int>(state.range(1));
  const Package package = CircuitGenerator::generate(spec);
  IncrementalCost engine(package, DfaAssigner().assign(package), 20.0, 2.0,
                         1.0);
  const std::vector<NetId> supply = package.netlist().supply_nets();
  constexpr int kUndo = -1;
  struct Op {
    int quadrant;  // kUndo: undo the newest kept swap
    int left;
  };
  std::vector<Op> ops;
  Rng rng(1);
  while (ops.size() < 8192) {
    const auto& quadrants = engine.assignment().quadrants;
    NetId net = kInvalidNet;
    if (spec.tier_count > 1) {
      const auto& order = quadrants[rng.index(quadrants.size())].order;
      net = order[rng.index(order.size())];
    } else {
      net = supply[rng.index(supply.size())];
    }
    const IPoint pos = engine.position(net);
    const int size = static_cast<int>(
        quadrants[static_cast<std::size_t>(pos.x)].order.size());
    const int left = std::clamp(rng.chance(0.5) ? pos.y - 1 : pos.y, 0,
                                size - 2);
    if (!engine.swap_legal(pos.x, left)) continue;
    engine.apply_swap(pos.x, left);
    ops.push_back(Op{pos.x, left});
    if (!rng.chance(0.37)) {
      engine.undo_last();
      ops.push_back(Op{kUndo, 0});
    }
  }
  for (; engine.swap_count() > 0; engine.undo_last()) {
    ops.push_back(Op{kUndo, 0});
  }
  std::size_t next = 0;
  for (auto _ : state) {
    const Op& op = ops[next];
    if (op.quadrant == kUndo) {
      engine.undo_last();
    } else {
      engine.apply_swap(op.quadrant, op.left);
      benchmark::DoNotOptimize(engine.current());
    }
    if (++next == ops.size()) next = 0;
  }
  state.SetLabel(spec.name + " psi " + std::to_string(spec.tier_count));
}
BENCHMARK(BM_SwapEngine)
    ->ArgNames({"circuit", "psi"})
    ->Args({0, 1})->Args({0, 4})->Args({4, 1})->Args({4, 4});

/// One `serve` evaluate cycle on the interactive-session circuit
/// (bench_serve_session's: 768 fingers, 4 rows per quadrant, psi 2) at
/// k = 32: one op is 16 pre-drawn legal swaps and one evaluate of the
/// part named by the capture -- the density figures alone, the checks
/// alone, or the warm IR solve alone. The 4096 swaps run forward, then
/// back by undo, so the stream repeats from the DFA order. The Time
/// column is per op.
void BM_SessionEvaluate(benchmark::State& state,
                        SessionEvaluateOptions what) {
  CircuitSpec spec = CircuitGenerator::table1(2);
  spec.finger_count = 768;
  spec.rows_per_quadrant = 4;
  spec.tier_count = 2;
  const Package package = CircuitGenerator::generate(spec);
  SessionOptions options;
  options.grid_spec = bench::standard_grid();
  DesignSession session(package, DfaAssigner().assign(package), options);

  constexpr int kSwaps = 4096;
  constexpr int kSwapsPerOp = 16;
  std::vector<IPoint> swaps;
  {
    DesignSession scratch(package, DfaAssigner().assign(package), options);
    Rng rng(1);
    while (static_cast<int>(swaps.size()) < kSwaps) {
      const int q = static_cast<int>(
          rng.index(static_cast<std::size_t>(package.quadrant_count())));
      const int left = static_cast<int>(rng.index(
          scratch.assignment().quadrants[static_cast<std::size_t>(q)]
              .order.size() - 1));
      if (scratch.swap_illegal(q, left)) continue;
      scratch.apply_swap(q, left);
      swaps.push_back(IPoint{q, left});
    }
  }
  (void)session.evaluate(what);  // the first solve is cold
  std::size_t next = 0;
  bool forward = true;
  for (auto _ : state) {
    for (int i = 0; i < kSwapsPerOp; ++i, ++next) {
      if (forward) {
        session.apply_swap(swaps[next].x, swaps[next].y);
      } else {
        session.undo();
      }
    }
    benchmark::DoNotOptimize(session.evaluate(what));
    if (next == swaps.size()) {
      next = 0;
      forward = !forward;
    }
  }
}
BENCHMARK_CAPTURE(BM_SessionEvaluate, density,
                  SessionEvaluateOptions{.ir = false, .check = false})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SessionEvaluate, check,
                  SessionEvaluateOptions{.ir = false, .check = true})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SessionEvaluate, ir,
                  SessionEvaluateOptions{.ir = true, .check = false})
    ->Unit(benchmark::kMicrosecond);

/// The serve protocol's share of one swap request, with no session: the
/// request line through parse_request and param_int, the result object
/// (cost and journal depth), ok_response and dump(). The Time column is
/// per request.
void BM_ServeRequest(benchmark::State& state) {
  const std::string line =
      "{\"id\":4242,\"method\":\"swap\",\"params\":{\"finger\":117,"
      "\"quadrant\":2}}";
  long long swaps = 0;
  for (auto _ : state) {
    const ServeRequest request = parse_request(line);
    const long long quadrant = param_int(request.params, "quadrant", -1);
    const long long finger = param_int(request.params, "finger", -1);
    obs::Json result = obs::Json::object();
    result.set("cost", obs::Json::number(
                           25.017391304347826 +
                           static_cast<double>(quadrant + finger) * 1e-3));
    result.set("swaps", obs::Json::number(++swaps));
    std::string response = ok_response(request.id, std::move(result)).dump();
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_ServeRequest)->Unit(benchmark::kMicrosecond);

/// One solve per backend and mesh size, labelled with the backend's
/// to_string name.
void BM_Solver(benchmark::State& state, SolverKind kind) {
  PowerGridSpec spec = bench::standard_grid();
  spec.nodes_per_side = static_cast<int>(state.range(0));
  PowerGrid grid(spec);
  std::vector<IPoint> pads;
  for (int i = 0; i < 16; ++i) {
    pads.push_back(ring_slot_node(i * 8, 128, grid.k()));
  }
  grid.set_pads(pads);
  SolverOptions options;
  options.kind = kind;
  options.tolerance = 1e-8;
  state.SetLabel(std::string(to_string(kind)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(grid, options));
  }
}
BENCHMARK_CAPTURE(BM_Solver, sor, SolverKind::Sor)
    ->ArgName("k")->DenseRange(16, 48, 16);
// k = 256 is the signoff benchmark's mesh, k = 257 its odd neighbour
// (coarse levels end on the die edge) and k = 512 the sign-off target.
BENCHMARK_CAPTURE(BM_Solver, cg, SolverKind::ConjugateGradient)
    ->ArgName("k")->DenseRange(16, 48, 16)->Arg(256)->Arg(257)->Arg(512);

/// A warm CG re-solve from a cold solve's field on the serve circuit
/// (bench_serve_session's: 768 fingers, 4 rows per quadrant, psi 2, DFA
/// supply pads) at mesh k. `converged` re-solves the same pads and stops
/// at iteration 0, the path of about 74 % of serve's solves; `moved` first
/// moves one supply pad one node along the die edge, so the solve
/// iterates. Each asserts its path before timing it.
void BM_SolverWarm(benchmark::State& state, bool move_pad) {
  const int k = static_cast<int>(state.range(0));
  CircuitSpec spec = CircuitGenerator::table1(2);
  spec.finger_count = 768;
  spec.rows_per_quadrant = 4;
  spec.tier_count = 2;
  const Package package = CircuitGenerator::generate(spec);
  PowerGridSpec grid_spec = bench::standard_grid();
  grid_spec.nodes_per_side = k;
  PowerGrid grid(grid_spec);
  grid.set_pads(
      PadRing(package, k).supply_nodes(DfaAssigner().assign(package)));
  const SolveResult cold = solve(grid, SolverOptions{});
  if (move_pad) {
    std::vector<IPoint> pads = grid.pads();
    IPoint& pad = pads.front();
    if (pad.y == 0 || pad.y == k - 1) {
      pad.x += pad.x > 0 ? -1 : 1;
    } else {
      pad.y += pad.y > 0 ? -1 : 1;
    }
    grid.set_pads(pads);
  }
  SolverOptions options;
  options.warm_start = &cold.voltage;
  if ((solve(grid, options).iterations > 0) != move_pad) {
    state.SkipWithError(move_pad ? "the moved-pad re-solve did not iterate"
                                 : "the converged re-solve iterated");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(grid, options));
  }
}
BENCHMARK_CAPTURE(BM_SolverWarm, converged, false)
    ->ArgName("k")->Arg(32)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_SolverWarm, moved, true)
    ->ArgName("k")->Arg(32)->Unit(benchmark::kMicrosecond);

/// The host's speed reference: the ALU spin e2e_bench scales its figures
/// by (xorshift, 500,000 steps). Its time rides along with every run, so
/// a figure from this suite can be quoted beside it; figures from
/// different runs still compare only as interleaved A/B runs.
void BM_SpinReference(benchmark::State& state) {
  for (auto _ : state) {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    benchmark::DoNotOptimize(x);
    for (int i = 0; i < 500'000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    benchmark::DoNotOptimize(x);
  }
}
BENCHMARK(BM_SpinReference)->Unit(benchmark::kMillisecond);

/// 128 x 128 CG solve at a fixed worker-pool size: the analyze-stage
/// kernel whose dot products and axpy sweeps fan out over the pool.
void BM_SolverCgThreads(benchmark::State& state) {
  PowerGridSpec spec = bench::standard_grid();
  spec.nodes_per_side = 128;
  PowerGrid grid(spec);
  std::vector<IPoint> pads;
  for (int i = 0; i < 16; ++i) {
    pads.push_back(ring_slot_node(i * 8, 128, grid.k()));
  }
  grid.set_pads(pads);
  SolverOptions options;
  options.kind = SolverKind::ConjugateGradient;
  options.tolerance = 1e-8;
  const int saved_threads = exec::default_threads();
  exec::set_default_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(grid, options));
  }
  exec::set_default_threads(saved_threads);
}
BENCHMARK(BM_SolverCgThreads)
    ->Arg(1)->Arg(2)->Arg(4)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond);

/// 8-replica multi-start SA at a fixed worker-pool size: the replicas
/// run concurrently; the selected winner is thread-count independent.
void BM_MultistartSaThreads(benchmark::State& state) {
  const Package& package = circuit(2);
  const PackageAssignment initial = DfaAssigner().assign(package);
  ExchangeOptions options = bench::standard_exchange();
  options.schedule.moves_per_temperature = 16;
  options.schedule.cooling = 0.9;
  const ExchangeOptimizer optimizer(package, options);
  const int saved_threads = exec::default_threads();
  exec::set_default_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.optimize_multistart(initial, 8));
  }
  exec::set_default_threads(saved_threads);
}
BENCHMARK(BM_MultistartSaThreads)
    ->Arg(1)->Arg(2)->Arg(4)
    ->ArgNames({"threads"})
    ->Unit(benchmark::kMillisecond);

void BM_FullFlow(benchmark::State& state) {
  const Package& package = circuit(static_cast<int>(state.range(0)));
  FlowOptions options;
  options.method = AssignmentMethod::Dfa;
  options.grid_spec = bench::standard_grid();
  options.grid_spec.nodes_per_side = 16;
  options.exchange = bench::standard_exchange();
  options.exchange.schedule.moves_per_temperature = 16;
  options.exchange.schedule.cooling = 0.9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CodesignFlow(options).run(package));
  }
}
BENCHMARK(BM_FullFlow)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

}  // namespace

/// BENCHMARK_MAIN with three extra flags: `--json [path]` runs the shared
/// parallel-scaling sweep after the registered benchmarks and writes the
/// fpkit.bench.parallel.v1 document (default BENCH_parallel.json),
/// `--artifact-dir <dir>` additionally records the sweep as an
/// fpkit.run.v1 artifact for `fpkit compare`, and `--out <dir>` redirects
/// the JSON document. Every other flag is forwarded to google-benchmark
/// untouched.
int main(int argc, char** argv) {
  std::string json_path;
  std::string artifact_dir;
  std::vector<char*> forwarded;
  forwarded.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--json") {
      json_path = "BENCH_parallel.json";
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = std::string(arg.substr(7));
      if (json_path.empty()) json_path = "BENCH_parallel.json";
    } else if (arg == "--artifact-dir" && i + 1 < argc) {
      artifact_dir = argv[++i];
    } else if (arg.rfind("--artifact-dir=", 0) == 0) {
      artifact_dir = std::string(arg.substr(15));
    } else if (arg == "--out" && i + 1 < argc) {
      fp::bench::set_artefact_dir(argv[++i]);
    } else if (arg.rfind("--out=", 0) == 0) {
      fp::bench::set_artefact_dir(std::string(arg.substr(6)));
    } else {
      forwarded.push_back(argv[i]);
    }
  }
  int forwarded_argc = static_cast<int>(forwarded.size());
  benchmark::Initialize(&forwarded_argc, forwarded.data());
  if (benchmark::ReportUnrecognizedArguments(forwarded_argc,
                                             forwarded.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!json_path.empty() || !artifact_dir.empty()) {
    fp::bench::emit_parallel_results(
        json_path.empty() ? "" : fp::bench::artefact_path(json_path),
        artifact_dir, "bench_perf_kernels");
  }
  return 0;
}
