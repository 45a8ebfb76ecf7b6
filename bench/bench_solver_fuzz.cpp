// Seeded fuzz of the IR solver's exact outputs, for checking that a solver
// change keeps every bit. Eight solves per mesh size k = 2..70, 127..130
// and 255..258 (616 in all): CG on random ring pads, on anisotropic
// sheets, under a hotspot and with interior pads; SOR at omega = 1 and
// 1.7 (64 sweeps at most, so the large meshes stay quick); and CG warm
// re-solves from the first solve's field, after one pad moves and on the
// unchanged pads. Each solve prints one line: its case, iterations, stop
// reason, relative residual, max drop and an FNV-1a hash of the field's
// bits. It uses only the public solver API, so the same file builds
// against an older tree; any line that differs between two builds, or
// between --threads values of one build, is a changed bit.
//
//   bench_solver_fuzz [--seed N] [--threads T]
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "exec/exec.h"
#include "power/power_grid.h"
#include "power/solver.h"
#include "util/cli.h"
#include "util/rng.h"

namespace {

using namespace fp;

/// FNV-1a over the bit patterns of a field's nodes, in node order.
std::uint64_t field_hash(const Grid2D<double>& field) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const double v : field.data()) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    hash = (hash ^ bits) * 1099511628211ULL;
  }
  return hash;
}

int draw(Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.uniform_int(lo, hi));
}

/// 1..8 random nodes on the die edge, the pad ring's nodes.
std::vector<IPoint> ring_pads(Rng& rng, int k) {
  std::vector<IPoint> pads;
  const int count = draw(rng, 1, 8);
  for (int i = 0; i < count; ++i) {
    const int t = draw(rng, 0, k - 1);
    switch (draw(rng, 0, 3)) {
      case 0:
        pads.push_back({t, 0});
        break;
      case 1:
        pads.push_back({t, k - 1});
        break;
      case 2:
        pads.push_back({0, t});
        break;
      default:
        pads.push_back({k - 1, t});
        break;
    }
  }
  return pads;
}

/// 1..6 random nodes anywhere on the mesh.
std::vector<IPoint> area_pads(Rng& rng, int k) {
  std::vector<IPoint> pads;
  const int count = draw(rng, 1, 6);
  for (int i = 0; i < count; ++i) {
    pads.push_back({draw(rng, 0, k - 1), draw(rng, 0, k - 1)});
  }
  return pads;
}

void report(int k, const char* name, const PowerGrid& grid,
            const SolveResult& result) {
  std::printf("k=%d %-15s iterations=%d stop=%s residual=%a max_drop=%a "
              "hash=%016" PRIx64 "\n",
              k, name, result.iterations,
              std::string(to_string(result.stop)).c_str(),
              result.relative_residual, max_ir_drop(grid, result),
              field_hash(result.voltage));
}

void fuzz_mesh(Rng& rng, int k) {
  PowerGridSpec spec;
  spec.nodes_per_side = k;
  const auto record = [k](const char* name, const PowerGrid& grid,
                          const SolverOptions& options) {
    SolveResult result = solve(grid, options);
    report(k, name, grid, result);
    return result;
  };

  PowerGrid ring(spec);
  ring.set_pads(ring_pads(rng, k));
  const SolveResult cold = record("cg ring", ring, SolverOptions{});

  PowerGridSpec sheets = spec;
  sheets.sheet_res_x = rng.uniform(0.01, 0.2);
  sheets.sheet_res_y = rng.uniform(0.01, 0.2);
  PowerGrid anisotropic(sheets);
  anisotropic.set_pads(ring_pads(rng, k));
  record("cg anisotropic", anisotropic, SolverOptions{});

  PowerGrid hotspot(spec);
  const double x0 = rng.uniform(0.0, 0.7);
  const double y0 = rng.uniform(0.0, 0.7);
  hotspot.add_hotspot({x0, y0, x0 + 0.3, y0 + 0.3}, rng.uniform(2.0, 6.0));
  hotspot.set_pads(ring_pads(rng, k));
  record("cg hotspot", hotspot, SolverOptions{});

  PowerGrid area(spec);
  area.set_pads(area_pads(rng, k));
  record("cg area pads", area, SolverOptions{});

  for (const double omega : {1.0, 1.7}) {
    PowerGrid sor_grid(spec);
    sor_grid.set_pads(ring_pads(rng, k));
    SolverOptions sor;
    sor.kind = SolverKind::Sor;
    sor.sor_omega = omega;
    sor.max_iterations = 64;
    record(omega == 1.0 ? "sor omega=1" : "sor omega=1.7", sor_grid, sor);
  }

  SolverOptions warm;
  warm.warm_start = &cold.voltage;
  PowerGrid moved = ring;
  std::vector<IPoint> pads = moved.pads();
  IPoint& first = pads.front();
  if (first.y == 0 || first.y == k - 1) {
    first.x = first.x > 0 ? first.x - 1 : first.x + 1;
  } else {
    first.y = first.y > 0 ? first.y - 1 : first.y + 1;
  }
  moved.set_pads(pads);
  record("cg warm moved", moved, warm);
  record("cg warm same", ring, warm);
}

}  // namespace

constexpr fp::Flag kFlags[] = {
    {"seed", "<n>", "fuzz seed (default 1)"},
    {"threads", "<n>", "worker threads (default: FPKIT_THREADS or 1)"},
};

int main(int argc, char** argv) {
  const fp::ArgParser args(argc, argv, kFlags);
  if (args.has("threads")) {
    fp::exec::set_default_threads(
        static_cast<int>(args.get_int("threads", 1)));
  }
  fp::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 1)));
  std::vector<int> meshes;
  for (int k = 2; k <= 70; ++k) meshes.push_back(k);
  for (int k = 127; k <= 130; ++k) meshes.push_back(k);
  for (int k = 255; k <= 258; ++k) meshes.push_back(k);
  for (const int k : meshes) fuzz_mesh(rng, k);
  return 0;
}
