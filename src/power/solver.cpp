#include "power/solver.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "exec/exec.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/faultpoint.h"

namespace fp {
namespace {

// Deterministic parallel grains (exec/exec.h): chunk boundaries depend
// only on these constants and the problem size, never on the thread
// count, so reductions are bit-identical at any --threads value. The
// reduce grain also keeps every mesh up to 64x64 on a single chunk,
// where the canonical chunked sum degenerates to the classic streaming
// sum -- those paths are bit-for-bit what the serial solver computed.
constexpr std::size_t kReduceGrain = 4096;
constexpr std::size_t kSweepGrain = 2048;

/// Residual blow-up test shared by every backend: NaN/Inf, or a residual
/// that grew three orders of magnitude past the best seen while clearly
/// above O(1). Healthy SPD sweeps decrease monotonically, so this never
/// fires on a well-posed mesh.
bool is_diverging(double rel, double best_rel) {
  if (!std::isfinite(rel)) return true;
  return rel > 10.0 && rel > 1e3 * best_rel;
}

/// The one layout of the mesh system A x = b: k x k nodes, row-major
/// (node y * k + x). Pads are Dirichlet nodes held at exactly 0 in every
/// vector; their diagonal is 1, so the Jacobi preconditioner r / diag
/// keeps them at 0 too. Die edges are Neumann: the missing links simply
/// drop out. The fine level folds Vdd into b; multigrid's coarse levels
/// carry error equations on the same layout.
struct Mesh {
  int k = 0;
  double gx = 0.0;
  double gy = 0.0;
  std::vector<unsigned char> pad;  // 1 = Dirichlet node
  std::vector<double> diag;        // A_ii (1 at pads)
  std::vector<double> b;           // right-hand side (0 at pads)

  [[nodiscard]] std::size_t size() const { return pad.size(); }
  [[nodiscard]] std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(k) +
           static_cast<std::size_t>(x);
  }
};

/// A mesh with the pad mask `pad`, its diagonal and b = 0.
Mesh make_mesh(int k, double gx, double gy, std::vector<unsigned char> pad) {
  Mesh m;
  m.k = k;
  m.gx = gx;
  m.gy = gy;
  m.pad = std::move(pad);
  m.diag.assign(m.size(), 1.0);
  m.b.assign(m.size(), 0.0);
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      const std::size_t i = m.index(x, y);
      if (m.pad[i]) continue;
      double d = 0.0;
      if (x > 0) d += gx;
      if (x + 1 < k) d += gx;
      if (y > 0) d += gy;
      if (y + 1 < k) d += gy;
      m.diag[i] = d;
    }
  }
  return m;
}

/// The Eq.-(1) system of `grid`: b = -I plus g * Vdd for every link to a
/// pad. Neighbours are always visited left, right, down, up.
Mesh build_system(const PowerGrid& grid) {
  const int k = grid.k();
  std::vector<unsigned char> pad;  // row-major, like every vector here
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) pad.push_back(grid.is_pad(x, y) ? 1 : 0);
  }
  Mesh m = make_mesh(k, grid.gx(), grid.gy(), std::move(pad));
  const double vdd = grid.spec().vdd;
  const auto row = static_cast<std::size_t>(k);
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      const std::size_t i = m.index(x, y);
      if (m.pad[i]) continue;
      double b = -grid.node_current(x, y);
      if (x > 0 && m.pad[i - 1]) b += m.gx * vdd;
      if (x + 1 < k && m.pad[i + 1]) b += m.gx * vdd;
      if (y > 0 && m.pad[i - row]) b += m.gy * vdd;
      if (y + 1 < k && m.pad[i + row]) b += m.gy * vdd;
      m.b[i] = b;
    }
  }
  return m;
}

/// Runs row_body(y) for every mesh row, split over the pool in chunks
/// that depend only on k. Each row writes only its own nodes, so the
/// result is the same at any thread count.
void for_rows(int k, const std::function<void(int)>& row_body) {
  const auto rows = static_cast<std::size_t>(k);
  const std::size_t grain = std::max<std::size_t>(1, kSweepGrain / rows);
  exec::parallel_for(rows, grain, [&](std::size_t begin, std::size_t end) {
    for (std::size_t y = begin; y < end; ++y) row_body(static_cast<int>(y));
  });
}

/// (A v)_i at the free node i = (x, y). Pads hold 0 in `v`, so a pad
/// neighbour drops out exactly, like a Neumann edge. The neighbour order
/// (left, right, down, up) is part of the result: changing it moves the
/// last bits of every solve.
double row_product(const Mesh& m, const std::vector<double>& v,
                   std::size_t i, int x, int y) {
  const auto row = static_cast<std::size_t>(m.k);
  double acc = m.diag[i] * v[i];
  if (x > 0) acc -= m.gx * v[i - 1];
  if (x + 1 < m.k) acc -= m.gx * v[i + 1];
  if (y > 0) acc -= m.gy * v[i - row];
  if (y + 1 < m.k) acc -= m.gy * v[i + row];
  return acc;
}

/// out = A v, 0 at pads.
void apply(const Mesh& m, const std::vector<double>& v,
           std::vector<double>& out) {
  for_rows(m.k, [&](int y) {
    for (int x = 0; x < m.k; ++x) {
      const std::size_t i = m.index(x, y);
      out[i] = m.pad[i] ? 0.0 : row_product(m, v, i, x, y);
    }
  });
}

/// r = b - A v, 0 at pads.
void residual(const Mesh& m, const std::vector<double>& v,
              std::vector<double>& r) {
  for_rows(m.k, [&](int y) {
    for (int x = 0; x < m.k; ++x) {
      const std::size_t i = m.index(x, y);
      r[i] = m.pad[i] ? 0.0 : m.b[i] - row_product(m, v, i, x, y);
    }
  });
}

/// Chunked dot product in canonical (chunk-index) order: bit-identical
/// at every thread count, and identical to the streaming sum whenever
/// the vectors fit one kReduceGrain chunk.
double dot(const std::vector<double>& a, const std::vector<double>& b) {
  return exec::parallel_sum(a.size(), kReduceGrain,
                            [&](std::size_t begin, std::size_t end) {
                              double acc = 0.0;
                              for (std::size_t i = begin; i < end; ++i) {
                                acc += a[i] * b[i];
                              }
                              return acc;
                            });
}

/// The relative residual's denominator |b| (1 when b = 0).
double rhs_scale(const Mesh& m) {
  const double norm = std::sqrt(dot(m.b, m.b));
  return norm > 0.0 ? norm : 1.0;
}

/// One red-black SOR sweep of A v = b; omega = 1 is Gauss-Seidel. Nodes
/// of one colour ((x + y) parity) only neighbour the other colour, so each
/// half-sweep is order-free: the same update sequence at any thread count.
void sor_sweep(const Mesh& m, std::vector<double>& v, double omega) {
  const auto row = static_cast<std::size_t>(m.k);
  for (int colour = 0; colour < 2; ++colour) {
    for_rows(m.k, [&](int y) {
      for (int x = (y + colour) % 2; x < m.k; x += 2) {
        const std::size_t i = m.index(x, y);
        if (m.pad[i]) continue;
        double acc = m.b[i];
        if (x > 0) acc += m.gx * v[i - 1];
        if (x + 1 < m.k) acc += m.gx * v[i + 1];
        if (y > 0) acc += m.gy * v[i - row];
        if (y + 1 < m.k) acc += m.gy * v[i + row];
        v[i] = (1.0 - omega) * v[i] + omega * (acc / m.diag[i]);
      }
    });
  }
}

/// The starting iterate: Vdd at the free nodes (the classic cold start)
/// or the SolverOptions::warm_start field there, 0 at the pads.
std::vector<double> initial_iterate(const Mesh& m, double vdd,
                                    const SolverOptions& options) {
  std::vector<double> v(m.size(), 0.0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (m.pad[i]) continue;
    v[i] = options.warm_start != nullptr ? options.warm_start->data()[i] : vdd;
  }
  return v;
}

/// The residual check every backend shares. It owns the stop reason: a
/// fault or blow-up makes it Diverged, an expired budget Budget.
class StopCheck {
 public:
  explicit StopCheck(const SolverOptions& options) : options_(options) {}

  /// The solver.step fault site: a simulated numeric blow-up.
  bool faulted() {
    if (!fault::enabled() || !fault::triggered("solver.step")) return false;
    diverged();
    return true;
  }

  void diverged() { stop_ = SolveStop::Diverged; }

  /// Traces `rel` and returns true when the loop must end: on a blow-up,
  /// at the tolerance, or -- when `poll` is set -- on an expired budget.
  /// `done` counts the iterations finished, for the progress line.
  bool stop(double rel, int done, bool poll) {
    if (obs::tracing_enabled()) {
      obs::counter("solver.residual", {{"relative_residual", rel}});
    }
    if (poll && obs::progress_enabled()) {
      obs::progress_tick("solver", done, options_.max_iterations);
    }
    if (is_diverging(rel, best_rel_)) {
      diverged();
      return true;
    }
    best_rel_ = std::min(best_rel_, rel);
    if (rel <= options_.tolerance) return true;
    if (poll && options_.cancel && options_.cancel->expired()) {
      stop_ = SolveStop::Budget;
      return true;
    }
    return false;
  }

  /// The stop reason of a returned field whose true residual is `rel`:
  /// Diverged if the loop saw a blow-up, else Converged at the tolerance,
  /// else the loop's own reason (Budget) or IterationLimit.
  [[nodiscard]] SolveStop verdict(double rel) const {
    if (stop_ == SolveStop::Diverged) return SolveStop::Diverged;
    if (std::isfinite(rel) && rel <= options_.tolerance) {
      return SolveStop::Converged;
    }
    return stop_.value_or(SolveStop::IterationLimit);
  }

 private:
  const SolverOptions& options_;
  double best_rel_ = std::numeric_limits<double>::infinity();
  std::optional<SolveStop> stop_;
};

/// The result of iterate `v`: the true relative residual |b - A v| / |b|,
/// its verdict, and the field with Vdd written back at the pads.
SolveResult finish(const Mesh& m, double vdd, double b_scale,
                   std::vector<double> v, int iterations,
                   const StopCheck& check) {
  SolveResult result;
  std::vector<double> r(m.size());
  residual(m, v, r);
  result.relative_residual = std::sqrt(dot(r, r)) / b_scale;
  result.stop = check.verdict(result.relative_residual);
  result.converged = result.stop == SolveStop::Converged;
  result.iterations = iterations;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (m.pad[i]) v[i] = vdd;
  }
  const auto k = static_cast<std::size_t>(m.k);
  result.voltage = Grid2D<double>(k, k);
  result.voltage.data() = std::move(v);
  return result;
}

SolveResult solve_sor(const Mesh& m, double vdd,
                      const SolverOptions& options) {
  const double omega = options.sor_omega;
  require(omega > 0.0 && omega < 2.0,
          "solve: SOR omega must lie in (0, 2) for convergence");
  const double b_scale = rhs_scale(m);
  std::vector<double> v = initial_iterate(m, vdd, options);
  std::vector<double> r(m.size());
  StopCheck check(options);
  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    if (check.faulted()) break;
    sor_sweep(m, v, omega);
    // Convergence is checked on the true residual every few sweeps to keep
    // the check from dominating the sweep cost.
    if (iter % 8 == 7) {
      residual(m, v, r);
      if (check.stop(std::sqrt(dot(r, r)) / b_scale, iter + 1, true)) {
        ++iter;
        break;
      }
    }
  }
  return finish(m, vdd, b_scale, std::move(v), iter, check);
}

SolveResult solve_cg(const Mesh& m, double vdd, const SolverOptions& options) {
  const std::size_t n = m.size();
  const double b_scale = rhs_scale(m);
  std::vector<double> x = initial_iterate(m, vdd, options);
  std::vector<double> r(n);
  std::vector<double> z(n);
  std::vector<double> ap(n);
  const auto elementwise =
      [n](const std::function<void(std::size_t, std::size_t)>& body) {
        exec::parallel_for(n, kSweepGrain, body);
      };

  residual(m, x, r);
  elementwise([&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      z[i] = r[i] / m.diag[i];  // Jacobi M^-1
    }
  });
  std::vector<double> p = z;
  double rz = dot(r, z);

  StopCheck check(options);
  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    if (check.faulted()) break;
    const double rel = std::sqrt(dot(r, r)) / b_scale;
    if (check.stop(rel, iter, (iter & 15) == 0)) break;

    apply(m, p, ap);
    const double p_ap = dot(p, ap);
    if (!(p_ap > 0.0) || !std::isfinite(p_ap)) {
      // Lost positive definiteness (ill-conditioned or corrupt mesh):
      // divergence, so the fallback chain can rescue the solve.
      check.diverged();
      break;
    }
    const double alpha = rz / p_ap;
    elementwise([&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) x[i] += alpha * p[i];
      for (std::size_t i = begin; i < end; ++i) r[i] -= alpha * ap[i];
      for (std::size_t i = begin; i < end; ++i) z[i] = r[i] / m.diag[i];
    });
    const double rz_next = dot(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    elementwise([&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) p[i] = z[i] + beta * p[i];
    });
  }
  return finish(m, vdd, b_scale, std::move(x), iter, check);
}

// ---------------------------------------------------------------------
// Geometric multigrid: V-cycles whose finest level is the solve's own
// system and whose coarser levels carry error equations (pads at 0) on the
// same layout. The 5-point sheet-conductance stencil is h-independent in
// 2-D, so every level reuses the same link conductances.
// ---------------------------------------------------------------------
class Multigrid {
 public:
  Multigrid(const Mesh& fine, std::vector<double> x0) {
    levels_.push_back({fine, std::move(x0), std::vector<double>(fine.size())});
    // Factor-2 coarsening with mask injection: a coarse node is Dirichlet
    // when any fine node of its 2x2 block is. This keeps every level
    // non-singular (a pure-Neumann coarse system would make the smoother
    // drift off the inconsistent residual).
    while (levels_.back().mesh.k > 7) {
      const Mesh& parent = levels_.back().mesh;
      const int k = (parent.k + 1) / 2;
      std::vector<unsigned char> pad;
      for (int y = 0; y < k; ++y) {
        for (int x = 0; x < k; ++x) {
          unsigned char is_pad = 0;
          for (int dy = 0; dy <= 1; ++dy) {
            for (int dx = 0; dx <= 1; ++dx) {
              const int fx = std::min(2 * x + dx, parent.k - 1);
              const int fy = std::min(2 * y + dy, parent.k - 1);
              is_pad |= parent.pad[parent.index(fx, fy)];
            }
          }
          pad.push_back(is_pad);
        }
      }
      const std::size_t n = pad.size();
      Mesh coarse = make_mesh(k, parent.gx, parent.gy, std::move(pad));
      levels_.push_back(
          {std::move(coarse), std::vector<double>(n), std::vector<double>(n)});
    }
  }

  /// One V-cycle from level `depth` down (0 = the fine system).
  void v_cycle(std::size_t depth = 0) {
    Level& level = levels_[depth];
    if (depth + 1 == levels_.size()) {
      smooth(level, 60);  // coarsest: relax to near-exact
      return;
    }
    smooth(level, 2);
    residual(level.mesh, level.x, level.r);

    // Full-weighting restriction of the residual into the coarse RHS.
    const Mesh& fine = level.mesh;
    Level& coarse = levels_[depth + 1];
    const int ck = coarse.mesh.k;
    std::fill(coarse.x.begin(), coarse.x.end(), 0.0);
    for (int y = 0; y < ck; ++y) {
      for (int x = 0; x < ck; ++x) {
        const std::size_t ci = coarse.mesh.index(x, y);
        if (coarse.mesh.pad[ci]) continue;  // b stays 0 at pads
        const int fx = std::min(2 * x, fine.k - 1);
        const int fy = std::min(2 * y, fine.k - 1);
        double sum = 0.0;
        double weight = 0.0;
        for (int dy = -1; dy <= 1; ++dy) {
          for (int dx = -1; dx <= 1; ++dx) {
            const int nx = fx + dx;
            const int ny = fy + dy;
            if (nx < 0 || nx >= fine.k || ny < 0 || ny >= fine.k) continue;
            const double w = (dx == 0 ? 2.0 : 1.0) * (dy == 0 ? 2.0 : 1.0);
            sum += w * level.r[fine.index(nx, ny)];
            weight += w;
          }
        }
        coarse.mesh.b[ci] = 4.0 * sum / weight;
      }
    }

    v_cycle(depth + 1);

    // Bilinear prolongation of the coarse correction.
    const std::vector<double>& e = coarse.x;
    for (int y = 0; y < fine.k; ++y) {
      for (int x = 0; x < fine.k; ++x) {
        const std::size_t i = fine.index(x, y);
        if (fine.pad[i]) continue;
        const double cx =
            std::min(static_cast<double>(x) / 2.0, static_cast<double>(ck - 1));
        const double cy =
            std::min(static_cast<double>(y) / 2.0, static_cast<double>(ck - 1));
        const int x0 = static_cast<int>(cx);
        const int y0 = static_cast<int>(cy);
        const int x1 = std::min(x0 + 1, ck - 1);
        const int y1 = std::min(y0 + 1, ck - 1);
        const double tx = cx - x0;
        const double ty = cy - y0;
        level.x[i] += (1.0 - tx) * (1.0 - ty) * e[coarse.mesh.index(x0, y0)] +
                      tx * (1.0 - ty) * e[coarse.mesh.index(x1, y0)] +
                      (1.0 - tx) * ty * e[coarse.mesh.index(x0, y1)] +
                      tx * ty * e[coarse.mesh.index(x1, y1)];
      }
    }
    smooth(level, 2);
  }

  /// The fine residual b - A x after the last cycle.
  [[nodiscard]] const std::vector<double>& fine_residual() {
    Level& fine = levels_.front();
    residual(fine.mesh, fine.x, fine.r);
    return fine.r;
  }

  [[nodiscard]] std::vector<double>& solution() { return levels_.front().x; }

 private:
  struct Level {
    Mesh mesh;
    std::vector<double> x;
    std::vector<double> r;
  };

  static void smooth(Level& level, int sweeps) {
    for (int sweep = 0; sweep < sweeps; ++sweep) {
      sor_sweep(level.mesh, level.x, 1.0);
    }
  }

  std::vector<Level> levels_;
};

SolveResult solve_multigrid(const Mesh& m, double vdd,
                            const SolverOptions& options) {
  const double b_scale = rhs_scale(m);
  Multigrid mg(m, initial_iterate(m, vdd, options));
  StopCheck check(options);
  int cycles = 0;
  for (; cycles < options.max_iterations; ++cycles) {
    if (check.faulted()) break;
    mg.v_cycle();
    const std::vector<double>& r = mg.fine_residual();
    if (check.stop(std::sqrt(dot(r, r)) / b_scale, cycles + 1, true)) {
      ++cycles;
      break;
    }
  }
  return finish(m, vdd, b_scale, std::move(mg.solution()), cycles, check);
}

/// Static span name per backend (no allocation when tracing is off).
std::string_view span_name(SolverKind kind) {
  switch (kind) {
    case SolverKind::Sor:
      return "solver.sor";
    case SolverKind::ConjugateGradient:
      return "solver.cg";
    case SolverKind::Multigrid:
      return "solver.multigrid";
  }
  return "solver.unknown";
}

SolveResult run_backend(const Mesh& sys, double vdd,
                        const SolverOptions& options) {
  if (options.kind == SolverKind::ConjugateGradient) {
    return solve_cg(sys, vdd, options);
  }
  if (options.kind == SolverKind::Multigrid) {
    return solve_multigrid(sys, vdd, options);
  }
  return solve_sor(sys, vdd, options);
}

}  // namespace

std::string_view to_string(SolverKind kind) {
  switch (kind) {
    case SolverKind::Sor:
      return "sor";
    case SolverKind::ConjugateGradient:
      return "cg";
    case SolverKind::Multigrid:
      return "multigrid";
  }
  return "unknown";
}

std::string_view to_string(SolveStop stop) {
  switch (stop) {
    case SolveStop::Converged:
      return "converged";
    case SolveStop::IterationLimit:
      return "iteration_limit";
    case SolveStop::Trivial:
      return "trivial";
    case SolveStop::Diverged:
      return "diverged";
    case SolveStop::Budget:
      return "budget";
  }
  return "unknown";
}

SolveResult solve(const PowerGrid& grid, const SolverOptions& options) {
  require(!grid.pads().empty(),
          "solve: power grid needs at least one pad (singular system)");
  require(options.tolerance > 0.0, "solve: tolerance must be positive");
  require(options.max_iterations > 0,
          "solve: max_iterations must be positive");
  const auto k = static_cast<std::size_t>(grid.k());
  if (options.warm_start != nullptr) {
    require(options.warm_start->width() == k &&
                options.warm_start->height() == k,
            "solve: warm_start field must match the grid's k x k shape");
  }
  const obs::ScopedSpan span(span_name(options.kind), "power");
  SolveResult result;
  if (grid.pads().size() == k * k) {
    // Every node is a pad: the field is exactly Vdd.
    result.voltage = Grid2D<double>(k, k, grid.spec().vdd);
    result.converged = true;
    result.stop = SolveStop::Trivial;
  } else {
    const Mesh sys = build_system(grid);
    // Fallback chain: the requested backend, then SOR. On the healthy
    // path the chain runs exactly one backend and the result is
    // bit-identical to a chain-free solve.
    std::vector<SolverKind> chain{options.kind};
    if (options.fallback && options.kind != SolverKind::Sor) {
      chain.push_back(SolverKind::Sor);
    }
    std::vector<SolveAttempt> attempts;
    for (const SolverKind kind : chain) {
      SolverOptions attempt_options = options;
      attempt_options.kind = kind;
      result = run_backend(sys, grid.spec().vdd, attempt_options);
      attempts.push_back(SolveAttempt{kind, result.iterations,
                                      result.relative_residual, result.stop});
      if (result.stop != SolveStop::Diverged) break;
      if (obs::metrics_enabled()) obs::count("solver.fallbacks");
    }
    if (result.stop == SolveStop::Diverged) {
      std::string what = "solve: every backend diverged:";
      for (const SolveAttempt& attempt : attempts) {
        what += " " + std::string(to_string(attempt.kind)) + "(iter " +
                std::to_string(attempt.iterations) + ")";
      }
      SolverError error(what);
      error.add_context("solver.fallback");
      throw error;
    }
    result.attempts = std::move(attempts);
    result.warm_started = options.warm_start != nullptr;
  }
  if (obs::metrics_enabled()) {
    obs::count("solver.solves");
    obs::count("solver.iterations_total", result.iterations);
    obs::count("solver.stop." + std::string(to_string(result.stop)));
    obs::observe("solver.iterations", result.iterations,
                 {8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096});
    obs::gauge("solver.relative_residual", result.relative_residual);
  }
  return result;
}

double max_ir_drop(const PowerGrid& grid, const SolveResult& result) {
  require(result.stop != SolveStop::Diverged,
          "max_ir_drop: the solve diverged and its voltage field is "
          "meaningless; keep SolverOptions::fallback on or inspect "
          "SolveResult::attempts");
  double lowest = grid.spec().vdd;
  for (const double v : result.voltage.data()) lowest = std::min(lowest, v);
  return grid.spec().vdd - lowest;
}

double mean_ir_drop(const PowerGrid& grid, const SolveResult& result) {
  require(result.stop != SolveStop::Diverged,
          "mean_ir_drop: the solve diverged and its voltage field is "
          "meaningless; keep SolverOptions::fallback on or inspect "
          "SolveResult::attempts");
  double total = 0.0;
  for (const double v : result.voltage.data()) total += grid.spec().vdd - v;
  return result.voltage.size() > 0
             ? total / static_cast<double>(result.voltage.size())
             : 0.0;
}

}  // namespace fp
