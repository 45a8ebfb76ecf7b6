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

// Deterministic parallel loops (exec/exec.h): every loop runs over mesh
// rows, in chunks whose boundaries depend only on the mesh size, and sums
// combine the chunks in chunk order, so results are bit-identical at any
// --threads value.
constexpr std::size_t kSweepGrain = 2048;  // nodes per chunk
/// Loops over fewer nodes than this run inline: on the V-cycle's coarse
/// levels a pool region costs more in worker wake-ups than its rows take.
constexpr std::size_t kInlineNodes = std::size_t{1} << 14;

/// Gauss-Seidel sweeps before and after each coarse correction, and on
/// the coarsest level (k <= 7), where they stand in for an exact solve.
constexpr int kSmoothingSweeps = 2;
constexpr int kCoarsestSweeps = 16;

/// Residual blow-up test shared by every backend: NaN/Inf, or a residual
/// that grew three orders of magnitude past the best seen while clearly
/// above O(1). Healthy SPD sweeps decrease monotonically, so this never
/// fires on a well-posed mesh.
bool is_diverging(double rel, double best_rel) {
  if (!std::isfinite(rel)) return true;
  return rel > 10.0 && rel > 1e3 * best_rel;
}

/// Rows per chunk of a loop over `rows` rows that touches `nodes` mesh
/// nodes: about kSweepGrain nodes, or every row in one inline chunk.
std::size_t row_grain(int rows, std::size_t nodes) {
  const auto n = static_cast<std::size_t>(rows);
  return nodes < kInlineNodes
             ? n
             : std::max<std::size_t>(1, kSweepGrain * n / nodes);
}

/// Runs row_body(y) for y in [0, rows), a loop over `nodes` mesh nodes.
/// Each row writes only its own outputs, so the result is the same at any
/// thread count.
void for_rows(int rows, std::size_t nodes,
              const std::function<void(int)>& row_body) {
  exec::parallel_for(static_cast<std::size_t>(rows), row_grain(rows, nodes),
                     [&](std::size_t begin, std::size_t end) {
                       for (std::size_t y = begin; y < end; ++y) {
                         row_body(static_cast<int>(y));
                       }
                     });
}

/// for_rows for a loop that also sums: row_body(y) returns row y's share.
double sum_rows(int rows, std::size_t nodes,
                const std::function<double(int)>& row_body) {
  return exec::parallel_sum(static_cast<std::size_t>(rows),
                            row_grain(rows, nodes),
                            [&](std::size_t begin, std::size_t end) {
                              double sum = 0.0;
                              for (std::size_t y = begin; y < end; ++y) {
                                sum += row_body(static_cast<int>(y));
                              }
                              return sum;
                            });
}

/// The one layout of the mesh system A x = b: k x k nodes, row-major
/// (node y * k + x). Pads are Dirichlet nodes held at exactly 0 in every
/// vector. Die edges are Neumann: the missing links simply drop out. The
/// fine level folds Vdd into b; the V-cycle's coarse levels carry error
/// equations on the same layout.
struct Mesh {
  int k = 0;
  double gx = 0.0;
  double gy = 0.0;
  std::vector<unsigned char> pad;  // 1 = Dirichlet node
  std::vector<double> diag;        // A_ii
  std::vector<double> b;           // right-hand side (0 at pads)

  [[nodiscard]] std::size_t size() const { return pad.size(); }
  [[nodiscard]] std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(k) +
           static_cast<std::size_t>(x);
  }
};

/// A mesh with the pad mask pad_at(x, y), its diagonal and b = 0.
Mesh make_mesh(int k, double gx, double gy,
               const std::function<bool(int, int)>& pad_at) {
  const auto n = static_cast<std::size_t>(k) * static_cast<std::size_t>(k);
  Mesh m{k, gx, gy, std::vector<unsigned char>(n), std::vector<double>(n),
         std::vector<double>(n)};
  for_rows(k, n, [&](int y) {
    for (int x = 0; x < k; ++x) {
      const std::size_t i = m.index(x, y);
      m.pad[i] = pad_at(x, y) ? 1 : 0;
      double d = 0.0;
      if (x > 0) d += gx;
      if (x + 1 < k) d += gx;
      if (y > 0) d += gy;
      if (y + 1 < k) d += gy;
      m.diag[i] = d;
    }
  });
  return m;
}

/// The Eq.-(1) system of `grid`: b = -I plus g * Vdd for every link to a
/// pad. Neighbours are always visited left, right, down, up.
Mesh build_system(const PowerGrid& grid) {
  const int k = grid.k();
  Mesh m = make_mesh(k, grid.gx(), grid.gy(),
                     [&](int x, int y) { return grid.is_pad(x, y); });
  const double vdd = grid.spec().vdd;
  const auto row = static_cast<std::size_t>(k);
  for_rows(k, m.size(), [&](int y) {
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
  });
  return m;
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

/// out = A v, 0 at pads; returns v . A v.
double apply(const Mesh& m, const std::vector<double>& v,
             std::vector<double>& out) {
  return sum_rows(m.k, m.size(), [&](int y) {
    double vav = 0.0;
    for (int x = 0; x < m.k; ++x) {
      const std::size_t i = m.index(x, y);
      out[i] = m.pad[i] ? 0.0 : row_product(m, v, i, x, y);
      vav += v[i] * out[i];
    }
    return vav;
  });
}

/// r = b - A v, 0 at pads; returns r . r.
double residual(const Mesh& m, const std::vector<double>& b,
                const std::vector<double>& v, std::vector<double>& r) {
  return sum_rows(m.k, m.size(), [&](int y) {
    double rr = 0.0;
    for (int x = 0; x < m.k; ++x) {
      const std::size_t i = m.index(x, y);
      r[i] = m.pad[i] ? 0.0 : b[i] - row_product(m, v, i, x, y);
      rr += r[i] * r[i];
    }
    return rr;
  });
}

/// a . b over row y of the mesh.
double row_dot(const Mesh& m, const std::vector<double>& a,
               const std::vector<double>& b, int y) {
  double sum = 0.0;
  for (std::size_t i = m.index(0, y); i < m.index(0, y + 1); ++i) {
    sum += a[i] * b[i];
  }
  return sum;
}

/// The relative residual's denominator |b| (1 when b = 0).
double rhs_scale(const Mesh& m) {
  const double norm = std::sqrt(sum_rows(
      m.k, m.size(), [&](int y) { return row_dot(m, m.b, m.b, y); }));
  return norm > 0.0 ? norm : 1.0;
}

/// The two colours of a red-black sweep: the parity of x + y.
constexpr int kRed = 0;
constexpr int kBlack = 1;

/// Row y of one colour of a red-black SOR sweep of A v = b; omega = 1 is
/// Gauss-Seidel. Nodes of one colour only neighbour the other colour, so
/// a half-sweep is order-free: the same updates at any thread count.
void relax_row(const Mesh& m, const std::vector<double>& b,
               std::vector<double>& v, int colour, double omega, int y) {
  const auto row = static_cast<std::size_t>(m.k);
  for (int x = (y + colour) % 2; x < m.k; x += 2) {
    const std::size_t i = m.index(x, y);
    if (m.pad[i]) continue;
    double acc = b[i];
    if (x > 0) acc += m.gx * v[i - 1];
    if (x + 1 < m.k) acc += m.gx * v[i + 1];
    if (y > 0) acc += m.gy * v[i - row];
    if (y + 1 < m.k) acc += m.gy * v[i + row];
    v[i] = (1.0 - omega) * v[i] + omega * (acc / m.diag[i]);
  }
}

/// One colour of a red-black SOR sweep over the whole mesh.
void relax(const Mesh& m, const std::vector<double>& b, std::vector<double>& v,
           int colour, double omega) {
  for_rows(m.k, m.size(),
           [&](int y) { relax_row(m, b, v, colour, omega, y); });
}

/// The red Gauss-Seidel half-sweep of A v = b from v = 0 at node
/// i = (x, y): b_i / diag at a free red node, 0 elsewhere. Pointwise, so
/// the pass that writes b writes this v too.
double red_from_zero(const Mesh& m, double b_i, std::size_t i, int x, int y) {
  return (x + y) % 2 == kRed && !m.pad[i] ? b_i / m.diag[i] : 0.0;
}

// The CG preconditioner: one geometric-multigrid V-cycle on A e = r from
// e = 0. Level l + 1 has k_l / 2 + 1 nodes per side, coarse node X on
// fine node 2X, so bilinear prolongation P needs no clamp at either parity
// of k; restriction is exactly P^T, die edges included. The 5-point stencil
// is h-independent in 2-D, so every level reuses the link conductances.
// Red-black Gauss-Seidel pre-smoothing is followed, after the correction,
// by its adjoint (black then red), and the coarsest level (k <= 7) runs
// symmetric sweep pairs: M^-1 is symmetric positive definite, as CG needs.

/// v += P e at the free red fine nodes: fine node 2X takes coarse node X,
/// fine node 2X + 1 the mean of X and X + 1 (per axis, weights 1, 1/2,
/// 1/4). Black nodes are skipped: the post-smoothing's first half-sweep
/// is black at omega = 1, which replaces their values. A gather over fine
/// rows; for an even row both coarse rows are the same, the mean exact.
void prolong(const Mesh& coarse, const std::vector<double>& e,
             const Mesh& fine, std::vector<double>& v) {
  for_rows(fine.k, fine.size(), [&](int y) {
    const double* lo = &e[coarse.index(0, y / 2)];
    const double* hi = &e[coarse.index(0, (y + 1) / 2)];
    const auto column = [&](int cx) { return 0.5 * (lo[cx] + hi[cx]); };
    double* out = &v[fine.index(0, y)];
    const unsigned char* pad = &fine.pad[fine.index(0, y)];
    for (int x = y % 2; x < fine.k; x += 2) {
      if (pad[x]) continue;
      const int cx = x / 2;
      out[x] += x % 2 == 0 ? column(cx)
                           : 0.5 * (column(cx) + column(cx + 1));
    }
  });
}

/// coarse.b = P^T r (bilinear P), and coarse_x = red_from_zero(coarse.b),
/// for the residual r = b - A x of a field whose last half-sweep was
/// black. That left r = 0 at the black nodes, so P^T r gathers fine node
/// (2X, 2Y) with weight 1 and its four diagonal neighbours (2X +- 1,
/// 2Y +- 1) with weight 1/4, nodes off the mesh carrying nothing. A
/// gather over coarse rows that evaluates r on the fly; pads keep b = 0.
void restrict_residual(const Mesh& fine, const std::vector<double>& b,
                       const std::vector<double>& x, Mesh& coarse,
                       std::vector<double>& coarse_x) {
  const auto r = [&](int fx, int fy) {
    if (fx < 0 || fx >= fine.k || fy < 0 || fy >= fine.k) return 0.0;
    const std::size_t i = fine.index(fx, fy);
    return fine.pad[i] ? 0.0 : b[i] - row_product(fine, x, i, fx, fy);
  };
  for_rows(coarse.k, fine.size(), [&](int cy) {
    const int fy = 2 * cy;
    double left = 0.0;  // the diagonal neighbours in column 2X - 1
    for (int cx = 0; cx < coarse.k; ++cx) {
      const std::size_t i = coarse.index(cx, cy);
      const int fx = 2 * cx;
      const double right = r(fx + 1, fy - 1) + r(fx + 1, fy + 1);
      coarse.b[i] = coarse.pad[i] ? 0.0 : r(fx, fy) + 0.25 * (left + right);
      coarse_x[i] = red_from_zero(coarse, coarse.b[i], i, cx, cy);
      left = right;
    }
  });
}

/// The next coarser level. A coarse node is a pad when any fine node of its
/// 2x2 block {2X, 2X + 1}^2 is, so every level keeps a pad and stays
/// non-singular.
Mesh coarsen(const Mesh& fine) {
  const auto pad = [&fine](int x, int y) {
    return x < fine.k && y < fine.k && fine.pad[fine.index(x, y)] != 0;
  };
  return make_mesh(fine.k / 2 + 1, fine.gx, fine.gy, [&pad](int x, int y) {
    return pad(2 * x, 2 * y) || pad(2 * x + 1, 2 * y) ||
           pad(2 * x, 2 * y + 1) || pad(2 * x + 1, 2 * y + 1);
  });
}

class VCycle {
 public:
  explicit VCycle(const Mesh& fine) : fine_(fine) {
    for (const Mesh* m = &fine; m->k > 7; m = &levels_.back().mesh) {
      Mesh coarse = coarsen(*m);
      const std::size_t n = coarse.size();
      levels_.push_back({std::move(coarse), std::vector<double>(n)});
    }
  }

  /// z = M^-1 r, for a z that already holds red_from_zero(r) (CG writes
  /// it in the pass that updates r). Returns r . z.
  double apply(const std::vector<double>& r, std::vector<double>& z) {
    return cycle(0, fine_, r, z);
  }

 private:
  struct Level {
    Mesh mesh;  // mesh.b holds the restricted residual
    std::vector<double> x;
  };

  /// One cycle on A x = b from x = 0. On entry x holds the first red
  /// half-sweep, red_from_zero(b), written by the pass that wrote b.
  /// Returns b . x, summed in the last (red) half-sweep's pass.
  double cycle(std::size_t depth, const Mesh& m, const std::vector<double>& b,
               std::vector<double>& x) {
    const bool coarsest = depth == levels_.size();
    const int sweeps = coarsest ? kCoarsestSweeps : kSmoothingSweeps;
    // Half-sweeps 1 .. 2 sweeps - 1 on each side of the correction, colour
    // half % 2: black, red, ..., black (restrict_residual() relies on the
    // black one last).
    for (int half = 1; half < 2 * sweeps; ++half) relax(m, b, x, half % 2, 1.0);
    if (!coarsest) {
      Level& coarse = levels_[depth];
      restrict_residual(m, b, x, coarse.mesh, coarse.x);
      cycle(depth + 1, coarse.mesh, coarse.mesh.b, coarse.x);
      prolong(coarse.mesh, coarse.x, m, x);
    }
    for (int half = 1; half < 2 * sweeps; ++half) relax(m, b, x, half % 2, 1.0);
    return sum_rows(m.k, m.size(), [&](int y) {
      relax_row(m, b, x, kRed, 1.0, y);
      return row_dot(m, b, x, y);
    });
  }

  const Mesh& fine_;
  std::vector<Level> levels_;  // coarse levels, finest first
};

/// The starting iterate: Vdd at the free nodes (the classic cold start)
/// or the SolverOptions::warm_start field there, 0 at the pads.
std::vector<double> initial_iterate(const Mesh& m, double vdd,
                                    const SolverOptions& options) {
  const Grid2D<double>* warm = options.warm_start;
  std::vector<double> v(m.size());
  for_rows(m.k, m.size(), [&](int y) {
    for (std::size_t i = m.index(0, y); i < m.index(0, y + 1); ++i) {
      v[i] = m.pad[i] ? 0.0 : warm != nullptr ? warm->data()[i] : vdd;
    }
  });
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

  /// Traces `rel`, ticks progress and returns true when the loop must
  /// end: on a blow-up, at the tolerance or on an expired budget. `done`
  /// counts the iterations finished, for the progress line.
  bool stop(double rel, int done) {
    if (obs::tracing_enabled()) {
      obs::counter("solver.residual", {{"relative_residual", rel}});
    }
    if (obs::progress_enabled()) {
      obs::progress_tick("solver", done, options_.max_iterations);
    }
    if (is_diverging(rel, best_rel_)) {
      diverged();
      return true;
    }
    best_rel_ = std::min(best_rel_, rel);
    if (rel <= options_.tolerance) return true;
    if (options_.cancel && options_.cancel->expired()) {
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

/// The result of iterate `v`: the true relative residual |b - A v| / |b|
/// (computed in `work`), its verdict, and the field with Vdd written
/// back at the pads.
SolveResult finish(const Mesh& m, double vdd, double b_scale,
                   std::vector<double> v, std::vector<double>& work,
                   int iterations, const StopCheck& check) {
  SolveResult result;
  result.relative_residual = std::sqrt(residual(m, m.b, v, work)) / b_scale;
  result.stop = check.verdict(result.relative_residual);
  result.converged = result.stop == SolveStop::Converged;
  result.iterations = iterations;
  for_rows(m.k, m.size(), [&](int y) {
    for (std::size_t i = m.index(0, y); i < m.index(0, y + 1); ++i) {
      if (m.pad[i]) v[i] = vdd;
    }
  });
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
    relax(m, m.b, v, kRed, omega);
    relax(m, m.b, v, kBlack, omega);
    // Convergence is checked on the true residual every few sweeps to keep
    // the check from dominating the sweep cost.
    if (iter % 8 == 7) {
      if (check.stop(std::sqrt(residual(m, m.b, v, r)) / b_scale, iter + 1)) {
        ++iter;
        break;
      }
    }
  }
  return finish(m, vdd, b_scale, std::move(v), r, iter, check);
}

SolveResult solve_cg(const Mesh& m, double vdd, const SolverOptions& options) {
  const std::size_t n = m.size();
  const double b_scale = rhs_scale(m);
  std::vector<double> x = initial_iterate(m, vdd, options);
  std::vector<double> r(n);
  std::vector<double> z(n);
  std::vector<double> ap(n);
  VCycle preconditioner(m);

  double rr = residual(m, m.b, x, r);
  relax(m, r, z, kRed, 1.0);  // red_from_zero(r), as z starts at 0
  double rz = preconditioner.apply(r, z);
  std::vector<double> p = z;

  StopCheck check(options);
  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    if (check.faulted()) break;
    if (check.stop(std::sqrt(rr) / b_scale, iter)) break;

    const double p_ap = apply(m, p, ap);
    if (!(p_ap > 0.0) || !std::isfinite(p_ap)) {
      // Lost positive definiteness (ill-conditioned or corrupt mesh):
      // divergence, so the fallback chain can rescue the solve.
      check.diverged();
      break;
    }
    const double alpha = rz / p_ap;
    rr = sum_rows(m.k, n, [&](int y) {
      double row = 0.0;
      for (int col = 0; col < m.k; ++col) {
        const std::size_t i = m.index(col, y);
        x[i] += alpha * p[i];
        r[i] -= alpha * ap[i];
        row += r[i] * r[i];
        z[i] = red_from_zero(m, r[i], i, col, y);
      }
      return row;
    });
    const double rz_next = preconditioner.apply(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for_rows(m.k, n, [&](int y) {
      for (std::size_t i = m.index(0, y); i < m.index(0, y + 1); ++i) {
        p[i] = z[i] + beta * p[i];
      }
    });
  }
  return finish(m, vdd, b_scale, std::move(x), ap, iter, check);
}

}  // namespace

std::string_view to_string(SolverKind kind) {
  switch (kind) {
    case SolverKind::Sor:
      return "sor";
    case SolverKind::ConjugateGradient:
      return "cg";
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
  const obs::ScopedSpan span(
      options.kind == SolverKind::Sor ? "solver.sor" : "solver.cg", "power");
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
      result = kind == SolverKind::Sor
                   ? solve_sor(sys, grid.spec().vdd, attempt_options)
                   : solve_cg(sys, grid.spec().vdd, attempt_options);
      attempts.push_back(SolveAttempt{kind, result.iterations,
                                      result.relative_residual, result.stop});
      if (result.stop != SolveStop::Diverged) break;
      if (obs::metrics_enabled()) obs::count("solver.fallbacks");
    }
    if (result.stop == SolveStop::Diverged) {
      std::string what = "solve: every backend diverged:";
      for (const SolveAttempt& attempt : attempts) {
        what.append(" ").append(to_string(attempt.kind)).append("(iter ");
        what.append(std::to_string(attempt.iterations)).append(")");
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
