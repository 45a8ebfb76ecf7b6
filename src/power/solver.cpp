#include "power/solver.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
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
/// Loops over fewer nodes than this run as plain loops that never enter
/// exec: on the V-cycle's coarse levels a pool region costs more in worker
/// wake-ups than its rows take.
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

/// Rows per pooled chunk of a loop over `rows` rows that touches `nodes`
/// mesh nodes: about kSweepGrain nodes.
std::size_t row_grain(int rows, std::size_t nodes) {
  return std::max<std::size_t>(
      1, kSweepGrain * static_cast<std::size_t>(rows) / nodes);
}

/// Runs chunk_body(begin, end) over row chunks of [0, rows), a loop over
/// `nodes` mesh nodes: on the pool, or as one plain call below
/// kInlineNodes. Each chunk writes only its own rows' outputs, so the
/// result is the same at any thread count.
template <typename ChunkBody>
void for_row_chunks(int rows, std::size_t nodes, const ChunkBody& chunk_body) {
  if (nodes < kInlineNodes) {
    chunk_body(0, rows);
    return;
  }
  exec::parallel_for(static_cast<std::size_t>(rows), row_grain(rows, nodes),
                     [&](std::size_t begin, std::size_t end) {
                       chunk_body(static_cast<int>(begin),
                                  static_cast<int>(end));
                     });
}

/// Runs row_body(y) for y in [0, rows), a loop over `nodes` mesh nodes.
template <typename RowBody>
void for_rows(int rows, std::size_t nodes, const RowBody& row_body) {
  for_row_chunks(rows, nodes, [&](int begin, int end) {
    for (int y = begin; y < end; ++y) row_body(y);
  });
}

/// for_rows for a loop that also sums: row_body(y) returns row y's share.
/// Rows add up in order within a chunk and chunks in chunk order; the
/// plain loop returns 0.0 + its one chunk, as exec::parallel_sum does.
template <typename RowBody>
double sum_rows(int rows, std::size_t nodes, const RowBody& row_body) {
  const auto chunk_sum = [&](int begin, int end) {
    double sum = 0.0;
    for (int y = begin; y < end; ++y) sum += row_body(y);
    return sum;
  };
  if (nodes < kInlineNodes) return 0.0 + chunk_sum(0, rows);
  return exec::parallel_sum(
      static_cast<std::size_t>(rows), row_grain(rows, nodes),
      [&](std::size_t begin, std::size_t end) {
        return chunk_sum(static_cast<int>(begin), static_cast<int>(end));
      });
}

/// The one layout of the mesh system A x = b: k x k nodes, row-major
/// (node y * k + x). Pads are Dirichlet nodes held at exactly 0 in every
/// vector. Die edges are Neumann: the missing links simply drop out. No
/// diagonal is stored: Stencil forms A_ii from (x, y), one constant off
/// the die edge. The fine level folds Vdd into b; the V-cycle's coarse
/// levels carry error equations on the same layout.
struct Mesh {
  int k = 0;
  double gx = 0.0;
  double gy = 0.0;
  std::vector<unsigned char> pad;  // 1 = Dirichlet node
  std::vector<double> b;           // right-hand side (0 at pads)

  [[nodiscard]] std::size_t size() const { return pad.size(); }
  [[nodiscard]] std::size_t index(int x, int y) const {
    return static_cast<std::size_t>(y) * static_cast<std::size_t>(k) +
           static_cast<std::size_t>(x);
  }
};

/// The 5-point stencil of a mesh, held by value so that a kernel's stores
/// to a vector cannot alias its conductances. Neighbours are always taken
/// left, right, down, up: the order is part of the result, and changing
/// it moves the last bits of every solve. kInterior marks a node off the
/// die edge (0 < x, y < k - 1), whose four links are all on the mesh: it
/// skips the bound tests, and its diagonal is the constant d, the sum the
/// edge path forms there, so both paths give the same bits.
struct Stencil {
  explicit Stencil(const Mesh& m)
      : k(m.k), gx(m.gx), gy(m.gy), d(((m.gx + m.gx) + m.gy) + m.gy),
        row(static_cast<std::size_t>(m.k)) {}

  /// A_ii at (x, y): its on-mesh links summed from 0.
  template <bool kInterior>
  [[nodiscard]] double diagonal(int x, int y) const {
    if constexpr (kInterior) return d;
    double sum = 0.0;
    if (x > 0) sum += gx;
    if (x + 1 < k) sum += gx;
    if (y > 0) sum += gy;
    if (y + 1 < k) sum += gy;
    return sum;
  }

  /// (A v)_i at node i = (x, y). Pads hold 0 in `v`, so a pad neighbour
  /// drops out exactly, like a Neumann edge.
  template <bool kInterior>
  [[nodiscard]] double product(const std::vector<double>& v, std::size_t i,
                               int x, int y) const {
    double acc = diagonal<kInterior>(x, y) * v[i];
    if (kInterior || x > 0) acc -= gx * v[i - 1];
    if (kInterior || x + 1 < k) acc -= gx * v[i + 1];
    if (kInterior || y > 0) acc -= gy * v[i - row];
    if (kInterior || y + 1 < k) acc -= gy * v[i + row];
    return acc;
  }

  /// b_i plus the off-diagonal links to `v`, the numerator of a
  /// Gauss-Seidel update.
  template <bool kInterior>
  [[nodiscard]] double gather(double b_i, const std::vector<double>& v,
                              std::size_t i, int x, int y) const {
    double acc = b_i;
    if (kInterior || x > 0) acc += gx * v[i - 1];
    if (kInterior || x + 1 < k) acc += gx * v[i + 1];
    if (kInterior || y > 0) acc += gy * v[i - row];
    if (kInterior || y + 1 < k) acc += gy * v[i + row];
    return acc;
  }

  int k;
  double gx;
  double gy;
  double d;
  std::size_t row;
};

/// Calls node(x, interior) for x = first, first + step, ... < k of row y,
/// in order, with interior a std::bool_constant: true off the die edge.
template <typename Node>
void for_columns(int k, int y, int first, int step, const Node& node) {
  int x = first;
  if (y == 0 || y == k - 1) {
    for (; x < k; x += step) node(x, std::false_type{});
    return;
  }
  if (x == 0) {
    node(x, std::false_type{});
    x += step;
  }
  for (; x < k - 1; x += step) node(x, std::true_type{});
  if (x == k - 1) node(x, std::false_type{});
}

/// The Eq.-(1) system of `grid` and the relative residual's denominator.
struct System {
  Mesh mesh;
  double b_scale;  // |b|, or 1 when b = 0
};

/// The Eq.-(1) system of `grid` in one pass: the pad mask, b = -I plus
/// g * Vdd for every link to a pad (neighbours left, right, down, up) and
/// |b|^2.
System build_system(const PowerGrid& grid) {
  const int k = grid.k();
  const auto n = static_cast<std::size_t>(k) * static_cast<std::size_t>(k);
  System sys{Mesh{k, grid.gx(), grid.gy(), std::vector<unsigned char>(n),
                  std::vector<double>(n)},
             1.0};
  Mesh& m = sys.mesh;
  const PowerGrid::LoadMap loads = grid.load_map();
  const double gx_vdd = m.gx * grid.spec().vdd;
  const double gy_vdd = m.gy * grid.spec().vdd;
  const double bb = sum_rows(k, n, [&](int y) {
    double bb_row = 0.0;
    for (int x = 0; x < k; ++x) {
      const std::size_t i = m.index(x, y);
      if (grid.is_pad(x, y)) {
        m.pad[i] = 1;
        continue;
      }
      double b = -loads.at(i);
      if (x > 0 && grid.is_pad(x - 1, y)) b += gx_vdd;
      if (x + 1 < k && grid.is_pad(x + 1, y)) b += gx_vdd;
      if (y > 0 && grid.is_pad(x, y - 1)) b += gy_vdd;
      if (y + 1 < k && grid.is_pad(x, y + 1)) b += gy_vdd;
      m.b[i] = b;
      bb_row += b * b;
    }
    return bb_row;
  });
  const double norm = std::sqrt(bb);
  if (norm > 0.0) sys.b_scale = norm;
  return sys;
}

/// out = A v, 0 at pads; returns v . A v.
double apply(const Mesh& m, const std::vector<double>& v,
             std::vector<double>& out) {
  const Stencil stencil(m);
  return sum_rows(m.k, m.size(), [&](int y) {
    double vav = 0.0;
    for_columns(m.k, y, 0, 1, [&](int x, auto interior) {
      const std::size_t i = m.index(x, y);
      const double product = stencil.product<interior>(v, i, x, y);
      out[i] = m.pad[i] ? 0.0 : product;
      vav += v[i] * out[i];
    });
    return vav;
  });
}

/// r = b - A v, 0 at pads; returns r . r.
double residual(const Mesh& m, const std::vector<double>& b,
                const std::vector<double>& v, std::vector<double>& r) {
  const Stencil stencil(m);
  return sum_rows(m.k, m.size(), [&](int y) {
    double rr = 0.0;
    for_columns(m.k, y, 0, 1, [&](int x, auto interior) {
      const std::size_t i = m.index(x, y);
      const double r_i = b[i] - stencil.product<interior>(v, i, x, y);
      r[i] = m.pad[i] ? 0.0 : r_i;
      rr += r[i] * r[i];
    });
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

/// The two colours of a red-black sweep: the parity of x + y.
constexpr int kRed = 0;
constexpr int kBlack = 1;

/// Row y of one colour of a red-black SOR sweep of A v = b; omega = 1 is
/// Gauss-Seidel. Nodes of one colour only neighbour the other colour, so
/// a half-sweep is order-free: the same updates at any thread count.
/// kGaussSeidel (omega = 1, every V-cycle sweep) writes acc / diag
/// itself: (1 - omega) v + omega (acc / diag) differs from it only for a
/// non-finite v or in the sign of an exact-zero quotient.
template <bool kGaussSeidel>
void relax_row(const Mesh& m, const std::vector<double>& b,
               std::vector<double>& v, int colour, double omega, int y) {
  const Stencil stencil(m);
  for_columns(m.k, y, (y + colour) % 2, 2, [&](int x, auto interior) {
    const std::size_t i = m.index(x, y);
    const double quotient = stencil.gather<interior>(b[i], v, i, x, y) /
                            stencil.diagonal<interior>(x, y);
    double updated = quotient;
    if constexpr (!kGaussSeidel) {
      updated = (1.0 - omega) * v[i] + omega * quotient;
    }
    v[i] = m.pad[i] ? v[i] : updated;
  });
}

/// One colour of a red-black SOR sweep over the whole mesh.
void relax(const Mesh& m, const std::vector<double>& b, std::vector<double>& v,
           int colour, double omega) {
  if (omega == 1.0) {
    for_rows(m.k, m.size(),
             [&](int y) { relax_row<true>(m, b, v, colour, 1.0, y); });
  } else {
    for_rows(m.k, m.size(),
             [&](int y) { relax_row<false>(m, b, v, colour, omega, y); });
  }
}

/// Row y of the red Gauss-Seidel half-sweep of A z = r from z = 0:
/// r / diagonal at the free red nodes, 0 elsewhere. Pointwise, so the pass
/// that writes r writes this z too.
void red_from_zero(const Mesh& m, const std::vector<double>& r,
                   std::vector<double>& z, int y) {
  const Stencil stencil(m);
  std::fill_n(z.begin() + static_cast<std::ptrdiff_t>(m.index(0, y)), m.k,
              0.0);
  for_columns(m.k, y, y % 2, 2, [&](int x, auto interior) {
    const std::size_t i = m.index(x, y);
    const double z_i = r[i] / stencil.diagonal<interior>(x, y);
    z[i] = m.pad[i] ? 0.0 : z_i;
  });
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
/// The red nodes of an even row sit on even columns, of an odd row on odd
/// ones.
void prolong(const Mesh& coarse, const std::vector<double>& e,
             const Mesh& fine, std::vector<double>& v) {
  for_rows(fine.k, fine.size(), [&](int y) {
    const double* lo = &e[coarse.index(0, y / 2)];
    const double* hi = &e[coarse.index(0, (y + 1) / 2)];
    const auto column = [&](int cx) { return 0.5 * (lo[cx] + hi[cx]); };
    double* out = &v[fine.index(0, y)];
    const unsigned char* pad = &fine.pad[fine.index(0, y)];
    const auto add = [&](int x, double correction) {
      const double sum = out[x] + correction;
      out[x] = pad[x] ? out[x] : sum;
    };
    if (y % 2 == 0) {
      for (int x = 0; x < fine.k; x += 2) add(x, column(x / 2));
      return;
    }
    double left = column(0);
    for (int x = 1; x < fine.k; x += 2) {
      const double right = column(x / 2 + 1);
      add(x, 0.5 * (left + right));
      left = right;
    }
  });
}

/// out[c] = r(2c + odd, y) for the residual r = b - A v of row y, over
/// c in [0, out.size()): 0 at pads and off the mesh.
void residual_run(const Mesh& m, const std::vector<double>& b,
                  const std::vector<double>& v, int y, int odd,
                  std::vector<double>& out) {
  std::fill(out.begin(), out.end(), 0.0);
  if (y < 0 || y >= m.k) return;
  const Stencil stencil(m);
  for_columns(m.k, y, odd, 2, [&](int x, auto interior) {
    const std::size_t i = m.index(x, y);
    const double r_i = b[i] - stencil.product<interior>(v, i, x, y);
    out[static_cast<std::size_t>(x / 2)] = m.pad[i] ? 0.0 : r_i;
  });
}

/// coarse.b = P^T r (bilinear P), and coarse_x = red_from_zero(coarse.b),
/// for the residual r = b - A x of a field whose last half-sweep was
/// black. That left r = 0 at the black nodes, so P^T r gathers fine node
/// (2X, 2Y) with weight 1 and its four diagonal neighbours (2X +- 1,
/// 2Y +- 1) with weight 1/4, nodes off the mesh carrying nothing. A
/// gather over coarse rows that evaluates r on the fly, each fine value
/// once: the odd fine row 2Y + 1 serves coarse rows Y and Y + 1, so a
/// chunk carries it up and evaluates only its first row's lower one.
/// Pads keep b = 0.
void restrict_residual(const Mesh& fine, const std::vector<double>& b,
                       const std::vector<double>& x, Mesh& coarse,
                       std::vector<double>& coarse_x) {
  const auto width = static_cast<std::size_t>(coarse.k);
  for_row_chunks(coarse.k, fine.size(), [&](int begin, int end) {
    // Per coarse column X: r(2X, 2Y), r(2X + 1, 2Y - 1), r(2X + 1, 2Y + 1).
    std::vector<double> centre(width);
    std::vector<double> below(width);
    std::vector<double> above(width);
    residual_run(fine, b, x, 2 * begin - 1, 1, below);
    for (int cy = begin; cy < end; ++cy) {
      const int fy = 2 * cy;
      residual_run(fine, b, x, fy, 0, centre);
      residual_run(fine, b, x, fy + 1, 1, above);
      double left = 0.0;  // the diagonal neighbours in column 2X - 1
      for (std::size_t cx = 0; cx < width; ++cx) {
        const std::size_t i = coarse.index(static_cast<int>(cx), cy);
        const double right = below[cx] + above[cx];
        coarse.b[i] =
            coarse.pad[i] ? 0.0 : centre[cx] + 0.25 * (left + right);
        left = right;
      }
      red_from_zero(coarse, coarse.b, coarse_x, cy);
      std::swap(below, above);
    }
  });
}

/// The next coarser level, with b = 0. A coarse node is a pad when any
/// fine node of its 2x2 block {2X, 2X + 1}^2 is, so every level keeps a
/// pad and stays non-singular.
Mesh coarsen(const Mesh& fine) {
  const int k = fine.k / 2 + 1;
  const auto n = static_cast<std::size_t>(k) * static_cast<std::size_t>(k);
  Mesh m{k, fine.gx, fine.gy, std::vector<unsigned char>(n),
         std::vector<double>(n)};
  const auto pad = [&fine](int x, int y) {
    return x < fine.k && y < fine.k && fine.pad[fine.index(x, y)] != 0;
  };
  for_rows(k, n, [&](int y) {
    for (int x = 0; x < k; ++x) {
      const bool any = pad(2 * x, 2 * y) || pad(2 * x + 1, 2 * y) ||
                       pad(2 * x, 2 * y + 1) || pad(2 * x + 1, 2 * y + 1);
      m.pad[m.index(x, y)] = any ? 1 : 0;
    }
  });
  return m;
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
      relax_row<true>(m, b, x, kRed, 1.0, y);
      return row_dot(m, b, x, y);
    });
  }

  const Mesh& fine_;
  std::vector<Level> levels_;  // coarse levels, finest first
};

/// The starting iterate, in the field the solve returns: Vdd at the free
/// nodes (the classic cold start) or the SolverOptions::warm_start field
/// there, 0 at the pads.
Grid2D<double> initial_iterate(const Mesh& m, double vdd,
                               const SolverOptions& options) {
  const Grid2D<double>* warm = options.warm_start;
  const auto k = static_cast<std::size_t>(m.k);
  Grid2D<double> field(k, k);
  std::vector<double>& v = field.data();
  for_rows(m.k, m.size(), [&](int y) {
    for (std::size_t i = m.index(0, y); i < m.index(0, y + 1); ++i) {
      v[i] = m.pad[i] ? 0.0 : warm != nullptr ? warm->data()[i] : vdd;
    }
  });
  return field;
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

/// The result of iterate `field`, given rr = |b - A v|^2 of it: the true
/// relative residual |b - A v| / |b|, its verdict, and the field with Vdd
/// written back at the pads.
SolveResult finish(const Mesh& m, double vdd, double b_scale,
                   Grid2D<double> field, double rr, int iterations,
                   const StopCheck& check) {
  std::vector<double>& v = field.data();
  SolveResult result;
  result.relative_residual = std::sqrt(rr) / b_scale;
  result.stop = check.verdict(result.relative_residual);
  result.converged = result.stop == SolveStop::Converged;
  result.iterations = iterations;
  for_rows(m.k, m.size(), [&](int y) {
    for (std::size_t i = m.index(0, y); i < m.index(0, y + 1); ++i) {
      if (m.pad[i]) v[i] = vdd;
    }
  });
  result.voltage = std::move(field);
  return result;
}

SolveResult solve_sor(const System& sys, double vdd,
                      const SolverOptions& options) {
  const double omega = options.sor_omega;
  require(omega > 0.0 && omega < 2.0,
          "solve: SOR omega must lie in (0, 2) for convergence");
  const Mesh& m = sys.mesh;
  const double b_scale = sys.b_scale;
  Grid2D<double> field = initial_iterate(m, vdd, options);
  std::vector<double>& v = field.data();
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
  const double rr = residual(m, m.b, v, r);
  return finish(m, vdd, b_scale, std::move(field), rr, iter, check);
}

SolveResult solve_cg(const System& sys, double vdd,
                     const SolverOptions& options) {
  const Mesh& m = sys.mesh;
  const std::size_t n = m.size();
  const double b_scale = sys.b_scale;
  Grid2D<double> field = initial_iterate(m, vdd, options);
  std::vector<double>& x = field.data();
  std::vector<double> r(n);
  double rr = residual(m, m.b, x, r);

  // The preconditioner, its work vectors and its first V-cycle wait for
  // the first step: a solve that stops at iteration 0 (a warm start that
  // already meets the tolerance, an expired budget, a fault) builds none
  // of them. Every vector sees the same operations in the same order.
  std::optional<VCycle> preconditioner;
  std::vector<double> z;
  std::vector<double> ap;
  std::vector<double> p;
  double rz = 0.0;

  StopCheck check(options);
  int iter = 0;
  for (; iter < options.max_iterations; ++iter) {
    if (check.faulted()) break;
    if (check.stop(std::sqrt(rr) / b_scale, iter)) break;

    if (!preconditioner) {
      z.resize(n);
      ap.resize(n);
      preconditioner.emplace(m);
      relax(m, r, z, kRed, 1.0);  // red_from_zero(r), as z starts at 0
      rz = preconditioner->apply(r, z);
      p = z;
    }
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
      for (std::size_t i = m.index(0, y); i < m.index(0, y + 1); ++i) {
        x[i] += alpha * p[i];
        r[i] -= alpha * ap[i];
        row += r[i] * r[i];
      }
      red_from_zero(m, r, z, y);
      return row;
    });
    const double rz_next = preconditioner->apply(r, z);
    const double beta = rz_next / rz;
    rz = rz_next;
    for_rows(m.k, n, [&](int y) {
      for (std::size_t i = m.index(0, y); i < m.index(0, y + 1); ++i) {
        p[i] = z[i] + beta * p[i];
      }
    });
  }
  // With no step taken, x is the iterate the first residual() read, and
  // rr is already its |b - A x|^2; after a step rr is the recurrence's.
  if (iter > 0) rr = residual(m, m.b, x, r);
  return finish(m, vdd, b_scale, std::move(field), rr, iter, check);
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
    const System sys = build_system(grid);
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
