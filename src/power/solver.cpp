#include "power/solver.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
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

/// The one layout of the mesh system A x = b: k x k nodes in two colour
/// planes, red (x + y even) then black. Each plane has k rows of
/// h = (k + 1) / 2 slots, and node (x, y) is slot x / 2 of row y of plane
/// (x + y) & 1: the nodes a half-sweep updates are contiguous, and their
/// neighbours all lie in the other plane. On odd k the colour with h - 1
/// nodes in a row leaves that row's last slot unused; the slot is a pad in
/// the mask and holds 0 in every vector, as do the slots between the
/// planes (see plane_stride). Pads are Dirichlet nodes held at exactly 0
/// in every vector. Die edges are Neumann: the missing links simply drop
/// out. No diagonal is stored: Stencil forms A_ii, one constant off the
/// die edge. The fine level folds Vdd into b; the V-cycle's coarse levels
/// carry error equations on the same layout. Loops are scheduled by the
/// node count k * k, not by the planes' storage, so chunk boundaries and
/// sums do not depend on the layout.
struct Mesh {
  int k = 0;
  int h = 0;               // slots per plane row
  std::size_t plane = 0;   // slots from the red plane's start to the black's
  double gx = 0.0;
  double gy = 0.0;
  std::vector<unsigned char> pad;  // 1 = Dirichlet node or unused slot
  std::vector<double> b;           // right-hand side (0 at pads)

  /// Slots in a vector.
  [[nodiscard]] std::size_t size() const { return pad.size(); }
  /// Nodes, the size every loop is scheduled by.
  [[nodiscard]] std::size_t nodes() const {
    return static_cast<std::size_t>(k) * static_cast<std::size_t>(k);
  }
  /// The first slot of row y of plane `colour`.
  [[nodiscard]] std::size_t row(int colour, int y) const {
    return static_cast<std::size_t>(colour) * plane +
           static_cast<std::size_t>(y) * static_cast<std::size_t>(h);
  }
  /// The slot of node (x, y).
  [[nodiscard]] std::size_t index(int x, int y) const {
    return row((x + y) & 1, y) + static_cast<std::size_t>(x / 2);
  }
  /// p of the nodes of `colour` in row y: slot j holds node x = 2j + p.
  [[nodiscard]] int parity(int colour, int y) const {
    return (colour + y) & 1;
  }
  /// The nodes of `colour` in row y: h, or h - 1 for p = 1 on odd k.
  [[nodiscard]] int count(int colour, int y) const {
    return (k + 1 - parity(colour, y)) / 2;
  }
};

/// The two colours of a red-black sweep: the parity of x + y, and the
/// planes' order.
constexpr int kRed = 0;
constexpr int kBlack = 1;

/// Mesh::plane for planes of `slots` slots: padded, from 4 KiB planes up,
/// so that a row of one plane sits half a 4 KiB page from the same row of
/// the other. At a whole number of pages apart, a kernel's stores to one
/// plane look to the CPU like stores to the slots it loads next from the
/// other (4K aliasing), and those loads wait.
std::size_t plane_stride(std::size_t slots) {
  constexpr std::size_t kPage = 4096 / sizeof(double);
  if (slots < kPage) return slots;
  return slots + (kPage + kPage / 2 - slots % kPage) % kPage;
}

/// A k x k mesh with b = 0 whose mask marks only the unused slots, for a
/// builder to mark the pads.
Mesh empty_mesh(int k, double gx, double gy) {
  const int h = (k + 1) / 2;
  const std::size_t slots =
      static_cast<std::size_t>(k) * static_cast<std::size_t>(h);
  const std::size_t plane = plane_stride(slots);
  Mesh m{k, h, plane, gx, gy, std::vector<unsigned char>(plane + slots),
         std::vector<double>(plane + slots)};
  std::fill(m.pad.begin() + static_cast<std::ptrdiff_t>(slots),
            m.pad.begin() + static_cast<std::ptrdiff_t>(plane), 1);
  if (k % 2 != 0) {  // the last slot of each row of the colour with p = 1
    for (int y = 0; y < k; ++y) {
      m.pad[m.row(1 - (y & 1), y) + static_cast<std::size_t>(h) - 1] = 1;
    }
  }
  return m;
}

/// The slots of row y's nodes in x order: the even-x nodes are one
/// colour's slots and the odd-x nodes the other's, so slot(x) alternates
/// between two row starts.
struct RowSlots {
  RowSlots(const Mesh& m, int y)
      : first{m.row(y & 1, y), m.row(1 - (y & 1), y)} {}

  [[nodiscard]] std::size_t operator()(int x) const {
    return first[x & 1] + static_cast<std::size_t>(x >> 1);
  }

  std::size_t first[2];
};

/// Two doubles that one instruction adds, multiplies or divides lane by
/// lane (SSE2 on x86-64). Each lane rounds as the scalar operation does,
/// and without an FMA target nothing is contracted, so a two-lane kernel
/// that does a node's scalar operations in the scalar order gives the
/// node the same bits.
using Lanes = double __attribute__((vector_size(16)));

Lanes load(const double* at) {
  Lanes lanes;
  std::memcpy(&lanes, at, sizeof lanes);
  return lanes;
}

void store(double* at, Lanes lanes) { std::memcpy(at, &lanes, sizeof lanes); }

Lanes splat(double value) { return Lanes{value, value}; }

/// Calls pair(j) on slots j, j + 1 for j = 0, 2, ... < n - 1, then one(j)
/// on the last slot of an odd n.
template <typename Pair, typename One>
void for_pairs(int n, const Pair& pair, const One& one) {
  int j = 0;
  for (; j + 1 < n; j += 2) pair(j);
  if (j < n) one(j);
}

/// True when neither slot j nor j + 1 is a pad. Pads are few, so a
/// kernel stores such a pair's two lanes at once and sends the rest to
/// store_lanes.
bool pad_free(const unsigned char* pad, int j) {
  return (pad[j] | pad[j + 1]) == 0;
}

/// Stores `lanes` at out[j] and out[j + 1] lane by lane, except at a pad
/// slot, which gets 0, or keeps its value when kKeep.
template <bool kKeep>
void store_lanes(double* out, const unsigned char* pad, int j, Lanes lanes) {
  for (int lane = 0; lane < 2; ++lane) {
    if (pad[j + lane] == 0) {
      out[j + lane] = lanes[lane];
    } else if (!kKeep) {
      out[j + lane] = 0.0;
    }
  }
}

/// The 5-point stencil at the nodes of one colour in row y, over a vector
/// v: slot j holds node x = 2j + p, and its neighbours lie in v's other
/// plane, left at slot j + p - 1 and right at slot j + p of row y, down
/// and up at slot j of rows y - 1 and y + 1. Held by value, and each
/// kernel's two-lane run takes its own copy, which stays in registers: a
/// store to a vector could alias a conductance held in memory.
/// Neighbours are always taken left, right, down, up: the order is part of
/// the result, and changing it moves the last bits of every solve. kInterior
/// marks a node off the die edge (0 < x, y < k - 1), whose four links are
/// all on the mesh: it skips the bound tests, and its diagonal is the
/// constant d, the sum the edge path forms there, so both paths give the
/// same bits. The two-lane forms take interior slots j and j + 1.
struct Stencil {
  Stencil(const Mesh& m, const std::vector<double>& v, int colour, int at_y)
      : k(m.k), y(at_y), p(m.parity(colour, at_y)), gx(m.gx), gy(m.gy),
        d(((m.gx + m.gx) + m.gy) + m.gy),
        side(&v[m.row(1 - colour, at_y)]),
        down(at_y > 0 ? &v[m.row(1 - colour, at_y - 1)] : side),
        up(at_y + 1 < m.k ? &v[m.row(1 - colour, at_y + 1)] : side) {}

  /// A_ii at slot j: its on-mesh links summed from 0.
  template <bool kInterior>
  [[nodiscard]] double diagonal(int j) const {
    if constexpr (kInterior) return d;
    const int x = 2 * j + p;
    double sum = 0.0;
    if (x > 0) sum += gx;
    if (x + 1 < k) sum += gx;
    if (y > 0) sum += gy;
    if (y + 1 < k) sum += gy;
    return sum;
  }

  /// (A v) at slot j, which holds v_j. Pads hold 0 in v, so a pad
  /// neighbour drops out exactly, like a Neumann edge.
  template <bool kInterior>
  [[nodiscard]] double product(double v_j, int j) const {
    const int x = 2 * j + p;
    double acc = diagonal<kInterior>(j) * v_j;
    if (kInterior || x > 0) acc -= gx * side[j + p - 1];
    if (kInterior || x + 1 < k) acc -= gx * side[j + p];
    if (kInterior || y > 0) acc -= gy * down[j];
    if (kInterior || y + 1 < k) acc -= gy * up[j];
    return acc;
  }

  [[nodiscard]] Lanes product(Lanes v_j, int j) const {
    Lanes acc = splat(d) * v_j;
    acc -= splat(gx) * load(side + j + p - 1);
    acc -= splat(gx) * load(side + j + p);
    acc -= splat(gy) * load(down + j);
    acc -= splat(gy) * load(up + j);
    return acc;
  }

  /// b_j plus the off-diagonal links to v, the numerator of a
  /// Gauss-Seidel update.
  template <bool kInterior>
  [[nodiscard]] double gather(double b_j, int j) const {
    const int x = 2 * j + p;
    double acc = b_j;
    if (kInterior || x > 0) acc += gx * side[j + p - 1];
    if (kInterior || x + 1 < k) acc += gx * side[j + p];
    if (kInterior || y > 0) acc += gy * down[j];
    if (kInterior || y + 1 < k) acc += gy * up[j];
    return acc;
  }

  [[nodiscard]] Lanes gather(Lanes b_j, int j) const {
    Lanes acc = b_j;
    acc += splat(gx) * load(side + j + p - 1);
    acc += splat(gx) * load(side + j + p);
    acc += splat(gy) * load(down + j);
    acc += splat(gy) * load(up + j);
    return acc;
  }

  int k;
  int y;
  int p;
  double gx;
  double gy;
  double d;
  const double* side;  // row y of the other plane
  const double* down;  // row y - 1 of it (unread on row 0)
  const double* up;    // row y + 1 of it (unread on row k - 1)
};

/// Runs a row kernel over the nodes of `colour` in row y, in slot order:
/// node(j, interior), interior a std::bool_constant true off the die edge,
/// except that interior slots go two at a time to pair(j), one per lane.
template <typename Node, typename Pair>
void for_slots(const Mesh& m, int colour, int y, const Node& node,
               const Pair& pair) {
  const int n = m.count(colour, y);
  int j = 0;
  if (y == 0 || y == m.k - 1) {
    for (; j < n; ++j) node(j, std::false_type{});
    return;
  }
  const int p = m.parity(colour, y);
  const int interior_end = (m.k - p) / 2;  // the first slot at x >= k - 1
  if (p == 0) node(j++, std::false_type{});  // x = 0
  for (; j + 1 < interior_end; j += 2) pair(j);
  if (j < interior_end) node(j++, std::true_type{});
  for (; j < n; ++j) node(j, std::false_type{});
}

/// The Eq.-(1) system of `grid` and the relative residual's denominator.
struct System {
  Mesh mesh;
  double b_scale;  // |b|, or 1 when b = 0
};

/// The Eq.-(1) system of `grid` in one pass: the pad mask, b = -I plus
/// g * Vdd for every link to a pad (neighbours left, right, down, up) and
/// |b|^2, summed in x order. Along a row the pad tests slide: node x + 1's
/// is read once, as the right neighbour, the node and the left neighbour.
/// Rows y - 1, y and y + 1 of the grid's mask, the slot vectors and the
/// load map are held in locals: a byte store may alias any object, so
/// what is read through `grid` or `m` would be reloaded after each pad's
/// mark. A row off the die reads as no pads.
System build_system(const PowerGrid& grid) {
  const int k = grid.k();
  System sys{empty_mesh(k, grid.gx(), grid.gy()), 1.0};
  Mesh& m = sys.mesh;
  const PowerGrid::LoadMap loads = grid.load_map();
  const double gx_vdd = m.gx * grid.spec().vdd;
  const double gy_vdd = m.gy * grid.spec().vdd;
  const std::vector<unsigned char> no_pads(static_cast<std::size_t>(k), 0);
  const double bb = sum_rows(k, m.nodes(), [&](int y) {
    const std::size_t first =  // node (0, y) in the grid's row-major maps
        static_cast<std::size_t>(y) * static_cast<std::size_t>(k);
    const RowSlots slot(m, y);
    const PowerGrid::LoadMap row_loads = loads;
    double* const b_slots = m.b.data();
    unsigned char* const pad_slots = m.pad.data();
    const unsigned char* const row = grid.pad_row(y);
    const unsigned char* const below =
        y > 0 ? grid.pad_row(y - 1) : no_pads.data();
    const unsigned char* const above =
        y + 1 < k ? grid.pad_row(y + 1) : no_pads.data();
    double bb_row = 0.0;
    bool left = false;
    bool here = row[0] != 0;
    for (int x = 0; x < k; ++x) {
      const bool right = x + 1 < k && row[x + 1] != 0;
      const std::size_t i = slot(x);
      if (here) {
        pad_slots[i] = 1;
      } else {
        double b = -row_loads.at(first + static_cast<std::size_t>(x));
        if (left) b += gx_vdd;
        if (right) b += gx_vdd;
        if (below[x] != 0) b += gy_vdd;
        if (above[x] != 0) b += gy_vdd;
        b_slots[i] = b;
        bb_row += b * b;
      }
      left = here;
      here = right;
    }
    return bb_row;
  });
  const double norm = std::sqrt(bb);
  if (norm > 0.0) sys.b_scale = norm;
  return sys;
}

/// out[j] = (A v)_j, or b_j - (A v)_j when kResidual, at the nodes of
/// `colour` in row y, where out and b point at that plane row; 0 at pads.
template <bool kResidual>
void stencil_row(const Mesh& m, const double* b, const std::vector<double>& v,
                 int colour, int y, double* out) {
  const Stencil stencil(m, v, colour, y);
  const double* own = &v[m.row(colour, y)];
  const unsigned char* pad = &m.pad[m.row(colour, y)];
  for_slots(
      m, colour, y,
      [&](int j, auto interior) {
        double value = stencil.product<interior>(own[j], j);
        if constexpr (kResidual) value = b[j] - value;
        out[j] = pad[j] ? 0.0 : value;
      },
      [&, stencil](int j) {
        Lanes value = stencil.product(load(own + j), j);
        if constexpr (kResidual) value = load(b + j) - value;
        if (pad_free(pad, j)) {
          store(out + j, value);
        } else {
          store_lanes<false>(out, pad, j, value);
        }
      });
}

/// a . b over row y of the mesh, x ascending from 0.0, the row-major
/// order: the even-x and odd-x slots are read alternately. The products
/// go two at a time, the sum node by node.
double row_dot(const Mesh& m, const std::vector<double>& a,
               const std::vector<double>& b, int y) {
  const std::size_t even = m.row(y & 1, y);
  const std::size_t odd = m.row(1 - (y & 1), y);
  const double* a_even = &a[even];
  const double* a_odd = &a[odd];
  const double* b_even = &b[even];
  const double* b_odd = &b[odd];
  double sum = 0.0;
  const int pairs = m.k / 2;  // nodes x = 2j, 2j + 1
  for_pairs(
      pairs,
      [&](int j) {
        const Lanes at_even = load(a_even + j) * load(b_even + j);
        const Lanes at_odd = load(a_odd + j) * load(b_odd + j);
        sum += at_even[0];
        sum += at_odd[0];
        sum += at_even[1];
        sum += at_odd[1];
      },
      [&](int j) {
        sum += a_even[j] * b_even[j];
        sum += a_odd[j] * b_odd[j];
      });
  if (m.k % 2 != 0) sum += a_even[pairs] * b_even[pairs];
  return sum;
}

/// out = A v, 0 at pads; returns v . A v.
double apply(const Mesh& m, const std::vector<double>& v,
             std::vector<double>& out) {
  return sum_rows(m.k, m.nodes(), [&](int y) {
    for (const int colour : {kRed, kBlack}) {
      stencil_row<false>(m, nullptr, v, colour, y, &out[m.row(colour, y)]);
    }
    return row_dot(m, v, out, y);
  });
}

/// r = b - A v, 0 at pads; returns r . r.
double residual(const Mesh& m, const std::vector<double>& b,
                const std::vector<double>& v, std::vector<double>& r) {
  return sum_rows(m.k, m.nodes(), [&](int y) {
    for (const int colour : {kRed, kBlack}) {
      const std::size_t row = m.row(colour, y);
      stencil_row<true>(m, &b[row], v, colour, y, &r[row]);
    }
    return row_dot(m, r, r, y);
  });
}

/// Rows [begin, end) of one colour of a red-black SOR sweep of A v = b;
/// omega = 1 is Gauss-Seidel. Nodes of one colour only neighbour the other
/// colour, so a half-sweep is order-free: the same updates at any thread
/// count. kGaussSeidel (omega = 1, every V-cycle sweep) writes acc / diag
/// itself: (1 - omega) v + omega (acc / diag) differs from it only for a
/// non-finite v or in the sign of an exact-zero quotient. The rows loop
/// here, not in the caller: on the V-cycle's coarsest levels a row holds
/// two or three nodes of a colour, and a call per row cost more than they.
template <bool kGaussSeidel>
void relax_rows(const Mesh& m, const std::vector<double>& b,
                std::vector<double>& v, int colour, double omega, int begin,
                int end) {
  for (int y = begin; y < end; ++y) {
    const Stencil stencil(m, v, colour, y);
    const std::size_t row = m.row(colour, y);
    const double* rhs = &b[row];
    double* out = &v[row];
    const unsigned char* pad = &m.pad[row];
    for_slots(
        m, colour, y,
        [&](int j, auto interior) {
          const double quotient = stencil.gather<interior>(rhs[j], j) /
                                  stencil.diagonal<interior>(j);
          double updated = quotient;
          if constexpr (!kGaussSeidel) {
            updated = (1.0 - omega) * out[j] + omega * quotient;
          }
          out[j] = pad[j] ? out[j] : updated;
        },
        [&, stencil](int j) {
          const Lanes quotient =
              stencil.gather(load(rhs + j), j) / splat(stencil.d);
          Lanes updated = quotient;
          if constexpr (!kGaussSeidel) {
            updated =
                splat(1.0 - omega) * load(out + j) + splat(omega) * quotient;
          }
          if (pad_free(pad, j)) {
            store(out + j, updated);
          } else {
            store_lanes<true>(out, pad, j, updated);
          }
        });
  }
}

/// One colour of a red-black SOR sweep over the whole mesh.
void relax(const Mesh& m, const std::vector<double>& b, std::vector<double>& v,
           int colour, double omega) {
  for_row_chunks(m.k, m.nodes(), [&](int begin, int end) {
    if (omega == 1.0) {
      relax_rows<true>(m, b, v, colour, 1.0, begin, end);
    } else {
      relax_rows<false>(m, b, v, colour, omega, begin, end);
    }
  });
}

/// Row y of the red Gauss-Seidel half-sweep of A z = r from z = 0:
/// r / diagonal at the free red nodes, 0 elsewhere. Pointwise, so the pass
/// that writes r writes this z too.
void red_from_zero(const Mesh& m, const std::vector<double>& r,
                   std::vector<double>& z, int y) {
  const Stencil stencil(m, r, kRed, y);
  std::fill_n(&z[m.row(kBlack, y)], m.h, 0.0);
  const std::size_t row = m.row(kRed, y);
  const double* in = &r[row];
  double* out = &z[row];
  const unsigned char* pad = &m.pad[row];
  for_slots(
      m, kRed, y,
      [&](int j, auto interior) {
        const double z_j = in[j] / stencil.diagonal<interior>(j);
        out[j] = pad[j] ? 0.0 : z_j;
      },
      [&, stencil](int j) {
        const Lanes z_j = load(in + j) / splat(stencil.d);
        if (pad_free(pad, j)) {
          store(out + j, z_j);
        } else {
          store_lanes<false>(out, pad, j, z_j);
        }
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
/// rows that writes only the red plane; for an even row both coarse rows
/// are the same, the mean exact. The red nodes of an even row sit on even
/// columns, those of an odd row on odd ones, and the coarse columns
/// alternate between the coarse planes, so the walk goes two red nodes at
/// a time.
void prolong(const Mesh& coarse, const std::vector<double>& e,
             const Mesh& fine, std::vector<double>& v) {
  for_rows(fine.k, fine.nodes(), [&](int y) {
    const int lo_y = y / 2;
    const int hi_y = (y + 1) / 2;
    // Coarse rows lo_y and hi_y, each as its even and odd columns.
    const double* lo_even = &e[coarse.row(lo_y & 1, lo_y)];
    const double* lo_odd = &e[coarse.row(1 - (lo_y & 1), lo_y)];
    const double* hi_even = &e[coarse.row(hi_y & 1, hi_y)];
    const double* hi_odd = &e[coarse.row(1 - (hi_y & 1), hi_y)];
    const auto even_column = [&](int s) {  // coarse column 2s
      return 0.5 * (lo_even[s] + hi_even[s]);
    };
    const auto odd_column = [&](int s) {  // coarse column 2s + 1
      return 0.5 * (lo_odd[s] + hi_odd[s]);
    };
    double* out = &v[fine.row(kRed, y)];
    const unsigned char* pad = &fine.pad[fine.row(kRed, y)];
    const auto add = [&](int j, double correction) {
      const double sum = out[j] + correction;
      out[j] = pad[j] ? out[j] : sum;
    };
    const int n = fine.count(kRed, y);
    if (y % 2 == 0) {  // red slot j is x = 2j, on coarse column j
      for_pairs(
          n,
          [&](int j) {
            add(j, even_column(j / 2));
            add(j + 1, odd_column(j / 2));
          },
          [&](int j) { add(j, even_column(j / 2)); });
      return;
    }
    // Red slot j is x = 2j + 1, between coarse columns j and j + 1.
    double left = even_column(0);
    for_pairs(
        n,
        [&](int j) {
          const double middle = odd_column(j / 2);
          add(j, 0.5 * (left + middle));
          const double right = even_column(j / 2 + 1);
          add(j + 1, 0.5 * (middle + right));
          left = right;
        },
        [&](int j) { add(j, 0.5 * (left + odd_column(j / 2))); });
  });
}

/// out[j] = r at red slot j of row y, for the residual r = b - A v, over
/// j in [0, out.size()): 0 at pads and past the row's red nodes, and all 0
/// off the mesh.
void residual_run(const Mesh& m, const std::vector<double>& b,
                  const std::vector<double>& v, int y,
                  std::vector<double>& out) {
  std::fill(out.begin(), out.end(), 0.0);
  if (y < 0 || y >= m.k) return;
  stencil_row<true>(m, &b[m.row(kRed, y)], v, kRed, y, out.data());
}

/// coarse.b = P^T r (bilinear P), and coarse_x = red_from_zero(coarse.b),
/// for the residual r = b - A x of a field whose last half-sweep was
/// black. That left r = 0 at the black nodes, so P^T r gathers fine node
/// (2X, 2Y) with weight 1 and its four diagonal neighbours (2X +- 1,
/// 2Y +- 1) with weight 1/4, nodes off the mesh carrying nothing: all red
/// nodes, red slot X of fine rows 2Y and 2Y +- 1. A gather over coarse
/// rows that evaluates r on the fly, each fine value once: the odd fine
/// row 2Y + 1 serves coarse rows Y and Y + 1, so a chunk carries it up and
/// evaluates only its first row's lower one. Pads keep b = 0.
void restrict_residual(const Mesh& fine, const std::vector<double>& b,
                       const std::vector<double>& x, Mesh& coarse,
                       std::vector<double>& coarse_x) {
  const auto width = static_cast<std::size_t>(coarse.k);
  for_row_chunks(coarse.k, fine.nodes(), [&](int begin, int end) {
    // Per coarse column X: r(2X, 2Y), r(2X + 1, 2Y - 1), r(2X + 1, 2Y + 1).
    std::vector<double> centre(width);
    std::vector<double> below(width);
    std::vector<double> above(width);
    residual_run(fine, b, x, 2 * begin - 1, below);
    for (int cy = begin; cy < end; ++cy) {
      const int fy = 2 * cy;
      residual_run(fine, b, x, fy, centre);
      residual_run(fine, b, x, fy + 1, above);
      const RowSlots slot(coarse, cy);
      double left = 0.0;  // the diagonal neighbours in column 2X - 1
      for (std::size_t cx = 0; cx < width; ++cx) {
        const std::size_t i = slot(static_cast<int>(cx));
        const double right = below[cx] + above[cx];
        coarse.b[i] = coarse.pad[i] ? 0.0 : centre[cx] + 0.25 * (left + right);
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
  Mesh m = empty_mesh(fine.k / 2 + 1, fine.gx, fine.gy);
  const auto pad = [&fine](int x, int y) {
    return x < fine.k && y < fine.k && fine.pad[fine.index(x, y)] != 0;
  };
  for_rows(m.k, m.nodes(), [&](int y) {
    const RowSlots slot(m, y);
    for (int x = 0; x < m.k; ++x) {
      if (pad(2 * x, 2 * y) || pad(2 * x + 1, 2 * y) ||
          pad(2 * x, 2 * y + 1) || pad(2 * x + 1, 2 * y + 1)) {
        m.pad[slot(x)] = 1;
      }
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
    return sum_rows(m.k, m.nodes(), [&](int y) {
      relax_rows<true>(m, b, x, kRed, 1.0, y, y + 1);
      return row_dot(m, b, x, y);
    });
  }

  const Mesh& fine_;
  std::vector<Level> levels_;  // coarse levels, finest first
};

/// The starting iterate: Vdd at the free nodes (the classic cold start)
/// or the SolverOptions::warm_start field there, 0 at the pads and the
/// unused slots.
std::vector<double> initial_iterate(const Mesh& m, double vdd,
                                    const SolverOptions& options) {
  const Grid2D<double>* warm = options.warm_start;
  std::vector<double> v(m.size());
  for_rows(m.k, m.nodes(), [&](int y) {
    for (const int colour : {kRed, kBlack}) {
      const std::size_t row = m.row(colour, y);
      const unsigned char* pad = &m.pad[row];
      double* out = &v[row];
      const double* from =  // node (p, y) of the row-major warm field
          warm != nullptr
              ? &warm->data()[static_cast<std::size_t>(y) *
                                  static_cast<std::size_t>(m.k) +
                              static_cast<std::size_t>(m.parity(colour, y))]
              : nullptr;
      for (int j = 0; j < m.count(colour, y); ++j) {
        out[j] = pad[j] ? 0.0 : from != nullptr ? from[2 * j] : vdd;
      }
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

/// The result of iterate v, given rr = |b - A v|^2 of it: the true
/// relative residual |b - A v| / |b|, its verdict, and the field, row-major,
/// with Vdd at the pads. Callers release their work vectors first, so the
/// field adds to the iterate alone.
SolveResult finish(const Mesh& m, double vdd, double b_scale,
                   const std::vector<double>& v, double rr, int iterations,
                   const StopCheck& check) {
  SolveResult result;
  result.relative_residual = std::sqrt(rr) / b_scale;
  result.stop = check.verdict(result.relative_residual);
  result.converged = result.stop == SolveStop::Converged;
  result.iterations = iterations;
  const auto k = static_cast<std::size_t>(m.k);
  result.voltage = Grid2D<double>(k, k);
  double* field = result.voltage.data().data();
  for_rows(m.k, m.nodes(), [&](int y) {
    for (const int colour : {kRed, kBlack}) {
      const std::size_t row = m.row(colour, y);
      const unsigned char* pad = &m.pad[row];
      const double* in = &v[row];
      double* out =  // node (p, y)
          field + static_cast<std::size_t>(y) * k +
          static_cast<std::size_t>(m.parity(colour, y));
      const int n = m.count(colour, y);
      for (int j = 0; j < n; ++j) out[2 * j] = pad[j] ? vdd : in[j];
    }
  });
  return result;
}

SolveResult solve_sor(const System& sys, double vdd,
                      const SolverOptions& options) {
  const double omega = options.sor_omega;
  require(omega > 0.0 && omega < 2.0,
          "solve: SOR omega must lie in (0, 2) for convergence");
  const Mesh& m = sys.mesh;
  const double b_scale = sys.b_scale;
  std::vector<double> v = initial_iterate(m, vdd, options);
  StopCheck check(options);
  int iter = 0;
  double rr = 0.0;
  {  // r lives here, so finish's field does not add to it
    std::vector<double> r(m.size());
    for (; iter < options.max_iterations; ++iter) {
      if (check.faulted()) break;
      relax(m, m.b, v, kRed, omega);
      relax(m, m.b, v, kBlack, omega);
      // Convergence is checked on the true residual every few sweeps to
      // keep the check from dominating the sweep cost.
      if (iter % 8 == 7) {
        if (check.stop(std::sqrt(residual(m, m.b, v, r)) / b_scale,
                       iter + 1)) {
          ++iter;
          break;
        }
      }
    }
    rr = residual(m, m.b, v, r);
  }
  return finish(m, vdd, b_scale, v, rr, iter, check);
}

/// CG's step over n slots of one plane row: x += alpha p, r -= alpha ap.
void step_run(double alpha, const double* p, const double* ap, int n,
              double* x, double* r) {
  for_pairs(
      n,
      [&](int j) {
        store(x + j, load(x + j) + splat(alpha) * load(p + j));
        store(r + j, load(r + j) - splat(alpha) * load(ap + j));
      },
      [&](int j) {
        x[j] += alpha * p[j];
        r[j] -= alpha * ap[j];
      });
}

/// CG's next direction over n slots of one plane row: p = z + beta p.
void direction_run(double beta, const double* z, int n, double* p) {
  for_pairs(
      n,
      [&](int j) { store(p + j, load(z + j) + splat(beta) * load(p + j)); },
      [&](int j) { p[j] = z[j] + beta * p[j]; });
}

SolveResult solve_cg(const System& sys, double vdd,
                     const SolverOptions& options) {
  const Mesh& m = sys.mesh;
  const std::size_t n = m.size();
  const std::size_t nodes = m.nodes();
  const double b_scale = sys.b_scale;
  std::vector<double> x = initial_iterate(m, vdd, options);
  StopCheck check(options);
  int iter = 0;
  double rr = 0.0;
  {  // the work vectors live here, so finish's field does not add to them
    std::vector<double> r(n);
    rr = residual(m, m.b, x, r);

    // The preconditioner, its work vectors and its first V-cycle wait for
    // the first step: a solve that stops at iteration 0 (a warm start that
    // already meets the tolerance, an expired budget, a fault) builds none
    // of them. Every vector sees the same operations in the same order.
    std::optional<VCycle> preconditioner;
    std::vector<double> z;
    std::vector<double> ap;
    std::vector<double> p;
    double rz = 0.0;

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
      rr = sum_rows(m.k, nodes, [&](int y) {
        for (const int colour : {kRed, kBlack}) {
          const std::size_t row = m.row(colour, y);
          step_run(alpha, &p[row], &ap[row], m.h, &x[row], &r[row]);
        }
        red_from_zero(m, r, z, y);
        return row_dot(m, r, r, y);
      });
      const double rz_next = preconditioner->apply(r, z);
      const double beta = rz_next / rz;
      rz = rz_next;
      for_rows(m.k, nodes, [&](int y) {
        for (const int colour : {kRed, kBlack}) {
          const std::size_t row = m.row(colour, y);
          direction_run(beta, &z[row], m.h, &p[row]);
        }
      });
    }
    // With no step taken, x is the iterate the first residual() read, and
    // rr is already its |b - A x|^2; after a step rr is the recurrence's.
    if (iter > 0) rr = residual(m, m.b, x, r);
  }
  return finish(m, vdd, b_scale, x, rr, iter, check);
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
    if (options.kind != SolverKind::Sor) chain.push_back(SolverKind::Sor);
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
          "meaningless; inspect SolveResult::attempts");
  double lowest = grid.spec().vdd;
  for (const double v : result.voltage.data()) lowest = std::min(lowest, v);
  return grid.spec().vdd - lowest;
}

double mean_ir_drop(const PowerGrid& grid, const SolveResult& result) {
  require(result.stop != SolveStop::Diverged,
          "mean_ir_drop: the solve diverged and its voltage field is "
          "meaningless; inspect SolveResult::attempts");
  double total = 0.0;
  for (const double v : result.voltage.data()) total += grid.spec().vdd - v;
  return result.voltage.size() > 0
             ? total / static_cast<double>(result.voltage.size())
             : 0.0;
}

}  // namespace fp
