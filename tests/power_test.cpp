// Tests of the power-grid IR-drop model: construction, the two solver
// back-ends checked against the exact discrete answer (a dense Cholesky
// oracle and a manufactured solution), the preconditioner's iteration
// bound, physical sanity (maximum principle, symmetry, monotonicity in
// pads), and error paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "assign/dfa.h"
#include "exec/exec.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "package/circuit_generator.h"
#include "power/pad_ring.h"
#include "power/power_grid.h"
#include "power/solver.h"

namespace fp {
namespace {

PowerGridSpec small_spec() {
  PowerGridSpec spec;
  spec.nodes_per_side = 16;
  spec.vdd = 1.0;
  spec.sheet_res_x = 0.05;
  spec.sheet_res_y = 0.05;
  spec.total_current_a = 4.0;
  return spec;
}

TEST(PowerGrid, ConstructionValidation) {
  PowerGridSpec spec = small_spec();
  spec.nodes_per_side = 1;
  EXPECT_THROW(PowerGrid{spec}, InvalidArgument);
  spec = small_spec();
  spec.sheet_res_x = 0.0;
  EXPECT_THROW(PowerGrid{spec}, InvalidArgument);
  spec = small_spec();
  spec.total_current_a = -1.0;
  EXPECT_THROW(PowerGrid{spec}, InvalidArgument);
  spec = small_spec();
  spec.vdd = 0.0;
  EXPECT_THROW(PowerGrid{spec}, InvalidArgument);
}

TEST(PowerGrid, UniformCurrentSumsToTotal) {
  const PowerGrid grid(small_spec());
  double total = 0.0;
  for (int y = 0; y < grid.k(); ++y) {
    for (int x = 0; x < grid.k(); ++x) total += grid.node_current(x, y);
  }
  EXPECT_NEAR(total, 4.0, 1e-9);
}

TEST(PowerGrid, HotspotScalesRegion) {
  PowerGrid grid(small_spec());
  grid.add_hotspot({0.0, 0.0, 0.5, 0.5}, 3.0);
  const double base = 4.0 / (16.0 * 16.0);
  EXPECT_NEAR(grid.node_current(2, 2), 3.0 * base, 1e-12);
  EXPECT_NEAR(grid.node_current(12, 12), base, 1e-12);
}

TEST(PowerGrid, HotspotsCompose) {
  PowerGrid grid(small_spec());
  grid.add_hotspot({0.0, 0.0, 1.0, 1.0}, 2.0);
  grid.add_hotspot({0.0, 0.0, 1.0, 1.0}, 2.0);
  EXPECT_NEAR(grid.node_current(5, 5), 4.0 * 4.0 / 256.0, 1e-12);
}

TEST(PowerGrid, PadValidation) {
  PowerGrid grid(small_spec());
  EXPECT_THROW(grid.set_pads({{16, 0}}), InvalidArgument);
  EXPECT_THROW(grid.set_pads({{0, -1}}), InvalidArgument);
  grid.set_pads({{0, 0}, {0, 0}, {5, 5}});
  EXPECT_EQ(grid.pads().size(), 2u);  // duplicates collapse
  EXPECT_TRUE(grid.is_pad(0, 0));
  EXPECT_TRUE(grid.is_pad(5, 5));
  EXPECT_FALSE(grid.is_pad(1, 1));
}

TEST(Solver, NoPadsIsSingular) {
  const PowerGrid grid(small_spec());
  EXPECT_THROW((void)solve(grid), InvalidArgument);
}

TEST(Solver, OptionValidation) {
  PowerGrid grid(small_spec());
  grid.set_pads({{0, 0}});
  SolverOptions options;
  options.tolerance = 0.0;
  EXPECT_THROW((void)solve(grid, options), InvalidArgument);
  options = SolverOptions{};
  options.max_iterations = 0;
  EXPECT_THROW((void)solve(grid, options), InvalidArgument);
  options = SolverOptions{};
  options.kind = SolverKind::Sor;
  options.sor_omega = 2.5;
  EXPECT_THROW((void)solve(grid, options), InvalidArgument);
}

TEST(Solver, ZeroCurrentGivesFlatVdd) {
  PowerGridSpec spec = small_spec();
  spec.total_current_a = 0.0;
  PowerGrid grid(spec);
  grid.set_pads({{0, 0}});
  const SolveResult result = solve(grid);
  EXPECT_TRUE(result.converged);
  for (const double v : result.voltage.data()) EXPECT_NEAR(v, 1.0, 1e-9);
  EXPECT_NEAR(max_ir_drop(grid, result), 0.0, 1e-9);
}

TEST(Solver, MaximumPrinciple) {
  // With loads everywhere, every free node sits strictly below Vdd and
  // above some positive floor; pads sit exactly at Vdd.
  PowerGrid grid(small_spec());
  grid.set_pads({{0, 0}, {15, 15}});
  const SolveResult result = solve(grid);
  ASSERT_TRUE(result.converged);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      const double v = result.voltage(static_cast<std::size_t>(x),
                                      static_cast<std::size_t>(y));
      if (grid.is_pad(x, y)) {
        EXPECT_DOUBLE_EQ(v, 1.0);
      } else {
        EXPECT_LT(v, 1.0);
        EXPECT_GT(v, 0.0);
      }
    }
  }
}

TEST(Solver, SymmetricPadsGiveSymmetricField) {
  PowerGrid grid(small_spec());
  grid.set_pads({{0, 0}, {15, 0}, {0, 15}, {15, 15}});
  const SolveResult result = solve(grid);
  ASSERT_TRUE(result.converged);
  for (int y = 0; y < 16; ++y) {
    for (int x = 0; x < 16; ++x) {
      const double v = result.voltage(static_cast<std::size_t>(x),
                                      static_cast<std::size_t>(y));
      const double mirrored =
          result.voltage(static_cast<std::size_t>(15 - x),
                         static_cast<std::size_t>(y));
      EXPECT_NEAR(v, mirrored, 1e-6);
      const double flipped =
          result.voltage(static_cast<std::size_t>(x),
                         static_cast<std::size_t>(15 - y));
      EXPECT_NEAR(v, flipped, 1e-6);
    }
  }
}

TEST(Solver, MorePadsNeverHurt) {
  PowerGrid grid(small_spec());
  grid.set_pads({{0, 0}});
  const double one_pad = max_ir_drop(grid, solve(grid));
  grid.set_pads({{0, 0}, {15, 15}});
  const double two_pads = max_ir_drop(grid, solve(grid));
  grid.set_pads({{0, 0}, {15, 15}, {0, 15}, {15, 0}});
  const double four_pads = max_ir_drop(grid, solve(grid));
  EXPECT_LT(two_pads, one_pad);
  EXPECT_LT(four_pads, two_pads);
  EXPECT_GT(four_pads, 0.0);
}

TEST(Solver, CurrentScalesDropLinearly) {
  PowerGridSpec spec = small_spec();
  PowerGrid a(spec);
  a.set_pads({{0, 0}, {15, 15}});
  const double drop_a = max_ir_drop(a, solve(a));
  spec.total_current_a *= 2.0;
  PowerGrid b(spec);
  b.set_pads({{0, 0}, {15, 15}});
  const double drop_b = max_ir_drop(b, solve(b));
  EXPECT_NEAR(drop_b, 2.0 * drop_a, 1e-6 * drop_b);
}

TEST(Solver, HotspotRaisesLocalDrop) {
  PowerGridSpec spec = small_spec();
  PowerGrid uniform(spec);
  uniform.set_pads({{0, 0}, {15, 0}, {0, 15}, {15, 15}});
  const SolveResult base = solve(uniform);

  PowerGrid hot(spec);
  hot.add_hotspot({0.55, 0.55, 0.95, 0.95}, 6.0);
  hot.set_pads({{0, 0}, {15, 0}, {0, 15}, {15, 15}});
  const SolveResult heated = solve(hot);
  EXPECT_GT(max_ir_drop(hot, heated), max_ir_drop(uniform, base));
  // The hottest node moves toward the hotspot quadrant.
  const double center_base = base.voltage(12, 12);
  const double center_hot = heated.voltage(12, 12);
  EXPECT_LT(center_hot, center_base);
}

TEST(Solver, MeanBelowMax) {
  PowerGrid grid(small_spec());
  grid.set_pads({{0, 0}, {8, 15}});
  const SolveResult result = solve(grid);
  EXPECT_LT(mean_ir_drop(grid, result), max_ir_drop(grid, result));
  EXPECT_GT(mean_ir_drop(grid, result), 0.0);
}

TEST(Solver, AllPadsGridIsFlat) {
  PowerGridSpec spec = small_spec();
  spec.nodes_per_side = 3;
  PowerGrid grid(spec);
  std::vector<IPoint> all;
  for (int y = 0; y < 3; ++y) {
    for (int x = 0; x < 3; ++x) all.push_back({x, y});
  }
  grid.set_pads(all);
  const SolveResult result = solve(grid);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(max_ir_drop(grid, result), 0.0, 1e-12);
}

// ---------------------------------------------------------------------
// Ground truth: the Eq.-(1) system on the free nodes, assembled densely
// from the PowerGrid alone (pads eliminated, their Vdd moved to the
// right-hand side) and solved by Cholesky factorisation. At k <= 24 that
// is at most 576 unknowns, so the exact discrete answer costs
// milliseconds and every iterative backend is checked against it.
// ---------------------------------------------------------------------
struct DenseSystem {
  int k = 0;
  std::vector<int> unknown;  // node y * k + x -> unknown index, -1 at pads
  std::size_t n = 0;
  std::vector<double> a;  // n x n, row-major
  std::vector<double> b;
};

DenseSystem assemble(const PowerGrid& grid) {
  DenseSystem sys;
  sys.k = grid.k();
  const int k = sys.k;
  sys.unknown.assign(static_cast<std::size_t>(k * k), -1);
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      if (!grid.is_pad(x, y)) {
        sys.unknown[static_cast<std::size_t>(y * k + x)] =
            static_cast<int>(sys.n++);
      }
    }
  }
  const std::size_t n = sys.n;
  sys.a.assign(n * n, 0.0);
  sys.b.assign(n, 0.0);
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      const int row = sys.unknown[static_cast<std::size_t>(y * k + x)];
      if (row < 0) continue;
      const auto r = static_cast<std::size_t>(row);
      sys.b[r] = -grid.node_current(x, y);
      const auto link = [&](int nx, int ny, double g) {
        if (nx < 0 || nx >= k || ny < 0 || ny >= k) return;  // Neumann edge
        sys.a[r * n + r] += g;
        const int col = sys.unknown[static_cast<std::size_t>(ny * k + nx)];
        if (col < 0) {
          sys.b[r] += g * grid.spec().vdd;
        } else {
          sys.a[r * n + static_cast<std::size_t>(col)] -= g;
        }
      };
      link(x - 1, y, grid.gx());
      link(x + 1, y, grid.gx());
      link(x, y - 1, grid.gy());
      link(x, y + 1, grid.gy());
    }
  }
  return sys;
}

/// Node voltages of `grid` by a dense Cholesky solve; pads sit at Vdd.
Grid2D<double> dense_oracle(const PowerGrid& grid) {
  DenseSystem sys = assemble(grid);
  const std::size_t n = sys.n;
  std::vector<double>& l = sys.a;  // factored in place: A = L L^T
  for (std::size_t j = 0; j < n; ++j) {
    double d = l[j * n + j];
    for (std::size_t p = 0; p < j; ++p) d -= l[j * n + p] * l[j * n + p];
    EXPECT_GT(d, 0.0) << "the free-node system must be SPD";
    l[j * n + j] = std::sqrt(d);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = l[i * n + j];
      for (std::size_t p = 0; p < j; ++p) s -= l[i * n + p] * l[j * n + p];
      l[i * n + j] = s / l[j * n + j];
    }
  }
  std::vector<double> v = sys.b;
  for (std::size_t i = 0; i < n; ++i) {  // L y = b
    for (std::size_t p = 0; p < i; ++p) v[i] -= l[i * n + p] * v[p];
    v[i] /= l[i * n + i];
  }
  for (std::size_t i = n; i-- > 0;) {  // L^T v = y
    for (std::size_t p = i + 1; p < n; ++p) v[i] -= l[p * n + i] * v[p];
    v[i] /= l[i * n + i];
  }
  const auto k = static_cast<std::size_t>(sys.k);
  Grid2D<double> field(k, k, grid.spec().vdd);
  for (std::size_t node = 0; node < k * k; ++node) {
    const int u = sys.unknown[node];
    if (u >= 0) field.data()[node] = v[static_cast<std::size_t>(u)];
  }
  return field;
}

/// Largest |a - b| over the nodes of two fields.
double max_difference(const Grid2D<double>& a, const Grid2D<double>& b) {
  EXPECT_EQ(a.size(), b.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

/// The oracle cases: one corner pad; six ring pads under a hotspot; six
/// ring pads with anisotropic sheet resistance (gx != gy).
enum class OracleCase { CornerPad, RingPadsHotspot, RingPadsAnisotropic };

PowerGrid oracle_grid(int k, OracleCase which) {
  PowerGridSpec spec = small_spec();
  spec.nodes_per_side = k;
  if (which == OracleCase::RingPadsAnisotropic) spec.sheet_res_y = 0.2;
  PowerGrid grid(spec);
  if (which == OracleCase::CornerPad) {
    grid.set_pads({{0, 0}});
    return grid;
  }
  if (which == OracleCase::RingPadsHotspot) {
    grid.add_hotspot({0.1, 0.6, 0.5, 0.9}, 4.0);
  }
  std::vector<IPoint> pads;
  for (const int slot : {0, 5, 9, 14, 17, 22}) {
    pads.push_back(ring_slot_node(slot, 24, k));
  }
  grid.set_pads(pads);
  return grid;
}

// Every backend matches the exact discrete answer.
class SolverAgreement : public ::testing::TestWithParam<SolverKind> {};

TEST_P(SolverAgreement, MatchesDenseOracle) {
  // k = 25 is odd: its coarse levels (25 -> 13 -> 7) end on a node on the
  // die edge, where an even k ends one node past it -- the grid
  // transfers' other edge case.
  for (const int k : {8, 16, 24, 25}) {
    for (const OracleCase which :
         {OracleCase::CornerPad, OracleCase::RingPadsHotspot,
          OracleCase::RingPadsAnisotropic}) {
      const PowerGrid grid = oracle_grid(k, which);
      const Grid2D<double> exact = dense_oracle(grid);
      double exact_drop = 0.0;
      for (const double v : exact.data()) {
        exact_drop = std::max(exact_drop, grid.spec().vdd - v);
      }
      SolverOptions options;
      options.kind = GetParam();
      options.tolerance = 1e-12;
      const SolveResult result = solve(grid, options);
      const std::string where = "k " + std::to_string(k) + " case " +
                                std::to_string(static_cast<int>(which));
      ASSERT_TRUE(result.converged) << where;
      EXPECT_LE(max_difference(result.voltage, exact), 1e-9 * exact_drop)
          << where;
    }
  }
}

// A manufactured solution at a size the oracle cannot reach: pads on the
// whole boundary and the drop field d = c x (k-1-x) y (k-1-y). A quadratic
// has an exact second difference (-2), so the loads that produce d are
// I = 2c (gx y (k-1-y) + gy x (k-1-x)) >= 0 and the discrete answer is
// known in closed form. (A sin * sin field would be an eigenvector of the
// operator, on which CG converges in a handful of iterations.)
PowerGrid manufactured_grid(int k, double c, Grid2D<double>& expected) {
  PowerGridSpec spec = small_spec();
  spec.nodes_per_side = k;
  spec.sheet_res_y = 0.08;
  PowerGrid grid(spec);
  const auto f = [k](int t) { return static_cast<double>(t * (k - 1 - t)); };
  const auto n = static_cast<std::size_t>(k);
  Grid2D<double> amps(n, n, 0.0);
  expected = Grid2D<double>(n, n, spec.vdd);
  std::vector<IPoint> pads;
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      const auto ux = static_cast<std::size_t>(x);
      const auto uy = static_cast<std::size_t>(y);
      amps(ux, uy) = 2.0 * c * (grid.gx() * f(y) + grid.gy() * f(x));
      expected(ux, uy) = spec.vdd - c * f(x) * f(y);
      if (x == 0 || y == 0 || x == k - 1 || y == k - 1) pads.push_back({x, y});
    }
  }
  grid.set_explicit_currents(std::move(amps));
  grid.set_pads(pads);
  return grid;
}

TEST_P(SolverAgreement, MatchesManufacturedSolution) {
  constexpr int kMesh = 128;
  Grid2D<double> expected;
  const PowerGrid grid = manufactured_grid(kMesh, 6e-9, expected);
  double expected_drop = 0.0;
  for (const double v : expected.data()) {
    expected_drop = std::max(expected_drop, grid.spec().vdd - v);
  }
  ASSERT_GT(expected_drop, 0.05);
  SolverOptions options;
  options.kind = GetParam();
  options.tolerance = 1e-12;
  const SolveResult result = solve(grid, options);
  ASSERT_TRUE(result.converged);
  EXPECT_LE(max_difference(result.voltage, expected), 1e-9 * expected_drop);
}

// The reported relative_residual is the true |b - Av| / |b| of the
// returned field, recomputed here with the oracle's matrix, so one
// `tolerance` means the same thing for every backend.
TEST_P(SolverAgreement, ReportsTrueResidual) {
  for (const int k : {16, 24}) {
    const PowerGrid grid = oracle_grid(k, OracleCase::RingPadsHotspot);
    const DenseSystem sys = assemble(grid);
    SolverOptions options;
    options.kind = GetParam();
    const SolveResult result = solve(grid, options);
    ASSERT_TRUE(result.converged) << "k " << k;
    std::vector<double> v(sys.n);
    for (std::size_t node = 0; node < sys.unknown.size(); ++node) {
      const int u = sys.unknown[node];
      if (u >= 0) v[static_cast<std::size_t>(u)] = result.voltage.data()[node];
    }
    double rr = 0.0;
    double bb = 0.0;
    for (std::size_t i = 0; i < sys.n; ++i) {
      double av = 0.0;
      for (std::size_t j = 0; j < sys.n; ++j) av += sys.a[i * sys.n + j] * v[j];
      rr += (sys.b[i] - av) * (sys.b[i] - av);
      bb += sys.b[i] * sys.b[i];
    }
    const double truth = std::sqrt(rr / bb);
    ASSERT_GT(truth, 0.0) << "k " << k;
    EXPECT_NEAR(result.relative_residual / truth, 1.0, 0.01) << "k " << k;
  }
}

}  // namespace

// Cases are listed by backend name ("sor", "cg") rather than by the
// enumerator's bytes, which would silently change meaning whenever the
// enum changes.
void PrintTo(SolverKind kind, std::ostream* os) { *os << to_string(kind); }

namespace {

INSTANTIATE_TEST_SUITE_P(AllKinds, SolverAgreement,
                         ::testing::Values(SolverKind::Sor,
                                           SolverKind::ConjugateGradient));

/// The signoff benchmark's pad sets: DFA on a Table-1 circuit at `tiers`
/// stacked dies, supply pads mapped onto a k x k mesh by the pad ring.
PowerGrid table1_grid(int circuit, int tiers, int k) {
  CircuitSpec spec = CircuitGenerator::table1(circuit - 1);
  spec.tier_count = tiers;
  const Package package = CircuitGenerator::generate(spec);
  PowerGridSpec grid_spec;
  grid_spec.nodes_per_side = k;
  PowerGrid grid(grid_spec);
  grid.set_pads(
      PadRing(package, k).supply_nodes(DfaAssigner().assign(package)));
  return grid;
}

// The V-cycle preconditioner keeps a cold solve's iteration count nearly
// flat as the mesh refines (Jacobi-preconditioned CG needed 237/482/954
// iterations on circuit 1 here).
TEST(Solver, ColdCgIterationsStayFlatOnTable1Pads) {
  for (const auto& [circuit, tiers] : {std::pair{1, 1}, std::pair{5, 4}}) {
    for (const int k : {64, 128, 256}) {
      const PowerGrid grid = table1_grid(circuit, tiers, k);
      SolverOptions options;
      options.tolerance = 1e-9;
      const SolveResult result = solve(grid, options);
      const std::string where = "circuit " + std::to_string(circuit) +
                                " psi " + std::to_string(tiers) + " k " +
                                std::to_string(k);
      ASSERT_TRUE(result.converged) << where;
      EXPECT_LE(result.iterations, 20) << where;
    }
  }
}

// CG polls its deadline and ticks progress on every iteration, so the
// last tick of a finished solve is its iteration count.
TEST(Solver, PollsEveryCgIteration) {
  const PowerGrid grid = table1_grid(1, 1, 64);
  const std::string heartbeat = ::testing::TempDir() + "solver_polls.hb";
  obs::set_progress_heartbeat(heartbeat);
  const SolveResult result = solve(grid);
  const obs::ProgressSnapshot snapshot = obs::progress_snapshot();
  obs::set_progress_heartbeat("");
  std::remove(heartbeat.c_str());
  ASSERT_TRUE(result.converged);
  ASSERT_TRUE(snapshot.valid);
  EXPECT_EQ(snapshot.stage, "solver");
  EXPECT_EQ(snapshot.done, result.iterations);
}

TEST(Solver, ReportsNonConvergenceHonestly) {
  PowerGrid grid(small_spec());
  grid.set_pads({{0, 0}});
  for (const SolverKind kind :
       {SolverKind::Sor, SolverKind::ConjugateGradient}) {
    SolverOptions options;
    options.kind = kind;
    options.max_iterations = 2;
    options.tolerance = 1e-12;
    const SolveResult result = solve(grid, options);
    EXPECT_FALSE(result.converged) << to_string(kind);
    EXPECT_EQ(result.stop, SolveStop::IterationLimit) << to_string(kind);
    EXPECT_GT(result.relative_residual, 1e-12) << to_string(kind);
  }
}

// The exec-layer contract (docs/PARALLELISM.md): every solver backend
// returns a bit-identical field at threads = 1, 2 and 8. Meshes under
// 16,384 nodes run as one inline chunk, so the cases are large enough to
// split: CG at k = 256 and at the odd k = 257, where the fine level, the
// first coarse level (129 x 129) and the transfers between them span
// several row chunks, and SOR at k = 128.
TEST(SolverParallel, BitIdenticalAcrossThreadCounts) {
  const int saved_threads = exec::default_threads();
  const std::pair<SolverKind, int> cases[] = {
      {SolverKind::ConjugateGradient, 256},
      {SolverKind::ConjugateGradient, 257},
      {SolverKind::Sor, 128}};
  for (const auto& [kind, k] : cases) {
    PowerGridSpec spec = small_spec();
    spec.nodes_per_side = k;
    PowerGrid grid(spec);
    grid.set_pads({{0, 0}, {k - 1, 40}, {20, k - 1}, {60, 3}});
    SolverOptions options;
    options.kind = kind;
    options.tolerance = 1e-8;
    exec::set_default_threads(1);
    const SolveResult expected = solve(grid, options);
    for (const int threads : {2, 8}) {
      exec::set_default_threads(threads);
      const SolveResult actual = solve(grid, options);
      const std::string label = std::string(to_string(kind)) + " k=" +
                                std::to_string(k) +
                                " threads=" + std::to_string(threads);
      EXPECT_EQ(actual.iterations, expected.iterations) << label;
      EXPECT_EQ(actual.relative_residual, expected.relative_residual)
          << label;
      ASSERT_EQ(actual.voltage.data().size(), expected.voltage.data().size());
      for (std::size_t i = 0; i < actual.voltage.data().size(); ++i) {
        ASSERT_EQ(actual.voltage.data()[i], expected.voltage.data()[i])
            << label << " node " << i;
      }
    }
  }
  exec::set_default_threads(saved_threads);
}

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

/// What one pinned solve must reproduce bit for bit.
struct PinnedSolve {
  const char* name;
  int iterations;
  double max_drop;
  double mean_drop;
  double relative_residual;
  std::uint64_t field_hash;
};

/// `pin` as a PinnedSolve initialiser, so a deliberate numeric change can
/// paste the new row.
std::string pin_row(const PinnedSolve& pin) {
  char row[256];
  std::snprintf(row, sizeof row, "{\"%s\", %d, %a, %a, %a, 0x%016llxULL},",
                pin.name, pin.iterations, pin.max_drop, pin.mean_drop,
                pin.relative_residual,
                static_cast<unsigned long long>(pin.field_hash));
  return row;
}

// The solver's exact outputs on each load path and pad layout it serves:
// cold CG on the signoff pad sets from k = 3 (every coarse level skipped)
// to 256, interior area pads, a hotspot, explicit anisotropic currents,
// SOR, a warm re-solve after a pad moves, a warm re-solve on unchanged
// pads, which stops at iteration 0 with the cold row's field and residual,
// and the odd-k and small-k edge cases of the colour-split layout. Kernel
// rewrites must keep every bit. The values were captured at commit 535db44
// (the unchanged-pads row at 299f7ab, the rows after it at 1dd5cb3); a
// deliberate numeric change updates them in its own commit, with the
// reason.
TEST(Solver, KernelsKeepTheParentsBits) {
  const PinnedSolve expected[] = {
      {"cg c1 psi1 k=3", 1, 0x1.4afd6a052bf4p-6,
       0x1.08cabb37565d5p-8, 0x0p+0, 0x301197b14951ce9aULL},
      {"cg c1 psi1 k=8", 6, 0x1.b7282973e136p-6,
       0x1.81468a809efbbp-7, 0x1.0f6712d9a158ep-34, 0x54fc0bf70ba27b8aULL},
      {"cg c1 psi1 k=33", 9, 0x1.5276a4d31828p-5,
       0x1.8e1d706e16207p-6, 0x1.6e1de91f30824p-32, 0x4543466b50e0db1fULL},
      {"cg c1 psi1 k=97", 10, 0x1.8f8c2d0a8442p-5,
       0x1.0272d601e4727p-5, 0x1.cb70d3c7db4e7p-31, 0x29f25854aca79da2ULL},
      {"cg c1 psi1 k=256", 17, 0x1.c2c92e8f58e5p-5,
       0x1.34a5fb267f472p-5, 0x1.0a911824258bdp-30, 0x9b31db5a4a9f2d04ULL},
      {"cg c5 psi4 k=3", 1, 0x1.6c16c16c16cp-7,
       0x1.43a2730abee39p-10, 0x0p+0, 0x7aa29a064f01accfULL},
      {"cg c5 psi4 k=8", 5, 0x1.5f5682a640b2p-6,
       0x1.f9d218b79d214p-8, 0x1.aa8209e611b7ap-36, 0xd2e96fd7b528f317ULL},
      {"cg c5 psi4 k=33", 7, 0x1.d37af63916c6p-6,
       0x1.b2415511bec35p-7, 0x1.154d150ff387ap-33, 0xb922fb31b226d10aULL},
      {"cg c5 psi4 k=97", 9, 0x1.f8f2ed902f8cp-6,
       0x1.f97488713b7c5p-7, 0x1.0d22a0787df5p-32, 0x54847f5679622f0aULL},
      {"cg c5 psi4 k=256", 15, 0x1.0972ca18b7c3p-5,
       0x1.15fc32af89d4dp-6, 0x1.59cdbda6f08adp-31, 0xbcdf7573d9d928e6ULL},
      {"cg area pads k=64", 12, 0x1.e031fa447518p-8,
       0x1.9289c256ebca5p-8, 0x1.cb7f97ab771f7p-33, 0x0ce9140e03ab61feULL},
      {"cg hotspot k=48", 13, 0x1.16d0d6e5939bp-4,
       0x1.9446ec6eed402p-5, 0x1.231273d9a3d7bp-33, 0x598dfb0942d839e2ULL},
      {"cg explicit currents k=41", 10, 0x1.2fca36495b788p-4,
       0x1.d174703877811p-5, 0x1.56c4a1aba72dcp-32, 0xd5dc83ce875ee537ULL},
      {"sor c1 psi1 k=33", 264, 0x1.5276a3874244p-5,
       0x1.8e1d6f0be77e7p-6, 0x1.69f9e1a0ff65p-31, 0x62840396d437e960ULL},
      {"cg warm c1 psi1 k=97", 9, 0x1.8fc05d4f71b6p-5,
       0x1.02bb53cac4bp-5, 0x1.7d0b320272c3fp-32, 0xe8156e428467f33cULL},
      {"cg warm unchanged c1 psi1 k=97", 0, 0x1.8f8c2d0a8442p-5,
       0x1.0272d601e4727p-5, 0x1.cb70d3c7db4e7p-31, 0x29f25854aca79da2ULL},
      {"cg c1 psi1 k=257", 13, 0x1.c233c261a2ep-5,
       0x1.3433cab396427p-5, 0x1.6e87d6563ec1ap-31, 0xefc62bd1f256d7baULL},
      {"cg one pad k=2", 1, 0x1.99999998f5c28p-4,
       0x1.0000000000002p-4, 0x1.f6785f5bf19c5p-36, 0xcf65fe03380b1684ULL},
      {"cg one pad k=5", 3, 0x1.1981c4cb4f7fcp-3,
       0x1.ae016a3c3f99cp-4, 0x1.cb4f169d9054ep-51, 0x9af833c7ceb7bbceULL},
      {"cg area pads k=65", 9, 0x1.d66af400b8d8p-8,
       0x1.93c34606ab9dcp-8, 0x1.ab5cee567f507p-32, 0xe8c14529ed500442ULL},
      {"sor gauss-seidel k=34", 2464, 0x1.4f34c1dbe788p-5,
       0x1.8924f82fc07f3p-6, 0x1.103945ba2f3cdp-30, 0xab10724527c3689fULL},
      {"cg warm c1 psi1 k=257", 10, 0x1.c255377451c5p-5,
       0x1.345f93f39574ep-5, 0x1.0670ba3956d07p-31, 0x959827961339977fULL},
  };
  std::vector<PinnedSolve> actual;
  const auto record = [&](const char* name, const PowerGrid& grid,
                          const SolverOptions& options) {
    const SolveResult result = solve(grid, options);
    actual.push_back({name, result.iterations, max_ir_drop(grid, result),
                      mean_ir_drop(grid, result), result.relative_residual,
                      field_hash(result.voltage)});
  };
  const char* const table1_names[2][5] = {
      {"cg c1 psi1 k=3", "cg c1 psi1 k=8", "cg c1 psi1 k=33",
       "cg c1 psi1 k=97", "cg c1 psi1 k=256"},
      {"cg c5 psi4 k=3", "cg c5 psi4 k=8", "cg c5 psi4 k=33",
       "cg c5 psi4 k=97", "cg c5 psi4 k=256"}};
  const std::pair<int, int> table1_cases[2] = {{1, 1}, {5, 4}};
  const int table1_meshes[5] = {3, 8, 33, 97, 256};
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t m = 0; m < 5; ++m) {
      record(table1_names[c][m],
             table1_grid(table1_cases[c].first, table1_cases[c].second,
                         table1_meshes[m]),
             SolverOptions{});
    }
  }

  PowerGridSpec spec = small_spec();
  spec.nodes_per_side = 64;
  PowerGrid area(spec);
  area.set_pads(area_pad_nodes(16, 64));
  record("cg area pads k=64", area, SolverOptions{});

  spec.nodes_per_side = 48;
  PowerGrid hotspot(spec);
  hotspot.add_hotspot({0.1, 0.6, 0.5, 0.9}, 4.0);
  std::vector<IPoint> ring;
  for (const int slot : {0, 5, 9, 14, 17, 22}) {
    ring.push_back(ring_slot_node(slot, 24, 48));
  }
  hotspot.set_pads(ring);
  record("cg hotspot k=48", hotspot, SolverOptions{});

  spec.nodes_per_side = 41;
  spec.sheet_res_y = 0.08;
  PowerGrid explicit_currents(spec);
  Grid2D<double> amps(41, 41);
  for (std::size_t y = 0; y < 41; ++y) {
    for (std::size_t x = 0; x < 41; ++x) {
      amps(x, y) = 1e-3 * static_cast<double>(1 + (7 * x + 3 * y) % 5);
    }
  }
  explicit_currents.set_explicit_currents(std::move(amps));
  explicit_currents.set_pads({{0, 0}, {40, 12}, {17, 40}, {0, 29}, {20, 20}});
  record("cg explicit currents k=41", explicit_currents, SolverOptions{});

  SolverOptions sor;
  sor.kind = SolverKind::Sor;
  record("sor c1 psi1 k=33", table1_grid(1, 1, 33), sor);

  PowerGrid moved = table1_grid(1, 1, 97);
  const SolveResult cold = solve(moved, SolverOptions{});
  const PowerGrid unchanged = moved;
  std::vector<IPoint> pads = moved.pads();
  pads.front().x = pads.front().x > 0 ? pads.front().x - 1 : 1;
  moved.set_pads(pads);
  SolverOptions warm;
  warm.warm_start = &cold.voltage;
  record("cg warm c1 psi1 k=97", moved, warm);
  record("cg warm unchanged c1 psi1 k=97", unchanged, warm);

  // Odd k, whose colour rows differ in length, down to the 5 x 5 level;
  // meshes with no interior pair or a lone interior node; interior pads
  // on odd k; plain Gauss-Seidel on even k; a warm start on odd k.
  const PowerGrid odd = table1_grid(1, 1, 257);
  const SolveResult odd_cold = solve(odd, SolverOptions{});
  record("cg c1 psi1 k=257", odd, SolverOptions{});
  for (const int k : {2, 5}) {
    PowerGridSpec one_pad = small_spec();
    one_pad.nodes_per_side = k;
    PowerGrid lone(one_pad);
    lone.set_pads({{0, k / 2}});
    record(k == 2 ? "cg one pad k=2" : "cg one pad k=5", lone,
           SolverOptions{});
  }
  spec = small_spec();
  spec.nodes_per_side = 65;
  PowerGrid area_odd(spec);
  area_odd.set_pads(area_pad_nodes(16, 65));
  record("cg area pads k=65", area_odd, SolverOptions{});
  SolverOptions gauss_seidel;
  gauss_seidel.kind = SolverKind::Sor;
  gauss_seidel.sor_omega = 1.0;
  record("sor gauss-seidel k=34", table1_grid(1, 1, 34), gauss_seidel);
  PowerGrid odd_moved = odd;
  std::vector<IPoint> odd_pads = odd_moved.pads();
  odd_pads.front().x = odd_pads.front().x > 0 ? odd_pads.front().x - 1 : 1;
  odd_moved.set_pads(odd_pads);
  SolverOptions odd_warm;
  odd_warm.warm_start = &odd_cold.voltage;
  record("cg warm c1 psi1 k=257", odd_moved, odd_warm);

  ASSERT_EQ(actual.size(), std::size(expected));
  for (std::size_t i = 0; i < actual.size(); ++i) {
    const PinnedSolve& want = expected[i];
    const PinnedSolve& got = actual[i];
    const std::string row = "now: " + pin_row(got);
    EXPECT_STREQ(got.name, want.name);
    EXPECT_EQ(got.iterations, want.iterations) << row;
    EXPECT_EQ(got.max_drop, want.max_drop) << row;
    EXPECT_EQ(got.mean_drop, want.mean_drop) << row;
    EXPECT_EQ(got.relative_residual, want.relative_residual) << row;
    EXPECT_EQ(got.field_hash, want.field_hash) << row;
  }
}

// A warm start that already meets the tolerance returns at iteration 0
// without building the V-cycle: its pooled regions are build_system, the
// iterate, one residual and the Vdd write-back, where building the
// levels, the first V-cycle and p = z opened 21 more.
TEST(Solver, ConvergedWarmStartBuildsNoPreconditioner) {
  const PowerGrid grid = table1_grid(1, 1, 256);
  const SolveResult cold = solve(grid, SolverOptions{});
  ASSERT_TRUE(cold.converged);
  SolverOptions warm;
  warm.warm_start = &cold.voltage;

  obs::MetricsRegistry::global().clear();
  obs::set_metrics_enabled(true);
  const SolveResult again = solve(grid, warm);
  obs::set_metrics_enabled(false);
  const auto regions =
      obs::MetricsRegistry::global().counter_value("exec.regions");
  obs::MetricsRegistry::global().clear();

  EXPECT_EQ(again.iterations, 0);
  EXPECT_TRUE(again.converged);
  EXPECT_EQ(again.relative_residual, cold.relative_residual);
  EXPECT_EQ(again.voltage.data(), cold.voltage.data());
  ASSERT_TRUE(regions.has_value());
  EXPECT_LE(*regions, 4);
}

}  // namespace
}  // namespace fp
