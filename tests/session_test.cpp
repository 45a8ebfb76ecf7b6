// The session layer's O(affected-nets) contract (docs/SERVE.md): after
// any stream of random legal adjacent swaps (and undos), the delta paths
// -- Eq.-(3) cost, per-swap gap densities, memoized global routing,
// warm-started IR re-solve, dirty-rule-only checks -- must agree with a
// from-scratch evaluation of the same assignment.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "analysis/check.h"
#include "assign/dfa.h"
#include "assign/random_assigner.h"
#include "obs/json.h"
#include "package/circuit_generator.h"
#include "route/density.h"
#include "route/router.h"
#include "session/session.h"
#include "util/error.h"
#include "util/rng.h"

namespace fp {
namespace {

Package make_package(int tiers, std::uint64_t seed = 3) {
  CircuitSpec spec = CircuitGenerator::table1(1);
  spec.tier_count = tiers;
  spec.seed = seed;
  return CircuitGenerator::generate(spec);
}

SessionOptions small_mesh_options() {
  SessionOptions options;
  options.grid_spec.nodes_per_side = 12;
  return options;
}

/// Applies one random legal adjacent swap; false when the draw was an
/// illegal (same-row) pair, which the caller just skips.
bool random_swap(DesignSession& session, Rng& rng) {
  const Package& package = session.package();
  const int qi = static_cast<int>(
      rng.index(static_cast<std::size_t>(package.quadrant_count())));
  const auto& order =
      session.assignment().quadrants[static_cast<std::size_t>(qi)].order;
  const int left = static_cast<int>(rng.index(order.size() - 1));
  if (session.swap_illegal(qi, left)) return false;
  session.apply_swap(qi, left);
  return true;
}

/// Incremental evaluate() must match the cold oracle on every figure:
/// exactly on the Eq.-(3) terms (integer/rational arithmetic all the
/// way), bit-identical on the check findings, within float-summation
/// noise on the flyline total, and within solver tolerance on IR.
void expect_matches_cold(DesignSession& session, bool global_route) {
  SessionEvaluateOptions what;
  what.global_route = global_route;
  const SessionEvaluation incremental = session.evaluate(what);
  const SessionEvaluation cold = session.evaluate_cold(what);

  EXPECT_EQ(incremental.cost, cold.cost);
  EXPECT_EQ(incremental.dispersion, cold.dispersion);
  EXPECT_EQ(incremental.increased_density, cold.increased_density);
  EXPECT_EQ(incremental.omega, cold.omega);
  EXPECT_EQ(incremental.max_density, cold.max_density);
  EXPECT_NEAR(incremental.flyline_um, cold.flyline_um,
              1e-9 * (1.0 + std::abs(cold.flyline_um)));
  if (global_route) {
    ASSERT_TRUE(incremental.have_global);
    ASSERT_TRUE(cold.have_global);
    EXPECT_EQ(incremental.global_max_density, cold.global_max_density);
  }

  ASSERT_TRUE(incremental.have_check);
  ASSERT_TRUE(cold.have_check);
  EXPECT_EQ(check_report_to_json(incremental.check).dump(),
            check_report_to_json(cold.check).dump());

  ASSERT_TRUE(incremental.have_ir);
  ASSERT_TRUE(cold.have_ir);
  EXPECT_TRUE(incremental.ir.converged);
  EXPECT_TRUE(cold.ir.converged);
  // Both solves converge to the same relative-residual tolerance; the
  // voltage fields then agree to a modest multiple of it.
  const double tol =
      100.0 * session.options().solver.tolerance *
      session.options().grid_spec.vdd;
  EXPECT_NEAR(incremental.ir.max_drop_v, cold.ir.max_drop_v, tol);
  EXPECT_NEAR(incremental.ir.mean_drop_v, cold.ir.mean_drop_v, tol);
  EXPECT_EQ(incremental.ir.supply_pad_count, cold.ir.supply_pad_count);
}

class SessionSweep
    : public ::testing::TestWithParam<std::uint64_t> {};

// The tentpole property: 10 independently seeded random legal swap
// streams, each checked against the cold oracle at several depths.
TEST_P(SessionSweep, IncrementalMatchesColdOverSwapStream) {
  const std::uint64_t seed = GetParam();
  const Package package = make_package(2, seed);
  DesignSession session(package, DfaAssigner().assign(package),
                        small_mesh_options());

  Rng rng(seed * 1717 + 5);
  int applied = 0;
  for (int step = 0; step < 90; ++step) {
    if (random_swap(session, rng)) ++applied;
    if (applied > 0 && step % 9 == 0) session.undo();
    if (step % 30 == 29) {
      expect_matches_cold(session, /*global_route=*/step % 60 == 59);
    }
  }
  EXPECT_GT(applied, 20);
  expect_matches_cold(session, /*global_route=*/true);
  EXPECT_GT(session.stats().warm_solves, 0);
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, SessionSweep,
                         ::testing::Range<std::uint64_t>(1, 11));

// Delta-maintained per-quadrant density maps must be bit-identical to a
// rebuild from scratch -- not merely close.
TEST(DesignSession, DensityMapsBitIdenticalToRebuild) {
  const Package package = make_package(2, 7);
  DesignSession session(package, DfaAssigner().assign(package),
                        small_mesh_options());
  Rng rng(99);
  for (int step = 0; step < 60; ++step) random_swap(session, rng);

  const MonotonicRouter router;
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    const QuadrantRoute fresh = router.route(
        package.quadrant(qi),
        session.assignment().quadrants[static_cast<std::size_t>(qi)]);
    EXPECT_EQ(session.density_rows(qi), fresh.gap_densities)
        << "quadrant " << qi;
  }
}

// The interactive-session circuit of bench_serve_session and the e2e
// `serve` workload: 768 fingers, 4 bump rows per quadrant, psi = 2.
Package serve_package() {
  CircuitSpec spec = CircuitGenerator::table1(2);
  spec.finger_count = 768;
  spec.rows_per_quadrant = 4;
  spec.tier_count = 2;
  return CircuitGenerator::generate(spec);
}

/// Drives `swaps` random legal swaps with an undo after every 8th (the
/// `serve` mix). After each swap or undo, the touched quadrant's per-swap
/// rows must equal a fresh DensityMap's; every 64 steps, the package max
/// must equal max_density() and the flyline total the router's, bit for
/// bit.
void expect_density_model_exact(const Package& package,
                                const PackageAssignment& start, int swaps,
                                std::uint64_t seed) {
  DesignSession session(package, start, small_mesh_options());
  const MonotonicRouter router;
  const SessionEvaluateOptions figures_only{.ir = false, .check = false};
  Rng rng(seed);
  int steps = 0;
  const auto check_step = [&](int quadrant) {
    const auto q = static_cast<std::size_t>(quadrant);
    const DensityMap fresh(package.quadrant(quadrant),
                           session.assignment().quadrants[q]);
    const auto& rows = session.density_rows(quadrant);
    for (int r = 0; r < fresh.row_count(); ++r) {
      ASSERT_EQ(rows[static_cast<std::size_t>(r)], fresh.row_densities(r))
          << "step " << steps << ", quadrant " << quadrant << ", row " << r;
    }
    if (++steps % 64 != 0) return;
    const SessionEvaluation ev = session.evaluate(figures_only);
    ASSERT_EQ(ev.max_density, max_density(package, session.assignment()))
        << "step " << steps;
    ASSERT_EQ(ev.flyline_um,
              router.route(package, session.assignment()).total_flyline_um)
        << "step " << steps;
  };
  for (int applied = 0; applied < swaps;) {
    const int qi = static_cast<int>(
        rng.index(static_cast<std::size_t>(package.quadrant_count())));
    const auto& order =
        session.assignment().quadrants[static_cast<std::size_t>(qi)].order;
    const int left = static_cast<int>(rng.index(order.size() - 1));
    if (session.swap_illegal(qi, left)) continue;
    session.apply_swap(qi, left);
    ++applied;
    check_step(qi);
    if (::testing::Test::HasFatalFailure()) return;
    if (applied % 8 == 0) {
      ASSERT_TRUE(session.undo());
      check_step(qi);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  EXPECT_EQ(session.stats().undos, swaps / 8);
}

/// (psi, seed) of one stream.
class DensityModelStream
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

// Odd seeds start from a random legal order, even ones from DFA, so the
// streams see the max density both rise and fall.
TEST_P(DensityModelStream, MatchesFreshDensityMapAfterEverySwapAndUndo) {
  const auto [tiers, seed] = GetParam();
  const Package package = make_package(tiers, seed);
  const PackageAssignment start = seed % 2 == 1
                                      ? RandomAssigner(seed).assign(package)
                                      : DfaAssigner().assign(package);
  expect_density_model_exact(package, start, 4096, seed * 31 + 7);
}

std::string model_stream_name(
    const ::testing::TestParamInfo<DensityModelStream::ParamType>& info) {
  return "psi" + std::to_string(std::get<0>(info.param)) + "_seed" +
         std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    TenSeedsPsi1And2, DensityModelStream,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::Range<std::uint64_t>(1, 11)),
    model_stream_name);

TEST(DensityModel, ServeCircuitStreamMatchesFreshDensityMap) {
  const Package package = serve_package();
  expect_density_model_exact(package, DfaAssigner().assign(package), 4096,
                             2026);
}

// Warm-started re-solves must stay within the declared tolerance of a
// cold solve, and the telemetry must show the warm path was taken.
TEST(DesignSession, WarmSolveMatchesColdWithinTolerance) {
  const Package package = make_package(2, 11);
  DesignSession session(package, DfaAssigner().assign(package),
                        small_mesh_options());
  SessionEvaluateOptions what;
  what.check = false;

  const SessionEvaluation first = session.evaluate(what);
  EXPECT_FALSE(first.warm_started);  // nothing to seed from yet

  Rng rng(4242);
  for (int round = 0; round < 4; ++round) {
    for (int step = 0; step < 8; ++step) random_swap(session, rng);
    const SessionEvaluation warm = session.evaluate(what);
    const SessionEvaluation cold = session.evaluate_cold(what);
    EXPECT_TRUE(warm.warm_started);
    EXPECT_FALSE(cold.warm_started);
    const double tol = 100.0 * session.options().solver.tolerance *
                       session.options().grid_spec.vdd;
    EXPECT_NEAR(warm.ir.max_drop_v, cold.ir.max_drop_v, tol);
    EXPECT_NEAR(warm.ir.mean_drop_v, cold.ir.mean_drop_v, tol);
  }
  EXPECT_GE(session.stats().warm_solves, 4);
}

// An IR evaluate with no swap since the last one re-solves on the same
// pads from that solve's field: it already meets the tolerance, so it
// takes 0 iterations and reports the same drops to the bit.
TEST(DesignSession, RepeatedEvaluateReusesTheConvergedField) {
  const Package package = make_package(2, 11);
  DesignSession session(package, DfaAssigner().assign(package),
                        small_mesh_options());
  SessionEvaluateOptions what;
  what.check = false;
  Rng rng(77);
  for (int step = 0; step < 12; ++step) random_swap(session, rng);

  const SessionEvaluation first = session.evaluate(what);
  const SessionEvaluation second = session.evaluate(what);
  ASSERT_TRUE(first.have_ir);
  ASSERT_TRUE(second.have_ir);
  EXPECT_GT(first.ir.solver_iterations, 0);
  EXPECT_TRUE(second.warm_started);
  EXPECT_EQ(second.ir.solver_iterations, 0);
  EXPECT_TRUE(second.ir.converged);
  EXPECT_EQ(second.ir.max_drop_v, first.ir.max_drop_v);
  EXPECT_EQ(second.ir.mean_drop_v, first.ir.mean_drop_v);
  EXPECT_EQ(second.ir.supply_pad_count, first.ir.supply_pad_count);
}

// With warm starting disabled every session solve is cold, and at one
// thread the persistent-mesh path must be bit-identical to the
// from-scratch path (same pads, same deterministic sweep order).
TEST(DesignSession, ColdSolvesBitIdenticalWithWarmStartDisabled) {
  const Package package = make_package(2, 13);
  SessionOptions options = small_mesh_options();
  options.warm_start = false;
  DesignSession session(package, DfaAssigner().assign(package), options);
  SessionEvaluateOptions what;
  what.check = false;

  // Both evaluates report what the flow's analyze_ir reports, field by
  // field: the k=12 mesh snaps several supply pads onto one node, and
  // supply_pad_count still counts pads, not nodes.
  const auto expect_flow_report = [&](const IrReport& got, const char* who) {
    const IrReport want = analyze_ir(package, session.assignment(),
                                     options.grid_spec, options.solver);
    EXPECT_EQ(got.max_drop_v, want.max_drop_v) << who;
    EXPECT_EQ(got.mean_drop_v, want.mean_drop_v) << who;
    EXPECT_EQ(got.supply_pad_count, want.supply_pad_count) << who;
    EXPECT_EQ(got.solver_iterations, want.solver_iterations) << who;
    EXPECT_EQ(got.converged, want.converged) << who;
    EXPECT_EQ(got.solver_stop, want.solver_stop) << who;
    EXPECT_EQ(got.solver_attempts, want.solver_attempts) << who;
  };
  Rng rng(31);
  for (int round = 0; round < 3; ++round) {
    for (int step = 0; step < 6; ++step) random_swap(session, rng);
    const SessionEvaluation a = session.evaluate(what);
    const SessionEvaluation b = session.evaluate_cold(what);
    EXPECT_FALSE(a.warm_started);
    expect_flow_report(a.ir, "evaluate");
    expect_flow_report(b.ir, "evaluate_cold");
  }
  EXPECT_EQ(session.stats().warm_solves, 0);
}

// Undoing every journaled swap restores the load-time assignment and its
// exact cost; undo on an empty journal reports false.
TEST(DesignSession, UndoRoundTripRestoresInitial) {
  const Package package = make_package(1, 5);
  const PackageAssignment initial = DfaAssigner().assign(package);
  DesignSession session(package, initial, small_mesh_options());
  const double initial_cost = session.cost();

  Rng rng(8);
  for (int step = 0; step < 40; ++step) random_swap(session, rng);
  while (session.undo()) {
  }
  EXPECT_FALSE(session.undo());
  EXPECT_EQ(session.swap_count(), 0u);
  EXPECT_EQ(session.cost(), initial_cost);
  for (std::size_t qi = 0; qi < initial.quadrants.size(); ++qi) {
    EXPECT_EQ(session.assignment().quadrants[qi].order,
              initial.quadrants[qi].order)
        << "quadrant " << qi;
  }
}

TEST(DesignSession, SwapIllegalDiagnosesAndApplyThrows) {
  const Package package = make_package(1, 5);
  DesignSession session(package, DfaAssigner().assign(package),
                        small_mesh_options());
  EXPECT_TRUE(session.swap_illegal(-1, 0).has_value());
  EXPECT_TRUE(session.swap_illegal(package.quadrant_count(), 0).has_value());
  EXPECT_TRUE(session.swap_illegal(0, -1).has_value());
  EXPECT_TRUE(session.swap_illegal(0, 1 << 20).has_value());
  EXPECT_THROW(session.apply_swap(0, -1), InvalidArgument);
  try {
    session.apply_swap(0, 1 << 20);
    FAIL() << "apply_swap accepted an out-of-range finger";
  } catch (const InvalidArgument& error) {
    EXPECT_EQ(std::string(error.what()),
              "DesignSession::apply_swap: " +
                  session.swap_illegal(0, 1 << 20).value());
  }
  EXPECT_EQ(session.stats().swaps, 0LL);
}

}  // namespace
}  // namespace fp
