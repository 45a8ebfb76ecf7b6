// Resilience tests: the fault-injection matrix, the solver fallback
// chain, wall-clock budgets and the error taxonomy (docs/ROBUSTNESS.md).
//
// The contract under test: with any single fault site armed, the
// pipeline either throws a structured fp::Error or returns a degraded
// but *legal* result -- it never crashes and never returns an illegal
// assignment. With everything disarmed and no budgets set, behaviour is
// bit-identical to a build without the hooks.
#include <gtest/gtest.h>

#include <csignal>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/check.h"
#include "codesign/flow.h"
#include "io/assignment_file.h"
#include "io/circuit_file.h"
#include "package/circuit_generator.h"
#include "route/global_router.h"
#include "route/legality.h"
#include "util/cancel.h"
#include "util/error.h"
#include "util/faultpoint.h"
#include "util/signal.h"

namespace fp {
namespace {

FlowOptions light_flow() {
  FlowOptions options;
  options.method = AssignmentMethod::Dfa;
  options.grid_spec.nodes_per_side = 16;
  options.exchange.schedule.initial_temperature = 2.0;
  options.exchange.schedule.final_temperature = 1e-3;
  options.exchange.schedule.cooling = 0.9;
  options.exchange.schedule.moves_per_temperature = 32;
  return options;
}

Package make_package(int circuit = 0, int tiers = 1) {
  CircuitSpec spec = CircuitGenerator::table1(circuit);
  spec.tier_count = tiers;
  return CircuitGenerator::generate(spec);
}

void expect_legal(const Package& package,
                  const PackageAssignment& assignment) {
  ASSERT_EQ(static_cast<int>(assignment.quadrants.size()),
            package.quadrant_count());
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    EXPECT_TRUE(is_monotone_legal(
        package.quadrant(qi),
        assignment.quadrants[static_cast<std::size_t>(qi)]))
        << "quadrant " << qi << " illegal";
  }
}

class ResilienceTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::disarm(); }
  void TearDown() override { fault::disarm(); }
};

// --- fault-injection matrix ---------------------------------------------

// Every registered site, armed once, must yield a clean structured error
// or a degraded-but-legal result; anything else (crash, foreign
// exception) fails the test run itself.
TEST_F(ResilienceTest, EverySiteArmedNeverCrashes) {
  const Package package = make_package();
  for (const std::string_view site : fault::registered_sites()) {
    SCOPED_TRACE(std::string(site));
    fault::disarm();
    fault::arm(std::string(site) + ":after=1");
    try {
      // The full artifact pipeline: circuit round-trip, flow, assignment
      // round-trip, global-router improvement.
      const std::string text = write_circuit(package);
      std::istringstream in(text);
      const Package loaded = read_circuit(in);
      const FlowResult result = CodesignFlow(light_flow()).run(loaded);
      expect_legal(loaded, result.final);
      std::istringstream assignment_in(write_assignment(loaded, result.final));
      const PackageAssignment reloaded =
          read_assignment(assignment_in, loaded);
      expect_legal(loaded, reloaded);
      const GlobalRouter router;
      const GlobalRouteConfig config = router.improve(
          loaded.quadrant(0), result.final.quadrants.front());
      EXPECT_EQ(GlobalRouter::validate(loaded.quadrant(0),
                                       result.final.quadrants.front(), config),
                std::nullopt);
    } catch (const Error& error) {
      // A structured error is an acceptable outcome; it must carry a code
      // and a non-empty message.
      EXPECT_FALSE(std::string(error.what()).empty());
      EXPECT_FALSE(error.describe().empty());
    }
  }
}

TEST_F(ResilienceTest, InjectedIoFaultCarriesSiteContext) {
  fault::arm("io.circuit.read:after=1");
  std::istringstream in(write_circuit(make_package()));
  try {
    const Package loaded = read_circuit(in);
    FAIL() << "expected FaultInjected";
  } catch (const fault::FaultInjected& error) {
    EXPECT_EQ(error.code(), ErrorCode::FaultInjected);
    ASSERT_FALSE(error.context().empty());
    EXPECT_EQ(error.context().front(), "site=io.circuit.read");
  }
}

TEST_F(ResilienceTest, FaultedGridAllocationDegradesAnalysisNotTheRun) {
  // alloc.grid fires inside analyze_ir; the flow catches it, zeroes the
  // IR figures and reports a degraded (not failed) run.
  fault::arm("alloc.grid:after=1:times=0");
  const Package package = make_package();
  FlowOptions options = light_flow();
  options.exchange.ir_mode = IrCostMode::Proxy;  // no grid inside SA
  const FlowResult result = CodesignFlow(options).run(package);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.ir_initial.max_drop_v, 0.0);
  EXPECT_EQ(result.ir_final.max_drop_v, 0.0);
  expect_legal(package, result.final);
  bool saw_analysis_failed = false;
  for (const DegradeEvent& event : result.degrade_events) {
    if (event.reason == DegradeReason::AnalysisFailed) {
      saw_analysis_failed = true;
    }
  }
  EXPECT_TRUE(saw_analysis_failed);
}

TEST_F(ResilienceTest, FaultedSaStepAbortsExchangeWithLegalResult) {
  fault::arm("sa.step:after=1");
  const Package package = make_package();
  const FlowResult result = CodesignFlow(light_flow()).run(package);
  EXPECT_TRUE(result.degraded);
  EXPECT_EQ(result.anneal.stop, AnnealStop::FaultInjected);
  expect_legal(package, result.final);
}

// --- registry semantics -------------------------------------------------

TEST_F(ResilienceTest, ArmRejectsMalformedSpecs) {
  EXPECT_THROW(fault::arm("no.such.site:after=1"), InvalidArgument);
  EXPECT_THROW(fault::arm("sa.step"), InvalidArgument);
  EXPECT_THROW(fault::arm("sa.step:after=zero"), InvalidArgument);
  EXPECT_THROW(fault::arm("sa.step:after=0"), InvalidArgument);
  EXPECT_THROW(fault::arm("sa.step:times=2"), InvalidArgument);
  EXPECT_THROW(fault::arm("sa.step:after=1:bogus=3"), InvalidArgument);
  EXPECT_FALSE(fault::enabled());
}

TEST_F(ResilienceTest, AfterAndTimesCountPassesDeterministically) {
  fault::arm("router.pass:after=3:times=2");
  EXPECT_TRUE(fault::enabled());
  // Passes 1, 2 do not fire; 3 and 4 do (times=2); 5+ are quiet again.
  EXPECT_FALSE(fault::triggered("router.pass"));
  EXPECT_FALSE(fault::triggered("router.pass"));
  EXPECT_TRUE(fault::triggered("router.pass"));
  EXPECT_TRUE(fault::triggered("router.pass"));
  EXPECT_FALSE(fault::triggered("router.pass"));
  const std::vector<fault::SiteStatus> sites = fault::status();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites.front().site, "router.pass");
  EXPECT_EQ(sites.front().hits, 5);
  EXPECT_EQ(sites.front().fired, 2);
  fault::disarm();
  EXPECT_FALSE(fault::enabled());
  EXPECT_FALSE(fault::triggered("router.pass"));
}

TEST_F(ResilienceTest, AbortModeParsesAndReportsInStatus) {
  // mode=abort is how the farm tests kill a worker the way a real crash
  // would; firing it in-process would take the test runner down, so the
  // unit test stops at parse/status and the end-to-end firing lives in
  // tests/farm_test.cpp.
  fault::arm("sa.step:after=2:times=3:mode=abort");
  std::vector<fault::SiteStatus> sites = fault::status();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites.front().mode, fault::FireMode::Abort);
  EXPECT_EQ(fault::to_string(sites.front().mode), "abort");
  fault::disarm();
  fault::arm("sa.step:after=1:mode=throw");
  sites = fault::status();
  ASSERT_EQ(sites.size(), 1u);
  EXPECT_EQ(sites.front().mode, fault::FireMode::Throw);
  fault::disarm();
  EXPECT_THROW(fault::arm("sa.step:after=1:mode=segfault"), InvalidArgument);
  EXPECT_THROW(fault::arm("sa.step:after=1:mode="), InvalidArgument);
}

TEST_F(ResilienceTest, DisarmedSitesAreInert) {
  EXPECT_FALSE(fault::enabled());
  for (const std::string_view site : fault::registered_sites()) {
    EXPECT_FALSE(fault::triggered(site));
    EXPECT_NO_THROW(fault::check(site));
  }
}

// --- solver fallback chain ----------------------------------------------

PowerGrid small_grid() {
  PowerGridSpec spec;
  spec.nodes_per_side = 12;
  PowerGrid grid(spec);
  grid.set_pads({{0, 0}, {11, 11}});
  return grid;
}

TEST_F(ResilienceTest, SolverEscalatesPastOneDivergence) {
  const PowerGrid grid = small_grid();
  fault::arm("solver.step:after=1:times=1");
  const SolveResult result = solve(grid);
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.stop, SolveStop::Converged);
  ASSERT_GE(result.attempts.size(), 2u);
  EXPECT_EQ(result.attempts.front().kind, SolverKind::ConjugateGradient);
  EXPECT_EQ(result.attempts.front().stop, SolveStop::Diverged);
  EXPECT_EQ(result.attempts.back().stop, SolveStop::Converged);
}

TEST_F(ResilienceTest, AllBackendsDivergingThrowsSolverError) {
  const PowerGrid grid = small_grid();
  fault::arm("solver.step:after=1:times=0");
  try {
    const SolveResult result = solve(grid);
    FAIL() << "expected SolverError, got stop="
           << std::string(to_string(result.stop));
  } catch (const SolverError& error) {
    EXPECT_EQ(error.code(), ErrorCode::Solver);
    ASSERT_FALSE(error.context().empty());
    EXPECT_EQ(error.context().front(), "solver.fallback");
    // The message names every backend it tried.
    const std::string what = error.what();
    EXPECT_NE(what.find("cg("), std::string::npos) << what;
    EXPECT_NE(what.find("sor("), std::string::npos) << what;
  }
}

TEST_F(ResilienceTest, IrDropReadersRejectDivergedResults) {
  const PowerGrid grid = small_grid();
  SolveResult healthy = solve(grid);
  EXPECT_GT(max_ir_drop(grid, healthy), 0.0);
  EXPECT_GT(mean_ir_drop(grid, healthy), 0.0);
  SolveResult diverged = healthy;
  diverged.stop = SolveStop::Diverged;
  diverged.converged = false;
  EXPECT_THROW((void)max_ir_drop(grid, diverged), InvalidArgument);
  EXPECT_THROW((void)mean_ir_drop(grid, diverged), InvalidArgument);
}

// --- budgets ------------------------------------------------------------

TEST(CancelTokenTest, Semantics) {
  const CancelToken unlimited;
  EXPECT_FALSE(unlimited.limited());
  EXPECT_FALSE(unlimited.expired());
  EXPECT_GT(unlimited.remaining_s(), 1e20);

  const CancelToken expired = CancelToken::after_seconds(-1.0);
  EXPECT_TRUE(expired.limited());
  EXPECT_TRUE(expired.expired());
  EXPECT_EQ(expired.remaining_s(), 0.0);

  const CancelToken wide = CancelToken::after_seconds(3600.0);
  EXPECT_FALSE(wide.expired());
  // A child can only tighten: the child of a wide budget with a tiny
  // stage cap expires first; a zero stage cap inherits the parent.
  EXPECT_TRUE(wide.child(-1.0).expired() == false);
  EXPECT_LT(wide.child(1.0).remaining_s(), 2.0);
  EXPECT_GT(wide.child(0.0).remaining_s(), 3000.0);
  const CancelToken tight = CancelToken::after_seconds(1.0);
  EXPECT_LT(tight.child(3600.0).remaining_s(), 2.0);

  CancelToken cancelled;
  cancelled.cancel();
  EXPECT_TRUE(cancelled.expired());
  EXPECT_TRUE(cancelled.limited());
}

TEST_F(ResilienceTest, ExpiredBudgetRunsAreDeterministicAndLegal) {
  const Package package = make_package();
  FlowOptions options = light_flow();
  // Expires at the very first poll of every budgeted loop, so both runs
  // degrade at exactly the same point: the outputs must be bit-identical.
  options.budget.total_s = 1e-9;
  const FlowResult first = CodesignFlow(options).run(package);
  const FlowResult second = CodesignFlow(options).run(package);
  EXPECT_TRUE(first.degraded);
  EXPECT_FALSE(first.degrade_events.empty());
  EXPECT_EQ(first.anneal.stop, AnnealStop::BudgetExpired);
  expect_legal(package, first.final);
  ASSERT_EQ(first.final.quadrants.size(), second.final.quadrants.size());
  for (std::size_t qi = 0; qi < first.final.quadrants.size(); ++qi) {
    EXPECT_EQ(first.final.quadrants[qi].order,
              second.final.quadrants[qi].order)
        << "quadrant " << qi << " differs between identical budgeted runs";
  }

  // The degraded assignment still passes the design-rule analyzer.
  CheckContext context;
  context.package = &package;
  context.grid_spec = options.grid_spec;
  context.assignment = &first.final;
  EXPECT_TRUE(run_checks(context).passed());

  // The summary and report advertise the degradation.
  const std::string summary = CodesignFlow::summary(package, first);
  EXPECT_NE(summary.find("DEGRADED"), std::string::npos) << summary;
}

TEST_F(ResilienceTest, InterruptibleRunKeepsBestSoFarAndSaysWhy) {
  // An operator interrupt takes the same keep-best-so-far degrade path a
  // budget expiry does: legal output, an attributed event, no throw.
  sig::reset();
  const Package package = make_package();
  FlowOptions options = light_flow();
  options.interruptible = true;
  sig::request_cancel(SIGINT);
  const FlowResult result = CodesignFlow(options).run(package);
  sig::reset();
  EXPECT_TRUE(result.degraded);
  expect_legal(package, result.final);
  bool attributed = false;
  for (const DegradeEvent& event : result.degrade_events) {
    attributed = attributed || event.reason == DegradeReason::Interrupted;
  }
  EXPECT_TRUE(attributed) << "the run must say it was interrupted";
  EXPECT_EQ(std::string(to_string(DegradeReason::Interrupted)),
            "interrupted");
}

TEST_F(ResilienceTest, NonInterruptibleRunIgnoresTheProcessFlag) {
  // Library callers that did not opt in (options.interruptible=false,
  // the default) must be untouched by a stray flag.
  sig::reset();
  const Package package = make_package();
  const FlowOptions plain = light_flow();
  const FlowResult reference = CodesignFlow(plain).run(package);
  sig::request_cancel(SIGINT);
  const FlowResult flagged = CodesignFlow(plain).run(package);
  sig::reset();
  EXPECT_FALSE(flagged.degraded);
  ASSERT_EQ(reference.final.quadrants.size(), flagged.final.quadrants.size());
  for (std::size_t qi = 0; qi < reference.final.quadrants.size(); ++qi) {
    EXPECT_EQ(reference.final.quadrants[qi].order,
              flagged.final.quadrants[qi].order);
  }
}

TEST_F(ResilienceTest, UnsetBudgetMatchesUnbudgetedRun) {
  const Package package = make_package();
  const FlowOptions plain = light_flow();
  FlowOptions budgeted = light_flow();
  budgeted.budget.total_s = 0.0;  // explicit "unlimited"
  EXPECT_FALSE(budgeted.budget.enabled());
  const FlowResult a = CodesignFlow(plain).run(package);
  const FlowResult b = CodesignFlow(budgeted).run(package);
  EXPECT_FALSE(a.degraded);
  EXPECT_FALSE(b.degraded);
  for (std::size_t qi = 0; qi < a.final.quadrants.size(); ++qi) {
    EXPECT_EQ(a.final.quadrants[qi].order, b.final.quadrants[qi].order);
  }
  EXPECT_EQ(a.ir_final.max_drop_v, b.ir_final.max_drop_v);
}

TEST_F(ResilienceTest, ExpiredTokenStopsAnnealerImmediately) {
  CancelToken token = CancelToken::after_seconds(-1.0);
  SaSchedule schedule;
  schedule.cancel = &token;
  const Annealer annealer(schedule);
  const AnnealResult result = annealer.run(
      5.0, [](Rng&) { return std::optional<double>(); }, [] {}, [] {});
  EXPECT_EQ(result.stop, AnnealStop::BudgetExpired);
  EXPECT_EQ(result.proposed, 0);
  EXPECT_EQ(result.final_cost, 5.0);
}

TEST_F(ResilienceTest, ExpiredTokenReturnsFixedRouterConfig) {
  const Package package = make_package();
  const FlowOptions options = light_flow();
  FlowOptions no_exchange = options;
  no_exchange.run_exchange = false;
  const FlowResult result = CodesignFlow(no_exchange).run(package);
  CancelToken token = CancelToken::after_seconds(-1.0);
  GlobalRouter::Options router_options;
  router_options.cancel = &token;
  const GlobalRouter router(router_options);
  const GlobalRouteConfig config =
      router.improve(package.quadrant(0), result.final.quadrants.front());
  const GlobalRouteConfig fixed = GlobalRouter::fixed_config(
      package.quadrant(0), result.final.quadrants.front());
  ASSERT_EQ(config.via_of_finger.size(), fixed.via_of_finger.size());
  for (std::size_t i = 0; i < config.via_of_finger.size(); ++i) {
    EXPECT_EQ(config.via_of_finger[i].row, fixed.via_of_finger[i].row);
    EXPECT_EQ(config.via_of_finger[i].shift, fixed.via_of_finger[i].shift);
  }
}

// --- error taxonomy -----------------------------------------------------

TEST(ErrorTaxonomyTest, CodesAndContextChain) {
  EXPECT_EQ(to_string(ErrorCode::Internal), "FP-INTERNAL");
  EXPECT_EQ(to_string(ErrorCode::InvalidInput), "FP-INVALID");
  EXPECT_EQ(to_string(ErrorCode::Io), "FP-IO");
  EXPECT_EQ(to_string(ErrorCode::Check), "FP-CHECK");
  EXPECT_EQ(to_string(ErrorCode::Solver), "FP-SOLVER");
  EXPECT_EQ(to_string(ErrorCode::FaultInjected), "FP-FAULT");

  IoError error("bad frame");
  error.add_context("io.circuit.read").add_context("flow.load");
  EXPECT_EQ(error.code(), ErrorCode::Io);
  EXPECT_EQ(error.describe(),
            "[FP-IO] bad frame (at io.circuit.read < flow.load)");
  EXPECT_EQ(IoError("x").describe(), "[FP-IO] x");
  EXPECT_EQ(InvalidArgument("x").code(), ErrorCode::InvalidInput);
  EXPECT_EQ(InternalError("x").code(), ErrorCode::Internal);
  EXPECT_EQ(SolverError("x").code(), ErrorCode::Solver);
}

TEST(ErrorTaxonomyTest, AbsurdGridAllocationIsRefused) {
  PowerGridSpec spec;
  spec.nodes_per_side = 20000;
  EXPECT_THROW(PowerGrid{spec}, InvalidArgument);
}

}  // namespace
}  // namespace fp
