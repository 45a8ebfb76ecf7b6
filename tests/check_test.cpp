// Tests of the pipeline-wide static analyzer: registry hygiene, one
// seeded-violation fixture per shipped rule id proving the rule fires,
// and a randomized generator -> flow -> check round trip.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "analysis/check.h"
#include "assign/dfa.h"
#include "obs/json.h"
#include "assign/random_assigner.h"
#include "codesign/flow.h"
#include "package/circuit_generator.h"
#include "route/router.h"
#include "route/via_plan.h"

namespace fp {
namespace {

Package build(PackageGeometry geometry,
              std::vector<std::vector<std::vector<NetId>>> quadrant_rows,
              std::vector<NetType> types = {},
              std::vector<int> tiers = {},
              std::vector<std::string> names = {}) {
  std::size_t count = 0;
  for (const auto& rows : quadrant_rows) {
    for (const auto& row : rows) count += row.size();
  }
  Netlist netlist;
  for (std::size_t i = 0; i < count; ++i) {
    const NetType type = i < types.size() ? types[i] : NetType::Signal;
    const int tier = i < tiers.size() ? tiers[i] : 0;
    std::string name =
        i < names.size() ? names[i] : "n" + std::to_string(i);
    netlist.add(std::move(name), type, tier);
  }
  std::vector<Quadrant> quadrants;
  int qi = 0;
  for (auto& rows : quadrant_rows) {
    quadrants.emplace_back(std::string("q").append(std::to_string(qi++)),
                           geometry, std::move(rows));
  }
  return Package("check", std::move(netlist), geometry,
                 std::move(quadrants));
}

CheckContext context_of(const Package& package) {
  CheckContext context;
  context.package = &package;
  return context;
}

/// The fixture's one assertion: rule `id` fires on this context.
void expect_fires(const CheckContext& context, CheckStage stage,
                  std::string_view id) {
  const CheckReport report = run_checks(context, stage);
  EXPECT_TRUE(report.has(id))
      << "expected " << id << " to fire; report:\n" << report.to_string();
}

// ------------------------------------------------------------ registry ----

TEST(CheckRegistry, IdsAreUniqueAndWellFormed) {
  std::set<std::string_view> ids;
  for (const CheckRule& rule : check_rules()) {
    EXPECT_TRUE(ids.insert(rule.id()).second)
        << "duplicate rule id " << rule.id();
    EXPECT_NE(rule.id().find('-'), std::string_view::npos);
    EXPECT_FALSE(rule.summary().empty());
  }
  EXPECT_GE(ids.size(), 20u);
}

TEST(CheckRegistry, FindRuleRoundTrips) {
  for (const CheckRule& rule : check_rules()) {
    const CheckRule* found = find_rule(rule.id());
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->id(), rule.id());
  }
  EXPECT_EQ(find_rule("NOPE-999"), nullptr);
}

TEST(CheckReportTest, JsonAndTextCarryTheFindings) {
  PackageGeometry g;
  g.bump_space_um = 0.05;  // below the 0.1 via diameter
  const Package package = build(g, {{{0, 1}, {2}}});
  const CheckReport report =
      run_checks(context_of(package), CheckStage::Package);
  EXPECT_GT(report.error_count(), 0u);
  EXPECT_FALSE(report.passed());
  EXPECT_NE(report.to_string().find("GEOM-002"), std::string::npos);
  EXPECT_NE(report.to_json().find("\"rule\":\"GEOM-002\""),
            std::string::npos);
  EXPECT_NE(report.to_json().find("\"severity\":\"error\""),
            std::string::npos);
  EXPECT_NE(report.to_json().find("\"schema\":\"fpkit.check.v1\""),
            std::string::npos);
  // The canonical-writer round trip: parse + dump is byte-identical.
  const std::string dumped = report.to_json();
  EXPECT_EQ(obs::json_parse(dumped).dump() + "\n", dumped);
}

TEST(CheckReportTest, MissingInputsAreRejected) {
  CheckContext context;
  EXPECT_THROW((void)run_checks(context), InvalidArgument);
  const Package package = build(PackageGeometry{}, {{{0, 1}, {2}}});
  context.package = &package;
  EXPECT_THROW((void)run_checks(context, CheckStage::Assignment),
               InvalidArgument);
}

// ------------------------------------------------- geometry fixtures ----

TEST(CheckGeom, Geom001NonPositiveDimension) {
  PackageGeometry g;
  g.finger_width_um = 0.0;
  expect_fires(context_of(build(g, {{{0, 1}, {2}}})), CheckStage::Package,
               "GEOM-001");
}

TEST(CheckGeom, Geom002OversizedVia) {
  PackageGeometry g;
  g.bump_space_um = 0.05;  // below the 0.1 via
  expect_fires(context_of(build(g, {{{0, 1}, {2}}})), CheckStage::Package,
               "GEOM-002");
}

TEST(CheckGeom, Geom003TouchingBalls) {
  PackageGeometry g;
  g.bump_space_um = 0.15;  // below the 0.2 ball
  expect_fires(context_of(build(g, {{{0, 1}, {2}}})), CheckStage::Package,
               "GEOM-003");
}

TEST(CheckGeom, Geom004WideFingerPitch) {
  PackageGeometry g;
  g.bump_space_um = 0.21;  // finger pitch is 0.1 + 0.12 = 0.22
  expect_fires(context_of(build(g, {{{0, 1}, {2}}})), CheckStage::Package,
               "GEOM-004");
}

TEST(CheckGeom, Geom005GrowingRows) {
  expect_fires(context_of(build(PackageGeometry{}, {{{0, 1}, {2, 3, 4}}})),
               CheckStage::Package, "GEOM-005");
}

TEST(CheckGeom, Geom006MixedParity) {
  expect_fires(context_of(build(PackageGeometry{}, {{{0, 1, 2}, {3, 4}}})),
               CheckStage::Package, "GEOM-006");
}

TEST(CheckGeom, Geom007ZeroCapacityGap) {
  PackageGeometry g;
  g.bump_space_um = 0.15;  // span 0.05 below the 0.1 wire pitch
  expect_fires(context_of(build(g, {{{0, 1}, {2}}})), CheckStage::Package,
               "GEOM-007");
}

// -------------------------------------------------- netlist fixtures ----

TEST(CheckNet, Net001DuplicateName) {
  expect_fires(context_of(build(PackageGeometry{}, {{{0, 1}, {2}}}, {}, {},
                                {"dup", "dup", "other"})),
               CheckStage::Package, "NET-001");
}

TEST(CheckNet, Net002NoSupply) {
  expect_fires(context_of(build(PackageGeometry{}, {{{0, 1}, {2}}})),
               CheckStage::Package, "NET-002");
}

TEST(CheckNet, Net003ImplausibleSupplyFraction) {
  // 1 supply net out of 33 is ~3%, below the 5% floor.
  std::vector<std::vector<NetId>> rows(1);
  for (NetId n = 0; n < 33; ++n) rows[0].push_back(n);
  expect_fires(context_of(build(PackageGeometry{}, {rows},
                                {NetType::Power})),
               CheckStage::Package, "NET-003");
}

TEST(CheckNet, Net004SupplyFreeQuadrant) {
  expect_fires(context_of(build(PackageGeometry{}, {{{0, 1}}, {{2, 3}}},
                                {NetType::Power})),
               CheckStage::Package, "NET-004");
}

TEST(CheckNet, Net005EmptyTier) {
  expect_fires(context_of(build(PackageGeometry{}, {{{0, 1}, {2}}}, {},
                                {0, 0, 2})),
               CheckStage::Package, "NET-005");
}

// ----------------------------------------------- assignment fixtures ----

TEST(CheckAssign, Assign001ShapeMismatch) {
  const Package package = build(PackageGeometry{}, {{{0, 1}, {2}}});
  PackageAssignment assignment;  // zero quadrants
  CheckContext context = context_of(package);
  context.assignment = &assignment;
  expect_fires(context, CheckStage::Assignment, "ASSIGN-001");
}

TEST(CheckAssign, Assign002DuplicateFinger) {
  const Package package = build(PackageGeometry{}, {{{0, 1}, {2}}});
  PackageAssignment assignment;
  assignment.quadrants.push_back(QuadrantAssignment{{0, 0, 2}});
  CheckContext context = context_of(package);
  context.assignment = &assignment;
  expect_fires(context, CheckStage::Assignment, "ASSIGN-002");
}

TEST(CheckAssign, Assign003MonotoneViolation) {
  const Package package = build(PackageGeometry{}, {{{0, 1}, {2}}});
  // Row-0 nets 0, 1 in finger order 1, 0: their vias would cross.
  PackageAssignment assignment;
  assignment.quadrants.push_back(QuadrantAssignment{{1, 0, 2}});
  CheckContext context = context_of(package);
  context.assignment = &assignment;
  expect_fires(context, CheckStage::Assignment, "ASSIGN-003");
}

// ----------------------------------------------------- route fixtures ----

/// A legal single-quadrant package + DFA assignment to hang route
/// fixtures off.
struct RoutedFixture {
  Package package;
  PackageAssignment assignment;
  PackageRoute route;

  RoutedFixture()
      : package(build(PackageGeometry{}, {{{0, 1, 2, 3}, {4, 5}}})),
        assignment{{DfaAssigner().assign(package.quadrant(0))}},
        route(MonotonicRouter().route(package, assignment)) {}

  [[nodiscard]] CheckContext context() {
    CheckContext c = context_of(package);
    c.assignment = &assignment;
    c.route = &route;
    return c;
  }
};

TEST(CheckRoute, Route001GapOverflow) {
  RoutedFixture fixture;
  CheckContext context = fixture.context();
  // One wire per gap at most: any crossing overflows.
  context.drc.wire_width_um = 1.0;
  context.drc.wire_space_um = 1.0;
  expect_fires(context, CheckStage::Route, "ROUTE-001");
}

TEST(CheckRoute, Route002TightFingerSpace) {
  PackageGeometry g;
  g.finger_space_um = 0.02;  // below the 0.05 default wire space
  const Package package = build(g, {{{0, 1}, {2}}});
  PackageAssignment assignment;
  assignment.quadrants.push_back(QuadrantAssignment{{0, 1, 2}});
  CheckContext context = context_of(package);
  context.assignment = &assignment;
  expect_fires(context, CheckStage::Route, "ROUTE-002");
}

TEST(CheckRoute, Route003SegmentOverlap) {
  RoutedFixture fixture;
  // Corrupt the route: net 1 rides net 0's polyline.
  fixture.route.quadrants[0].nets[1].path =
      fixture.route.quadrants[0].nets[0].path;
  expect_fires(fixture.context(), CheckStage::Route, "ROUTE-003");
}

TEST(CheckRoute, Route004StaleDensityRecord) {
  RoutedFixture fixture;
  fixture.route.quadrants[0].max_density += 3;
  expect_fires(fixture.context(), CheckStage::Route, "ROUTE-004");
}

TEST(CheckRoute, Route004CleanOnFreshRoute) {
  RoutedFixture fixture;
  const CheckReport report =
      run_checks(fixture.context(), CheckStage::Route);
  EXPECT_FALSE(report.has("ROUTE-004")) << report.to_string();
  EXPECT_FALSE(report.has("ROUTE-003")) << report.to_string();
}

TEST(CheckRoute, Route005IllegalViaPlan) {
  RoutedFixture fixture;
  PackageViaPlan plan = PackageViaPlan::bottom_left(fixture.package);
  plan.quadrants[0].rows[0].slot_of_bump[0] = 99;
  CheckContext context = fixture.context();
  context.via_plan = &plan;
  expect_fires(context, CheckStage::Route, "ROUTE-005");
}

TEST(CheckRoute, Route006CutLineCongestion) {
  // Two quadrants, each with crossings; a zero-capacity rule set makes
  // any shared boundary load a finding.
  const Package package = build(
      PackageGeometry{}, {{{0, 1, 2, 3}, {4, 5}}, {{6, 7, 8, 9}, {10, 11}}});
  PackageAssignment assignment;
  assignment.quadrants.push_back(DfaAssigner().assign(package.quadrant(0)));
  assignment.quadrants.push_back(DfaAssigner().assign(package.quadrant(1)));
  CheckContext context = context_of(package);
  context.assignment = &assignment;
  context.drc.wire_width_um = 1.0;
  context.drc.wire_space_um = 1.0;
  expect_fires(context, CheckStage::Route, "ROUTE-006");
}

// ----------------------------------------------------- power fixtures ----

TEST(CheckPower, Power001NoPads) {
  const Package package = build(PackageGeometry{}, {{{0, 1}, {2}}});
  PackageAssignment assignment;
  assignment.quadrants.push_back(QuadrantAssignment{{0, 1, 2}});
  CheckContext context = context_of(package);
  context.assignment = &assignment;
  expect_fires(context, CheckStage::Power, "POWER-001");
}

TEST(CheckPower, Power002NegativeSheetResistance) {
  const Package package = build(PackageGeometry{}, {{{0, 1}, {2}}});
  PackageAssignment assignment;
  assignment.quadrants.push_back(QuadrantAssignment{{0, 1, 2}});
  CheckContext context = context_of(package);
  context.assignment = &assignment;
  context.grid_spec.sheet_res_x = -0.05;
  expect_fires(context, CheckStage::Power, "POWER-002");
}

TEST(CheckPower, Power003BadSolverOptions) {
  const Package package = build(PackageGeometry{}, {{{0, 1}, {2}}});
  PackageAssignment assignment;
  assignment.quadrants.push_back(QuadrantAssignment{{0, 1, 2}});
  CheckContext context = context_of(package);
  context.assignment = &assignment;
  context.solver.tolerance = 0.0;
  expect_fires(context, CheckStage::Power, "POWER-003");
}

TEST(CheckPower, Power004PadCollapseOnCoarseMesh) {
  // 12 supply nets on a 2x2 mesh: at most 4 distinct boundary nodes.
  std::vector<std::vector<NetId>> rows = {{0, 1, 2, 3, 4, 5, 6},
                                          {7, 8, 9, 10, 11}};
  const Package package =
      build(PackageGeometry{}, {rows},
            std::vector<NetType>(12, NetType::Power));
  PackageAssignment assignment;
  assignment.quadrants.push_back(DfaAssigner().assign(package.quadrant(0)));
  CheckContext context = context_of(package);
  context.assignment = &assignment;
  context.grid_spec.nodes_per_side = 2;
  expect_fires(context, CheckStage::Power, "POWER-004");
}

// -------------------------------------------------- stacking fixtures ----

TEST(CheckStack, Stack001UnbalancedTiers) {
  expect_fires(context_of(build(PackageGeometry{}, {{{0, 1, 2, 3}, {4, 5}}},
                                {}, {0, 0, 0, 0, 0, 1})),
               CheckStage::Stacking, "STACK-001");
}

TEST(CheckStack, Stack002NegativeStackingSpec) {
  const Package package = build(PackageGeometry{}, {{{0, 1}, {2}}});
  CheckContext context = context_of(package);
  context.stacking.tier_inset_um = -1.0;
  expect_fires(context, CheckStage::Stacking, "STACK-002");
}

TEST(CheckStack, Stack003MoreTiersThanFingers) {
  // Tiers 0 and 5 populated: tier_count 6 exceeds the 3 fingers.
  expect_fires(context_of(build(PackageGeometry{}, {{{0, 1}, {2}}}, {},
                                {0, 5, 0})),
               CheckStage::Stacking, "STACK-003");
}

// ------------------------------------------------------- round trips ----

TEST(CheckRoundTrip, GeneratedCircuitsPassAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    CircuitSpec spec = CircuitGenerator::table1(static_cast<int>(seed % 5));
    spec.seed = seed;
    spec.tier_count = seed % 3 == 0 ? 2 : 1;
    const Package package = CircuitGenerator::generate(spec);

    FlowOptions options;
    options.grid_spec.nodes_per_side = 12;
    options.self_check = true;  // exercise the stage gates too
    options.exchange.schedule.moves_per_temperature = 8;
    options.exchange.schedule.initial_temperature = 1.0;
    options.exchange.schedule.final_temperature = 0.05;
    const FlowResult result = CodesignFlow(options).run(package);

    const PackageRoute route =
        MonotonicRouter().route(package, result.final);
    const PackageViaPlan plan = plan_vias(package, result.final);
    CheckContext context = context_of(package);
    context.assignment = &result.final;
    context.route = &route;
    context.via_plan = &plan;
    context.grid_spec = options.grid_spec;
    const CheckReport report = run_checks(context);
    EXPECT_TRUE(report.passed())
        << "seed " << seed << ":\n" << report.to_string();
    EXPECT_GE(report.rules_run, 20);
  }
}

TEST(CheckRoundTrip, RandomBaselinePassesAssignmentStage) {
  // Even the random baseline is monotone-legal by construction; the
  // ASSIGN rules must agree.
  const Package package =
      CircuitGenerator::generate(CircuitGenerator::table1(1));
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const PackageAssignment assignment =
        RandomAssigner(seed).assign(package);
    CheckContext context = context_of(package);
    context.assignment = &assignment;
    EXPECT_TRUE(run_checks(context, CheckStage::Assignment).passed());
  }
}

}  // namespace
}  // namespace fp
