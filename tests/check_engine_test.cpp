// Tests of the fpkit check v2 layer: the incremental CheckEngine's
// equivalence with a cold full scan across randomized swap sequences,
// the severity/waiver config layer, baseline diffing, the SARIF 2.1.0
// emitter, and the DET-* determinism rule fixtures.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "analysis/check.h"
#include "analysis/config.h"
#include "analysis/engine.h"
#include "analysis/sarif.h"
#include "assign/dfa.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "package/circuit_generator.h"

namespace fp {
namespace {

Package test_package(int table1_index = 0, std::uint64_t seed = 7) {
  CircuitSpec spec = CircuitGenerator::table1(table1_index);
  spec.seed = seed;
  return CircuitGenerator::generate(spec);
}

CheckContext context_of(const Package& package) {
  CheckContext context;
  context.package = &package;
  return context;
}

std::string findings_text(const CheckReport& report) {
  return report.to_json();
}

// --------------------------------------------------- input contracts ----

TEST(CheckInputs, EveryRuleDeclaresInputs) {
  for (const CheckRule& rule : check_rules()) {
    EXPECT_NE(rule.inputs(), 0u)
        << rule.id() << " declares no inputs; the incremental engine "
        << "would never re-run it";
    EXPECT_EQ(rule.inputs() & ~check_inputs::kAll, 0u)
        << rule.id() << " uses an undeclared input bit";
  }
}

TEST(CheckInputs, AssignmentStagesDependOnSwapDirtySet) {
  // Every rule of an assignment-derived stage must re-run after a swap,
  // and at least one package-stage rule must not -- otherwise the
  // incremental engine degenerates to a full scan.
  for (const CheckRule& rule : check_rules()) {
    if (rule.stage() == CheckStage::Assignment ||
        rule.stage() == CheckStage::Power) {
      EXPECT_NE(rule.inputs() & check_inputs::kSwapDirty, 0u)
          << rule.id() << " would be stale after a swap";
    }
  }
  EXPECT_EQ(find_rule("GEOM-001")->inputs() & check_inputs::kSwapDirty,
            0u);
  EXPECT_EQ(find_rule("NET-001")->inputs() & check_inputs::kSwapDirty, 0u);
}

TEST(CheckInputs, DeterminismRulesExistAndAuditRunConfig) {
  int det_rules = 0;
  for (const CheckRule& rule : check_rules()) {
    if (rule.stage() != CheckStage::Determinism) continue;
    ++det_rules;
    EXPECT_EQ(rule.inputs(), check_inputs::kRunConfig) << rule.id();
    EXPECT_EQ(std::string(rule.id()).substr(0, 4), "DET-");
  }
  EXPECT_GE(det_rules, 6);
}

// ---------------------------------------- incremental-vs-full runs ----

TEST(CheckEngineTest, ColdRunMatchesAggregateRunChecks) {
  const Package package = test_package();
  const PackageAssignment assignment = DfaAssigner().assign(package);
  CheckContext context = context_of(package);
  context.assignment = &assignment;

  CheckEngine engine;
  const CheckReport warm = engine.run(context);
  const CheckReport cold = run_checks(context);
  EXPECT_EQ(findings_text(warm), findings_text(cold));
  EXPECT_EQ(warm.rules_run, cold.rules_run);
}

TEST(CheckEngineTest, SecondRunWithoutChangesIsAllCacheHits) {
  const Package package = test_package();
  const PackageAssignment assignment = DfaAssigner().assign(package);
  CheckContext context = context_of(package);
  context.assignment = &assignment;

  CheckEngine engine;
  const CheckReport first = engine.run(context);
  const CheckReport second = engine.run(context);
  EXPECT_EQ(findings_text(first), findings_text(second));
  EXPECT_EQ(engine.stats().last_executed, 0);
  EXPECT_EQ(engine.stats().last_cache_hits,
            static_cast<long long>(first.rules_run));
}

TEST(CheckEngineTest, SwapRerunsOnlyAssignmentDerivedRules) {
  const Package package = test_package();
  PackageAssignment assignment = DfaAssigner().assign(package);
  CheckContext context = context_of(package);
  context.assignment = &assignment;

  CheckEngine engine;
  (void)engine.run(context);

  std::swap(assignment.quadrants[0].order[0],
            assignment.quadrants[0].order[1]);
  engine.note_swap();
  const CheckReport after = engine.run(context);

  // Exactly the rules whose inputs intersect the swap dirty set (among
  // the stages this context exercises) re-ran; the rest were cache hits.
  long long expect_executed = 0;
  for (const CheckRule& rule : check_rules()) {
    if (!check_stage_applies(context, rule.stage())) continue;
    if ((rule.inputs() & check_inputs::kSwapDirty) != 0) ++expect_executed;
  }
  EXPECT_EQ(engine.stats().last_executed, expect_executed);
  EXPECT_EQ(engine.stats().last_cache_hits,
            static_cast<long long>(after.rules_run) - expect_executed);
  EXPECT_GT(engine.stats().last_cache_hits, 0);
}

TEST(CheckEngineTest, RandomizedSwapSequencesMatchFullScan) {
  // The acceptance bar: across 10 seeded random swap sequences the
  // incremental engine's merged report is byte-identical to a cold full
  // scan after every single swap.
  const Package package = test_package(1);
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    PackageAssignment assignment = DfaAssigner().assign(package);
    CheckContext context = context_of(package);
    context.assignment = &assignment;

    CheckEngine engine;
    (void)engine.run(context);

    std::mt19937_64 rng(seed);
    for (int step = 0; step < 8; ++step) {
      auto& order =
          assignment
              .quadrants[rng() % assignment.quadrants.size()]
              .order;
      const std::size_t a = rng() % order.size();
      const std::size_t b = rng() % order.size();
      std::swap(order[a], order[b]);

      engine.note_swap();
      const CheckReport incremental = engine.run(context);
      EXPECT_GT(engine.stats().last_cache_hits, 0)
          << "seed " << seed << " step " << step;

      const CheckReport full = run_checks(context);
      ASSERT_EQ(findings_text(incremental), findings_text(full))
          << "seed " << seed << " step " << step;
      ASSERT_EQ(incremental.rules_run, full.rules_run);
    }
  }
}

TEST(CheckEngineTest, CacheHitsSurfaceInMetricsRegistry) {
  obs::MetricsRegistry::global().clear();
  obs::set_metrics_enabled(true);
  const Package package = test_package();
  const PackageAssignment assignment = DfaAssigner().assign(package);
  CheckContext context = context_of(package);
  context.assignment = &assignment;

  CheckEngine engine;
  (void)engine.run(context);
  engine.note_swap();
  (void)engine.run(context);
  obs::set_metrics_enabled(false);

  const auto hits =
      obs::MetricsRegistry::global().counter_value("check.cache_hits");
  ASSERT_TRUE(hits.has_value());
  EXPECT_GT(*hits, 0);
  const auto swaps =
      obs::MetricsRegistry::global().counter_value("check.swaps_noted");
  ASSERT_TRUE(swaps.has_value());
  EXPECT_EQ(*swaps, 1);
  EXPECT_TRUE(obs::MetricsRegistry::global()
                  .counter_value("check.rules_run")
                  .has_value());
  obs::MetricsRegistry::global().clear();
}

TEST(CheckEngineTest, StageMaskLimitsCoverage) {
  const Package package = test_package();
  const PackageAssignment assignment = DfaAssigner().assign(package);
  CheckContext context = context_of(package);
  context.assignment = &assignment;

  CheckEngineOptions options;
  options.stage_mask = check_stage_bit(CheckStage::Package) |
                       check_stage_bit(CheckStage::Stacking) |
                       check_stage_bit(CheckStage::Assignment);
  CheckEngine engine(options);
  const CheckReport report = engine.run(context);
  long long expected = 0;
  for (const CheckRule& rule : check_rules()) {
    if (rule.stage() == CheckStage::Package ||
        rule.stage() == CheckStage::Stacking ||
        rule.stage() == CheckStage::Assignment) {
      ++expected;
    }
  }
  EXPECT_EQ(report.rules_run, expected);
}

TEST(CheckEngineTest, RunOrThrowCarriesGateLabel) {
  PackageGeometry bad;
  bad.finger_width_um = 0.0;
  Netlist netlist;
  netlist.add("a", NetType::Signal, 0);
  netlist.add("b", NetType::Signal, 0);
  std::vector<Quadrant> quadrants;
  quadrants.emplace_back(
      "q0", bad, std::vector<std::vector<NetId>>{{0, 1}});
  const Package package("bad", std::move(netlist), bad,
                        std::move(quadrants));
  CheckContext context = context_of(package);
  CheckEngine engine;
  try {
    engine.run_or_throw(context, "unit gate");
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& failure) {
    EXPECT_NE(std::string(failure.what()).find("unit gate"),
              std::string::npos);
    EXPECT_NE(std::string(failure.what()).find("GEOM-001"),
              std::string::npos);
    EXPECT_FALSE(failure.report().passed());
  }
}

// ------------------------------------------------- config + waivers ----

CheckConfig config_from_text(const std::string& text) {
  return check_config_from_json(obs::json_parse(text));
}

TEST(CheckConfigTest, ParsesOverridesDisablesAndWaivers) {
  const CheckConfig config = config_from_text(R"({
    "schema": "fpkit.check-config.v1",
    "severity": {"GEOM-004": "error", "NET-003": "off"},
    "waivers": [{"rule": "ROUTE-002", "match": "finger space",
                 "justification": "tracked as PKG-9",
                 "expires": "2099-12-31"}]
  })");
  EXPECT_EQ(config.severity.at("GEOM-004"), CheckSeverity::Error);
  EXPECT_TRUE(config.rule_disabled("NET-003"));
  ASSERT_EQ(config.waivers.size(), 1u);
  EXPECT_EQ(config.waivers[0].rule, "ROUTE-002");
  EXPECT_EQ(config.waivers[0].expires, "2099-12-31");
}

TEST(CheckConfigTest, RejectsMalformedConfigs) {
  EXPECT_THROW(config_from_text(R"({"bogus": 1})"), InvalidArgument);
  EXPECT_THROW(config_from_text(R"({"severity": {"NOPE-1": "error"}})"),
               InvalidArgument);
  EXPECT_THROW(config_from_text(R"({"severity": {"GEOM-001": "loud"}})"),
               InvalidArgument);
  EXPECT_THROW(
      config_from_text(
          R"({"waivers": [{"rule": "GEOM-001", "justification": ""}]})"),
      InvalidArgument);
  EXPECT_THROW(config_from_text(R"({"waivers": [{"rule": "GEOM-001",
      "justification": "x", "expires": "soon"}]})"),
               InvalidArgument);
}

CheckReport report_with(std::vector<CheckFinding> findings) {
  CheckReport report;
  report.findings = std::move(findings);
  report.rules_run = static_cast<int>(report.findings.size());
  return report;
}

CheckFinding finding(std::string rule, CheckSeverity severity,
                     std::string message) {
  CheckFinding out;
  out.rule = std::move(rule);
  out.severity = severity;
  out.message = std::move(message);
  return out;
}

TEST(CheckPolicyTest, SeverityOverrideRegrades) {
  CheckReport report = report_with(
      {finding("GEOM-004", CheckSeverity::Warning, "pitch overshoot")});
  CheckConfig config;
  config.severity["GEOM-004"] = CheckSeverity::Error;
  const CheckPolicyStats stats = apply_check_policy(report, config);
  EXPECT_EQ(stats.overridden, 1);
  EXPECT_EQ(report.error_count(), 1u);
  EXPECT_FALSE(report.passed());
}

TEST(CheckPolicyTest, WaiverSuppressesWithJustification) {
  CheckReport report = report_with(
      {finding("GEOM-002", CheckSeverity::Error, "via gap too small"),
       finding("GEOM-002", CheckSeverity::Error, "unrelated message")});
  CheckConfig config;
  config.today = "2026-01-01";
  config.waivers.push_back(
      CheckWaiver{"GEOM-002", "gap too small", "known corner", ""});
  const CheckPolicyStats stats = apply_check_policy(report, config);
  EXPECT_EQ(stats.waived, 1);
  EXPECT_EQ(report.error_count(), 1u);  // the unmatched finding stands
  EXPECT_EQ(report.waived_count(), 1u);
  EXPECT_TRUE(report.findings[0].waived);
  EXPECT_EQ(report.findings[0].justification, "known corner");
  EXPECT_NE(report.to_string(true).find("known corner"),
            std::string::npos);
}

TEST(CheckPolicyTest, ExpiredWaiverNoLongerSuppresses) {
  CheckReport report = report_with(
      {finding("GEOM-002", CheckSeverity::Error, "via gap too small")});
  CheckConfig config;
  config.today = "2026-06-01";
  config.waivers.push_back(
      CheckWaiver{"GEOM-002", "", "was fine once", "2026-05-31"});
  const CheckPolicyStats stats = apply_check_policy(report, config);
  EXPECT_EQ(stats.waived, 0);
  EXPECT_EQ(stats.expired, 1);
  EXPECT_EQ(report.error_count(), 1u);
  ASSERT_FALSE(report.policy_notes.empty());
  EXPECT_NE(report.policy_notes[0].find("expired"), std::string::npos);
}

TEST(CheckPolicyTest, UnmatchedWaiverIsReported) {
  CheckReport report = report_with({});
  CheckConfig config;
  config.today = "2026-01-01";
  config.waivers.push_back(
      CheckWaiver{"GEOM-002", "never matches", "stale", ""});
  const CheckPolicyStats stats = apply_check_policy(report, config);
  EXPECT_EQ(stats.unmatched, 1);
  ASSERT_FALSE(report.policy_notes.empty());
  EXPECT_NE(report.policy_notes[0].find("matched no finding"),
            std::string::npos);
}

TEST(CheckPolicyTest, DisabledRulesAreSkippedByTheEngine) {
  PackageGeometry g;
  g.bump_space_um = 0.05;  // fires GEOM-002 by default
  Netlist netlist;
  netlist.add("a", NetType::Signal, 0);
  netlist.add("b", NetType::Signal, 0);
  netlist.add("c", NetType::Signal, 0);
  std::vector<Quadrant> quadrants;
  quadrants.emplace_back(
      "q0", g, std::vector<std::vector<NetId>>{{0, 1}, {2}});
  const Package package("cfg", std::move(netlist), g,
                        std::move(quadrants));
  CheckContext context = context_of(package);

  CheckEngineOptions options;
  options.config.disabled.insert("GEOM-002");
  CheckEngine engine(options);
  const CheckReport report = engine.run(context);
  EXPECT_FALSE(report.has("GEOM-002"));

  CheckEngine vanilla;
  EXPECT_TRUE(vanilla.run(context).has("GEOM-002"));
}

// ------------------------------------------------------ baseline diff ----

TEST(CheckBaselineTest, IdenticalReportsAreClean) {
  const CheckReport a = report_with(
      {finding("GEOM-002", CheckSeverity::Error, "via gap too small")});
  const CheckBaselineDiff diff = diff_check_baseline(a, a);
  EXPECT_TRUE(diff.clean());
  EXPECT_TRUE(diff.fixed_findings.empty());
}

TEST(CheckBaselineTest, NewAndFixedFindingsAreSplit) {
  const CheckReport baseline = report_with(
      {finding("GEOM-002", CheckSeverity::Error, "old problem")});
  const CheckReport current = report_with(
      {finding("ROUTE-001", CheckSeverity::Error, "new overflow")});
  const CheckBaselineDiff diff = diff_check_baseline(current, baseline);
  ASSERT_EQ(diff.new_findings.size(), 1u);
  EXPECT_EQ(diff.new_findings[0].rule, "ROUTE-001");
  ASSERT_EQ(diff.fixed_findings.size(), 1u);
  EXPECT_EQ(diff.fixed_findings[0].rule, "GEOM-002");
  EXPECT_NE(diff.to_string().find("new   ROUTE-001"), std::string::npos);
}

TEST(CheckBaselineTest, MultisetSemanticsCountDuplicates) {
  const CheckReport baseline = report_with(
      {finding("GEOM-002", CheckSeverity::Error, "same message")});
  const CheckReport current = report_with(
      {finding("GEOM-002", CheckSeverity::Error, "same message"),
       finding("GEOM-002", CheckSeverity::Error, "same message")});
  const CheckBaselineDiff diff = diff_check_baseline(current, baseline);
  EXPECT_EQ(diff.new_findings.size(), 1u);
}

TEST(CheckBaselineTest, WaivedCurrentFindingsAreNeverNew) {
  CheckFinding waived =
      finding("GEOM-002", CheckSeverity::Error, "waived away");
  waived.waived = true;
  const CheckBaselineDiff diff =
      diff_check_baseline(report_with({waived}), report_with({}));
  EXPECT_TRUE(diff.clean());
}

// -------------------------------------------------------------- SARIF ----

TEST(CheckSarifTest, EmitsValidStructure) {
  CheckReport report = report_with(
      {finding("GEOM-002", CheckSeverity::Error, "via gap too small")});
  report.findings.push_back(
      finding("ROUTE-002", CheckSeverity::Warning, "tight pitch"));
  report.findings.back().waived = true;
  report.findings.back().justification = "accepted legacy pitch";

  const obs::Json doc = check_report_to_sarif(report, "chip.fp");
  EXPECT_EQ(doc.at("version").as_string(), "2.1.0");
  const obs::Json& run = doc.at("runs").items().front();
  const obs::Json& driver = run.at("tool").at("driver");
  EXPECT_EQ(driver.at("name").as_string(), "fpkit-check");
  EXPECT_EQ(driver.at("rules").items().size(), check_rules().size());

  const auto& results = run.at("results").items();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].at("ruleId").as_string(), "GEOM-002");
  EXPECT_EQ(results[0].at("level").as_string(), "error");
  EXPECT_EQ(results[0]
                .at("locations")
                .items()
                .front()
                .at("physicalLocation")
                .at("artifactLocation")
                .at("uri")
                .as_string(),
            "chip.fp");
  // ruleIndex must point back at the registry entry of the rule.
  const auto index =
      static_cast<std::size_t>(results[0].at("ruleIndex").as_number());
  EXPECT_EQ(driver.at("rules").items()[index].at("id").as_string(),
            "GEOM-002");
  // The waived finding is a suppressed result, not a dropped one.
  ASSERT_TRUE(results[1].has("suppressions"));
  const obs::Json& suppression =
      results[1].at("suppressions").items().front();
  EXPECT_EQ(suppression.at("kind").as_string(), "external");
  EXPECT_EQ(suppression.at("justification").as_string(),
            "accepted legacy pitch");
}

TEST(CheckSarifTest, RoundTripsByteIdenticallyThroughCanonicalJson) {
  CheckReport report = report_with(
      {finding("GEOM-002", CheckSeverity::Error, "via gap \"quoted\"")});
  const std::string dumped =
      check_report_to_sarif(report, "chip.fp").dump();
  EXPECT_EQ(obs::json_parse(dumped).dump(), dumped);
}

// ---------------------------------------------------------- DET rules ----

CheckReport run_det(const DeterminismInfo& det) {
  static const Package package = test_package();
  CheckContext context;
  context.package = &package;
  context.determinism = &det;
  return run_checks(context, CheckStage::Determinism);
}

TEST(CheckDeterminism, CleanConfigPassesQuietly) {
  DeterminismInfo det;
  det.seed_explicit = true;
  const CheckReport report = run_det(det);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

TEST(CheckDeterminism, Det001ArmedFaultSite) {
  DeterminismInfo det;
  det.armed_faults = {"solver.step"};
  const CheckReport report = run_det(det);
  EXPECT_TRUE(report.has("DET-001"));
  EXPECT_FALSE(report.passed());
}

TEST(CheckDeterminism, Det002BudgetArmed) {
  DeterminismInfo det;
  det.budget_enabled = true;
  EXPECT_TRUE(run_det(det).has("DET-002"));
}

TEST(CheckDeterminism, Det003MachineSizedThreads) {
  DeterminismInfo det;
  det.threads = 64;
  det.threads_from_machine = true;
  EXPECT_TRUE(run_det(det).has("DET-003"));
}

TEST(CheckDeterminism, Det004EnvOverrides) {
  DeterminismInfo det;
  det.env_overrides = {"FPKIT_FAULTS"};
  EXPECT_TRUE(run_det(det).has("DET-004"));
}

TEST(CheckDeterminism, Det005UnpinnedSeedOnlyForRandomizedMethods) {
  DeterminismInfo det;
  det.randomized_method = true;
  det.seed_explicit = false;
  EXPECT_TRUE(run_det(det).has("DET-005"));
  det.seed_explicit = true;
  EXPECT_FALSE(run_det(det).has("DET-005"));
  det.seed_explicit = false;
  det.randomized_method = false;
  EXPECT_FALSE(run_det(det).has("DET-005"));
}

TEST(CheckDeterminism, Det006AuditedDegradedRun) {
  DeterminismInfo det;
  det.audited = true;
  det.audited_degraded = true;
  EXPECT_TRUE(run_det(det).has("DET-006"));
  det.audited_degraded = false;
  det.audited_exit_code = 3;
  EXPECT_TRUE(run_det(det).has("DET-006"));
  det.audited_exit_code = 0;
  EXPECT_FALSE(run_det(det).has("DET-006"));
}

TEST(CheckDeterminism, AggregateRunIncludesDetStageWhenInfoPresent) {
  const Package package = test_package();
  DeterminismInfo det;
  det.armed_faults = {"sa.step"};
  CheckContext context = context_of(package);
  context.determinism = &det;
  const CheckReport report = run_checks(context);
  EXPECT_TRUE(report.has("DET-001"));
}

}  // namespace
}  // namespace fp
