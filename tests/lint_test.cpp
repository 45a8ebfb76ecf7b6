// Tests of the package lint rules.
#include <gtest/gtest.h>

#include "package/circuit_generator.h"
#include "package/lint.h"

namespace fp {
namespace {

Package build(PackageGeometry geometry,
              std::vector<std::vector<std::vector<NetId>>> quadrant_rows,
              std::vector<NetType> types = {},
              std::vector<int> tiers = {}) {
  std::size_t count = 0;
  for (const auto& rows : quadrant_rows) {
    for (const auto& row : rows) count += row.size();
  }
  Netlist netlist;
  for (std::size_t i = 0; i < count; ++i) {
    const NetType type = i < types.size() ? types[i] : NetType::Signal;
    const int tier = i < tiers.size() ? tiers[i] : 0;
    netlist.add(std::string("n").append(std::to_string(i)), type, tier);
  }
  std::vector<Quadrant> quadrants;
  int qi = 0;
  for (auto& rows : quadrant_rows) {
    quadrants.emplace_back(std::string("q").append(std::to_string(qi++)),
                           geometry, std::move(rows));
  }
  return Package("lint", std::move(netlist), geometry, std::move(quadrants));
}

TEST(Lint, Table1CircuitsAreMostlyClean) {
  // The generated benchmark circuits must not trip any *error*; the only
  // acceptable warnings are supply-placement ones.
  for (int i = 0; i < 5; ++i) {
    const Package package =
        CircuitGenerator::generate(CircuitGenerator::table1(i));
    const LintReport report = lint_package(package);
    EXPECT_EQ(report.errors(), 0u) << report.to_string();
  }
}

TEST(Lint, FlagsOversizedVia) {
  PackageGeometry g;
  g.bump_space_um = 0.05;  // below the 0.1 via
  const Package package = build(g, {{{0, 1}, {2}}});
  const LintReport report = lint_package(package);
  EXPECT_GT(report.errors(), 0u);
  EXPECT_NE(report.to_string().find("via diameter"), std::string::npos);
  // The shim carries the originating check-rule id through to the text.
  EXPECT_NE(report.to_string().find("[GEOM-002]"), std::string::npos);
  ASSERT_FALSE(report.findings.empty());
  EXPECT_FALSE(report.findings.front().rule.empty());
}

TEST(Lint, FlagsGrowingRows) {
  const Package package = build(PackageGeometry{}, {{{0, 1}, {2, 3, 4}}});
  const LintReport report = lint_package(package);
  EXPECT_NE(report.to_string().find("wider than the row outside"),
            std::string::npos);
}

TEST(Lint, FlagsMixedParityRows) {
  const Package package = build(PackageGeometry{}, {{{0, 1, 2}, {3, 4}}});
  const LintReport report = lint_package(package);
  EXPECT_NE(report.to_string().find("mix parities"), std::string::npos);
}

TEST(Lint, FlagsMissingSupply) {
  const Package package = build(PackageGeometry{}, {{{0, 1}, {2}}});
  const LintReport report = lint_package(package);
  EXPECT_NE(report.to_string().find("no supply nets"), std::string::npos);
}

TEST(Lint, FlagsSupplyFreeQuadrant) {
  const Package package =
      build(PackageGeometry{}, {{{0, 1}}, {{2, 3}}},
            {NetType::Power, NetType::Signal, NetType::Signal,
             NetType::Signal});
  const LintReport report = lint_package(package);
  EXPECT_NE(report.to_string().find("carries no supply net"),
            std::string::npos);
}

TEST(Lint, FlagsUnbalancedTiers) {
  const Package package =
      build(PackageGeometry{}, {{{0, 1, 2, 3, 4, 5}}}, {},
            {0, 0, 0, 0, 0, 1});
  const LintReport report = lint_package(package);
  EXPECT_NE(report.to_string().find("unbalanced"), std::string::npos);
}

TEST(Lint, CleanReportSaysSo) {
  LintReport report;
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.to_string(), "lint: clean\n");
}

}  // namespace
}  // namespace fp
