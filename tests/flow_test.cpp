// Integration tests: the full Fig.-1(B) co-design flow end to end on the
// Table-1 circuits, 2-D and stacking, checking the paper's qualitative
// claims hold on our substrate.
#include <gtest/gtest.h>

#include <csignal>
#include <fstream>

#include "codesign/flow.h"
#include "codesign/report.h"
#include "exec/exec.h"
#include "package/circuit_generator.h"
#include "power/pad_ring.h"
#include "route/legality.h"
#include "util/signal.h"

namespace fp {
namespace {

FlowOptions light_flow(AssignmentMethod method) {
  FlowOptions options;
  options.method = method;
  options.grid_spec.nodes_per_side = 16;
  options.exchange.schedule.initial_temperature = 2.0;
  options.exchange.schedule.final_temperature = 1e-3;
  options.exchange.schedule.cooling = 0.9;
  options.exchange.schedule.moves_per_temperature = 32;
  return options;
}

Package make_package(int circuit, int tiers = 1) {
  CircuitSpec spec = CircuitGenerator::table1(circuit);
  spec.tier_count = tiers;
  return CircuitGenerator::generate(spec);
}

TEST(Flow, EndToEnd2D) {
  const Package package = make_package(0);
  const CodesignFlow flow(light_flow(AssignmentMethod::Dfa));
  const FlowResult result = flow.run(package);

  // Both assignments legal.
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    EXPECT_TRUE(is_monotone_legal(
        package.quadrant(qi),
        result.initial.quadrants[static_cast<std::size_t>(qi)]));
    EXPECT_TRUE(is_monotone_legal(
        package.quadrant(qi),
        result.final.quadrants[static_cast<std::size_t>(qi)]));
  }
  EXPECT_GT(result.max_density_initial, 0);
  EXPECT_GT(result.flyline_initial_um, 0.0);
  EXPECT_TRUE(result.ir_initial.converged);
  EXPECT_TRUE(result.ir_final.converged);
  // The exchange step improves IR-drop (the Table-3 headline).
  EXPECT_LT(result.ir_final.max_drop_v, result.ir_initial.max_drop_v);
  EXPECT_GT(result.ir_improvement_percent(), 0.0);
  EXPECT_GE(result.runtime_s, 0.0);
}

TEST(Flow, KeepsTheFinalSolvesField) {
  // The field the final analysis solved, kept instead of freed: the bits
  // a fresh solve of the final assignment gives, and the drop ir_final
  // reports. No field without supply nets; a batch releases it.
  const Package package = make_package(0);
  const FlowOptions options = light_flow(AssignmentMethod::Dfa);
  const FlowResult result = CodesignFlow(options).run(package);
  PowerGrid grid(options.grid_spec);
  grid.set_pads(PadRing(package, grid.k()).supply_nodes(result.final));
  const SolveResult fresh = solve(grid);
  EXPECT_EQ(result.final_voltage.data(), fresh.voltage.data());
  EXPECT_EQ(result.ir_final.max_drop_v, max_ir_drop(grid, fresh));

  CircuitSpec spec = CircuitGenerator::table1(0);
  spec.supply_fraction = 0.0;
  FlowOptions no_exchange = options;
  no_exchange.run_exchange = false;
  EXPECT_TRUE(CodesignFlow(no_exchange)
                  .run(CircuitGenerator::generate(spec))
                  .final_voltage.empty());

  const BatchResult batch = run_flow_batch(package, {{"job", options}});
  ASSERT_TRUE(batch.jobs[0].ok) << batch.jobs[0].error;
  EXPECT_TRUE(batch.jobs[0].result.final_voltage.empty());
}

TEST(Flow, ExitCodeIsOkDegradedOrInterrupted) {
  const Package package = make_package(0);
  FlowOptions options = light_flow(AssignmentMethod::Dfa);
  EXPECT_EQ(CodesignFlow(options).run(package).exit_code(), 0);

  FlowOptions budgeted = options;
  budgeted.budget.total_s = 1e-9;
  EXPECT_EQ(CodesignFlow(budgeted).run(package).exit_code(), 3);

  // An interrupt outranks the degradations it causes.
  options.interruptible = true;
  sig::reset();
  sig::request_cancel(SIGINT);
  const FlowResult interrupted = CodesignFlow(options).run(package);
  sig::reset();
  EXPECT_GT(interrupted.degrade_events.size(), 1u);
  EXPECT_EQ(interrupted.exit_code(), 5);
}

TEST(Flow, BatchJobsSkippedByAnInterruptAreUnfinished) {
  // A job a signal skips before it starts did not fail: it records the
  // interrupted exit code, stays out of the failed count, and the sweep
  // exits 5 (unfinished) even without the interrupt flag itself.
  const Package package = make_package(0);
  const FlowOptions options = light_flow(AssignmentMethod::Dfa);
  sig::reset();
  sig::request_cancel(SIGINT);
  const BatchResult batch =
      run_flow_batch(package, {{"a", options}, {"b", options}});
  sig::reset();
  ASSERT_EQ(batch.jobs.size(), 2u);
  for (const BatchJobResult& job : batch.jobs) {
    EXPECT_FALSE(job.ok);
    EXPECT_EQ(job.exit_code, 5) << job.error;
  }
  EXPECT_EQ(batch.failed_count(), 0);
  EXPECT_EQ(batch.skipped_count(), 2);
  EXPECT_EQ(sweep_exit_code(/*interrupted=*/false,
                            static_cast<std::size_t>(batch.failed_count()),
                            static_cast<std::size_t>(batch.skipped_count()),
                            static_cast<std::size_t>(batch.degraded_count())),
            5);
}

TEST(Flow, EndToEndStacking) {
  const Package package = make_package(0, 4);
  FlowOptions options = light_flow(AssignmentMethod::Dfa);
  options.exchange.phi = 4.0;
  const CodesignFlow flow(options);
  const FlowResult result = flow.run(package);
  EXPECT_LT(result.bonding_final.omega, result.bonding_initial.omega);
  EXPECT_GT(result.bonding_improvement_percent(), 0.0);
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    EXPECT_TRUE(is_monotone_legal(
        package.quadrant(qi),
        result.final.quadrants[static_cast<std::size_t>(qi)]));
  }
}

TEST(Flow, MethodOrderingOnDensity) {
  // Table 2's qualitative result: DFA <= IFA <= Random on max density.
  for (int circuit = 0; circuit < 5; ++circuit) {
    const Package package = make_package(circuit);
    FlowOptions options = light_flow(AssignmentMethod::Random);
    options.run_exchange = false;

    options.method = AssignmentMethod::Random;
    const int random_density =
        CodesignFlow(options).run(package).max_density_initial;
    options.method = AssignmentMethod::Ifa;
    const int ifa_density =
        CodesignFlow(options).run(package).max_density_initial;
    options.method = AssignmentMethod::Dfa;
    const int dfa_density =
        CodesignFlow(options).run(package).max_density_initial;

    EXPECT_LE(dfa_density, ifa_density) << "circuit " << circuit;
    EXPECT_LT(ifa_density, random_density) << "circuit " << circuit;
  }
}

TEST(Flow, SkipExchangeKeepsAssignment) {
  const Package package = make_package(1);
  FlowOptions options = light_flow(AssignmentMethod::Ifa);
  options.run_exchange = false;
  const FlowResult result = CodesignFlow(options).run(package);
  for (std::size_t qi = 0; qi < result.initial.quadrants.size(); ++qi) {
    EXPECT_EQ(result.initial.quadrants[qi].order,
              result.final.quadrants[qi].order);
  }
  EXPECT_EQ(result.max_density_initial, result.max_density_final);
}

TEST(Flow, NoSupplyNetsStillRuns) {
  CircuitSpec spec = CircuitGenerator::table1(0);
  spec.supply_fraction = 0.0;
  spec.tier_count = 2;  // stacking: moves pick any pad, no supply needed
  const Package package = CircuitGenerator::generate(spec);
  const FlowResult result =
      CodesignFlow(light_flow(AssignmentMethod::Dfa)).run(package);
  EXPECT_EQ(result.ir_initial.max_drop_v, 0.0);  // IR skipped
  EXPECT_EQ(result.ir_improvement_percent(), 0.0);
}

TEST(Flow, SummaryMentionsKeyMetrics) {
  const Package package = make_package(0);
  const FlowResult result =
      CodesignFlow(light_flow(AssignmentMethod::Dfa)).run(package);
  const std::string text = CodesignFlow::summary(package, result);
  EXPECT_NE(text.find("max density"), std::string::npos);
  EXPECT_NE(text.find("IR-drop"), std::string::npos);
  EXPECT_NE(text.find("bonding wire"), std::string::npos);
}

TEST(Flow, MethodNames) {
  EXPECT_EQ(to_string(AssignmentMethod::Random), "random");
  EXPECT_EQ(to_string(AssignmentMethod::Ifa), "IFA");
  EXPECT_EQ(to_string(AssignmentMethod::Dfa), "DFA");
}

class FlowSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(FlowSweep, LegalAndImprovingAcrossCircuitsAndTiers) {
  const auto [circuit, tiers] = GetParam();
  const Package package = make_package(circuit, tiers);
  FlowOptions options = light_flow(AssignmentMethod::Dfa);
  const FlowResult result = CodesignFlow(options).run(package);
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    EXPECT_TRUE(is_monotone_legal(
        package.quadrant(qi),
        result.final.quadrants[static_cast<std::size_t>(qi)]));
  }
  // IR never gets worse than the initial assignment by more than noise.
  EXPECT_LE(result.ir_final.max_drop_v,
            result.ir_initial.max_drop_v * 1.05);
}

INSTANTIATE_TEST_SUITE_P(CircuitsAndTiers, FlowSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Values(1, 2, 4)));

// ------------------------------------------------- parallel execution ----

/// Everything summary() prints except the wall-clock lines, which are the
/// only fields allowed to differ between runs.
std::string stable_summary(const Package& package, const FlowResult& result) {
  std::string out;
  for (const std::string& line :
       [&] {
         std::vector<std::string> lines;
         std::string text = CodesignFlow::summary(package, result);
         std::size_t start = 0;
         while (start < text.size()) {
           std::size_t end = text.find('\n', start);
           if (end == std::string::npos) end = text.size();
           lines.push_back(text.substr(start, end - start));
           start = end + 1;
         }
         return lines;
       }()) {
    if (line.find("runtime") != std::string::npos) continue;
    if (line.find("stages") != std::string::npos) continue;
    out += line + "\n";
  }
  return out;
}

TEST(FlowParallel, SummaryByteIdenticalAcrossThreadCounts) {
  const Package package = make_package(1, 2);
  FlowOptions options = light_flow(AssignmentMethod::Dfa);
  options.exchange.schedule.seed = 7;
  const int saved_threads = exec::default_threads();
  exec::set_default_threads(1);
  const FlowResult expected = CodesignFlow(options).run(package);
  const std::string expected_summary = stable_summary(package, expected);
  for (const int threads : {2, 8}) {
    exec::set_default_threads(threads);
    const FlowResult actual = CodesignFlow(options).run(package);
    EXPECT_EQ(stable_summary(package, actual), expected_summary)
        << "threads=" << threads;
    EXPECT_EQ(actual.anneal.final_cost, expected.anneal.final_cost);
    EXPECT_EQ(actual.ir_final.max_drop_v, expected.ir_final.max_drop_v);
    EXPECT_EQ(actual.final.ring_order(), expected.final.ring_order());
  }
  exec::set_default_threads(saved_threads);
}

TEST(FlowParallel, MultistartWinnerIndependentOfThreadCount) {
  const Package package = make_package(0);
  FlowOptions options = light_flow(AssignmentMethod::Dfa);
  options.exchange.schedule.seed = 7;
  options.exchange.schedule.restarts = 5;
  const int saved_threads = exec::default_threads();
  exec::set_default_threads(1);
  const FlowResult expected = CodesignFlow(options).run(package);
  for (const int threads : {2, 8}) {
    exec::set_default_threads(threads);
    const FlowResult actual = CodesignFlow(options).run(package);
    EXPECT_EQ(actual.anneal.final_cost, expected.anneal.final_cost)
        << "threads=" << threads;
    EXPECT_EQ(actual.final.ring_order(), expected.final.ring_order());
  }
  exec::set_default_threads(saved_threads);
  // More replicas can only improve (or match) the single-run winner: the
  // selection keeps the minimum over a superset of seeds.
  FlowOptions single = options;
  single.exchange.schedule.restarts = 1;
  const FlowResult one = CodesignFlow(single).run(package);
  EXPECT_LE(expected.anneal.final_cost, one.anneal.final_cost);
}

TEST(FlowParallel, BatchMatchesIndividualRuns) {
  const Package package = make_package(0);
  std::vector<BatchJob> jobs;
  for (const AssignmentMethod method :
       {AssignmentMethod::Dfa, AssignmentMethod::Ifa}) {
    for (const std::uint64_t seed : {1ull, 2ull}) {
      BatchJob job;
      job.label = std::string(to_string(method)) + "/" + std::to_string(seed);
      job.options = light_flow(method);
      job.options.random_seed = seed;
      job.options.exchange.schedule.seed = seed;
      jobs.push_back(std::move(job));
    }
  }
  const int saved_threads = exec::default_threads();
  exec::set_default_threads(4);
  const BatchResult batch = run_flow_batch(package, jobs);
  exec::set_default_threads(saved_threads);
  ASSERT_EQ(batch.jobs.size(), jobs.size());
  EXPECT_EQ(batch.failed_count(), 0);
  EXPECT_EQ(batch.degraded_count(), 0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(batch.jobs[i].ok) << batch.jobs[i].error;
    EXPECT_EQ(batch.jobs[i].label, jobs[i].label);  // input-job order kept
    const FlowResult expected = CodesignFlow(jobs[i].options).run(package);
    EXPECT_EQ(batch.jobs[i].result.anneal.final_cost,
              expected.anneal.final_cost)
        << jobs[i].label;
    EXPECT_EQ(batch.jobs[i].result.final.ring_order(),
              expected.final.ring_order());
  }
}

TEST(FlowParallel, BatchCapturesPerJobErrors) {
  const Package package = make_package(0);
  std::vector<BatchJob> jobs(2);
  jobs[0].label = "ok";
  jobs[0].options = light_flow(AssignmentMethod::Dfa);
  jobs[1].label = "bad";
  jobs[1].options = light_flow(AssignmentMethod::Dfa);
  jobs[1].options.exchange.lambda = -1.0;  // rejected by ExchangeOptimizer
  const BatchResult batch = run_flow_batch(package, jobs);
  ASSERT_EQ(batch.jobs.size(), 2u);
  EXPECT_TRUE(batch.jobs[0].ok);
  EXPECT_FALSE(batch.jobs[1].ok);
  // The error's own text and code: bad input is FP-INVALID, exit 2.
  EXPECT_EQ(batch.jobs[1].error.rfind("[FP-INVALID] ", 0), 0u)
      << batch.jobs[1].error;
  EXPECT_EQ(batch.jobs[1].exit_code, 2);
  EXPECT_EQ(batch.failed_count(), 1);
}

}  // namespace
}  // namespace fp
