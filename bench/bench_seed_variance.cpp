// Robustness of the headline results over the synthetic degree of freedom
// (the net-to-bump permutation the paper never published): the Table-3
// flow on every Table-1 circuit, 8 seeds each, mean +- stddev.
#include <cstdio>

#include "bench_common.h"
#include "io/table.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/timer.h"

namespace {

std::string pm(const fp::RunningStats& stats, int digits = 1) {
  return fp::format_fixed(stats.mean(), digits) + " +- " +
         fp::format_fixed(stats.stddev(), digits);
}

}  // namespace

int main() {
  using namespace fp;
  constexpr int kSeeds = 8;

  FlowOptions options;
  options.method = AssignmentMethod::Dfa;
  options.grid_spec = bench::standard_grid();
  options.exchange = bench::standard_exchange();

  TablePrinter table({"Input case", "den DFA", "den exch", "IR before (mV)",
                      "IR impr (%)", "runtime (s)"});
  const Timer timer;
  for (int i = 0; i < 5; ++i) {
    CircuitSpec spec = CircuitGenerator::table1(i);
    RunningStats max_density_initial;
    RunningStats max_density_final;
    RunningStats ir_before_mv;
    RunningStats ir_improvement_pct;
    RunningStats runtime_s;
    // Seeds 1..kSeeds regenerate the circuit; the exchange's annealing
    // seed follows the circuit seed so runs stay independent.
    for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
      spec.seed = seed;
      const Package package = CircuitGenerator::generate(spec);
      options.random_seed = seed;
      options.exchange.schedule.seed = seed;
      const FlowResult flow = CodesignFlow(options).run(package);
      max_density_initial.add(flow.max_density_initial);
      max_density_final.add(flow.max_density_final);
      ir_before_mv.add(flow.ir_initial.max_drop_v * 1e3);
      ir_improvement_pct.add(flow.ir_improvement_percent());
      runtime_s.add(flow.runtime_s);
    }
    table.add_row({spec.name, pm(max_density_initial), pm(max_density_final),
                   pm(ir_before_mv), pm(ir_improvement_pct),
                   pm(runtime_s, 3)});
  }
  std::printf("Seed robustness -- DFA + exchange over %d netlist seeds "
              "per circuit (mean +- stddev)\n%s\n",
              kSeeds, table.str().c_str());
  std::printf("Total harness runtime: %.2f s\n", timer.seconds());
  return 0;
}
