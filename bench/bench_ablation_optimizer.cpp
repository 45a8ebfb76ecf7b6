// Ablation: the Fig.-14 simulated annealing vs the deterministic greedy
// baseline, with the ring-dispersion proxy or an exact mesh solve as the
// in-loop IR cost. Both modes run on equal terms: the standard schedule
// and the 32x32 mesh that scores every result. Reports the *full-solve*
// IR improvement each combination actually delivers, plus runtime; SA
// runs at seeds 7-9, greedy is deterministic. Then sizes the exact term's
// change per move around the start against rho, and how often the two
// modes agree on the sign of a move's delta-IR.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "assign/dfa.h"
#include "bench_common.h"
#include "exchange/greedy.h"
#include "io/table.h"
#include "power/ir_analysis.h"
#include "util/strings.h"
#include "util/timer.h"

int main() {
  using namespace fp;
  CircuitSpec spec = CircuitGenerator::table1(0);
  spec.supply_fraction = 0.25;
  const Package package = CircuitGenerator::generate(spec);
  const PackageAssignment initial = DfaAssigner().assign(package);

  const PowerGridSpec grid_spec = bench::standard_grid();
  const double ir_before =
      analyze_ir(package, initial, grid_spec).max_drop_v;

  TablePrinter table({"optimizer", "IR mode", "seed",
                      "full-solve IR impr (%)", "runtime (s)",
                      "moves evaluated"});
  const auto add_row = [&](const char* optimizer, IrCostMode mode,
                           const std::string& seed, double seconds,
                           const ExchangeResult& result) {
    const double ir_after =
        analyze_ir(package, result.assignment, grid_spec).max_drop_v;
    table.add_row({optimizer, mode == IrCostMode::Exact ? "exact" : "proxy",
                   seed,
                   format_fixed((1.0 - ir_after / ir_before) * 100.0, 2),
                   format_fixed(seconds, 3),
                   std::to_string(result.anneal.proposed)});
  };

  for (const IrCostMode mode : {IrCostMode::Proxy, IrCostMode::Exact}) {
    for (std::uint64_t seed = 7; seed <= 9; ++seed) {
      ExchangeOptions options = bench::standard_exchange(seed);
      options.ir_mode = mode;
      const Timer timer;
      const ExchangeResult result =
          ExchangeOptimizer(package, options).optimize(initial);
      add_row("SA", mode, std::to_string(seed), timer.seconds(), result);
    }
    GreedyOptions options;
    options.cost = bench::standard_exchange();
    options.cost.ir_mode = mode;
    const Timer timer;
    const ExchangeResult result =
        GreedyExchanger(package, options).optimize(initial);
    add_row("greedy", mode, "-", timer.seconds(), result);
  }

  std::printf("Ablation -- optimizer x IR cost mode on circuit1 "
              "(full-solve IR before: %.1f mV)\n%s\n",
              ir_before * 1e3, table.str().c_str());

  // Every legal Fig.-14 move from the start (an adjacent swap that moves a
  // supply pad), scored by each mode's delta-IR.
  const ExchangeOptions proxy_options = bench::standard_exchange();
  ExchangeOptions exact_options = proxy_options;
  exact_options.ir_mode = IrCostMode::Exact;
  const ExchangeOptimizer proxy(package, proxy_options);
  const ExchangeOptimizer exact(package, exact_options);
  const double proxy0 = proxy.ir_cost(initial);
  const double exact0 = exact.ir_cost(initial);
  IncrementalCost state(package, initial, proxy_options.lambda,
                        proxy_options.rho, proxy_options.phi);
  std::vector<double> steps;
  int lowered = 0;
  int agree = 0;
  int signed_moves = 0;
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    const std::vector<NetId>& order =
        state.assignment().quadrants[static_cast<std::size_t>(qi)].order;
    for (std::size_t a = 0; a + 1 < order.size(); ++a) {
      if (!is_supply(package.netlist().net(order[a]).type) &&
          !is_supply(package.netlist().net(order[a + 1]).type)) {
        continue;
      }
      if (!state.swap_legal(qi, static_cast<int>(a))) continue;
      state.apply_swap(qi, static_cast<int>(a));
      const double d_exact = exact.ir_cost(state.assignment()) - exact0;
      const double d_proxy = proxy.ir_cost(state.assignment()) - proxy0;
      state.undo_last();
      steps.push_back(std::abs(exact_options.lambda * d_exact));
      lowered += d_exact < 0.0 ? 1 : 0;
      if (d_exact != 0.0 && d_proxy != 0.0) {
        ++signed_moves;
        agree += (d_exact > 0.0) == (d_proxy > 0.0) ? 1 : 0;
      }
    }
  }
  std::sort(steps.begin(), steps.end());
  const std::size_t n = steps.size();
  std::printf("Exact term per move from the start: %zu legal moves change "
              "lambda*dIR by %.4f / %.4f / %.4f (quartiles), at most %.4f, "
              "against rho = %.1f per unit of ID; %d lower it. Proxy and "
              "exact agree on the sign of %d of %d moves (%zu ties).\n",
              n, steps[n / 4], steps[n / 2], steps[3 * n / 4], steps.back(),
              exact_options.rho, lowered, agree, signed_moves,
              n - static_cast<std::size_t>(signed_moves));
  return 0;
}
