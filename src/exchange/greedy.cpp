#include "exchange/greedy.h"

namespace fp {

GreedyExchanger::GreedyExchanger(const Package& package,
                                 GreedyOptions options)
    : package_(&package), options_(std::move(options)) {
  require(options_.max_passes > 0,
          "GreedyExchanger: max_passes must be positive");
}

ExchangeResult GreedyExchanger::optimize(
    const PackageAssignment& initial) const {
  const Netlist& netlist = package_->netlist();
  const bool stacking = netlist.tier_count() > 1;
  require(stacking || !netlist.supply_nets().empty(),
          "GreedyExchanger: 2-D moves need at least one supply net");

  IncrementalCost state(*package_, initial, options_.cost.lambda,
                        options_.cost.rho, options_.cost.phi);
  const ExchangeOptimizer evaluator(*package_, options_.cost);
  const PackageAssignment& current = state.assignment();
  double cur_cost = evaluator.cost(state);

  ExchangeResult result;
  result.ir_cost_before = evaluator.ir_cost(initial);
  result.omega_before = state.omega();
  result.anneal.initial_cost = cur_cost;

  long long evaluated = 0;
  long long applied = 0;
  int passes = 0;

  for (; passes < options_.max_passes; ++passes) {
    int best_quadrant = -1;
    int best_left = -1;
    double best_cost = cur_cost;
    for (int qi = 0; qi < package_->quadrant_count(); ++qi) {
      const auto& order =
          current.quadrants[static_cast<std::size_t>(qi)].order;
      for (int a = 0; a + 1 < static_cast<int>(order.size()); ++a) {
        const NetId left = order[static_cast<std::size_t>(a)];
        const NetId right = order[static_cast<std::size_t>(a + 1)];
        // Fig.-14 move policy + range constraint.
        if (!stacking && !is_supply(netlist.net(left).type) &&
            !is_supply(netlist.net(right).type)) {
          continue;
        }
        if (!state.swap_legal(qi, a)) continue;

        state.apply_swap(qi, a);
        ++evaluated;
        const double cost = evaluator.cost(state);
        state.undo_last();
        if (cost < best_cost) {
          best_cost = cost;
          best_quadrant = qi;
          best_left = a;
        }
      }
    }
    if (best_quadrant < 0) break;  // local optimum
    state.apply_swap(best_quadrant, best_left);
    cur_cost = best_cost;
    ++applied;
  }

  result.anneal.final_cost = cur_cost;
  result.anneal.best_cost = cur_cost;
  result.anneal.proposed = evaluated;
  result.anneal.accepted = applied;
  result.anneal.temperature_steps = passes;

  result.ir_cost_after = evaluator.ir_cost(current);
  result.omega_after = state.omega();
  result.increased_density = state.increased_density();
  result.assignment = current;
  return result;
}

}  // namespace fp
