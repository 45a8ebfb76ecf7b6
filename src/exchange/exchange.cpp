#include "exchange/exchange.h"

#include <algorithm>
#include <optional>
#include <vector>

#include "exec/exec.h"
#include "obs/metrics.h"
#include "obs/trace.h"

#include "power/ir_analysis.h"
#include "power/pad_ring.h"

namespace fp {

ExchangeOptimizer::ExchangeOptimizer(const Package& package,
                                     ExchangeOptions options)
    : package_(&package), options_(std::move(options)),
      tier_count_(package.netlist().tier_count()),
      has_supply_(!package.netlist().supply_nets().empty()) {
  require(options_.lambda >= 0.0 && options_.rho >= 0.0 &&
              options_.phi >= 0.0,
          "ExchangeOptimizer: Eq.-(3) weights must be non-negative");
}

double ExchangeOptimizer::ir_cost(const PackageAssignment& assignment) const {
  // A stacking design without supply nets has nothing for the IR term to
  // optimise; the cost then reduces to rho*ID + phi*omega.
  if (!has_supply_) return 0.0;
  if (options_.ir_mode == IrCostMode::Exact) {
    const IrReport report =
        analyze_ir(*package_, assignment, options_.grid_spec,
                   options_.solver);
    // Scale volts into the same rough magnitude as the proxy (units around
    // 1) so the published default weights remain sensible in both modes.
    return report.max_drop_v / std::max(1e-12, options_.grid_spec.vdd) * 10.0;
  }
  return supply_dispersion(assignment.ring_order(), package_->netlist());
}

double ExchangeOptimizer::cost(const PackageAssignment& assignment,
                               const IncreasedDensity& id_tracker) const {
  const double delta_ir = ir_cost(assignment);
  const int id = id_tracker.evaluate(assignment);
  const int omega = omega_zero_bits(assignment.ring_order(),
                                    package_->netlist(), tier_count_);
  return options_.lambda * delta_ir + options_.rho * id +
         options_.phi * omega;
}

double ExchangeOptimizer::cost(const IncrementalCost& state) const {
  if (options_.ir_mode == IrCostMode::Proxy) return state.current();
  return options_.lambda * ir_cost(state.assignment()) +
         options_.rho * state.increased_density() +
         options_.phi * state.omega();
}

ExchangeResult ExchangeOptimizer::optimize_multistart(
    const PackageAssignment& initial, int starts) const {
  require(starts >= 1, "optimize_multistart: starts must be positive");
  if (starts == 1) return optimize(initial);
  // Replicas are fully independent: each gets its own ExchangeOptimizer,
  // its own seed, and its own "sa.replica<i>" metric namespace, so
  // concurrent replicas never mix one another's "sa.*" counters. Results
  // land in a slot keyed by replica index, so the selection below never
  // depends on which worker finished first.
  std::vector<std::optional<ExchangeResult>> results(
      static_cast<std::size_t>(starts));
  exec::parallel_tasks(
      static_cast<std::size_t>(starts), [&](std::size_t i) {
        const std::string prefix = "sa.replica" + std::to_string(i);
        const obs::ScopedSpan span("exchange.replica" + std::to_string(i),
                                   "exchange");
        ExchangeOptions options = options_;
        options.schedule.seed =
            options_.schedule.seed + static_cast<std::uint64_t>(i);
        options.schedule.restarts = 1;
        options.schedule.metric_prefix = prefix;
        results[i] = ExchangeOptimizer(*package_, options).optimize(initial);
      });
  // Canonical selection: replica-index order with strict <, so ties go to
  // the lowest seed and the winner is identical at every thread count.
  std::optional<ExchangeResult> best;
  std::size_t best_index = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    auto& candidate = results[i];
    if (!candidate) continue;
    if (!best || candidate->anneal.final_cost < best->anneal.final_cost) {
      best = std::move(*candidate);
      best_index = i;
    }
  }
  ensure(best.has_value(), "optimize_multistart: no replica completed");
  // Re-export the winner under the plain "sa." names, so dashboards and
  // `fpkit compare` keep one canonical per-run SA story regardless of the
  // replica count (per-replica detail stays under "sa.replica<i>.*").
  if (obs::metrics_enabled()) {
    const AnnealResult& a = best->anneal;
    obs::count("sa.runs");
    obs::count("sa.stop." + std::string(to_string(a.stop)));
    obs::count("sa.proposed", a.proposed);
    obs::count("sa.accepted", a.accepted);
    obs::count("sa.rejected_illegal", a.rejected_illegal);
    obs::count("sa.temperature_steps", a.temperature_steps);
    obs::gauge("sa.initial_cost", a.initial_cost);
    obs::gauge("sa.final_cost", a.final_cost);
    obs::gauge("sa.best_cost", a.best_cost);
    obs::gauge("sa.winner_replica", static_cast<double>(best_index));
    const std::optional<obs::SeriesSnapshot> cooling =
        obs::MetricsRegistry::global().series(
            "sa.replica" + std::to_string(best_index) + ".cooling");
    if (cooling) {
      for (const std::vector<double>& row : cooling->rows) {
        obs::sample("sa.cooling", cooling->columns, row);
      }
    }
  }
  return std::move(*best);
}

ExchangeResult ExchangeOptimizer::optimize(
    const PackageAssignment& initial) const {
  const Netlist& netlist = package_->netlist();
  const std::vector<NetId> supply = netlist.supply_nets();
  const bool stacking = tier_count_ > 1;
  require(stacking || !supply.empty(),
          "ExchangeOptimizer: 2-D exchange moves need at least one supply "
          "net (Fig. 14 line 7)");

  // The swap engine holds the order, its position index and undo journal,
  // and the Eq.-(3) terms. Proxy mode scores a proposal without making it
  // (O(psi)); Exact mode makes it, re-solves the IR term on the order and
  // takes it back.
  IncrementalCost state(*package_, initial, options_.lambda, options_.rho,
                        options_.phi);
  const PackageAssignment& current = state.assignment();

  // Every span the loop draws an index from, prepared once. The supply
  // list is drawn only in 2-D, where it is not empty; quadrants and their
  // orders never are (Package, and the permutation check of the engine).
  std::optional<Rng::Range> supply_range;
  if (!stacking) supply_range.emplace(supply.size());
  const Rng::Range quadrant_range(current.quadrants.size());
  std::vector<Rng::Range> finger_ranges;
  finger_ranges.reserve(current.quadrants.size());
  for (const QuadrantAssignment& qa : current.quadrants) {
    finger_ranges.emplace_back(qa.order.size());
  }

  IPoint sampled;  // (quadrant, left finger) of the last legal proposal
  const auto propose = [&](Rng& rng) -> std::optional<double> {
    // Fig. 14 lines 4-7: pick any pad for stacking ICs, a power pad for 2-D.
    // A stacking pick is drawn as its (quadrant, finger) position.
    IPoint pos;
    if (stacking) {
      const std::size_t qi = rng.index(quadrant_range);
      pos = IPoint{static_cast<int>(qi),
                   static_cast<int>(rng.index(finger_ranges[qi]))};
    } else {
      pos = state.position(supply[rng.index(*supply_range)]);
    }
    const int size = static_cast<int>(
        finger_ranges[static_cast<std::size_t>(pos.x)].size());
    if (size < 2) return std::nullopt;

    // Fig. 14 line 8: swap with the left or the right neighbour.
    int left = pos.y;
    if (rng.chance(0.5)) --left;
    if (left < 0) left = 0;
    if (left + 1 >= size) left = size - 2;
    // Range constraint: a same-row pair must keep its via order.
    if (!state.swap_legal(pos.x, left)) return std::nullopt;

    sampled = IPoint{pos.x, left};
    if (options_.ir_mode == IrCostMode::Proxy) {
      return state.swap_cost(pos.x, left);
    }
    state.apply_swap(pos.x, left);
    const double scored = cost(state);
    state.undo_last();
    return scored;
  };
  const auto commit = [&] { state.apply_swap(sampled.x, sampled.y); };
  const auto undo = [&] { state.undo_last(); };

  ExchangeResult result;
  result.ir_cost_before = ir_cost(initial);
  result.omega_before = state.omega();

  const Annealer annealer(options_.schedule);
  result.anneal = annealer.run(cost(state), propose, commit, undo);

  result.ir_cost_after = ir_cost(current);
  result.omega_after = state.omega();
  result.increased_density = state.increased_density();
  result.assignment = current;
  return result;
}

}  // namespace fp
