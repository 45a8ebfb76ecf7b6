#include "session/session.h"

#include <algorithm>

#include "exchange/increased_density.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "route/global_router.h"
#include "util/error.h"

namespace fp {

DesignSession::DesignSession(const Package& package,
                             PackageAssignment initial,
                             SessionOptions options)
    : package_(&package), options_(std::move(options)),
      tier_count_(package.netlist().tier_count()),
      has_supply_(!package.netlist().supply_nets().empty()),
      initial_(std::move(initial)),
      state_(package, initial_, options_.lambda, options_.rho, options_.phi),
      grid_(options_.grid_spec),
      ring_(package, options_.grid_spec.nodes_per_side) {
  require(options_.lambda >= 0.0 && options_.rho >= 0.0 &&
              options_.phi >= 0.0,
          "DesignSession: Eq.-(3) weights must be non-negative");
  quads_.resize(static_cast<std::size_t>(package.quadrant_count()));
  engine_ = CheckEngine(CheckEngineOptions{options_.check_config,
                                           options_.check_stage_mask});
}

std::optional<std::string> DesignSession::swap_illegal(
    int quadrant, int left_finger) const {
  if (state_.swap_legal(quadrant, left_finger)) return std::nullopt;
  if (quadrant < 0 || quadrant >= package_->quadrant_count()) {
    return "quadrant " + std::to_string(quadrant) + " out of range [0, " +
           std::to_string(package_->quadrant_count()) + ")";
  }
  const auto& order =
      assignment().quadrants[static_cast<std::size_t>(quadrant)].order;
  if (left_finger < 0 ||
      left_finger + 1 >= static_cast<int>(order.size())) {
    return "finger " + std::to_string(left_finger) +
           " out of range [0, " + std::to_string(order.size()) +
           " - 1) for quadrant " + std::to_string(quadrant);
  }
  return "fingers " + std::to_string(left_finger) + "," +
         std::to_string(left_finger + 1) + " of quadrant " +
         std::to_string(quadrant) +
         " hold same-row nets; the swap would reverse their via order "
         "(monotone rule)";
}

void DesignSession::touch(int quadrant) {
  QuadCache& cache = quads_[static_cast<std::size_t>(quadrant)];
  cache.valid = false;
  cache.global_valid = false;
  engine_.note_swap();
}

void DesignSession::apply_swap(int quadrant, int left_finger) {
  if (const auto why = swap_illegal(quadrant, left_finger)) {
    throw InvalidArgument("DesignSession::apply_swap: " + *why);
  }
  state_.apply_swap(quadrant, left_finger);
  touch(quadrant);
  ++stats_.swaps;
  if (obs::metrics_enabled()) obs::count("session.swaps");
}

bool DesignSession::undo() {
  if (state_.swap_count() == 0) return false;
  touch(state_.undo_last());
  ++stats_.undos;
  if (obs::metrics_enabled()) obs::count("session.undos");
  return true;
}

const DesignSession::QuadCache& DesignSession::ensure_quadrant(
    int quadrant) {
  QuadCache& cache = quads_[static_cast<std::size_t>(quadrant)];
  if (cache.valid) {
    ++stats_.density_reuses;
    return cache;
  }
  const MonotonicRouter router(options_.routing);
  const QuadrantRoute route = router.route(
      package_->quadrant(quadrant),
      assignment().quadrants[static_cast<std::size_t>(quadrant)]);
  cache.max_density = route.max_density;
  cache.flyline_um = route.total_flyline_um;
  cache.gap_densities = route.gap_densities;
  cache.valid = true;
  ++stats_.density_rebuilds;
  return cache;
}

int DesignSession::ensure_global(int quadrant) {
  QuadCache& cache = quads_[static_cast<std::size_t>(quadrant)];
  if (cache.global_valid) {
    ++stats_.router_memo_hits;
    return cache.global_max_density;
  }
  const GlobalRouter router;
  const Quadrant& q = package_->quadrant(quadrant);
  const QuadrantAssignment& qa =
      assignment().quadrants[static_cast<std::size_t>(quadrant)];
  const GlobalRouteConfig config = router.improve(q, qa);
  cache.global_max_density = router.evaluate(q, qa, config).max_density();
  cache.global_valid = true;
  ++stats_.router_memo_misses;
  return cache.global_max_density;
}

const std::vector<std::vector<int>>& DesignSession::density_rows(
    int quadrant) {
  require(quadrant >= 0 && quadrant < package_->quadrant_count(),
          "DesignSession::density_rows: quadrant out of range");
  return ensure_quadrant(quadrant).gap_densities;
}

CheckContext DesignSession::make_context() const {
  CheckContext context;
  context.package = package_;
  context.assignment = &state_.assignment();
  context.strategy = options_.routing;
  context.grid_spec = options_.grid_spec;
  context.solver = options_.solver;
  context.stacking = options_.stacking;
  return context;
}

SessionEvaluation DesignSession::evaluate(
    const SessionEvaluateOptions& what) {
  const obs::ScopedSpan span("session.evaluate", "session");
  SessionEvaluation ev;
  ev.cost = state_.current();
  ev.dispersion = state_.dispersion();
  ev.increased_density = state_.increased_density();
  ev.omega = state_.omega();
  for (int qi = 0; qi < package_->quadrant_count(); ++qi) {
    const QuadCache& cache = ensure_quadrant(qi);
    ev.max_density = std::max(ev.max_density, cache.max_density);
    ev.flyline_um += cache.flyline_um;
  }
  if (what.global_route) {
    ev.have_global = true;
    for (int qi = 0; qi < package_->quadrant_count(); ++qi) {
      ev.global_max_density =
          std::max(ev.global_max_density, ensure_global(qi));
    }
  }
  if (what.ir && has_supply_) {
    grid_.set_pads(ring_.supply_nodes(assignment()));
    SolverOptions solver = options_.solver;
    if (options_.warm_start && last_voltage_.has_value()) {
      solver.warm_start = &*last_voltage_;
      ++stats_.warm_solves;
    } else {
      ++stats_.cold_solves;
    }
    const SolveResult solved = solve(grid_, solver);
    ev.have_ir = true;
    ev.warm_started = solved.warm_started;
    ev.ir.max_drop_v = max_ir_drop(grid_, solved);
    ev.ir.mean_drop_v = mean_ir_drop(grid_, solved);
    ev.ir.supply_pad_count = static_cast<int>(grid_.pads().size());
    ev.ir.solver_iterations = solved.iterations;
    ev.ir.converged = solved.converged;
    ev.ir.solver_stop = solved.stop;
    ev.ir.solver_attempts = static_cast<int>(solved.attempts.size());
    last_voltage_ = solved.voltage;
  }
  if (what.check) {
    ev.have_check = true;
    ev.check = engine_.run(make_context());
  }
  ++stats_.evaluations;
  if (obs::metrics_enabled()) obs::count("session.evaluations");
  return ev;
}

SessionEvaluation DesignSession::evaluate_cold(
    const SessionEvaluateOptions& what) const {
  const obs::ScopedSpan span("session.evaluate_cold", "session");
  const PackageAssignment& current = assignment();
  SessionEvaluation ev;
  // The same Eq.-(3) the delta path maintains, recomputed from scratch:
  // the incremental evaluator's Eq.-(2) baseline is the load-time
  // assignment, so the cold twin scores against initial_ too.
  const IncreasedDensity id_tracker(*package_, initial_);
  ev.increased_density = id_tracker.evaluate(current);
  ev.dispersion =
      has_supply_
          ? supply_dispersion(current.ring_order(), package_->netlist())
          : 0.0;
  ev.omega = omega_zero_bits(current.ring_order(), package_->netlist(),
                             tier_count_);
  ev.cost = options_.lambda * ev.dispersion +
            options_.rho * ev.increased_density + options_.phi * ev.omega;
  ev.max_density = max_density(*package_, current, options_.routing);
  ev.flyline_um = total_flyline_um(*package_, current);
  if (what.global_route) {
    ev.have_global = true;
    const GlobalRouter router;
    for (int qi = 0; qi < package_->quadrant_count(); ++qi) {
      const Quadrant& q = package_->quadrant(qi);
      const QuadrantAssignment& qa =
          current.quadrants[static_cast<std::size_t>(qi)];
      const GlobalCongestion congestion =
          router.evaluate(q, qa, router.improve(q, qa));
      ev.global_max_density =
          std::max(ev.global_max_density, congestion.max_density());
    }
  }
  if (what.ir && has_supply_) {
    PowerGrid grid(options_.grid_spec);
    grid.set_pads(ring_.supply_nodes(current));
    const SolveResult solved = solve(grid, options_.solver);
    ev.have_ir = true;
    ev.warm_started = solved.warm_started;
    ev.ir.max_drop_v = max_ir_drop(grid, solved);
    ev.ir.mean_drop_v = mean_ir_drop(grid, solved);
    ev.ir.supply_pad_count = static_cast<int>(grid.pads().size());
    ev.ir.solver_iterations = solved.iterations;
    ev.ir.converged = solved.converged;
    ev.ir.solver_stop = solved.stop;
    ev.ir.solver_attempts = static_cast<int>(solved.attempts.size());
  }
  if (what.check) {
    ev.have_check = true;
    CheckEngine cold_engine(CheckEngineOptions{options_.check_config,
                                               options_.check_stage_mask});
    ev.check = cold_engine.run_full(make_context());
  }
  ++stats_.cold_evaluations;
  return ev;
}

}  // namespace fp
