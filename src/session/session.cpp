#include "session/session.h"

#include <algorithm>

#include "exchange/increased_density.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "power/pad_ring.h"
#include "route/density.h"
#include "route/global_router.h"
#include "route/router.h"
#include "util/error.h"

namespace fp {
namespace {

/// One finger's flyline, finger -> via -> bump (MonotonicRouter's sum).
double flyline_term(Point finger, Point via, double via_to_bump_um) {
  return euclidean(finger, via) + via_to_bump_um;
}

}  // namespace

DesignSession::DesignSession(const Package& package,
                             PackageAssignment initial,
                             SessionOptions options)
    : package_(&package), options_(std::move(options)),
      tier_count_(package.netlist().tier_count()),
      has_supply_(!package.netlist().supply_nets().empty()),
      initial_(std::move(initial)),
      state_(package, initial_, options_.lambda, options_.rho, options_.phi),
      grid_(options_.grid_spec) {
  require(options_.lambda >= 0.0 && options_.rho >= 0.0 &&
              options_.phi >= 0.0,
          "DesignSession: Eq.-(3) weights must be non-negative");
  engine_ = CheckEngine(CheckEngineOptions{{}, kSelfCheckStages});
  const PadRing ring(package, options_.grid_spec.nodes_per_side);
  for (int slot = 0; slot < ring.slot_count(); ++slot) {
    slot_nodes_.push_back(ring.node_of_slot(slot));
  }

  // The congestion model: DensityMap's rows under the default bottom-left
  // plan and Balanced crossing, a histogram of every gap's count, and the
  // flyline term of every finger. Swaps then keep all three (follow_swap).
  sites_.assign(package.netlist().size(), NetSite{});
  gaps_at_.assign(static_cast<std::size_t>(package.finger_count()) + 1, 0);
  quads_.resize(static_cast<std::size_t>(package.quadrant_count()));
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    const Quadrant& q = package.quadrant(qi);
    const QuadrantAssignment& qa =
        initial_.quadrants[static_cast<std::size_t>(qi)];
    QuadState& quad = quads_[static_cast<std::size_t>(qi)];
    const DensityMap density(q, qa);
    for (int r = 0; r < q.row_count(); ++r) {
      quad.gap_densities.push_back(density.row_densities(r));
      for (const int count : quad.gap_densities.back()) {
        ++gaps_at_[static_cast<std::size_t>(count)];
        max_density_ = std::max(max_density_, count);
      }
      const std::vector<NetId>& row = q.row_nets(r);
      for (int c = 0; c < static_cast<int>(row.size()); ++c) {
        const Point via = q.via_position(r, c);
        sites_[static_cast<std::size_t>(row[static_cast<std::size_t>(c)])] =
            NetSite{r, c, via, euclidean(via, q.bump_position(r, c))};
      }
    }
    for (int a = 0; a < qa.size(); ++a) {
      const Point finger = q.finger_position(a);
      const NetId net = qa.order[static_cast<std::size_t>(a)];
      const NetSite& site = sites_[static_cast<std::size_t>(net)];
      quad.fingers.push_back(finger);
      quad.flyline_um.push_back(
          flyline_term(finger, site.via, site.via_to_bump_um));
    }
  }
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

void DesignSession::apply_swap(int quadrant, int left_finger) {
  if (const auto why = swap_illegal(quadrant, left_finger)) {
    throw InvalidArgument("DesignSession::apply_swap: " + *why);
  }
  state_.apply_swap(quadrant, left_finger);
  follow_swap(quadrant, left_finger);
  ++stats_.swaps;
  if (obs::metrics_enabled()) obs::count("session.swaps");
}

bool DesignSession::undo() {
  if (state_.swap_count() == 0) return false;
  const IPoint undone = state_.undo_last();
  follow_swap(undone.x, undone.y);
  ++stats_.undos;
  if (obs::metrics_enabled()) obs::count("session.undos");
  return true;
}

// The engine has just swapped fingers (f, f+1) of `quadrant`; an undo is
// the same swap again. The two nets bump on rows ra != rb, and only bump
// line r = max(ra, rb) sees a change: there one of them terminates, at
// column c, and the other crosses. Terminators left of a crosser pick its
// gap window, so the crosser steps from window c to c+1 when it started
// left of the terminator, and from c+1 to c when it started right of it.
// Above line r both nets cross in one window; between the two rows only
// the deeper net crosses, and no terminator passes it.
void DesignSession::follow_swap(int quadrant, int left_finger) {
  QuadState& quad = quads_[static_cast<std::size_t>(quadrant)];
  const auto& order =
      assignment().quadrants[static_cast<std::size_t>(quadrant)].order;
  const auto f = static_cast<std::size_t>(left_finger);
  const NetSite& was_left = sites_[static_cast<std::size_t>(order[f + 1])];
  const NetSite& was_right = sites_[static_cast<std::size_t>(order[f])];
  const bool crosser_was_left = was_left.row < was_right.row;
  const NetSite& terminator = crosser_was_left ? was_right : was_left;
  std::vector<int>& counts =
      quad.gap_densities[static_cast<std::size_t>(terminator.row)];
  move_crosser(counts, crosser_was_left ? terminator.col
                                        : terminator.col + 1, -1);
  move_crosser(counts, crosser_was_left ? terminator.col + 1
                                        : terminator.col, +1);

  quad.flyline_um[f] =
      flyline_term(quad.fingers[f], was_right.via, was_right.via_to_bump_um);
  quad.flyline_um[f + 1] = flyline_term(quad.fingers[f + 1], was_left.via,
                                        was_left.via_to_bump_um);

  quad.global_valid = false;
  engine_.note_swap();
}

// Adds `by` crossers to gap window `window` of one line with m bumps.
// Under the bottom-left plan a window t < m is the single gap t; window m,
// right of the last terminator, spreads its k crossers Balanced over gaps
// m and m+1 (DensityMap puts crosser u in gap m + 2u/k), ceil(k/2) and
// floor(k/2). Either way exactly one gap count moves by `by`.
void DesignSession::move_crosser(std::vector<int>& counts, int window,
                                 int by) {
  const std::size_t m = counts.size() - 2;
  auto gap = static_cast<std::size_t>(window);
  if (gap == m) {
    const int k = counts[m] + counts[m + 1] + by;
    if (counts[m] == (k + 1) / 2) gap = m + 1;
  }
  step_gap(counts[gap], by);
}

// Moves one gap count by +-1 in the package's count histogram; the max
// pointer then moves at most one step.
void DesignSession::step_gap(int& count, int by) {
  --gaps_at_[static_cast<std::size_t>(count)];
  count += by;
  ++gaps_at_[static_cast<std::size_t>(count)];
  if (count > max_density_) {
    max_density_ = count;
  } else if (gaps_at_[static_cast<std::size_t>(max_density_)] == 0) {
    --max_density_;
  }
}

int DesignSession::ensure_global(int quadrant) {
  QuadState& cache = quads_[static_cast<std::size_t>(quadrant)];
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
    int quadrant) const {
  require(quadrant >= 0 && quadrant < package_->quadrant_count(),
          "DesignSession::density_rows: quadrant out of range");
  return quads_[static_cast<std::size_t>(quadrant)].gap_densities;
}

CheckContext DesignSession::make_context() const {
  CheckContext context;
  context.package = package_;
  context.assignment = &state_.assignment();
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
  ev.max_density = max_density_;
  // Per quadrant in finger order, then quadrant by quadrant: the router's
  // summation order, so the total keeps its bits.
  for (const QuadState& quad : quads_) {
    double quadrant_um = 0.0;
    for (const double term : quad.flyline_um) quadrant_um += term;
    ev.flyline_um += quadrant_um;
  }
  if (what.global_route) {
    ev.have_global = true;
    for (int qi = 0; qi < package_->quadrant_count(); ++qi) {
      ev.global_max_density =
          std::max(ev.global_max_density, ensure_global(qi));
    }
  }
  if (what.ir && has_supply_) {
    // The engine keeps the supply pads' ring slots, ascending, as
    // PadRing::supply_nodes() would list them.
    std::vector<IPoint> pads;
    pads.reserve(state_.supply_slots().size());
    for (const int slot : state_.supply_slots()) {
      pads.push_back(slot_nodes_[static_cast<std::size_t>(slot)]);
    }
    grid_.set_pads(pads);
    SolverOptions solver = options_.solver;
    if (options_.warm_start && last_voltage_.has_value()) {
      solver.warm_start = &*last_voltage_;
      ++stats_.warm_solves;
    } else {
      ++stats_.cold_solves;
    }
    SolveResult solved = solve(grid_, solver);
    ev.have_ir = true;
    ev.warm_started = solved.warm_started;
    ev.ir = ir_report(grid_, solved, pads.size());
    last_voltage_ = std::move(solved.voltage);
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
  ev.max_density = max_density(*package_, current);
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
    ev.have_ir = true;
    ev.ir = analyze_ir(*package_, current, options_.grid_spec,
                       options_.solver);
  }
  if (what.check) {
    ev.have_check = true;
    CheckEngine cold_engine(CheckEngineOptions{{}, kSelfCheckStages});
    ev.check = cold_engine.run_full(make_context());
  }
  ++stats_.cold_evaluations;
  return ev;
}

}  // namespace fp
