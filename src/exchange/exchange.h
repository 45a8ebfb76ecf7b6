// Finger/pad exchange for IR-drop and bonding-wire improvement (Fig. 14).
//
// Starting from a congestion-driven assignment, simulated annealing swaps
// adjacent fingers -- a random power pad when the design is 2-D (psi = 1),
// any pad when it is a stacking IC (psi > 1) -- under the monotone range
// constraint (a swap of two nets bumped on the same row would reverse their
// via order and is rejected). The cost is the paper's Eq. (3):
//
//     Cost = lambda * delta_IR + rho * ID + phi * omega
//
// with delta_IR the fast pad-spacing proxy of pad_ring.h (or, optionally,
// an exact Eq.-(1) mesh solve per evaluation), ID the Eq.-(2) congestion
// growth estimate, and omega the stacking interleaving metric.
#pragma once

#include "exchange/annealer.h"
#include "exchange/increased_density.h"
#include "exchange/incremental_cost.h"
#include "package/assignment.h"
#include "package/package.h"
#include "power/power_grid.h"
#include "power/solver.h"
#include "stack/stacking.h"

namespace fp {

enum class IrCostMode {
  /// Supply-pad spacing dispersion along the ring (the paper's "variation
  /// of dx and dy"); constant-time, used inside the SA loop.
  Proxy,
  /// Cold Eq.-(1) mesh solve per cost evaluation, about three orders of
  /// magnitude slower (compared in bench_ablation_optimizer).
  Exact,
};

struct ExchangeOptions {
  /// Eq. (3) weights.
  double lambda = 20.0;
  double rho = 2.0;
  double phi = 1.0;
  SaSchedule schedule;
  IrCostMode ir_mode = IrCostMode::Proxy;
  /// Mesh used when ir_mode is Exact (and by callers for before/after
  /// scoring).
  PowerGridSpec grid_spec;
  SolverOptions solver;
};

struct ExchangeResult {
  PackageAssignment assignment;
  AnnealResult anneal;
  double ir_cost_before = 0.0;
  double ir_cost_after = 0.0;
  int omega_before = 0;
  int omega_after = 0;
  int increased_density = 0;  // Eq. (2) vs the initial assignment
};

class ExchangeOptimizer {
 public:
  ExchangeOptimizer(const Package& package, ExchangeOptions options);

  /// Runs the annealing from `initial` (which must be monotonically legal
  /// and, for 2-D designs, contain at least one supply net).
  [[nodiscard]] ExchangeResult optimize(
      const PackageAssignment& initial) const;

  /// Runs `starts` independent annealings (seeds schedule.seed,
  /// schedule.seed+1, ...) and returns the one with the lowest final
  /// Eq.-(3) cost.
  [[nodiscard]] ExchangeResult optimize_multistart(
      const PackageAssignment& initial, int starts) const;

  /// Eq. (3) evaluated on an assignment (exposed for tests and ablations).
  [[nodiscard]] double cost(const PackageAssignment& assignment,
                            const IncreasedDensity& id_tracker) const;
  /// Eq. (3) of the swap engine's order, bit-equal to the cost() above.
  [[nodiscard]] double cost(const IncrementalCost& state) const;

  /// The delta_IR term alone, under the configured IrCostMode (exposed for
  /// the greedy baseline and ablations).
  [[nodiscard]] double ir_cost(const PackageAssignment& assignment) const;

 private:
  const Package* package_;
  ExchangeOptions options_;
  int tier_count_;
  bool has_supply_;
};

}  // namespace fp
