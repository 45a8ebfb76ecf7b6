// Session-scoped incremental evaluation core (the `fpkit serve` engine).
//
// The batch flow (codesign/flow.h) evaluates one assignment end to end
// and exits; the interactive co-design loop instead edits one assignment
// thousands of times and wants the Eq.-(3) cost, congestion, IR-drop and
// DRC verdict back after every finger/pad swap. DesignSession owns that
// mutable state and propagates deltas instead of recomputing:
//
//   * Eq.-(3) cost     -- the swap engine (exchange/incremental_cost.h)
//                         that the SA loop and greedy also drive: it owns
//                         the order, the undo journal and the Eq.-(3)
//                         terms, updated per swap without a rescan.
//   * congestion map   -- every quadrant's Balanced gap densities (seeded
//                         from DensityMap at load), a histogram of gap
//                         counts with a max pointer, and one flyline term
//                         per finger, all kept per swap in O(1): a legal
//                         adjacent swap moves one crossing net between
//                         two gap windows of one bump line, and changes
//                         the flylines of the two swapped fingers only.
//                         evaluate builds no route.
//   * global router    -- per-quadrant memo of the two-layer improvement
//                         result; a swap invalidates only its own
//                         quadrant (touched nets live in it).
//   * IR-drop          -- persistent mesh + warm-started re-solve: the
//                         previous voltage field seeds the next solve
//                         (SolverOptions::warm_start), converging in a
//                         fraction of the cold iteration count while the
//                         answer stays within the declared tolerance.
//                         The supply pads are the swap engine's ring
//                         slots, mapped through a slot -> mesh node table
//                         built at load. A warm start that already meets
//                         the tolerance (no pad moved on the mesh) costs
//                         one residual pass and builds no V-cycle.
//   * DRC              -- one incremental CheckEngine (analysis/engine.h)
//                         told note_swap() per edit, so only dirty rules
//                         re-run and findings stay bit-identical to a
//                         cold scan.
//
// evaluate_cold() recomputes every figure from scratch on the current
// assignment; tests/session_test.cpp property-tests incremental ==
// cold over multi-seed random legal swap streams, which is the
// O(alpha)-per-swap -> O(affected-nets) contract of docs/SERVE.md.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "analysis/engine.h"
#include "exchange/incremental_cost.h"
#include "geom/grid2d.h"
#include "geom/point.h"
#include "package/assignment.h"
#include "package/package.h"
#include "power/ir_analysis.h"
#include "power/power_grid.h"
#include "power/solver.h"
#include "stack/stacking.h"

namespace fp {

struct SessionOptions {
  /// Eq.-(3) weights (the exchange defaults).
  double lambda = 20.0;
  double rho = 2.0;
  double phi = 1.0;
  /// Mesh + solver for the IR term.
  PowerGridSpec grid_spec;
  SolverOptions solver;
  StackingSpec stacking;
  /// Seed IR re-solves from the previous voltage field. Off = every
  /// solve is cold and bit-identical to the one-shot analyze_ir path.
  bool warm_start = true;
  /// Stages the session's CheckEngine covers; defaults to the flow's
  /// self-check gates (Package|Stacking|Assignment).
  unsigned check_stage_mask = check_stage_bit(CheckStage::Package) |
                              check_stage_bit(CheckStage::Stacking) |
                              check_stage_bit(CheckStage::Assignment);
  /// Severity overrides / waivers for the check layer.
  CheckConfig check_config;
};

/// What evaluate() should compute beyond the always-on Eq.-(3) terms and
/// the congestion/flyline figures.
struct SessionEvaluateOptions {
  bool ir = true;
  bool check = true;
  /// Two-layer global-router improvement per quadrant (memoized); off by
  /// default -- the improvement passes dominate small evaluations.
  bool global_route = false;
};

struct SessionEvaluation {
  double cost = 0.0;  // Eq. (3): lambda*disp + rho*ID + phi*omega
  double dispersion = 0.0;
  int increased_density = 0;
  int omega = 0;
  int max_density = 0;       // hottest gap over all quadrants (layer 1)
  double flyline_um = 0.0;   // total flyline wirelength
  bool have_global = false;
  int global_max_density = 0;
  bool have_ir = false;
  IrReport ir;
  bool warm_started = false;  // this evaluation's solve was warm-seeded
  bool have_check = false;
  CheckReport check;
};

struct SessionStats {
  long long swaps = 0;
  long long undos = 0;
  long long evaluations = 0;
  long long cold_evaluations = 0;
  long long router_memo_hits = 0;
  long long router_memo_misses = 0;
  long long warm_solves = 0;
  long long cold_solves = 0;
};

class DesignSession {
 public:
  /// `initial` must be monotonically legal; it becomes both the session
  /// state and the Eq.-(2) baseline every later evaluation is scored
  /// against (exactly like the exchange optimizer). The package must
  /// outlive the session.
  DesignSession(const Package& package, PackageAssignment initial,
                SessionOptions options = {});

  [[nodiscard]] const Package& package() const { return *package_; }
  [[nodiscard]] const SessionOptions& options() const { return options_; }

  /// The evolving assignment (owned by the swap engine).
  [[nodiscard]] const PackageAssignment& assignment() const {
    return state_.assignment();
  }
  /// The load-time assignment (the Eq.-(2) baseline).
  [[nodiscard]] const PackageAssignment& initial() const { return initial_; }

  /// Diagnostic when the swap of fingers (left, left+1) of `quadrant`
  /// would be illegal (out of range, or a same-row pair whose via order
  /// the monotone rule pins); nullopt when legal.
  [[nodiscard]] std::optional<std::string> swap_illegal(
      int quadrant, int left_finger) const;

  /// Applies a legal adjacent swap (throws InvalidArgument on an illegal
  /// one -- check swap_illegal first for a graceful error) and journals
  /// it for undo().
  void apply_swap(int quadrant, int left_finger);

  /// Reverts the most recent un-undone swap (adjacent swaps are
  /// involutions, so undo re-applies the same swap); false when the
  /// journal is empty.
  bool undo();

  /// Swaps currently applied (journal depth).
  [[nodiscard]] std::size_t swap_count() const {
    return state_.swap_count();
  }

  /// The delta-maintained Eq.-(3) cost of the current assignment (O(1)).
  [[nodiscard]] double cost() const { return state_.current(); }

  /// Incremental evaluation of the current assignment: the per-swap
  /// density figures, warm-started IR solve, dirty-rule-only checks.
  [[nodiscard]] SessionEvaluation evaluate(
      const SessionEvaluateOptions& what = {});

  /// From-scratch evaluation of the current assignment (fresh density
  /// maps, cold solve, cold full check scan); the equivalence oracle the
  /// tests and `fpkit serve`'s `"cold": true` mode use.
  [[nodiscard]] SessionEvaluation evaluate_cold(
      const SessionEvaluateOptions& what = {}) const;

  /// The per-swap gap densities of one quadrant, [row][gap] -- exposed
  /// so tests can compare them against a fresh DensityMap's rows.
  [[nodiscard]] const std::vector<std::vector<int>>& density_rows(
      int quadrant) const;

  [[nodiscard]] const SessionStats& stats() const { return stats_; }
  [[nodiscard]] const CheckEngine::Stats& check_stats() const {
    return engine_.stats();
  }

 private:
  /// Per net, fixed at load: where its bump is, its via (bottom-left
  /// plan) and the via-to-bump part of its flyline.
  struct NetSite {
    int row = -1;
    int col = -1;
    Point via;
    double via_to_bump_um = 0.0;
  };
  struct QuadState {
    std::vector<std::vector<int>> gap_densities;  // [row][gap]
    std::vector<Point> fingers;                   // finger positions
    std::vector<double> flyline_um;               // per finger
    bool global_valid = false;
    int global_max_density = 0;
  };

  void follow_swap(int quadrant, int left_finger);
  void move_crosser(std::vector<int>& counts, int window, int by);
  void step_gap(int& count, int by);
  int ensure_global(int quadrant);
  [[nodiscard]] CheckContext make_context() const;

  const Package* package_;
  SessionOptions options_;
  int tier_count_;
  bool has_supply_;
  PackageAssignment initial_;
  IncrementalCost state_;
  std::vector<NetSite> sites_;  // per net
  std::vector<QuadState> quads_;
  std::vector<int> gaps_at_;    // gaps holding each density value
  int max_density_ = 0;
  PowerGrid grid_;
  std::vector<IPoint> slot_nodes_;  // mesh node of each ring slot
  std::optional<Grid2D<double>> last_voltage_;
  CheckEngine engine_;
  mutable SessionStats stats_;  // evaluate_cold() counts on a const path
};

}  // namespace fp
