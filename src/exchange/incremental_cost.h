// The one mutable finger order of fpkit, with the Eq.-(3) cost kept up to
// date under adjacent finger swaps.
//
// Every finger/pad exchange -- the SA loop and the greedy hill climber of
// this directory, the interactive DesignSession of src/session/ -- runs
// the Fig.-14 loop: propose an adjacent swap under the monotone range
// constraint, score Eq. (3), keep or revert it. This class is that loop's
// whole state: the order, the net -> (quadrant, finger) index, the one
// legality predicate, the Eq.-(3) terms and an unbounded swap journal.
// Callers never write an order themselves. An adjacent swap is an
// involution, so undo_last() re-applies the newest journalled swap, and
// any number of undos rewinds the order swap by swap.
//
// Recomputing dispersion, ID and omega in full costs O(alpha) each, but
// each changes only locally under an adjacent swap. A swap reads tables
// built once and does no search and no allocation:
//   * dispersion, O(1) -- supply pads are kept by rank in ring order. A
//     pad that swaps with a signal pad keeps its rank, so only its gaps to
//     ranks r-1 and r+1 change; two swapped supply pads trade ranks;
//   * ID (Eq. 2), O(1) -- when exactly one swapped net is a top-row net,
//     one signal net moves between two adjacent sections. A histogram of
//     section deltas (load - baseline) keeps the max, which moves by <= 1;
//   * omega, O(psi)    -- when the swap straddles a psi-group boundary,
//     the two touched groups' unions are rebuilt from the slots' tiers. At
//     psi = 1 every slot is its own group holding every tier, so omega is
//     0 and nothing is rebuilt.
// One const computation finds what a swap changes in these terms: a
// proposal is scored through it without making the swap (swap_cost), and
// a swap made applies what it found. Equivalence with the full
// recomputation is property-tested over random legal swap and multi-level
// undo sequences.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "package/assignment.h"
#include "package/package.h"

namespace fp {

class IncrementalCost {
 public:
  /// `initial` must be monotonically legal. It is the starting order and
  /// the Eq.-(2) baseline every later order is scored against.
  IncrementalCost(const Package& package, const PackageAssignment& initial,
                  double lambda, double rho, double phi);

  /// Current Eq.-(3) value (Proxy IR mode).
  [[nodiscard]] double current() const;

  /// Individual terms, for tests and reporting.
  [[nodiscard]] double dispersion() const;
  [[nodiscard]] int increased_density() const;
  [[nodiscard]] int omega() const;

  /// The evolving order.
  [[nodiscard]] const PackageAssignment& assignment() const {
    return current_;
  }

  /// The ring slots of the supply pads, ascending: the same list as
  /// PadRing::supply_slots(assignment()), kept per swap.
  [[nodiscard]] const std::vector<int>& supply_slots() const {
    return supply_pos_;
  }

  /// Where `net` sits now: x = quadrant, y = finger index.
  [[nodiscard]] IPoint position(NetId net) const {
    return position_[static_cast<std::size_t>(net)];
  }

  /// True when fingers (left, left+1) of `quadrant` exist and hold nets
  /// bumped on different rows. Swapping a same-row pair would reverse
  /// their via order, which the monotone range constraint forbids.
  [[nodiscard]] bool swap_legal(int quadrant, int left_finger) const;

  /// The current() that apply_swap(quadrant, left_finger) would leave, to
  /// the bit, without making the swap. Requires swap_legal().
  [[nodiscard]] double swap_cost(int quadrant, int left_finger) const;

  /// Applies the swap of fingers (left, left+1) of `quadrant` and
  /// journals it; throws InvalidArgument unless swap_legal().
  void apply_swap(int quadrant, int left_finger);

  /// Reverts the newest journalled swap and returns where it was: x =
  /// quadrant, y = left finger. Throws InvalidArgument when the journal
  /// is empty.
  IPoint undo_last();

  /// Swaps currently applied (journal depth).
  [[nodiscard]] std::size_t swap_count() const { return journal_.size(); }

 private:
  struct Swap {
    int quadrant = -1;
    int left_finger = -1;
  };
  /// Per net; `row` and `top_rank` (-1 off the top row) never change.
  struct NetEntry {
    int row = -1;
    int top_rank = -1;
    int supply_rank = -1;
  };

  /// What the swap of fingers (left, left+1) of a quadrant changes: the
  /// new value of each Eq.-(3) term's state and where it changes.
  struct SwapEffect {
    std::int64_t gap_sum_sq = 0;
    int max_delta = 0;
    int omega = 0;
    /// Two supply pads trade ranks; their slots stay supply slots.
    bool trade_ranks = false;
    /// The supply rank that steps over a signal pad, and its new slot.
    int moving_rank = -1;
    int moving_to = -1;
    /// The Eq.-(2) sections that gain and lose a signal net.
    int gaining_section = -1;
    int losing_section = -1;
    /// The straddled psi-groups `group` and `group + 1`, rebuilt.
    int group = -1;
    std::uint32_t unions[2] = {0, 0};
  };

  [[nodiscard]] SwapEffect effect_of(int quadrant, int left_finger) const;
  /// Eq. (3) of the given term states: current() on this state's values,
  /// swap_cost() on a SwapEffect's.
  [[nodiscard]] double cost_of(std::int64_t gap_sum_sq, int max_delta,
                               int omega) const;
  [[nodiscard]] double dispersion_of(std::int64_t gap_sum_sq) const;
  void swap_impl(int quadrant, int left_finger);

  double lambda_;
  double rho_;
  double phi_;
  int tier_count_;
  int alpha_;

  PackageAssignment current_;
  std::vector<IPoint> position_;  // per net
  std::vector<NetEntry> nets_;    // per net
  std::vector<int> ring_offset_;  // per quadrant
  std::vector<Swap> journal_;

  // --- dispersion: ring slot of each supply pad, by rank ---
  std::vector<int> supply_pos_;
  std::int64_t gap_sum_sq_ = 0;
  double even_gap_sum_sq_ = 0.0;

  // --- Eq. (2): section load minus baseline, flat over quadrants ---
  std::vector<int> section_offset_;  // per quadrant
  std::vector<int> delta_;
  std::vector<int> delta_count_;  // sections per delta, index delta + alpha
  int max_delta_ = 0;

  // --- omega ---
  std::vector<int> slot_tier_;  // per ring slot
  std::vector<std::uint32_t> group_union_;
  int omega_ = 0;
  std::uint32_t full_mask_ = 0;
};

}  // namespace fp
