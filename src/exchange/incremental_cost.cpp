#include "exchange/incremental_cost.h"

#include <algorithm>
#include <bit>

#include "route/legality.h"
#include "util/error.h"

namespace fp {
namespace {

/// Cyclic gap from `from` to `to` on a ring of `size` slots.
int cyclic_gap(int from, int to, int size) {
  int gap = to - from;
  if (gap <= 0) gap += size;
  return gap;
}

}  // namespace

IncrementalCost::IncrementalCost(const Package& package,
                                 const PackageAssignment& initial,
                                 double lambda, double rho, double phi)
    : package_(&package), lambda_(lambda), rho_(rho), phi_(phi),
      tier_count_(package.netlist().tier_count()),
      alpha_(package.finger_count()), current_(initial) {
  require(static_cast<int>(initial.quadrants.size()) ==
              package.quadrant_count(),
          "IncrementalCost: assignment/package quadrant count mismatch");
  require(tier_count_ <= 32, "IncrementalCost: too many tiers");
  full_mask_ = tier_count_ == 32 ? ~0u : ((1u << tier_count_) - 1u);

  position_.assign(package.netlist().size(), IPoint{-1, -1});
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    const QuadrantAssignment& qa =
        current_.quadrants[static_cast<std::size_t>(qi)];
    require(is_monotone_legal(package.quadrant(qi), qa),
            "IncrementalCost: initial assignment is not monotone legal");
    for (int f = 0; f < static_cast<int>(qa.order.size()); ++f) {
      position_[static_cast<std::size_t>(
          qa.order[static_cast<std::size_t>(f)])] = IPoint{qi, f};
    }
    ring_offset_.push_back(package.ring_offset(qi));
  }

  // --- dispersion ---
  const std::vector<NetId> ring = current_.ring_order();
  for (int p = 0; p < alpha_; ++p) {
    if (is_supply(package.netlist().net(ring[static_cast<std::size_t>(p)])
                      .type)) {
      supply_positions_.insert(p);
    }
  }
  if (!supply_positions_.empty()) {
    for (auto it = supply_positions_.begin(); it != supply_positions_.end();
         ++it) {
      auto next = std::next(it);
      const int to = next == supply_positions_.end()
                         ? *supply_positions_.begin()
                         : *next;
      const double gap = cyclic_gap(*it, to, alpha_);
      gap_sum_sq_ += gap * gap;
    }
  }

  // --- Eq. (2) ---
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    loads_.push_back(section_loads(
        package.quadrant(qi),
        current_.quadrants[static_cast<std::size_t>(qi)]));
    base_loads_.push_back(loads_.back());
    for (std::size_t s = 0; s < loads_.back().size(); ++s) {
      deltas_.insert(0);
    }
  }

  // --- omega ---
  const std::size_t groups =
      (static_cast<std::size_t>(alpha_) +
       static_cast<std::size_t>(tier_count_) - 1) /
      static_cast<std::size_t>(tier_count_);
  group_union_.assign(groups, 0);
  for (int p = 0; p < alpha_; ++p) {
    group_union_[static_cast<std::size_t>(p / tier_count_)] |=
        1u << package.netlist().net(ring[static_cast<std::size_t>(p)]).tier;
  }
  for (const std::uint32_t value : group_union_) {
    omega_ += std::popcount(full_mask_ & ~value);
  }
}

double IncrementalCost::dispersion() const {
  if (supply_positions_.empty()) return 0.0;
  const double p = static_cast<double>(supply_positions_.size());
  const double total = static_cast<double>(alpha_);
  return gap_sum_sq_ / (total * total / p);
}

int IncrementalCost::increased_density() const {
  return deltas_.empty() ? 0 : std::max(0, *deltas_.rbegin());
}

int IncrementalCost::omega() const { return omega_; }

double IncrementalCost::current() const {
  return lambda_ * dispersion() + rho_ * increased_density() +
         phi_ * omega_;
}

bool IncrementalCost::swap_legal(int quadrant, int left_finger) const {
  if (quadrant < 0 || quadrant >= package_->quadrant_count()) return false;
  const auto& order =
      current_.quadrants[static_cast<std::size_t>(quadrant)].order;
  if (left_finger < 0 || left_finger + 1 >= static_cast<int>(order.size())) {
    return false;
  }
  const Quadrant& q = package_->quadrant(quadrant);
  return q.net_row(order[static_cast<std::size_t>(left_finger)]) !=
         q.net_row(order[static_cast<std::size_t>(left_finger + 1)]);
}

void IncrementalCost::apply_swap(int quadrant, int left_finger) {
  require(swap_legal(quadrant, left_finger),
          "IncrementalCost: illegal swap (out of range or same-row pair)");
  swap_impl(quadrant, left_finger);
  journal_.push_back(Swap{quadrant, left_finger});
}

int IncrementalCost::undo_last() {
  require(!journal_.empty(), "IncrementalCost: nothing to undo");
  const Swap last = journal_.back();
  journal_.pop_back();
  swap_impl(last.quadrant, last.left_finger);
  return last.quadrant;
}

// The caller has checked swap_legal(): apply_swap() directly, undo_last()
// by construction (swapping back a legal pair is legal).
void IncrementalCost::swap_impl(int quadrant, int left_finger) {
  auto& order = current_.quadrants[static_cast<std::size_t>(quadrant)].order;
  const Quadrant& q = package_->quadrant(quadrant);
  const Netlist& netlist = package_->netlist();
  const NetId a = order[static_cast<std::size_t>(left_finger)];
  const NetId b = order[static_cast<std::size_t>(left_finger + 1)];
  const int p = ring_offset_[static_cast<std::size_t>(quadrant)] +
                left_finger;

  std::swap(order[static_cast<std::size_t>(left_finger)],
            order[static_cast<std::size_t>(left_finger + 1)]);
  position_[static_cast<std::size_t>(a)] = IPoint{quadrant, left_finger + 1};
  position_[static_cast<std::size_t>(b)] = IPoint{quadrant, left_finger};

  // --- dispersion: exactly one supply net moves by one slot -------------
  const bool sa = is_supply(netlist.net(a).type);
  const bool sb = is_supply(netlist.net(b).type);
  if (sa != sb) {
    const int from = sa ? p : p + 1;
    const int to = sa ? p + 1 : p;
    // Remove `from`, merging its two gaps.
    if (supply_positions_.size() == 1) {
      gap_sum_sq_ = 0.0;
      supply_positions_.clear();
    } else {
      auto it = supply_positions_.find(from);
      ensure(it != supply_positions_.end(),
             "IncrementalCost: supply position desync");
      auto next = std::next(it);
      const int after = next == supply_positions_.end()
                            ? *supply_positions_.begin()
                            : *next;
      const int before = it == supply_positions_.begin()
                             ? *supply_positions_.rbegin()
                             : *std::prev(it);
      const double g1 = cyclic_gap(before, from, alpha_);
      const double g2 = cyclic_gap(from, after, alpha_);
      gap_sum_sq_ += (g1 + g2) * (g1 + g2) - g1 * g1 - g2 * g2;
      supply_positions_.erase(it);
    }
    // Insert `to`, splitting its containing gap.
    if (supply_positions_.empty()) {
      gap_sum_sq_ = static_cast<double>(alpha_) * alpha_;
      supply_positions_.insert(to);
    } else {
      auto next = supply_positions_.upper_bound(to);
      const int after = next == supply_positions_.end()
                            ? *supply_positions_.begin()
                            : *next;
      const int before = next == supply_positions_.begin()
                             ? *supply_positions_.rbegin()
                             : *std::prev(next);
      const double g = cyclic_gap(before, after, alpha_);
      const double g1 = cyclic_gap(before, to, alpha_);
      const double g2 = cyclic_gap(to, after, alpha_);
      gap_sum_sq_ += g1 * g1 + g2 * g2 - g * g;
      supply_positions_.insert(to);
    }
  }

  // --- Eq. (2): one signal net crosses a section boundary ---------------
  const bool ta = q.net_row(a) == q.top_row();
  const bool tb = q.net_row(b) == q.top_row();
  if (ta != tb) {
    // Rank of the top-row net among its row's nets (stable: same-row swaps
    // never happen, so finger order within the row is fixed).
    const NetId top_net = ta ? a : b;
    const auto& row = q.row_nets(q.top_row());
    const int rank = static_cast<int>(
        std::find(row.begin(), row.end(), top_net) - row.begin());
    auto& loads = loads_[static_cast<std::size_t>(quadrant)];
    const auto& base = base_loads_[static_cast<std::size_t>(quadrant)];
    // ta: the signal net b moves from section rank+1 to rank;
    // tb: the signal net a moves from section rank to rank+1.
    const int gain = ta ? rank : rank + 1;
    const int lose = ta ? rank + 1 : rank;
    for (const int section : {gain, lose}) {
      deltas_.erase(deltas_.find(loads[static_cast<std::size_t>(section)] -
                                 base[static_cast<std::size_t>(section)]));
    }
    ++loads[static_cast<std::size_t>(gain)];
    --loads[static_cast<std::size_t>(lose)];
    for (const int section : {gain, lose}) {
      deltas_.insert(loads[static_cast<std::size_t>(section)] -
                     base[static_cast<std::size_t>(section)]);
    }
  }

  // --- omega: rebuild the touched groups when the swap straddles one ----
  const int g1 = p / tier_count_;
  const int g2 = (p + 1) / tier_count_;
  if (g1 != g2) {
    const std::vector<NetId> ring = current_.ring_order();
    for (const int g : {g1, g2}) {
      auto& value = group_union_[static_cast<std::size_t>(g)];
      omega_ -= std::popcount(full_mask_ & ~value);
      value = 0;
      const int start = g * tier_count_;
      const int end = std::min(start + tier_count_, alpha_);
      for (int i = start; i < end; ++i) {
        value |= 1u << netlist.net(ring[static_cast<std::size_t>(i)]).tier;
      }
      omega_ += std::popcount(full_mask_ & ~value);
    }
  }
}

}  // namespace fp
