#include "exchange/incremental_cost.h"

#include <algorithm>
#include <bit>

#include "route/legality.h"
#include "util/error.h"

namespace fp {
namespace {

/// Square of the cyclic gap from `from` to `to` on a ring of `size` slots.
std::int64_t squared_gap(int from, int to, int size) {
  std::int64_t gap = to - from;
  if (gap <= 0) gap += size;
  return gap * gap;
}

/// Union of the tiers in ring slots [begin, end).
std::uint32_t tier_union(const std::vector<int>& slot_tier, std::size_t begin,
                         std::size_t end) {
  std::uint32_t value = 0;
  for (std::size_t i = begin; i < end; ++i) value |= 1u << slot_tier[i];
  return value;
}

}  // namespace

IncrementalCost::IncrementalCost(const Package& package,
                                 const PackageAssignment& initial,
                                 double lambda, double rho, double phi)
    : lambda_(lambda), rho_(rho), phi_(phi),
      tier_count_(package.netlist().tier_count()),
      alpha_(package.finger_count()), current_(initial) {
  require(static_cast<int>(initial.quadrants.size()) ==
              package.quadrant_count(),
          "IncrementalCost: assignment/package quadrant count mismatch");
  require(tier_count_ <= 32, "IncrementalCost: too many tiers");
  full_mask_ = tier_count_ == 32 ? ~0u : ((1u << tier_count_) - 1u);

  const Netlist& netlist = package.netlist();
  position_.assign(netlist.size(), IPoint{-1, -1});
  nets_.assign(netlist.size(), NetEntry{});
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    const Quadrant& q = package.quadrant(qi);
    const QuadrantAssignment& qa =
        current_.quadrants[static_cast<std::size_t>(qi)];
    require(is_monotone_legal(q, qa),
            "IncrementalCost: initial assignment is not monotone legal");
    for (int f = 0; f < static_cast<int>(qa.order.size()); ++f) {
      position_[static_cast<std::size_t>(
          qa.order[static_cast<std::size_t>(f)])] = IPoint{qi, f};
    }
    for (int r = 0; r < q.row_count(); ++r) {
      const std::vector<NetId>& row = q.row_nets(r);
      for (std::size_t c = 0; c < row.size(); ++c) {
        NetEntry& entry = nets_[static_cast<std::size_t>(row[c])];
        entry.row = r;
        if (r == q.top_row()) entry.top_rank = static_cast<int>(c);
      }
    }
    ring_offset_.push_back(package.ring_offset(qi));
    // x top-row nets split the quadrant into x + 1 sections, at delta 0.
    section_offset_.push_back(static_cast<int>(delta_.size()));
    delta_.resize(delta_.size() + q.row_nets(q.top_row()).size() + 1);
  }
  // Every load lies in [0, alpha], so every delta lies in [-alpha, alpha].
  delta_count_.assign(2 * static_cast<std::size_t>(alpha_) + 1, 0);
  delta_count_[static_cast<std::size_t>(alpha_)] =
      static_cast<int>(delta_.size());

  const std::vector<NetId> ring = current_.ring_order();
  for (int p = 0; p < alpha_; ++p) {
    const NetId id = ring[static_cast<std::size_t>(p)];
    const Net& net = netlist.net(id);
    slot_tier_.push_back(net.tier);
    if (is_supply(net.type)) {
      nets_[static_cast<std::size_t>(id)].supply_rank =
          static_cast<int>(supply_pos_.size());
      supply_pos_.push_back(p);
    }
  }
  for (std::size_t r = 0; r < supply_pos_.size(); ++r) {
    gap_sum_sq_ += squared_gap(supply_pos_[r],
                               supply_pos_[(r + 1) % supply_pos_.size()],
                               alpha_);
  }
  // The supply count never changes, so neither does the even-spacing sum
  // supply_dispersion() divides by (p gaps of alpha / p slots).
  if (!supply_pos_.empty()) {
    const auto total = static_cast<double>(alpha_);
    even_gap_sum_sq_ = total * total / static_cast<double>(supply_pos_.size());
  }
  const auto psi = static_cast<std::size_t>(tier_count_);
  for (std::size_t start = 0; start < slot_tier_.size(); start += psi) {
    group_union_.push_back(tier_union(
        slot_tier_, start, std::min(start + psi, slot_tier_.size())));
    omega_ += std::popcount(full_mask_ & ~group_union_.back());
  }
}

double IncrementalCost::dispersion() const {
  return dispersion_of(gap_sum_sq_);
}

double IncrementalCost::dispersion_of(std::int64_t gap_sum_sq) const {
  return supply_pos_.empty()
             ? 0.0
             : static_cast<double>(gap_sum_sq) / even_gap_sum_sq_;
}

int IncrementalCost::increased_density() const {
  return std::max(0, max_delta_);
}

int IncrementalCost::omega() const { return omega_; }

double IncrementalCost::current() const {
  return cost_of(gap_sum_sq_, max_delta_, omega_);
}

double IncrementalCost::cost_of(std::int64_t gap_sum_sq, int max_delta,
                                int omega) const {
  return lambda_ * dispersion_of(gap_sum_sq) + rho_ * std::max(0, max_delta) +
         phi_ * omega;
}

double IncrementalCost::swap_cost(int quadrant, int left_finger) const {
  const SwapEffect effect = effect_of(quadrant, left_finger);
  return cost_of(effect.gap_sum_sq, effect.max_delta, effect.omega);
}

bool IncrementalCost::swap_legal(int quadrant, int left_finger) const {
  const auto q = static_cast<std::size_t>(quadrant);
  if (quadrant < 0 || q >= current_.quadrants.size()) return false;
  const auto& order = current_.quadrants[q].order;
  if (left_finger < 0 || left_finger + 1 >= static_cast<int>(order.size())) {
    return false;
  }
  const auto f = static_cast<std::size_t>(left_finger);
  return nets_[static_cast<std::size_t>(order[f])].row !=
         nets_[static_cast<std::size_t>(order[f + 1])].row;
}

void IncrementalCost::apply_swap(int quadrant, int left_finger) {
  require(swap_legal(quadrant, left_finger),
          "IncrementalCost: illegal swap (out of range or same-row pair)");
  swap_impl(quadrant, left_finger);
  journal_.push_back(Swap{quadrant, left_finger});
}

IPoint IncrementalCost::undo_last() {
  require(!journal_.empty(), "IncrementalCost: nothing to undo");
  const Swap last = journal_.back();
  journal_.pop_back();
  swap_impl(last.quadrant, last.left_finger);
  return IPoint{last.quadrant, last.left_finger};
}

// The caller has checked swap_legal(): apply_swap() directly, undo_last()
// by construction (swapping back a legal pair is legal).
IncrementalCost::SwapEffect IncrementalCost::effect_of(
    int quadrant, int left_finger) const {
  const auto q = static_cast<std::size_t>(quadrant);
  const auto& order = current_.quadrants[q].order;
  const auto f = static_cast<std::size_t>(left_finger);
  const NetEntry& ea = nets_[static_cast<std::size_t>(order[f])];
  const NetEntry& eb = nets_[static_cast<std::size_t>(order[f + 1])];
  const int p = ring_offset_[q] + left_finger;
  SwapEffect effect;
  effect.gap_sum_sq = gap_sum_sq_;
  effect.max_delta = max_delta_;
  effect.omega = omega_;

  // --- dispersion ---------------------------------------------------------
  if (ea.supply_rank >= 0 && eb.supply_rank >= 0) {
    // Two supply pads trade ranks; the set of supply slots is unchanged.
    effect.trade_ranks = true;
  } else if (ea.supply_rank >= 0 || eb.supply_rank >= 0) {
    // One supply pad steps over a signal pad, so the cyclic order of the
    // supply pads holds and only its gaps to ranks r-1 and r+1 change.
    const bool a_moves = ea.supply_rank >= 0;
    effect.moving_rank = a_moves ? ea.supply_rank : eb.supply_rank;
    const auto rank = static_cast<std::size_t>(effect.moving_rank);
    const int from = a_moves ? p : p + 1;
    effect.moving_to = a_moves ? p + 1 : p;
    ensure(supply_pos_[rank] == from,
           "IncrementalCost: supply position desync");
    const std::size_t count = supply_pos_.size();
    if (count > 1) {
      const int to = effect.moving_to;
      const int before = supply_pos_[(rank == 0 ? count : rank) - 1];
      const int after = supply_pos_[rank + 1 == count ? 0 : rank + 1];
      effect.gap_sum_sq += squared_gap(before, to, alpha_) +
                           squared_gap(to, after, alpha_) -
                           squared_gap(before, from, alpha_) -
                           squared_gap(from, after, alpha_);
    }
  }

  // --- Eq. (2): one signal net crosses a section boundary -----------------
  if ((ea.top_rank >= 0) != (eb.top_rank >= 0)) {
    // Section `rank` ends at top-row net `rank`. a on top: the signal net
    // b moves from section rank+1 to rank; b on top: a moves the other way.
    const bool ta = ea.top_rank >= 0;
    const int section =
        section_offset_[q] + (ta ? ea.top_rank : eb.top_rank);
    effect.gaining_section = ta ? section : section + 1;
    effect.losing_section = ta ? section + 1 : section;
    const int gainer = delta_[static_cast<std::size_t>(effect.gaining_section)];
    const int loser = delta_[static_cast<std::size_t>(effect.losing_section)];
    const int max = std::max(max_delta_, gainer + 1);
    // Sections at `max` after the move. Only the losing section can empty
    // the max's bucket; the max is then one below.
    const int at_max = delta_count_[static_cast<std::size_t>(max + alpha_)] -
                       (gainer == max) + (gainer + 1 == max) -
                       (loser == max) + (loser - 1 == max);
    effect.max_delta = at_max == 0 ? max - 1 : max;
  }

  // --- omega: rebuild the touched groups when the swap straddles one ------
  // Group `group` ends at slot p and group + 1 starts at p + 1, so each
  // takes the other's boundary tier. At psi = 1 omega stays 0.
  const int group = p / tier_count_;
  if (tier_count_ > 1 && p + 1 == (group + 1) * tier_count_) {
    effect.group = group;
    const auto at = static_cast<std::size_t>(p);
    const auto psi = static_cast<std::size_t>(tier_count_);
    effect.unions[0] = tier_union(slot_tier_, at + 1 - psi, at) |
                       1u << slot_tier_[at + 1];
    effect.unions[1] =
        1u << slot_tier_[at] |
        tier_union(slot_tier_, at + 2,
                   std::min(at + 1 + psi, slot_tier_.size()));
    for (std::size_t i = 0; i < 2; ++i) {
      effect.omega +=
          std::popcount(full_mask_ & ~effect.unions[i]) -
          std::popcount(
              full_mask_ &
              ~group_union_[static_cast<std::size_t>(group) + i]);
    }
  }
  return effect;
}

void IncrementalCost::swap_impl(int quadrant, int left_finger) {
  const SwapEffect effect = effect_of(quadrant, left_finger);
  auto& order = current_.quadrants[static_cast<std::size_t>(quadrant)].order;
  const auto f = static_cast<std::size_t>(left_finger);
  const auto a = static_cast<std::size_t>(order[f]);
  const auto b = static_cast<std::size_t>(order[f + 1]);
  const auto p = static_cast<std::size_t>(
      ring_offset_[static_cast<std::size_t>(quadrant)] + left_finger);

  std::swap(order[f], order[f + 1]);
  std::swap(slot_tier_[p], slot_tier_[p + 1]);
  position_[a] = IPoint{quadrant, left_finger + 1};
  position_[b] = IPoint{quadrant, left_finger};
  if (effect.trade_ranks) {
    std::swap(nets_[a].supply_rank, nets_[b].supply_rank);
  }
  if (effect.moving_rank >= 0) {
    supply_pos_[static_cast<std::size_t>(effect.moving_rank)] =
        effect.moving_to;
  }
  if (effect.gaining_section >= 0) {
    const auto step = [this](int section, int by) {
      int& delta = delta_[static_cast<std::size_t>(section)];
      --delta_count_[static_cast<std::size_t>(delta + alpha_)];
      delta += by;
      ++delta_count_[static_cast<std::size_t>(delta + alpha_)];
    };
    step(effect.gaining_section, +1);
    step(effect.losing_section, -1);
  }
  if (effect.group >= 0) {
    const auto g = static_cast<std::size_t>(effect.group);
    group_union_[g] = effect.unions[0];
    group_union_[g + 1] = effect.unions[1];
  }
  gap_sum_sq_ = effect.gap_sum_sq;
  max_delta_ = effect.max_delta;
  omega_ = effect.omega;
}

}  // namespace fp
