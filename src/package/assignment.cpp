#include "package/assignment.h"

#include <algorithm>

#include "package/quadrant.h"

namespace fp {

int QuadrantAssignment::finger_of(NetId net) const {
  const auto it = std::find(order.begin(), order.end(), net);
  if (it == order.end()) return -1;
  return static_cast<int>(it - order.begin());
}

bool is_permutation_of(const QuadrantAssignment& assignment,
                       const Quadrant& quadrant) {
  if (assignment.size() != quadrant.net_count()) return false;
  // Same size and every entry a distinct member: each net exactly once.
  // A non-member (any id a file may carry) is rejected before it indexes.
  std::vector<char> seen(quadrant.net_id_span(), 0);
  for (const NetId net : assignment.order) {
    if (!quadrant.contains(net)) return false;
    char& mark = seen[static_cast<std::size_t>(net - quadrant.min_net_id())];
    if (mark != 0) return false;
    mark = 1;
  }
  return true;
}

int PackageAssignment::total_fingers() const {
  int total = 0;
  for (const auto& q : quadrants) total += q.size();
  return total;
}

std::vector<NetId> PackageAssignment::ring_order() const {
  std::vector<NetId> ring;
  ring.reserve(static_cast<std::size_t>(total_fingers()));
  for (const auto& q : quadrants) {
    ring.insert(ring.end(), q.order.begin(), q.order.end());
  }
  return ring;
}

}  // namespace fp
