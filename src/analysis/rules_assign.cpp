// ASSIGN-*: legality of a finger/pad assignment -- shape, permutation
// (one net per finger), and the monotone-routability rule every
// downstream router assumes.
#include <algorithm>
#include <vector>

#include "analysis/rules.h"
#include "route/legality.h"

namespace fp::rules {

bool assignment_is_legal(const CheckContext& context) {
  const Package& package = *context.package;
  const PackageAssignment& assignment = *context.assignment;
  if (static_cast<int>(assignment.quadrants.size()) !=
      package.quadrant_count()) {
    return false;
  }
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    const Quadrant& q = package.quadrant(qi);
    const QuadrantAssignment& qa =
        assignment.quadrants[static_cast<std::size_t>(qi)];
    if (!is_permutation_of(qa, q) || !is_monotone_legal(q, qa)) return false;
  }
  return true;
}

namespace {

/// Quadrants checkable pairwise even when ASSIGN-001 fired.
int common_quadrants(const CheckContext& context) {
  return std::min(context.package->quadrant_count(),
                  static_cast<int>(context.assignment->quadrants.size()));
}

void assign_shape(const CheckContext& context, const CheckEmitter& emit) {
  const Package& package = *context.package;
  const PackageAssignment& assignment = *context.assignment;
  if (static_cast<int>(assignment.quadrants.size()) !=
      package.quadrant_count()) {
    emit.emit("assignment has " + std::to_string(assignment.quadrants.size()) +
              " quadrants but the package has " +
              std::to_string(package.quadrant_count()));
  }
  for (int qi = 0; qi < common_quadrants(context); ++qi) {
    const QuadrantAssignment& qa =
        assignment.quadrants[static_cast<std::size_t>(qi)];
    const Quadrant& q = package.quadrant(qi);
    if (qa.size() != q.finger_count()) {
      emit.emit("quadrant '" + q.name() + "': " + std::to_string(qa.size()) +
                " fingers assigned but the row holds " +
                std::to_string(q.finger_count()));
    }
  }
}

void assign_permutation(const CheckContext& context,
                        const CheckEmitter& emit) {
  const Package& package = *context.package;
  for (int qi = 0; qi < common_quadrants(context); ++qi) {
    const Quadrant& q = package.quadrant(qi);
    const QuadrantAssignment& qa =
        context.assignment->quadrants[static_cast<std::size_t>(qi)];
    std::vector<char> seen(package.netlist().size(), 0);
    int distinct = 0;
    for (const NetId net : qa.order) {
      if (net < 0 ||
          static_cast<std::size_t>(net) >= package.netlist().size()) {
        emit.emit("quadrant '" + q.name() + "': finger holds invalid net id " +
                  std::to_string(net));
        continue;
      }
      if (!q.contains(net)) {
        emit.emit("quadrant '" + q.name() + "': net '" +
                  package.netlist().net(net).name +
                  "' has no bump in this quadrant");
      }
      char& mark = seen[static_cast<std::size_t>(net)];
      if (mark != 0) {
        emit.emit("quadrant '" + q.name() + "': net '" +
                  package.netlist().net(net).name +
                  "' occupies two fingers (one net per finger/pad)");
      } else {
        mark = 1;
        ++distinct;
      }
    }
    if (qa.size() == q.finger_count() && distinct < q.finger_count()) {
      emit.emit("quadrant '" + q.name() + "': a bumped net is missing from "
                "the finger row");
    }
  }
}

void assign_monotone(const CheckContext& context, const CheckEmitter& emit) {
  const Package& package = *context.package;
  for (int qi = 0; qi < common_quadrants(context); ++qi) {
    const Quadrant& q = package.quadrant(qi);
    const QuadrantAssignment& qa =
        context.assignment->quadrants[static_cast<std::size_t>(qi)];
    if (!is_permutation_of(qa, q)) continue;  // ASSIGN-002's finding
    if (const auto violation = find_violation(q, qa)) {
      emit.emit("quadrant '" + q.name() + "': " + violation->to_string() +
                " -- no monotonic routing exists");
    }
  }
}

constexpr CheckRule kRules[] = {
    {"ASSIGN-001", CheckStage::Assignment,
     check_inputs::kGeometry | check_inputs::kAssignment,
     CheckSeverity::Error,
     "assignment shape matches the package (quadrants, row bounds)",
     assign_shape},
    {"ASSIGN-002", CheckStage::Assignment,
     check_inputs::kNetlist | check_inputs::kAssignment,
     CheckSeverity::Error,
     "each quadrant's finger row is a permutation of its bumped nets",
     assign_permutation},
    {"ASSIGN-003", CheckStage::Assignment,
     check_inputs::kGeometry | check_inputs::kAssignment,
     CheckSeverity::Error,
     "the assignment admits a monotonic routing in every quadrant",
     assign_monotone},
};

}  // namespace

std::span<const CheckRule> assignment() { return kRules; }

}  // namespace fp::rules
