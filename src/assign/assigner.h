// Common interface of the congestion-driven finger/pad assignment methods
// (Section 3.1 of the paper): the random monotone baseline, IFA and DFA.
// Every assigner guarantees a monotonically legal order by construction.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "package/assignment.h"
#include "package/package.h"
#include "package/quadrant.h"

namespace fp {

class Assigner {
 public:
  virtual ~Assigner() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Assigns one quadrant's nets to its finger slots.
  [[nodiscard]] virtual QuadrantAssignment assign(
      const Quadrant& quadrant) const = 0;

  /// Assigns every quadrant independently (the paper plans the four package
  /// parts separately).
  [[nodiscard]] PackageAssignment assign(const Package& package) const;
};

enum class AssignmentMethod { Random, Ifa, Dfa };

[[nodiscard]] std::string_view to_string(AssignmentMethod method);

/// "random", "ifa" or "dfa"; throws InvalidArgument on anything else.
[[nodiscard]] AssignmentMethod parse_assignment_method(std::string_view text);

/// The assignment step of the co-design flow (Fig. 1(B)): `seed` drives
/// the Random baseline, `dfa_cut_line_n` is DFA's n (>= 1); each is read
/// only by its own method.
[[nodiscard]] PackageAssignment plan_assignment(const Package& package,
                                                AssignmentMethod method,
                                                std::uint64_t seed,
                                                int dfa_cut_line_n);

}  // namespace fp
