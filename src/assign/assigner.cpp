#include "assign/assigner.h"

#include "assign/dfa.h"
#include "assign/ifa.h"
#include "assign/random_assigner.h"
#include "util/error.h"

namespace fp {

PackageAssignment Assigner::assign(const Package& package) const {
  PackageAssignment result;
  result.quadrants.reserve(static_cast<std::size_t>(package.quadrant_count()));
  for (const Quadrant& quadrant : package.quadrants()) {
    result.quadrants.push_back(assign(quadrant));
  }
  return result;
}

std::string_view to_string(AssignmentMethod method) {
  switch (method) {
    case AssignmentMethod::Random:
      return "random";
    case AssignmentMethod::Ifa:
      return "IFA";
    case AssignmentMethod::Dfa:
      return "DFA";
  }
  return "unknown";
}

AssignmentMethod parse_assignment_method(std::string_view text) {
  if (text == "random") return AssignmentMethod::Random;
  if (text == "ifa") return AssignmentMethod::Ifa;
  if (text == "dfa") return AssignmentMethod::Dfa;
  throw InvalidArgument("unknown method '" + std::string(text) +
                        "' (expected random|ifa|dfa)");
}

PackageAssignment plan_assignment(const Package& package,
                                  AssignmentMethod method, std::uint64_t seed,
                                  int dfa_cut_line_n) {
  switch (method) {
    case AssignmentMethod::Random:
      return RandomAssigner(seed).assign(package);
    case AssignmentMethod::Ifa:
      return IfaAssigner().assign(package);
    case AssignmentMethod::Dfa:
      return DfaAssigner(dfa_cut_line_n).assign(package);
  }
  throw InvalidArgument("plan_assignment: unknown method");
}

}  // namespace fp
