// Density-Interval-Based Finger/Pad Assignment (DFA, Fig. 11).
//
// Rows are processed from the highest horizontal line outward. For each
// line the density interval
//
//        DI = (non-allocated nets - used vias) / (total vias + n)
//
// spreads the line's nets across the still-unassigned finger slots: the
// x-th bump's net (x = 1..m) goes to the (floor(x*DI) + 1)-th unassigned
// slot counted from the left.
//
// Two details of Fig. 11 are under-specified and are resolved here the only
// way that reproduces the paper's fully worked example (Fig. 12, final
// order 10,11,1,2,6,3,4,9,5,7,8,0; DI values 1.8, 1.0, then the last line
// filling F1,F4,F7,F10,F12):
//   * "Used Via Number" is the via count of the HIGHEST horizontal line
//     (the congestion bottleneck the exchange step also watches), constant
//     across rows; "Total Via Number" is the current line's via slot count
//     (bumps + 1).
//   * The slot skip is clamped so every later net of the SAME line still
//     finds a free slot to its right (keeping the order legal); negative
//     DI (deep lines with few remaining nets) clamps to the leftmost free
//     slot.
//
// `cut_line_n` is the paper's n parameter: 1 ignores congestion at the
// diagonal cut-lines; >= 2 reserves margin by treating the outermost
// segments of neighbouring triangles as one.
//
// Complexity: O(n) insertion decisions as the paper states (the slot scan
// makes this implementation O(n * alpha), trivially fast at package sizes).
#pragma once

#include "assign/assigner.h"

namespace fp {

class DfaAssigner final : public Assigner {
 public:
  explicit DfaAssigner(int cut_line_n = 1);

  [[nodiscard]] std::string name() const override { return "DFA"; }

  [[nodiscard]] QuadrantAssignment assign(
      const Quadrant& quadrant) const override;

  using Assigner::assign;

 private:
  int cut_line_n_;
};

}  // namespace fp
