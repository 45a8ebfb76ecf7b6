// Synthetic benchmark circuits.
//
// The paper evaluates on five "simplified industrial circuits" whose
// netlists were never published; only their geometry appears (Table 1).
// CircuitGenerator reproduces every published Table-1 parameter and fills
// in the one unpublished piece -- which net sits on which bump ball -- with
// a seeded random permutation, which matches the paper's own experimental
// setup (its baseline is a random monotone-conforming assignment).
//
// It also builds the two worked-example quadrants the paper uses to walk
// through IFA/DFA (Fig. 5 and Fig. 13), so unit tests can lock the exact
// published finger orders.
#pragma once

#include <cstdint>
#include <string>

#include "package/package.h"

namespace fp {

struct CircuitSpec {
  std::string name = "circuit";
  /// Total finger/pad count over the whole package (Table 1 column 2).
  int finger_count = 96;
  double bump_space_um = 2.0;
  double finger_width_um = 0.025;
  double finger_height_um = 0.4;
  double finger_space_um = 0.025;
  /// Horizontal (vertical) bump lines per quadrant; Section 4 sets 4.
  int rows_per_quadrant = 4;
  int quadrant_count = 4;
  /// Fraction of nets that are supply nets (split evenly power/ground).
  double supply_fraction = 0.25;
  /// Die tiers (the paper's psi); 1 = 2-D IC, >1 = stacking IC.
  int tier_count = 1;
  std::uint64_t seed = 1;
};

class CircuitGenerator {
 public:
  /// The five published Table-1 circuits; index in [0, 5).
  [[nodiscard]] static CircuitSpec table1(int index);

  /// Builds a package from a spec; deterministic in spec.seed.
  [[nodiscard]] static Package generate(const CircuitSpec& spec);

  /// The 12-net single-quadrant example of Fig. 5 (rows outermost->die:
  /// {10,2,4,7,0}, {1,3,5,8}, {11,6,9}).
  [[nodiscard]] static Quadrant fig5_quadrant();

  /// A 20-net, 4-row quadrant shaped like the Fig. 13 example
  /// (rows outermost->die of sizes 8, 6, 4, 2).
  [[nodiscard]] static Quadrant fig13_quadrant();

  /// Splits `net_count` bumps into `rows` strictly-decreasing-toward-the-die
  /// row sizes (outermost row first). Exposed for tests.
  [[nodiscard]] static std::vector<int> row_sizes(int net_count, int rows);
};

}  // namespace fp
