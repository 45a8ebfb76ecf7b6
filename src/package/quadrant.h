// One triangular quadrant of the BGA package (Fig. 2 of the paper).
//
// The package area is partitioned into four parts which are planned
// independently (the paper adopts this from Kubo-Takahashi). A quadrant
// holds:
//   * `row_count()` horizontal bump-ball lines. Row index r is 0-based from
//     the OUTERMOST line (the paper's y = r+1; the paper's "highest
//     horizontal line" y = n is our `top_row()` = row_count()-1, the line
//     nearest the die and the fingers).
//   * Row r carries `bumps_in_row(r)` bump balls, 0-based column c from the
//     left. Rows shrink toward the die (triangular quadrant).
//   * One candidate via slot interleaving each pair of bumps plus both row
//     ends: `via_slots_in_row(r) == bumps_in_row(r) + 1`. The net of bump c
//     owns slot c (the paper fixes the via at the bump's bottom-left corner).
//   * `finger_count()` finger slots in one row between the die edge and the
//     top bump line, 0-based from the left. Exactly one net per finger.
//
// Local coordinates: x = 0 is the quadrant axis; y grows toward the die, so
// bump row r sits at y = (r+1)*bump_space and the finger line above the top
// row. All positions are micrometres.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "geom/point.h"
#include "netlist/netlist.h"
#include "package/geometry.h"

namespace fp {

class Quadrant {
 public:
  /// `rows[r]` lists the net of each bump in row r (0 = outermost line),
  /// left to right. Every net id must be distinct; finger count equals the
  /// total bump count.
  Quadrant(std::string name, PackageGeometry geometry,
           std::vector<std::vector<NetId>> rows);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const PackageGeometry& geometry() const { return geometry_; }

  // --- structure ---------------------------------------------------------
  [[nodiscard]] int row_count() const {
    return static_cast<int>(rows_.size());
  }
  /// Index of the paper's "highest horizontal line" (nearest the fingers).
  [[nodiscard]] int top_row() const { return row_count() - 1; }
  [[nodiscard]] int bumps_in_row(int row) const;
  [[nodiscard]] int via_slots_in_row(int row) const {
    return bumps_in_row(row) + 1;
  }
  /// Density gaps on a row line: slots + 1 (both ends count as gaps).
  [[nodiscard]] int gaps_in_row(int row) const {
    return via_slots_in_row(row) + 1;
  }
  [[nodiscard]] int net_count() const { return net_count_; }
  [[nodiscard]] int finger_count() const { return net_count_; }

  /// Net on the bump at (row, col).
  [[nodiscard]] NetId bump_net(int row, int col) const;
  /// All nets of one row, left to right.
  [[nodiscard]] const std::vector<NetId>& row_nets(int row) const;
  /// All nets of the quadrant (row-major, outermost row first).
  [[nodiscard]] std::vector<NetId> all_nets() const;
  /// True if `net` has its bump in this quadrant.
  [[nodiscard]] bool contains(NetId net) const;
  /// The quadrant's net ids all lie in [min_net_id(), min_net_id() +
  /// net_id_span()), for id-indexed scratch arrays.
  [[nodiscard]] NetId min_net_id() const { return min_net_; }
  [[nodiscard]] std::size_t net_id_span() const {
    return bump_of_net_.size();
  }
  /// Row of `net`'s bump; requires contains(net).
  [[nodiscard]] int net_row(NetId net) const;
  /// Column of `net`'s bump; requires contains(net).
  [[nodiscard]] int net_col(NetId net) const;

  // --- coordinates -------------------------------------------------------
  [[nodiscard]] Point bump_position(int row, int col) const;
  /// Candidate via slot j of `row`, j in [0, via_slots_in_row(row)).
  [[nodiscard]] Point via_slot_position(int row, int slot) const;
  /// The via a net terminating at (row, col) actually uses: slot == col,
  /// i.e. the bump's bottom-left corner.
  [[nodiscard]] Point via_position(int row, int col) const {
    return via_slot_position(row, col);
  }
  /// Finger slot `index` in [0, finger_count()).
  [[nodiscard]] Point finger_position(int index) const;
  /// y coordinate of the finger row.
  [[nodiscard]] double finger_line_y() const;
  /// y coordinate of bump row `row`'s line.
  [[nodiscard]] double row_line_y(int row) const;

 private:
  std::string name_;
  PackageGeometry geometry_;
  std::vector<std::vector<NetId>> rows_;
  int net_count_ = 0;
  // net -> (row, col); index net - min_net_ for dense storage.
  NetId min_net_ = 0;
  std::vector<IPoint> bump_of_net_;  // x=col, y=row; (-1,-1) when absent
};

}  // namespace fp
