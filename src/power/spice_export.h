// SPICE netlist export of the Eq.-(1) power mesh.
//
// The IR-drop models the paper builds on ([17], [21], [22]) are routinely
// validated against SPICE; this exporter writes the mesh as a flat deck --
// one resistor per link, one current source per loaded node, one voltage
// source per pad, plus a .op card -- so any SPICE engine can cross-check
// fpkit's solvers on the exact same circuit.
//
// Node naming: n_<x>_<y>; ground is node 0.
#pragma once

#include <string>

#include "power/power_grid.h"

namespace fp {

/// The full deck as a string. Requires at least one pad (otherwise the
/// operating point would be singular, exactly like our solver).
[[nodiscard]] std::string write_spice_deck(const PowerGrid& grid,
                                           const std::string& title =
                                               "fpkit power mesh");

/// Writes the deck to `path` with write_file_atomic (never a torn file);
/// throws IoError on failure.
void save_spice_deck(const PowerGrid& grid, const std::string& path,
                     const std::string& title = "fpkit power mesh");

}  // namespace fp
