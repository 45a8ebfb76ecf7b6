#include "power/spice_export.h"

#include <cstdio>

#include "util/error.h"
#include "util/file.h"

namespace fp {
namespace {

std::string node(int x, int y) {
  return "n_" + std::to_string(x) + "_" + std::to_string(y);
}

std::string fmt(double v) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.9g", v);
  return buffer;
}

/// Appends one element line: "<kind><index> <a> <b> <value>".
void put_element(std::string& out, char kind, int index, const std::string& a,
                 const std::string& b, double value) {
  out += kind;
  out += std::to_string(index);
  out += ' ';
  out += a;
  out += ' ';
  out += b;
  out += ' ';
  out += fmt(value);
  out += '\n';
}

}  // namespace

std::string write_spice_deck(const PowerGrid& grid,
                             const std::string& title) {
  require(!grid.pads().empty(),
          "write_spice_deck: mesh without pads is singular");
  const int k = grid.k();
  const double rx = grid.spec().sheet_res_x;
  const double ry = grid.spec().sheet_res_y;

  std::string out = "* " + title + "\n";
  out += "* " + std::to_string(k) + "x" + std::to_string(k) +
         " power mesh, vdd " + fmt(grid.spec().vdd) + "V\n";

  int r_index = 0;
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      if (x + 1 < k) {
        put_element(out, 'R', ++r_index, node(x, y), node(x + 1, y), rx);
      }
      if (y + 1 < k) {
        put_element(out, 'R', ++r_index, node(x, y), node(x, y + 1), ry);
      }
    }
  }

  int i_index = 0;
  for (int y = 0; y < k; ++y) {
    for (int x = 0; x < k; ++x) {
      const double current = grid.node_current(x, y);
      if (current > 0.0) {
        // Load current flows from the node to ground.
        put_element(out, 'I', ++i_index, node(x, y), "0", current);
      }
    }
  }

  int v_index = 0;
  for (const IPoint pad : grid.pads()) {
    put_element(out, 'V', ++v_index, node(pad.x, pad.y), "0",
                grid.spec().vdd);
  }

  out += ".op\n.end\n";
  return out;
}

void save_spice_deck(const PowerGrid& grid, const std::string& path,
                     const std::string& title) {
  write_file_atomic(path, write_spice_deck(grid, title));
}

}  // namespace fp
