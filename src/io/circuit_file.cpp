#include "io/circuit_file.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "util/faultpoint.h"
#include "util/strings.h"

namespace fp {
namespace {

[[noreturn]] void fail(int line_no, const std::string& message) {
  throw IoError("circuit line " + std::to_string(line_no) + ": " + message);
}

[[noreturn]] void fail_at(int line_no, int column, const std::string& message) {
  throw IoError("circuit line " + std::to_string(line_no) + ", column " +
                std::to_string(column) + ": " + message);
}

NetType parse_net_type(const WsToken& token, int line_no) {
  if (token.text == "signal") return NetType::Signal;
  if (token.text == "power") return NetType::Power;
  if (token.text == "ground") return NetType::Ground;
  fail_at(line_no, token.column, "unknown net type '" + token.text + "'");
}

/// Bounds-checked integer field. from_chars already rejects values that
/// overflow long long; this adds the format's own range so a count that
/// would overflow downstream int arithmetic dies here with a location.
long long parse_count(const WsToken& token, int line_no, long long lo,
                      long long hi) {
  long long value = 0;
  try {
    value = parse_int(token.text);
  } catch (const IoError&) {
    fail_at(line_no, token.column,
            "malformed integer '" + token.text + "'");
  }
  if (value < lo || value > hi) {
    fail_at(line_no, token.column,
            "integer " + std::to_string(value) + " outside [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return value;
}

/// Geometry field: must parse, be finite (no NaN/Inf smuggled through
/// from_chars) and positive.
double parse_positive(const WsToken& token, int line_no) {
  double value = 0.0;
  try {
    value = parse_double(token.text);
  } catch (const IoError&) {
    fail_at(line_no, token.column, "malformed number '" + token.text + "'");
  }
  if (!std::isfinite(value)) {
    fail_at(line_no, token.column, "non-finite value '" + token.text + "'");
  }
  if (value <= 0.0) {
    fail_at(line_no, token.column,
            "value must be positive (got " + token.text + ")");
  }
  return value;
}

}  // namespace

std::string write_circuit(const Package& package) {
  std::string out;
  out += "# fpkit circuit format v1\n";
  out += "circuit " + package.name() + "\n";
  const PackageGeometry& g = package.geometry();
  out += "geometry " + format_fixed(g.bump_space_um, 6) + " " +
         format_fixed(g.finger_width_um, 6) + " " +
         format_fixed(g.finger_height_um, 6) + " " +
         format_fixed(g.finger_space_um, 6) + "\n";
  for (const Net& net : package.netlist().nets()) {
    out += "net " + std::to_string(net.id) + " " + net.name + " " +
           std::string(to_string(net.type)) + " " + std::to_string(net.tier) +
           "\n";
  }
  for (const Quadrant& quadrant : package.quadrants()) {
    out += "quadrant " + quadrant.name() + "\n";
    for (int r = 0; r < quadrant.row_count(); ++r) {
      out += "row";
      for (const NetId net : quadrant.row_nets(r)) {
        out += ' ';
        out += std::to_string(net);
      }
      out += "\n";
    }
  }
  out += "end\n";
  return out;
}

void save_circuit(const Package& package, const std::string& path) {
  std::ofstream file(path);
  if (!file) throw IoError("save_circuit: cannot open '" + path + "'");
  file << write_circuit(package);
  if (!file) throw IoError("save_circuit: write to '" + path + "' failed");
}

Package read_circuit(std::istream& in) {
  if (fault::enabled()) fault::check("io.circuit.read");
  std::string name;
  PackageGeometry geometry;
  bool saw_circuit = false;
  bool saw_end = false;
  struct PendingNet {
    std::string name;
    NetType type;
    int tier;
  };
  std::vector<PendingNet> nets;
  std::vector<long long> net_ids;
  struct PendingQuadrant {
    std::string name;
    std::vector<std::vector<NetId>> rows;
  };
  std::vector<PendingQuadrant> quadrants;

  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<WsToken> tokens = split_ws_cols(line);
    if (tokens.empty()) continue;
    const std::string& keyword = tokens.front().text;

    if (keyword == "circuit") {
      if (tokens.size() != 2) fail(line_no, "expected: circuit <name>");
      name = tokens[1].text;
      saw_circuit = true;
    } else if (keyword == "geometry") {
      if (tokens.size() != 5) {
        fail(line_no, "expected: geometry <bump> <fw> <fh> <fs>");
      }
      geometry.bump_space_um = parse_positive(tokens[1], line_no);
      geometry.finger_width_um = parse_positive(tokens[2], line_no);
      geometry.finger_height_um = parse_positive(tokens[3], line_no);
      geometry.finger_space_um = parse_positive(tokens[4], line_no);
    } else if (keyword == "net") {
      if (tokens.size() != 5) {
        fail(line_no, "expected: net <id> <name> <type> <tier>");
      }
      // Ids are NetId (int32); tiers small. Parsing bounds them here so a
      // hostile count can't wrap the int arithmetic further down.
      net_ids.push_back(parse_count(
          tokens[1], line_no, 0, std::numeric_limits<NetId>::max()));
      nets.push_back(PendingNet{
          tokens[2].text, parse_net_type(tokens[3], line_no),
          static_cast<int>(parse_count(tokens[4], line_no, 0, 1 << 20))});
    } else if (keyword == "quadrant") {
      if (tokens.size() != 2) fail(line_no, "expected: quadrant <name>");
      quadrants.push_back(PendingQuadrant{tokens[1].text, {}});
    } else if (keyword == "row") {
      if (quadrants.empty()) fail(line_no, "row before any quadrant");
      if (tokens.size() < 2) fail(line_no, "row needs at least one net id");
      std::vector<NetId> row;
      for (std::size_t i = 1; i < tokens.size(); ++i) {
        row.push_back(static_cast<NetId>(parse_count(
            tokens[i], line_no, 0, std::numeric_limits<NetId>::max())));
      }
      quadrants.back().rows.push_back(std::move(row));
    } else if (keyword == "end") {
      saw_end = true;
      break;
    } else {
      fail_at(line_no, tokens.front().column,
              "unknown keyword '" + keyword + "'");
    }
  }

  if (!saw_circuit) throw IoError("circuit: missing 'circuit <name>' header");
  if (!saw_end) throw IoError("circuit: missing 'end'");
  if (nets.empty()) throw IoError("circuit: no nets declared");
  if (quadrants.empty()) throw IoError("circuit: no quadrants declared");

  // Net ids must be dense 0..N-1 in declaration order.
  for (std::size_t i = 0; i < net_ids.size(); ++i) {
    if (net_ids[i] != static_cast<long long>(i)) {
      throw IoError("circuit: net ids must be dense 0..N-1 in order (got " +
                    std::to_string(net_ids[i]) + " at position " +
                    std::to_string(i) + ")");
    }
  }

  // All package-model construction sits inside the try: a duplicate net
  // name or inconsistent tier raises InvalidArgument from the model layer
  // and must leave here as a structured IoError, not escape raw.
  try {
    Netlist netlist;
    for (auto& pending : nets) {
      netlist.add(std::move(pending.name), pending.type, pending.tier);
    }
    std::vector<Quadrant> built;
    built.reserve(quadrants.size());
    for (auto& pending : quadrants) {
      if (pending.rows.empty()) {
        throw IoError("circuit: quadrant '" + pending.name +
                      "' has no rows");
      }
      built.emplace_back(std::move(pending.name), geometry,
                         std::move(pending.rows));
    }
    return Package(name, std::move(netlist), geometry, std::move(built));
  } catch (const InvalidArgument& e) {
    throw IoError(std::string("circuit: inconsistent description: ") +
                  e.what());
  }
}

Package load_circuit(const std::string& path) {
  std::ifstream file(path);
  if (!file) throw IoError("load_circuit: cannot open '" + path + "'");
  return read_circuit(file);
}

}  // namespace fp
