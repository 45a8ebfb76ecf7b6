#include "io/assignment_file.h"

#include <fstream>
#include <limits>
#include <sstream>

#include "util/faultpoint.h"
#include "util/file.h"
#include "util/strings.h"

namespace fp {

std::string write_assignment(const Package& package,
                             const PackageAssignment& assignment) {
  require(static_cast<int>(assignment.quadrants.size()) ==
              package.quadrant_count(),
          "write_assignment: assignment/package quadrant count mismatch");
  std::string out = "# fpkit assignment format v1\n";
  out += "assignment " + package.name() + "\n";
  for (int qi = 0; qi < package.quadrant_count(); ++qi) {
    out += "quadrant " + package.quadrant(qi).name();
    for (const NetId net :
         assignment.quadrants[static_cast<std::size_t>(qi)].order) {
      out += ' ';
      out += std::to_string(net);
    }
    out += "\n";
  }
  out += "end\n";
  return out;
}

void save_assignment(const Package& package,
                     const PackageAssignment& assignment,
                     const std::string& path) {
  write_file_atomic(path, write_assignment(package, assignment));
}

PackageAssignment read_assignment(std::istream& in, const Package& package) {
  if (fault::enabled()) fault::check("io.assignment.read");
  PackageAssignment assignment;
  bool saw_header = false;
  bool saw_end = false;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const std::vector<WsToken> tokens = split_ws_cols(line);
    if (tokens.empty()) continue;
    const std::string& keyword = tokens.front().text;
    if (keyword == "assignment") {
      if (tokens.size() != 2) {
        throw IoError("assignment line " + std::to_string(line_no) +
                      ": expected 'assignment <name>'");
      }
      saw_header = true;
    } else if (keyword == "quadrant") {
      if (tokens.size() < 3) {
        throw IoError("assignment line " + std::to_string(line_no) +
                      ": quadrant needs a name and at least one net");
      }
      const int qi = static_cast<int>(assignment.quadrants.size());
      if (qi >= package.quadrant_count()) {
        throw IoError("assignment: more quadrants than the package has");
      }
      if (tokens[1].text != package.quadrant(qi).name()) {
        throw IoError("assignment line " + std::to_string(line_no) +
                      ": quadrant '" + tokens[1].text +
                      "' does not match the package's quadrant '" +
                      package.quadrant(qi).name() + "' at position " +
                      std::to_string(qi));
      }
      QuadrantAssignment qa;
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        long long id = 0;
        try {
          id = parse_int(tokens[i].text);
        } catch (const IoError&) {
          throw IoError("assignment line " + std::to_string(line_no) +
                        ", column " + std::to_string(tokens[i].column) +
                        ": malformed net id '" + tokens[i].text + "'");
        }
        if (id < 0 || id > std::numeric_limits<NetId>::max()) {
          throw IoError("assignment line " + std::to_string(line_no) +
                        ", column " + std::to_string(tokens[i].column) +
                        ": net id " + std::to_string(id) +
                        " outside the NetId range");
        }
        qa.order.push_back(static_cast<NetId>(id));
      }
      if (!is_permutation_of(qa, package.quadrant(qi))) {
        throw IoError("assignment line " + std::to_string(line_no) +
                      ": not a permutation of quadrant '" + tokens[1].text +
                      "''s nets");
      }
      assignment.quadrants.push_back(std::move(qa));
    } else if (keyword == "end") {
      saw_end = true;
      break;
    } else {
      throw IoError("assignment line " + std::to_string(line_no) +
                    ", column " + std::to_string(tokens.front().column) +
                    ": unknown keyword '" + keyword + "'");
    }
  }
  if (!saw_header) throw IoError("assignment: missing header line");
  if (!saw_end) throw IoError("assignment: missing 'end'");
  if (static_cast<int>(assignment.quadrants.size()) !=
      package.quadrant_count()) {
    throw IoError("assignment: expected " +
                  std::to_string(package.quadrant_count()) +
                  " quadrants, got " +
                  std::to_string(assignment.quadrants.size()));
  }
  return assignment;
}

PackageAssignment load_assignment(const std::string& path,
                                  const Package& package) {
  std::ifstream file(path);
  if (!file) throw IoError("load_assignment: cannot open '" + path + "'");
  return read_assignment(file, package);
}

}  // namespace fp
