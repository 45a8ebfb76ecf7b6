#include "io/csv.h"

#include "util/error.h"
#include "util/file.h"

namespace fp {

CsvWriter::CsvWriter(std::vector<std::string> header)
    : columns_(header.size()) {
  require(columns_ > 0, "CsvWriter: header must not be empty");
  rows_.push_back(std::move(header));
}

void CsvWriter::add_row(std::vector<std::string> cells) {
  require(cells.size() == columns_, "CsvWriter: wrong cell count");
  rows_.push_back(std::move(cells));
}

std::string CsvWriter::escape(const std::string& cell) {
  if (cell.find_first_of(",\"\n") == std::string::npos) return cell;
  std::string out = "\"";
  for (const char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

std::string CsvWriter::str() const {
  std::string out;
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c > 0) out += ',';
      out += escape(row[c]);
    }
    out += '\n';
  }
  return out;
}

void CsvWriter::save(const std::string& path) const {
  write_file_atomic(path, str());
}

}  // namespace fp
