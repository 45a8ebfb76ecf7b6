#include "util/file.h"

#include <filesystem>
#include <fstream>

#include "util/error.h"

namespace fp {

void write_file_atomic(const std::string& path, std::string_view text) {
  const std::string tmp = path + ".tmp-partial";
  // A failed write or rename leaves no partial file behind.
  const auto fail = [&tmp](const std::string& what) {
    std::error_code ignored;
    std::filesystem::remove(tmp, ignored);
    throw IoError(what);
  };
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) fail("cannot write '" + tmp + "'");
    out << text;
    out.flush();
    if (!out) fail("write failed for '" + tmp + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    fail("cannot rename '" + tmp + "' to '" + path + "': " + ec.message());
  }
}

}  // namespace fp
