#include "util/file.h"

#include <filesystem>
#include <fstream>

#include "util/error.h"

namespace fp {

void write_file_atomic(const std::string& path, std::string_view text) {
  const std::string tmp = path + ".tmp-partial";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw IoError("cannot write '" + tmp + "'");
    out << text;
    out.flush();
    if (!out) throw IoError("write failed for '" + tmp + "'");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    throw IoError("cannot rename '" + tmp + "' to '" + path +
                  "': " + ec.message());
  }
}

}  // namespace fp
