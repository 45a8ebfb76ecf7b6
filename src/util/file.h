// Whole-file writes that a reader never sees half done.
#pragma once

#include <string>
#include <string_view>

namespace fp {

/// Writes `text` to "<path>.tmp-partial", then renames it over `path`:
/// a reader, or a writer killed part-way, leaves the old file or the new
/// one, never a torn one. Throws IoError when either step fails.
void write_file_atomic(const std::string& path, std::string_view text);

}  // namespace fp
