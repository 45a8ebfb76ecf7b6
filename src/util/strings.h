// Small string helpers shared by the I/O and reporting code.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace fp {

/// Removes ASCII whitespace from both ends.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Splits on `sep`; consecutive separators yield empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; never yields empty fields.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view s);

/// A whitespace-split token plus its 1-based column in the source line,
/// so parsers can point diagnostics at the exact field (io/*_file.cpp).
struct WsToken {
  std::string text;
  int column = 0;
};

/// split_ws with source columns preserved.
[[nodiscard]] std::vector<WsToken> split_ws_cols(std::string_view s);

/// Joins `parts` with `sep` between elements.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

/// True if `s` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Parses a decimal integer; throws fp::IoError on malformed input.
[[nodiscard]] long long parse_int(std::string_view s);

/// Parses a floating point number; throws fp::IoError on malformed input.
[[nodiscard]] double parse_double(std::string_view s);

/// Formats `value` with `digits` digits after the decimal point.
[[nodiscard]] std::string format_fixed(double value, int digits);

/// "12.3%", one decimal, from a ratio in [0, 1+].
[[nodiscard]] std::string format_percent(double ratio);

/// Appends `text` with &, <, > and " written as entities, so it can sit
/// in XML/HTML/SVG text or a double-quoted attribute.
void xml_escape_into(std::string& out, std::string_view text);

/// xml_escape_into a fresh string.
[[nodiscard]] std::string xml_escape(std::string_view text);

}  // namespace fp
