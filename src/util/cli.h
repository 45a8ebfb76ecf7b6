// Tiny command line flag parser used by fpkit and the bench binaries.
//
// Every flag is declared up front (Flag). Supported syntax: --name value,
// --name=value, and a bare --name. A switch (a flag without an argument
// name) never takes the next token; a value flag takes it unless it is
// itself a flag, so a bare value flag falls back to its default. An
// undeclared flag raises InvalidArgument, so a typo never runs silently.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace fp {

struct Flag {
  std::string_view name;  // without the leading "--"
  std::string_view arg;   // argument name for usage text; empty = switch
  std::string_view help;
};

/// One usage line per flag: "  --name <arg>  help".
[[nodiscard]] std::string flag_help(std::span<const Flag> flags);

class ArgParser {
 public:
  /// Parses argv[1..argc) against `flags`; throws InvalidArgument naming
  /// the first undeclared flag.
  ArgParser(int argc, const char* const* argv, std::span<const Flag> flags);

  /// True if --name appeared (with or without a value).
  [[nodiscard]] bool has(std::string_view name) const;

  [[nodiscard]] std::string get_string(std::string_view name,
                                       std::string_view fallback) const;
  [[nodiscard]] std::int64_t get_int(std::string_view name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(std::string_view name,
                                  double fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::optional<std::string>, std::less<>> seen_;
  std::vector<std::string> positional_;
};

}  // namespace fp
