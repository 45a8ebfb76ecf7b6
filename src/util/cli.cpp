#include "util/cli.h"

#include <algorithm>

#include "util/error.h"
#include "util/strings.h"

namespace fp {

std::string flag_help(std::span<const Flag> flags) {
  std::string out;
  for (const Flag& flag : flags) {
    std::string usage = "  --";
    usage += flag.name;
    if (!flag.arg.empty()) {
      usage += ' ';
      usage += flag.arg;
    }
    usage.resize(std::max<std::size_t>(usage.size() + 2, 24), ' ');
    out += usage;
    out += flag.help;
    out += '\n';
  }
  return out;
}

ArgParser::ArgParser(int argc, const char* const* argv,
                     std::span<const Flag> flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!starts_with(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    const std::size_t eq = body.find('=');
    const std::string name(body.substr(0, eq));
    const auto flag =
        std::find_if(flags.begin(), flags.end(),
                     [&](const Flag& f) { return f.name == name; });
    if (flag == flags.end()) {
      throw InvalidArgument("unknown flag --" + name);
    }
    if (eq != std::string_view::npos) {
      seen_[name] = std::string(body.substr(eq + 1));
    } else if (!flag->arg.empty() && i + 1 < argc &&
               !starts_with(argv[i + 1], "--")) {
      seen_[name] = std::string(argv[++i]);
    } else {
      seen_[name] = std::nullopt;
    }
  }
}

bool ArgParser::has(std::string_view name) const {
  return seen_.find(name) != seen_.end();
}

std::string ArgParser::get_string(std::string_view name,
                                  std::string_view fallback) const {
  const auto it = seen_.find(name);
  if (it == seen_.end() || !it->second.has_value()) {
    return std::string(fallback);
  }
  return *it->second;
}

std::int64_t ArgParser::get_int(std::string_view name,
                                std::int64_t fallback) const {
  const auto it = seen_.find(name);
  if (it == seen_.end() || !it->second.has_value()) return fallback;
  return parse_int(*it->second);
}

double ArgParser::get_double(std::string_view name, double fallback) const {
  const auto it = seen_.find(name);
  if (it == seen_.end() || !it->second.has_value()) return fallback;
  return parse_double(*it->second);
}

}  // namespace fp
