// Seeded mutation fuzzing of the one JSON reader (obs::json_parse) and of
// the serve protocol built on it, in io_fuzz_test's style. The contract:
// json_parse returns a value or throws InvalidArgument, parse_request
// returns a request or throws ProtocolError, run_serve answers every
// non-blank line with exactly one JSON line whose "ok" is a bool, and
// every document that parses dumps to a fixed point of parse + dump.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "io/circuit_file.h"
#include "obs/artifact.h"
#include "obs/json.h"
#include "package/circuit_generator.h"
#include "session/protocol.h"
#include "session/serve.h"
#include "util/error.h"
#include "util/rng.h"

namespace fp {
namespace {

using obs::Json;

/// A request line for every serve method. The checkpoint path names a
/// directory that does not exist, so no mutant writes a file.
std::vector<std::string> request_seeds(const std::string& circuit) {
  return {
      "{\"id\":1,\"method\":\"load\",\"params\":{\"circuit\":" +
          obs::json_quote(circuit) + ",\"method\":\"dfa\"}}",
      R"({"id":2,"method":"swap","params":{"finger":3,"quadrant":1}})",
      R"({"id":3,"method":"undo"})",
      R"({"id":4,"method":"evaluate","params":{"check":true,"ir":true}})",
      R"({"id":5,"method":"evaluate","params":{"cold":true}})",
      R"({"id":"six","method":"checkpoint",)"
      R"("params":{"path":"/no-such-fpkit-dir/x/ck.fpa"}})",
      R"({"id":7,"method":"stats","params":{}})",
      R"({"id":8.5,"method":"watch","params":{"enable":true}})",
      R"({"id":null,"method":"shutdown"})",
  };
}

/// The other documents fpkit reads: a check config, a farm journal event,
/// a Chrome-trace event and a run manifest.
std::vector<std::string> document_seeds() {
  obs::RunManifest manifest;
  manifest.subcommand = "run";
  manifest.version = "1.0.0";
  manifest.env["FPKIT_THREADS"] = "2";
  manifest.seeds = {1, 42};
  manifest.wall_s = 0.125;
  manifest.stages.push_back({"exchange", 0.0625});
  manifest.events.push_back({"analyze", "budget", "stopped early"});
  manifest.results["ir_drop_final_v"] = 0.0123;
  manifest.options.set("mesh", Json::number(32.0));
  return {
      R"({"schema":"fpkit.check-config.v1","severity":{"ROUTE-002":"off",)"
      R"("POWER-001":"error"},"waivers":[{"rule":"GEOM-001","match":"Q0",)"
      R"("justification":"legacy ring","expires":"2027-01-31"}]})",
      R"({"attempt":2,"code":"FP-TIMEOUT","detail":"no heartbeat for 0.5 s",)"
      R"("event":"done","exit":-1,"job":3,"outcome":"timeout","signal":9,)"
      R"("t":1.25})",
      R"({"args":{"iterations":14,"k":32},"cat":"power","dur":512,)"
      R"("name":"solver.cg","ph":"X","pid":4242,"tid":1,"ts":1700000000123})",
      obs::manifest_to_json(manifest).dump(),
  };
}

/// Up to 8 edits: byte flips, deletions, truncations, insertions of a
/// JSON punctuation or number byte, and duplicated "key":value spans.
std::string mutate(const std::string& source, Rng& rng) {
  static constexpr std::string_view kInserts = "{}[]\":,\\-0123456789eE";
  std::string text = source;
  const int edits = static_cast<int>(rng.uniform_int(1, 8));
  for (int e = 0; e < edits; ++e) {
    if (text.empty()) break;
    const std::size_t at = rng.index(text.size());
    switch (rng.uniform_int(0, 4)) {
      case 0:  // flip one byte to any value
        text[at] = static_cast<char>(rng.uniform_int(0, 255));
        break;
      case 1:
        text.erase(at, 1);
        break;
      case 2:
        text.resize(at);
        break;
      case 3:
        text.insert(at, 1, kInserts[rng.index(kInserts.size())]);
        break;
      default: {  // "key":value, -> "key":value,"key":value,
        const std::size_t colon = text.find("\":", at);
        if (colon == std::string::npos || colon == 0) break;
        const std::size_t open = text.rfind('"', colon - 1);
        const std::size_t end = text.find_first_of(",}", colon);
        if (open == std::string::npos || end == std::string::npos) break;
        text.insert(open, text.substr(open, end - open) + ",");
        break;
      }
    }
  }
  return text;
}

/// json_parse under its contract; checks the dump fixed point of every
/// document that parses and returns it.
std::optional<Json> parse_checked(const std::string& text) {
  try {
    Json value = obs::json_parse(text);
    const std::string dumped = value.dump();
    EXPECT_EQ(obs::json_parse(dumped).dump(), dumped) << text;
    return value;
  } catch (const InvalidArgument&) {
    return std::nullopt;
  } catch (const std::exception& error) {
    ADD_FAILURE() << "json_parse threw " << error.what() << " on " << text;
  } catch (...) {
    ADD_FAILURE() << "json_parse threw a non-exception on " << text;
  }
  return std::nullopt;
}

/// parse_request under its contract; the request, when the line is one.
std::optional<ServeRequest> request_checked(const std::string& line) {
  try {
    return parse_request(line);
  } catch (const ProtocolError&) {
    return std::nullopt;
  } catch (const std::exception& error) {
    ADD_FAILURE() << "parse_request threw " << error.what() << " on "
                  << line;
  } catch (...) {
    ADD_FAILURE() << "parse_request threw a non-exception on " << line;
  }
  return std::nullopt;
}

/// The deepest nesting of open arrays and objects in the valid JSON text
/// `text` (a duplicate key's dropped value counts too).
int depth_of(const std::string& text) {
  int depth = 0;
  int deepest = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (c == '\\') ++i;
      if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '[' || c == '{') {
      deepest = std::max(deepest, ++depth);
    } else if (c == ']' || c == '}') {
      --depth;
    }
  }
  return deepest;
}

/// `text` inside `levels` arrays, or `levels` objects when `objects`.
std::string wrap(const std::string& text, int levels, bool objects) {
  std::string out;
  for (int i = 0; i < levels; ++i) out += objects ? "{\"w\":" : "[";
  out += text;
  return out + std::string(static_cast<std::size_t>(levels),
                           objects ? '}' : ']');
}

std::string scratch_circuit() {
  const std::string dir = ::testing::TempDir() + "fpkit_json_fuzz";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/circuit.fp";
  save_circuit(CircuitGenerator::generate(CircuitGenerator::table1(0)), path);
  return path;
}

bool blank(const std::string& line) {
  return line.find_first_not_of(" \t") == std::string::npos;
}

TEST(JsonFuzz, MutatedDocumentsParseOrThrowInvalidArgument) {
  std::vector<std::string> seeds = document_seeds();
  for (const std::string& line : request_seeds("circuit.fp")) {
    seeds.push_back(line);
  }
  Rng rng(20261019);
  int parsed = 0;
  for (const std::string& seed : seeds) {
    ASSERT_TRUE(parse_checked(seed).has_value()) << seed;
    for (int round = 0; round < 300; ++round) {
      if (parse_checked(mutate(seed, rng))) ++parsed;
    }
  }
  // Some mutants stay parseable (a flipped digit, a duplicated key); the
  // count only shows the loop ran.
  EXPECT_GT(parsed, 0);
}

TEST(JsonFuzz, NestingAtTheBoundParsesAndOnePastIsRejected) {
  Rng rng(7);
  for (const std::string& seed : document_seeds()) {
    for (int round = 0; round < 20; ++round) {
      const std::string text = round == 0 ? seed : mutate(seed, rng);
      if (!parse_checked(text)) continue;
      const int room = obs::kJsonMaxDepth - depth_of(text);
      for (const bool objects : {false, true}) {
        EXPECT_TRUE(parse_checked(wrap(text, room, objects)).has_value());
        EXPECT_THROW((void)obs::json_parse(wrap(text, room + 1, objects)),
                     InvalidArgument);
      }
    }
  }
}

TEST(JsonFuzz, MutatedRequestsParseOrThrowProtocolError) {
  Rng rng(424242);
  for (const std::string& seed : request_seeds("circuit.fp")) {
    ASSERT_TRUE(request_checked(seed).has_value()) << seed;
    for (int round = 0; round < 300; ++round) {
      const std::optional<ServeRequest> request =
          request_checked(mutate(seed, rng));
      if (request) {
        EXPECT_TRUE(request->params.is_object());
      }
    }
  }
}

TEST(JsonFuzz, ServeAnswersEveryMutatedLineWithOneJsonLine) {
  const std::vector<std::string> seeds = request_seeds(scratch_circuit());
  Rng rng(1019);
  std::vector<std::string> lines;
  for (int round = 0; round < 40; ++round) {
    for (const std::string& seed : seeds) {
      std::string line = mutate(seed, rng);
      std::replace(line.begin(), line.end(), '\n', ' ');
      std::replace(line.begin(), line.end(), '\r', ' ');
      lines.push_back(std::move(line));
    }
  }
  ServeOptions options;
  options.session.grid_spec.nodes_per_side = 8;
  // Each session opens with the load seed and runs to the next line that
  // shuts it down (which is answered too) or to the end.
  std::size_t next = 0;
  while (next < lines.size()) {
    std::string script = seeds.front() + "\n";
    std::size_t expected = 1;
    while (next < lines.size()) {
      const std::string& line = lines[next++];
      script += line + "\n";
      if (blank(line)) continue;
      ++expected;
      const std::optional<ServeRequest> request = request_checked(line);
      if (request && request->method == "shutdown") break;
    }
    std::istringstream in(script);
    std::ostringstream out;
    (void)run_serve(in, out, options);
    std::istringstream answers(out.str());
    std::size_t answered = 0;
    for (std::string answer; std::getline(answers, answer); ++answered) {
      try {
        const Json response = obs::json_parse(answer);
        const Json* ok = response.find("ok");
        ASSERT_NE(ok, nullptr) << answer;
        ASSERT_EQ(ok->kind(), Json::Kind::Bool) << answer;
        if (answered == 0) {
          EXPECT_TRUE(ok->as_bool()) << "the session's load failed: "
                                     << answer;
        }
        EXPECT_EQ(response.dump(), answer);
      } catch (const InvalidArgument& error) {
        ADD_FAILURE() << "unparseable response " << answer << ": "
                      << error.what();
      }
    }
    EXPECT_EQ(answered, expected) << script;
  }
}

TEST(JsonFuzz, DescendingKeysParseInAscendingOrder) {
  constexpr int kKeys = 50000;
  const auto key = [](int i) {
    char buf[16];
    std::snprintf(buf, sizeof buf, "k%05d", i);
    return std::string(buf);
  };
  std::string descending = "{";
  for (int i = kKeys - 1; i >= 0; --i) {
    descending += '"' + key(i);
    descending += "\":" + std::to_string(i);
    descending += i > 0 ? "," : "}";
  }
  std::string ascending = "{";
  for (int i = 0; i < kKeys; ++i) {
    ascending += '"' + key(i);
    ascending += "\":" + std::to_string(i);
    ascending += i + 1 < kKeys ? "," : "}";
  }
  const Json doc = obs::json_parse(descending);
  EXPECT_EQ(doc.fields().size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(doc.dump(), ascending);
  EXPECT_EQ(doc.at(key(12345)).as_number(), 12345.0);
}

}  // namespace
}  // namespace fp
