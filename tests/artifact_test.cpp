// Run-artifact layer (obs/artifact.h, docs/ARTIFACTS.md): the canonical
// JSON value/parser/writer and its nesting bound (end to end through the
// real fpkit binary too), the CLI's per-subcommand flag checks, manifest
// round trips, the compare gating semantics behind `fpkit compare`, and
// the `fpkit batch --jobs-file` parser.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "codesign/flow.h"
#include "obs/artifact.h"
#include "obs/json.h"
#include "util/error.h"

#ifndef FPKIT_CLI_PATH
#define FPKIT_CLI_PATH ""
#endif

namespace fp {
namespace {

// --- canonical JSON ----------------------------------------------------

TEST(ArtifactJson, DumpIsCanonicalAndRoundTrips) {
  obs::Json doc = obs::Json::object();
  doc.set("zeta", obs::Json::number(1.5));
  doc.set("alpha", obs::Json::string("a \"b\"\n\t\\"));
  obs::Json list = obs::Json::array();
  list.push(obs::Json::boolean(true));
  list.push(obs::Json());
  list.push(obs::Json::number(1.0 / 3.0));
  list.push(obs::Json::number(std::numeric_limits<double>::denorm_min()));
  list.push(obs::Json::number(-0.0));
  doc.set("list", std::move(list));

  const std::string text = doc.dump();
  // Keys are emitted sorted, independent of insertion order.
  EXPECT_LT(text.find("\"alpha\""), text.find("\"list\""));
  EXPECT_LT(text.find("\"list\""), text.find("\"zeta\""));
  // parse(dump()) then dump() again is byte-identical.
  const obs::Json back = obs::json_parse(text);
  EXPECT_EQ(back.dump(), text);
  // %.17g round-trips every double exactly.
  EXPECT_EQ(back.at("list").items()[2].as_number(), 1.0 / 3.0);
  EXPECT_EQ(back.at("list").items()[3].as_number(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_TRUE(std::signbit(back.at("list").items()[4].as_number()));
  EXPECT_EQ(back.at("alpha").as_string(), "a \"b\"\n\t\\");
}

// dump()'s exact bytes, pinned from the std::map-backed value it replaced:
// keys in byte order whatever order they were set or parsed in, the last
// duplicate winning, empty containers, nesting, and keys that need
// escaping or are not ASCII.
TEST(ArtifactJson, DumpBytesArePinned) {
  obs::Json built = obs::Json::object();
  built.set("zeta", obs::Json::number(3.0));
  built.set("beta", obs::Json::string("b"));
  built.set("alpha", obs::Json::boolean(false));
  built.set("mu", obs::Json());
  built.set("Zed", obs::Json::number(-0.0));
  built.set("", obs::Json::array());
  built.set("alpha2", obs::Json::object());
  built.set("beta", obs::Json::number(2.5));  // replaces "b"
  built.set("a", obs::Json::number(1e300));
  EXPECT_EQ(built.dump(),
            R"({"":[],"Zed":-0,"a":1.0000000000000001e+300,"alpha":false,)"
            R"("alpha2":{},"beta":2.5,"mu":null,"zeta":3})");

  obs::Json list = obs::Json::array();
  obs::Json first = obs::Json::object();
  first.set("z", obs::Json::number(1.0));
  first.set("a", obs::Json::number(2.0));
  list.push(std::move(first));
  obs::Json second = obs::Json::object();
  obs::Json inner = obs::Json::array();
  obs::Json leaf = obs::Json::object();
  leaf.set("y", obs::Json::boolean(true));
  leaf.set("b", obs::Json());
  inner.push(std::move(leaf));
  inner.push(obs::Json::object());
  second.set("m", std::move(inner));
  list.push(std::move(second));
  obs::Json outer = obs::Json::object();
  outer.set("list", std::move(list));
  outer.set("k", obs::Json::number(0.0));
  obs::Json nested = obs::Json::object();
  nested.set("outer", std::move(outer));
  const std::string nested_text =
      R"({"outer":{"k":0,"list":[{"a":2,"z":1},)"
      R"({"m":[{"b":null,"y":true},{}]}]}})";
  EXPECT_EQ(nested.dump(), nested_text);

  const std::vector<std::pair<std::string, std::string>> parsed = {
      {R"({"b":1,"a":2,"b":3,"a":{"x":1},"c":[],"a":"last"})",
       R"({"a":"last","b":3,"c":[]})"},
      {R"({"k":1,"k":2,"k":3})", R"({"k":3})"},
      {R"( { "d" : [ ] , "c" : { } , "b" : [ { } ] , "a" : [ [ ] ] } )",
       R"({"a":[[]],"b":[{}],"c":{},"d":[]})"},
      {"{}", "{}"},
      {"[]", "[]"},
      {R"([{},[],{"e":{"f":{}}}])", R"([{},[],{"e":{"f":{}}}])"},
      {R"({"outer":{"list":[{"z":1,"a":2},)"
       R"({"m":[{"y":true,"b":null},{}]}],"k":0}})",
       nested_text},
      {"{\"\\u00e9t\\u00e9\":1,\"\xc3\xa9t\xc3\xa9\":2,\"k\\\"q\":3,"
       "\"k\\\\b\":4,\"tab\\there\":5,\"\\u0001ctl\":6,\"\\u20ac\":7,"
       "\"ascii\":8,\"\\n\":9,\"\\/\\b\\f\\r\":10,\"Z\":11}",
       "{\"\\u0001ctl\":6,\"\\n\":9,\"/\\u0008\\u000c\\u000d\":10,\"Z\":11,"
       "\"ascii\":8,\"k\\\"q\":3,\"k\\\\b\":4,\"tab\\there\":5,"
       "\"\xc3\xa9t\xc3\xa9\":2,\"\xe2\x82\xac\":7}"},
  };
  for (const auto& [input, expected] : parsed) {
    const std::string text = obs::json_parse(input).dump();
    EXPECT_EQ(text, expected) << input;
    EXPECT_EQ(obs::json_parse(text).dump(), text) << input;
  }
}

TEST(ArtifactJson, StrictParserRejectsMalformedDocuments) {
  EXPECT_THROW((void)obs::json_parse("{\"a\":1,}"), InvalidArgument);
  EXPECT_THROW((void)obs::json_parse("[1 2]"), InvalidArgument);
  EXPECT_THROW((void)obs::json_parse("{\"a\":1} x"), InvalidArgument);
  EXPECT_THROW((void)obs::json_parse("NaN"), InvalidArgument);
  EXPECT_THROW((void)obs::json_parse("Infinity"), InvalidArgument);
  EXPECT_THROW((void)obs::json_parse(""), InvalidArgument);
  EXPECT_THROW((void)obs::json_parse("{'a':1}"), InvalidArgument);
  EXPECT_THROW((void)obs::json_parse("{\"a\"}"), InvalidArgument);
  // Numbers follow the JSON grammar: no '+' sign, no bare or trailing
  // '.', no leading zero, an exponent needs digits.
  for (const char* number : {"+5", ".5", "5.", "01", "1.e5", "-.5", "1e", "-",
                             "{\"id\":+5}", "[1.5e+]"}) {
    EXPECT_THROW((void)obs::json_parse(number), InvalidArgument) << number;
  }
  // Beyond +-DBL_MAX, or nonzero and rounding to 0: out of range.
  for (const char* number : {"1e400", "-1.8e308", "1e-400"}) {
    EXPECT_THROW((void)obs::json_parse(number), InvalidArgument) << number;
  }
  EXPECT_EQ(obs::json_parse("-0.5e-3").as_number(), -0.5e-3);
  EXPECT_EQ(obs::json_parse("0E+2").as_number(), 0.0);
}

// The reader's exact error text, offsets included: serve's FP-PROTO
// responses carry it to the client.
TEST(ArtifactJson, ParseErrorTextIsPinned) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"{\"a\":1,}", "offset 7: expected '\"'"},
      {"[1 2]", "offset 3: expected ']'"},
      {"{\"a\":1} x", "offset 8: trailing characters"},
      {"NaN", "offset 0: expected a value"},
      {"Infinity", "offset 0: expected a value"},
      {"", "offset 0: unexpected end of input"},
      {"{'a':1}", "offset 1: expected '\"'"},
      {"{\"a\"}", "offset 4: expected ':'"},
      {"+5", "offset 0: expected a value"},
      {".5", "offset 0: expected a value"},
      {"5.", "offset 2: malformed number"},
      {"01", "offset 1: trailing characters"},
      {"1.e5", "offset 2: malformed number"},
      {"-.5", "offset 1: malformed number"},
      {"1e", "offset 2: malformed number"},
      {"-", "offset 1: malformed number"},
      {"{\"id\":+5}", "offset 6: expected a value"},
      {"[1.5e+]", "offset 6: malformed number"},
      {"1e400", "offset 5: number out of range '1e400'"},
      {"-1.8e308", "offset 8: number out of range '-1.8e308'"},
      {"1e-400", "offset 6: number out of range '1e-400'"},
      {"tru", "offset 0: expected a value"},
      {"[nul]", "offset 1: expected a value"},
      {"{\"a\":fals}", "offset 5: expected a value"},
      {"\"abc", "offset 4: unterminated string"},
      {"{\"key", "offset 5: unterminated string"},
      {"\"a\\qb\"", "offset 4: unknown escape"},
      {"\"abc\\", "offset 5: unterminated escape"},
      {"\"\\u12\"", "offset 3: truncated \\u escape"},
      {"\"\\u12x4\"", "offset 6: bad \\u escape digit"},
      {"\"a\tb\"", "offset 3: raw control character"},
      {std::string(257, '['), "offset 256: nesting deeper than 256"},
  };
  for (const auto& [input, expected] : cases) {
    try {
      (void)obs::json_parse(input);
      ADD_FAILURE() << "accepted: " << input;
    } catch (const InvalidArgument& error) {
      EXPECT_EQ(std::string(error.what()), "json parse error at " + expected)
          << input;
    }
  }
}

/// `depth` nested arrays: "[[...]]".
std::string nested_arrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

/// `depth` nested objects: {"a":{"a":...{}}}.
std::string nested_objects(int depth) {
  std::string text;
  for (int i = 1; i < depth; ++i) text += "{\"a\":";
  text += "{}";
  return text + std::string(static_cast<std::size_t>(depth - 1), '}');
}

TEST(ArtifactJson, NestingDepthIsBounded) {
  // The parser recurses once per level: kJsonMaxDepth levels parse, one
  // more is malformed input, and a 50,000-deep line is rejected instead
  // of overflowing the stack.
  EXPECT_NO_THROW((void)obs::json_parse(nested_arrays(obs::kJsonMaxDepth)));
  EXPECT_NO_THROW((void)obs::json_parse(nested_objects(obs::kJsonMaxDepth)));
  EXPECT_THROW((void)obs::json_parse(nested_arrays(obs::kJsonMaxDepth + 1)),
               InvalidArgument);
  EXPECT_THROW((void)obs::json_parse(nested_objects(obs::kJsonMaxDepth + 1)),
               InvalidArgument);
  EXPECT_THROW((void)obs::json_parse(nested_arrays(50000)), InvalidArgument);
  EXPECT_THROW((void)obs::json_parse(nested_objects(50000)), InvalidArgument);
  // Depth counts open containers, not total containers.
  std::string wide = "[";
  for (int i = 0; i < 2 * obs::kJsonMaxDepth; ++i) wide += "[[]],";
  wide += "[]]";
  EXPECT_NO_THROW((void)obs::json_parse(wide));
}

/// Exit code of the real fpkit binary run with `args`; stdout is
/// discarded and stderr goes to `err`.
int run_fpkit(const std::string& args, const std::string& err = "/dev/null") {
  const std::string command =
      std::string(FPKIT_CLI_PATH) + " " + args + " > /dev/null 2> " + err;
  const int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ArtifactJson, DeeplyNestedInputsExitTwo) {
  // A 50,000-deep document used to crash `compare` (as a manifest) and
  // `dash --profile` (as a trace) with SIGSEGV; it is bad input (exit 2).
  ASSERT_FALSE(std::string(FPKIT_CLI_PATH).empty());
  const std::string dir = ::testing::TempDir() + "json_deep";
  std::filesystem::remove_all(dir);
  for (const std::string run : {"/a", "/b"}) {
    std::filesystem::create_directories(dir + run);
    std::ofstream(dir + run + "/manifest.json") << nested_arrays(50000);
  }
  std::ofstream(dir + "/trace.json") << nested_objects(50000);
  EXPECT_EQ(run_fpkit("compare " + dir + "/a " + dir + "/b"), 2);
  EXPECT_EQ(run_fpkit("dash --profile " + dir + "/trace.json --format text"),
            2);
  std::ofstream(dir + "/trace.json", std::ios::trunc) << nested_arrays(50000);
  EXPECT_EQ(run_fpkit("dash --profile " + dir + "/trace.json --format text"),
            2);
}

// --- the CLI command table ---------------------------------------------

/// A Table-1 circuit written by the real binary, one file per test.
std::string cli_circuit(const std::string& name) {
  const std::string path = ::testing::TempDir() + name + ".fp";
  EXPECT_EQ(run_fpkit("generate --table1 1 --out " + path), 0);
  return path;
}

TEST(CliFlags, MisspelledFlagExitsTwoAndIsNamed) {
  ASSERT_FALSE(std::string(FPKIT_CLI_PATH).empty());
  const std::string circuit = cli_circuit("cli_typo");
  const std::string err = ::testing::TempDir() + "cli_typo.err";
  EXPECT_EQ(run_fpkit("run " + circuit + " --mseh 12", err), 2);
  std::ifstream in(err);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("--mseh"), std::string::npos) << text;
  EXPECT_NE(text.find("FP-INVALID"), std::string::npos) << text;
}

TEST(CliFlags, SwitchBeforeTheCircuitRuns) {
  ASSERT_FALSE(std::string(FPKIT_CLI_PATH).empty());
  const std::string circuit = cli_circuit("cli_switch");
  EXPECT_EQ(run_fpkit("run --no-exchange " + circuit + " --mesh 12"), 0);
}

TEST(CliFlags, DuplicateBatchSeedsExitTwo) {
  // Two jobs labelled DFA/seed=1, rejected as in a jobs file.
  ASSERT_FALSE(std::string(FPKIT_CLI_PATH).empty());
  const std::string circuit = cli_circuit("cli_seeds");
  EXPECT_EQ(run_fpkit("batch " + circuit + " --seeds 1,1 --mesh 12"), 2);
}

TEST(CliFlags, IrAndSpiceAreRunOutputs) {
  // `run --heatmap` and `run --spice` replaced the two subcommands, which
  // now print the usage like any unknown command.
  ASSERT_FALSE(std::string(FPKIT_CLI_PATH).empty());
  const std::string circuit = cli_circuit("cli_gone");
  const std::string err = ::testing::TempDir() + "cli_gone.err";
  for (const std::string command : {"ir", "spice"}) {
    EXPECT_EQ(run_fpkit(command + " " + circuit + " --mesh 12", err), 2);
    std::ifstream in(err);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_NE(text.find("usage: fpkit"), std::string::npos) << text;
  }
}

TEST(CliFlags, HeatmapDrawsTheRunsFinalField) {
  // The heat map draws the final analysis's own field, so a run that
  // writes one still solves twice, once per analysis.
  ASSERT_FALSE(std::string(FPKIT_CLI_PATH).empty());
  const std::string circuit = cli_circuit("cli_heatmap");
  const std::string prefix = ::testing::TempDir() + "cli_heatmap";
  std::filesystem::remove(prefix + ".svg");
  ASSERT_EQ(run_fpkit("run " + circuit + " --mesh 64 --heatmap " + prefix +
                      ".svg --metrics " + prefix + ".json"),
            0);
  EXPECT_TRUE(std::filesystem::exists(prefix + ".svg"));
  const obs::Json metrics = obs::json_load(prefix + ".json");
  EXPECT_EQ(metrics.at("counters").at("solver.solves").as_number(), 2.0);
}

TEST(CliFlags, DegradedSpiceRunRecordsTheFlow) {
  // `run --spice` is a flow run: a degraded one exits 3 and its manifest
  // holds the stages, results and degrade events.
  ASSERT_FALSE(std::string(FPKIT_CLI_PATH).empty());
  const std::string circuit = cli_circuit("cli_spice_degraded");
  const std::string prefix = ::testing::TempDir() + "cli_spice_degraded";
  EXPECT_EQ(run_fpkit("run " + circuit + " --mesh 12 --budget 1e-9 --spice " +
                      prefix + ".sp --artifact-dir " + prefix),
            3);
  EXPECT_TRUE(std::filesystem::exists(prefix + ".sp"));
  const obs::RunManifest manifest = obs::load_run_artifact(prefix).manifest;
  EXPECT_EQ(manifest.exit_code, 3);
  EXPECT_FALSE(manifest.stages.empty());
  EXPECT_FALSE(manifest.results.empty());
  EXPECT_FALSE(manifest.events.empty());
}

TEST(CliFlags, RouteAndCheckPlanWithoutSolving) {
  // Without --assignment, route and check run the assignment step alone:
  // they print what they print for the stored assignment of `run
  // --no-exchange`, and no IR solve records a solver.* metric.
  ASSERT_FALSE(std::string(FPKIT_CLI_PATH).empty());
  const std::string circuit = cli_circuit("cli_plan");
  const std::string prefix = ::testing::TempDir() + "cli_plan_";
  const std::string stored = prefix + "stored.fpa";
  ASSERT_EQ(run_fpkit("run " + circuit + " --mesh 64 --no-exchange "
                      "--out-assignment " + stored),
            0);
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  for (const std::string command : {"route", "check"}) {
    // Both runs write the same metrics path, so their stdout can match;
    // the planning run goes last and leaves its metrics behind.
    const std::string metrics = prefix + command + ".metrics.json";
    const auto run = [&](const std::string& extra, const std::string& out) {
      const std::string line = std::string(FPKIT_CLI_PATH) + " " + command +
                               " " + circuit + " --mesh 64 --metrics " +
                               metrics + extra + " > " + out +
                               " 2> /dev/null";
      const int status = std::system(line.c_str());
      return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    };
    const std::string loaded_out = prefix + command + "_stored.out";
    const std::string planned_out = prefix + command + "_planned.out";
    const int loaded_exit = run(" --assignment " + stored, loaded_out);
    const int planned_exit = run("", planned_out);
    EXPECT_EQ(planned_exit, loaded_exit) << command;
    EXPECT_EQ(slurp(planned_out), slurp(loaded_out)) << command;
    const std::string recorded = slurp(metrics);
    EXPECT_NE(recorded.find("fpkit.metrics.v1"), std::string::npos)
        << command;
    EXPECT_EQ(recorded.find("\"solver."), std::string::npos)
        << command << ": " << recorded;
  }
}

TEST(ArtifactJson, AccessorsEnforceKinds) {
  const obs::Json number = obs::Json::number(2.0);
  EXPECT_THROW((void)number.as_string(), InvalidArgument);
  EXPECT_THROW((void)number.at("key"), InvalidArgument);
  EXPECT_EQ(number.find("key"), nullptr);
  const obs::Json object = obs::Json::object();
  EXPECT_THROW((void)object.at("missing"), InvalidArgument);
  EXPECT_FALSE(object.has("missing"));
}

/// The bit pattern of `value`.
std::uint64_t bits_of(double value) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

// Every finite double is written in the bytes of "%.17g" and parses back
// to its own bits: signed zeros, the normal and subnormal extremes, the
// edge of exact integers, and 100k random bit patterns.
TEST(ArtifactJson, NumberTextMatchesPrintf) {
  using limits = std::numeric_limits<double>;
  const double two53 = 9007199254740992.0;
  std::vector<double> table = {0.0, -0.0, limits::min(), -limits::min(),
                               limits::denorm_min(), limits::max(),
                               -limits::max(), two53 - 1.0, two53 + 1.0,
                               0.1, 1.0 / 3.0};
  // Integers, which the writer formats as integers below 10^15: all of
  // [-2^16, 2^16], that bound's neighbours, and the powers of ten.
  for (int i = -65536; i <= 65536; ++i) table.push_back(i);
  for (const double edge : {1e15 - 1.0, 1e15, 1e15 + 1.0, two53, 1e16, 1e17,
                            0.5, 1e15 - 0.5, 4503599627370495.5}) {
    table.push_back(edge);
    table.push_back(-edge);
  }
  for (double power = 1.0; power <= 1e22; power *= 10.0) {
    table.push_back(power);
    table.push_back(-power);
  }
  std::mt19937_64 rng(20261018);
  for (int i = 0; i < 100000; ++i) {
    const std::uint64_t bits = rng();
    double value = 0.0;
    std::memcpy(&value, &bits, sizeof value);
    table.push_back(value);
  }
  for (const double value : table) {
    const std::string text = obs::json_number_text(value);
    if (!std::isfinite(value)) {
      EXPECT_EQ(text, "0");
      continue;
    }
    char expected[40];
    std::snprintf(expected, sizeof expected, "%.17g", value);
    ASSERT_EQ(text, expected) << std::hexfloat << value;
    ASSERT_EQ(bits_of(obs::json_parse(text).as_number()), bits_of(value))
        << text;
  }
}

// Integer tokens of 15 digits or fewer (exact in a double) and longer ones
// (rounded) read the bits strtod gives them; -0 keeps its sign.
TEST(ArtifactJson, IntegerTokensParseToStrtodBits) {
  for (const char* token :
       {"0", "-0", "7", "-7", "100000000000000", "999999999999999",
        "-999999999999999", "123456789012345", "1000000000000000",
        "1234567890123456", "9007199254740993", "-9007199254740993",
        "99999999999999999", "12345678901234567890"}) {
    const double parsed = obs::json_parse(token).as_number();
    EXPECT_EQ(bits_of(parsed), bits_of(std::strtod(token, nullptr)))
        << token;
    EXPECT_EQ(obs::json_parse(obs::json_number_text(parsed)).dump(),
              obs::json_number_text(parsed))
        << token;
  }
  EXPECT_TRUE(std::signbit(obs::json_parse("-0").as_number()));
  EXPECT_FALSE(std::signbit(obs::json_parse("0").as_number()));
  EXPECT_EQ(obs::json_parse("[0,-0,-0.0,10,-10]").dump(), "[0,-0,-0,10,-10]");
}

TEST(ArtifactJson, NumberTextClampsNonFinite) {
  // Strict JSON has no NaN/Infinity literal; the writers clamp to 0.
  EXPECT_EQ(obs::json_number_text(std::nan("")), "0");
  EXPECT_EQ(obs::json_number_text(HUGE_VAL), "0");
  EXPECT_EQ(obs::json_number_text(-HUGE_VAL), "0");
  EXPECT_EQ(obs::json_number_text(0.25), "0.25");
}

// --- manifest round trip -----------------------------------------------

obs::RunManifest full_manifest() {
  obs::RunManifest manifest;
  manifest.subcommand = "batch";
  manifest.version = "9.9.9";
  manifest.threads = 4;
  manifest.env = {{"FPKIT_THREADS", "4"}, {"FPKIT_TRACE", "1"}};
  manifest.fault_spec = "solver.step:after=1:times=1000";
  manifest.faults.push_back({"solver.step", 1, 1000, 6, 6});
  manifest.options = obs::json_parse("{\"mesh\":32,\"method\":\"dfa\"}");
  manifest.seeds = {1, 2, 3};
  manifest.wall_s = 1.25;
  manifest.exit_code = 3;
  manifest.stages = {{"assign", 0.5}, {"exchange", 0.75}};
  manifest.events.push_back({"exchange", "budget_expired", "stopped early"});
  manifest.results = {{"sa_final_cost", 10.5}, {"runtime_s", 1.2}};
  manifest.extra = obs::json_parse("{\"label\":\"stress\"}");
  return manifest;
}

TEST(ArtifactManifest, JsonRoundTripPreservesEveryField) {
  const obs::RunManifest manifest = full_manifest();
  const obs::Json doc = obs::manifest_to_json(manifest);
  EXPECT_EQ(doc.at("schema").as_string(), "fpkit.run.v1");

  const obs::RunManifest back = obs::manifest_from_json(doc);
  EXPECT_EQ(back.subcommand, "batch");
  EXPECT_EQ(back.version, "9.9.9");
  EXPECT_EQ(back.threads, 4);
  EXPECT_EQ(back.env, manifest.env);
  EXPECT_EQ(back.fault_spec, manifest.fault_spec);
  ASSERT_EQ(back.faults.size(), 1u);
  EXPECT_EQ(back.faults[0].site, "solver.step");
  EXPECT_EQ(back.faults[0].after, 1);
  EXPECT_EQ(back.faults[0].times, 1000);
  EXPECT_EQ(back.faults[0].hits, 6);
  EXPECT_EQ(back.faults[0].fired, 6);
  EXPECT_EQ(back.seeds, manifest.seeds);
  EXPECT_EQ(back.wall_s, 1.25);
  EXPECT_EQ(back.exit_code, 3);
  ASSERT_EQ(back.stages.size(), 2u);
  EXPECT_EQ(back.stages[1].name, "exchange");
  EXPECT_EQ(back.stages[1].seconds, 0.75);
  ASSERT_EQ(back.events.size(), 1u);
  EXPECT_EQ(back.events[0].reason, "budget_expired");
  EXPECT_EQ(back.results, manifest.results);
  EXPECT_EQ(back.extra.at("label").as_string(), "stress");
  // Canonical writer: the round trip is byte-identical.
  EXPECT_EQ(obs::manifest_to_json(back).dump(), doc.dump());
}

TEST(ArtifactManifest, RejectsWrongOrMissingSchema) {
  obs::Json doc = obs::manifest_to_json(full_manifest());
  doc.set("schema", obs::Json::string("fpkit.other.v1"));
  EXPECT_THROW((void)obs::manifest_from_json(doc), InvalidArgument);
  EXPECT_THROW((void)obs::manifest_from_json(obs::json_parse("{}")),
               InvalidArgument);
}

// --- compare gating ----------------------------------------------------

std::string write_compare_artifact(const std::string& name, double exchange_s,
                                   double tiny_s, double cost) {
  obs::RunManifest manifest;
  manifest.subcommand = "run";
  manifest.version = std::string(obs::kToolVersion);
  manifest.wall_s = exchange_s + tiny_s;
  manifest.stages = {{"exchange", exchange_s}, {"analyze_initial", tiny_s}};
  manifest.results = {{"sa_final_cost", cost},
                      {"runtime_s", exchange_s + tiny_s},
                      {"max_density_final", 2.0}};
  const std::string dir = ::testing::TempDir() + name;
  obs::write_run_artifact(dir, manifest, /*include_metrics=*/false,
                          /*include_trace=*/false);
  return dir;
}

TEST(ArtifactCompare, UngatedCompareOnlyReportsDeltas) {
  const std::string a = write_compare_artifact("cmp_plain_a", 0.10, 0.001, 5.0);
  const std::string b = write_compare_artifact("cmp_plain_b", 0.35, 0.009, 5.5);
  const obs::CompareReport report = obs::compare_artifacts(a, b, {});
  EXPECT_GT(report.compared, 0);
  EXPECT_FALSE(report.findings.empty());  // the quantities differ...
  EXPECT_EQ(report.regressions(), 0);     // ...but no gate is armed
  std::filesystem::remove_all(a);
  std::filesystem::remove_all(b);
}

TEST(ArtifactCompare, SlowdownGateFlagsBreachesAboveTheFloorOnly) {
  // exchange slows 3.5x (gated); analyze_initial slows 9x but sits under
  // min_time_s, where stage ratios are pure noise.
  const std::string a = write_compare_artifact("cmp_slow_a", 0.10, 0.001, 5.0);
  const std::string b = write_compare_artifact("cmp_slow_b", 0.35, 0.009, 5.0);
  obs::CompareOptions gates;
  gates.max_slowdown = 2.0;
  const obs::CompareReport report = obs::compare_artifacts(a, b, gates);
  bool exchange_flagged = false;
  bool tiny_flagged = false;
  for (const obs::CompareFinding& finding : report.findings) {
    if (!finding.regression) continue;
    if (finding.name.find("exchange") != std::string::npos) {
      exchange_flagged = true;
    }
    if (finding.name.find("analyze_initial") != std::string::npos) {
      tiny_flagged = true;
    }
  }
  EXPECT_TRUE(exchange_flagged);
  EXPECT_FALSE(tiny_flagged);
  EXPECT_GT(report.regressions(), 0);

  // The gate is one-sided: B being *faster* than A never regresses.
  const obs::CompareReport reversed = obs::compare_artifacts(b, a, gates);
  EXPECT_EQ(reversed.regressions(), 0);
  std::filesystem::remove_all(a);
  std::filesystem::remove_all(b);
}

TEST(ArtifactCompare, EqualCostGateCatchesDrift) {
  const std::string a = write_compare_artifact("cmp_cost_a", 0.10, 0.001, 5.0);
  const std::string b = write_compare_artifact("cmp_cost_b", 0.10, 0.001, 5.5);
  obs::CompareOptions gates;
  gates.require_equal_cost = true;
  const obs::CompareReport report = obs::compare_artifacts(a, b, gates);
  bool cost_flagged = false;
  for (const obs::CompareFinding& finding : report.findings) {
    if (finding.regression &&
        finding.name.find("cost") != std::string::npos) {
      cost_flagged = true;
    }
  }
  EXPECT_TRUE(cost_flagged);
  EXPECT_GT(report.regressions(), 0);
  std::filesystem::remove_all(a);
  std::filesystem::remove_all(b);
}

TEST(ArtifactCompare, MissingArtifactThrows) {
  const std::string good =
      write_compare_artifact("cmp_lone", 0.10, 0.001, 5.0);
  EXPECT_THROW((void)obs::compare_artifacts(
                   good, ::testing::TempDir() + "cmp_does_not_exist", {}),
               Error);
  std::filesystem::remove_all(good);
}

// --- batch-vs-batch compare --------------------------------------------

std::string write_batch_artifact(const std::string& name,
                                 const std::vector<double>& job_costs,
                                 const std::vector<std::string>& labels) {
  const std::string dir = ::testing::TempDir() + name;
  obs::RunManifest top;
  top.subcommand = "batch";
  top.version = std::string(obs::kToolVersion);
  top.results = {{"jobs", static_cast<double>(job_costs.size())}};
  obs::write_run_artifact(dir, top, /*include_metrics=*/false,
                          /*include_trace=*/false);
  for (std::size_t i = 0; i < job_costs.size(); ++i) {
    obs::RunManifest job;
    job.subcommand = "run";
    job.version = std::string(obs::kToolVersion);
    job.results = {{"sa_final_cost", job_costs[i]}};
    if (i < labels.size() && !labels[i].empty()) {
      job.extra = obs::Json::object();
      job.extra.set("label", obs::Json::string(labels[i]));
    }
    obs::write_run_artifact(dir + "/jobs/job" + std::to_string(i), job,
                            /*include_metrics=*/false,
                            /*include_trace=*/false);
  }
  return dir;
}

TEST(BatchCompare, DetectsBatchArtifacts) {
  const std::string batch = write_batch_artifact("bat_detect", {1.0}, {});
  const std::string run = write_compare_artifact("bat_run", 0.1, 0.001, 5.0);
  EXPECT_TRUE(obs::is_batch_artifact(batch));
  EXPECT_FALSE(obs::is_batch_artifact(run));
  EXPECT_FALSE(obs::is_batch_artifact(::testing::TempDir() + "bat_nope"));
  std::filesystem::remove_all(batch);
  std::filesystem::remove_all(run);
}

TEST(BatchCompare, DiffsJobByJobWithLabels) {
  const std::string a = write_batch_artifact(
      "bat_a", {5.0, 7.0}, {"dfa/seed=1", "dfa/seed=2"});
  const std::string b = write_batch_artifact(
      "bat_b", {5.0, 7.5}, {"dfa/seed=1", "dfa/seed=2"});
  obs::CompareOptions gates;
  gates.require_equal_cost = true;
  const obs::BatchCompareReport report =
      obs::compare_batch_artifacts(a, b, gates);
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_EQ(report.jobs[0].job, "job0");
  EXPECT_EQ(report.jobs[0].label, "dfa/seed=1");
  EXPECT_EQ(report.jobs[0].report.regressions(), 0);
  EXPECT_GT(report.jobs[1].report.regressions(), 0);
  EXPECT_EQ(report.regressions(), 1);
  EXPECT_NE(report.to_string().find("dfa/seed=2"), std::string::npos);
  std::filesystem::remove_all(a);
  std::filesystem::remove_all(b);
}

TEST(BatchCompare, IdenticalBatchesAreCleanUnderEveryGate) {
  const std::string a = write_batch_artifact("bat_eq_a", {5.0, 7.0}, {});
  const std::string b = write_batch_artifact("bat_eq_b", {5.0, 7.0}, {});
  obs::CompareOptions gates;
  gates.require_equal_cost = true;
  gates.max_slowdown = 1.5;
  const obs::BatchCompareReport report =
      obs::compare_batch_artifacts(a, b, gates);
  EXPECT_EQ(report.regressions(), 0);
  std::filesystem::remove_all(a);
  std::filesystem::remove_all(b);
}

TEST(BatchCompare, MissingJobCountsAsRegression) {
  const std::string a = write_batch_artifact("bat_mis_a", {5.0, 7.0}, {});
  const std::string b = write_batch_artifact("bat_mis_b", {5.0}, {});
  const obs::BatchCompareReport report =
      obs::compare_batch_artifacts(a, b, {});
  ASSERT_EQ(report.jobs.size(), 2u);
  EXPECT_TRUE(report.jobs[1].only_a);
  EXPECT_GE(report.regressions(), 1);
  EXPECT_NE(report.to_string().find("only in"), std::string::npos);
  std::filesystem::remove_all(a);
  std::filesystem::remove_all(b);
}

// --- batch jobs files --------------------------------------------------

std::string write_jobs_file(const std::string& name,
                            const std::string& content) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << content;
  return path;
}

TEST(BatchJobsFile, ParsesLabelsCommentsAndOverrides) {
  const std::string path = write_jobs_file(
      "jobs_ok.txt",
      "# sweep for the nightly determinism job\n"
      "\n"
      "baseline  method=dfa seed=3\n"
      "method=ifa seed=7 mesh=48 exchange=off restarts=4 lambda=10.5\n");
  FlowOptions base;
  const std::vector<BatchJob> jobs = load_batch_jobs(path, base);
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].label, "baseline");
  EXPECT_EQ(jobs[0].options.method, AssignmentMethod::Dfa);
  EXPECT_EQ(jobs[0].options.random_seed, 3u);
  // Unlabelled jobs get the --methods/--seeds cross-product convention.
  EXPECT_EQ(jobs[1].label, "IFA/seed=7");
  EXPECT_EQ(jobs[1].options.method, AssignmentMethod::Ifa);
  EXPECT_EQ(jobs[1].options.grid_spec.nodes_per_side, 48);
  EXPECT_FALSE(jobs[1].options.run_exchange);
  EXPECT_EQ(jobs[1].options.exchange.schedule.restarts, 4);
  EXPECT_EQ(jobs[1].options.exchange.lambda, 10.5);
  // Untouched fields inherit the base options.
  EXPECT_EQ(jobs[0].options.grid_spec.nodes_per_side,
            base.grid_spec.nodes_per_side);
}

TEST(BatchJobsFile, RejectsMalformedInput) {
  FlowOptions base;
  EXPECT_THROW((void)load_batch_jobs(
                   write_jobs_file("jobs_bad_key.txt", "method=dfa bogus=1\n"),
                   base),
               InvalidArgument);
  EXPECT_THROW((void)load_batch_jobs(
                   write_jobs_file("jobs_bad_int.txt", "seed=notanumber\n"),
                   base),
               InvalidArgument);
  EXPECT_THROW(
      (void)load_batch_jobs(
          write_jobs_file("jobs_two_labels.txt", "one two method=dfa\n"),
          base),
      InvalidArgument);
  EXPECT_THROW((void)load_batch_jobs(
                   write_jobs_file("jobs_empty.txt", "# nothing here\n"),
                   base),
               InvalidArgument);
  EXPECT_THROW((void)load_batch_jobs(
                   ::testing::TempDir() + "jobs_missing.txt", base),
               IoError);
}

TEST(BatchJobsFile, RejectsDuplicateLabelsWithBothLineNumbers) {
  FlowOptions base;
  // Two jobs sharing a label would collide in jobs/job<i> attribution
  // and make farm resume ambiguous; the error names both lines.
  try {
    (void)load_batch_jobs(write_jobs_file("jobs_dup.txt",
                                          "same method=dfa seed=1\n"
                                          "# comment lines keep numbering\n"
                                          "same method=dfa seed=2\n"),
                          base);
    FAIL() << "duplicate labels must be rejected";
  } catch (const InvalidArgument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("duplicate job label 'same'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
  }
  // Generated labels (method/seed cross-product convention) collide the
  // same way explicit ones do.
  EXPECT_THROW((void)load_batch_jobs(
                   write_jobs_file("jobs_dup_generated.txt",
                                   "method=dfa seed=5\n"
                                   "method=dfa seed=5\n"),
                   base),
               InvalidArgument);
}

}  // namespace
}  // namespace fp
