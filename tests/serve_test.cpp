// The `fpkit serve` protocol and daemon loop (docs/SERVE.md): request
// parsing and its FP-PROTO taxonomy, the request/response contract over
// a scripted session, graceful cancellation, and -- end to end, driving
// the real fpkit binary -- the acceptance property that an incremental
// `evaluate` after a swap stream reports the same Eq.-(3) cost and the
// identical check findings as a cold evaluation of the final assignment,
// and that a hostile, deeply nested request line is answered FP-PROTO.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "io/assignment_file.h"
#include "io/circuit_file.h"
#include "obs/json.h"
#include "package/circuit_generator.h"
#include "session/protocol.h"
#include "session/serve.h"
#include "util/error.h"

namespace fp {
namespace {

namespace fs = std::filesystem;
using obs::Json;

#ifndef FPKIT_CLI_PATH
#define FPKIT_CLI_PATH ""
#endif

std::string scratch_dir() {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + "fpkit_serve_" +
                          info->test_suite_name() + "_" + info->name();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Writes a small two-tier circuit and returns its path.
std::string write_circuit(const std::string& dir) {
  CircuitSpec spec = CircuitGenerator::table1(1);
  spec.tier_count = 2;
  spec.seed = 3;
  const std::string path = dir + "/circuit.fp";
  save_circuit(CircuitGenerator::generate(spec), path);
  return path;
}

/// Parses the daemon's response lines (strict canonical JSON each).
std::vector<Json> parse_lines(const std::string& text) {
  std::vector<Json> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    lines.push_back(obs::json_parse(line));
  }
  return lines;
}

ServeOutcome run_script(const std::vector<std::string>& requests,
                        std::vector<Json>& responses,
                        const ServeOptions& options = {}) {
  std::string script;
  for (const std::string& request : requests) script += request + "\n";
  std::istringstream in(script);
  std::ostringstream out;
  const ServeOutcome outcome = run_serve(in, out, options);
  responses = parse_lines(out.str());
  return outcome;
}

std::string load_request(const std::string& circuit, int mesh) {
  return "{\"id\": 1, \"method\": \"load\", \"params\": {\"circuit\": \"" +
         circuit + "\", \"mesh\": " + std::to_string(mesh) + "}}";
}

TEST(Protocol, ParsesWellFormedRequest) {
  const ServeRequest request = parse_request(
      R"({"id": 7, "method": "swap", "params": {"quadrant": 2}})");
  EXPECT_EQ(request.method, "swap");
  EXPECT_EQ(request.id.as_number(), 7.0);
  EXPECT_EQ(param_int(request.params, "quadrant", -1), 2);
}

TEST(Protocol, MalformedLinesRaiseProtocolError) {
  EXPECT_THROW(parse_request("not json"), ProtocolError);
  EXPECT_THROW(parse_request("[1, 2]"), ProtocolError);
  EXPECT_THROW(parse_request(R"({"id": 1})"), ProtocolError);
  EXPECT_THROW(parse_request(R"({"method": 3})"), ProtocolError);
  EXPECT_THROW(parse_request(R"({"method": "x", "params": []})"),
               ProtocolError);
}

TEST(Protocol, TypedParamAccessors) {
  const Json params = obs::json_parse(
      R"({"b": true, "n": 2.5, "i": 4, "s": "hi"})");
  EXPECT_EQ(param_bool(params, "b", false), true);
  EXPECT_EQ(param_number(params, "n", 0.0), 2.5);
  EXPECT_EQ(param_int(params, "i", 0), 4);
  EXPECT_EQ(param_string(params, "s", ""), "hi");
  EXPECT_EQ(param_int(params, "missing", 9), 9);
  EXPECT_THROW((void)param_int(params, "n", 0), ProtocolError);  // 2.5
  EXPECT_THROW((void)param_bool(params, "i", false), ProtocolError);
  EXPECT_THROW(param_string_required(params, "missing"), ProtocolError);
}

TEST(Protocol, ErrorResponseCarriesTaxonomyCode) {
  const Json response =
      error_response(Json::number(3.0), ErrorCode::Protocol, "boom");
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("error").at("code").as_string(), "FP-PROTO");
  EXPECT_EQ(response.at("error").at("message").as_string(), "boom");
}

TEST(Serve, ScriptedSessionRoundTrip) {
  const std::string dir = scratch_dir();
  const std::string circuit = write_circuit(dir);
  std::vector<Json> responses;
  const ServeOutcome outcome = run_script(
      {load_request(circuit, 12),
       R"({"id": 2, "method": "swap", "params": {"quadrant": 0, "finger": 1}})",
       R"({"id": 3, "method": "evaluate"})",
       R"({"id": 4, "method": "evaluate", "params": {"cold": true}})",
       R"({"id": 5, "method": "undo"})",
       R"({"id": 6, "method": "stats"})",
       "{\"id\": 7, \"method\": \"checkpoint\", \"params\": {\"path\": \"" +
           dir + "/ckpt.fpa\"}}",
       R"({"id": 8, "method": "shutdown"})"},
      responses);

  ASSERT_EQ(responses.size(), 8u);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_TRUE(responses[i].at("ok").as_bool()) << responses[i].dump();
    EXPECT_EQ(responses[i].at("id").as_number(),
              static_cast<double>(i + 1));
  }
  EXPECT_TRUE(outcome.shutdown);
  EXPECT_FALSE(outcome.interrupted);
  EXPECT_EQ(outcome.exit_code(), 0);
  EXPECT_EQ(outcome.swaps, 1);
  EXPECT_EQ(outcome.undos, 1);
  EXPECT_EQ(outcome.evaluations, 2);

  // Incremental (id 3) and cold (id 4) evaluations agree on the Eq.-(3)
  // cost and report the identical check findings document.
  const Json& incremental = responses[2].at("result");
  const Json& cold = responses[3].at("result");
  EXPECT_EQ(incremental.at("cost").as_number(), cold.at("cost").as_number());
  EXPECT_EQ(incremental.at("check").dump(), cold.at("check").dump());
  EXPECT_FALSE(incremental.at("cold").as_bool());
  EXPECT_TRUE(cold.at("cold").as_bool());

  // `stats` returns exactly the counters docs/SERVE.md lists.
  std::vector<std::string> stats_keys;
  for (const auto& [key, value] : responses[5].at("result").fields()) {
    stats_keys.push_back(key);
  }
  EXPECT_EQ(stats_keys,
            (std::vector<std::string>{
                "check", "cold_evaluations", "cold_solves", "evaluations",
                "router_memo_hits", "router_memo_misses", "swaps", "undos",
                "warm_solves"}));

  // The checkpoint is a loadable assignment of the drained state.
  const Package package = load_circuit(circuit);
  const PackageAssignment restored =
      load_assignment(dir + "/ckpt.fpa", package);
  EXPECT_EQ(restored.quadrants.size(),
            static_cast<std::size_t>(package.quadrant_count()));
}

TEST(Serve, MalformedAndUnknownRequestsKeepServing) {
  const std::string dir = scratch_dir();
  const std::string circuit = write_circuit(dir);
  std::vector<Json> responses;
  const ServeOutcome outcome = run_script(
      {"this is not json",
       R"({"id": 2, "method": "warp"})",
       load_request(circuit, 12),
       R"({"id": 4, "method": "shutdown"})"},
      responses);

  ASSERT_EQ(responses.size(), 4u);
  EXPECT_FALSE(responses[0].at("ok").as_bool());
  EXPECT_EQ(responses[0].at("id").kind(), Json::Kind::Null);
  EXPECT_EQ(responses[0].at("error").at("code").as_string(), "FP-PROTO");
  EXPECT_EQ(responses[1].at("error").at("code").as_string(), "FP-PROTO");
  EXPECT_TRUE(responses[2].at("ok").as_bool());
  EXPECT_TRUE(responses[3].at("ok").as_bool());
  EXPECT_EQ(outcome.protocol_errors, 2);
  EXPECT_EQ(outcome.exit_code(), 2);  // malformed traffic taints the exit
}

TEST(Serve, ApplicationErrorsAreGracefulResponses) {
  const std::string dir = scratch_dir();
  const std::string circuit = write_circuit(dir);
  std::vector<Json> responses;
  const ServeOutcome outcome = run_script(
      {R"({"id": 1, "method": "swap", "params": {"quadrant": 0, "finger": 0}})",
       "{\"id\": 2, \"method\": \"load\", \"params\": "
       "{\"circuit\": \"/no/such/file.fp\"}}",
       load_request(circuit, 12),
       "{\"id\": 7, \"method\": \"load\", \"params\": {\"circuit\": \"" +
           circuit + "\", \"method\": \"warp\"}}",
       R"({"id": 4, "method": "swap", "params": {"quadrant": 99, "finger": 0}})",
       R"({"id": 5, "method": "undo"})",
       R"({"id": 6, "method": "shutdown"})"},
      responses);

  ASSERT_EQ(responses.size(), 7u);
  EXPECT_EQ(responses[0].at("error").at("code").as_string(),
            "FP-INVALID");  // no session loaded yet
  EXPECT_FALSE(responses[1].at("ok").as_bool());  // unreadable circuit
  EXPECT_TRUE(responses[2].at("ok").as_bool());
  EXPECT_EQ(responses[3].at("error").at("code").as_string(),
            "FP-INVALID");  // unknown assignment method
  EXPECT_NE(responses[3].at("error").at("message").as_string().find(
                "unknown method 'warp' (expected random|ifa|dfa)"),
            std::string::npos);
  EXPECT_EQ(responses[4].at("error").at("code").as_string(),
            "FP-INVALID");  // out-of-range swap
  EXPECT_EQ(responses[5].at("error").at("code").as_string(),
            "FP-INVALID");  // empty journal: the first load still serves
  EXPECT_EQ(outcome.errors, 5);
  EXPECT_EQ(outcome.protocol_errors, 0);
  EXPECT_EQ(outcome.exit_code(), 0);  // application errors never taint it
}

TEST(Serve, SwapRequiresItsParameters) {
  const std::string dir = scratch_dir();
  const std::string circuit = write_circuit(dir);
  std::vector<Json> responses;
  (void)run_script(
      {load_request(circuit, 12),
       R"({"id": 2, "method": "swap", "params": {"quadrant": 0}})"},
      responses);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[1].at("error").at("code").as_string(), "FP-PROTO");
}

/// A LineSource that cancels the token after a fixed number of lines --
/// the in-process stand-in for SIGTERM arriving mid-session.
class CancellingSource final : public LineSource {
 public:
  CancellingSource(std::vector<std::string> lines, CancelToken& cancel)
      : lines_(std::move(lines)), cancel_(&cancel) {}

  bool next_line(std::string& line) override {
    if (next_ >= lines_.size()) {
      cancel_->cancel();
      return false;
    }
    line = lines_[next_++];
    return true;
  }

 private:
  std::vector<std::string> lines_;
  std::size_t next_ = 0;
  CancelToken* cancel_;
};

TEST(Serve, WatchStreamsMetricDeltas) {
  const std::string dir = scratch_dir();
  const std::string circuit = write_circuit(dir);
  std::vector<Json> responses;
  run_script({R"({"id": 1, "method": "watch"})",
              load_request(circuit, 12),
              R"({"id": 3, "method": "evaluate", "params": {"ir": true}})",
              R"({"id": 4, "method": "watch", "params": {"enable": false}})",
              R"({"id": 5, "method": "stats"})"},
             responses);
  ASSERT_EQ(responses.size(), 5u);
  for (const Json& response : responses) {
    EXPECT_TRUE(response.at("ok").as_bool()) << response.dump();
  }
  // Arming: the ack carries the watching flag and (empty) first deltas.
  EXPECT_TRUE(responses[0].at("result").at("watching").as_bool());
  ASSERT_TRUE(responses[0].has("watch"));

  // Every later response streams the counters that moved since the one
  // before. The load incremented its own per-method counter exactly once.
  const Json& load_delta = responses[1].at("watch").at("counters");
  EXPECT_DOUBLE_EQ(load_delta.at("serve.method.load").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(load_delta.at("serve.requests").as_number(), 1.0);
  EXPECT_FALSE(load_delta.has("serve.method.evaluate"));
  const Json& eval_delta = responses[2].at("watch").at("counters");
  EXPECT_DOUBLE_EQ(eval_delta.at("serve.method.evaluate").as_number(), 1.0);
  EXPECT_FALSE(eval_delta.has("serve.method.load"));
  // The IR evaluate drove the solver, and its activity shows as deltas.
  EXPECT_GE(eval_delta.at("solver.solves").as_number(), 1.0);

  // Disabling stops the stream: neither the ack nor later responses
  // carry a watch block.
  EXPECT_FALSE(responses[3].at("result").at("watching").as_bool());
  EXPECT_FALSE(responses[3].has("watch"));
  EXPECT_FALSE(responses[4].has("watch"));
}

TEST(Serve, CancellationDrainsWithExitCodeFive) {
  const std::string dir = scratch_dir();
  const std::string circuit = write_circuit(dir);
  CancelToken cancel;
  CancellingSource source(
      {load_request(circuit, 12),
       R"({"id": 2, "method": "swap", "params": {"quadrant": 0, "finger": 1}})"},
      cancel);
  ServeOptions options;
  options.cancel = &cancel;
  std::ostringstream out;
  const ServeOutcome outcome = run_serve(source, out, options);
  EXPECT_TRUE(outcome.interrupted);
  EXPECT_FALSE(outcome.shutdown);
  EXPECT_EQ(outcome.exit_code(), 5);
  EXPECT_EQ(outcome.requests, 2);
  EXPECT_EQ(parse_lines(out.str()).size(), 2u);  // both answered pre-drain
}

/// End to end against the real binary: a swap stream followed by an
/// incremental evaluate must report the same Eq.-(3) cost and identical
/// check findings as the cold evaluation of the final assignment
/// (the ISSUE's ctest-enforced acceptance property).
TEST(ServeCli, IncrementalEvaluateMatchesColdEndToEnd) {
  const std::string cli = FPKIT_CLI_PATH;
  ASSERT_FALSE(cli.empty());
  const std::string dir = scratch_dir();
  const std::string circuit = write_circuit(dir);

  std::ofstream script(dir + "/script.jsonl");
  script << load_request(circuit, 16) << "\n";
  int id = 2;
  // A deterministic stream over every quadrant; illegal draws bounce off
  // as FP-INVALID responses without touching the session state.
  for (int round = 0; round < 10; ++round) {
    for (int q = 0; q < 4; ++q) {
      script << "{\"id\": " << id++ << ", \"method\": \"swap\", "
             << "\"params\": {\"quadrant\": " << q << ", \"finger\": "
             << (round + q) << "}}\n";
    }
  }
  const int evaluate_id = id++;
  script << "{\"id\": " << evaluate_id
         << ", \"method\": \"evaluate\"}\n";
  const int cold_id = id++;
  script << "{\"id\": " << cold_id
         << ", \"method\": \"evaluate\", \"params\": {\"cold\": true}}\n";
  script << "{\"id\": " << id << ", \"method\": \"shutdown\"}\n";
  script.close();

  const std::string command = cli + " serve < " + dir + "/script.jsonl > " +
                              dir + "/out.jsonl 2> " + dir + "/err.txt";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  std::ifstream out(dir + "/out.jsonl");
  std::string text((std::istreambuf_iterator<char>(out)),
                   std::istreambuf_iterator<char>());
  const std::vector<Json> responses = parse_lines(text);
  ASSERT_EQ(responses.size(), static_cast<std::size_t>(id));

  const Json* incremental = nullptr;
  const Json* cold = nullptr;
  for (const Json& response : responses) {
    if (response.at("id").as_number() == evaluate_id) {
      incremental = &response.at("result");
    }
    if (response.at("id").as_number() == cold_id) {
      cold = &response.at("result");
    }
  }
  ASSERT_NE(incremental, nullptr);
  ASSERT_NE(cold, nullptr);
  EXPECT_GT(incremental->at("swaps").as_number(), 0.0);
  EXPECT_EQ(incremental->at("cost").as_number(),
            cold->at("cost").as_number());
  EXPECT_EQ(incremental->at("dispersion").as_number(),
            cold->at("dispersion").as_number());
  EXPECT_EQ(incremental->at("increased_density").as_number(),
            cold->at("increased_density").as_number());
  EXPECT_EQ(incremental->at("omega").as_number(),
            cold->at("omega").as_number());
  EXPECT_EQ(incremental->at("max_density").as_number(),
            cold->at("max_density").as_number());
  EXPECT_EQ(incremental->at("check").dump(), cold->at("check").dump());
}

/// A request line nested 50,000 deep used to overflow the parser's stack
/// and kill the daemon (SIGSEGV). It is one malformed request: the daemon
/// answers FP-PROTO and keeps serving.
TEST(ServeCli, DeeplyNestedLineIsAProtocolError) {
  const std::string cli = FPKIT_CLI_PATH;
  ASSERT_FALSE(cli.empty());
  const std::string dir = scratch_dir();
  const std::string circuit = write_circuit(dir);
  std::ofstream script(dir + "/script.jsonl");
  script << load_request(circuit, 12) << "\n"
         << std::string(50000, '[') << std::string(50000, ']') << "\n"
         << R"({"id": 3, "method": "stats"})" << "\n"
         << R"({"id": 4, "method": "shutdown"})" << "\n";
  script.close();

  const std::string command = cli + " serve < " + dir + "/script.jsonl > " +
                              dir + "/out.jsonl 2> " + dir + "/err.txt";
  const int status = std::system(command.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);  // malformed traffic taints the exit

  std::ifstream out(dir + "/out.jsonl");
  const std::string text((std::istreambuf_iterator<char>(out)),
                         std::istreambuf_iterator<char>());
  const std::vector<Json> responses = parse_lines(text);
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_TRUE(responses[0].at("ok").as_bool());
  EXPECT_FALSE(responses[1].at("ok").as_bool());
  EXPECT_EQ(responses[1].at("error").at("code").as_string(), "FP-PROTO");
  EXPECT_TRUE(responses[2].at("ok").as_bool());
  EXPECT_EQ(responses[2].at("id").as_number(), 3.0);
  EXPECT_TRUE(responses[3].at("ok").as_bool());
}

}  // namespace
}  // namespace fp
