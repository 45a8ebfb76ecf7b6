// Observability layer: span tracer, metrics registry, and the flow-level
// guarantees -- stage spans sum to the wall time, the exported trace is
// structurally complete (nested flow stages, annealer samples, solver
// residual series), and tracing does not perturb numeric results.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "assign/dfa.h"
#include "codesign/flow.h"
#include "codesign/report.h"
#include "exchange/exchange.h"
#include "obs/artifact.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "package/circuit_generator.h"
#include "util/error.h"

namespace fp {
namespace {

// --- a strict JSON parser (objects, arrays, strings, numbers, bools,
// null; no trailing commas, no comments) used to round-trip the exported
// documents ------------------------------------------------------------
struct Json {
  enum class Kind { Object, Array, String, Number, Bool, Null };
  Kind kind = Kind::Null;
  std::map<std::string, Json> object;
  std::vector<Json> array;
  std::string string;
  double number = 0.0;
  bool boolean = false;

  [[nodiscard]] const Json& at(const std::string& key) const {
    const auto it = object.find(key);
    if (it == object.end()) throw InvalidArgument("json: no key " + key);
    return it->second;
  }
  [[nodiscard]] bool has(const std::string& key) const {
    return object.find(key) != object.end();
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw InvalidArgument("json parse error at offset " +
                          std::to_string(pos_) + ": " + why);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::string(literal).size();
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') {
      Json value;
      value.kind = Json::Kind::String;
      value.string = parse_string();
      return value;
    }
    if (consume_literal("true")) {
      Json value;
      value.kind = Json::Kind::Bool;
      value.boolean = true;
      return value;
    }
    if (consume_literal("false")) {
      Json value;
      value.kind = Json::Kind::Bool;
      return value;
    }
    if (consume_literal("null")) return Json{};
    return parse_number();
  }

  Json parse_object() {
    Json value;
    value.kind = Json::Kind::Object;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      value.object.emplace(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return value;
    }
  }

  Json parse_array() {
    Json value;
    value.kind = Json::Kind::Array;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return value;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("bad \\u escape");
          out += '?';  // code point identity is irrelevant to these tests
          pos_ += 4;
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    Json value;
    value.kind = Json::Kind::Number;
    std::size_t used = 0;
    value.number = std::stod(text_.substr(start, pos_ - start), &used);
    if (used != pos_ - start) fail("malformed number");
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Arms tracing + metrics on a clean slate and disarms on teardown, so
/// tests neither see each other's events nor leak an armed tracer into
/// the rest of the suite.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::reset_trace();
    obs::MetricsRegistry::global().clear();
    obs::set_tracing_enabled(true);
    obs::set_metrics_enabled(true);
  }
  void TearDown() override {
    obs::set_tracing_enabled(false);
    obs::set_metrics_enabled(false);
    obs::reset_trace();
    obs::MetricsRegistry::global().clear();
  }
};

FlowOptions light_flow() {
  FlowOptions options;
  options.grid_spec.nodes_per_side = 16;
  options.exchange.schedule.initial_temperature = 2.0;
  options.exchange.schedule.final_temperature = 1e-3;
  options.exchange.schedule.cooling = 0.9;
  options.exchange.schedule.moves_per_temperature = 32;
  options.self_check = false;
  return options;
}

Package circuit1() {
  return CircuitGenerator::generate(CircuitGenerator::table1(0));
}

// --- tracer ------------------------------------------------------------

TEST_F(ObsTest, SpanNestingAndOrdering) {
  {
    const obs::ScopedSpan outer("outer", "test");
    const obs::ScopedSpan first("inner_first", "test");
    // inner_first and inner_second overlap deliberately: ordering is by
    // start time, depth by the per-thread stack.
    const obs::ScopedSpan second("inner_second", "test");
  }
  const std::vector<obs::ProfileSpan> spans = obs::trace_spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[0].depth, 0);
  EXPECT_EQ(spans[1].name, "inner_first");
  EXPECT_EQ(spans[1].depth, 1);
  EXPECT_EQ(spans[2].name, "inner_second");
  EXPECT_EQ(spans[2].depth, 2);
  // Same thread, starts ascending, children contained in the parent.
  EXPECT_EQ(spans[0].thread_id, spans[1].thread_id);
  EXPECT_LE(spans[0].start_us, spans[1].start_us);
  EXPECT_LE(spans[1].start_us, spans[2].start_us);
  for (int i = 1; i <= 2; ++i) {
    EXPECT_GE(spans[static_cast<std::size_t>(i)].start_us, spans[0].start_us);
    EXPECT_LE(spans[static_cast<std::size_t>(i)].start_us +
                  spans[static_cast<std::size_t>(i)].duration_us,
              spans[0].start_us + spans[0].duration_us);
  }
}

TEST_F(ObsTest, DisabledTracerRecordsNothing) {
  obs::set_tracing_enabled(false);
  {
    const obs::ScopedSpan span("ghost", "test");
    obs::counter("ghost_counter", {{"value", 1.0}});
  }
  EXPECT_TRUE(obs::trace_spans().empty());
  EXPECT_TRUE(obs::trace_counters().empty());
}

TEST_F(ObsTest, TraceJsonRoundTripsThroughStrictParser) {
  {
    const obs::ScopedSpan span("a \"quoted\"\nname", "test");
    obs::counter("series", {{"value", 1.5}, {"other", -2.0}});
  }
  const std::string text = obs::trace_to_json();
  const Json doc = JsonParser(text).parse();
  ASSERT_EQ(doc.kind, Json::Kind::Object);
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, Json::Kind::Array);
  ASSERT_EQ(events.array.size(), 2u);
  for (const Json& event : events.array) {
    EXPECT_TRUE(event.has("name"));
    EXPECT_TRUE(event.has("ph"));
    EXPECT_TRUE(event.has("ts"));
    EXPECT_TRUE(event.has("pid"));
    EXPECT_TRUE(event.has("tid"));
  }
  // The escaped span name survives the round trip.
  bool found_span = false;
  for (const Json& event : events.array) {
    if (event.at("ph").string == "X") {
      EXPECT_EQ(event.at("name").string, "a \"quoted\"\nname");
      found_span = true;
    }
  }
  EXPECT_TRUE(found_span);
}

TEST_F(ObsTest, TextTreeShowsNesting) {
  {
    const obs::ScopedSpan outer("outer", "test");
    const obs::ScopedSpan inner("inner", "test");
  }
  const std::string tree = obs::trace_to_text();
  EXPECT_NE(tree.find("thread 0"), std::string::npos);
  EXPECT_NE(tree.find("\n  outer"), std::string::npos);
  EXPECT_NE(tree.find("\n    inner"), std::string::npos);
}

// --- metrics registry --------------------------------------------------

TEST(MetricsRegistry, CountersAndGauges) {
  obs::MetricsRegistry registry;
  registry.add("hits");
  registry.add("hits", 4);
  registry.set("level", 2.5);
  registry.set("level", 3.5);
  EXPECT_EQ(registry.counter_value("hits"), 5);
  EXPECT_EQ(registry.gauge_value("level"), 3.5);
  EXPECT_FALSE(registry.counter_value("missing").has_value());
}

TEST(MetricsRegistry, HistogramBucketEdges) {
  obs::MetricsRegistry registry;
  const std::vector<double> bounds{1.0, 2.0, 4.0};
  registry.observe("h", 0.5, bounds);   // below the first bound
  registry.observe("h", 1.0, bounds);   // exactly on an edge: lower bucket
  registry.observe("h", 1.5, bounds);   // interior
  registry.observe("h", 4.0, bounds);   // exactly on the last bound
  registry.observe("h", 4.5, bounds);   // overflow
  const std::optional<obs::HistogramSnapshot> h = registry.histogram("h");
  ASSERT_TRUE(h.has_value());
  ASSERT_EQ(h->counts.size(), 4u);
  EXPECT_EQ(h->counts[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(h->counts[1], 1u);  // 1.5
  EXPECT_EQ(h->counts[2], 1u);  // 4.0
  EXPECT_EQ(h->counts[3], 1u);  // 4.5
  EXPECT_EQ(h->count, 5u);
  EXPECT_DOUBLE_EQ(h->sum, 0.5 + 1.0 + 1.5 + 4.0 + 4.5);
  // Changing the bucket layout between calls is a caller bug.
  EXPECT_THROW(registry.observe("h", 1.0, {1.0, 3.0}), InvalidArgument);
}

TEST(MetricsRegistry, SeriesLayoutEnforced) {
  obs::MetricsRegistry registry;
  registry.append("s", {"a", "b"}, {1.0, 2.0});
  registry.append("s", {}, {3.0, 4.0});  // empty columns = "keep layout"
  EXPECT_THROW(registry.append("s", {}, {5.0}), InvalidArgument);
  EXPECT_THROW(registry.append("s", {"a"}, {5.0}), InvalidArgument);
  const std::optional<obs::SeriesSnapshot> s = registry.series("s");
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->rows.size(), 2u);
}

TEST(MetricsRegistry, JsonRoundTripsThroughStrictParser) {
  obs::MetricsRegistry registry;
  registry.add("runs", 3);
  registry.set("residual", 1.25e-9);
  registry.observe("iters", 12.0, {10.0, 100.0});
  registry.append("curve", {"t", "c"}, {4.0, 9.5});
  registry.append("curve", {}, {2.0, 7.5});
  const Json doc = JsonParser(registry.to_json()).parse();
  EXPECT_EQ(doc.at("schema").string, "fpkit.metrics.v1");
  EXPECT_DOUBLE_EQ(doc.at("counters").at("runs").number, 3.0);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("residual").number, 1.25e-9);
  const Json& h = doc.at("histograms").at("iters");
  ASSERT_EQ(h.at("counts").array.size(), 3u);
  EXPECT_DOUBLE_EQ(h.at("counts").array[1].number, 1.0);
  EXPECT_DOUBLE_EQ(h.at("sum").number, 12.0);
  const Json& s = doc.at("series").at("curve");
  ASSERT_EQ(s.at("columns").array.size(), 2u);
  ASSERT_EQ(s.at("rows").array.size(), 2u);
  EXPECT_DOUBLE_EQ(s.at("rows").array[1].array[1].number, 7.5);
}

// --- flow-level guarantees ---------------------------------------------

TEST_F(ObsTest, StageTimingsSumToWallTime) {
  const Package package = circuit1();
  const FlowResult result = CodesignFlow(light_flow()).run(package);
  ASSERT_EQ(result.stage_timings.size(), 5u);
  EXPECT_EQ(result.stage_timings[0].name, "check");
  EXPECT_EQ(result.stage_timings[1].name, "assign");
  EXPECT_EQ(result.stage_timings[2].name, "analyze_initial");
  EXPECT_EQ(result.stage_timings[3].name, "exchange");
  EXPECT_EQ(result.stage_timings[4].name, "analyze_final");
  double sum = 0.0;
  for (const StageTiming& stage : result.stage_timings) {
    EXPECT_GE(stage.seconds, 0.0);
    sum += stage.seconds;
  }
  // The stages cover the whole run bar loop glue: within 10% + 5 ms.
  EXPECT_LE(sum, result.runtime_s);
  EXPECT_GE(sum, result.runtime_s * 0.9 - 0.005);
}

TEST_F(ObsTest, FlowTraceIsStructurallyComplete) {
  const Package package = circuit1();
  (void)CodesignFlow(light_flow()).run(package);

  const Json doc = JsonParser(obs::trace_to_json()).parse();
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, Json::Kind::Array);

  // Locate the flow.run span and every stage span.
  const Json* run = nullptr;
  std::map<std::string, const Json*> stages;
  int sa_samples = 0;
  int residual_samples = 0;
  for (const Json& event : events.array) {
    const std::string& name = event.at("name").string;
    if (event.at("ph").string == "X") {
      if (name == "flow.run") run = &event;
      if (name == "flow.check" || name == "flow.assign" ||
          name == "flow.analyze_initial" || name == "flow.exchange" ||
          name == "flow.analyze_final") {
        stages[name] = &event;
      }
    } else if (event.at("ph").string == "C") {
      if (name == "sa") {
        EXPECT_TRUE(event.at("args").has("temperature"));
        EXPECT_TRUE(event.at("args").has("cost"));
        ++sa_samples;
      }
      if (name == "solver.residual") {
        EXPECT_TRUE(event.at("args").has("relative_residual"));
        ++residual_samples;
      }
    }
  }
  ASSERT_NE(run, nullptr);
  ASSERT_EQ(stages.size(), 5u);
  // Every stage nests inside flow.run: contained in time, deeper by one.
  const double run_start = run->at("ts").number;
  const double run_end = run_start + run->at("dur").number;
  for (const auto& [name, span] : stages) {
    const double start = span->at("ts").number;
    const double end = start + span->at("dur").number;
    EXPECT_GE(start, run_start) << name;
    EXPECT_LE(end, run_end) << name;
    EXPECT_EQ(span->at("args").at("depth").number,
              run->at("args").at("depth").number + 1.0)
        << name;
  }
  // The annealer cooling curve and the solver residual series are there.
  EXPECT_GT(sa_samples, 1);
  EXPECT_GT(residual_samples, 1);
}

TEST(FlowObs, DisabledTracingIsBitIdentical) {
  obs::set_tracing_enabled(false);
  obs::set_metrics_enabled(false);
  const Package package = circuit1();
  const FlowOptions options = light_flow();
  const FlowResult plain = CodesignFlow(options).run(package);

  obs::reset_trace();
  obs::MetricsRegistry::global().clear();
  obs::set_tracing_enabled(true);
  obs::set_metrics_enabled(true);
  const FlowResult traced = CodesignFlow(options).run(package);
  obs::set_tracing_enabled(false);
  obs::set_metrics_enabled(false);
  obs::reset_trace();
  obs::MetricsRegistry::global().clear();

  // Identical assignments and bit-identical scores: instrumentation must
  // not perturb the computation.
  EXPECT_EQ(plain.max_density_final, traced.max_density_final);
  EXPECT_EQ(plain.bonding_final.omega, traced.bonding_final.omega);
  EXPECT_EQ(plain.ir_final.max_drop_v, traced.ir_final.max_drop_v);
  EXPECT_EQ(plain.ir_initial.max_drop_v, traced.ir_initial.max_drop_v);
  EXPECT_EQ(plain.flyline_final_um, traced.flyline_final_um);
  EXPECT_EQ(plain.anneal.final_cost, traced.anneal.final_cost);
  EXPECT_EQ(plain.anneal.accepted, traced.anneal.accepted);
  for (std::size_t qi = 0; qi < plain.final.quadrants.size(); ++qi) {
    EXPECT_EQ(plain.final.quadrants[qi].order,
              traced.final.quadrants[qi].order);
  }
}

// --- run artifacts -----------------------------------------------------

TEST_F(ObsTest, TraceRecordsThreadNames) {
  obs::set_thread_name("obs-test-main");
  {
    const obs::ScopedSpan span("named", "test");
  }
  const std::string text = obs::trace_to_json();
  const Json doc = JsonParser(text).parse();
  bool found = false;
  for (const Json& event : doc.at("traceEvents").array) {
    if (event.at("ph").string != "M") continue;
    EXPECT_EQ(event.at("name").string, "thread_name");
    if (event.at("args").at("name").string == "obs-test-main") found = true;
  }
  EXPECT_TRUE(found);
}

TEST_F(ObsTest, ArtifactRoundTripsThroughStrictParser) {
  const Package package = circuit1();
  const FlowOptions options = light_flow();
  const FlowResult result = CodesignFlow(options).run(package);

  obs::RunManifest manifest;
  manifest.subcommand = "run";
  manifest.version = std::string(obs::kToolVersion);
  manifest.threads = 2;
  manifest.wall_s = result.runtime_s;
  fill_run_manifest(manifest, options, result);

  const std::string dir = ::testing::TempDir() + "fpkit_obs_artifact";
  obs::write_run_artifact(dir, manifest);
  // Atomic write: the staging directory was renamed away, not left behind.
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp-partial"));

  // Every document the artifact writer emits parses under the test's own
  // strict parser (no trailing commas, no non-finite literals...).
  for (const char* name : {"manifest.json", "metrics.json", "trace.json"}) {
    std::ifstream in(dir + "/" + name);
    ASSERT_TRUE(in.good()) << name;
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    const Json doc = JsonParser(text).parse();
    ASSERT_EQ(doc.kind, Json::Kind::Object) << name;
    if (std::string(name) == "manifest.json") {
      EXPECT_EQ(doc.at("schema").string, "fpkit.run.v1");
      EXPECT_EQ(doc.at("subcommand").string, "run");
      EXPECT_DOUBLE_EQ(doc.at("threads").number, 2.0);
      EXPECT_TRUE(doc.has("options"));
      EXPECT_TRUE(doc.has("results"));
      EXPECT_TRUE(doc.has("stages"));
    }
  }

  // Re-reading through the production loader preserves every field, and
  // the canonical writer re-emits the document byte for byte.
  const obs::LoadedArtifact loaded = obs::load_run_artifact(dir);
  EXPECT_EQ(loaded.manifest.subcommand, "run");
  EXPECT_EQ(loaded.manifest.threads, 2);
  EXPECT_EQ(loaded.manifest.results.at("sa_final_cost"),
            result.anneal.final_cost);
  EXPECT_EQ(loaded.manifest.stages.size(), result.stage_timings.size());
  const std::string once = obs::manifest_to_json(manifest).dump();
  const std::string again = obs::manifest_to_json(loaded.manifest).dump();
  EXPECT_EQ(once, again);
  EXPECT_EQ(obs::json_parse(once).dump(), once);
  std::filesystem::remove_all(dir);
}

TEST_F(ObsTest, CompareOfIdenticalArtifactIsCleanUnderStrictGates) {
  const Package package = circuit1();
  const FlowOptions options = light_flow();
  const FlowResult result = CodesignFlow(options).run(package);

  obs::RunManifest manifest;
  manifest.subcommand = "run";
  manifest.version = std::string(obs::kToolVersion);
  fill_run_manifest(manifest, options, result);
  const std::string dir = ::testing::TempDir() + "fpkit_obs_selfcmp";
  obs::write_run_artifact(dir, manifest);

  // Self-compare under the strictest gates: every ratio is exactly 1 and
  // every cost bit-equal, so nothing differs and nothing regresses.
  obs::CompareOptions gates;
  gates.max_slowdown = 1.0;
  gates.require_equal_cost = true;
  const obs::CompareReport report = obs::compare_artifacts(dir, dir, gates);
  EXPECT_GT(report.compared, 0);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_EQ(report.regressions(), 0);
  std::filesystem::remove_all(dir);
}

// --- metrics registry under concurrency (TSan-covered in CI) -----------

TEST(MetricsParallel, ConcurrentRegistryWritersAreLinearizable) {
  obs::MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kOps = 400;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&registry, t] {
      const std::string mine = "thread" + std::to_string(t);
      for (int i = 0; i < kOps; ++i) {
        registry.add("shared.hits");
        registry.add(mine + ".hits");
        registry.set(mine + ".level", i);
        registry.observe("shared.histogram", i % 10, {2.0, 5.0});
        registry.append(mine + ".series", {"i"},
                        {static_cast<double>(i)});
      }
    });
  }
  for (std::thread& writer : writers) writer.join();

  EXPECT_EQ(registry.counter_value("shared.hits"),
            static_cast<long long>(kThreads) * kOps);
  const std::optional<obs::HistogramSnapshot> h =
      registry.histogram("shared.histogram");
  ASSERT_TRUE(h.has_value());
  EXPECT_EQ(h->count, static_cast<std::size_t>(kThreads) * kOps);
  for (int t = 0; t < kThreads; ++t) {
    const std::string mine = "thread" + std::to_string(t);
    EXPECT_EQ(registry.counter_value(mine + ".hits"), kOps) << mine;
    EXPECT_EQ(registry.gauge_value(mine + ".level"), kOps - 1.0) << mine;
    const std::optional<obs::SeriesSnapshot> s =
        registry.series(mine + ".series");
    ASSERT_TRUE(s.has_value()) << mine;
    EXPECT_EQ(s->rows.size(), static_cast<std::size_t>(kOps)) << mine;
  }
}

// --- multi-start SA telemetry ------------------------------------------

class MultistartObs : public ObsTest {};

TEST_F(MultistartObs, ReplicaMetricsArePrefixedAndWinnerReexported) {
  const Package package = circuit1();
  const PackageAssignment initial = DfaAssigner().assign(package);
  ExchangeOptions options;
  options.schedule.initial_temperature = 2.0;
  options.schedule.final_temperature = 0.1;
  options.schedule.cooling = 0.8;
  options.schedule.moves_per_temperature = 8;
  const ExchangeOptimizer optimizer(package, options);
  const ExchangeResult result = optimizer.optimize_multistart(initial, 3);

  obs::MetricsRegistry& m = obs::MetricsRegistry::global();
  // Each replica publishes under its own namespace: no aliasing.
  for (int i = 0; i < 3; ++i) {
    const std::string p = "sa.replica" + std::to_string(i);
    EXPECT_EQ(m.counter_value(p + ".runs"), 1) << p;
    EXPECT_TRUE(m.gauge_value(p + ".final_cost").has_value()) << p;
    EXPECT_TRUE(m.series(p + ".cooling").has_value()) << p;
  }
  // The winner is re-exported unprefixed so single- and multi-start runs
  // share one dashboard namespace, and it matches the returned result.
  EXPECT_EQ(m.counter_value("sa.runs"), 1);
  const std::optional<double> winner = m.gauge_value("sa.winner_replica");
  ASSERT_TRUE(winner.has_value());
  EXPECT_GE(*winner, 0.0);
  EXPECT_LT(*winner, 3.0);
  const std::string wp =
      "sa.replica" + std::to_string(static_cast<int>(*winner));
  EXPECT_EQ(m.gauge_value("sa.final_cost"),
            m.gauge_value(wp + ".final_cost"));
  EXPECT_EQ(m.gauge_value("sa.best_cost"), m.gauge_value(wp + ".best_cost"));
  EXPECT_EQ(m.gauge_value("sa.final_cost"), result.anneal.final_cost);
  const std::optional<obs::SeriesSnapshot> cooling = m.series("sa.cooling");
  ASSERT_TRUE(cooling.has_value());
  EXPECT_EQ(cooling->rows.size(), m.series(wp + ".cooling")->rows.size());
}

TEST_F(MultistartObs, SingleStartStaysUnprefixed) {
  const Package package = circuit1();
  const PackageAssignment initial = DfaAssigner().assign(package);
  ExchangeOptions options;
  options.schedule.initial_temperature = 2.0;
  options.schedule.final_temperature = 0.1;
  options.schedule.cooling = 0.8;
  options.schedule.moves_per_temperature = 8;
  const ExchangeOptimizer optimizer(package, options);
  (void)optimizer.optimize_multistart(initial, 1);

  // starts == 1 is the plain legacy path: unprefixed metrics only, no
  // replica namespaces, no winner gauge.
  obs::MetricsRegistry& m = obs::MetricsRegistry::global();
  EXPECT_EQ(m.counter_value("sa.runs"), 1);
  EXPECT_FALSE(m.counter_value("sa.replica0.runs").has_value());
  EXPECT_FALSE(m.gauge_value("sa.winner_replica").has_value());
}

}  // namespace
}  // namespace fp
