// Cross-process observability: trace-context parsing, trace stitching
// and the metrics rollup (obs/merge.h). The rollup edge cases here are
// the farm's correctness contract: an empty farm rolls up to an empty
// document, a single worker round-trips byte-identically, incompatible
// histogram buckets refuse to merge, and counter sums saturate instead
// of wrapping.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.h"
#include "obs/merge.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "util/error.h"

namespace fp {
namespace {

// ------------------------------------------------- trace-context parsing

TEST(TraceParentTest, ParsesLaneAndName) {
  ASSERT_TRUE(obs::apply_trace_parent("farm-abc:3:job2 sweep"));
  const obs::TraceProcess p = obs::trace_process();
  EXPECT_EQ(p.trace_id, "farm-abc");
  EXPECT_EQ(p.pid, 4);         // lane + 1: the supervisor keeps pid 1
  EXPECT_EQ(p.sort_index, 3);  // lane
  EXPECT_EQ(p.name, "job2 sweep");
  obs::set_trace_process(obs::TraceProcess{});  // restore the default
}

TEST(TraceParentTest, NameMayContainColons) {
  ASSERT_TRUE(obs::apply_trace_parent("id:1:job0 a:b=c"));
  EXPECT_EQ(obs::trace_process().name, "job0 a:b=c");
  obs::set_trace_process(obs::TraceProcess{});
}

TEST(TraceParentTest, RejectsMalformedInput) {
  const obs::TraceProcess before = obs::trace_process();
  EXPECT_FALSE(obs::apply_trace_parent(""));
  EXPECT_FALSE(obs::apply_trace_parent("no-colon"));
  EXPECT_FALSE(obs::apply_trace_parent("id:"));
  EXPECT_FALSE(obs::apply_trace_parent("id:0"));      // lanes start at 1
  EXPECT_FALSE(obs::apply_trace_parent("id:-2"));
  EXPECT_FALSE(obs::apply_trace_parent("id:seven"));
  EXPECT_FALSE(obs::apply_trace_parent(":3"));        // empty trace id
  // Malformed input installs nothing.
  EXPECT_EQ(obs::trace_process().pid, before.pid);
  EXPECT_EQ(obs::trace_process().trace_id, before.trace_id);
}

// ------------------------------------------------------- index round trip

obs::TraceIndex two_worker_index() {
  obs::TraceIndex index;
  index.trace_id = "farm-test-1";
  index.parts.push_back(
      {"supervisor/trace.json", "supervisor", /*pid=*/1, /*sort=*/0,
       /*offset=*/0});
  index.parts.push_back(
      {"job0.attempt1/trace.json", "job0 alpha", /*pid=*/2, /*sort=*/1,
       /*offset=*/100});
  index.parts.push_back(
      {"job1.attempt1/trace.json", "job1 beta", /*pid=*/3, /*sort=*/2,
       /*offset=*/250});
  return index;
}

TEST(TraceIndexTest, RoundTripsThroughJson) {
  const obs::TraceIndex index = two_worker_index();
  const obs::TraceIndex back =
      obs::trace_index_from_json(obs::trace_index_to_json(index));
  EXPECT_EQ(back.trace_id, index.trace_id);
  ASSERT_EQ(back.parts.size(), index.parts.size());
  for (std::size_t i = 0; i < index.parts.size(); ++i) {
    EXPECT_EQ(back.parts[i].file, index.parts[i].file);
    EXPECT_EQ(back.parts[i].name, index.parts[i].name);
    EXPECT_EQ(back.parts[i].pid, index.parts[i].pid);
    EXPECT_EQ(back.parts[i].sort_index, index.parts[i].sort_index);
    EXPECT_EQ(back.parts[i].offset_us, index.parts[i].offset_us);
  }
}

TEST(TraceIndexTest, RejectsWrongSchema) {
  obs::Json doc = obs::Json::object();
  doc.set("schema", obs::Json::string("fpkit.metrics.v1"));
  doc.set("parts", obs::Json::array());
  EXPECT_THROW((void)obs::trace_index_from_json(doc), Error);
}

// ---------------------------------------------------------- trace merge

obs::ChromeTrace worker_trace(const std::string& span_name,
                              std::uint64_t start_us) {
  obs::ChromeTrace trace;
  obs::ProfileSpan span;
  span.name = span_name;
  span.category = "flow";
  span.start_us = start_us;
  span.duration_us = 50;
  span.thread_id = 0;
  trace.spans.push_back(span);
  obs::CounterSample sample;
  sample.name = "sa";
  sample.time_us = start_us + 5;
  sample.values = {{"temperature", 1.5}};
  trace.counters.push_back(sample);
  trace.thread_names[{1, 0}] = "main";
  return trace;
}

TEST(MergeTracesTest, OneBandPerPartWithShiftedTimestamps) {
  const obs::TraceIndex index = two_worker_index();
  const std::vector<obs::ChromeTrace> parts = {
      obs::ChromeTrace{}, worker_trace("flow.run", 10),
      worker_trace("flow.run", 20)};
  const obs::MergedTrace merged = obs::merge_traces(index, parts);
  EXPECT_FALSE(merged.degraded());

  const obs::ChromeTrace stitched = obs::parse_chrome_trace(merged.json);
  EXPECT_EQ(stitched.trace_id, "farm-test-1");
  ASSERT_EQ(stitched.process_names.size(), 3u);
  EXPECT_EQ(stitched.process_names.at(1), "supervisor");
  EXPECT_EQ(stitched.process_names.at(2), "job0 alpha");
  EXPECT_EQ(stitched.process_names.at(3), "job1 beta");
  ASSERT_EQ(stitched.spans.size(), 2u);
  // Worker timestamps are shifted by the spawn-time epoch offsets.
  EXPECT_EQ(stitched.spans[0].start_us, 110u);
  EXPECT_EQ(stitched.spans[0].process_id, 2);
  EXPECT_EQ(stitched.spans[1].start_us, 270u);
  EXPECT_EQ(stitched.spans[1].process_id, 3);
  EXPECT_EQ(stitched.process_sort_indices.at(3), 2);
  // Counter samples and thread names move onto their lane too.
  ASSERT_EQ(stitched.counters.size(), 2u);
  EXPECT_EQ(stitched.counters[0].process_id, 2);
  EXPECT_EQ(stitched.counters[0].time_us, 115u);
  EXPECT_EQ(stitched.counters[1].process_id, 3);
  EXPECT_EQ(stitched.counters[1].time_us, 275u);
  const std::vector<std::pair<std::string, double>> values = {
      {"temperature", 1.5}};
  EXPECT_EQ(stitched.counters[1].values, values);
  ASSERT_EQ(stitched.thread_names.size(), 2u);
  EXPECT_EQ(stitched.thread_names.at({2, 0}), "main");
  EXPECT_EQ(stitched.thread_names.at({3, 0}), "main");
}

TEST(MergeTracesTest, MergeIsDeterministic) {
  const obs::TraceIndex index = two_worker_index();
  const std::vector<obs::ChromeTrace> parts = {
      obs::ChromeTrace{}, worker_trace("flow.run", 10),
      worker_trace("flow.run", 20)};
  const obs::MergedTrace a = obs::merge_traces(index, parts);
  const obs::MergedTrace b = obs::merge_traces(index, parts);
  EXPECT_EQ(a.json, b.json);  // byte-identical re-merge (the CI check)
}

TEST(MergeTracesTest, PartCountMismatchThrows) {
  EXPECT_THROW(
      (void)obs::merge_traces(two_worker_index(), {obs::ChromeTrace{}}),
      Error);
}

TEST(MergeTracesTest, MultiProcessProfileAttribution) {
  const obs::TraceIndex index = two_worker_index();
  const std::vector<obs::ChromeTrace> parts = {
      obs::ChromeTrace{}, worker_trace("flow.run", 10),
      worker_trace("flow.run", 20)};
  const obs::MergedTrace merged = obs::merge_traces(index, parts);
  const obs::TraceProfile profile =
      obs::profile_trace(obs::parse_chrome_trace(merged.json));
  EXPECT_EQ(profile.process_count, 3);
  ASSERT_EQ(profile.processes.size(), 3u);
  // The idle supervisor still gets a (zero-span) row; each worker owns
  // its own span.
  EXPECT_EQ(profile.processes[0].name, "supervisor");
  EXPECT_EQ(profile.processes[0].span_count, 0u);
  EXPECT_EQ(profile.processes[1].span_count, 1u);
  EXPECT_EQ(profile.processes[2].span_count, 1u);
}

// --------------------------------------------------------- metrics merge

obs::MetricsPart metrics_part(const std::string& json,
                              const std::string& source,
                              double timestamp = 0.0) {
  return obs::MetricsPart{obs::json_parse(json), source, timestamp};
}

TEST(MergeMetricsTest, NoPartsYieldsEmptyDocument) {
  const obs::MergedMetrics merged = obs::merge_metrics({});
  EXPECT_TRUE(merged.notes.empty());
  EXPECT_EQ(merged.doc.at("schema").as_string(), "fpkit.metrics.v1");
  EXPECT_TRUE(merged.doc.at("counters").fields().empty());
  EXPECT_TRUE(merged.doc.at("gauges").fields().empty());
  EXPECT_TRUE(merged.doc.at("histograms").fields().empty());
  EXPECT_TRUE(merged.doc.at("series").fields().empty());
}

TEST(MergeMetricsTest, SingleWorkerRoundTripsByteIdentically) {
  const std::string snapshot =
      R"({"schema":"fpkit.metrics.v1",)"
      R"("counters":{"sa.accepted":12,"solver.iterations_total":340},)"
      R"("gauges":{"sa.temperature":0.125},)"
      R"("histograms":{"solver.residual":{"bounds":[0.1,1],)"
      R"("counts":[3,2,1],"count":6,"sum":2.5}},)"
      R"("series":{"sa.cooling":{"columns":["step","cost"],)"
      R"("rows":[[1,10.5],[2,9.25]]}}})";
  const obs::MergedMetrics merged =
      obs::merge_metrics({metrics_part(snapshot, "job0")});
  EXPECT_TRUE(merged.notes.empty());
  EXPECT_EQ(merged.doc.dump(), obs::json_parse(snapshot).dump());
}

TEST(MergeMetricsTest, CountersSumAndHistogramsAddBucketwise) {
  const obs::MergedMetrics merged = obs::merge_metrics(
      {metrics_part(
           R"({"schema":"fpkit.metrics.v1","counters":{"sa.accepted":2},)"
           R"("gauges":{},"histograms":{"h":{"bounds":[1],"counts":[4,1],)"
           R"("count":5,"sum":3}},"series":{}})",
           "job0", 1.0),
       metrics_part(
           R"({"schema":"fpkit.metrics.v1","counters":{"sa.accepted":3,)"
           R"("flow.runs":1},"gauges":{},"histograms":{"h":{"bounds":[1],)"
           R"("counts":[1,2],"count":3,"sum":9}},"series":{}})",
           "job1", 2.0)});
  EXPECT_TRUE(merged.notes.empty());
  EXPECT_DOUBLE_EQ(merged.doc.at("counters").at("sa.accepted").as_number(),
                   5.0);
  EXPECT_DOUBLE_EQ(merged.doc.at("counters").at("flow.runs").as_number(),
                   1.0);
  const obs::Json& h = merged.doc.at("histograms").at("h");
  EXPECT_DOUBLE_EQ(h.at("counts").items()[0].as_number(), 5.0);
  EXPECT_DOUBLE_EQ(h.at("counts").items()[1].as_number(), 3.0);
  EXPECT_DOUBLE_EQ(h.at("count").as_number(), 8.0);
  EXPECT_DOUBLE_EQ(h.at("sum").as_number(), 12.0);
}

TEST(MergeMetricsTest, GaugesAreLastWriterWinsByTimestamp) {
  const obs::MergedMetrics merged = obs::merge_metrics(
      {metrics_part(R"({"schema":"fpkit.metrics.v1","counters":{},)"
                    R"("gauges":{"g":2.0},"histograms":{},"series":{}})",
                    "late", 5.0),
       metrics_part(R"({"schema":"fpkit.metrics.v1","counters":{},)"
                    R"("gauges":{"g":1.0},"histograms":{},"series":{}})",
                    "early", 1.0)});
  EXPECT_DOUBLE_EQ(merged.doc.at("gauges").at("g").as_number(), 2.0);
}

TEST(MergeMetricsTest, MismatchedHistogramBoundsThrow) {
  try {
    (void)obs::merge_metrics(
        {metrics_part(
             R"({"schema":"fpkit.metrics.v1","counters":{},"gauges":{},)"
             R"("histograms":{"solver.residual":{"bounds":[0.1,1],)"
             R"("counts":[1,0,0],"count":1,"sum":0.05}},"series":{}})",
             "job0"),
         metrics_part(
             R"({"schema":"fpkit.metrics.v1","counters":{},"gauges":{},)"
             R"("histograms":{"solver.residual":{"bounds":[0.5,2],)"
             R"("counts":[0,1,0],"count":1,"sum":0.7}},"series":{}})",
             "job1")});
    FAIL() << "mismatched bounds must not merge";
  } catch (const Error& error) {
    const std::string what = error.what();
    // The error names the histogram and both sources.
    EXPECT_NE(what.find("solver.residual"), std::string::npos) << what;
    EXPECT_NE(what.find("job0"), std::string::npos) << what;
    EXPECT_NE(what.find("job1"), std::string::npos) << what;
  }
}

TEST(MergeMetricsTest, CounterSumSaturatesAtUint64Max) {
  // 2^64 - 2048 is the largest double below 2^64; two of them would wrap
  // any uint64 accumulator. The rollup clamps to 2^64 - 1 and notes it.
  const std::string near_max =
      R"({"schema":"fpkit.metrics.v1","counters":)"
      R"({"c":18446744073709549568},"gauges":{},"histograms":{},)"
      R"("series":{}})";
  const obs::MergedMetrics merged = obs::merge_metrics(
      {metrics_part(near_max, "job0"), metrics_part(near_max, "job1")});
  EXPECT_DOUBLE_EQ(merged.doc.at("counters").at("c").as_number(),
                   18446744073709551615.0);  // 2^64 - 1
  ASSERT_EQ(merged.notes.size(), 1u);
  EXPECT_NE(merged.notes[0].find("c"), std::string::npos);
}

}  // namespace
}  // namespace fp
