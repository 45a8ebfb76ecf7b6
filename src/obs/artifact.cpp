#include "obs/artifact.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/error.h"
#include "util/faultpoint.h"
#include "util/file.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <unistd.h>
#endif

namespace fp::obs {

namespace {

namespace fs = std::filesystem;

/// The environment overrides worth recording: everything that can change
/// a run's behaviour or outputs (docs/ARTIFACTS.md).
constexpr const char* kRecordedEnv[] = {"FPKIT_THREADS", "FPKIT_TRACE",
                                        "FPKIT_FAULTS", "FPKIT_ARTIFACT_DIR"};

/// Cost quantities are gated by --require-equal-cost.
bool is_cost_name(std::string_view name) {
  return name.find("cost") != std::string_view::npos;
}

}  // namespace

bool is_timing_name(std::string_view name) {
  const auto ends_with = [&](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.substr(name.size() - suffix.size()) == suffix;
  };
  return ends_with("_s") || ends_with("_us") || ends_with("_seconds") ||
         name == "wall" || name == "runtime";
}

bool timing_regression(double a, double b, const CompareOptions& options) {
  return options.max_slowdown > 0.0 && a >= options.min_time_s &&
         b > a * options.max_slowdown;
}

namespace {

struct Comparer {
  const CompareOptions& options;
  CompareReport report;
  int job = -1;  // the sweep job being diffed; -1 = the top level

  void note_equal() { ++report.compared; }

  void add(std::string kind, std::string name, double a, double b,
           bool regression, std::string note) {
    ++report.compared;
    report.findings.push_back(CompareFinding{std::move(kind),
                                             std::move(name), a, b,
                                             regression, std::move(note),
                                             job});
  }

  /// A quantity where any difference is reported but only the configured
  /// gates make it a regression.
  void value(const std::string& kind, const std::string& name, double a,
             double b) {
    if (a == b) {
      note_equal();
      return;
    }
    bool regression = false;
    std::string note;
    if (options.require_equal_cost && is_cost_name(name)) {
      regression = true;
      note = "--require-equal-cost: costs differ";
    }
    add(kind, name, a, b, regression, std::move(note));
  }

  /// A wall-clock quantity: gated by --max-slowdown (B vs A ratio), with
  /// sub-threshold baselines exempt, and never an equality regression.
  void timing(const std::string& kind, const std::string& name, double a,
              double b) {
    if (a == b) {
      note_equal();
      return;
    }
    bool regression = false;
    std::string note;
    if (timing_regression(a, b, options)) {
      regression = true;
      char buf[96];
      std::snprintf(buf, sizeof(buf), "--max-slowdown %.2f breached (%.2fx)",
                    options.max_slowdown, b / a);
      note = buf;
    }
    add(kind, name, a, b, regression, std::move(note));
  }

  void one_sided(const std::string& kind, const std::string& name, double v,
                 bool in_a) {
    add(kind, name, in_a ? v : 0.0, in_a ? 0.0 : v, false,
        in_a ? "only in A" : "only in B");
  }

  /// Walks the union of two sorted JSON objects of numbers.
  void object_union(const std::string& kind, const Json* a, const Json* b) {
    const Json::Members empty;
    const auto& fa = (a != nullptr && a->is_object()) ? a->fields() : empty;
    const auto& fb = (b != nullptr && b->is_object()) ? b->fields() : empty;
    auto ia = fa.begin();
    auto ib = fb.begin();
    while (ia != fa.end() || ib != fb.end()) {
      if (ib == fb.end() || (ia != fa.end() && ia->first < ib->first)) {
        one_sided(kind, ia->first, ia->second.as_number(), true);
        ++ia;
      } else if (ia == fa.end() || ib->first < ia->first) {
        one_sided(kind, ib->first, ib->second.as_number(), false);
        ++ib;
      } else {
        const double va = ia->second.as_number();
        const double vb = ib->second.as_number();
        if (is_timing_name(ia->first)) {
          timing(kind, ia->first, va, vb);
        } else {
          value(kind, ia->first, va, vb);
        }
        ++ia;
        ++ib;
      }
    }
  }
};

}  // namespace

void capture_environment(RunManifest& manifest) {
  for (const char* name : kRecordedEnv) {
    if (const char* value = std::getenv(name)) {
      manifest.env.emplace(name, value);
    }
  }
  for (const fault::SiteStatus& site : fault::status()) {
    manifest.faults.push_back(
        ManifestFault{site.site, site.after, site.times, site.hits,
                      site.fired, std::string(to_string(site.mode))});
  }
#if defined(__unix__) || defined(__APPLE__)
  // Host block under extra: lets the dashboard normalise trends across
  // machines. Merged into any existing extra object (check puts its
  // summary there first); never compared by compare_artifacts, so
  // identical-seed runs on different hosts still compare clean.
  Json host = Json::object();
  host.set("cores",
           Json::number(static_cast<long long>(sysconf(_SC_NPROCESSORS_ONLN))));
  host.set("page_size_bytes",
           Json::number(static_cast<long long>(sysconf(_SC_PAGESIZE))));
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
#if defined(__APPLE__)
    const long long peak_rss = usage.ru_maxrss;  // bytes on macOS
#else
    const long long peak_rss = usage.ru_maxrss * 1024;  // KiB on Linux
#endif
    host.set("peak_rss_bytes", Json::number(peak_rss));
  }
  if (!manifest.extra.is_object()) {
    manifest.extra = Json::object();
  }
  manifest.extra.set("host", std::move(host));
#endif
}

Json manifest_to_json(const RunManifest& manifest) {
  Json doc = Json::object();
  doc.set("schema", Json::string(std::string(kRunSchema)));
  doc.set("tool", Json::string("fpkit"));
  doc.set("version", Json::string(manifest.version));
  doc.set("subcommand", Json::string(manifest.subcommand));
  doc.set("threads", Json::number(static_cast<long long>(manifest.threads)));

  Json env = Json::object();
  for (const auto& [name, value] : manifest.env) {
    env.set(name, Json::string(value));
  }
  doc.set("env", std::move(env));

  Json faults = Json::array();
  for (const ManifestFault& fault : manifest.faults) {
    Json entry = Json::object();
    entry.set("site", Json::string(fault.site));
    entry.set("after", Json::number(fault.after));
    entry.set("times", Json::number(fault.times));
    entry.set("hits", Json::number(fault.hits));
    entry.set("fired", Json::number(fault.fired));
    entry.set("mode", Json::string(fault.mode));
    faults.push(std::move(entry));
  }
  Json fault_block = Json::object();
  fault_block.set("spec", Json::string(manifest.fault_spec));
  fault_block.set("sites", std::move(faults));
  doc.set("faults", std::move(fault_block));

  doc.set("options", manifest.options);

  Json seeds = Json::array();
  for (const std::uint64_t seed : manifest.seeds) {
    seeds.push(Json::number(static_cast<long long>(seed)));
  }
  doc.set("seeds", std::move(seeds));

  doc.set("wall_s", Json::number(manifest.wall_s));
  doc.set("exit_code",
          Json::number(static_cast<long long>(manifest.exit_code)));

  Json stages = Json::array();
  for (const StageTiming& stage : manifest.stages) {
    Json entry = Json::object();
    entry.set("name", Json::string(stage.name));
    entry.set("seconds", Json::number(stage.seconds));
    stages.push(std::move(entry));
  }
  doc.set("stages", std::move(stages));

  Json events = Json::array();
  for (const ManifestEvent& event : manifest.events) {
    Json entry = Json::object();
    entry.set("stage", Json::string(event.stage));
    entry.set("reason", Json::string(event.reason));
    entry.set("detail", Json::string(event.detail));
    events.push(std::move(entry));
  }
  doc.set("degrade_events", std::move(events));

  Json results = Json::object();
  for (const auto& [name, value] : manifest.results) {
    results.set(name, Json::number(value));
  }
  doc.set("results", std::move(results));

  if (manifest.extra.kind() != Json::Kind::Null) {
    doc.set("extra", manifest.extra);
  }
  return doc;
}

RunManifest manifest_from_json(const Json& doc) {
  require(doc.is_object(), "manifest: document is not an object");
  require(doc.has("schema") && doc.at("schema").as_string() == kRunSchema,
          "manifest: missing or unknown schema (want fpkit.run.v1)");
  RunManifest manifest;
  manifest.version = doc.at("version").as_string();
  manifest.subcommand = doc.at("subcommand").as_string();
  manifest.threads = static_cast<int>(doc.at("threads").as_number());
  if (const Json* env = doc.find("env")) {
    for (const auto& [name, value] : env->fields()) {
      manifest.env.emplace(name, value.as_string());
    }
  }
  if (const Json* faults = doc.find("faults")) {
    manifest.fault_spec = faults->at("spec").as_string();
    for (const Json& entry : faults->at("sites").items()) {
      ManifestFault fault{
          entry.at("site").as_string(),
          static_cast<long long>(entry.at("after").as_number()),
          static_cast<long long>(entry.at("times").as_number()),
          static_cast<long long>(entry.at("hits").as_number()),
          static_cast<long long>(entry.at("fired").as_number()),
          "throw"};
      // Pre-mode manifests omit the field (forward compatibility).
      if (const Json* mode = entry.find("mode")) {
        fault.mode = mode->as_string();
      }
      manifest.faults.push_back(std::move(fault));
    }
  }
  if (const Json* options = doc.find("options")) manifest.options = *options;
  if (const Json* seeds = doc.find("seeds")) {
    for (const Json& seed : seeds->items()) {
      manifest.seeds.push_back(
          static_cast<std::uint64_t>(seed.as_number()));
    }
  }
  manifest.wall_s = doc.at("wall_s").as_number();
  manifest.exit_code = static_cast<int>(doc.at("exit_code").as_number());
  if (const Json* stages = doc.find("stages")) {
    for (const Json& entry : stages->items()) {
      manifest.stages.push_back(StageTiming{
          entry.at("name").as_string(), entry.at("seconds").as_number()});
    }
  }
  if (const Json* events = doc.find("degrade_events")) {
    for (const Json& entry : events->items()) {
      manifest.events.push_back(ManifestEvent{entry.at("stage").as_string(),
                                              entry.at("reason").as_string(),
                                              entry.at("detail").as_string()});
    }
  }
  if (const Json* results = doc.find("results")) {
    for (const auto& [name, value] : results->fields()) {
      manifest.results.emplace(name, value.as_number());
    }
  }
  if (const Json* extra = doc.find("extra")) manifest.extra = *extra;
  return manifest;
}

void write_run_artifact(const std::string& dir, const RunManifest& manifest,
                        bool include_metrics, bool include_trace) {
  require(!dir.empty(), "write_run_artifact: empty directory path");
  const fs::path target(dir);
  const fs::path tmp(dir + ".tmp-partial");
  std::error_code ec;
  fs::remove_all(tmp, ec);
  fs::create_directories(tmp, ec);
  if (ec) {
    throw IoError("write_run_artifact: cannot create '" + tmp.string() +
                  "': " + ec.message());
  }
  const auto write = [&](const char* name, const std::string& text) {
    write_file_atomic((tmp / name).string(), text + "\n");
  };
  write("manifest.json", manifest_to_json(manifest).dump());
  if (include_metrics) {
    write("metrics.json", MetricsRegistry::global().to_json());
  }
  if (include_trace) write("trace.json", trace_to_json());
  // Atomic publish: replace the target in one rename so readers only ever
  // see a complete artifact.
  fs::remove_all(target, ec);
  fs::rename(tmp, target, ec);
  if (ec) {
    throw IoError("write_run_artifact: cannot publish '" + target.string() +
                  "': " + ec.message());
  }
}

void write_manifest_into(const std::string& dir, const RunManifest& manifest,
                         bool include_metrics) {
  require(!dir.empty(), "write_manifest_into: empty directory path");
  const fs::path base(dir);
  std::error_code ec;
  fs::create_directories(base, ec);
  if (ec) {
    throw IoError("write_manifest_into: cannot create '" + base.string() +
                  "': " + ec.message());
  }
  // Per-file atomicity: a reader sees the previous manifest or the new
  // one, never a torn write, while sibling files (jobs/, journal) stay
  // untouched.
  const auto publish = [&](const char* name, const std::string& text) {
    write_file_atomic((base / name).string(), text + "\n");
  };
  publish("manifest.json", manifest_to_json(manifest).dump());
  if (include_metrics) {
    publish("metrics.json", MetricsRegistry::global().to_json());
  }
}

LoadedArtifact load_run_artifact(const std::string& dir) {
  const fs::path base(dir);
  std::error_code ec;
  if (!fs::is_directory(base, ec)) {
    throw IoError("load_run_artifact: '" + dir +
                  "' is not an artifact directory");
  }
  LoadedArtifact artifact;
  artifact.manifest =
      manifest_from_json(json_load((base / "manifest.json").string()));
  if (fs::exists(base / "metrics.json", ec)) {
    artifact.metrics = json_load((base / "metrics.json").string());
    require(artifact.metrics.has("schema") &&
                artifact.metrics.at("schema").as_string() ==
                    "fpkit.metrics.v1",
            "load_run_artifact: metrics.json has an unknown schema");
  }
  return artifact;
}

int CompareReport::regressions() const {
  int count = 0;
  for (const CompareFinding& finding : findings) {
    if (finding.regression) ++count;
  }
  return count;
}

std::string CompareReport::to_string() const {
  std::string out;
  char buf[256];
  // The top level's rows, then each job's under its header: findings come
  // grouped by job in index order.
  auto finding = findings.begin();
  for (int job = -1; job < static_cast<int>(jobs.size()); ++job) {
    if (job >= 0) out += jobs[static_cast<std::size_t>(job)] + ":\n";
    for (; finding != findings.end() && finding->job == job; ++finding) {
      std::snprintf(buf, sizeof(buf), "  %-9s %-34s %14.6g %14.6g  %s%s\n",
                    finding->kind.c_str(), finding->name.c_str(), finding->a,
                    finding->b, finding->regression ? "REGRESSION " : "",
                    finding->note.c_str());
      out += buf;
    }
  }
  std::snprintf(buf, sizeof(buf),
                "compared %d quantities: %zu differ, %d regression(s)\n",
                compared, findings.size(), regressions());
  out += buf;
  return out;
}

namespace {

/// Diffs one pair of loaded artifacts into `comparer`.
void compare_loaded(Comparer& comparer, const LoadedArtifact& a,
                    const LoadedArtifact& b) {
  // Manifest-level: headline results, then the stage-timing ratios.
  {
    Json results_a = Json::object();
    for (const auto& [name, value] : a.manifest.results) {
      results_a.set(name, Json::number(value));
    }
    Json results_b = Json::object();
    for (const auto& [name, value] : b.manifest.results) {
      results_b.set(name, Json::number(value));
    }
    comparer.object_union("result", &results_a, &results_b);
  }
  comparer.timing("stage", "wall_s", a.manifest.wall_s, b.manifest.wall_s);
  {
    std::map<std::string, double> stages_a;
    for (const StageTiming& stage : a.manifest.stages) {
      stages_a[stage.name] += stage.seconds;
    }
    std::map<std::string, double> stages_b;
    for (const StageTiming& stage : b.manifest.stages) {
      stages_b[stage.name] += stage.seconds;
    }
    for (const auto& [name, seconds] : stages_a) {
      const auto it = stages_b.find(name);
      if (it == stages_b.end()) {
        comparer.one_sided("stage", name, seconds, true);
      } else {
        comparer.timing("stage", name, seconds, it->second);
      }
    }
    for (const auto& [name, seconds] : stages_b) {
      if (stages_a.find(name) == stages_a.end()) {
        comparer.one_sided("stage", name, seconds, false);
      }
    }
  }
  comparer.value("result", "degrade_events",
                 static_cast<double>(a.manifest.events.size()),
                 static_cast<double>(b.manifest.events.size()));

  // Metrics-level: counters and gauges by name, histograms by count/sum,
  // series by row count (the full curves live in the artifacts).
  const bool have_metrics =
      a.metrics.is_object() && b.metrics.is_object();
  if (have_metrics) {
    comparer.object_union("counter", a.metrics.find("counters"),
                          b.metrics.find("counters"));
    comparer.object_union("gauge", a.metrics.find("gauges"),
                          b.metrics.find("gauges"));
    // The member `name` of `object`, or null (also for a missing object).
    const auto member = [](const Json* object, const std::string& name) {
      return object != nullptr ? object->find(name) : nullptr;
    };
    const Json* ha = a.metrics.find("histograms");
    const Json* hb = b.metrics.find("histograms");
    const Json::Members empty;
    const auto& fa = (ha != nullptr && ha->is_object()) ? ha->fields() : empty;
    const auto& fb = (hb != nullptr && hb->is_object()) ? hb->fields() : empty;
    for (const auto& [name, hist] : fa) {
      const Json* other = member(hb, name);
      if (other == nullptr) {
        comparer.one_sided("histogram", name + ".count",
                           hist.at("count").as_number(), true);
        continue;
      }
      comparer.value("histogram", name + ".count",
                     hist.at("count").as_number(),
                     other->at("count").as_number());
      comparer.value("histogram", name + ".sum", hist.at("sum").as_number(),
                     other->at("sum").as_number());
    }
    for (const auto& [name, hist] : fb) {
      if (member(ha, name) == nullptr) {
        comparer.one_sided("histogram", name + ".count",
                           hist.at("count").as_number(), false);
      }
    }
    const Json* sa = a.metrics.find("series");
    const Json* sb = b.metrics.find("series");
    const auto& series_a =
        (sa != nullptr && sa->is_object()) ? sa->fields() : empty;
    const auto& series_b =
        (sb != nullptr && sb->is_object()) ? sb->fields() : empty;
    for (const auto& [name, series] : series_a) {
      const Json* other = member(sb, name);
      const double rows_a =
          static_cast<double>(series.at("rows").items().size());
      if (other == nullptr) {
        comparer.one_sided("series", name + ".rows", rows_a, true);
      } else {
        comparer.value("series", name + ".rows", rows_a,
                       static_cast<double>(
                           other->at("rows").items().size()));
      }
    }
    for (const auto& [name, series] : series_b) {
      if (member(sa, name) == nullptr) {
        comparer.one_sided(
            "series", name + ".rows",
            static_cast<double>(series.at("rows").items().size()), false);
      }
    }
  }
}

/// A job manifest's extra.label; empty when absent (or no manifest).
std::string label_of(const LoadedArtifact& artifact) {
  const Json* label = artifact.manifest.extra.find("label");
  return label != nullptr && label->is_string() ? label->as_string()
                                                : std::string();
}

}  // namespace

CompareReport compare_artifacts(const std::string& dir_a,
                                const std::string& dir_b,
                                const CompareOptions& options) {
  const LoadedArtifact a = load_run_artifact(dir_a);
  const LoadedArtifact b = load_run_artifact(dir_b);
  Comparer comparer{options, CompareReport{}};
  compare_loaded(comparer, a, b);
  for (int i = 0;; ++i) {
    const std::string sub = "/jobs/job" + std::to_string(i);
    const bool has_a = fs::exists(fs::path(dir_a + sub) / "manifest.json");
    const bool has_b = fs::exists(fs::path(dir_b + sub) / "manifest.json");
    if (!has_a && !has_b) break;
    const LoadedArtifact job_a =
        has_a ? load_run_artifact(dir_a + sub) : LoadedArtifact{};
    const LoadedArtifact job_b =
        has_b ? load_run_artifact(dir_b + sub) : LoadedArtifact{};
    std::string label = label_of(has_a ? job_a : job_b);
    const std::string label_b = label_of(job_b);
    if (!label_b.empty() && label_b != label) label += " vs " + label_b;
    std::string scope = "job" + std::to_string(i);
    if (!label.empty()) scope += " (" + label + ")";
    comparer.report.jobs.push_back(std::move(scope));
    comparer.job = i;
    if (has_a && has_b) {
      compare_loaded(comparer, job_a, job_b);
    } else {
      comparer.add("job", "manifest", has_a ? 1.0 : 0.0, has_b ? 1.0 : 0.0,
                   true, has_a ? "only in A" : "only in B");
    }
  }
  return std::move(comparer.report);
}

}  // namespace fp::obs
