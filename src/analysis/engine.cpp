#include "analysis/engine.h"

#include <chrono>
#include <map>

#include "obs/artifact.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "util/error.h"

namespace fp {

CheckEngine::CheckEngine(CheckEngineOptions options)
    : options_(std::move(options)) {}

void CheckEngine::invalidate(CheckInputSet inputs) { dirty_ |= inputs; }

void CheckEngine::note_swap() {
  invalidate(check_inputs::kSwapDirty);
  ++stats_.swaps_noted;
  obs::count("check.swaps_noted");
}

CheckReport CheckEngine::run(const CheckContext& context) {
  require(context.package != nullptr,
          "CheckEngine::run: context.package not set");
  using Clock = std::chrono::steady_clock;

  CheckReport report;
  long long executed = 0;
  long long hits = 0;
  double saved = 0.0;

  for (const CheckStage stage : check_stage_order()) {
    if ((options_.stage_mask & check_stage_bit(stage)) == 0) continue;
    if (!check_stage_applies(context, stage)) continue;
    for (const CheckRule& rule : check_rules()) {
      if (rule.stage() != stage) continue;
      if (options_.config.rule_disabled(rule.id())) continue;
      auto [it, inserted] =
          cache_.try_emplace(std::string(rule.id()));
      CacheEntry& entry = it->second;
      if (entry.valid && (rule.inputs() & dirty_) == 0) {
        ++hits;
        saved += entry.seconds;
      } else {
        const Clock::time_point start = Clock::now();
        CheckReport scratch;
        rule.run(context, scratch);
        entry.findings = std::move(scratch.findings);
        entry.seconds =
            std::chrono::duration<double>(Clock::now() - start).count();
        entry.valid = true;
        ++executed;
      }
      report.findings.insert(report.findings.end(),
                             entry.findings.begin(), entry.findings.end());
      ++report.rules_run;
    }
  }
  dirty_ = 0;

  apply_check_policy(report, options_.config);

  stats_.rules_executed += executed;
  stats_.cache_hits += hits;
  stats_.saved_s += saved;
  stats_.last_executed = executed;
  stats_.last_cache_hits = hits;
  if (hits > 0) {
    ++stats_.incremental_scans;
  } else {
    ++stats_.full_scans;
  }

  obs::count("check.rules_run", report.rules_run);
  obs::count("check.rules_executed", executed);
  obs::count("check.cache_hits", hits);
  obs::count(hits > 0 ? "check.incremental_scans" : "check.full_scans");
  obs::gauge("check.findings",
             static_cast<double>(report.findings.size()));
  obs::gauge("check.waived", static_cast<double>(report.waived_count()));
  obs::gauge("check.incremental_saved_s", stats_.saved_s);
  return report;
}

CheckReport CheckEngine::run_full(const CheckContext& context) {
  invalidate_all();
  return run(context);
}

void CheckEngine::run_or_throw(const CheckContext& context,
                               std::string_view where) {
  CheckReport report = run(context);
  if (report.passed()) return;
  std::string what =
      "check failed (" + std::string(where) + "):";
  for (const CheckFinding& finding : report.findings) {
    if (finding.waived || finding.severity != CheckSeverity::Error) continue;
    what += "\n  " + finding.rule + ": " + finding.message;
  }
  throw CheckFailure(std::move(what), std::move(report));
}

std::string CheckBaselineDiff::to_string() const {
  std::string out;
  for (const CheckFinding& finding : new_findings) {
    out += "new   " + finding.rule + ' ' +
           std::string(fp::to_string(finding.severity)) + ": " +
           finding.message + '\n';
  }
  for (const CheckFinding& finding : fixed_findings) {
    out += "fixed " + finding.rule + ": " + finding.message + '\n';
  }
  out += "baseline: " + std::to_string(new_findings.size()) +
         " new finding(s), " + std::to_string(fixed_findings.size()) +
         " fixed\n";
  return out;
}

CheckReport load_check_baseline(const std::string& dir) {
  const obs::LoadedArtifact artifact = obs::load_run_artifact(dir);
  const obs::Json* check = artifact.manifest.extra.find("check");
  require(check != nullptr && check->is_object(),
          "artifact '" + dir +
              "' carries no check block (was it written by fpkit "
              "check --artifact-dir?)");
  const obs::Json* findings = check->find("findings");
  require(findings != nullptr && findings->is_array(),
          "artifact '" + dir + "': check block has no findings array");
  CheckReport report;
  for (const obs::Json& item : findings->items()) {
    require(item.is_object(),
            "artifact '" + dir + "': malformed check finding");
    CheckFinding finding;
    finding.rule = item.at("rule").as_string();
    finding.severity = item.at("severity").as_string() == "error"
                           ? CheckSeverity::Error
                           : CheckSeverity::Warning;
    finding.message = item.at("message").as_string();
    if (const obs::Json* waived = item.find("waived")) {
      finding.waived = waived->as_bool();
    }
    if (const obs::Json* justification = item.find("justification")) {
      finding.justification = justification->as_string();
    }
    report.findings.push_back(std::move(finding));
  }
  if (const obs::Json* rules_run = check->find("rules_run")) {
    report.rules_run = static_cast<int>(rules_run->as_number());
  }
  return report;
}

CheckBaselineDiff diff_check_baseline(const CheckReport& current,
                                      const CheckReport& baseline) {
  // Multiset semantics on rule+message: N baseline copies absorb at most
  // N current copies; the (N+1)-th is new.
  std::map<std::string, int> pool;
  for (const CheckFinding& finding : baseline.findings) {
    ++pool[finding.rule + '\n' + finding.message];
  }
  CheckBaselineDiff diff;
  for (const CheckFinding& finding : current.findings) {
    const std::string key = finding.rule + '\n' + finding.message;
    const auto it = pool.find(key);
    if (it != pool.end() && it->second > 0) {
      --it->second;
      continue;
    }
    if (finding.waived) continue;  // suppressed by an explicit waiver
    diff.new_findings.push_back(finding);
  }
  // Whatever is left in the pool no longer fires.
  std::map<std::string, int> leftover = pool;
  for (const CheckFinding& finding : baseline.findings) {
    const std::string key = finding.rule + '\n' + finding.message;
    auto it = leftover.find(key);
    if (it != leftover.end() && it->second > 0) {
      --it->second;
      diff.fixed_findings.push_back(finding);
    }
  }
  return diff;
}

}  // namespace fp
