#include "analysis/check.h"

#include <algorithm>
#include <array>

#include "analysis/rules.h"
#include "obs/json.h"

namespace fp {

std::string_view to_string(CheckSeverity severity) {
  return severity == CheckSeverity::Error ? "error" : "warning";
}

std::string_view to_string(CheckStage stage) {
  switch (stage) {
    case CheckStage::Package:
      return "package";
    case CheckStage::Assignment:
      return "assignment";
    case CheckStage::Route:
      return "route";
    case CheckStage::Power:
      return "power";
    case CheckStage::Stacking:
      return "stacking";
    case CheckStage::Determinism:
      return "determinism";
  }
  return "unknown";
}

void CheckEmitter::emit(std::string message) const {
  CheckFinding finding;
  finding.rule = std::string(rule_->id());
  finding.severity = rule_->severity();
  finding.message = std::move(message);
  report_->findings.push_back(std::move(finding));
}

std::size_t CheckReport::error_count() const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [](const CheckFinding& finding) {
                      return !finding.waived &&
                             finding.severity == CheckSeverity::Error;
                    }));
}

std::size_t CheckReport::warning_count() const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [](const CheckFinding& finding) {
                      return !finding.waived &&
                             finding.severity == CheckSeverity::Warning;
                    }));
}

std::size_t CheckReport::waived_count() const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(),
                    [](const CheckFinding& finding) {
                      return finding.waived;
                    }));
}

bool CheckReport::has(std::string_view id) const {
  return std::any_of(findings.begin(), findings.end(),
                     [id](const CheckFinding& finding) {
                       return finding.rule == id;
                     });
}

std::string CheckReport::to_string(bool include_waived) const {
  std::string out;
  for (const CheckFinding& finding : findings) {
    if (finding.waived && !include_waived) continue;
    out += finding.rule;
    out += ' ';
    out += fp::to_string(finding.severity);
    if (finding.waived) out += " [waived]";
    out += ": ";
    out += finding.message;
    if (finding.waived && !finding.justification.empty()) {
      out += " (waiver: " + finding.justification + ")";
    }
    out += '\n';
  }
  for (const std::string& note : policy_notes) {
    out += "note: " + note + '\n';
  }
  out += "check: " + std::to_string(rules_run) + " rules, " +
         std::to_string(error_count()) + " error(s), " +
         std::to_string(warning_count()) + " warning(s)";
  if (waived_count() != 0) {
    out += ", " + std::to_string(waived_count()) + " waived";
  }
  out += '\n';
  return out;
}

obs::Json check_report_to_json(const CheckReport& report) {
  obs::Json doc = obs::Json::object();
  doc.set("schema", obs::Json::string("fpkit.check.v1"));
  doc.set("rules_run",
          obs::Json::number(static_cast<long long>(report.rules_run)));
  doc.set("errors",
          obs::Json::number(static_cast<long long>(report.error_count())));
  doc.set("warnings", obs::Json::number(
                          static_cast<long long>(report.warning_count())));
  doc.set("waived",
          obs::Json::number(static_cast<long long>(report.waived_count())));
  obs::Json findings = obs::Json::array();
  for (const CheckFinding& finding : report.findings) {
    obs::Json item = obs::Json::object();
    item.set("rule", obs::Json::string(finding.rule));
    item.set("severity",
             obs::Json::string(std::string(to_string(finding.severity))));
    item.set("message", obs::Json::string(finding.message));
    if (finding.waived) {
      item.set("waived", obs::Json::boolean(true));
      item.set("justification", obs::Json::string(finding.justification));
    }
    findings.push(std::move(item));
  }
  doc.set("findings", std::move(findings));
  if (!report.policy_notes.empty()) {
    obs::Json notes = obs::Json::array();
    for (const std::string& note : report.policy_notes) {
      notes.push(obs::Json::string(note));
    }
    doc.set("notes", std::move(notes));
  }
  return doc;
}

std::string CheckReport::to_json() const {
  return check_report_to_json(*this).dump() + "\n";
}

namespace {

std::vector<CheckRule> build_registry() {
  std::vector<CheckRule> all;
  for (const auto& table :
       {rules::geometry(), rules::netlist(), rules::assignment(),
        rules::route(), rules::power(), rules::stacking(),
        rules::determinism()}) {
    all.insert(all.end(), table.begin(), table.end());
  }
  return all;
}

}  // namespace

std::span<const CheckRule> check_rules() {
  static const std::vector<CheckRule> registry = build_registry();
  return registry;
}

const CheckRule* find_rule(std::string_view id) {
  for (const CheckRule& rule : check_rules()) {
    if (rule.id() == id) return &rule;
  }
  return nullptr;
}

std::span<const CheckStage> check_stage_order() {
  static constexpr std::array<CheckStage, 6> kOrder = {
      CheckStage::Package, CheckStage::Stacking, CheckStage::Assignment,
      CheckStage::Route, CheckStage::Power, CheckStage::Determinism};
  return kOrder;
}

namespace {

void require_stage_inputs(const CheckContext& context, CheckStage stage) {
  require(context.package != nullptr, "run_checks: context.package not set");
  if (stage == CheckStage::Determinism) {
    require(context.determinism != nullptr,
            "run_checks: determinism stage needs context.determinism");
    return;
  }
  if (stage != CheckStage::Package && stage != CheckStage::Stacking) {
    require(context.assignment != nullptr,
            "run_checks: stage needs context.assignment");
  }
}

void run_stage(const CheckContext& context, CheckStage stage,
               CheckReport& report) {
  for (const CheckRule& rule : check_rules()) {
    if (rule.stage() != stage) continue;
    rule.run(context, report);
    ++report.rules_run;
  }
}

}  // namespace

bool check_stage_applies(const CheckContext& context, CheckStage stage) {
  switch (stage) {
    case CheckStage::Package:
    case CheckStage::Stacking:
      return true;
    case CheckStage::Assignment:
    case CheckStage::Route:
      return context.assignment != nullptr;
    case CheckStage::Power:
      return context.assignment != nullptr && context.package != nullptr &&
             !context.package->netlist().supply_nets().empty();
    case CheckStage::Determinism:
      return context.determinism != nullptr;
  }
  return false;
}

CheckReport run_checks(const CheckContext& context, CheckStage stage) {
  require_stage_inputs(context, stage);
  CheckReport report;
  run_stage(context, stage, report);
  return report;
}

CheckReport run_checks(const CheckContext& context) {
  require(context.package != nullptr, "run_checks: context.package not set");
  CheckReport report;
  for (const CheckStage stage : check_stage_order()) {
    if (!check_stage_applies(context, stage)) continue;
    run_stage(context, stage, report);
  }
  return report;
}

CheckFailure::CheckFailure(std::string what, CheckReport report)
    : Error(what, ErrorCode::Check), report_(std::move(report)) {}

}  // namespace fp
