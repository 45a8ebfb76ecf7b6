// NET-*: netlist-level checks -- naming, supply distribution, tier
// population.
#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/rules.h"

namespace fp::rules {
namespace {

void net_duplicate_names(const CheckContext& context,
                         const CheckEmitter& emit) {
  std::unordered_set<std::string> seen;
  for (const Net& net : context.package->netlist().nets()) {
    if (!seen.insert(net.name).second) {
      emit.emit("duplicate net name '" + net.name +
                "': interchange files and reports become ambiguous");
    }
  }
}

void net_no_supply(const CheckContext& context, const CheckEmitter& emit) {
  if (context.package->netlist().supply_nets().empty()) {
    emit.emit("no supply nets: IR-drop analysis and the 2-D exchange step "
              "are unavailable");
  }
}

void net_supply_fraction(const CheckContext& context,
                         const CheckEmitter& emit) {
  const Netlist& netlist = context.package->netlist();
  if (netlist.empty()) return;
  const std::size_t supply = netlist.supply_nets().size();
  if (supply == 0) return;  // NET-002's finding
  const double fraction = static_cast<double>(supply) /
                          static_cast<double>(netlist.size());
  if (fraction < 0.05 || fraction > 0.5) {
    emit.emit("supply nets are " +
              std::to_string(static_cast<int>(fraction * 100.0)) +
              "% of the netlist, outside the plausible [5%, 50%] band for "
              "a wire-bond package");
  }
}

void net_quadrant_supply(const CheckContext& context,
                         const CheckEmitter& emit) {
  const Netlist& netlist = context.package->netlist();
  if (netlist.supply_nets().empty()) return;
  for (const Quadrant& q : context.package->quadrants()) {
    bool has_supply = false;
    for (const NetId net : q.all_nets()) {
      if (is_supply(netlist.net(net).type)) has_supply = true;
    }
    if (!has_supply) {
      emit.emit("quadrant '" + q.name() + "' carries no supply net: one "
                "die edge has no power pad at all");
    }
  }
}

void net_empty_tier(const CheckContext& context, const CheckEmitter& emit) {
  const Netlist& netlist = context.package->netlist();
  const int tiers = netlist.tier_count();
  if (tiers <= 1) return;
  std::vector<int> members(static_cast<std::size_t>(tiers), 0);
  for (const Net& net : netlist.nets()) {
    ++members[static_cast<std::size_t>(net.tier)];
  }
  for (int d = 0; d < tiers; ++d) {
    if (members[static_cast<std::size_t>(d)] == 0) {
      emit.emit("tier " + std::to_string(d) + " has no nets: tier_count is "
                "inconsistent with the netlist");
    }
  }
}

constexpr CheckRule kRules[] = {
    {"NET-001", CheckStage::Package, check_inputs::kNetlist,
     CheckSeverity::Error, "net names are unique", net_duplicate_names},
    {"NET-002", CheckStage::Package, check_inputs::kNetlist,
     CheckSeverity::Warning,
     "the netlist carries at least one supply net", net_no_supply},
    {"NET-003", CheckStage::Package, check_inputs::kNetlist,
     CheckSeverity::Warning,
     "the supply-net fraction lies in a plausible band",
     net_supply_fraction},
    {"NET-004", CheckStage::Package, check_inputs::kNetlist,
     CheckSeverity::Warning,
     "every quadrant carries a supply net", net_quadrant_supply},
    {"NET-005", CheckStage::Package, check_inputs::kNetlist,
     CheckSeverity::Error,
     "every die tier owns at least one net", net_empty_tier},
};

}  // namespace

std::span<const CheckRule> netlist() { return kRules; }

}  // namespace fp::rules
