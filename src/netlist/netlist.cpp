#include "netlist/netlist.h"

#include <algorithm>

namespace fp {

std::string_view to_string(NetType type) {
  switch (type) {
    case NetType::Signal:
      return "signal";
    case NetType::Power:
      return "power";
    case NetType::Ground:
      return "ground";
  }
  return "unknown";
}

Netlist::Netlist(std::size_t count) {
  nets_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    add(std::string("N").append(std::to_string(i)));
  }
}

NetId Netlist::add(std::string name, NetType type, int tier) {
  require(tier >= 0, "Netlist::add: tier must be non-negative");
  const NetId id = static_cast<NetId>(nets_.size());
  nets_.push_back(Net{id, std::move(name), type, tier});
  return id;
}

int Netlist::tier_count() const {
  int max_tier = 0;
  for (const Net& n : nets_) max_tier = std::max(max_tier, n.tier);
  return max_tier + 1;
}

std::vector<NetId> Netlist::supply_nets() const {
  std::vector<NetId> out;
  for (const Net& n : nets_) {
    if (is_supply(n.type)) out.push_back(n.id);
  }
  return out;
}

std::size_t Netlist::count(NetType type) const {
  return static_cast<std::size_t>(
      std::count_if(nets_.begin(), nets_.end(),
                    [type](const Net& n) { return n.type == type; }));
}

}  // namespace fp
