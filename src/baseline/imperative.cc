#include "baseline/imperative.h"

#include <algorithm>

namespace nerpa::baseline {

namespace {

/// Newest learn per (vlan, mac): highest seq wins.
std::map<std::pair<int64_t, int64_t>, std::pair<int64_t, int64_t>>
NewestLearns(const std::vector<LearnEvent>& learns) {
  std::map<std::pair<int64_t, int64_t>, std::pair<int64_t, int64_t>> best;
  for (const LearnEvent& learn : learns) {
    auto key = std::make_pair(learn.vlan, learn.mac);
    auto it = best.find(key);
    if (it == best.end() || learn.seq > it->second.first) {
      best[key] = {learn.seq, learn.port};
    }
  }
  return best;
}

}  // namespace

EntrySet ComputeDesiredState(const std::map<std::string, PortConfig>& ports,
                             const std::map<std::string, MirrorConfig>& mirrors,
                             const std::vector<AclConfig>& acls,
                             const std::vector<LearnEvent>& learns) {
  EntrySet out;
  std::map<int64_t, std::set<int64_t>> vlan_members;
  for (const auto& [name, port] : ports) {
    if (!port.trunk) {
      out.insert({"InVlanUntagged", {port.port, port.tag}});
      out.insert({"OutVlan", {port.port, port.tag, 0}});
      vlan_members[port.tag].insert(port.port);
    } else {
      for (int64_t vlan : port.trunks) {
        out.insert({"InVlanTagged", {port.port, vlan}});
        out.insert({"OutVlan", {port.port, vlan, 1}});
        vlan_members[vlan].insert(port.port);
      }
    }
  }
  for (const auto& [vlan, members] : vlan_members) {
    out.insert({"FloodVlan", {vlan, vlan + 1}});
    for (int64_t port : members) {
      out.insert({"MulticastGroup", {vlan + 1, port}});
    }
  }
  for (const auto& [name, mirror] : mirrors) {
    out.insert({"PortMirror", {mirror.src_port, mirror.out_port}});
  }
  for (const AclConfig& acl : acls) {
    out.insert({"Acl", {acl.vlan, acl.mac, acl.allow ? 1 : 0}});
  }
  for (const auto& [key, best] : NewestLearns(learns)) {
    const auto& [vlan, mac] = key;
    out.insert({"SMac", {vlan, mac, best.second}});
    out.insert({"Dmac", {vlan, mac, best.second}});
  }
  return out;
}

// ---------------------------------------------------------------------------
// FullRecomputeController
// ---------------------------------------------------------------------------

void FullRecomputeController::Recompute() {
  ++recompute_count_;
  EntrySet desired = ComputeDesiredState(ports_, mirrors_, acls_, learns_);
  // Diff against the installed state.
  for (const LogicalEntry& entry : installed_) {
    if (desired.count(entry) == 0) sink_(entry, -1);
  }
  for (const LogicalEntry& entry : desired) {
    if (installed_.count(entry) == 0) sink_(entry, +1);
  }
  installed_ = std::move(desired);
}

void FullRecomputeController::AddPort(PortConfig port) {
  ports_[port.name] = std::move(port);
  Recompute();
}

void FullRecomputeController::RemovePort(const std::string& name) {
  ports_.erase(name);
  Recompute();
}

void FullRecomputeController::AddMirror(MirrorConfig mirror) {
  mirrors_[mirror.name] = std::move(mirror);
  Recompute();
}

void FullRecomputeController::AddAcl(AclConfig acl) {
  acls_.push_back(acl);
  Recompute();
}

void FullRecomputeController::RemoveAcl(int64_t mac, int64_t vlan) {
  acls_.erase(std::remove_if(acls_.begin(), acls_.end(),
                             [&](const AclConfig& acl) {
                               return acl.mac == mac && acl.vlan == vlan;
                             }),
              acls_.end());
  Recompute();
}

void FullRecomputeController::Learn(LearnEvent event) {
  learns_.push_back(event);
  Recompute();
}

// ---------------------------------------------------------------------------
// ImperativeIncrementalController
// ---------------------------------------------------------------------------

void ImperativeIncrementalController::Install(LogicalEntry entry) {
  auto [it, inserted] = installed_.insert(std::move(entry));
  if (inserted) sink_(*it, +1);
}

void ImperativeIncrementalController::Remove(const LogicalEntry& entry) {
  auto it = installed_.find(entry);
  if (it == installed_.end()) return;
  sink_(*it, -1);
  installed_.erase(it);
}

void ImperativeIncrementalController::AddPortVlan(int64_t port, int64_t vlan,
                                                  bool tagged) {
  auto& members = tagged ? vlan_tagged_ports_[vlan] : vlan_untagged_ports_[vlan];
  members.insert(port);
  bool first_member = vlan_untagged_ports_[vlan].size() +
                          vlan_tagged_ports_[vlan].size() ==
                      1;
  if (tagged) {
    Install({"InVlanTagged", {port, vlan}});
    Install({"OutVlan", {port, vlan, 1}});
  } else {
    Install({"OutVlan", {port, vlan, 0}});
  }
  Install({"MulticastGroup", {vlan + 1, port}});
  if (first_member) Install({"FloodVlan", {vlan, vlan + 1}});
}

void ImperativeIncrementalController::RemovePortVlan(int64_t port,
                                                     int64_t vlan,
                                                     bool tagged) {
  auto& members = tagged ? vlan_tagged_ports_[vlan] : vlan_untagged_ports_[vlan];
  members.erase(port);
  if (tagged) {
    Remove({"InVlanTagged", {port, vlan}});
    Remove({"OutVlan", {port, vlan, 1}});
  } else {
    Remove({"OutVlan", {port, vlan, 0}});
  }
  // Careful: the port may carry the vlan through the *other* mode still
  // (e.g. untagged on one row, tagged on another is impossible per port,
  // but two ports sharing a vlan is the common case).
  bool still_member = vlan_untagged_ports_[vlan].count(port) != 0 ||
                      vlan_tagged_ports_[vlan].count(port) != 0;
  if (!still_member) Remove({"MulticastGroup", {vlan + 1, port}});
  if (vlan_untagged_ports_[vlan].empty() && vlan_tagged_ports_[vlan].empty()) {
    Remove({"FloodVlan", {vlan, vlan + 1}});
    vlan_untagged_ports_.erase(vlan);
    vlan_tagged_ports_.erase(vlan);
  }
}

void ImperativeIncrementalController::AddPort(PortConfig port) {
  auto existing = ports_.find(port.name);
  if (existing != ports_.end()) RemovePort(port.name);
  if (!port.trunk) {
    Install({"InVlanUntagged", {port.port, port.tag}});
    AddPortVlan(port.port, port.tag, /*tagged=*/false);
  } else {
    for (int64_t vlan : port.trunks) {
      AddPortVlan(port.port, vlan, /*tagged=*/true);
    }
  }
  ports_[port.name] = std::move(port);
}

void ImperativeIncrementalController::RemovePort(const std::string& name) {
  auto it = ports_.find(name);
  if (it == ports_.end()) return;
  const PortConfig& port = it->second;
  if (!port.trunk) {
    Remove({"InVlanUntagged", {port.port, port.tag}});
    RemovePortVlan(port.port, port.tag, /*tagged=*/false);
  } else {
    for (int64_t vlan : port.trunks) {
      RemovePortVlan(port.port, vlan, /*tagged=*/true);
    }
  }
  ports_.erase(it);
}

void ImperativeIncrementalController::AddMirror(MirrorConfig mirror) {
  // Replacing a named mirror must retract the old entry — unless another
  // mirror still produces it (entries are a set, so they need refcounting
  // by hand; exactly the retraction subtlety §2.2 warns about).
  auto existing = mirrors_.find(mirror.name);
  if (existing != mirrors_.end()) {
    const MirrorConfig& old = existing->second;
    bool shared = false;
    for (const auto& [name, other] : mirrors_) {
      if (name != old.name && other.src_port == old.src_port &&
          other.out_port == old.out_port) {
        shared = true;
      }
    }
    if (!shared) Remove({"PortMirror", {old.src_port, old.out_port}});
  }
  Install({"PortMirror", {mirror.src_port, mirror.out_port}});
  mirrors_[mirror.name] = std::move(mirror);
}

void ImperativeIncrementalController::AddAcl(AclConfig acl) {
  Install({"Acl", {acl.vlan, acl.mac, acl.allow ? 1 : 0}});
}

void ImperativeIncrementalController::RemoveAcl(int64_t mac, int64_t vlan) {
  Remove({"Acl", {vlan, mac, 0}});
  Remove({"Acl", {vlan, mac, 1}});
}

void ImperativeIncrementalController::Learn(LearnEvent event) {
  auto key = std::make_pair(event.vlan, event.mac);
  auto it = best_learn_.find(key);
  if (it != best_learn_.end()) {
    if (event.seq <= it->second.first) return;  // stale
    int64_t old_port = it->second.second;
    if (old_port != event.port) {
      Remove({"SMac", {event.vlan, event.mac, old_port}});
      Remove({"Dmac", {event.vlan, event.mac, old_port}});
    }
  }
  best_learn_[key] = {event.seq, event.port};
  Install({"SMac", {event.vlan, event.mac, event.port}});
  Install({"Dmac", {event.vlan, event.mac, event.port}});
}

}  // namespace nerpa::baseline

namespace nerpa::baseline {
const char* const kImperativeSourcePath = __FILE__;
}
