// Property test for the full stack: after an arbitrary sequence of
// management-plane operations (with packet traffic interleaved), the
// incrementally maintained data-plane state must equal the state a fresh
// stack computes from the final configuration alone.  This is the
// system-level version of the engine's incremental==scratch property — a
// divergence here is precisely the §2.2 class of incremental-controller
// bug ("only exercised when a deployment takes a particular series of
// steps to arrive at a given configuration").
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "common/strings.h"
#include "snvs/snvs.h"

namespace nerpa::snvs {
namespace {

/// Canonical dump of one table's entries (match + priority + action +
/// args; every snvs key is exact, so the match values name the entry).
std::multiset<std::string> TableContents(const p4::Switch& device,
                                         const char* table) {
  std::multiset<std::string> out;
  for (const p4::TableEntry* entry : device.GetTable(table)->Entries()) {
    out.insert(entry->ToString() + "#" + std::to_string(entry->priority));
  }
  return out;
}

std::map<uint32_t, std::vector<uint64_t>> Groups(const p4::Switch& device) {
  std::map<uint32_t, std::vector<uint64_t>> out;
  for (uint32_t group = 1; group < 5000; ++group) {
    const auto* members = device.GetMulticastGroup(group);
    if (members != nullptr) out[group] = *members;
  }
  return out;
}

struct PortState {
  int64_t port;
  bool trunk;
  int64_t tag;
  std::vector<int64_t> trunks;
};

TEST(SnvsProperty, IncrementalEqualsColdStart) {
  std::mt19937_64 rng(0xFEED);
  for (int round = 0; round < 5; ++round) {
    auto stack_result = BuildSnvsStack();
    ASSERT_TRUE(stack_result.ok());
    SnvsStack& stack = **stack_result;

    std::map<std::string, PortState> ports;
    std::map<std::string, std::pair<int64_t, int64_t>> mirrors;
    std::set<std::tuple<int64_t, int64_t, bool>> acls;
    int64_t mirror_seq = 0;

    for (int step = 0; step < 60; ++step) {
      switch (rng() % 5) {
        case 0: {  // add / replace a port (delete first if present)
          int id = static_cast<int>(rng() % 10);
          std::string name = StrFormat("p%d", id);
          if (ports.count(name) != 0) {
            ASSERT_TRUE(stack.DeletePort(name).ok());
            ports.erase(name);
          }
          bool trunk = rng() % 3 == 0;
          PortState state;
          state.port = id;
          state.trunk = trunk;
          state.tag = trunk ? 0 : static_cast<int64_t>(rng() % 6) + 1;
          if (trunk) {
            for (int64_t vlan = 1; vlan <= 6; ++vlan) {
              if (rng() % 2) state.trunks.push_back(vlan);
            }
          }
          ASSERT_TRUE(stack
                          .AddPort(name, state.port,
                                   trunk ? "trunk" : "access", state.tag,
                                   state.trunks)
                          .ok());
          ports[name] = state;
          break;
        }
        case 1: {  // delete a port
          if (ports.empty()) break;
          auto it = ports.begin();
          std::advance(it, static_cast<long>(rng() % ports.size()));
          ASSERT_TRUE(stack.DeletePort(it->first).ok());
          ports.erase(it);
          break;
        }
        case 2: {  // mirror (unique per source port, schema-enforced)
          int64_t src = static_cast<int64_t>(rng() % 10);
          bool src_in_use = false;
          for (const auto& [n, m] : mirrors) {
            if (m.first == src) src_in_use = true;
          }
          if (src_in_use) break;
          std::string name = StrFormat("m%lld",
                                       static_cast<long long>(mirror_seq++));
          int64_t dst = static_cast<int64_t>(rng() % 10) + 20;
          ASSERT_TRUE(stack.AddMirror(name, src, dst).ok());
          mirrors[name] = {src, dst};
          break;
        }
        case 3: {  // acl
          int64_t mac = static_cast<int64_t>(rng() % 4) + 0xA0;
          int64_t vlan = static_cast<int64_t>(rng() % 6) + 1;
          bool allow = rng() % 2 == 0;
          if (acls.count({mac, vlan, allow}) != 0) break;
          // The Acl table is keyed (vlan, mac): drop+allow for the same key
          // would collide, so only one polarity per key.
          if (acls.count({mac, vlan, !allow}) != 0) break;
          ASSERT_TRUE(stack.AddAclRule(mac, vlan, allow).ok());
          acls.insert({mac, vlan, allow});
          break;
        }
        case 4: {  // traffic (drives the learning feedback loop)
          if (ports.empty()) break;
          uint64_t src_port = static_cast<uint64_t>(rng() % 10);
          net::Mac src(0, 0, 0, 0, 0,
                       static_cast<uint8_t>(rng() % 6 + 1));
          net::Mac dst(0, 0, 0, 0, 0,
                       static_cast<uint8_t>(rng() % 6 + 1));
          auto out = stack.InjectPacket(
              0, src_port,
              net::MakeEthernetFrame(dst, src, 0x0800, {1, 2, 3}));
          ASSERT_TRUE(out.ok()) << out.status().ToString();
          break;
        }
      }
      ASSERT_TRUE(stack.controller().last_error().ok());
    }

    // Cold-start a fresh stack from the final configuration only.
    auto fresh_result = BuildSnvsStack();
    ASSERT_TRUE(fresh_result.ok());
    SnvsStack& fresh = **fresh_result;
    for (const auto& [name, state] : ports) {
      ASSERT_TRUE(fresh
                      .AddPort(name, state.port,
                               state.trunk ? "trunk" : "access", state.tag,
                               state.trunks)
                      .ok());
    }
    for (const auto& [name, mirror] : mirrors) {
      ASSERT_TRUE(fresh.AddMirror(name, mirror.first, mirror.second).ok());
    }
    for (const auto& [mac, vlan, allow] : acls) {
      ASSERT_TRUE(fresh.AddAclRule(mac, vlan, allow).ok());
    }

    // Configuration-derived tables must match exactly (learning-derived
    // SMac/Dmac depend on traffic history, which the fresh stack lacks).
    for (const char* table : {"InVlanUntagged", "InVlanTagged", "OutVlan",
                              "FloodVlan", "Acl", "PortMirror"}) {
      EXPECT_EQ(TableContents(stack.device(), table),
                TableContents(fresh.device(), table))
          << "table " << table << " diverged in round " << round;
    }
    EXPECT_EQ(Groups(stack.device()), Groups(fresh.device()))
        << "multicast groups diverged in round " << round;
  }
}

}  // namespace
}  // namespace nerpa::snvs
