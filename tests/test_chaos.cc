// Chaos soak: seeded fault schedules hammer all three planes at once —
// device write failures (quarantined by circuit breakers), OVSDB transport
// drops (healed by monitor_since session resumption), and filesystem
// corruption (tolerated by CRC framing + snapshot fallback) — and after
// quiescence the surviving state must byte-match a from-scratch
// recomputation.  Every decision draws from one seeded schedule, so a
// failing run replays exactly from its seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/chaos.h"
#include "common/strings.h"
#include "ha/durable.h"
#include "net/packet.h"
#include "ovsdb/client.h"
#include "ovsdb/server.h"
#include "snvs/ha_pair.h"
#include "snvs/snvs.h"

namespace nerpa {
namespace {

struct FaultTally {
  uint64_t fs = 0;         // durability seam (ChaosIo)
  uint64_t device = 0;     // data-plane seam (FaultyRuntimeClient)
  uint64_t transport = 0;  // management-plane seam (socket kills)
  uint64_t total() const { return fs + device + transport; }
};

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/nerpa_chaos_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

constexpr const char* kTables[] = {"InVlanUntagged", "InVlanTagged",
                                   "PortMirror",     "Acl",
                                   "SMac",           "Dmac",
                                   "FloodVlan",      "OutVlan"};

/// Canonical dump of one device's entire data-plane state for byte-exact
/// convergence checks (same shape as the test_ha_restart helper).
std::string DeviceState(const p4::Switch& sw) {
  std::string out;
  for (const char* table : kTables) {
    std::vector<std::string> lines;
    for (const p4::TableEntry* entry : sw.GetTable(table)->Entries()) {
      lines.push_back(entry->ToString());
    }
    std::sort(lines.begin(), lines.end());
    for (const std::string& line : lines) out += line + "\n";
  }
  for (const auto& [group, ports] : sw.multicast_groups()) {
    out += "group " + std::to_string(group);
    for (uint64_t port : ports) out += " " + std::to_string(port);
    out += "\n";
  }
  return out;
}

// --- snvs half: device faults + filesystem corruption + crashes --------

/// Drives a durable snvs stack through a seeded storm of device write
/// failures, torn/failed WAL appends, corrupted snapshot writes, and
/// process crashes; converges it; and checks the survivors byte-match a
/// from-scratch rebuild off the same durable directory.
void SnvsSoak(uint64_t seed, FaultTally& tally) {
  chaos::ChaosSchedule schedule(seed);
  std::string dir = FreshDir("snvs_" + std::to_string(seed));

  chaos::ChaosIoPolicy io_policy;
  io_policy.write_corrupt_probability = 0.08;  // snapshot bit rot
  io_policy.torn_append_probability = 0.02;    // crash mid-append
  io_policy.append_fail_probability = 0.03;    // transient append error
  chaos::ChaosIo io(&schedule, io_policy);

  snvs::SnvsOptions options;
  options.ha_dir = dir;
  options.io = &io;
  options.devices = 2;
  options.fault.write_fail_probability = 0.15;
  options.retry.max_attempts = 2;
  options.retry.backoff.initial_nanos = 1000;
  options.retry.backoff.max_nanos = 4000;
  options.breaker.enabled = true;
  options.breaker.strike_threshold = 2;
  options.breaker.cooldown_nanos = 0;  // probe on the next anti-entropy run

  // Device fault counters die with each stack generation; collect them
  // before every teardown.
  auto harvest = [&](snvs::SnvsStack& stack) {
    for (size_t i = 0; i < stack.device_count(); ++i) {
      if (ha::FaultyRuntimeClient* faulty = stack.faulty(i)) {
        tally.device += faulty->fault_stats().injected_failures +
                        faulty->fault_stats().injected_stalls;
      }
    }
  };
  auto rebuild = [&]() -> std::unique_ptr<snvs::SnvsStack> {
    options.fault.seed = schedule.Fork();  // decorrelate each generation
    auto stack = snvs::BuildSnvsStack(options);
    EXPECT_TRUE(stack.ok()) << "seed " << seed << ": "
                            << stack.status().ToString();
    return stack.ok() ? std::move(stack).value() : nullptr;
  };

  auto stack = rebuild();
  ASSERT_NE(stack, nullptr);

  // The management-plane workload.  Names and port numbers are never
  // reused, so an operation lost to a crash never causes a later
  // constraint collision; Mirror src_port collisions are legal constraint
  // rejections and simply skipped.
  std::vector<std::string> ports;
  int next_port = 1, next_acl = 0, next_mirror = 0;
  constexpr int kOps = 140;
  for (int op = 0; op < kOps; ++op) {
    ASSERT_NE(stack, nullptr);
    uint64_t fs_before = io.injected_faults();
    uint64_t roll = schedule.Pick(100);
    if (roll < 55 || ports.empty()) {
      std::string name = StrFormat("p%d", next_port);
      if (schedule.Flip(0.25)) {
        (void)stack->AddPort(name, next_port, "trunk", 0, {10, 20});
      } else {
        int64_t vlan = 10 + 10 * static_cast<int64_t>(schedule.Pick(4));
        (void)stack->AddPort(name, next_port, "access", vlan);
      }
      ports.push_back(name);
      ++next_port;
    } else if (roll < 75) {
      size_t victim = schedule.Pick(ports.size());
      (void)stack->DeletePort(ports[victim]);
      ports.erase(ports.begin() + static_cast<ptrdiff_t>(victim));
    } else if (roll < 90) {
      (void)stack->AddAclRule(0x1000 + next_acl++,
                              10 + 10 * static_cast<int64_t>(schedule.Pick(4)),
                              schedule.Flip(0.5));
    } else {
      (void)stack->AddMirror(StrFormat("m%d", next_mirror++),
                             1 + static_cast<int64_t>(schedule.Pick(16)),
                             1 + static_cast<int64_t>(schedule.Pick(16)));
    }
    if (io.injected_faults() == fs_before && schedule.Flip(0.12)) {
      (void)stack->Checkpoint();  // may draw a corrupted snapshot write
    }
    // A WAL/snapshot fault means the live database may be ahead of the
    // durable state: treat it as a crash immediately, so recovery (torn
    // tail truncation / snapshot fallback) is exercised while disk and
    // bookkeeping stay consistent.  Occasionally crash for no reason at
    // all.
    if (io.injected_faults() != fs_before || schedule.Flip(0.06)) {
      harvest(*stack);
      stack.reset();
      stack = rebuild();
      ASSERT_NE(stack, nullptr);
    }
  }

  // Quiescence: heal every device, then one anti-entropy round must
  // rejoin whatever is quarantined.
  for (size_t i = 0; i < stack->device_count(); ++i) {
    if (ha::FaultyRuntimeClient* faulty = stack->faulty(i)) {
      ha::FaultPolicy healthy = faulty->policy();
      healthy.write_fail_probability = 0;
      faulty->set_policy(healthy);
    }
  }
  ASSERT_TRUE(stack->controller().RunAntiEntropy().ok());
  Controller::Stats stats = stack->controller().stats();
  for (const auto& [device, state] : stats.breaker_states) {
    EXPECT_EQ(state, "closed")
        << "seed " << seed << ": " << device
        << " failed to rejoin within one anti-entropy round";
    EXPECT_EQ(stats.outbox_sizes.at(device), 0u);
  }

  // Capture the survivors, tear the stack down cleanly, and recompute the
  // whole system from scratch off the same durable directory with no
  // chaos anywhere.  Management plane and every interpreted P4 table must
  // come back byte-identical.
  Json db_state = ha::DurableStore::SnapshotJson(stack->db());
  std::vector<std::string> device_states;
  for (size_t i = 0; i < stack->device_count(); ++i) {
    device_states.push_back(DeviceState(stack->device(i)));
  }
  harvest(*stack);
  tally.fs += io.injected_faults();
  stack.reset();

  snvs::SnvsOptions clean;
  clean.ha_dir = dir;
  clean.devices = 2;
  auto reference = snvs::BuildSnvsStack(clean);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_TRUE((*reference)->store()->recovered());
  EXPECT_EQ(ha::DurableStore::SnapshotJson((*reference)->db()), db_state)
      << "seed " << seed << ": management plane diverged";
  for (size_t i = 0; i < device_states.size(); ++i) {
    EXPECT_EQ(DeviceState((*reference)->device(i)), device_states[i])
        << "seed " << seed << ": device " << i << " diverged";
  }
}

// --- transport half: session kills under a live update stream ----------

/// A row-level replica maintained purely from one monitor's update
/// stream.  Gap-free delivery across heals ⇒ the replica equals the
/// authoritative database at quiescence.
using Replica = std::map<std::string, std::map<std::string, Json>>;

void ApplyUpdates(Replica& replica, const Json& updates) {
  if (!updates.is_object()) return;
  for (const auto& [table, rows] : updates.as_object()) {
    for (const auto& [uuid, delta] : rows.as_object()) {
      const Json* new_row = delta.Find("new");
      if (new_row != nullptr) {
        replica[table][uuid] = *new_row;
      } else {
        replica[table].erase(uuid);
      }
    }
  }
}

std::string ReplicaDump(const Replica& replica) {
  std::string out;
  for (const auto& [table, rows] : replica) {
    if (rows.empty()) continue;
    for (const auto& [uuid, row] : rows) {
      out += table + "/" + uuid + "=" + row.Dump() + "\n";
    }
  }
  return out;
}

void TransportSoak(uint64_t seed, FaultTally& tally) {
  // Decorrelated from the snvs half but still a pure function of `seed`.
  chaos::ChaosSchedule schedule(seed ^ 0x9e3779b97f4a7c15ull);
  auto server = std::make_unique<ovsdb::OvsdbServer>(
      std::make_unique<ovsdb::Database>(snvs::SnvsSchema()));
  ASSERT_TRUE(server->Start().ok());

  ovsdb::OvsdbClient watcher;
  ovsdb::OvsdbClient::HealPolicy heal;
  heal.enabled = true;
  heal.backoff_ms = 1;
  watcher.set_heal_policy(heal);
  ASSERT_TRUE(watcher.Connect("127.0.0.1", server->port()).ok());
  Replica replica;
  ASSERT_TRUE(watcher
                  .Monitor(Json("replica"), {},
                           [&](const Json&, const Json& updates) {
                             ApplyUpdates(replica, updates);
                           })
                  .ok());

  ovsdb::OvsdbClient writer;  // its own (never-faulted) session
  ASSERT_TRUE(writer.Connect("127.0.0.1", server->port()).ok());
  std::vector<std::string> ports;
  int next_port = 1000;  // disjoint from anything else
  constexpr int kTxns = 60;
  for (int t = 0; t < kTxns; ++t) {
    if (schedule.Pick(100) < 70 || ports.empty()) {
      std::string name = StrFormat("w%d", next_port);
      auto result = writer.Transact(
          Json::Parse(StrFormat(
                          R"([{"op": "insert", "table": "Port",
                               "row": {"name": "%s", "port": %d,
                                       "vlan_mode": "access", "tag": 10}}])",
                          name.c_str(), next_port))
              .value());
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ports.push_back(name);
      ++next_port;
    } else {
      size_t victim = schedule.Pick(ports.size());
      auto result = writer.Transact(
          Json::Parse(StrFormat(
                          R"([{"op": "delete", "table": "Port",
                               "where": [["name", "==", "%s"]]}])",
                          ports[victim].c_str()))
              .value());
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ports.erase(ports.begin() + static_cast<ptrdiff_t>(victim));
    }
    // Kill the watcher's transport mid-stream; sometimes pump it (healing
    // lazily), sometimes let drops pile up across several transactions.
    if (schedule.Flip(0.35)) {
      watcher.InjectTransportFault();
      ++tally.transport;
    }
    if (schedule.Flip(0.5)) {
      auto polled = watcher.Poll();
      ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    }
  }

  // Quiescence: drain everything (healing one last time if the final kill
  // landed after the final poll).
  for (int quiet = 0; quiet < 2;) {
    auto polled = watcher.Poll();
    ASSERT_TRUE(polled.ok()) << polled.status().ToString();
    quiet = *polled == 0 ? quiet + 1 : 0;
  }
  EXPECT_GT(watcher.session_stats().reconnects, 0u);
  EXPECT_EQ(watcher.session_stats().full_redumps, 0u)
      << "gap outgrew the server history; raise kHistoryLimit in the test";

  // Authoritative contents via a fresh session's initial dump.
  ovsdb::OvsdbClient auditor;
  ASSERT_TRUE(auditor.Connect("127.0.0.1", server->port()).ok());
  auto dump = auditor.Monitor(Json("audit"), {},
                              [](const Json&, const Json&) {});
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  Replica authoritative;
  ApplyUpdates(authoritative, *dump);
  EXPECT_EQ(ReplicaDump(replica), ReplicaDump(authoritative))
      << "seed " << seed << ": replica diverged from the database";

  watcher.Disconnect();
  writer.Disconnect();
  auditor.Disconnect();
  server->Stop();
}

// --- replication half: lease pathologies over a hot-standby pair -------

/// Drives a durable dual-controller deployment through a seeded storm of
/// lease losses, clock skews, zombie leaders, and device write faults;
/// converges it (heal + final leader resync + checkpoint); and checks the
/// survivors byte-match a clean rebuild off the same durable directory —
/// including digest-learned MACs, which only the engine-checkpoint handoff
/// can carry.
void FailoverSoak(uint64_t seed, FaultTally& tally,
                  chaos::LeaseFaultTally& lease_tally) {
  chaos::ChaosSchedule schedule(seed ^ 0xc2b2ae3d27d4eb4full);
  std::string dir = FreshDir("failover_" + std::to_string(seed));

  int64_t now = 1;
  constexpr int64_t kTtl = 1000;

  snvs::SnvsHaOptions options;
  options.devices = 2;
  options.ha_dir = dir;
  options.lease_ttl_nanos = kTtl;
  options.clock = [&now] { return now; };
  options.fault.write_fail_probability = 0.10;
  options.fault.seed = schedule.Fork();
  options.retry.max_attempts = 3;
  options.retry.backoff.initial_nanos = 1000;
  options.retry.backoff.max_nanos = 4000;

  auto built = snvs::BuildSnvsHaPair(options);
  ASSERT_TRUE(built.ok()) << "seed " << seed << ": "
                          << built.status().ToString();
  snvs::SnvsHaPair& pair = **built;
  ASSERT_EQ(pair.Tick(), 0) << "replica 0 must win the first election";

  chaos::LeaseFaultPolicy lease_policy;
  lease_policy.lease_loss_probability = 0.10;
  lease_policy.clock_skew_probability = 0.08;
  lease_policy.zombie_probability = 0.08;

  std::vector<std::string> ports;
  int next_port = 1, next_acl = 0, next_mirror = 0, next_host = 1;
  constexpr int kOps = 120;
  for (int op = 0; op < kOps; ++op) {
    uint64_t roll = schedule.Pick(100);
    if (roll < 50 || ports.empty()) {
      std::string name = StrFormat("hp%d", next_port);
      if (schedule.Flip(0.25)) {
        (void)pair.AddPort(name, next_port, "trunk", 0, {10, 20});
      } else {
        int64_t vlan = 10 + 10 * static_cast<int64_t>(schedule.Pick(4));
        (void)pair.AddPort(name, next_port, "access", vlan);
      }
      ports.push_back(name);
      ++next_port;
    } else if (roll < 65) {
      size_t victim = schedule.Pick(ports.size());
      (void)pair.DeletePort(ports[victim]);
      ports.erase(ports.begin() + static_cast<ptrdiff_t>(victim));
    } else if (roll < 80) {
      (void)pair.AddAclRule(0x2000 + next_acl++,
                            10 + 10 * static_cast<int64_t>(schedule.Pick(4)),
                            schedule.Flip(0.5));
    } else if (roll < 90) {
      (void)pair.AddMirror(StrFormat("hm%d", next_mirror++),
                           1 + static_cast<int64_t>(schedule.Pick(16)),
                           1 + static_cast<int64_t>(schedule.Pick(16)));
    } else {
      // MAC learning traffic: digest-only soft state, carried across
      // failovers purely by the checkpoint handoff.
      uint8_t h = static_cast<uint8_t>(next_host++ % 200 + 1);
      (void)pair.InjectPacket(
          schedule.Pick(2), 1 + schedule.Pick(16),
          net::MakeEthernetFrame(net::Mac(0, 0, 0, 0, 0x20, h),
                                 net::Mac(0, 0, 0, 0, 0x20,
                                          static_cast<uint8_t>(h + 1)),
                                 0x0800, {0xCA, 0xFE}));
    }
    if (schedule.Flip(0.15)) {
      (void)pair.Checkpoint();
      (void)pair.SyncStandby();
    }

    // The replication seam.
    chaos::LeaseFault fault = chaos::DrawLeaseFault(schedule, lease_policy);
    lease_tally.Count(fault);
    switch (fault) {
      case chaos::LeaseFault::kNone:
        now += kTtl / 4;
        pair.Tick();  // routine renewal
        break;
      case chaos::LeaseFault::kLeaseLoss:
        // Leader silently stops renewing; the TTL runs out and the next
        // tick fails its renewal (demote) while the standby acquires.
        now += 2 * kTtl;
        pair.Tick();
        break;
      case chaos::LeaseFault::kClockSkew:
        // The shared clock jumps mid-lease; both replicas see expiry at
        // once and race to (re)acquire through the CAS.
        now += kTtl + static_cast<int64_t>(schedule.Pick(3 * kTtl));
        pair.Tick();
        break;
      case chaos::LeaseFault::kZombieLeader: {
        int zombie = pair.leader();
        if (zombie < 0) {
          now += kTtl / 4;
          pair.Tick();
          break;
        }
        // The standby promotes while the old leader never learns it lost
        // the lease; the next commit makes the zombie write with a stale
        // epoch — every switch must fence it out, and it self-demotes.
        now += 2 * kTtl;
        pair.coordinator(static_cast<size_t>(1 - zombie)).Tick();
        uint64_t stale_before = pair.device(0).stale_writes() +
                                pair.device(1).stale_writes();
        std::string name = StrFormat("hp%d", next_port);
        (void)pair.AddPort(name, next_port, "access", 10);
        ports.push_back(name);
        ++next_port;
        EXPECT_GT(pair.device(0).stale_writes() +
                      pair.device(1).stale_writes(),
                  stale_before)
            << "seed " << seed << ": zombie write was not fenced";
        EXPECT_EQ(pair.controller(static_cast<size_t>(zombie)).role(),
                  Role::kFollower)
            << "seed " << seed << ": zombie did not self-demote";
        pair.Tick();  // settle
        break;
      }
    }
  }

  // Quiescence: heal the data plane, make sure someone leads, and let the
  // leader re-establish ground truth on every device (promotion-style
  // resync repairs anything retry exhaustion dropped mid-storm).
  for (size_t r = 0; r < snvs::SnvsHaPair::kReplicas; ++r) {
    for (size_t d = 0; d < pair.device_count(); ++d) {
      if (ha::FaultyRuntimeClient* faulty = pair.faulty(r, d)) {
        tally.device += faulty->fault_stats().injected_failures +
                        faulty->fault_stats().injected_stalls;
        ha::FaultPolicy healthy = faulty->policy();
        healthy.write_fail_probability = 0;
        faulty->set_policy(healthy);
      }
    }
  }
  int leader = pair.Tick();
  if (leader < 0) {
    now += 2 * kTtl;
    leader = pair.Tick();
  }
  ASSERT_GE(leader, 0) << "seed " << seed << ": no leader at quiescence";
  for (size_t d = 0; d < pair.device_count(); ++d) {
    ASSERT_TRUE(pair.controller(static_cast<size_t>(leader))
                    .ResyncDevice(StrFormat("sw%zu", d))
                    .ok());
  }
  // Converged fixpoint: a second resync applies zero writes.
  Controller::Stats before =
      pair.controller(static_cast<size_t>(leader)).stats();
  for (size_t d = 0; d < pair.device_count(); ++d) {
    ASSERT_TRUE(pair.controller(static_cast<size_t>(leader))
                    .ResyncDevice(StrFormat("sw%zu", d))
                    .ok());
  }
  Controller::Stats after =
      pair.controller(static_cast<size_t>(leader)).stats();
  EXPECT_EQ(after.resync_inserted, before.resync_inserted);
  EXPECT_EQ(after.resync_deleted, before.resync_deleted);
  EXPECT_EQ(after.resync_modified, before.resync_modified);

  // Persist everything (engine sidecar carries the learned MACs), capture
  // the survivors, and rebuild a clean pair off the same directory: the
  // management plane and every switch must come back byte-identical.
  ASSERT_TRUE(pair.Checkpoint().ok());
  uint64_t final_epoch =
      static_cast<uint64_t>(pair.lease(static_cast<size_t>(leader)).epoch());
  EXPECT_GE(final_epoch, 1u + lease_tally.total())
      << "every lease fault should have bumped the epoch";
  Json db_state = ha::DurableStore::SnapshotJson(pair.db());
  std::vector<std::string> device_states;
  for (size_t d = 0; d < pair.device_count(); ++d) {
    device_states.push_back(DeviceState(pair.device(d)));
  }
  built->reset();

  snvs::SnvsHaOptions clean;
  clean.devices = 2;
  clean.ha_dir = dir;
  clean.lease_ttl_nanos = kTtl;
  clean.clock = [&now] { return now; };
  auto reference = snvs::BuildSnvsHaPair(clean);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  // Management plane first — before any Tick, whose lease renewal would
  // legitimately rewrite the Leader_Lease row.
  EXPECT_EQ(ha::DurableStore::SnapshotJson((*reference)->db()), db_state)
      << "seed " << seed << ": management plane diverged";
  ASSERT_GE((*reference)->Tick(), 0);  // elect: promotion installs devices
  for (size_t d = 0; d < device_states.size(); ++d) {
    EXPECT_EQ(DeviceState((*reference)->device(d)), device_states[d])
        << "seed " << seed << ": device " << d << " diverged";
  }
}

// The three fixed seeds the CI chaos-soak job pins (scripts/ci.sh).  Each
// seed must inject at least 50 faults spanning all four seams (device,
// transport, durability, replication) and still converge byte-identically.
// The nightly long-soak job extends the matrix through
// NERPA_SOAK_EXTRA_SEEDS, a comma-separated list appended to the pinned
// three — same storms, more dice rolls.
constexpr uint64_t kSoakSeeds[] = {11, 23, 42};

std::vector<uint64_t> SoakSeeds() {
  std::vector<uint64_t> seeds(std::begin(kSoakSeeds), std::end(kSoakSeeds));
  if (const char* extra = std::getenv("NERPA_SOAK_EXTRA_SEEDS")) {
    for (const std::string& token : Split(extra, ',')) {
      if (!token.empty()) {
        seeds.push_back(std::strtoull(token.c_str(), nullptr, 10));
      }
    }
  }
  return seeds;
}

TEST(ChaosSoak, SeededFaultStormsConvergeAcrossAllThreePlanes) {
  for (uint64_t seed : SoakSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FaultTally tally;
    SnvsSoak(seed, tally);
    TransportSoak(seed, tally);
    EXPECT_GT(tally.fs, 0u) << "no filesystem faults fired";
    EXPECT_GT(tally.device, 0u) << "no device faults fired";
    EXPECT_GT(tally.transport, 0u) << "no transport faults fired";
    EXPECT_GE(tally.total(), 50u) << "fault storm too weak to mean anything";
  }
}

TEST(ChaosSoak, SeededLeaseStormsConvergeWithFencedFailovers) {
  for (uint64_t seed : SoakSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    FaultTally tally;
    chaos::LeaseFaultTally lease_tally;
    FailoverSoak(seed, tally, lease_tally);
    EXPECT_GT(tally.device, 0u) << "no device faults fired";
    EXPECT_GT(lease_tally.lease_loss, 0u) << "no lease losses fired";
    EXPECT_GT(lease_tally.zombie, 0u) << "no zombie leaders fired";
    EXPECT_GE(lease_tally.total() + tally.device, 50u)
        << "replication fault storm too weak to mean anything";
  }
}

// --- overload half: stall faults against a bounded commit dispatch -----
//
// Stall-mode device faults (slow, not broken) against a commit deadline
// small enough that a stalled write blows the dispatch budget.  Expired
// dispatches must *park* their remaining ops in the per-device outbox —
// never drop them, never apply them twice — and anti-entropy must drain
// every parked op once the devices heal.  Runs under TSan in CI: the
// deadline parks race worker-pool dispatch against the stats lock.
TEST(ChaosSoak, CommitDeadlineParksOpsThatAntiEntropyDrains) {
  for (uint64_t seed : SoakSeeds()) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    chaos::ChaosSchedule schedule(seed ^ 0xa0761d6478bd642full);

    snvs::SnvsOptions options;
    options.devices = 2;
    options.fault.write_fail_probability = 0.45;
    options.fault.stall_nanos = 150'000;  // slow device, not a broken one
    options.fault.seed = schedule.Fork();
    options.retry.max_attempts = 1;  // stalls succeed; retries are moot
    options.commit_deadline_nanos = 100'000;  // one stall eats the budget
    // Breakers on so a write that *fails* (e.g. a delete racing an
    // earlier parked insert) parks instead of failing the delta — but
    // with a trip point the storm never reaches, so every parked op
    // drains through the closed-breaker outbox-repair arm.
    options.breaker.enabled = true;
    options.breaker.strike_threshold = 1000;
    auto built = snvs::BuildSnvsStack(options);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    snvs::SnvsStack& stack = **built;

    // Names/ports never reused, so every surviving op is distinguishable
    // and a double-apply would surface as a duplicate entry at resync.
    // Op statuses are deliberately ignored: a sub-threshold write failure
    // parks the delta's remaining ops *and* surfaces the error (sticky in
    // last_error()), so mid-storm statuses tell us nothing — the
    // resync-fixpoint check below is the real drop/double-apply oracle.
    std::vector<std::string> ports;
    int next_port = 1, next_acl = 0;
    constexpr int kOps = 80;
    for (int op = 0; op < kOps; ++op) {
      uint64_t roll = schedule.Pick(100);
      if (roll < 60 || ports.empty()) {
        std::string name = StrFormat("dp%d", next_port);
        int64_t vlan = 10 + 10 * static_cast<int64_t>(schedule.Pick(4));
        (void)stack.AddPort(name, next_port, "access", vlan);
        ports.push_back(name);
        ++next_port;
      } else if (roll < 80) {
        size_t victim = schedule.Pick(ports.size());
        (void)stack.DeletePort(ports[victim]);
        ports.erase(ports.begin() + static_cast<ptrdiff_t>(victim));
      } else {
        (void)stack.AddAclRule(0x3000 + next_acl++,
                               10 + 10 * static_cast<int64_t>(schedule.Pick(4)),
                               schedule.Flip(0.5));
      }
    }

    Controller::Stats mid = stack.controller().stats();
    EXPECT_GT(mid.deadline_parks, 0u)
        << "seed " << seed << ": storm never expired a commit deadline";

    // Heal the devices, then drain: every parked op must reach its device
    // through outbox repair within a bounded number of passes.
    for (size_t d = 0; d < stack.device_count(); ++d) {
      if (ha::FaultyRuntimeClient* faulty = stack.faulty(d)) {
        ha::FaultPolicy healthy = faulty->policy();
        healthy.write_fail_probability = 0;
        faulty->set_policy(healthy);
      }
    }
    for (int pass = 0; pass < 4; ++pass) {
      ASSERT_TRUE(stack.controller().RunAntiEntropy().ok());
    }
    Controller::Stats drained = stack.controller().stats();
    for (const auto& [device, size] : drained.outbox_sizes) {
      EXPECT_EQ(size, 0u) << "seed " << seed << ": " << device
                          << " still holds parked ops";
    }
    EXPECT_GT(drained.outbox_repairs, 0u)
        << "seed " << seed << ": parked ops drained by something other "
           "than outbox repair";

    // No op dropped, none double-applied: with every outbox empty a full
    // reconciliation against the engine's desired state must be a no-op
    // on every device.
    Controller::Stats before = stack.controller().stats();
    for (size_t d = 0; d < stack.device_count(); ++d) {
      ASSERT_TRUE(
          stack.controller().ResyncDevice(StrFormat("sw%zu", d)).ok());
    }
    Controller::Stats after = stack.controller().stats();
    EXPECT_EQ(after.resync_inserted, before.resync_inserted)
        << "seed " << seed << ": an op was dropped (resync re-inserted it)";
    EXPECT_EQ(after.resync_deleted, before.resync_deleted)
        << "seed " << seed
        << ": an op was double-applied (resync had to delete)";
    EXPECT_EQ(after.resync_modified, before.resync_modified);
  }
}

// Determinism of the harness itself: the same seed must produce the same
// fault counts (and therefore the same storm) run to run.
TEST(ChaosSoak, ScheduleIsDeterministic) {
  chaos::ChaosSchedule a(7), b(7);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.Flip(0.3), b.Flip(0.3));
    ASSERT_EQ(a.Pick(97), b.Pick(97));
  }
  ASSERT_EQ(a.Fork(), b.Fork());
}

}  // namespace
}  // namespace nerpa
