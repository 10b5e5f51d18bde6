// End-to-end crash/recovery tests: kill a full snvs stack, rebuild it from
// the durable state directory, and verify that (a) the management plane
// comes back bit-identical, (b) resynchronization issues zero data-plane
// writes when the devices still hold the right entries and exactly the
// diff when they do not, and (c) the controller converges through injected
// write faults via retry/backoff.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "ha/durable.h"
#include "ha/lease.h"
#include "net/packet.h"
#include "ovsdb/database.h"
#include "snvs/ha_pair.h"
#include "snvs/snvs.h"

namespace nerpa::snvs {
namespace {

using net::Mac;

constexpr const char* kTables[] = {"InVlanUntagged", "InVlanTagged",
                                   "PortMirror",     "Acl",
                                   "SMac",           "Dmac",
                                   "FloodVlan",      "OutVlan"};

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/nerpa_ha_restart_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Canonical dump of one device's entire data-plane state (all tables plus
/// multicast groups) for cross-run equality checks.
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

size_t TotalEntries(const p4::Switch& sw) {
  size_t n = 0;
  for (const char* table : kTables) n += sw.GetTable(table)->size();
  return n;
}

/// A data plane that outlives the controller stack, simulating switches
/// that keep their tables across a controller crash.
struct SurvivingDevice {
  explicit SurvivingDevice(std::shared_ptr<const p4::P4Program> program)
      : sw(std::make_unique<p4::Switch>(std::move(program))),
        client(std::make_unique<p4::RuntimeClient>(sw.get())) {}
  std::unique_ptr<p4::Switch> sw;
  std::unique_ptr<p4::RuntimeClient> client;
};

TEST(HaRestart, KillAndRestoreIsConvergedWithZeroWrites) {
  std::string dir = FreshDir("converged");
  SurvivingDevice device(SnvsP4Program());

  Json db_before;
  {
    SnvsOptions options;
    options.ha_dir = dir;
    options.external_clients = {device.client.get()};
    auto stack = BuildSnvsStack(options);
    ASSERT_TRUE(stack.ok()) << stack.status().ToString();
    EXPECT_FALSE((*stack)->store()->recovered());
    ASSERT_TRUE((*stack)->AddPort("p1", 1, "access", 10).ok());
    ASSERT_TRUE((*stack)->AddPort("p2", 2, "access", 10).ok());
    ASSERT_TRUE((*stack)->AddPort("t1", 3, "trunk", 0, {10, 20}).ok());
    ASSERT_TRUE((*stack)->AddAclRule(0xAA, 10, false).ok());
    db_before = ha::DurableStore::SnapshotJson((*stack)->db());
    EXPECT_GT(TotalEntries(*device.sw), 0u);
  }  // crash: stack destroyed, no checkpoint; device keeps its tables

  std::string device_before = DeviceState(*device.sw);
  uint64_t writes_before = device.client->write_count();

  SnvsOptions options;
  options.ha_dir = dir;
  options.external_clients = {device.client.get()};
  auto stack = BuildSnvsStack(options);
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  EXPECT_TRUE((*stack)->store()->recovered());

  // Management plane restored bit-identically (same rows, same uuids).
  EXPECT_EQ(ha::DurableStore::SnapshotJson((*stack)->db()), db_before);
  // The device already held the desired state: resync read it, diffed, and
  // wrote nothing.
  EXPECT_EQ(device.client->write_count(), writes_before);
  EXPECT_EQ(DeviceState(*device.sw), device_before);
  const auto& stats = (*stack)->controller().stats();
  EXPECT_EQ(stats.resyncs, 1u);
  EXPECT_GT(stats.resync_reads, 0u);
  EXPECT_EQ(stats.resync_inserted, 0u);
  EXPECT_EQ(stats.resync_deleted, 0u);
  EXPECT_EQ(stats.resync_modified, 0u);

  // The restored stack is live: new transactions flow to the device.
  ASSERT_TRUE((*stack)->AddPort("p4", 4, "access", 20).ok());
  EXPECT_GT(device.client->write_count(), writes_before);
}

TEST(HaRestart, ResyncRestoresWipedDeviceAndSparesSurvivor) {
  std::string dir = FreshDir("wiped");
  auto program = SnvsP4Program();
  SurvivingDevice survivor(program);
  SurvivingDevice wiped(program);

  {
    SnvsOptions options;
    options.ha_dir = dir;
    options.external_clients = {survivor.client.get(), wiped.client.get()};
    auto stack = BuildSnvsStack(options);
    ASSERT_TRUE(stack.ok()) << stack.status().ToString();
    ASSERT_TRUE((*stack)->AddPort("p1", 1, "access", 10).ok());
    ASSERT_TRUE((*stack)->AddPort("p2", 2, "access", 10).ok());
    ASSERT_TRUE((*stack)->AddAclRule(0xBB, 10, true).ok());
  }

  std::string reference = DeviceState(*survivor.sw);
  size_t reference_entries = TotalEntries(*survivor.sw);
  size_t reference_groups = survivor.sw->multicast_groups().size();
  ASSERT_GT(reference_entries, 0u);

  // The second device reboots and comes back empty.
  wiped = SurvivingDevice(program);
  uint64_t survivor_writes = survivor.client->write_count();

  SnvsOptions options;
  options.ha_dir = dir;
  options.external_clients = {survivor.client.get(), wiped.client.get()};
  auto stack = BuildSnvsStack(options);
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();

  // Survivor untouched; the wiped device received exactly the full state.
  EXPECT_EQ(survivor.client->write_count(), survivor_writes);
  EXPECT_EQ(DeviceState(*wiped.sw), reference);
  EXPECT_EQ(wiped.client->write_count(),
            reference_entries + reference_groups);
  const auto& stats = (*stack)->controller().stats();
  EXPECT_EQ(stats.resyncs, 2u);
  EXPECT_EQ(stats.resync_inserted, reference_entries + reference_groups);
  EXPECT_EQ(stats.resync_deleted, 0u);
  EXPECT_EQ(stats.resync_modified, 0u);
}

TEST(HaRestart, ResyncRepairsStaleExtraAndModifiedEntries) {
  std::string dir = FreshDir("stale");
  SurvivingDevice device(SnvsP4Program());

  {
    SnvsOptions options;
    options.ha_dir = dir;
    options.external_clients = {device.client.get()};
    auto stack = BuildSnvsStack(options);
    ASSERT_TRUE(stack.ok()) << stack.status().ToString();
    ASSERT_TRUE((*stack)->AddPort("p1", 1, "access", 10).ok());
    ASSERT_TRUE((*stack)->AddAclRule(0xCC, 10, true).ok());
  }
  std::string reference = DeviceState(*device.sw);

  // While the controller is down the device diverges three ways:
  // 1. a desired entry disappears (stale device lost it),
  auto flood = device.client->ReadTable("FloodVlan");
  ASSERT_TRUE(flood.ok());
  ASSERT_EQ(flood->size(), 1u);
  ASSERT_TRUE(device.client->Delete((*flood)[0]).ok());
  // 2. an extra entry appears that no output relation derives,
  p4::TableEntry extra;
  extra.table = "Acl";
  extra.match = {p4::MatchField::Exact(99), p4::MatchField::Exact(0xDD)};
  extra.action = "AclDrop";
  ASSERT_TRUE(device.client->Insert(extra).ok());
  // 3. a desired entry's action is flipped.
  auto acl = device.client->ReadTable("Acl");
  ASSERT_TRUE(acl.ok());
  for (p4::TableEntry entry : *acl) {
    if (entry.match[1].value == 0xCC) {
      entry.action = "AclDrop";
      entry.action_args.clear();
      ASSERT_TRUE(device.client->Modify(entry).ok());
    }
  }

  SnvsOptions options;
  options.ha_dir = dir;
  options.external_clients = {device.client.get()};
  auto stack = BuildSnvsStack(options);
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();

  // Exactly the three divergences were repaired, nothing else written.
  const auto& stats = (*stack)->controller().stats();
  EXPECT_EQ(stats.resync_inserted, 1u);  // FloodVlan restored
  EXPECT_EQ(stats.resync_deleted, 1u);   // bogus Acl entry removed
  EXPECT_EQ(stats.resync_modified, 1u);  // Acl action repaired
  EXPECT_EQ(DeviceState(*device.sw), reference);
}

TEST(HaRestart, DeviceRegisteredAfterStartIsResynced) {
  auto program = SnvsP4Program();
  auto stack = BuildSnvsStack().value();
  // Start() reconciled the stack's one device.
  EXPECT_EQ(stack->controller().stats().resyncs, 1u);
  ASSERT_TRUE(stack->AddPort("p1", 1, "access", 10).ok());
  ASSERT_TRUE(stack->AddPort("p2", 2, "access", 10).ok());
  size_t reference_entries = TotalEntries(stack->device());
  ASSERT_GT(reference_entries, 0u);

  // A second switch joins long after Start(): it is brought up to the full
  // desired state immediately.
  SurvivingDevice late(program);
  uint64_t resyncs = stack->controller().stats().resyncs;
  ASSERT_TRUE(
      stack->controller().AddDevice("late", late.client.get()).ok());
  EXPECT_EQ(DeviceState(*late.sw), DeviceState(stack->device()));
  EXPECT_EQ(stack->controller().stats().resyncs, resyncs + 1);

  // And it tracks subsequent updates like any other device.
  ASSERT_TRUE(stack->AddPort("p3", 3, "access", 10).ok());
  EXPECT_EQ(DeviceState(*late.sw), DeviceState(stack->device()));
}

/// A frame from host `src` to host 0xEE (never learned, so it floods).
net::Packet FrameFrom(uint8_t src) {
  return net::MakeEthernetFrame(Mac(0, 0, 0, 0, 0, 0xEE),
                                Mac(0, 0, 0, 0, 0, src), 0x0800, {1, 2, 3});
}

/// The port Dmac forwards host `mac` to on VLAN 10, or 0 if unlearned.
uint64_t LearnedPort(const p4::Switch& sw, uint64_t mac) {
  const p4::TableEntry* entry = sw.GetTable("Dmac")->Lookup({10, mac});
  return entry == nullptr ? 0 : entry->action_args.at(0);
}

/// Builds a durable stack in `dir`; a fresh one gets access ports 1-3 on
/// VLAN 10, a recovered one has them.
std::unique_ptr<SnvsStack> PortsStack(const std::string& dir) {
  SnvsOptions options;
  options.ha_dir = dir;
  auto stack = BuildSnvsStack(options);
  EXPECT_TRUE(stack.ok()) << stack.status().ToString();
  if (!stack.ok()) return nullptr;
  if (!(*stack)->store()->recovered()) {
    for (int64_t port = 1; port <= 3; ++port) {
      EXPECT_TRUE(
          (*stack)->AddPort("p" + std::to_string(port), port, "access", 10)
              .ok());
    }
  }
  return std::move(stack).value();
}

/// Moves host 0xAA to port 3 and checks that the stack learned the move:
/// one MacLearn row for it, and traffic to it leaves on port 3 only.
void ExpectMoveToPort3Forwarded(SnvsStack& stack) {
  ASSERT_TRUE(stack.InjectPacket(0, 3, FrameFrom(0xAA)).ok());
  ASSERT_TRUE(stack.controller().last_error().ok());
  EXPECT_EQ(LearnedPort(stack.device(), 0xAA), 3u);
  auto learned = stack.controller().engine().Dump("MacLearn");
  ASSERT_TRUE(learned.ok()) << learned.status().ToString();
  size_t rows = 0;
  for (const dlog::Row& row : *learned) rows += row[2].as_bit() == 0xAA;
  EXPECT_EQ(rows, 1u);
  auto out = stack.InjectPacket(
      0, 2,
      net::MakeEthernetFrame(Mac(0, 0, 0, 0, 0, 0xAA),
                             Mac(0, 0, 0, 0, 0, 0xBB), 0x0800, {1, 2, 3}));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].port, 3u);
}

TEST(HaRestart, HostMoveIsForwardedAfterRestart) {
  std::string dir = FreshDir("host_move");
  {
    auto stack = PortsStack(dir);
    ASSERT_NE(stack, nullptr);
    ASSERT_TRUE(stack->InjectPacket(0, 1, FrameFrom(0xAA)).ok());
    ASSERT_EQ(LearnedPort(stack->device(), 0xAA), 1u);
    ASSERT_TRUE(stack->Checkpoint().ok());
  }
  auto stack = PortsStack(dir);
  ASSERT_NE(stack, nullptr);
  EXPECT_EQ(stack->controller().stats().engine_restores, 1u);
  EXPECT_EQ(LearnedPort(stack->device(), 0xAA), 1u);
  ExpectMoveToPort3Forwarded(*stack);
}

TEST(HaRestart, HostMoveIsForwardedAfterRestartFromAnOlderSidecar) {
  std::string dir = FreshDir("host_move_old_sidecar");
  {
    auto stack = PortsStack(dir);
    ASSERT_NE(stack, nullptr);
    ASSERT_TRUE(stack->InjectPacket(0, 1, FrameFrom(0xAA)).ok());
    ASSERT_TRUE(stack->Checkpoint().ok());
    ASSERT_TRUE(stack->InjectPacket(0, 2, FrameFrom(0xCC)).ok());
    // A snapshot alone: the crash window between the snapshot and the
    // sidecar write leaves a newer snapshot beside the older sidecar.
    ASSERT_TRUE(stack->store()->Checkpoint().ok());
  }
  auto stack = PortsStack(dir);
  ASSERT_NE(stack, nullptr);
  EXPECT_EQ(stack->controller().stats().engine_restores, 1u);
  // The sidecar holds AA's learn but not CC's.
  EXPECT_EQ(LearnedPort(stack->device(), 0xAA), 1u);
  EXPECT_EQ(LearnedPort(stack->device(), 0xCC), 0u);
  ExpectMoveToPort3Forwarded(*stack);
}

TEST(HaRestart, CorruptSnapshotFallsBackToPreviousGeneration) {
  std::string dir = FreshDir("snap_fallback");
  Json db_before;
  {
    SnvsOptions options;
    options.ha_dir = dir;
    auto stack = BuildSnvsStack(options);
    ASSERT_TRUE(stack.ok()) << stack.status().ToString();
    ASSERT_TRUE((*stack)->AddPort("p1", 1, "access", 10).ok());
    ASSERT_TRUE((*stack)->Checkpoint().ok());
    ASSERT_TRUE((*stack)->AddPort("p2", 2, "access", 10).ok());
    ASSERT_TRUE((*stack)->Checkpoint().ok());
    // Live WAL records on top of the (about to be corrupted) snapshot.
    ASSERT_TRUE((*stack)->AddPort("p3", 3, "access", 20).ok());
    db_before = ha::DurableStore::SnapshotJson((*stack)->db());
  }

  // Bit rot inside the current snapshot: still valid JSON, wrong CRC.
  {
    std::string path = dir + "/snapshot.json";
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    size_t pos = text.find("access");
    ASSERT_NE(pos, std::string::npos);
    text[pos] = 'b';
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }

  // Recovery detects the mismatch and rebuilds from the previous
  // generation: snapshot.json.1 + wal.jsonl.1 + wal.jsonl reconstruct the
  // exact same management plane, p3 included.
  SnvsOptions options;
  options.ha_dir = dir;
  auto stack = BuildSnvsStack(options);
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  EXPECT_TRUE((*stack)->store()->recovered());
  EXPECT_EQ((*stack)->store()->stats().snapshot_fallbacks, 1u);
  EXPECT_EQ(ha::DurableStore::SnapshotJson((*stack)->db()), db_before);
}

TEST(HaRestart, TornFramedWalTailIsDroppedOnRestart) {
  std::string dir = FreshDir("torn_framed");
  Json db_before;
  {
    SnvsOptions options;
    options.ha_dir = dir;
    auto stack = BuildSnvsStack(options);
    ASSERT_TRUE(stack.ok()) << stack.status().ToString();
    ASSERT_TRUE((*stack)->AddPort("p1", 1, "access", 10).ok());
    db_before = ha::DurableStore::SnapshotJson((*stack)->db());
  }
  // Crash mid-append: a framed record whose tail never hit the disk.  The
  // stored CRC covers the full record, so the prefix cannot pass.
  {
    std::string full = ha::WriteAheadLog::FrameRecord(
        Json(Json::Object{{"never", Json(true)}}));
    std::ofstream out(dir + "/wal.jsonl", std::ios::app);
    out << full.substr(0, full.size() / 2);
  }
  SnvsOptions options;
  options.ha_dir = dir;
  auto stack = BuildSnvsStack(options);
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  EXPECT_EQ((*stack)->store()->stats().truncated_tail_records, 1u);
  EXPECT_EQ(ha::DurableStore::SnapshotJson((*stack)->db()), db_before);
}

TEST(HaRestart, ControllerConvergesThroughInjectedWriteFaults) {
  // Reference run: no faults.
  auto reference = BuildSnvsStack().value();
  // Faulty run: every fifth write (in expectation) fails; the controller
  // retries with backoff kept tiny so the test is fast.
  SnvsOptions options;
  options.fault.write_fail_probability = 0.2;
  options.fault.seed = 12345;
  options.retry.max_attempts = 8;
  options.retry.backoff.initial_nanos = 1000;  // 1 us
  options.retry.backoff.max_nanos = 10000;
  auto faulty = BuildSnvsStack(options);
  ASSERT_TRUE(faulty.ok()) << faulty.status().ToString();

  for (SnvsStack* stack : {reference.get(), faulty->get()}) {
    ASSERT_TRUE(stack->AddPort("p1", 1, "access", 10).ok());
    ASSERT_TRUE(stack->AddPort("p2", 2, "access", 10).ok());
    ASSERT_TRUE(stack->AddPort("t1", 3, "trunk", 0, {10, 20}).ok());
    ASSERT_TRUE(stack->AddAclRule(0xAA, 10, false).ok());
    ASSERT_TRUE(stack->AddMirror("m1", 1, 3).ok());
    ASSERT_TRUE(stack->DeletePort("p2").ok());
    ASSERT_TRUE(stack->controller().last_error().ok());
  }

  // Same data-plane state despite the injected failures.
  EXPECT_EQ(DeviceState((*faulty)->device()), DeviceState(reference->device()));

  // The faults actually fired and the retry machinery is visible in stats.
  ASSERT_NE((*faulty)->faulty(0), nullptr);
  EXPECT_GT((*faulty)->faulty(0)->fault_stats().injected_failures, 0u);
  const auto& stats = (*faulty)->controller().stats();
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(stats.write_failures, 0u);  // nothing exhausted its attempts
  ASSERT_TRUE(stats.device_failures.count("sw0"));
  EXPECT_EQ(stats.device_failures.at("sw0"),
            (*faulty)->faulty(0)->fault_stats().injected_failures);
}

TEST(HaRestart, WarmStartRestoresEngineAndPreservesLearnedMacs) {
  std::string dir = FreshDir("warm_start");
  SurvivingDevice device(SnvsP4Program());

  std::string device_before;
  int64_t macs_before = 0;
  {
    SnvsOptions options;
    options.ha_dir = dir;
    options.external_clients = {device.client.get()};
    auto stack = BuildSnvsStack(options);
    ASSERT_TRUE(stack.ok()) << stack.status().ToString();
    ASSERT_TRUE((*stack)->AddPort("p1", 1, "access", 10).ok());
    ASSERT_TRUE((*stack)->AddPort("p2", 2, "access", 10).ok());
    ASSERT_TRUE((*stack)->AddPort("t1", 3, "trunk", 0, {10, 20}).ok());
    // Learned MACs live only in the engine (digest-fed, not in the durable
    // management plane): exactly the state only a checkpoint can carry
    // across a restart.
    auto out = device.sw->ProcessPacket(p4::PacketIn{
        1, net::MakeEthernetFrame(Mac(0, 0, 0, 0, 0, 0xBB),
                                  Mac(0, 0, 0, 0, 0, 0xAA), 0x0800,
                                  {1, 2, 3})});
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    out = device.sw->ProcessPacket(p4::PacketIn{
        2, net::MakeEthernetFrame(Mac(0, 0, 0, 0, 0, 0xAA),
                                  Mac(0, 0, 0, 0, 0, 0xBB), 0x0800,
                                  {1, 2, 3})});
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ASSERT_TRUE((*stack)->controller().SyncDataPlaneNotifications().ok());
    macs_before =
        static_cast<int64_t>((*stack)->controller().engine().Size("MacLearn"));
    ASSERT_GT(macs_before, 0);
    ASSERT_TRUE((*stack)->Checkpoint().ok());
    // Mutations after the checkpoint: the warm start has to reconcile the
    // stale sidecar against the (newer) recovered management plane.
    ASSERT_TRUE((*stack)->AddPort("p4", 4, "access", 20).ok());
    ASSERT_TRUE((*stack)->DeletePort("p2").ok());
    device_before = DeviceState(*device.sw);
  }  // crash; the device keeps its tables, the sidecar is one txn stale

  uint64_t writes_before = device.client->write_count();
  SnvsOptions options;
  options.ha_dir = dir;
  options.external_clients = {device.client.get()};
  auto stack = BuildSnvsStack(options);
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  EXPECT_TRUE((*stack)->store()->recovered());

  const auto& stats = (*stack)->controller().stats();
  EXPECT_EQ(stats.engine_restores, 1u);
  EXPECT_EQ(stats.engine_restore_rejections, 0u);
  // p2 was deleted after the checkpoint: catch-up reconciliation removed
  // its restored row.  (p4's insert arrives through the normal monitor
  // snapshot; set semantics make re-inserts of restored rows no-ops.)
  EXPECT_GE(stats.catchup_deletes, 1u);
  // The learned MACs survived the restart without any re-learning traffic.
  EXPECT_EQ((*stack)->controller().engine().Size("MacLearn"),
            static_cast<size_t>(macs_before));
  // The restored desired state matches the surviving device exactly —
  // including the Dmac entries a cold start would have torn down — so the
  // resync wrote nothing.
  EXPECT_EQ(device.client->write_count(), writes_before);
  EXPECT_EQ(DeviceState(*device.sw), device_before);

  // Still live after a warm start.
  ASSERT_TRUE((*stack)->AddPort("p5", 5, "access", 20).ok());
  EXPECT_GT(device.client->write_count(), writes_before);
}

TEST(HaRestart, CorruptEngineCheckpointFallsBackToColdStart) {
  std::string dir = FreshDir("ckpt_fallback");
  Json db_before;
  {
    SnvsOptions options;
    options.ha_dir = dir;
    auto stack = BuildSnvsStack(options);
    ASSERT_TRUE(stack.ok()) << stack.status().ToString();
    ASSERT_TRUE((*stack)->AddPort("p1", 1, "access", 10).ok());
    ASSERT_TRUE((*stack)->AddPort("t1", 3, "trunk", 0, {10, 20}).ok());
    ASSERT_TRUE((*stack)->Checkpoint().ok());
    db_before = ha::DurableStore::SnapshotJson((*stack)->db());
  }

  // Bit rot inside the sidecar blob: the CRC32 frame check must reject it.
  {
    std::string path = dir + "/engine.controller.ckpt";
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    ASSERT_GT(bytes.size(), 24u);
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 1);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  // The checkpoint is an accelerator, never a correctness dependency:
  // recovery rejects the damaged sidecar, cold-starts the engine, and the
  // stack comes up fully converged anyway.
  SnvsOptions options;
  options.ha_dir = dir;
  auto stack = BuildSnvsStack(options);
  ASSERT_TRUE(stack.ok()) << stack.status().ToString();
  EXPECT_TRUE((*stack)->store()->recovered());
  auto rejected = (*stack)->store()->ReadEngineCheckpoint("controller");
  EXPECT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInternal);
  const auto& stats = (*stack)->controller().stats();
  EXPECT_EQ(stats.engine_restores, 0u);
  EXPECT_EQ(ha::DurableStore::SnapshotJson((*stack)->db()), db_before);
  // Cold start recomputed the full desired state and programmed it.
  EXPECT_GT(TotalEntries((*stack)->device()), 0u);
  ASSERT_TRUE((*stack)->AddPort("p2", 2, "access", 10).ok());
  ASSERT_TRUE((*stack)->controller().last_error().ok());
}

// --- Hot-standby failover (SnvsHaPair): leases, fencing, warm handoff ---

TEST(HaFailover, DoubleFailoverConvergesWithWarmCheckpoints) {
  int64_t now = 1;
  constexpr int64_t kTtl = 1000;
  SnvsHaOptions options;
  options.devices = 2;
  options.lease_ttl_nanos = kTtl;
  options.clock = [&now] { return now; };
  auto built = BuildSnvsHaPair(options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  SnvsHaPair& pair = **built;

  ASSERT_EQ(pair.Tick(), 0);  // replica 0 ticks first and wins the election
  EXPECT_EQ(pair.controller(0).role(), Role::kLeader);
  EXPECT_EQ(pair.controller(1).role(), Role::kFollower);
  EXPECT_EQ(pair.lease(0).epoch(), 1);

  ASSERT_TRUE(pair.AddPort("p1", 1, "access", 10).ok());
  ASSERT_TRUE(pair.AddPort("p2", 2, "access", 10).ok());
  ASSERT_TRUE(pair.AddPort("t1", 3, "trunk", 0, {10, 20}).ok());
  ASSERT_TRUE(pair.AddAclRule(0xAA, 10, true).ok());
  // Learned MACs: digest-fed soft state only the checkpoint handoff can
  // carry to the standby (followers never drain digests).
  auto out = pair.InjectPacket(
      0, 1,
      net::MakeEthernetFrame(Mac(0, 0, 0, 0, 0, 0xBB),
                             Mac(0, 0, 0, 0, 0, 0xAA), 0x0800, {1, 2, 3}));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  out = pair.InjectPacket(
      0, 2,
      net::MakeEthernetFrame(Mac(0, 0, 0, 0, 0, 0xAA),
                             Mac(0, 0, 0, 0, 0, 0xBB), 0x0800, {1, 2, 3}));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  size_t macs = pair.controller(0).engine().Size("MacLearn");
  ASSERT_GT(macs, 0u);
  ASSERT_TRUE(pair.Checkpoint().ok());
  ASSERT_TRUE(pair.SyncStandby().ok());
  std::string devices_before =
      DeviceState(pair.device(0)) + DeviceState(pair.device(1));

  // Failover #1: leader 0 stops renewing (crash); 1 fences and takes over.
  now += 2 * kTtl;
  ASSERT_EQ(pair.Tick(), 1);
  EXPECT_EQ(pair.controller(0).role(), Role::kFollower);
  EXPECT_EQ(pair.controller(1).role(), Role::kLeader);
  EXPECT_EQ(pair.lease(1).epoch(), 2);  // new holder bumps the fencing epoch
  EXPECT_EQ(pair.controller(0).stats().demotions, 1u);
  {
    const auto& stats = pair.controller(1).stats();
    EXPECT_EQ(stats.promotions, 1u);
    // The warm standby derived the identical desired state, so the
    // promotion resync read everything and wrote nothing.
    EXPECT_GT(stats.resync_reads, 0u);
    EXPECT_EQ(stats.resync_inserted, 0u);
    EXPECT_EQ(stats.resync_deleted, 0u);
    EXPECT_EQ(stats.resync_modified, 0u);
  }
  // The learned MACs crossed the failover via the checkpoint.
  EXPECT_EQ(pair.controller(1).engine().Size("MacLearn"), macs);
  EXPECT_EQ(DeviceState(pair.device(0)) + DeviceState(pair.device(1)),
            devices_before);

  // The new leader is live.
  ASSERT_TRUE(pair.AddPort("p4", 4, "access", 20).ok());

  // Failover #2: back to replica 0 the same way.
  ASSERT_TRUE(pair.Checkpoint().ok());
  ASSERT_TRUE(pair.SyncStandby().ok());
  size_t macs2 = pair.controller(1).engine().Size("MacLearn");
  devices_before = DeviceState(pair.device(0)) + DeviceState(pair.device(1));
  now += 2 * kTtl;
  ASSERT_EQ(pair.Tick(), 0);
  EXPECT_EQ(pair.controller(0).role(), Role::kLeader);
  EXPECT_EQ(pair.controller(1).role(), Role::kFollower);
  EXPECT_EQ(pair.lease(0).epoch(), 3);
  EXPECT_EQ(pair.controller(0).stats().promotions, 2u);
  EXPECT_EQ(pair.controller(1).stats().demotions, 1u);
  {
    const auto& stats = pair.controller(0).stats();
    EXPECT_EQ(stats.resync_inserted, 0u);
    EXPECT_EQ(stats.resync_deleted, 0u);
    EXPECT_EQ(stats.resync_modified, 0u);
  }
  EXPECT_EQ(pair.controller(0).engine().Size("MacLearn"), macs2);
  EXPECT_EQ(DeviceState(pair.device(0)) + DeviceState(pair.device(1)),
            devices_before);
  ASSERT_TRUE(pair.AddPort("p5", 5, "access", 10).ok());
  ASSERT_TRUE(pair.controller(0).last_error().ok());
}

TEST(HaFailover, HostMoveIsForwardedAfterPromotion) {
  int64_t now = 1;
  constexpr int64_t kTtl = 1000;
  SnvsHaOptions options;
  options.lease_ttl_nanos = kTtl;
  options.clock = [&now] { return now; };
  auto built = BuildSnvsHaPair(options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  SnvsHaPair& pair = **built;
  ASSERT_EQ(pair.Tick(), 0);
  for (int64_t port = 1; port <= 3; ++port) {
    ASSERT_TRUE(
        pair.AddPort("p" + std::to_string(port), port, "access", 10).ok());
  }
  ASSERT_TRUE(pair.InjectPacket(0, 1, FrameFrom(0xAA)).ok());
  ASSERT_TRUE(pair.Checkpoint().ok());
  ASSERT_TRUE(pair.SyncStandby().ok());

  now += 2 * kTtl;
  ASSERT_EQ(pair.Tick(), 1);
  EXPECT_EQ(LearnedPort(pair.device(0), 0xAA), 1u);
  // The new leader drains the move's digest; its learn replaces the row
  // the checkpoint carried over.
  ASSERT_TRUE(pair.InjectPacket(0, 3, FrameFrom(0xAA)).ok());
  ASSERT_TRUE(pair.controller(1).last_error().ok());
  EXPECT_EQ(LearnedPort(pair.device(0), 0xAA), 3u);
  EXPECT_EQ(pair.controller(1).engine().Size("MacLearn"), 1u);
  auto out = pair.InjectPacket(
      0, 2,
      net::MakeEthernetFrame(Mac(0, 0, 0, 0, 0, 0xAA),
                             Mac(0, 0, 0, 0, 0, 0xBB), 0x0800, {1, 2, 3}));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].port, 3u);
}

TEST(HaFailover, ZombieLeaderIsFencedAtTheSwitchAndSelfDemotes) {
  int64_t now = 1;
  constexpr int64_t kTtl = 1000;
  SnvsHaOptions options;
  options.devices = 2;
  options.lease_ttl_nanos = kTtl;
  options.clock = [&now] { return now; };
  auto built = BuildSnvsHaPair(options);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  SnvsHaPair& pair = **built;

  ASSERT_EQ(pair.Tick(), 0);
  ASSERT_TRUE(pair.AddPort("p1", 1, "access", 10).ok());
  ASSERT_TRUE(pair.AddPort("p2", 2, "access", 20).ok());
  ASSERT_TRUE(pair.Checkpoint().ok());
  ASSERT_TRUE(pair.SyncStandby().ok());

  // Partition the leader: its lease expires but only the standby's
  // coordinator runs (a GC pause / network partition from replica 0's
  // point of view — it still believes it leads).
  now += 2 * kTtl;
  ASSERT_TRUE(pair.coordinator(1).Tick());
  EXPECT_EQ(pair.controller(1).role(), Role::kLeader);
  EXPECT_EQ(pair.controller(0).role(), Role::kLeader);  // the zombie
  EXPECT_EQ(pair.leader(), 1);  // disambiguated by the higher lease epoch

  uint64_t stale_before =
      pair.device(0).stale_writes() + pair.device(1).stale_writes();
  Controller::Stats zombie_before = pair.controller(0).stats();
  uint64_t applied_before = zombie_before.entries_inserted +
                            zombie_before.entries_deleted +
                            zombie_before.multicast_updates;

  // The next management commit fans out to both controllers.  The zombie
  // races the real leader to the shared switches and must lose at every
  // one: its fence token predates the promotion arbitration.
  ASSERT_TRUE(pair.AddPort("z9", 9, "access", 20).ok());

  uint64_t stale_after =
      pair.device(0).stale_writes() + pair.device(1).stale_writes();
  EXPECT_GT(stale_after, stale_before);
  Controller::Stats zombie_after = pair.controller(0).stats();
  uint64_t applied_after = zombie_after.entries_inserted +
                           zombie_after.entries_deleted +
                           zombie_after.multicast_updates;
  // Write stats count only device-accepted writes: zero stale writes
  // reached the data plane.
  EXPECT_EQ(applied_after, applied_before);
  EXPECT_GE(zombie_after.fenced_writes_rejected, 1u);
  EXPECT_GE(zombie_after.demotions, 1u);
  // The first rejection told the zombie it was deposed: it self-demoted.
  EXPECT_EQ(pair.controller(0).role(), Role::kFollower);
  EXPECT_EQ(pair.leader(), 1);

  // The data plane holds exactly the desired state (no duplicates from the
  // race): a verification resync by the real leader finds zero diff.
  Controller::Stats leader_before = pair.controller(1).stats();
  ASSERT_TRUE(pair.controller(1).ResyncDevice("sw0").ok());
  ASSERT_TRUE(pair.controller(1).ResyncDevice("sw1").ok());
  Controller::Stats leader_after = pair.controller(1).stats();
  EXPECT_EQ(leader_after.resync_inserted, leader_before.resync_inserted);
  EXPECT_EQ(leader_after.resync_deleted, leader_before.resync_deleted);
  EXPECT_EQ(leader_after.resync_modified, leader_before.resync_modified);
}

TEST(HaLease, EpochStaysMonotoneAcrossCorruptAndDeletedRecords) {
  ovsdb::Database db(ovsdb::WithLeaderLease(SnvsSchema()));
  int64_t now = 1;
  auto clock = [&now] { return now; };
  ha::LeaseManager a(&db, {"a", 1000, clock});
  ha::LeaseManager b(&db, {"b", 1000, clock});

  auto held = a.TryAcquire();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(*held, 1);

  // A live lease blocks takeover.
  auto blocked = b.TryAcquire();
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kFailedPrecondition);

  // Natural expiry: the new holder acquires with a bumped epoch.
  now += 2000;
  held = b.TryAcquire();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(*held, 2);

  // `a` observes the new epoch through a failed acquire attempt.
  blocked = a.TryAcquire();
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(a.last_observed_epoch(), 2);

  // The record is corrupted in place — reset to epoch 0, expired.  The
  // monotone floor must keep the next acquisition above every epoch the
  // manager ever saw, or downstream fences would accept a recycled token.
  auto zeroed = db.TransactText(
      R"([{"op":"update","table":"Leader_Lease","where":[],)"
      R"("row":{"epoch":0,"holder":"","expiry_nanos":0}}])");
  ASSERT_TRUE(zeroed.ok()) << zeroed.status().ToString();
  held = a.TryAcquire();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(*held, 3);

  // Deleting the record entirely is no better: the floor survives the
  // record's death because it lives in the manager, not the row.
  now += 2000;
  auto wiped =
      db.TransactText(R"([{"op":"delete","table":"Leader_Lease","where":[]}])");
  ASSERT_TRUE(wiped.ok()) << wiped.status().ToString();
  held = a.TryAcquire();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  EXPECT_EQ(*held, 4);
  EXPECT_EQ(a.last_observed_epoch(), 4);
}

TEST(HaLease, AssertFenceRejectsStaleEpochTransactions) {
  ovsdb::Database db(ovsdb::WithLeaderLease(SnvsSchema()));
  int64_t now = 1;
  ha::LeaseManager leader(&db, {"ctl0", 1000, [&now] { return now; }});
  auto held = leader.TryAcquire();
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  ASSERT_EQ(*held, 1);

  // A writer carrying a stale epoch is rejected atomically: the whole
  // transaction rolls back and the rejection is counted.
  ovsdb::TxnBuilder stale(&db);
  stale.AssertFence(0);
  stale.Update(ovsdb::kLeaderLeaseTable, {},
               {{ovsdb::kLeaseHolderColumn, ovsdb::Datum::String("evil")}});
  auto rejected = stale.Commit();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(db.fence_rejections(), 1u);
  auto lease = leader.Read();
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->holder, "ctl0");  // the write never landed

  // The current epoch passes.
  ovsdb::TxnBuilder current(&db);
  current.AssertFence(1);
  current.Update(ovsdb::kLeaderLeaseTable, {},
                 {{ovsdb::kLeaseHolderColumn, ovsdb::Datum::String("ctl0b")}});
  ASSERT_TRUE(current.Commit().ok());
  EXPECT_EQ(db.fence_rejections(), 1u);
  lease = leader.Read();
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->holder, "ctl0b");
}

}  // namespace
}  // namespace nerpa::snvs
