// Controller-runtime behaviours: startup against a pre-populated database,
// stats accounting, device routing errors, multicast group lifecycle,
// lifecycle guards, and per-device dispatch on the committing thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "ha/fault.h"
#include "nerpa/controller.h"
#include "ovsdb/database.h"
#include "p4/text.h"
#include "snvs/snvs.h"

namespace nerpa {
namespace {

constexpr const char* kPipeline = R"p4(
header ethernet { bit<48> dstAddr; bit<48> srcAddr; bit<16> etherType; }
parser { state start { extract(ethernet); goto accept; } }
action Discard() { drop(); }
action Assign(bit<12> vid) { }
table VlanMap {
  key = { standard.ingress_port: exact; }
  actions = { Assign; }
  default_action = Discard;
}
ingress { apply(VlanMap); }
egress { }
deparser { emit(ethernet); }
)p4";

ovsdb::DatabaseSchema Schema() {
  ovsdb::DatabaseSchema schema;
  schema.name = "ctl";
  ovsdb::TableSchema assignment;
  assignment.name = "Assignment";
  assignment.columns = {
      {"device", ovsdb::ColumnType::Scalar(ovsdb::BaseType::String()), false,
       true},
      {"port", ovsdb::ColumnType::Scalar(ovsdb::BaseType::Integer(0, 65535)),
       false, true},
      {"vlan", ovsdb::ColumnType::Scalar(ovsdb::BaseType::Integer(0, 4095)),
       false, true},
  };
  schema.tables.emplace("Assignment", std::move(assignment));
  return schema;
}

constexpr const char* kRules = R"(
VlanMap(d, p as bit<16>, "Assign", v as bit<12>) :- Assignment(_, d, p, v).
)";

struct Rig {
  std::shared_ptr<const p4::P4Program> pipeline;
  std::unique_ptr<ovsdb::Database> db;
  Bindings bindings;
  std::shared_ptr<const dlog::Program> program;
  std::unique_ptr<p4::Switch> sw0, sw1;
  std::unique_ptr<p4::RuntimeClient> client0, client1;
  std::unique_ptr<Controller> controller;
};

Rig MakeRig() {
  Rig rig;
  rig.pipeline = p4::ParseP4Text(kPipeline).value();
  rig.db = std::make_unique<ovsdb::Database>(Schema());
  BindingOptions options;
  options.with_device_column = true;
  rig.bindings = GenerateBindings(rig.db->schema(), *rig.pipeline, options)
                     .value();
  rig.program =
      dlog::Program::Parse(rig.bindings.DeclsText() + kRules).value();
  rig.sw0 = std::make_unique<p4::Switch>(rig.pipeline);
  rig.sw1 = std::make_unique<p4::Switch>(rig.pipeline);
  rig.client0 = std::make_unique<p4::RuntimeClient>(rig.sw0.get());
  rig.client1 = std::make_unique<p4::RuntimeClient>(rig.sw1.get());
  rig.controller = std::make_unique<Controller>(
      rig.db.get(), rig.program, rig.pipeline, rig.bindings);
  return rig;
}

Status AddAssignment(ovsdb::Database& db, const char* device, int64_t port,
                     int64_t vlan) {
  ovsdb::TxnBuilder txn(&db);
  txn.Insert("Assignment", {{"device", ovsdb::Datum::String(device)},
                            {"port", ovsdb::Datum::Integer(port)},
                            {"vlan", ovsdb::Datum::Integer(vlan)}});
  return txn.Commit().status();
}

TEST(Controller, StartInstallsPreexistingRows) {
  Rig rig = MakeRig();
  // Rows exist BEFORE the controller starts: the monitor's initial
  // snapshot must install them.
  ASSERT_TRUE(AddAssignment(*rig.db, "sw0", 1, 10).ok());
  ASSERT_TRUE(AddAssignment(*rig.db, "sw1", 2, 20).ok());
  ASSERT_TRUE(rig.controller->AddDevice("sw0", rig.client0.get()).ok());
  ASSERT_TRUE(rig.controller->AddDevice("sw1", rig.client1.get()).ok());
  ASSERT_TRUE(rig.controller->Start().ok());
  EXPECT_TRUE(rig.controller->last_error().ok());
  EXPECT_EQ(rig.sw0->GetTable("VlanMap")->size(), 1u);
  EXPECT_EQ(rig.sw1->GetTable("VlanMap")->size(), 1u);
}

TEST(Controller, UnknownDeviceRowSurfacesError) {
  Rig rig = MakeRig();
  ASSERT_TRUE(rig.controller->AddDevice("sw0", rig.client0.get()).ok());
  ASSERT_TRUE(rig.controller->Start().ok());
  ASSERT_TRUE(AddAssignment(*rig.db, "ghost", 1, 10).ok());
  // The OVSDB commit succeeds; the controller records the routing failure.
  EXPECT_FALSE(rig.controller->last_error().ok());
  EXPECT_GE(rig.controller->stats().errors, 1u);
}

TEST(Controller, StatsAccounting) {
  Rig rig = MakeRig();
  ASSERT_TRUE(rig.controller->AddDevice("sw0", rig.client0.get()).ok());
  ASSERT_TRUE(rig.controller->Start().ok());
  ASSERT_TRUE(AddAssignment(*rig.db, "sw0", 1, 10).ok());
  ASSERT_TRUE(AddAssignment(*rig.db, "sw0", 2, 20).ok());
  // Move port 1 to vlan 30: retract + assert (a modify through the stack).
  ovsdb::TxnBuilder txn(rig.db.get());
  txn.Update("Assignment", {{"port", "==", ovsdb::Datum::Integer(1)}},
             {{"vlan", ovsdb::Datum::Integer(30)}});
  ASSERT_TRUE(txn.Commit().ok());
  ASSERT_TRUE(rig.controller->last_error().ok());
  const auto& stats = rig.controller->stats();
  EXPECT_EQ(stats.ovsdb_updates, 3u);
  EXPECT_EQ(stats.dlog_txns, 3u);
  EXPECT_EQ(stats.entries_inserted, 3u);  // 2 adds + 1 re-assert
  EXPECT_EQ(stats.entries_deleted, 1u);   // the retract
  // The new entry carries the new vlan argument.
  bool found = false;
  for (const p4::TableEntry* entry : rig.sw0->GetTable("VlanMap")->Entries()) {
    if (entry->match[0].value == 1) {
      EXPECT_EQ(entry->action_args[0], 30u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Controller, LifecycleGuards) {
  Rig rig = MakeRig();
  ASSERT_TRUE(rig.controller->AddDevice("sw0", rig.client0.get()).ok());
  // Duplicate device name.
  EXPECT_FALSE(rig.controller->AddDevice("sw0", rig.client1.get()).ok());
  ASSERT_TRUE(rig.controller->Start().ok());
  // Start() reconciles every registered device once.
  EXPECT_EQ(rig.controller->stats().resyncs, 1u);
  // Registering after Start() is the device-rejoin path: it succeeds and
  // immediately resynchronizes the newcomer.
  EXPECT_TRUE(rig.controller->AddDevice("sw1", rig.client1.get()).ok());
  EXPECT_EQ(rig.controller->stats().resyncs, 2u);
  // Still no duplicate names, and no double start.
  EXPECT_FALSE(rig.controller->AddDevice("sw1", rig.client1.get()).ok());
  EXPECT_FALSE(rig.controller->Start().ok());
  // Resync requires a started controller and a known device.
  EXPECT_FALSE(rig.controller->ResyncDevice("ghost").ok());
  EXPECT_TRUE(rig.controller->ResyncDevice("sw0").ok());
  // Digest sync on a digest-less program is a no-op.
  EXPECT_TRUE(rig.controller->SyncDataPlaneNotifications().ok());
}

/// Records the op sequence seen by one device, the thread each call ran
/// on and each Write's update count.  Deliberately unlocked: every write
/// runs on the committing thread, so recording is single-threaded (TSan
/// enforces the claim).
class RecordingClient : public p4::RuntimeClient {
 public:
  using p4::RuntimeClient::RuntimeClient;
  Status Write(const std::vector<p4::Update>& updates) override {
    threads.push_back(std::this_thread::get_id());
    calls.push_back(updates.size());
    for (const p4::Update& update : updates) {
      ops.push_back(update.type == p4::UpdateType::kDelete ? 'D' : 'I');
      keys.push_back(update.entry.match[0].value);
    }
    return p4::RuntimeClient::Write(updates);
  }
  Status SetMulticastGroup(uint32_t group,
                           std::vector<uint64_t> ports) override {
    threads.push_back(std::this_thread::get_id());
    ops.push_back('M');
    return p4::RuntimeClient::SetMulticastGroup(group, std::move(ports));
  }
  std::vector<char> ops;
  std::vector<uint64_t> keys;   // each table update's first match value
  std::vector<size_t> calls;    // updates per Write call
  std::vector<std::thread::id> threads;
};

struct DeviceRig {
  std::shared_ptr<const p4::P4Program> pipeline;
  std::unique_ptr<ovsdb::Database> db;
  Bindings bindings;
  std::shared_ptr<const dlog::Program> program;
  std::vector<std::unique_ptr<p4::Switch>> switches;
  std::vector<std::unique_ptr<RecordingClient>> clients;
  std::unique_ptr<Controller> controller;
};

DeviceRig MakeDeviceRig(int devices, Controller::Options options) {
  DeviceRig rig;
  rig.pipeline = p4::ParseP4Text(kPipeline).value();
  rig.db = std::make_unique<ovsdb::Database>(Schema());
  BindingOptions binding_options;
  binding_options.with_device_column = true;
  rig.bindings =
      GenerateBindings(rig.db->schema(), *rig.pipeline, binding_options)
          .value();
  rig.program =
      dlog::Program::Parse(rig.bindings.DeclsText() + kRules).value();
  for (int i = 0; i < devices; ++i) {
    rig.switches.push_back(std::make_unique<p4::Switch>(rig.pipeline));
    rig.clients.push_back(
        std::make_unique<RecordingClient>(rig.switches.back().get()));
  }
  rig.controller = std::make_unique<Controller>(
      rig.db.get(), rig.program, rig.pipeline, rig.bindings, options);
  return rig;
}

std::string DeviceName(int i) { return "sw" + std::to_string(i); }

TEST(ControllerDispatch, WritesRunOnTheCommittingThread) {
  // Table writes and multicast reprograms for every device run on the
  // thread whose OVSDB commit produced them; nothing is handed to workers.
  std::vector<std::unique_ptr<p4::Switch>> switches;
  std::vector<std::unique_ptr<RecordingClient>> clients;
  snvs::SnvsOptions options;
  for (int i = 0; i < 2; ++i) {
    switches.push_back(std::make_unique<p4::Switch>(snvs::SnvsP4Program()));
    clients.push_back(
        std::make_unique<RecordingClient>(switches.back().get()));
    options.external_clients.push_back(clients.back().get());
  }
  auto stack = snvs::BuildSnvsStack(options).value();
  ASSERT_TRUE(stack->AddPort("p1", 1, "access", 10).ok());
  ASSERT_TRUE(stack->AddPort("p2", 2, "access", 10).ok());
  ASSERT_TRUE(stack->controller().last_error().ok());
  for (const auto& client : clients) {
    EXPECT_NE(std::count(client->ops.begin(), client->ops.end(), 'I'), 0);
    EXPECT_NE(std::count(client->ops.begin(), client->ops.end(), 'M'), 0);
    for (std::thread::id thread : client->threads) {
      EXPECT_EQ(thread, std::this_thread::get_id());
    }
  }
}

TEST(ControllerDispatch, DeletesPrecedeInsertsPerDevice) {
  DeviceRig rig = MakeDeviceRig(4, Controller::Options{});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(rig.controller
                    ->AddDevice(DeviceName(i), rig.clients[i].get())
                    .ok());
  }
  ASSERT_TRUE(rig.controller->Start().ok());
  // One txn inserting 4 rows per device: each device sees only its own
  // inserts, as one Write.
  {
    ovsdb::TxnBuilder txn(rig.db.get());
    for (int d = 0; d < 4; ++d) {
      for (int p = 1; p <= 4; ++p) {
        txn.Insert("Assignment",
                   {{"device", ovsdb::Datum::String(DeviceName(d))},
                    {"port", ovsdb::Datum::Integer(p)},
                    {"vlan", ovsdb::Datum::Integer(10 * p)}});
      }
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_TRUE(rig.controller->last_error().ok());
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(rig.clients[d]->ops, (std::vector<char>{'I', 'I', 'I', 'I'}));
    EXPECT_EQ(rig.clients[d]->calls, (std::vector<size_t>{4}));
    EXPECT_EQ(rig.switches[d]->GetTable("VlanMap")->size(), 4u);
    rig.clients[d]->ops.clear();
    rig.clients[d]->calls.clear();
  }
  // Move every row to a new vlan: per device the retractions must all
  // land before the re-assertions (violating that order would transiently
  // drop a matching entry or, for keyed modifies, fail the insert
  // outright), one Write of deletes, then one of inserts.
  {
    ovsdb::TxnBuilder txn(rig.db.get());
    txn.Update("Assignment", {}, {{"vlan", ovsdb::Datum::Integer(99)}});
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_TRUE(rig.controller->last_error().ok());
  for (int d = 0; d < 4; ++d) {
    EXPECT_EQ(rig.clients[d]->ops,
              (std::vector<char>{'D', 'D', 'D', 'D', 'I', 'I', 'I', 'I'}))
        << "device " << d << " saw a reordered batch";
    EXPECT_EQ(rig.clients[d]->calls, (std::vector<size_t>{4, 4}));
    for (const p4::TableEntry* entry :
         rig.switches[d]->GetTable("VlanMap")->Entries()) {
      EXPECT_EQ(entry->action_args[0], 99u);
    }
  }
}

TEST(ControllerDispatch, BurstAcrossDevicesConverges) {
  // Many small txns, each fanning out to all devices.  Every write must
  // land exactly once.
  DeviceRig rig = MakeDeviceRig(3, Controller::Options{});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rig.controller
                    ->AddDevice(DeviceName(i), rig.clients[i].get())
                    .ok());
  }
  ASSERT_TRUE(rig.controller->Start().ok());
  constexpr int kTxns = 20;
  for (int t = 0; t < kTxns; ++t) {
    ovsdb::TxnBuilder txn(rig.db.get());
    for (int d = 0; d < 3; ++d) {
      txn.Insert("Assignment",
                 {{"device", ovsdb::Datum::String(DeviceName(d))},
                  {"port", ovsdb::Datum::Integer(t + 1)},
                  {"vlan", ovsdb::Datum::Integer(100 + t)}});
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  ASSERT_TRUE(rig.controller->last_error().ok());
  EXPECT_EQ(rig.controller->stats().entries_inserted,
            static_cast<uint64_t>(3 * kTxns));
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(rig.switches[d]->GetTable("VlanMap")->size(),
              static_cast<size_t>(kTxns));
    EXPECT_EQ(rig.clients[d]->ops, std::vector<char>(kTxns, 'I'));
  }
}

TEST(ControllerDispatch, ResyncOnStartConverges) {
  Controller::Options options;
  DeviceRig rig = MakeDeviceRig(3, options);
  // Rows exist before startup; Start() diffs each (empty) device against
  // desired state.
  for (int d = 0; d < 3; ++d) {
    ovsdb::TxnBuilder txn(rig.db.get());
    txn.Insert("Assignment", {{"device", ovsdb::Datum::String(DeviceName(d))},
                              {"port", ovsdb::Datum::Integer(d + 1)},
                              {"vlan", ovsdb::Datum::Integer(20 + d)}});
    ASSERT_TRUE(txn.Commit().ok());
    ASSERT_TRUE(rig.controller
                    ->AddDevice(DeviceName(d), rig.clients[d].get())
                    .ok());
  }
  ASSERT_TRUE(rig.controller->Start().ok());
  ASSERT_TRUE(rig.controller->last_error().ok());
  EXPECT_EQ(rig.controller->stats().resyncs, 3u);
  for (int d = 0; d < 3; ++d) {
    EXPECT_EQ(rig.switches[d]->GetTable("VlanMap")->size(), 1u);
    // Already converged: a second resync must be write-free.
    uint64_t writes = rig.clients[d]->write_count();
    ASSERT_TRUE(rig.controller->ResyncDevice(DeviceName(d)).ok());
    EXPECT_EQ(rig.clients[d]->write_count(), writes);
  }
}

TEST(ControllerDispatch, FencedResyncStopsTheRound) {
  // A newer leader already owns sw0: the startup resync's first write
  // there is fenced, the controller demotes itself, and sw1 (next in
  // registration order) is left to the newer leader instead of receiving
  // this controller's state.
  Controller::Options options;
  options.fence_epoch = 1;
  DeviceRig rig = MakeDeviceRig(2, options);
  p4::RuntimeClient newer(rig.switches[0].get());
  newer.set_fence_token(2);
  ASSERT_TRUE(newer.Arbitrate().ok());
  for (int d = 0; d < 2; ++d) {
    ASSERT_TRUE(
        AddAssignment(*rig.db, DeviceName(d).c_str(), d + 1, 10).ok());
    ASSERT_TRUE(rig.controller
                    ->AddDevice(DeviceName(d), rig.clients[d].get())
                    .ok());
  }
  EXPECT_EQ(rig.controller->Start().code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(rig.controller->role(), Role::kFollower);
  EXPECT_EQ(rig.controller->stats().fenced_writes_rejected, 1u);
  EXPECT_TRUE(rig.clients[1]->ops.empty());
  EXPECT_EQ(rig.switches[1]->GetTable("VlanMap")->size(), 0u);
}

/// The device's table as sorted text, for comparing two devices.
std::vector<std::string> TableText(p4::Switch& sw) {
  std::vector<std::string> out;
  for (const p4::TableEntry* entry : sw.GetTable("VlanMap")->Entries()) {
    out.push_back(entry->ToString());
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(ControllerDispatch, FailedUpdateParksTheSuffix) {
  // An entry installed behind the controller's back makes one insert of a
  // six-insert commit fail with AlreadyExists.  The inserts the device
  // applied before it stay, the failed one and every later one park in the
  // outbox, and one anti-entropy round converges the device.
  Controller::Options options;
  options.breaker.enabled = true;
  DeviceRig rig = MakeDeviceRig(1, options);
  ASSERT_TRUE(rig.controller->AddDevice("sw0", rig.clients[0].get()).ok());
  ASSERT_TRUE(rig.controller->Start().ok());
  p4::TableEntry conflict;
  conflict.table = "VlanMap";
  conflict.match = {p4::MatchField::Exact(3)};
  conflict.action = "Assign";
  conflict.action_args = {77};
  ASSERT_TRUE(rig.switches[0]->GetTable("VlanMap")->Insert(conflict).ok());
  auto add_rows = [](ovsdb::Database& db) {
    ovsdb::TxnBuilder txn(&db);
    for (int p = 1; p <= 6; ++p) {
      txn.Insert("Assignment", {{"device", ovsdb::Datum::String("sw0")},
                                {"port", ovsdb::Datum::Integer(p)},
                                {"vlan", ovsdb::Datum::Integer(10 * p)}});
    }
    return txn.Commit().status();
  };
  ASSERT_TRUE(add_rows(*rig.db).ok());
  EXPECT_EQ(rig.controller->last_error().code(), StatusCode::kAlreadyExists);

  const std::vector<uint64_t>& sent = rig.clients[0]->keys;
  size_t k = std::find(sent.begin(), sent.end(), 3) - sent.begin();
  ASSERT_LT(k, sent.size());
  p4::TableState& table = *rig.switches[0]->GetTable("VlanMap");
  EXPECT_EQ(table.size(), k + 1);  // the applied prefix and the conflict
  for (size_t i = 0; i < k; ++i) {
    const p4::TableEntry* entry = table.Lookup({sent[i]});
    ASSERT_NE(entry, nullptr) << "port " << sent[i];
    EXPECT_EQ(entry->action_args[0], 10 * sent[i]);
  }
  EXPECT_EQ(table.Lookup({3})->action_args[0], 77u);
  EXPECT_EQ(rig.controller->stats().outbox_sizes.at("sw0"), 6 - k);

  ASSERT_TRUE(rig.controller->RunAntiEntropy().ok());
  Controller::Stats stats = rig.controller->stats();
  EXPECT_EQ(stats.outbox_repairs, 1u);
  EXPECT_EQ(stats.outbox_sizes.at("sw0"), 0u);
  DeviceRig fresh = MakeDeviceRig(1, Controller::Options{});
  ASSERT_TRUE(fresh.controller->AddDevice("sw0", fresh.clients[0].get()).ok());
  ASSERT_TRUE(fresh.controller->Start().ok());
  ASSERT_TRUE(add_rows(*fresh.db).ok());
  ASSERT_TRUE(fresh.controller->last_error().ok());
  EXPECT_EQ(TableText(*rig.switches[0]), TableText(*fresh.switches[0]));
}

/// A device that is down hard: every write errors until `revived`.
class DeadClient : public p4::RuntimeClient {
 public:
  using p4::RuntimeClient::RuntimeClient;
  Status Write(const std::vector<p4::Update>& updates) override {
    if (!revived) return Internal("device unreachable");
    return p4::RuntimeClient::Write(updates);
  }
  Status SetMulticastGroup(uint32_t group,
                           std::vector<uint64_t> ports) override {
    if (!revived) return Internal("device unreachable");
    return p4::RuntimeClient::SetMulticastGroup(group, std::move(ports));
  }
  bool revived = false;
};

TEST(ControllerDispatch, DeadDeviceIsQuarantinedWhileOthersCommitFully) {
  Controller::Options options;
  options.retry.max_attempts = 2;
  options.retry.backoff.initial_nanos = 1000;
  options.retry.backoff.max_nanos = 2000;
  options.breaker.enabled = true;
  options.breaker.strike_threshold = 1;
  options.breaker.cooldown_nanos = 0;  // probe on the next anti-entropy run
  DeviceRig rig = MakeDeviceRig(3, options);
  auto dead_sw = std::make_unique<p4::Switch>(rig.pipeline);
  DeadClient dead(dead_sw.get());

  ASSERT_TRUE(rig.controller->AddDevice("sw0", &dead).ok());
  for (int i = 1; i < 3; ++i) {
    ASSERT_TRUE(rig.controller
                    ->AddDevice(DeviceName(i), rig.clients[i].get())
                    .ok());
  }
  ASSERT_TRUE(rig.controller->Start().ok());

  constexpr int kTxns = 10;
  for (int t = 0; t < kTxns; ++t) {
    ovsdb::TxnBuilder txn(rig.db.get());
    for (int d = 0; d < 3; ++d) {
      txn.Insert("Assignment",
                 {{"device", ovsdb::Datum::String(DeviceName(d))},
                  {"port", ovsdb::Datum::Integer(t + 1)},
                  {"vlan", ovsdb::Datum::Integer(100 + t)}});
    }
    ASSERT_TRUE(txn.Commit().ok());
  }
  // The dead device never aborted a sync: the breaker absorbed it.
  ASSERT_TRUE(rig.controller->last_error().ok());
  Controller::Stats stats = rig.controller->stats();
  EXPECT_EQ(stats.breaker_states.at("sw0"), "open");
  EXPECT_GE(stats.breaker_trips, 1u);
  EXPECT_GE(stats.write_failures, 1u);
  // The quarantined deltas coalesced into the outbox instead of erroring.
  EXPECT_GT(stats.outbox_sizes.at("sw0"), 0u);
  // The healthy devices committed every transaction at full rate.
  for (int d = 1; d < 3; ++d) {
    EXPECT_EQ(rig.switches[d]->GetTable("VlanMap")->size(),
              static_cast<size_t>(kTxns));
    EXPECT_EQ(rig.clients[d]->ops, std::vector<char>(kTxns, 'I'))
        << "device " << d << " was stalled by the dead one";
  }
  EXPECT_EQ(dead_sw->GetTable("VlanMap")->size(), 0u);

  // While quarantined, batches are not even attempted against the device.
  uint64_t failures_at_trip = rig.controller->stats().write_failures;
  {
    ovsdb::TxnBuilder txn(rig.db.get());
    txn.Insert("Assignment", {{"device", ovsdb::Datum::String("sw0")},
                              {"port", ovsdb::Datum::Integer(77)},
                              {"vlan", ovsdb::Datum::Integer(7)}});
    ASSERT_TRUE(txn.Commit().ok());
  }
  EXPECT_EQ(rig.controller->stats().write_failures, failures_at_trip);

  // An anti-entropy round against the still-dead device: probe fails, the
  // breaker re-opens, nothing crashes.
  ASSERT_TRUE(rig.controller->RunAntiEntropy().ok());
  stats = rig.controller->stats();
  EXPECT_GE(stats.breaker_probes, 1u);
  EXPECT_EQ(stats.breaker_rejoins, 0u);
  EXPECT_EQ(stats.breaker_states.at("sw0"), "open");

  // The device comes back; one anti-entropy round fully converges it.
  dead.revived = true;
  ASSERT_TRUE(rig.controller->RunAntiEntropy().ok());
  stats = rig.controller->stats();
  EXPECT_EQ(stats.breaker_states.at("sw0"), "closed");
  EXPECT_EQ(stats.breaker_rejoins, 1u);
  EXPECT_EQ(stats.outbox_sizes.at("sw0"), 0u);
  EXPECT_EQ(dead_sw->GetTable("VlanMap")->size(),
            static_cast<size_t>(kTxns + 1));  // backlog + the 77 row

  // And it tracks live updates again.
  {
    ovsdb::TxnBuilder txn(rig.db.get());
    txn.Insert("Assignment", {{"device", ovsdb::Datum::String("sw0")},
                              {"port", ovsdb::Datum::Integer(88)},
                              {"vlan", ovsdb::Datum::Integer(8)}});
    ASSERT_TRUE(txn.Commit().ok());
  }
  EXPECT_EQ(dead_sw->GetTable("VlanMap")->size(),
            static_cast<size_t>(kTxns + 2));
}

TEST(Controller, SlowDeviceTripsBreakerViaTimeoutStrikes) {
  Controller::Options options;
  options.retry.max_attempts = 1;
  options.breaker.enabled = true;
  options.breaker.strike_threshold = 2;
  options.breaker.cooldown_nanos = 0;
  options.breaker.write_timeout_nanos = 100'000;  // 0.1 ms budget
  DeviceRig rig = MakeDeviceRig(1, options);
  auto slow_sw = std::make_unique<p4::Switch>(rig.pipeline);
  ha::FaultPolicy policy;
  policy.write_fail_probability = 1.0;  // every write draws a fault...
  policy.stall_nanos = 2'000'000;       // ...stalling 2 ms, then succeeding
  ha::FaultyRuntimeClient slow(slow_sw.get(), policy);
  ASSERT_TRUE(rig.controller->AddDevice("sw0", &slow).ok());
  ASSERT_TRUE(rig.controller->Start().ok());

  // Two slow-but-successful writes = two timeout strikes = quarantine.
  ASSERT_TRUE(AddAssignment(*rig.db, "sw0", 1, 10).ok());
  ASSERT_TRUE(AddAssignment(*rig.db, "sw0", 2, 20).ok());
  ASSERT_TRUE(rig.controller->last_error().ok());
  Controller::Stats stats = rig.controller->stats();
  EXPECT_GE(stats.slow_writes, 2u);
  EXPECT_EQ(stats.write_failures, 0u);  // the writes succeeded, slowly
  EXPECT_GE(stats.breaker_trips, 1u);
  EXPECT_EQ(stats.breaker_states.at("sw0"), "open");
  // The slow writes did land on the device even though they struck.
  EXPECT_EQ(slow_sw->GetTable("VlanMap")->size(), 2u);

  // Back to full speed: the probe resyncs and the breaker closes.
  policy.stall_nanos = 0;
  policy.write_fail_probability = 0;
  slow.set_policy(policy);
  ASSERT_TRUE(rig.controller->RunAntiEntropy().ok());
  EXPECT_EQ(rig.controller->stats().breaker_states.at("sw0"), "closed");
}

TEST(Controller, MulticastGroupLifecycle) {
  // Exercised through the snvs stack: groups appear with the first member,
  // shrink per member, and disappear with the last.
  auto stack = snvs::BuildSnvsStack().value();
  ASSERT_TRUE(stack->AddPort("p1", 1, "access", 10).ok());
  ASSERT_TRUE(stack->AddPort("p2", 2, "access", 10).ok());
  ASSERT_NE(stack->device().GetMulticastGroup(11), nullptr);
  EXPECT_EQ(stack->device().GetMulticastGroup(11)->size(), 2u);
  EXPECT_GE(stack->controller().stats().multicast_updates, 2u);
  ASSERT_TRUE(stack->DeletePort("p1").ok());
  ASSERT_TRUE(stack->DeletePort("p2").ok());
  EXPECT_EQ(stack->device().GetMulticastGroup(11), nullptr);
}

}  // namespace
}  // namespace nerpa
