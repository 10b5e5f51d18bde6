// E7 — §4.1 "Streaming APIs for performance": changes are grouped into
// transactions, and batching matters.
//
// google-benchmark micro-benchmarks of the per-transaction machinery at
// every plane: Datalog commit overhead vs batch size, OVSDB transact
// cost, P4Runtime writes, and per-packet pipeline execution.  The headline
// series is dlog_commit/batch: per-row cost should fall sharply as rows
// are batched into one transaction, which is why Nerpa propagates OVSDB's
// transaction grouping end to end instead of feeding changes one by one.
#include <benchmark/benchmark.h>

#include <random>

#include "common/strings.h"

#include "dlog/engine.h"
#include "ovsdb/database.h"
#include "p4/runtime.h"
#include "snvs/snvs.h"

namespace nerpa {
namespace {

constexpr const char* kJoinProgram = R"(
input relation E(a: bigint, b: bigint)
input relation F(b: bigint, c: bigint)
output relation J(a: bigint, c: bigint)
J(a, c) :- E(a, b), F(b, c).
)";

dlog::Row IntRow(int64_t a, int64_t b) {
  return dlog::Row{dlog::Value::Int(a), dlog::Value::Int(b)};
}

/// Per-row cost of a commit carrying `batch` inserted rows.
void BM_DlogCommitBatch(benchmark::State& state) {
  auto program = dlog::Program::Parse(kJoinProgram).value();
  dlog::Engine engine(program);
  // Pre-populate the joined side (1:1 join keys so the per-row derived
  // work is constant and the per-transaction floor is visible).
  for (int i = 0; i < 4096; ++i) {
    (void)engine.Insert("F", IntRow(i, i));
  }
  (void)engine.Commit();
  int64_t batch = state.range(0);
  int64_t next = 0;
  for (auto _ : state) {
    for (int64_t i = 0; i < batch; ++i) {
      (void)engine.Insert("E", IntRow(next, next % 4096));
      ++next;
    }
    benchmark::DoNotOptimize(engine.Commit());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_DlogCommitBatch)->Arg(1)->Arg(8)->Arg(64)->Arg(512);

/// An empty commit: the fixed floor of the transaction machinery.
void BM_DlogEmptyCommit(benchmark::State& state) {
  auto program = dlog::Program::Parse(kJoinProgram).value();
  dlog::Engine engine(program);
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.Commit());
  }
}
BENCHMARK(BM_DlogEmptyCommit);

/// OVSDB insert transactions (typed builder -> typed executor -> commit).
void BM_OvsdbInsertTxn(benchmark::State& state) {
  ovsdb::Database db(snvs::SnvsSchema());
  int64_t next = 0;
  for (auto _ : state) {
    ovsdb::TxnBuilder txn(&db);
    txn.Insert("Port", {
                           {"name", ovsdb::Datum::String(
                                        StrFormat("p%lld",
                                                  static_cast<long long>(
                                                      next)))},
                           {"port", ovsdb::Datum::Integer(next % 65536)},
                           {"vlan_mode", ovsdb::Datum::String("access")},
                           {"tag", ovsdb::Datum::Integer(next % 4096)},
                       });
    benchmark::DoNotOptimize(txn.Commit());
    ++next;
  }
}
BENCHMARK(BM_OvsdbInsertTxn)->Iterations(20000)->Repetitions(5);

/// The OVSDB stage of a port change (E2) on its own: one transaction
/// retags one port, found by name, among 2,000 resident ports, with a
/// table-scoped monitor attached as the controller's is.  Each visit to a
/// port writes a tag it does not hold, so every commit delivers a delta.
void BM_OvsdbUpdateTxn(benchmark::State& state) {
  constexpr int64_t kPorts = 2000;
  ovsdb::Database db(snvs::SnvsSchema());
  std::vector<ovsdb::Datum> names;
  ovsdb::TxnBuilder setup(&db);
  for (int64_t port = 0; port < kPorts; ++port) {
    names.push_back(ovsdb::Datum::String(
        StrFormat("p%lld", static_cast<long long>(port))));
    setup.Insert("Port", {{"name", names.back()},
                          {"port", ovsdb::Datum::Integer(port)},
                          {"vlan_mode", ovsdb::Datum::String("access")},
                          {"tag", ovsdb::Datum::Integer(1)}});
  }
  if (!setup.Commit().ok()) {
    state.SkipWithError("could not insert the resident ports");
    return;
  }
  size_t deltas = 0;
  db.AddMonitor({"Port", "Mirror", "AclRule"},
                [&deltas](const ovsdb::TableUpdates&) { ++deltas; });
  int64_t next = 0;
  for (auto _ : state) {
    ovsdb::TxnBuilder txn(&db);
    txn.Update("Port", {{"name", "==", names[next % kPorts]}},
               {{"tag", ovsdb::Datum::Integer(2 + next / kPorts % 4000)}});
    Result<std::vector<ovsdb::Uuid>> committed = txn.Commit();
    benchmark::DoNotOptimize(committed);
    if (!committed.ok()) {
      state.SkipWithError(committed.status().ToString().c_str());
      break;
    }
    ++next;
  }
  if (!state.error_occurred() && deltas != 1 + static_cast<size_t>(next)) {
    state.SkipWithError("a retag did not reach the monitor");
  }
}
BENCHMARK(BM_OvsdbUpdateTxn)->Repetitions(5);

/// P4Runtime exact-match table writes: every iteration inserts a new Dmac
/// entry, and the iteration count stays below Dmac's 65,536-entry size so
/// that every timed write succeeds.
void BM_P4RuntimeWrite(benchmark::State& state) {
  auto program = snvs::SnvsP4Program();
  p4::Switch device(program);
  p4::RuntimeClient client(&device);
  uint64_t next = 0;
  for (auto _ : state) {
    p4::TableEntry entry;
    entry.table = "Dmac";
    entry.match = {p4::MatchField::Exact(next % 4096),
                   p4::MatchField::Exact(0x020000000000ULL + next)};
    entry.action = "Forward";
    entry.action_args = {next % 65536};
    Status status = client.Insert(std::move(entry));
    benchmark::DoNotOptimize(status);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      break;
    }
    ++next;
  }
}
BENCHMARK(BM_P4RuntimeWrite)->Iterations(50000)->Repetitions(5);

/// P4Runtime writes of one trunk port's entries — its tagged ingress entry
/// and its egress entry on each of 4 VLANs, 8 inserts — as one Write per
/// port (as the controller batches a device's writes per phase) or as one
/// Write per entry.
void BM_P4RuntimeWritePort(benchmark::State& state, bool one_call) {
  auto program = snvs::SnvsP4Program();
  p4::Switch device(program);
  p4::RuntimeClient client(&device);
  uint64_t port = 0;
  std::vector<p4::Update> updates;
  for (auto _ : state) {
    updates.clear();
    for (uint64_t vlan = 1; vlan <= 4; ++vlan) {
      p4::TableEntry in;
      in.table = "InVlanTagged";
      in.match = {p4::MatchField::Exact(port), p4::MatchField::Exact(vlan)};
      in.action = "UseTaggedVlan";
      in.action_args = {vlan};
      p4::TableEntry out = in;
      out.table = "OutVlan";
      out.action = "EmitTagged";
      updates.push_back(p4::Update{p4::UpdateType::kInsert, std::move(in)});
      updates.push_back(p4::Update{p4::UpdateType::kInsert, std::move(out)});
    }
    Status status;
    if (one_call) {
      status = client.Write(updates);
    } else {
      for (const p4::Update& update : updates) {
        status = client.Write({update});
        if (!status.ok()) break;
      }
    }
    benchmark::DoNotOptimize(status);
    if (!status.ok()) {
      state.SkipWithError(status.ToString().c_str());
      break;
    }
    ++port;
  }
  state.SetItemsProcessed(state.iterations() * 8);
}
// 10,000 ports put 40,000 entries in each table, below their 65,536.
BENCHMARK_CAPTURE(BM_P4RuntimeWritePort, one_call_per_port, true)
    ->Iterations(10000)
    ->Repetitions(5);
BENCHMARK_CAPTURE(BM_P4RuntimeWritePort, one_call_per_entry, false)
    ->Iterations(10000)
    ->Repetitions(5);

/// Per-packet pipeline execution (parse, 8 tables, deparse) in the steady
/// state of a 16-port access VLAN with hosts AA (port 1) and BB (port 2)
/// learned: a `bytes`-long frame from AA to BB leaves once, on port 2, and
/// a broadcast from AA floods the other 15 ports.
void BM_P4PacketPipeline(benchmark::State& state, size_t bytes,
                         bool broadcast) {
  auto stack = snvs::BuildSnvsStack().value();
  for (int64_t port = 1; port <= 16; ++port) {
    (void)stack->AddPort(StrFormat("p%lld", static_cast<long long>(port)),
                         port, "access", 10);
  }
  const net::Mac aa(0, 0, 0, 0, 0, 0xAA), bb(0, 0, 0, 0, 0, 0xBB);
  auto frame_of = [](net::Mac dst, net::Mac src, size_t size) {
    return net::MakeEthernetFrame(dst, src, 0x0800,
                                  std::vector<uint8_t>(size - 14, 0x5A));
  };
  (void)stack->InjectPacket(0, 1, frame_of(bb, aa, 64));  // learns AA
  (void)stack->InjectPacket(0, 2, frame_of(aa, bb, 64));  // learns BB
  net::Packet frame = frame_of(broadcast ? net::Mac::Broadcast() : bb, aa,
                               bytes);
  auto out = stack->device().ProcessPacket(p4::PacketIn{1, frame});
  bool steady = out.ok() && (broadcast ? out->size() == 15
                                       : out->size() == 1 &&
                                             (*out)[0].port == 2);
  if (!steady || !stack->device().TakeDigests().empty()) {
    state.SkipWithError("hosts not learned: the frame is not forwarded as "
                        "in the steady state");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        stack->device().ProcessPacket(p4::PacketIn{1, frame}));
  }
}
BENCHMARK_CAPTURE(BM_P4PacketPipeline, unicast_64B, 64, false)
    ->Repetitions(5);
BENCHMARK_CAPTURE(BM_P4PacketPipeline, unicast_1518B, 1518, false)
    ->Repetitions(5);
BENCHMARK_CAPTURE(BM_P4PacketPipeline, broadcast_64B_16_ports, 64, true)
    ->Repetitions(5);

/// Per-packet pipeline execution over the learned state of a larger
/// network: 256 access ports on 16 VLANs and 4,096 learned hosts, so SMac
/// and Dmac hold 4,096 entries each (the cases above learn two hosts).
/// 64-byte unicast frames cycle through 1,024 random pairs of hosts that
/// share a VLAN.
void BM_P4PacketPipelineLearned(benchmark::State& state) {
  constexpr uint64_t kPorts = 256, kHosts = 4096, kPairs = 1024;
  struct Frame {
    uint64_t port;
    net::Packet packet;
    uint64_t out_port;
  };
  auto mac_of = [](uint64_t host) { return net::Mac(0x020000000000ULL + host); };
  auto port_of = [](uint64_t host) { return 1 + host % kPorts; };
  auto frame_of = [](net::Mac dst, net::Mac src) {
    return net::MakeEthernetFrame(dst, src, 0x0800,
                                  std::vector<uint8_t>(50, 0x5A));
  };
  auto stack = snvs::BuildSnvsStack().value();
  for (uint64_t port = 1; port <= kPorts; ++port) {
    (void)stack->AddPort(
        StrFormat("p%llu", static_cast<unsigned long long>(port)),
        static_cast<int64_t>(port), "access",
        static_cast<int64_t>(10 + (port - 1) % 16));
  }
  // A broadcast from each host teaches its port (host h: VLAN 10 + h % 16).
  for (uint64_t host = 0; host < kHosts; ++host) {
    (void)stack->InjectPacket(0, port_of(host),
                              frame_of(net::Mac::Broadcast(), mac_of(host)));
  }
  std::mt19937_64 rng(1);
  std::vector<Frame> frames;
  for (uint64_t i = 0; i < kPairs; ++i) {
    // The same VLAN (host % 16) on another port (host % 256).
    uint64_t src = rng() % kHosts;
    uint64_t dst = (src + 16 * (1 + rng() % 15 + 16 * (rng() % 16))) % kHosts;
    frames.push_back(
        Frame{port_of(src), frame_of(mac_of(dst), mac_of(src)), port_of(dst)});
  }
  p4::Switch& device = stack->device();
  auto out = device.ProcessPacket(p4::PacketIn{frames[0].port,
                                               frames[0].packet});
  if (!out.ok() || out->size() != 1 || (*out)[0].port != frames[0].out_port ||
      !device.TakeDigests().empty() ||
      device.GetTable("Dmac")->size() != kHosts) {
    state.SkipWithError("hosts not learned: the frame is not forwarded as "
                        "in the steady state");
    return;
  }
  size_t next = 0;
  for (auto _ : state) {
    const Frame& frame = frames[next++ % kPairs];
    benchmark::DoNotOptimize(
        device.ProcessPacket(p4::PacketIn{frame.port, frame.packet}));
  }
}
BENCHMARK(BM_P4PacketPipelineLearned)
    ->Name("BM_P4PacketPipeline/unicast_64B_4096_hosts_256_ports")
    ->Repetitions(5);

/// End-to-end: one management-plane change through all three planes.
void BM_FullStackPortAdd(benchmark::State& state) {
  auto stack = snvs::BuildSnvsStack().value();
  int64_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(stack->AddPort(
        StrFormat("p%lld", static_cast<long long>(next)), next % 65536,
        "access", next % 4096 + 1));
    ++next;
  }
}
BENCHMARK(BM_FullStackPortAdd)->Iterations(3000)->Repetitions(5);

}  // namespace
}  // namespace nerpa

BENCHMARK_MAIN();
