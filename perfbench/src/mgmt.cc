// The two management-plane workloads, port_churn and bulk_reconfig: one
// generator thread commits OVSDB transactions in a closed loop and each
// Commit returns once every device write is applied (the controller's
// monitor callback runs inside it and joins its dispatch pool).
#include <algorithm>
#include <array>
#include <cstdio>
#include <random>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "p4/ir.h"
#include "workloads.h"

namespace perfbench {

using nerpa::MonotonicNanos;
using nerpa::Status;

namespace {

constexpr int kDevices = 2;
constexpr int kVlans = 64;
constexpr size_t kResidentPorts = 2000;
constexpr size_t kAcls = 64;
constexpr int kTrunkEvery = 8;  // one port in eight is a trunk
constexpr int kTrunkVlans = 4;
constexpr uint16_t kPortSpace = 8191;  // resident/churned numbers 1..8191
constexpr size_t kBlockPorts = 1000;
constexpr uint16_t kBlockBase = 20001;  // bulk blocks use 20001..21000
constexpr size_t kChurnWarmup = 10000;
constexpr size_t kBulkWarmup = 4;  // two insert/delete pairs
constexpr int kProbeVlans = 16;

struct PortSpec {
  uint16_t port = 0;
  uint16_t tag = 0;  // access VLAN; 0 on trunks
  bool trunk = false;
  std::array<uint16_t, kTrunkVlans> trunks{};
};

struct AclSpec {
  uint64_t mac = 0;
  uint16_t vlan = 0;
  bool allow = false;
};

struct Op {
  enum class Kind : uint8_t {
    kRetag,
    kDeletePort,
    kAddPort,
    kAddAcl,
    kDeleteAcl,
    kInsertBlock,
    kDeleteBlock,
  };
  Kind kind = Kind::kRetag;
  PortSpec port;
  AclSpec acl;
  uint32_t block = 0;
};

std::string PortName(uint16_t port) { return "p" + std::to_string(port); }

std::vector<ovsdb::Clause> ByName(uint16_t port) {
  return {{"name", "==", ovsdb::Datum::String(PortName(port))}};
}

void InsertPort(ovsdb::TxnBuilder& txn, const PortSpec& spec) {
  std::vector<ovsdb::Atom> trunks;
  if (spec.trunk) {
    for (uint16_t vlan : spec.trunks) trunks.emplace_back(int64_t{vlan});
  }
  txn.Insert("Port", {
                         {"name", ovsdb::Datum::String(PortName(spec.port))},
                         {"port", ovsdb::Datum::Integer(spec.port)},
                         {"vlan_mode", ovsdb::Datum::String(
                                           spec.trunk ? "trunk" : "access")},
                         {"tag", ovsdb::Datum::Integer(spec.tag)},
                         {"trunks", ovsdb::Datum::Set(std::move(trunks))},
                     });
}

void InsertAcl(ovsdb::TxnBuilder& txn, const AclSpec& acl) {
  txn.Insert("AclRule",
             {
                 {"mac", ovsdb::Datum::Integer(static_cast<int64_t>(acl.mac))},
                 {"vlan", ovsdb::Datum::Integer(acl.vlan)},
                 {"allow", ovsdb::Datum::Boolean(acl.allow)},
             });
}

/// The seeded input generator.  It tracks the resident state itself, so
/// every generated operation is valid when replayed in order.
class Model {
 public:
  explicit Model(uint64_t seed) : rng_(seed) {
    std::vector<uint16_t> numbers(kPortSpace);
    for (uint16_t i = 0; i < kPortSpace; ++i) numbers[i] = i + 1;
    // The interpreter drops whatever egresses on BMv2's drop port.
    numbers.erase(std::find(numbers.begin(), numbers.end(), p4::kDropPort));
    std::shuffle(numbers.begin(), numbers.end(), rng_);
    for (size_t i = 0; i < numbers.size(); ++i) {
      if (i < kResidentPorts) {
        AddResident(RandomPort(numbers[i]));
      } else {
        free_.push_back(numbers[i]);
      }
    }
    while (acls_.size() < kAcls) acls_.push_back(RandomAcl());
  }

  const std::vector<PortSpec>& ports() const { return ports_; }
  const std::vector<AclSpec>& acls() const { return acls_; }

  PortSpec RandomPort(uint16_t number) {
    PortSpec spec;
    spec.port = number;
    if (Below(kTrunkEvery) == 0) {
      spec.trunk = true;
      std::vector<uint16_t> vlans(kVlans);
      for (int v = 0; v < kVlans; ++v) vlans[static_cast<size_t>(v)] = v + 1;
      std::shuffle(vlans.begin(), vlans.end(), rng_);
      std::copy_n(vlans.begin(), kTrunkVlans, spec.trunks.begin());
    } else {
      spec.tag = static_cast<uint16_t>(Below(kVlans) + 1);
    }
    return spec;
  }

  /// One port_churn change: retag 40%, port add/delete 50% (whichever keeps
  /// the resident count at 2,000), ACL add/delete 10% (likewise at 64).
  Op NextChurn() {
    Op op;
    double r = std::uniform_real_distribution<double>(0, 1)(rng_);
    if (r < 0.40) {
      size_t at;
      do {
        at = Below(ports_.size());
      } while (ports_[at].trunk);
      uint16_t tag;
      do {
        tag = static_cast<uint16_t>(Below(kVlans) + 1);
      } while (tag == ports_[at].tag);
      ports_[at].tag = tag;
      op.kind = Op::Kind::kRetag;
      op.port = ports_[at];
    } else if (r < 0.90) {
      bool add = ports_.size() < kResidentPorts ||
                 (ports_.size() == kResidentPorts && Below(2) == 0);
      if (add) {
        size_t at = Below(free_.size());
        uint16_t number = free_[at];
        free_[at] = free_.back();
        free_.pop_back();
        op.kind = Op::Kind::kAddPort;
        op.port = RandomPort(number);
        AddResident(op.port);
      } else {
        size_t at = Below(ports_.size());
        op.kind = Op::Kind::kDeletePort;
        op.port = ports_[at];
        free_.push_back(ports_[at].port);
        ports_[at] = ports_.back();
        ports_.pop_back();
      }
    } else {
      bool add = acls_.size() < kAcls ||
                 (acls_.size() == kAcls && Below(2) == 0);
      if (add) {
        op.kind = Op::Kind::kAddAcl;
        op.acl = RandomAcl();
        acls_.push_back(op.acl);
      } else {
        size_t at = Below(acls_.size());
        op.kind = Op::Kind::kDeleteAcl;
        op.acl = acls_[at];
        acl_macs_.erase(acls_[at].mac);
        acls_[at] = acls_.back();
        acls_.pop_back();
      }
    }
    return op;
  }

  /// A bulk block: 1,000 ports on 20001.. with the resident access/trunk
  /// mix and fresh VLAN choices.
  std::vector<PortSpec> NextBlock() {
    std::vector<PortSpec> block;
    block.reserve(kBlockPorts);
    for (size_t i = 0; i < kBlockPorts; ++i) {
      block.push_back(RandomPort(static_cast<uint16_t>(kBlockBase + i)));
    }
    return block;
  }

 private:
  size_t Below(size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng_);
  }

  void AddResident(const PortSpec& spec) { ports_.push_back(spec); }

  AclSpec RandomAcl() {
    AclSpec acl;
    do {
      // Locally administered unicast MACs, distinct so that no two rules
      // derive conflicting Acl entries for one key.
      acl.mac = 0x0a0000000000ULL | (rng_() & 0xffffffffffULL);
    } while (!acl_macs_.insert(acl.mac).second);
    acl.vlan = static_cast<uint16_t>(Below(kVlans) + 1);
    acl.allow = Below(2) == 0;
    return acl;
  }

  std::mt19937_64 rng_;
  std::vector<PortSpec> ports_;
  std::vector<uint16_t> free_;
  std::vector<AclSpec> acls_;
  std::unordered_set<uint64_t> acl_macs_;
};

std::function<void(ovsdb::TxnBuilder&)> Build(
    const Op& op, const std::vector<std::vector<PortSpec>>& blocks) {
  return [&op, &blocks](ovsdb::TxnBuilder& txn) {
    switch (op.kind) {
      case Op::Kind::kRetag:
        txn.Update("Port", ByName(op.port.port),
                   {{"tag", ovsdb::Datum::Integer(op.port.tag)}});
        break;
      case Op::Kind::kDeletePort:
        txn.Delete("Port", ByName(op.port.port));
        break;
      case Op::Kind::kAddPort:
        InsertPort(txn, op.port);
        break;
      case Op::Kind::kAddAcl:
        InsertAcl(txn, op.acl);
        break;
      case Op::Kind::kDeleteAcl:
        txn.Delete("AclRule",
                   {{"mac", "==",
                     ovsdb::Datum::Integer(static_cast<int64_t>(op.acl.mac))}});
        break;
      case Op::Kind::kInsertBlock:
        for (const PortSpec& spec : blocks[op.block]) InsertPort(txn, spec);
        break;
      case Op::Kind::kDeleteBlock:
        for (const PortSpec& spec : blocks[op.block]) {
          txn.Delete("Port", ByName(spec.port));
        }
        break;
    }
  };
}

uint64_t RowsOf(const Op& op) {
  return op.kind == Op::Kind::kInsertBlock || op.kind == Op::Kind::kDeleteBlock
             ? kBlockPorts
             : 1;
}

/// Which operations count as the workload's main and side classes.
bool IsSide(const Op& op, bool bulk) {
  return bulk ? op.kind == Op::Kind::kDeleteBlock
              : op.kind == Op::Kind::kDeletePort;
}

bool IsMain(const Op& op, bool bulk) {
  return bulk ? op.kind == Op::Kind::kInsertBlock : true;
}

Outcome RunManagement(const Options& options, bool bulk) {
  Outcome outcome;
  Model model(options.seed);
  std::unique_ptr<Tracer> tracer =
      options.trace ? std::make_unique<Tracer>() : nullptr;

  // --- Set-up: build the stack and load the resident state ---
  Samples setup_s;
  std::unique_ptr<Fixture> fixture;
  std::unique_ptr<Shadow> shadow;
  std::vector<std::vector<PortSpec>> blocks = {model.ports()};
  const std::vector<AclSpec> acls = model.acls();
  Op load_ports;
  load_ports.kind = Op::Kind::kInsertBlock;
  Reference reference(kDevices);
  Samples raw_setup_s;
  // Replaces `fixture` (and `shadow`) with a freshly loaded stack and
  // records the time it took, raw and at nominal machine speed.
  auto set_up = [&]() -> bool {
    shadow.reset();
    fixture.reset();
    double before = reference.Sample();
    int64_t start = MonotonicNanos();
    auto built = BuildFixture(kDevices, tracer.get());
    if (!built.ok()) {
      outcome.Fail("set-up: " + built.status().ToString());
      return false;
    }
    fixture = std::move(built).value();
    if (tracer != nullptr) {
      auto created = Shadow::Create(*fixture->stack, tracer.get());
      if (!created.ok()) {
        outcome.Fail("shadow: " + created.status().ToString());
        return false;
      }
      shadow = std::move(created).value();
    }
    Runner loader(fixture.get(), shadow.get(), tracer.get(), &outcome);
    bool traced = tracer != nullptr;
    bool failed = loader.Run(Build(load_ports, blocks), kResidentPorts, traced) < 0;
    failed |= loader.Run(
                  [&](ovsdb::TxnBuilder& txn) {
                    for (const AclSpec& acl : acls) InsertAcl(txn, acl);
                  },
                  kAcls, traced) < 0;
    if (failed) {
      outcome.Fail("set-up: loading the resident state failed");
      return false;
    }
    double seconds = static_cast<double>(MonotonicNanos() - start) * 1e-9;
    double after = reference.Sample();
    raw_setup_s.Add(seconds);
    setup_s.Add(seconds * Reference::kNominalUs / ((before + after) / 2));
    return true;
  };
  for (int i = 0; i < (options.trace ? 1 : kSetupsBefore); ++i) {
    if (!set_up()) return outcome;
  }
  const std::vector<PortSpec> resident = std::move(blocks[0]);
  blocks.clear();

  // --- Inputs, warm-up and the rest of the inputs ---
  std::vector<Op> ops;
  auto generate = [&](size_t count) {
    for (size_t i = 0; i < count; ++i) {
      if (bulk) {
        Op op;
        op.kind = ops.size() % 2 == 0 ? Op::Kind::kInsertBlock
                                      : Op::Kind::kDeleteBlock;
        if (op.kind == Op::Kind::kInsertBlock) blocks.push_back(model.NextBlock());
        op.block = static_cast<uint32_t>(blocks.size() - 1);
        ops.push_back(op);
      } else {
        ops.push_back(model.NextChurn());
      }
    }
  };
  Runner runner(fixture.get(), shadow.get(), tracer.get(), &outcome);
  if (tracer != nullptr) tracer->set_phase(Phase::kTimed);
  generate(bulk ? kBulkWarmup : kChurnWarmup);
  int64_t warm_start = MonotonicNanos();
  for (const Op& op : ops) {
    if (runner.Run(Build(op, blocks), RowsOf(op), false) < 0) {
      outcome.Fail("warm-up operation failed");
    }
  }
  double warm_rate = static_cast<double>(ops.size()) /
                     (static_cast<double>(MonotonicNanos() - warm_start) * 1e-9);
  // The loaded stack's footprint.  Taken before the timed inputs exist:
  // their size, and the intern pool's growth under churn, follow the run's
  // speed, so a later peak would reward a slower stack.
  double rss = PeakRssMib();
  size_t first_timed = ops.size();
  // Headroom for a machine that runs faster than it did in the warm-up.
  size_t timed = static_cast<size_t>(warm_rate * options.seconds * 2.5) + 8;
  generate(timed);
  std::printf("inputs: seed=%llu warm-up=%zu timed<=%zu\n",
              static_cast<unsigned long long>(options.seed), first_timed,
              ops.size() - first_timed);

  // --- Timed phase ---
  PrintResidentState("start", *fixture);
  nerpa::Controller::Stats stats_before = fixture->controller().stats();
  dlog::Engine::Stats engine_before;
  LayerInputs layers;
  if (tracer != nullptr) {
    engine_before = fixture->controller().engine().GetStats();
    SnapshotClients(*fixture, &layers.write_calls, &layers.updates,
                    &layers.multicast_calls, &layers.offthread);
  }
  Samples main_us, side_us, all_us, traced_us, untraced_us;
  double main_ns = 0;
  double main_rows = 0;
  double side_ns = 0;
  double side_rows = 0;
  uint64_t main_failed = 0, side_failed = 0;
  int64_t deadline =
      MonotonicNanos() + static_cast<int64_t>(options.seconds * 1e9);
  uint64_t interned_before = runner.interned();
  size_t next = first_timed;
  for (; next < ops.size() && MonotonicNanos() < deadline; ++next) {
    const Op& op = ops[next];
    // About one reference run per 5 ms of operations.
    if (tracer == nullptr) reference.Tick(bulk ? 1 : 64);
    // Pairs of changes alternate between traced and untraced, so that
    // bulk_reconfig traces inserts and deletes alike.
    bool traced = tracer != nullptr && (next - first_timed) / 2 % 2 == 0;
    double ns = runner.Run(Build(op, blocks), RowsOf(op), traced);
    ++outcome.attempted;
    bool main = IsMain(op, bulk);
    bool side = IsSide(op, bulk);
    if (ns < 0) {
      ++outcome.failed;
      main_failed += main;
      side_failed += side;
      continue;
    }
    double us = ns / 1e3;
    all_us.Add(us);
    (traced ? traced_us : untraced_us).Add(us);
    if (main) {
      main_us.Add(us, reference.window());
      main_ns += ns;
      main_rows += static_cast<double>(RowsOf(op));
    }
    if (side) {
      side_us.Add(us, reference.window());
      side_ns += ns;
      side_rows += static_cast<double>(RowsOf(op));
    }
  }
  if (next == ops.size()) {
    std::printf("note: inputs ran out before %.0fs elapsed\n", options.seconds);
  }
  PrintResidentState("end", *fixture);
  std::printf("rss: process peak %.1f MiB after the timed phase (inputs and "
              "samples included)\n",
              PeakRssMib());
  nerpa::Controller::Stats stats_after = fixture->controller().stats();
  if (tracer != nullptr) {
    layers.engine_after = fixture->controller().engine().GetStats();
    uint64_t w, u, m, o;
    SnapshotClients(*fixture, &w, &u, &m, &o);
    layers.write_calls = w - layers.write_calls;
    layers.updates = u - layers.updates;
    layers.multicast_calls = m - layers.multicast_calls;
    layers.offthread = o - layers.offthread;
  }

  // --- Correctness gates ---
  CheckRebuild(*fixture, &outcome);
  PacketCounters packets;
  ProbeFlooding(*fixture, kProbeVlans, tracer.get(), &packets, &outcome);

  // The rest of the set-up samples, half a minute after the first ones so
  // that one noisy second of the machine does not set the median.
  if (!options.trace) {
    blocks = {resident};
    for (int i = 0; i < kSetupsAfter; ++i) {
      if (!set_up()) return outcome;
    }
  }

  // --- Report ---
  const char* main_label = bulk ? "insert_txn" : "change";
  const char* side_label = bulk ? "delete_txn" : "port_delete";
  PrintLatency(main_label, main_us, main_failed);
  PrintLatency(side_label, side_us, side_failed);
  double failed_ratio = outcome.attempted == 0
                            ? 0
                            : static_cast<double>(outcome.failed) /
                                  static_cast<double>(outcome.attempted);
  if (bulk) {
    std::printf("insert_rows_per_s = %.1f rows/s (n=%zu)\n",
                main_ns > 0 ? main_rows / (main_ns * 1e-9) : 0,
                main_us.count());
    std::printf("delete_rows_per_s = %.1f rows/s (n=%zu)\n",
                side_ns > 0 ? side_rows / (side_ns * 1e-9) : 0,
                side_us.count());
  } else {
    std::printf("change_p50_us = %.3f us, change_p99_us = %.3f us (n=%zu)\n",
                all_us.Quantile(0.5), all_us.Quantile(0.99), all_us.count());
    std::printf("changes_per_s = %.1f 1/s\n",
                main_ns > 0 ? static_cast<double>(main_us.count()) /
                                  (main_ns * 1e-9)
                            : 0);
  }
  std::printf("failed_ops_ratio = %.6f (%llu of %llu)\n", failed_ratio,
              static_cast<unsigned long long>(outcome.failed),
              static_cast<unsigned long long>(outcome.attempted));
  std::printf("setup_s: n=%zu median=%.4fs; rss_mib = %.1f MiB (loaded)\n",
              raw_setup_s.count(), raw_setup_s.Quantile(0.5), rss);

  if (!options.trace) {
    PrintReference(reference);
    std::vector<double> scales = reference.Scales();
    outcome.Add("setup_s", setup_s.Quantile(0.5), "s");
    outcome.Add("op_p50_us", main_us.Scaled(scales).Quantile(0.5), "us");
    outcome.Add("side_p50_us", side_us.Scaled(scales).Quantile(0.5), "us");
    outcome.Add("rss_mib", rss, "MiB");
    return outcome;
  }
  layers.tracer = tracer.get();
  layers.shadow = shadow.get();
  layers.controller_before = stats_before;
  layers.controller_after = stats_after;
  layers.engine_before = engine_before;
  layers.timed_changes = outcome.attempted;
  layers.interned = runner.interned() - interned_before;
  layers.packets = packets;
  layers.traced_change_us = traced_us.mean();
  layers.untraced_change_us = untraced_us.mean();
  AddLayerMetrics(layers, &outcome);
  WriteTrace(options, *tracer);
  return outcome;
}

}  // namespace

Outcome RunPortChurn(const Options& options) {
  return RunManagement(options, /*bulk=*/false);
}

Outcome RunBulkReconfig(const Options& options) {
  return RunManagement(options, /*bulk=*/true);
}

}  // namespace perfbench
