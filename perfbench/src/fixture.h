// The stack under test, its shadow replica for the traced run, the
// correctness gates and the per-layer metric assembly shared by the
// workloads.
#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "dlog/engine.h"
#include "nerpa/controller.h"
#include "net/packet.h"
#include "ovsdb/database.h"
#include "p4/interpreter.h"
#include "report.h"
#include "snvs/snvs.h"
#include "trace.h"

namespace perfbench {

namespace dlog = nerpa::dlog;
namespace net = nerpa::net;
namespace ovsdb = nerpa::ovsdb;

/// Command-line options every workload receives.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;  // where the traced run writes its spans
};

/// The snvs stack over switches the benchmark owns, so it can drive
/// Switch::ProcessPacket directly and (traced run) interpose TimingClients
/// through SnvsOptions::external_clients.
struct Fixture {
  std::vector<std::unique_ptr<p4::Switch>> switches;
  std::vector<std::unique_ptr<p4::RuntimeClient>> clients;
  std::vector<TimingClient*> timing;  // same objects, traced run only
  std::unique_ptr<nerpa::snvs::SnvsStack> stack;  // last: destroyed first

  nerpa::Controller& controller() { return stack->controller(); }
  ovsdb::Database& db() { return stack->db(); }
};

/// An untagged IPv4 Ethernet frame of `size` bytes (zero payload).
net::Packet MakeFrame(uint64_t dst, uint64_t src, size_t size);

/// Builds an empty stack with `devices` switches.  With a tracer the
/// clients are TimingClients registered with it.
nerpa::Result<std::unique_ptr<Fixture>> BuildFixture(int devices,
                                                     Tracer* tracer);

/// Runs `build` on a transaction for the stack's database and commits it.
nerpa::Status CommitTxn(ovsdb::Database& db,
                        const std::function<void(ovsdb::TxnBuilder&)>& build);

/// Failure accounting for one operation: a non-ok status, a controller
/// last_error() that turned non-ok, or a rise in the controller's errors,
/// write_failures or retries.
class FailureWatch {
 public:
  explicit FailureWatch(nerpa::Controller* controller);
  /// True when the operation that just ended failed by any of the rules.
  bool Failed(const nerpa::Status& status);

 private:
  uint64_t Troubles() const;

  nerpa::Controller* controller_;
  bool last_error_ok_ = true;
  uint64_t troubles_ = 0;
};

/// A replica of the control plane outside the controller, fed the same
/// management transactions and digests, whose calls into ovsdb, the row
/// and entry conversions and dlog are timed as replayed spans.  Its output
/// predicts exactly which writes every device must receive.
class Shadow {
 public:
  static nerpa::Result<std::unique_ptr<Shadow>> Create(
      const nerpa::snvs::SnvsStack& stack, Tracer* tracer);

  /// Replays one transaction; `expected` receives the canonical sorted
  /// writes (as TimingClient::TakeWrites reports them) of one device.
  nerpa::Status ReplayTxn(const std::function<void(ovsdb::TxnBuilder&)>& build,
                          uint64_t rows, std::vector<std::string>* expected);
  /// Replays digest-fed input rows (already converted by DigestToDlog).
  nerpa::Status ReplayInputs(const std::string& relation,
                             std::vector<dlog::Row> rows,
                             std::vector<std::string>* expected);

  /// Per-phase counters of the traced replays.
  struct Counters {
    uint64_t txns = 0;
    uint64_t txn_rows = 0;
    uint64_t monitor_rows = 0;
    uint64_t commits = 0;
    uint64_t output_rows = 0;
  };
  const Counters& counters(Phase phase) const {
    return counters_[static_cast<size_t>(phase)];
  }

 private:
  /// One queued engine input, in the controller's order.
  struct Input {
    const std::string* relation;
    dlog::Row row;
    bool insert;
  };

  Shadow() = default;
  /// Commits pending_ to the engine and converts the output delta.
  nerpa::Status Evaluate(std::vector<std::string>* expected);

  Tracer* tracer_ = nullptr;
  std::unique_ptr<ovsdb::Database> db_;
  std::unique_ptr<dlog::Engine> engine_;
  std::shared_ptr<const p4::P4Program> p4_;
  nerpa::Bindings bindings_;
  ovsdb::TableUpdates captured_;
  std::vector<Input> pending_;
  std::map<uint32_t, std::vector<uint64_t>> groups_;  // multicast model
  Counters counters_[static_cast<size_t>(Phase::kCount)];
};

/// Runs management transactions against the live stack and, in the
/// traced run, replays each one on the shadow and checks that every device
/// received exactly the writes the shadow engine's output implies.
class Runner {
 public:
  Runner(Fixture* fixture, Shadow* shadow, Tracer* tracer, Outcome* outcome)
      : fixture_(fixture),
        shadow_(shadow),
        tracer_(tracer),
        outcome_(outcome),
        watch_(&fixture->controller()) {}

  /// Commits one transaction (traced as one change when `traced`); returns
  /// its latency in ns, or -1 if the operation failed.
  double Run(const std::function<void(ovsdb::TxnBuilder&)>& build,
             uint64_t rows, bool traced);

  /// Intern-pool growth inside the live commits (traced run only).
  uint64_t interned() const { return interned_; }

 private:
  Fixture* fixture_;
  Shadow* shadow_;
  Tracer* tracer_;
  Outcome* outcome_;
  FailureWatch watch_;
  uint64_t changes_ = 0;
  uint64_t interned_ = 0;
};

/// Prints ports, Dmac entries, MacLearn rows and interned dlog strings
/// (the intern pool never evicts) of the live stack.
void PrintResidentState(const char* when, Fixture& fixture);

/// The management-plane gate: a fresh stack built from the final OVSDB
/// rows must hold byte-identical tables and multicast groups on every
/// switch, and resynchronizing the live stack must not write anything.
void CheckRebuild(Fixture& live, Outcome* outcome);

/// Data-plane counters of ProcessPacket calls.
struct PacketCounters {
  uint64_t frames = 0;
  double total_ns = 0;
  uint64_t replicas = 0;
  uint64_t floods = 0;
  uint64_t digests = 0;
};

/// Floods one broadcast from a fresh MAC on an access port of up to
/// `vlans` VLANs of switch 0, checks it leaves on every other port of its
/// VLAN, then syncs the digest and checks the learned Dmac entry.  Traced
/// as changes of the probe phase when a tracer is given.
void ProbeFlooding(Fixture& fixture, int vlans, Tracer* tracer,
                   PacketCounters* counters, Outcome* outcome);

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  const Tracer* tracer = nullptr;
  const Shadow* shadow = nullptr;
  nerpa::Controller::Stats controller_before, controller_after;
  dlog::Engine::Stats engine_before, engine_after;
  uint64_t timed_changes = 0;  // traced and untraced
  uint64_t interned = 0;  // intern-pool growth inside the live calls
  // TimingClient counters over the timed phase, all devices.
  uint64_t write_calls = 0, updates = 0, multicast_calls = 0, offthread = 0;
  PacketCounters packets;
  double traced_change_us = 0;
  double untraced_change_us = 0;
};

/// Appends every per-layer metric and prints the stage breakdown.
void AddLayerMetrics(const LayerInputs& in, Outcome* outcome);

/// Strings and tuples in dlog's process-wide intern pool.  The shadow
/// interns too, so per-change growth is read around the live calls only.
uint64_t InternedValues();

/// Sums the TimingClient counters of all devices.
void SnapshotClients(const Fixture& fixture, uint64_t* write_calls,
                     uint64_t* updates, uint64_t* multicast_calls,
                     uint64_t* offthread);

/// Writes the tracer's archived spans under options.trace_dir.
void WriteTrace(const Options& options, const Tracer& tracer);

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
