// Hot-standby snvs deployment: two controller replicas over one shared
// management plane and one shared set of switches.
//
//   * Both replicas run the full control plane hot (engine, multicast
//     bookkeeping, monitor deltas); only the leader writes devices.
//   * Leadership is a `Leader_Lease` row in the shared OVSDB
//     (ha::LeaseManager); the lease epoch is the fencing token stamped on
//     every data-plane write, so a deposed leader's in-flight writes are
//     rejected by the switches themselves (Switch::CheckFence) no matter
//     how stale its view of the lease is.
//   * The standby warm-loads the leader's engine checkpoints (SyncStandby)
//     so digest-derived state — learned MACs — survives a failover instead
//     of being re-learned from scratch.
//
// Everything is deterministic: Tick() pumps both replicas' lease
// coordinators in index order, and the lease clock is injectable, so tests
// and bench_failover can freeze or jump time to force expiry.
#ifndef NERPA_SNVS_HA_PAIR_H_
#define NERPA_SNVS_HA_PAIR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/watchdog.h"
#include "ha/durable.h"
#include "ha/fault.h"
#include "ha/lease.h"
#include "nerpa/controller.h"
#include "net/packet.h"
#include "ovsdb/database.h"
#include "p4/runtime.h"
#include "snvs/snvs.h"

namespace nerpa::snvs {

struct SnvsHaOptions {
  int devices = 1;

  /// When set, the shared management plane (including the Leader_Lease
  /// table) is durable under this directory; engine checkpoints persist as
  /// sidecars.  Empty = in-memory shared database (pure failover tests).
  std::string ha_dir;

  /// All ha_dir disk access goes through this Io (nullptr = the real
  /// filesystem); the chaos harness injects a corrupting ChaosIo here.
  ha::Io* io = nullptr;

  /// Write retry / circuit-breaker policy, applied to both replicas.
  RetryPolicy retry;
  Controller::BreakerPolicy breaker;

  /// Fault injection for the data plane.  Each replica gets its *own*
  /// FaultyRuntimeClient per switch (decorrelated seeds), matching the
  /// deployment reality that each controller has its own P4Runtime
  /// channel to each device.
  ha::FaultPolicy fault;

  /// Leader lease TTL.
  int64_t lease_ttl_nanos = 500'000'000;

  /// Injectable lease clock shared by both replicas (null = MonotonicNanos).
  /// Tests drive failover by jumping this past the expiry.
  std::function<int64_t()> clock;

  /// Optional shared watchdog (not owned).  Both controllers beat
  /// "controller.commit"; with a durable ha_dir the WAL arms
  /// "snvs.wal" around each append with `wal_stuck_timeout_nanos`, and
  /// Tick() self-demotes a leader whose WAL is stuck — it can no longer
  /// durably acknowledge commits, so handing off to the healthy standby
  /// beats limping along un-durable.
  Watchdog* watchdog = nullptr;
  int64_t wal_stuck_timeout_nanos = 2'000'000'000;

  /// Per-delta dispatch deadline forwarded to both controllers
  /// (Controller::Options::commit_deadline_nanos; 0 = unbounded).
  int64_t commit_deadline_nanos = 0;
};

/// A dual-controller snvs deployment (replica 0 and replica 1).
class SnvsHaPair : public SnvsManagement {
 public:
  static constexpr size_t kReplicas = 2;

  ha::DurableStore* store() { return store_.get(); }
  p4::Switch& device(size_t index = 0) { return *switches_[index]; }
  size_t device_count() const { return switches_.size(); }
  Controller& controller(size_t replica) {
    return *replicas_[replica].controller;
  }
  ha::LeaseManager& lease(size_t replica) { return *replicas_[replica].lease; }
  ha::LeaseCoordinator& coordinator(size_t replica) {
    return *replicas_[replica].coordinator;
  }
  /// Replica `replica`'s fault decorator for device `device`; nullptr when
  /// fault injection is off.
  ha::FaultyRuntimeClient* faulty(size_t replica, size_t device = 0);

  /// The current leader's replica index, or -1 when no replica leads
  /// (mid-failover, or before the first Tick()).  Derived from controller
  /// roles, not lease rows — a zombie that *believes* it leads counts
  /// until fencing demotes it.
  int leader() const;

  /// One scheduling quantum: pumps both replicas' lease coordinators in
  /// index order (leaders renew, followers try to acquire — acquisition
  /// runs Controller::Promote, which fences and resyncs).  When a
  /// watchdog is attached and the WAL is stuck, the leader steps down
  /// first (see SnvsHaOptions::watchdog).  Returns leader() afterwards.
  int Tick();

  /// Leader self-demotions triggered by a stuck WAL (see Tick()).
  uint64_t wal_demotions() const { return wal_demotions_; }

  /// Leader checkpoint: serializes the leader's engine (persisting the
  /// management-plane snapshot + sidecar when durable) and retains the
  /// blob in memory for SyncStandby().
  Status Checkpoint();

  /// Ships the latest Checkpoint() blob to every follower via
  /// Controller::ReloadEngineCheckpoint — the warm-standby path that
  /// carries learned MACs across a failover.  No-op when no checkpoint
  /// has been taken yet.
  Status SyncStandby();

  /// Crash-and-rebuild replica `replica` as a follower: its controller,
  /// clients, lease manager, and coordinator are destroyed (without
  /// releasing any held lease — crash semantics) and rebuilt cold, warm-
  /// started from the last checkpoint blob when one exists.
  Status RestartReplica(size_t replica);

  /// Injects a packet on `device`/`port`, then pumps the digest feedback
  /// loop through the current leader (digests queue in the switch when no
  /// replica leads — the next leader drains them).
  Result<std::vector<p4::PacketOut>> InjectPacket(size_t device,
                                                  uint64_t port,
                                                  const net::Packet& packet);

 private:
  friend Result<std::unique_ptr<SnvsHaPair>> BuildSnvsHaPair(
      const SnvsHaOptions& options);
  SnvsHaPair() = default;

  struct Replica {
    std::string id;
    std::vector<std::unique_ptr<p4::RuntimeClient>> clients;
    std::unique_ptr<Controller> controller;
    std::unique_ptr<ha::LeaseManager> lease;
    std::unique_ptr<ha::LeaseCoordinator> coordinator;
  };

  /// Builds (or rebuilds) one replica's controller + clients + lease
  /// machinery.  `warm_checkpoint` non-empty = warm-start the engine.
  Status BuildReplica(size_t index, const std::string& warm_checkpoint);

  /// First error recorded by any replica's controller (both react to
  /// every management-plane commit).
  Status ControllerError() const override;

  SnvsHaOptions options_;
  std::unique_ptr<ha::DurableStore> store_;  // owns db when durable
  std::unique_ptr<ovsdb::Database> db_;      // owns db when not durable
  std::shared_ptr<const p4::P4Program> p4_;
  std::vector<std::unique_ptr<p4::Switch>> switches_;  // shared data plane
  Bindings bindings_;
  std::shared_ptr<const dlog::Program> program_;
  std::string program_text_;
  std::string last_engine_checkpoint_;  // latest Checkpoint() blob
  uint64_t wal_demotions_ = 0;          // stuck-WAL self-demotions
  Replica replicas_[kReplicas];
};

/// Builds a dual-controller deployment.  Both replicas start as followers;
/// the first Tick() elects replica 0 (deterministically — it ticks first).
Result<std::unique_ptr<SnvsHaPair>> BuildSnvsHaPair(
    const SnvsHaOptions& options = {});

}  // namespace nerpa::snvs

#endif  // NERPA_SNVS_HA_PAIR_H_
