// The Nerpa controller: the state-synchronization runtime that ties the
// three planes together (§3 "The Nerpa controller, in charge of state
// synchronization, installs the data from the controller output relations
// as entries in the programmable data plane tables").
//
// Data flow per management-plane transaction (all synchronous in-process,
// mirroring the prototype's event loop):
//
//   OVSDB commit -> monitor delta -> Datalog input delta -> incremental
//   transaction -> output delta -> P4Runtime writes (per device: one Write
//   of deletes, the multicast group reprograms, one Write of inserts)
//
// and the feedback loop (§4.2):
//
//   data-plane digest -> Datalog input insert -> incremental transaction
//   -> table writes (e.g. MAC learning)
#ifndef NERPA_NERPA_CONTROLLER_H_
#define NERPA_NERPA_CONTROLLER_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/retry.h"
#include "common/status.h"
#include "common/watchdog.h"
#include "dlog/engine.h"
#include "nerpa/bindings.h"
#include "ovsdb/database.h"
#include "p4/runtime.h"

namespace nerpa {

/// Replication role of one controller in a hot-standby pair (src/ha's
/// leader lease elects the leader; the epoch is the fencing token).
///   kLeader:    owns the data plane — the only role that writes devices.
///   kFollower:  runs the full control plane hot (engine, multicast
///               bookkeeping, monitor deltas) but never writes; ready to
///               promote with a minimal-diff resync.
///   kCandidate: transient, during Promote() — devices are being fenced
///               and resynchronized but leadership is not yet assumed.
enum class Role { kLeader, kFollower, kCandidate };
const char* RoleName(Role role);

class Controller {
 public:
  /// Per-device circuit breaker (closed → open → half-open).  Retry
  /// handles the transient blip; the breaker handles the device that
  /// stays dead past the retry budget.  A write that exhausts Options::retry
  /// — or succeeds slower than write_timeout_nanos — is a *strike*; at
  /// strike_threshold the breaker opens and the device is quarantined:
  /// its pending writes are recorded in a per-device outbox (bounded: one
  /// slot per entry identity / multicast group) instead of failing the
  /// delta, so one dead switch never stalls or aborts the others.
  /// RunAntiEntropy() probes quarantined devices once their cooldown
  /// elapses (half-open) and replays the minimal resync diff on rejoin.
  struct BreakerPolicy {
    bool enabled = false;
    /// Consecutive strikes before the breaker opens.
    int strike_threshold = 1;
    /// Quiet period before an open breaker admits an anti-entropy probe;
    /// doubles after each failed probe, up to 1 s.
    int64_t cooldown_nanos = 0;
    /// A *successful* write call slower than this counts as a strike
    /// (slow device ≠ healthy device); 0 disables timeout strikes.  It
    /// budgets one call — a commit's whole delete or insert phase for the
    /// device, or one group reprogram — not one update.  Distinct from
    /// write failures in Stats (slow_writes vs write_failures).
    int64_t write_timeout_nanos = 0;
  };

  struct Options {
    /// Engine checkpoint blob (from CheckpointEngine(), persisted through
    /// ha::DurableStore::WriteEngineCheckpoint) to warm-start from.  When
    /// non-empty, Start() restores the Datalog engine from it instead of
    /// recomputing every derivation from scratch; the first monitor
    /// snapshot is then applied as a reconciliation diff (stale rows
    /// deleted, new rows inserted), so management-plane changes that
    /// happened after the checkpoint still take effect.  Digest-derived
    /// state (e.g. learned MACs) survives intact.  A blob the engine
    /// rejects — wrong program fingerprint, corruption — is logged and
    /// ignored: Start() falls back to a cold start, never fails.
    std::string engine_checkpoint;

    /// Data-plane write retries.  With the default max_attempts = 1 a
    /// failed write surfaces immediately (the pre-HA behaviour); recovery
    /// deployments raise it so transient device faults (see
    /// ha::FaultyRuntimeClient) are retried instead of aborting the whole
    /// delta.
    RetryPolicy retry;

    BreakerPolicy breaker;

    /// Replication role at Start().  Followers track everything but write
    /// nothing (and never drain digests — those are consumed destructively
    /// and belong to the leader); Promote() turns a follower into the
    /// leader.  Default preserves the single-controller behaviour.
    Role initial_role = Role::kLeader;

    /// Initial fencing token (leader-lease epoch) stamped on every device
    /// client.  0 = unfenced single-controller deployment.
    uint64_t fence_epoch = 0;

    /// Per-commit data-plane dispatch budget (0 = unbounded, the old
    /// behaviour).  Each management-plane delta mints one deadline when
    /// its engine transaction commits; the device batches, run one after
    /// another, check it before every write call, and writes left when it
    /// expires are parked in their device's outbox for anti-entropy to
    /// drain — so a device that stalls past the budget parks the later
    /// devices' writes too.  The commit stops consuming the plane lock, but
    /// no write is dropped.
    int64_t commit_deadline_nanos = 0;

    /// Optional shared watchdog (not owned): the commit path beats
    /// "controller.commit" per processed delta so a supervisor can tell a
    /// wedged engine from an idle one.
    Watchdog* watchdog = nullptr;
  };

  /// The database and runtime clients must outlive the controller.
  /// `p4_program` is the (validated) data-plane program the bindings were
  /// generated from; all registered devices must run it.
  Controller(ovsdb::Database* db,
             std::shared_ptr<const dlog::Program> program,
             std::shared_ptr<const p4::P4Program> p4_program,
             Bindings bindings, Options options);
  // Default-options overload (an `Options options = {}` default argument
  // would need the nested struct's member initializers before Controller
  // is complete, which [class.mem] disallows).
  Controller(ovsdb::Database* db,
             std::shared_ptr<const dlog::Program> program,
             std::shared_ptr<const p4::P4Program> p4_program,
             Bindings bindings);
  ~Controller();

  Controller(const Controller&) = delete;
  Controller& operator=(const Controller&) = delete;

  /// Registers a data-plane device.  With device-column bindings the name
  /// routes entries; without, every entry is installed on every device.
  /// After Start() this is the "device (re)joined" path: the new device is
  /// immediately resynchronized against the current desired state (a
  /// rebooted switch arrives empty and receives everything; a switch that
  /// kept its tables across a controller restart receives only the diff).
  Status AddDevice(std::string name, p4::RuntimeClient* client);

  /// Reconciles one registered device against the desired state derived
  /// from the output relations: reads its tables and multicast groups,
  /// then applies the minimal delete/modify/insert set.  No-op writes-wise
  /// when the device is already converged.
  Status ResyncDevice(const std::string& name);

  /// Type-checks the program against the bindings and subscribes to the
  /// management plane, absorbing its current contents with device writes
  /// deferred.  A leader then reconciles every device with the minimal-diff
  /// resync; a follower leaves that to Promote().  Call after AddDevice().
  Status Start();

  /// Drains digests from every device through the control plane.  Returns
  /// the first error, if any.  (In-process stand-in for the P4Runtime
  /// digest stream.)
  Status SyncDataPlaneNotifications();

  // --- Replication role machine (hot-standby failover) ---

  Role role() const { return role_.load(std::memory_order_acquire); }

  /// Follower → leader.  Stamps `epoch` (the freshly-acquired lease epoch)
  /// as the fencing token on every device client — which simultaneously
  /// raises each switch's fence high-water mark, locking the old leader
  /// out — then reconciles every device with the minimal-diff resync.
  /// On success the controller is leader; on failure it returns to
  /// follower (and the caller should release the lease).  Calling on a
  /// current leader just raises the fencing token.
  Status Promote(uint64_t epoch);

  /// Leader → follower, immediately and without blocking: the in-flight
  /// commit observes the flip at its next per-call check and aborts its
  /// remaining batches (nothing partial is retried, and nothing is parked
  /// for a device the next leader now owns).  Safe to call from any
  /// thread, including from inside the write path — a fenced-out write
  /// self-demotes through here.
  void Demote();

  /// Follower hot-reload: replaces the engine with the leader's checkpoint
  /// blob (CheckpointEngine() output shipped via ha::DurableStore engine
  /// sidecars), reseeds the multicast bookkeeping, and reconciles the
  /// restored inputs against the current database contents so the follower
  /// stays hot no matter how stale the checkpoint.  Leader refuses.
  Status ReloadEngineCheckpoint(const std::string& checkpoint);

  /// One anti-entropy round: every quarantined device whose cooldown has
  /// elapsed goes half-open and is probed with a full resynchronization
  /// (the minimal read/diff/write set, which subsumes its outbox).  A
  /// device that answers rejoins (breaker closes, outbox cleared); one
  /// that doesn't returns to open with an escalated cooldown.  Never
  /// fails because of a still-dead device.
  Status RunAntiEntropy();

  struct Stats {
    uint64_t ovsdb_updates = 0;
    uint64_t dlog_txns = 0;
    uint64_t entries_inserted = 0;
    uint64_t entries_deleted = 0;
    uint64_t multicast_updates = 0;
    uint64_t digests = 0;
    uint64_t errors = 0;
    // --- HA: resynchronization ---
    uint64_t resyncs = 0;           // devices reconciled
    uint64_t resync_reads = 0;      // ReadTable/ReadMulticastGroups calls
    uint64_t resync_inserted = 0;   // missing entries installed
    uint64_t resync_deleted = 0;    // stale entries removed
    uint64_t resync_modified = 0;   // entries with wrong action repaired
    // --- HA: retry/backoff ---
    uint64_t retries = 0;           // re-attempted write calls
    uint64_t write_failures = 0;    // calls that exhausted all attempts
    /// Retries refused because the shared write-retry budget ran dry (the
    /// data plane is failing faster than it succeeds; fail fast and let
    /// the breaker/anti-entropy own recovery).
    uint64_t retry_budget_exhausted = 0;
    /// Writes parked in a device outbox because the commit deadline expired
    /// mid-batch (drained later by anti-entropy, never dropped).
    uint64_t deadline_parks = 0;
    /// Per-device count of failed write calls (including retried ones).
    std::map<std::string, uint64_t> device_failures;
    // --- robustness: circuit breakers ---
    uint64_t slow_writes = 0;       // successful calls over the timeout
    uint64_t breaker_trips = 0;     // closed → open transitions
    uint64_t breaker_probes = 0;    // half-open resync attempts
    uint64_t breaker_rejoins = 0;   // probes that closed the breaker
    uint64_t outbox_coalesced = 0;  // writes absorbed while quarantined
    uint64_t outbox_repairs = 0;    // closed-breaker devices resynced by
                                    // anti-entropy to drain a non-empty outbox
    /// Device → "closed" | "open" | "half-open".
    std::map<std::string, std::string> breaker_states;
    /// Device → coalesced writes currently pending in its outbox.
    std::map<std::string, uint64_t> outbox_sizes;
    // --- HA: engine checkpoint warm start ---
    uint64_t engine_restores = 0;           // engines loaded from checkpoint
    uint64_t engine_restore_rejections = 0; // blobs rejected (cold-started)
    uint64_t catchup_deletes = 0;           // stale input rows reconciled away
    // --- robustness: hot-standby replication ---
    uint64_t promotions = 0;                // follower → leader transitions
    uint64_t demotions = 0;                 // leader → follower transitions
    uint64_t fenced_writes_rejected = 0;    // writes refused for stale epoch
  };
  /// Snapshot of the counters (thread-safe against the commit path).
  Stats stats() const;

  /// Always 0: digests carry no sequence number (a keyed input keeps the
  /// newest row per key).  Stays until perfbench stops reading it.
  int64_t digest_seq() const { return 0; }

  /// Serializes the Datalog engine's derived state (between transactions)
  /// for Options::engine_checkpoint on the next start.  Persist it through
  /// ha::DurableStore::WriteEngineCheckpoint alongside the management-plane
  /// snapshot.
  Result<std::string> CheckpointEngine();

  /// First error hit inside a monitor callback (callbacks cannot return
  /// Status); ok() if none.  Snapshot under the stats lock: callbacks may
  /// set it from the service thread.
  Status last_error() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return last_error_;
  }

  /// The underlying engine (introspection in tests/benches).
  dlog::Engine& engine() { return *engine_; }

 private:
  enum class BreakerState { kClosed, kOpen, kHalfOpen };

  /// A group reprogram: its final members in multicast_members_ (unchanged
  /// while the delta's batches run), or nullptr if the delta emptied it.
  struct GroupWrite {
    uint32_t group = 0;
    const std::vector<uint64_t>* members = nullptr;
  };

  struct Device {
    std::string name;
    p4::RuntimeClient* client;
    // --- circuit breaker (guarded by stats_mu_) ---
    BreakerState breaker = BreakerState::kClosed;
    int strikes = 0;
    int64_t cooldown_until_nanos = 0;
    int64_t next_cooldown_nanos = 0;
    /// What the parked writes touch: (table, entry key), or ("", {group})
    /// for a multicast group.  Bounded by the device's table footprint no
    /// matter how long the outage lasts.  The resync that drains it
    /// rederives every write from the engine, so no op is kept.
    std::set<std::pair<std::string, p4::MatchKey>> outbox;
  };

  /// A delta's writes for one device in P4Runtime's dependency order: its
  /// table deletes, its group reprograms (a group exists before the
  /// inserts that flood to it and empties after the deletes that used it),
  /// its table inserts.  Each table phase goes as one Write; a write
  /// erases what the device applied, so what is left is unapplied.
  struct DeviceBatch {
    Device* device = nullptr;
    std::vector<p4::Update> deletes;
    std::vector<GroupWrite> groups;
    std::vector<p4::Update> inserts;
  };

  void OnOvsdbUpdate(const ovsdb::TableUpdates& updates);
  Status ProcessOvsdbUpdates(const ovsdb::TableUpdates& updates);
  /// Restored-engine catch-up: queues deletes for input rows the restored
  /// engine holds that the first monitor snapshot no longer contains
  /// (management-plane deletions that happened after the checkpoint).
  /// Inserts need no special handling — re-inserting a present row is a
  /// set-semantics no-op.
  Status QueueRestoredCatchUp(const ovsdb::TableUpdates& updates);
  Status ApplyOutputDelta(const dlog::TxnDelta& delta);
  /// Updates multicast membership bookkeeping and appends the resulting
  /// group reprograms to the per-device batches.
  Status ApplyMulticastDelta(const dlog::SetDelta& delta,
                             std::vector<DeviceBatch>& batches);
  /// Moves a table write into the batches of every targeted device (an
  /// unrouted entry is copied for every device after the first).
  Status StageEntry(std::vector<DeviceBatch>& batches,
                    const std::string& device, p4::UpdateType type,
                    p4::TableEntry entry);
  /// Executes one device's batch, checking the deadline, demotion and the
  /// breaker before each call.  What is left when `deadline` expires or
  /// the breaker is open is parked in the device outbox.
  Status ExecuteBatch(DeviceBatch& batch, const Deadline& deadline);
  /// Sends one phase of table updates to `device` as one Write, retrying a
  /// transient failure with only the unapplied suffix.  Erases what the
  /// device applied and counts it in `stats_.*applied`.  No call when
  /// `updates` is empty.
  Status WriteUpdates(Device& device, std::vector<p4::Update>& updates,
                      uint64_t Stats::*applied);
  /// Reprograms one group (nullptr: no members), counted in `*applied`.
  Status WriteGroup(Device& device, uint32_t group,
                    const std::vector<uint64_t>* members,
                    uint64_t Stats::*applied);
  /// One call's attempt loop under the retry policy: `call(applied)`
  /// writes to `device` and adds what it applied to `applied`.  The applied
  /// count, failure counters and breaker strikes merge into the stats under
  /// one stats_mu_ acquisition; each retry takes it once more.
  template <typename Call>
  Status WriteWithRetry(Device& device, uint64_t Stats::*applied, Call&& call);
  /// Records one breaker strike; opens the breaker at the threshold.
  /// Caller holds stats_mu_.
  void StrikeLocked(Device& device);
  /// Moves the open breaker's cooldown forward (called after a trip or a
  /// failed probe).  Caller holds stats_mu_.
  void EscalateCooldownLocked(Device& device);
  /// Forces the breaker open (used when a rejoin resync fails).  Caller
  /// holds stats_mu_.
  void QuarantineLocked(Device& device);
  /// Records in the device outbox the identities of what is left of
  /// `batch`: its unapplied updates and `groups`.  Returns how many writes
  /// that is.
  size_t Park(const DeviceBatch& batch, std::span<const GroupWrite> groups);
  /// Half-open probe of one quarantined device (resync; close on
  /// success, reopen with escalated cooldown on failure).
  void ProbeDevice(Device& device);
  Status ResyncDeviceImpl(Device& device);
  /// Reconciles every registered device on the calling thread, in
  /// registration order.
  Status ResyncAllDevices();
  /// Installs an engine restored from a checkpoint: counts it, reseeds the
  /// multicast bookkeeping and arms the catch-up.
  /// Caller holds sync_mu_ (or is in Start()).
  Status AdoptRestoredEngine(std::unique_ptr<dlog::Engine> engine);
  /// Stamps `epoch` on every device client.  Caller holds sync_mu_ (or is
  /// in single-threaded setup before Start()).
  void SetFenceTokensLocked(uint64_t epoch);
  /// Presents the stamped token to every switch (P4Runtime arbitration
  /// analog) so their fence high-water marks rise before any write.
  /// Caller holds sync_mu_.
  Status ArbitrateAllLocked();

  ovsdb::Database* db_;
  std::shared_ptr<const dlog::Program> program_;
  std::shared_ptr<const p4::P4Program> p4_program_;
  Bindings bindings_;
  Options options_;
  std::unique_ptr<dlog::Engine> engine_;
  std::vector<Device> devices_;
  uint64_t monitor_id_ = 0;
  bool started_ = false;
  // Set while Start() absorbs the initial state: desired state accumulates
  // in the engine, and the startup resync writes the devices.
  bool suppress_writes_ = false;
  // Set by AdoptRestoredEngine; consumed by the next ProcessOvsdbUpdates
  // to run the catch-up reconciliation.
  bool reconcile_restored_ = false;
  /// Replication role.  Atomic so the write path can observe a demotion
  /// mid-batch without taking sync_mu_: Demote() runs from any thread,
  /// and from inside a commit that already holds the plane lock.
  std::atomic<Role> role_{Role::kLeader};
  /// Current fencing token (lease epoch) stamped on device clients.
  std::atomic<uint64_t> fence_epoch_{0};
  // (device, group) -> member ports, for multicast reprogramming.
  std::map<std::pair<std::string, uint32_t>, std::vector<uint64_t>>
      multicast_members_;
  /// Plane lock: serializes engine, bookkeeping and device access between
  /// the update paths (monitor callback, digest drain), anti-entropy and
  /// the role machine.
  std::mutex sync_mu_;
  mutable std::mutex stats_mu_;  // guards stats_ + breaker state + last_error_
  Stats stats_;
  Status last_error_;
  /// One budget for every device's write retries (see common/retry.h):
  /// healthy writes deposit, each retry withdraws.  Thread-safe itself;
  /// kept outside stats_mu_ to avoid lock nesting in the write path.
  RetryBudget write_retry_budget_{32.0, 0.1};
  /// Jitter state for breaker cooldowns (guarded by stats_mu_, like the
  /// breaker fields it randomizes).
  uint64_t breaker_rng_ = 0x9e3779b97f4a7c15ULL;
};

}  // namespace nerpa

#endif  // NERPA_NERPA_CONTROLLER_H_
