#include "nerpa/controller.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <set>
#include <thread>

#include "common/clock.h"
#include "common/log.h"

namespace nerpa {

const char* RoleName(Role role) {
  switch (role) {
    case Role::kLeader: return "leader";
    case Role::kFollower: return "follower";
    case Role::kCandidate: return "candidate";
  }
  return "unknown";
}

Controller::Controller(ovsdb::Database* db,
                       std::shared_ptr<const dlog::Program> program,
                       std::shared_ptr<const p4::P4Program> p4_program,
                       Bindings bindings, Options options)
    : db_(db),
      program_(std::move(program)),
      p4_program_(std::move(p4_program)),
      bindings_(std::move(bindings)),
      options_(std::move(options)) {
  role_.store(options_.initial_role, std::memory_order_release);
  fence_epoch_.store(options_.fence_epoch, std::memory_order_release);
}

Controller::Controller(ovsdb::Database* db,
                       std::shared_ptr<const dlog::Program> program,
                       std::shared_ptr<const p4::P4Program> p4_program,
                       Bindings bindings)
    : Controller(db, std::move(program), std::move(p4_program),
                 std::move(bindings), Options()) {}

Controller::~Controller() {
  if (monitor_id_ != 0) db_->RemoveMonitor(monitor_id_);
}

Status Controller::AddDevice(std::string name, p4::RuntimeClient* client) {
  std::lock_guard<std::mutex> plane(sync_mu_);
  for (const Device& device : devices_) {
    if (device.name == name) {
      return AlreadyExists("device '" + name + "' already registered");
    }
  }
  devices_.push_back(Device{});
  devices_.back().name = std::move(name);
  devices_.back().client = client;
  client->set_fence_token(fence_epoch_.load(std::memory_order_acquire));
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.breaker_states[devices_.back().name] = "closed";
    stats_.outbox_sizes[devices_.back().name] = 0;
  }
  // Followers register without resyncing — Promote() reconciles every
  // device when (if) leadership arrives.
  if (!started_ || role_.load(std::memory_order_acquire) != Role::kLeader) {
    return Status::Ok();
  }
  // Late registration = a device (re)joining a live controller: bring it
  // to the desired state with the minimal write set.
  Status synced = ResyncDeviceImpl(devices_.back());
  if (!synced.ok()) {
    if (options_.breaker.enabled &&
        synced.code() == StatusCode::kInternal) {
      // The rejoining device is still sick: quarantine it and let the
      // anti-entropy loop converge it later instead of failing the join.
      std::lock_guard<std::mutex> lock(stats_mu_);
      QuarantineLocked(devices_.back());
      return Status::Ok();
    }
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.errors;
    if (last_error_.ok()) last_error_ = synced;
  }
  return synced;
}

Status Controller::ResyncDevice(const std::string& name) {
  if (!started_) return FailedPrecondition("controller not started");
  if (role_.load(std::memory_order_acquire) != Role::kLeader) {
    return FailedPrecondition("only the leader resynchronizes devices");
  }
  std::lock_guard<std::mutex> plane(sync_mu_);
  for (Device& device : devices_) {
    if (device.name == name) return ResyncDeviceImpl(device);
  }
  return NotFound("device '" + name + "' is not registered");
}

Status Controller::Start() {
  if (started_) return FailedPrecondition("controller already started");
  NERPA_RETURN_IF_ERROR(TypeCheck(*program_, bindings_));
  // Warm start: restore the engine from the checkpoint blob when one was
  // supplied and it still matches this program; anything the engine
  // rejects degrades to a cold start (the checkpoint is an accelerator,
  // not a correctness dependency).
  if (!options_.engine_checkpoint.empty()) {
    Result<std::unique_ptr<dlog::Engine>> restored =
        dlog::Engine::Restore(program_, options_.engine_checkpoint);
    if (restored.ok()) {
      NERPA_RETURN_IF_ERROR(AdoptRestoredEngine(std::move(restored).value()));
    } else {
      LOG_WARNING << "controller: engine checkpoint rejected ("
                  << restored.status().ToString() << "); cold-starting";
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.engine_restore_rejections;
    }
  }
  if (engine_ == nullptr) engine_ = std::make_unique<dlog::Engine>(program_);
  started_ = true;
  // Absorb the initial state without device writes; the resync below
  // writes each device only its diff against the derived state.
  suppress_writes_ = true;
  // Outputs derived from facts (empty for a restored engine — its fact
  // derivations are already part of the checkpointed state).
  dlog::TxnDelta initial = engine_->TakeInitialDelta();
  Status applied = ApplyOutputDelta(initial);
  if (!applied.ok()) {
    suppress_writes_ = false;
    return applied;
  }
  // Subscribe to every bound management-plane table.  The monitor delivers
  // the current database contents immediately as inserts.
  std::vector<std::string> tables;
  for (const OvsdbBinding& binding : bindings_.ovsdb_tables) {
    tables.push_back(binding.table);
  }
  monitor_id_ = db_->AddMonitor(
      tables, [this](const ovsdb::TableUpdates& updates) {
        OnOvsdbUpdate(updates);
      });
  if (reconcile_restored_) {
    // Every bound table is empty, so the monitor delivered no initial
    // update and the restored-engine catch-up has not run; drive it with
    // an empty snapshot (deleting every restored management-plane row).
    OnOvsdbUpdate(ovsdb::TableUpdates{});
  }
  // Plane lock, as in Promote(): the resync reads the engine.
  std::lock_guard<std::mutex> plane(sync_mu_);
  suppress_writes_ = false;
  // A follower skips the device reconciliation — it owns no devices.
  // Promote() runs exactly this resync when leadership arrives.
  if (role_.load(std::memory_order_acquire) == Role::kLeader) {
    NERPA_RETURN_IF_ERROR(ResyncAllDevices());
  }
  return last_error();
}

Result<std::string> Controller::CheckpointEngine() {
  if (!started_) return FailedPrecondition("controller not started");
  // Plane lock: SerializeState must see the engine between transactions.
  std::lock_guard<std::mutex> plane(sync_mu_);
  return engine_->SerializeState();
}

void Controller::SetFenceTokensLocked(uint64_t epoch) {
  fence_epoch_.store(epoch, std::memory_order_release);
  for (Device& device : devices_) device.client->set_fence_token(epoch);
}

Status Controller::ArbitrateAllLocked() {
  for (Device& device : devices_) {
    NERPA_RETURN_IF_ERROR(device.client->Arbitrate());
  }
  return Status::Ok();
}

Status Controller::Promote(uint64_t epoch) {
  if (!started_) return FailedPrecondition("controller not started");
  if (role_.load(std::memory_order_acquire) == Role::kLeader) {
    // Already leading (e.g. a renewed mandate): just raise the token.
    std::lock_guard<std::mutex> plane(sync_mu_);
    SetFenceTokensLocked(epoch);
    Status arbitrated = ArbitrateAllLocked();
    // A failed arbitration means some device already answers to a newer
    // epoch — we only thought we were still leader.
    if (!arbitrated.ok()) Demote();
    return arbitrated;
  }
  role_.store(Role::kCandidate, std::memory_order_release);
  std::lock_guard<std::mutex> plane(sync_mu_);
  // Stamp the token on every client, then arbitrate: each switch raises
  // its fence high-water mark *now*, before any write — so the old leader
  // is locked out even if the resync below turns out to be a zero-write
  // diff.  Arbitration failure means a newer epoch beat us to a device;
  // leadership is refused.
  SetFenceTokensLocked(epoch);
  Status arbitrated = ArbitrateAllLocked();
  if (!arbitrated.ok()) {
    role_.store(Role::kFollower, std::memory_order_release);
    return arbitrated;
  }
  Status synced = ResyncAllDevices();
  if (!synced.ok()) {
    role_.store(Role::kFollower, std::memory_order_release);
    return synced;
  }
  role_.store(Role::kLeader, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.promotions;
    // Errors recorded while demoted (aborted batches racing the flip) are
    // not this mandate's problem; the resync above re-established ground
    // truth on every device.
    if (last_error_.code() == StatusCode::kPermissionDenied) {
      last_error_ = Status::Ok();
    }
  }
  return Status::Ok();
}

void Controller::Demote() {
  // Atomic flip, no locks: this is called from inside the write path (a
  // fenced-out write, on a commit that holds sync_mu_), so taking the
  // plane lock here would deadlock.  The in-flight commit sees the flip at
  // its next per-call check and aborts.
  Role expected = role_.load(std::memory_order_acquire);
  while (expected != Role::kFollower) {
    if (role_.compare_exchange_weak(expected, Role::kFollower,
                                    std::memory_order_acq_rel)) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.demotions;
      return;
    }
  }
}

Status Controller::ReloadEngineCheckpoint(const std::string& checkpoint) {
  if (!started_) return FailedPrecondition("controller not started");
  if (role_.load(std::memory_order_acquire) == Role::kLeader) {
    return FailedPrecondition("leader does not reload engine checkpoints");
  }
  std::lock_guard<std::mutex> plane(sync_mu_);
  Result<std::unique_ptr<dlog::Engine>> restored =
      dlog::Engine::Restore(program_, checkpoint);
  if (!restored.ok()) return restored.status();
  NERPA_RETURN_IF_ERROR(AdoptRestoredEngine(std::move(restored).value()));
  // Reconcile the checkpoint against the live database: feed the current
  // contents of every bound table as one synthetic snapshot.  Inserting a
  // present row is a set-semantics no-op; rows the checkpoint holds that
  // the database no longer does are deleted by the catch-up pass.
  ovsdb::TableUpdates snapshot;
  for (const OvsdbBinding& binding : bindings_.ovsdb_tables) {
    ovsdb::TableUpdate& table = snapshot[binding.table];
    for (const ovsdb::Row* row : db_->GetRows(binding.table)) {
      ovsdb::RowUpdate update;
      update.new_row = std::make_shared<const ovsdb::Row>(*row);
      table.emplace(row->uuid, std::move(update));
    }
  }
  return ProcessOvsdbUpdates(snapshot);
}

Status Controller::AdoptRestoredEngine(std::unique_ptr<dlog::Engine> engine) {
  engine_ = std::move(engine);
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.engine_restores;
  }
  // The restored engine's multicast rows never flowed through a delta, so
  // the membership bookkeeping is seeded from a dump before the first
  // update lands on top of it.
  multicast_members_.clear();
  if (!bindings_.multicast_relation.empty()) {
    NERPA_ASSIGN_OR_RETURN(std::vector<dlog::Row> rows,
                           engine_->Dump(bindings_.multicast_relation));
    dlog::SetDelta seed;
    seed.reserve(rows.size());
    for (dlog::Row& row : rows) seed.emplace_back(std::move(row), +1);
    std::vector<DeviceBatch> none;
    NERPA_RETURN_IF_ERROR(ApplyMulticastDelta(seed, none));
  }
  reconcile_restored_ = true;
  return Status::Ok();
}

Status Controller::ResyncAllDevices() {
  // Faults on one device do not stop the others: the first error in
  // registration order is reported.  A fenced write does stop the round —
  // the remaining devices belong to the newer leader.  With breakers
  // enabled a device that cannot resynchronize is quarantined
  // (anti-entropy will converge it later) instead of failing the round.
  Status first;
  for (Device& device : devices_) {
    Status synced = ResyncDeviceImpl(device);
    if (!synced.ok() && options_.breaker.enabled &&
        synced.code() == StatusCode::kInternal) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      QuarantineLocked(device);
      continue;
    }
    if (first.ok()) first = synced;
    if (synced.code() == StatusCode::kPermissionDenied) break;
  }
  return first;
}

void Controller::OnOvsdbUpdate(const ovsdb::TableUpdates& updates) {
  // Plane lock: the monitor callback races anti-entropy and the role
  // machine for the engine and the multicast bookkeeping.
  std::lock_guard<std::mutex> plane(sync_mu_);
  Status status = ProcessOvsdbUpdates(updates);
  if (!status.ok()) {
    // A fenced-out write (stale lease epoch) is the replication protocol
    // working, not a fault: the controller has already self-demoted and
    // the new leader owns convergence.  Observable via stats().demotions /
    // fenced_writes_rejected rather than last_error().
    bool fenced = status.code() == StatusCode::kPermissionDenied;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (!fenced) {
        ++stats_.errors;
        if (last_error_.ok()) last_error_ = status;
      }
    }
    if (!fenced) {
      LOG_ERROR << "controller: failed to process management update: "
                << status.ToString();
    }
  }
}

Status Controller::QueueRestoredCatchUp(const ovsdb::TableUpdates& updates) {
  // The monitor's first delivery is the full current contents of every
  // bound table.  The restored engine's inputs reflect the contents at
  // checkpoint time; anything it holds that the snapshot no longer shows
  // was deleted while the controller was down.
  uint64_t deletes = 0;
  for (const OvsdbBinding& binding : bindings_.ovsdb_tables) {
    dlog::RowSet present;
    auto rows = updates.find(binding.table);
    if (rows != updates.end()) {
      const ovsdb::TableSchema* schema = db_->schema().FindTable(binding.table);
      for (const auto& [uuid, update] : rows->second) {
        if (!update.new_row) continue;
        NERPA_ASSIGN_OR_RETURN(dlog::Row row,
                               OvsdbRowToDlog(*schema, *update.new_row));
        present.insert(std::move(row));
      }
    }
    NERPA_ASSIGN_OR_RETURN(std::vector<dlog::Row> held,
                           engine_->Dump(binding.relation));
    for (dlog::Row& row : held) {
      if (present.count(row) > 0) continue;
      NERPA_RETURN_IF_ERROR(
          engine_->Delete(binding.relation, std::move(row)));
      ++deletes;
    }
  }
  if (deletes > 0) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.catchup_deletes += deletes;
  }
  return Status::Ok();
}

Status Controller::ProcessOvsdbUpdates(const ovsdb::TableUpdates& updates) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.ovsdb_updates;
  }
  if (reconcile_restored_) {
    reconcile_restored_ = false;
    NERPA_RETURN_IF_ERROR(QueueRestoredCatchUp(updates));
  }
  for (const auto& [table_name, rows] : updates) {
    const OvsdbBinding* binding = bindings_.FindOvsdbTable(table_name);
    if (binding == nullptr) continue;  // not bound; ignore
    const ovsdb::TableSchema* schema = db_->schema().FindTable(table_name);
    for (const auto& [uuid, update] : rows) {
      if (update.old_row) {
        NERPA_ASSIGN_OR_RETURN(dlog::Row row,
                               OvsdbRowToDlog(*schema, *update.old_row));
        NERPA_RETURN_IF_ERROR(
            engine_->Delete(binding->relation, std::move(row)));
      }
      if (update.new_row) {
        NERPA_ASSIGN_OR_RETURN(dlog::Row row,
                               OvsdbRowToDlog(*schema, *update.new_row));
        NERPA_RETURN_IF_ERROR(
            engine_->Insert(binding->relation, std::move(row)));
      }
    }
  }
  NERPA_ASSIGN_OR_RETURN(dlog::TxnDelta delta, engine_->Commit());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.dlog_txns;
  }
  // The commit loop is alive: whatever the dispatch below does (park,
  // retry, shed), the engine itself made progress this cycle.
  if (options_.watchdog != nullptr) {
    options_.watchdog->Beat("controller.commit");
  }
  return ApplyOutputDelta(delta);
}

template <typename Call>
Status Controller::WriteWithRetry(Device& device, uint64_t Stats::*applied,
                                  Call&& call) {
  const int64_t timeout = options_.breaker.write_timeout_nanos;
  const int attempts = std::max(1, options_.retry.max_attempts);
  std::optional<Backoff> backoff;  // built when a retry first happens
  uint64_t done = 0, failures = 0;
  bool slow = false;
  Status status;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // Every retry across every device draws from one budget: against a
      // data plane that is mostly down, retries stop amplifying the load
      // once the budget drains, and the breaker/anti-entropy take over.
      if (!write_retry_budget_.TryWithdraw()) {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.retry_budget_exhausted;
        break;  // surface the previous attempt's error
      }
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.retries;
        if (!backoff) backoff.emplace(options_.retry.backoff, ++breaker_rng_);
      }
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(backoff->NextDelayNanos()));
    }
    int64_t started = timeout > 0 ? MonotonicNanos() : 0;
    status = call(done);
    if (status.ok()) {
      write_retry_budget_.RecordSuccess();
      slow = timeout > 0 && MonotonicNanos() - started > timeout;
      break;
    }
    ++failures;
    // Only transient device errors (kInternal — what a flaky transport
    // raises) are worth re-attempting; validation and application errors
    // are deterministic and would just replay the failure.
    if (status.code() != StatusCode::kInternal) break;
  }
  // Stale fencing token: the device is healthy but belongs to a newer
  // leader.  Self-demote (atomic — no locks held here) so the rest of this
  // delta and everything after it stops; no breaker strike, the device did
  // nothing wrong.
  if (status.code() == StatusCode::kPermissionDenied) Demote();
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.*applied += done;
  if (failures > 0) stats_.device_failures[device.name] += failures;
  if (status.ok()) {
    if (slow) {
      // The device answered, but too slowly to count as healthy: a
      // timeout strike, kept distinct from error strikes in the stats.
      ++stats_.slow_writes;
      StrikeLocked(device);
    } else if (options_.breaker.enabled &&
               device.breaker == BreakerState::kClosed) {
      device.strikes = 0;  // a healthy write clears accumulated strikes
    }
    return status;
  }
  ++stats_.write_failures;
  if (status.code() == StatusCode::kPermissionDenied) {
    ++stats_.fenced_writes_rejected;
  } else if (status.code() == StatusCode::kInternal) {
    StrikeLocked(device);
  }
  return status;
}

Status Controller::WriteUpdates(Device& device,
                                std::vector<p4::Update>& updates,
                                uint64_t Stats::*applied) {
  if (updates.empty()) return Status::Ok();
  return WriteWithRetry(device, applied, [&](uint64_t& done) {
    uint64_t before = device.client->write_count();
    Status status = device.client->Write(updates);
    // The device applied a prefix: all of it on success, else as many
    // updates as its write count moved.  A retry resends only the rest.
    size_t prefix =
        status.ok() ? updates.size()
                    : std::min<size_t>(device.client->write_count() - before,
                                       updates.size());
    updates.erase(updates.begin(), updates.begin() + prefix);
    done += prefix;
    return status;
  });
}

Status Controller::WriteGroup(Device& device, uint32_t group,
                              const std::vector<uint64_t>* members,
                              uint64_t Stats::*applied) {
  return WriteWithRetry(device, applied, [&](uint64_t& done) {
    Status status = device.client->SetMulticastGroup(
        group, members != nullptr ? *members : std::vector<uint64_t>());
    if (status.ok()) ++done;
    return status;
  });
}

void Controller::StrikeLocked(Device& device) {
  if (!options_.breaker.enabled) return;
  ++device.strikes;
  if (device.breaker == BreakerState::kClosed &&
      device.strikes >= options_.breaker.strike_threshold) {
    QuarantineLocked(device);
  }
}

void Controller::QuarantineLocked(Device& device) {
  device.breaker = BreakerState::kOpen;
  ++stats_.breaker_trips;
  stats_.breaker_states[device.name] = "open";
  if (device.next_cooldown_nanos == 0) {
    device.next_cooldown_nanos = options_.breaker.cooldown_nanos;
  }
  EscalateCooldownLocked(device);
}

void Controller::EscalateCooldownLocked(Device& device) {
  int64_t cooldown = device.next_cooldown_nanos;
  // Jitter the quiet period: breakers tripped by one shared outage must
  // not send their half-open probes (each a full resync) in lockstep at
  // whatever just came back.  The escalation below stays un-jittered so
  // the nominal schedule is deterministic.
  int64_t jittered =
      cooldown > 0 ? JitterNanos(cooldown, 0.2, &breaker_rng_) : cooldown;
  device.cooldown_until_nanos = MonotonicNanos() + jittered;
  if (cooldown > 0) {
    // Doubles, capped at 1 s.
    device.next_cooldown_nanos = std::min<int64_t>(2 * cooldown, 1'000'000'000);
  }
}

size_t Controller::Park(const DeviceBatch& batch,
                        std::span<const GroupWrite> groups) {
  Device& device = *batch.device;
  std::lock_guard<std::mutex> lock(stats_mu_);
  // One slot per entry identity / multicast group: however long the
  // quarantine, the outbox never outgrows the device's table footprint.
  // Every entry came out of DlogRowToEntry, which checked its table exists.
  auto park = [&](const std::vector<p4::Update>& updates) {
    for (const p4::Update& update : updates) {
      device.outbox.emplace(
          update.entry.table,
          p4::KeyOf(*p4_program_->FindTable(update.entry.table),
                    update.entry));
    }
  };
  park(batch.deletes);
  for (const GroupWrite& write : groups) {
    device.outbox.emplace("", p4::MatchKey{write.group});
  }
  park(batch.inserts);
  size_t parked = batch.deletes.size() + groups.size() + batch.inserts.size();
  stats_.outbox_coalesced += parked;
  stats_.outbox_sizes[device.name] = device.outbox.size();
  return parked;
}

Status Controller::StageEntry(std::vector<DeviceBatch>& batches,
                              const std::string& device, p4::UpdateType type,
                              p4::TableEntry entry) {
  auto phase = [type](DeviceBatch& batch) -> std::vector<p4::Update>& {
    return type == p4::UpdateType::kDelete ? batch.deletes : batch.inserts;
  };
  bool routed = !device.empty();
  DeviceBatch* first = nullptr;  // takes `entry` itself; the others copy it
  for (DeviceBatch& batch : batches) {
    if (routed && batch.device->name != device) continue;
    if (first == nullptr) {
      first = &batch;
    } else {
      phase(batch).push_back(p4::Update{type, entry});
    }
  }
  if (first != nullptr) {
    phase(*first).push_back(p4::Update{type, std::move(entry)});
  } else if (routed) {
    return NotFound("output row targets unknown device '" + device + "'");
  }
  return Status::Ok();
}

Status Controller::ExecuteBatch(DeviceBatch& batch, const Deadline& deadline) {
  // One call per pass — the deletes, each group, the inserts — until the
  // batch is done or stops at the device's first error; other devices'
  // batches are unaffected.  `groups` holds the reprograms not yet written.
  Device& device = *batch.device;
  std::span<const GroupWrite> groups = batch.groups;
  auto open = [&] {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return device.breaker != BreakerState::kClosed;
  };
  while (!batch.deletes.empty() || !groups.empty() || !batch.inserts.empty()) {
    if (deadline.expired()) {
      // Commit budget spent (a slow or flapping device, this one or one
      // earlier in registration order, ate it): park the rest of the batch
      // in the outbox and report success.  The commit stops monopolizing
      // the dispatch path, no write is dropped — the next anti-entropy pass
      // sees the non-empty outbox and reconciles the device, exactly like
      // a sub-threshold write failure.
      size_t parked = Park(batch, groups);
      std::lock_guard<std::mutex> lock(stats_mu_);
      stats_.deadline_parks += parked;
      return Status::Ok();
    }
    if (role_.load(std::memory_order_acquire) != Role::kLeader) {
      // Demoted mid-batch (lease loss, or a fenced rejection on another
      // device of this same delta): abort the rest.  Nothing is parked —
      // the new leader's promotion resync owns these devices.
      return PermissionDenied("batch aborted: controller demoted");
    }
    if (options_.breaker.enabled && open()) {
      // Quarantined device: absorb the rest of the batch into the outbox
      // without touching the (dead) device, and report success — the delta
      // must not fail because one switch is down.
      Park(batch, groups);
      return Status::Ok();
    }
    Status status;
    if (!batch.deletes.empty()) {
      status = WriteUpdates(device, batch.deletes, &Stats::entries_deleted);
    } else if (!groups.empty()) {
      status = WriteGroup(device, groups.front().group, groups.front().members,
                          &Stats::multicast_updates);
      if (status.ok()) groups = groups.subspan(1);
    } else {
      status = WriteUpdates(device, batch.inserts, &Stats::entries_inserted);
    }
    if (status.ok()) continue;
    // Fenced out: WriteWithRetry already self-demoted.  Never park fenced
    // writes in the outbox — the device is healthy and owned by the new
    // leader; replaying stale state at it later would be exactly the
    // split-brain the fence exists to stop.
    if (status.code() != StatusCode::kPermissionDenied &&
        options_.breaker.enabled) {
      // The failed update and everything after it becomes outbox state
      // either way: if the breaker tripped, the half-open probe's resync
      // diff replays it on rejoin; if it did not (strikes below the
      // threshold), the next anti-entropy pass sees the non-empty outbox
      // and reconciles the device.  Without the second arm a sub-threshold
      // failure would drop the delta forever — a later healthy write
      // clears the strikes and nothing ever repairs the gap.
      Park(batch, groups);
      if (open()) return Status::Ok();
    }
    return status;
  }
  return Status::Ok();
}

Status Controller::ApplyOutputDelta(const dlog::TxnDelta& delta) {
  if (suppress_writes_ ||
      role_.load(std::memory_order_acquire) != Role::kLeader) {
    // Start() loading, or a follower/demoted controller: the engine itself
    // accumulates the desired table state, so entry conversion is deferred
    // to ResyncDeviceImpl (at the end of Start(), at Promote() for a
    // follower); only the multicast membership bookkeeping must be kept
    // current.
    std::vector<DeviceBatch> none;
    for (const auto& [relation, rows] : delta.outputs) {
      if (relation == bindings_.multicast_relation) {
        NERPA_RETURN_IF_ERROR(ApplyMulticastDelta(rows, none));
      }
    }
    return Status::Ok();
  }
  // The whole delta is first staged as one batch per device — deletes
  // first so that modify (retract+assert of the same match key) never
  // collides with the still-installed old entry, then the multicast
  // reprograms, inserts last — then the batches run, one device after
  // another.  Conversion and routing errors thus surface before anything
  // is written.
  std::vector<DeviceBatch> batches(devices_.size());
  for (size_t i = 0; i < devices_.size(); ++i) {
    batches[i].device = &devices_[i];
  }
  for (const auto& [relation, rows] : delta.outputs) {
    if (relation == bindings_.multicast_relation) {
      NERPA_RETURN_IF_ERROR(ApplyMulticastDelta(rows, batches));
      continue;
    }
    const TableBinding* binding = bindings_.FindTable(relation);
    if (binding == nullptr) {
      LOG_WARNING << "controller: output relation '" << relation
                  << "' is not bound to a P4 table; ignoring its delta";
      continue;
    }
    for (const auto& [row, direction] : rows) {
      NERPA_ASSIGN_OR_RETURN(auto converted,
                             DlogRowToEntry(*binding, *p4_program_, row));
      NERPA_RETURN_IF_ERROR(StageEntry(
          batches, converted.first,
          direction < 0 ? p4::UpdateType::kDelete : p4::UpdateType::kInsert,
          std::move(converted.second)));
    }
  }
  // The commit deadline is minted here, after conversion: it budgets the
  // dispatch (the part that holds devices hostage), not the pure compute.
  Deadline deadline = options_.commit_deadline_nanos > 0
                          ? Deadline::AfterNanos(options_.commit_deadline_nanos)
                          : Deadline();
  // Every RuntimeClient is in-process and a write costs about a
  // microsecond, so the batches run here, in registration order, rather
  // than on worker threads.  Each runs to its own first error; the first
  // error in registration order is returned.  A fenced write in one batch
  // demotes the controller and the later batches abort at their first call.
  Status first;
  for (DeviceBatch& batch : batches) {
    Status status = ExecuteBatch(batch, deadline);
    if (first.ok()) first = status;
  }
  return first;
}

Status Controller::ApplyMulticastDelta(const dlog::SetDelta& delta,
                                       std::vector<DeviceBatch>& batches) {
  bool with_device = bindings_.options.with_device_column;
  std::set<std::pair<std::string, uint32_t>> dirty;
  for (const auto& [row, direction] : delta) {
    size_t base = with_device ? 1 : 0;
    std::string device = with_device ? row[0].as_string() : "";
    uint32_t group = static_cast<uint32_t>(row[base].as_bit());
    uint64_t port = row[base + 1].as_bit();
    auto key = std::make_pair(device, group);
    // Kept sorted and unique: ResyncDeviceImpl compares the list with a
    // device's sorted group.
    auto& members = multicast_members_[key];
    auto at = std::lower_bound(members.begin(), members.end(), port);
    bool present = at != members.end() && *at == port;
    if (direction > 0 && !present) {
      members.insert(at, port);
    } else if (direction < 0 && present) {
      members.erase(at);
    }
    dirty.insert(key);
  }
  for (const auto& key : dirty) {
    const auto& [device, group] = key;
    const std::vector<uint64_t>& members = multicast_members_[key];
    bool routed = !device.empty();
    if (!suppress_writes_) {
      // The batch points at the final membership for this delta; the
      // write itself happens when the device's batch runs.
      for (DeviceBatch& batch : batches) {
        if (routed && batch.device->name != device) continue;
        batch.groups.push_back(
            GroupWrite{group, members.empty() ? nullptr : &members});
      }
    }
    if (members.empty()) multicast_members_.erase(key);
  }
  return Status::Ok();
}

Status Controller::ResyncDeviceImpl(Device& device) {
  // stats() may be sampled from any thread, so every stats update goes
  // through the mutex; engine/bindings access is read-only.
  auto bump = [this](uint64_t& counter) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++counter;
  };
  bump(stats_.resyncs);
  // Tables: per bound table, the entries desired on this device — derived
  // from the output relations (the engine is the single source of truth —
  // whatever the management plane implies, post-restart or live, is in
  // there) and keyed by P4Runtime identity (match + priority) — against
  // the entries the device holds.  The minimal delete/modify/insert set is
  // the stale entries, the entries with the wrong action and the missing
  // ones; each goes as one Write, deletes first (freeing match keys).
  std::vector<p4::Update> stale, wrong, missing;
  for (const TableBinding& binding : bindings_.tables) {
    const p4::Table* schema = p4_program_->FindTable(binding.p4_table);
    if (schema == nullptr) {
      return Internal("bound P4 table '" + binding.p4_table + "' missing");
    }
    NERPA_ASSIGN_OR_RETURN(std::vector<dlog::Row> rows,
                           engine_->Dump(binding.relation));
    std::map<p4::MatchKey, p4::TableEntry> want;
    for (const dlog::Row& row : rows) {
      NERPA_ASSIGN_OR_RETURN(auto converted,
                             DlogRowToEntry(binding, *p4_program_, row));
      if (!converted.first.empty() && converted.first != device.name) {
        continue;  // routed to a different device
      }
      want[p4::KeyOf(*schema, converted.second)] = std::move(converted.second);
    }
    bump(stats_.resync_reads);
    NERPA_ASSIGN_OR_RETURN(std::vector<p4::TableEntry> actual,
                           device.client->ReadTable(binding.p4_table));
    // Each held entry leaves `want`; what remains is missing.
    for (p4::TableEntry& entry : actual) {
      auto it = want.find(p4::KeyOf(*schema, entry));
      if (it == want.end()) {
        stale.push_back(p4::Update{p4::UpdateType::kDelete, std::move(entry)});
        continue;
      }
      if (it->second.action != entry.action ||
          it->second.action_args != entry.action_args) {
        wrong.push_back(
            p4::Update{p4::UpdateType::kModify, std::move(it->second)});
      }
      want.erase(it);
    }
    for (auto& [key, entry] : want) {
      missing.push_back(p4::Update{p4::UpdateType::kInsert, std::move(entry)});
    }
  }
  NERPA_RETURN_IF_ERROR(WriteUpdates(device, stale, &Stats::resync_deleted));
  NERPA_RETURN_IF_ERROR(WriteUpdates(device, wrong, &Stats::resync_modified));
  NERPA_RETURN_IF_ERROR(
      WriteUpdates(device, missing, &Stats::resync_inserted));
  // Multicast groups, same discipline.
  std::map<uint32_t, std::vector<uint64_t>> want_groups;
  for (const auto& [key, members] : multicast_members_) {
    const auto& [dev, group] = key;
    if (!dev.empty() && dev != device.name) continue;
    want_groups[group] = members;  // members kept sorted by ApplyMulticastDelta
  }
  bump(stats_.resync_reads);
  NERPA_ASSIGN_OR_RETURN(auto group_list, device.client->ReadMulticastGroups());
  std::map<uint32_t, std::vector<uint64_t>> have_groups;
  for (auto& [group, ports] : group_list) {
    std::sort(ports.begin(), ports.end());
    have_groups[group] = std::move(ports);
  }
  for (const auto& [group, ports] : have_groups) {
    if (want_groups.count(group) != 0) continue;
    NERPA_RETURN_IF_ERROR(
        WriteGroup(device, group, nullptr, &Stats::resync_deleted));
  }
  for (const auto& [group, members] : want_groups) {
    auto it = have_groups.find(group);
    if (it == have_groups.end()) {
      NERPA_RETURN_IF_ERROR(
          WriteGroup(device, group, &members, &Stats::resync_inserted));
    } else if (it->second != members) {
      NERPA_RETURN_IF_ERROR(
          WriteGroup(device, group, &members, &Stats::resync_modified));
    }
  }
  return Status::Ok();
}

Status Controller::RunAntiEntropy() {
  if (!started_) return FailedPrecondition("controller not started");
  // Followers own no devices; probing (= resyncing) one would fight the
  // leader.  Cheap no-op so callers can pump unconditionally.
  if (role_.load(std::memory_order_acquire) != Role::kLeader) {
    return Status::Ok();
  }
  std::lock_guard<std::mutex> plane(sync_mu_);
  int64_t now = MonotonicNanos();
  for (Device& device : devices_) {
    bool probe = false;
    bool repair = false;
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (device.breaker == BreakerState::kOpen &&
          now >= device.cooldown_until_nanos) {
        device.breaker = BreakerState::kHalfOpen;
        stats_.breaker_states[device.name] = "half-open";
        ++stats_.breaker_probes;
        probe = true;
      } else if (device.breaker == BreakerState::kClosed &&
                 !device.outbox.empty()) {
        // A closed breaker with a non-empty outbox means a sub-threshold
        // write failure parked ops there (ExecuteBatch preserves them even
        // when the strike count stays below the trip point).  Reconcile now;
        // on failure the outbox stays populated and the next pass retries.
        repair = true;
      }
    }
    if (probe) {
      ProbeDevice(device);
    } else if (repair) {
      Status synced = ResyncDeviceImpl(device);
      std::lock_guard<std::mutex> lock(stats_mu_);
      if (synced.ok()) {
        device.outbox.clear();
        stats_.outbox_sizes[device.name] = 0;
        ++stats_.outbox_repairs;
      }
    }
  }
  return Status::Ok();
}

void Controller::ProbeDevice(Device& device) {
  // Half-open trial: one full reconciliation.  Success proves the device
  // is answering *and* leaves it byte-identical to the desired state —
  // the minimal resync diff subsumes whatever accumulated in the outbox
  // (and whatever was half-written before the trip).
  Status synced = ResyncDeviceImpl(device);
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (synced.ok()) {
    device.breaker = BreakerState::kClosed;
    device.strikes = 0;
    device.next_cooldown_nanos = options_.breaker.cooldown_nanos;
    device.outbox.clear();
    stats_.breaker_states[device.name] = "closed";
    stats_.outbox_sizes[device.name] = 0;
    ++stats_.breaker_rejoins;
  } else {
    device.breaker = BreakerState::kOpen;
    stats_.breaker_states[device.name] = "open";
    EscalateCooldownLocked(device);
  }
}

Controller::Stats Controller::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

Status Controller::SyncDataPlaneNotifications() {
  if (!started_) return FailedPrecondition("controller not started");
  // Digests drain destructively from the switch; a follower polling them
  // would steal the leader's MAC-learning events.  Followers pick learned
  // state up through checkpoint reloads instead.
  if (role_.load(std::memory_order_acquire) != Role::kLeader) {
    return Status::Ok();
  }
  std::lock_guard<std::mutex> plane(sync_mu_);
  bool any = false;
  Status first_error;
  for (Device& device : devices_) {
    device.client->SubscribeDigests([&](const p4::DigestMessage& message) {
      const DigestBinding* binding = bindings_.FindDigest(message.name);
      if (binding == nullptr) return;
      dlog::Row row = DigestToDlog(*binding, message, device.name, 0);
      Status status = engine_->Insert(binding->relation, std::move(row));
      if (!status.ok() && first_error.ok()) first_error = status;
      {
        std::lock_guard<std::mutex> lock(stats_mu_);
        ++stats_.digests;
      }
      any = true;
    });
    device.client->PollDigests();
  }
  NERPA_RETURN_IF_ERROR(first_error);
  if (!any) return Status::Ok();
  NERPA_ASSIGN_OR_RETURN(dlog::TxnDelta delta, engine_->Commit());
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.dlog_txns;
  }
  return ApplyOutputDelta(delta);
}

}  // namespace nerpa
