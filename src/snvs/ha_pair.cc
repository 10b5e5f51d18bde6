#include "snvs/ha_pair.h"

#include "common/log.h"
#include "common/strings.h"
#include "nerpa/bindings.h"

namespace nerpa::snvs {

namespace {
/// Watchdog subsystem name for the shared durable store's WAL.
constexpr const char* kWalSubsystem = "snvs.wal";
}  // namespace

Result<std::unique_ptr<SnvsHaPair>> BuildSnvsHaPair(
    const SnvsHaOptions& options) {
  if (options.devices < 1) {
    return InvalidArgument("need at least one device");
  }
  auto pair = std::unique_ptr<SnvsHaPair>(new SnvsHaPair());
  pair->options_ = options;

  // The shared management plane carries the Leader_Lease table on top of
  // the snvs schema.  The bindings are generated from the *plain* schema:
  // the lease is election machinery, not control-plane input, so lease
  // renewals must not appear as Datalog deltas (and must not perturb the
  // program fingerprint engine checkpoints are validated against).
  ovsdb::DatabaseSchema shared = ovsdb::WithLeaderLease(SnvsSchema());
  if (!options.ha_dir.empty()) {
    NERPA_ASSIGN_OR_RETURN(
        pair->store_,
        ha::DurableStore::Open(shared, options.ha_dir, options.io));
    pair->db_raw_ = &pair->store_->db();
    if (options.watchdog != nullptr) {
      pair->store_->wal().AttachWatchdog(options.watchdog, kWalSubsystem,
                                         options.wal_stuck_timeout_nanos);
    }
  } else {
    pair->db_ = std::make_unique<ovsdb::Database>(shared);
    pair->db_raw_ = pair->db_.get();
  }
  pair->p4_ = SnvsP4Program();

  NERPA_ASSIGN_OR_RETURN(pair->bindings_,
                         GenerateBindings(SnvsSchema(), *pair->p4_));
  pair->program_text_ = pair->bindings_.DeclsText() + SnvsRules();
  NERPA_ASSIGN_OR_RETURN(pair->program_,
                         dlog::Program::Parse(pair->program_text_));

  for (int i = 0; i < options.devices; ++i) {
    pair->switches_.push_back(std::make_unique<p4::Switch>(pair->p4_));
  }

  // Recovered deployments warm-start both replicas from the persisted
  // engine sidecar, even if it is older than the snapshot: a MAC learned
  // after it replaces the restored row under its key.
  std::string warm;
  if (pair->store_ != nullptr && pair->store_->recovered()) {
    Result<std::string> blob =
        pair->store_->ReadEngineCheckpoint(kEngineCheckpointName);
    if (blob.ok()) {
      warm = std::move(blob).value();
      pair->last_engine_checkpoint_ = warm;
    } else if (blob.status().code() != StatusCode::kNotFound) {
      LOG_WARNING << "snvs-ha: engine checkpoint unusable ("
                  << blob.status().ToString() << "); recomputing";
    }
  }
  for (size_t i = 0; i < SnvsHaPair::kReplicas; ++i) {
    NERPA_RETURN_IF_ERROR(pair->BuildReplica(i, warm));
  }
  return pair;
}

Status SnvsHaPair::BuildReplica(size_t index,
                                const std::string& warm_checkpoint) {
  Replica& replica = replicas_[index];
  replica.id = StrFormat("ctl%zu", index);

  bool inject_faults = options_.fault.write_fail_probability > 0 ||
                       options_.fault.write_delay_nanos > 0;
  replica.clients.clear();
  for (size_t d = 0; d < switches_.size(); ++d) {
    if (inject_faults) {
      ha::FaultPolicy policy = options_.fault;
      // Each replica has its own channel to each device; decorrelate all
      // of them.
      policy.seed += static_cast<uint64_t>(index * 131 + d);
      replica.clients.push_back(std::make_unique<ha::FaultyRuntimeClient>(
          switches_[d].get(), policy));
    } else {
      replica.clients.push_back(
          std::make_unique<p4::RuntimeClient>(switches_[d].get()));
    }
  }

  Controller::Options controller_options;
  controller_options.initial_role = Role::kFollower;
  controller_options.engine_checkpoint = warm_checkpoint;
  controller_options.retry = options_.retry;
  controller_options.breaker = options_.breaker;
  controller_options.watchdog = options_.watchdog;
  controller_options.commit_deadline_nanos = options_.commit_deadline_nanos;
  replica.controller = std::make_unique<Controller>(
      db_raw_, program_, p4_, bindings_, controller_options);
  for (size_t d = 0; d < switches_.size(); ++d) {
    NERPA_RETURN_IF_ERROR(replica.controller->AddDevice(
        StrFormat("sw%zu", d), replica.clients[d].get()));
  }
  NERPA_RETURN_IF_ERROR(replica.controller->Start());

  ha::LeaseManager::Options lease_options;
  lease_options.holder_id = replica.id;
  lease_options.ttl_nanos = options_.lease_ttl_nanos;
  lease_options.clock = options_.clock;
  replica.lease =
      std::make_unique<ha::LeaseManager>(db_raw_, std::move(lease_options));

  Controller* controller = replica.controller.get();
  ha::LeaseCoordinator::Callbacks callbacks;
  callbacks.on_acquire = [controller](int64_t epoch) {
    return controller->Promote(static_cast<uint64_t>(epoch)).ok();
  };
  callbacks.on_lose = [controller] { controller->Demote(); };
  replica.coordinator = std::make_unique<ha::LeaseCoordinator>(
      replica.lease.get(), std::move(callbacks));
  return Status::Ok();
}

ha::FaultyRuntimeClient* SnvsHaPair::faulty(size_t replica, size_t device) {
  if (replica >= kReplicas || device >= replicas_[replica].clients.size()) {
    return nullptr;
  }
  return dynamic_cast<ha::FaultyRuntimeClient*>(
      replicas_[replica].clients[device].get());
}

int SnvsHaPair::leader() const {
  // A zombie still believes it leads until fencing demotes it; when two
  // replicas claim leadership, the one holding the higher lease epoch is
  // the real leader.
  int best = -1;
  int64_t best_epoch = -1;
  for (size_t i = 0; i < kReplicas; ++i) {
    const Replica& replica = replicas_[i];
    if (replica.controller == nullptr ||
        replica.controller->role() != Role::kLeader) {
      continue;
    }
    int64_t epoch = replica.lease->epoch();
    if (epoch > best_epoch) {
      best = static_cast<int>(i);
      best_epoch = epoch;
    }
  }
  return best;
}

int SnvsHaPair::Tick() {
  // Stuck-WAL self-demotion: a leader whose WAL append has outlived its
  // bound can no longer durably acknowledge management-plane commits.
  // Stepping down through the role machine (StepDown releases the lease
  // and runs on_lose -> Controller::Demote) hands the plane to the
  // healthy standby within one TTL instead of limping along un-durable.
  // The watchdog runs on MonotonicNanos, not the injectable lease clock:
  // tests that jump the lease clock must not fake a stuck disk.
  if (options_.watchdog != nullptr &&
      options_.watchdog->Stuck(kWalSubsystem, MonotonicNanos())) {
    int index = leader();
    if (index >= 0 && replicas_[index].coordinator != nullptr) {
      LOG_WARNING << "snvs-ha: WAL stuck past its bound; demoting leader "
                  << replicas_[index].id;
      replicas_[index].coordinator->StepDown();
      ++wal_demotions_;
    }
  }
  for (size_t i = 0; i < kReplicas; ++i) {
    if (replicas_[i].coordinator != nullptr) replicas_[i].coordinator->Tick();
  }
  return leader();
}

Status SnvsHaPair::Checkpoint() {
  int index = leader();
  if (index < 0) return FailedPrecondition("no replica is leader");
  Controller& leader_controller = *replicas_[index].controller;
  NERPA_ASSIGN_OR_RETURN(std::string blob,
                         leader_controller.CheckpointEngine());
  last_engine_checkpoint_ = blob;
  if (store_ != nullptr) {
    NERPA_RETURN_IF_ERROR(store_->Checkpoint());
    NERPA_RETURN_IF_ERROR(
        store_->WriteEngineCheckpoint(kEngineCheckpointName, blob));
  }
  return Status::Ok();
}

Status SnvsHaPair::SyncStandby() {
  if (last_engine_checkpoint_.empty()) return Status::Ok();
  int index = leader();
  for (size_t i = 0; i < kReplicas; ++i) {
    if (static_cast<int>(i) == index) continue;
    Replica& replica = replicas_[i];
    if (replica.controller == nullptr ||
        replica.controller->role() != Role::kFollower) {
      continue;
    }
    NERPA_RETURN_IF_ERROR(
        replica.controller->ReloadEngineCheckpoint(last_engine_checkpoint_));
  }
  return Status::Ok();
}

Status SnvsHaPair::RestartReplica(size_t replica) {
  if (replica >= kReplicas) return InvalidArgument("no such replica");
  // Crash semantics: the lease row is left exactly as the dead replica
  // last wrote it — a held lease runs out its TTL before anyone else can
  // acquire (that delay *is* the availability gap bench_failover measures).
  Replica& r = replicas_[replica];
  r.coordinator.reset();
  r.lease.reset();
  r.controller.reset();  // unregisters its monitor
  r.clients.clear();
  return BuildReplica(replica, last_engine_checkpoint_);
}

Status SnvsHaPair::ControllerError() const {
  for (const Replica& replica : replicas_) {
    if (replica.controller == nullptr) continue;
    NERPA_RETURN_IF_ERROR(replica.controller->last_error());
  }
  return Status::Ok();
}

Result<std::vector<p4::PacketOut>> SnvsHaPair::InjectPacket(
    size_t device, uint64_t port, const net::Packet& packet) {
  if (device >= switches_.size()) {
    return InvalidArgument("no such device");
  }
  NERPA_ASSIGN_OR_RETURN(
      std::vector<p4::PacketOut> out,
      switches_[device]->ProcessPacket(p4::PacketIn{port, packet}));
  int index = leader();
  if (index >= 0) {
    NERPA_RETURN_IF_ERROR(
        replicas_[index].controller->SyncDataPlaneNotifications());
  }
  return out;
}

}  // namespace nerpa::snvs
