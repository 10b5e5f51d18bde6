#include "snvs/snvs.h"

#include <cassert>

#include "common/log.h"
#include "common/strings.h"
#include "nerpa/bindings.h"
#include "p4/text.h"

namespace nerpa::snvs {

ovsdb::DatabaseSchema SnvsSchema() {
  using ovsdb::BaseType;
  using ovsdb::ColumnType;
  ovsdb::DatabaseSchema schema;
  schema.name = "snvs";
  schema.version = "1.0.0";

  ovsdb::TableSchema port;
  port.name = "Port";
  port.columns = {
      {"name", ColumnType::Scalar(BaseType::String()), false, true},
      {"port", ColumnType::Scalar(BaseType::Integer(0, 65535)), false, true},
      {"vlan_mode",
       ColumnType::Scalar(BaseType::StringEnum({"access", "trunk"})), false,
       true},
      {"tag", ColumnType::Scalar(BaseType::Integer(0, 4095)), false, true},
      {"trunks", ColumnType::Set(BaseType::Integer(0, 4095)), false, true},
  };
  port.indexes = {{"name"}, {"port"}};
  schema.tables.emplace("Port", std::move(port));

  ovsdb::TableSchema mirror;
  mirror.name = "Mirror";
  mirror.columns = {
      {"name", ColumnType::Scalar(BaseType::String()), false, true},
      {"src_port", ColumnType::Scalar(BaseType::Integer(0, 65535)), false,
       true},
      {"out_port", ColumnType::Scalar(BaseType::Integer(0, 65535)), false,
       true},
  };
  // One mirror per source port: the PortMirror data-plane table is keyed
  // by ingress port alone, so the management plane must enforce the
  // uniqueness (cross-plane constraint co-design).
  mirror.indexes = {{"name"}, {"src_port"}};
  schema.tables.emplace("Mirror", std::move(mirror));

  ovsdb::TableSchema acl;
  acl.name = "AclRule";
  acl.columns = {
      {"mac", ColumnType::Scalar(BaseType::Integer(0, 281474976710655LL)),
       false, true},
      {"vlan", ColumnType::Scalar(BaseType::Integer(0, 4095)), false, true},
      {"allow", ColumnType::Scalar(BaseType::Boolean()), false, true},
  };
  schema.tables.emplace("AclRule", std::move(acl));
  return schema;
}

// The data plane, in the textual P4 dialect (src/p4/text.h).  This is the
// artifact the paper's LOC table counts as "300 of P4"; ours is smaller
// because the dialect omits P4-16 architecture boilerplate.
const char* const kSnvsP4 = R"p4(
program snvs;

header ethernet {
  bit<48> dstAddr;
  bit<48> srcAddr;
  bit<16> etherType;
}
header vlan {
  bit<3> pcp;
  bit<1> dei;
  bit<12> vid;
  bit<16> etherType;
}
metadata {
  bit<12> vlan;
  bit<1> forwarded;
}

// Data-plane-to-control-plane notification for MAC learning (becomes a
// control-plane input relation via the generated bindings).
digest MacLearn {
  standard.ingress_port: bit<16>;
  meta.vlan: bit<12>;
  ethernet.srcAddr: bit<48>;
}

parser {
  state start {
    extract(ethernet);
    select (ethernet.etherType) {
      0x8100: parse_vlan;
      default: accept;
    }
  }
  state parse_vlan {
    extract(vlan);
    goto accept;
  }
}

action NoAction() { }
action Discard() { drop(); }
// Untagged packets on an access port adopt the configured vlan.
action SetAccessVlan(bit<12> vid) { meta.vlan = vid; }
// Tagged packets on a trunk keep their vid; the tag is stripped for the
// internal (untagged) representation and re-added at egress.
action UseTaggedVlan(bit<12> vid) {
  meta.vlan = vid;
  pop_vlan();
}
action AclDrop() { drop(); }
action AclAllow() { }
action Learn() { digest(MacLearn); }
action Forward(bit<16> port) {
  output(port);
  meta.forwarded = 1;
}
action Flood(bit<16> group) { multicast(group); }
action MirrorTo(bit<16> port) { clone(port); }
action EmitTagged(bit<12> vid) { push_vlan(vid); }
action EmitUntagged() { }

table InVlanUntagged {
  key = { standard.ingress_port: exact; }
  actions = { SetAccessVlan; }
  default_action = Discard;
  size = 65536;
}
table InVlanTagged {
  key = { standard.ingress_port: exact; vlan.vid: exact; }
  actions = { UseTaggedVlan; }
  default_action = Discard;
  size = 65536;
}
table PortMirror {
  key = { standard.ingress_port: exact; }
  actions = { MirrorTo; }
  default_action = NoAction;
  size = 65536;
}
table Acl {
  key = { meta.vlan: exact; ethernet.srcAddr: exact; }
  actions = { AclDrop; AclAllow; }
  default_action = NoAction;
  size = 65536;
}
table SMac {
  key = { meta.vlan: exact; ethernet.srcAddr: exact;
          standard.ingress_port: exact; }
  actions = { NoAction; }
  default_action = Learn;
  size = 65536;
}
table Dmac {
  key = { meta.vlan: exact; ethernet.dstAddr: exact; }
  actions = { Forward; }
  default_action = NoAction;
  size = 65536;
}
table FloodVlan {
  key = { meta.vlan: exact; }
  actions = { Flood; }
  default_action = Discard;
  size = 65536;
}
table OutVlan {
  key = { standard.egress_port: exact; meta.vlan: exact; }
  actions = { EmitTagged; EmitUntagged; }
  default_action = Discard;
  size = 65536;
}

ingress {
  if (valid(vlan)) {
    apply(InVlanTagged);
  } else {
    apply(InVlanUntagged);
  }
  apply(PortMirror);
  apply(Acl);
  apply(SMac);
  apply(Dmac);
  if (meta.forwarded == 0) {
    apply(FloodVlan);
  }
}
egress {
  apply(OutVlan);
}
deparser {
  emit(ethernet);
  emit(vlan);
}
)p4";

std::string SnvsP4Source() { return kSnvsP4; }

std::shared_ptr<const p4::P4Program> SnvsP4Program() {
  // Parse once; the program is immutable and shared.
  static const std::shared_ptr<const p4::P4Program> kProgram = [] {
    auto parsed = p4::ParseP4Text(kSnvsP4);
    if (!parsed.ok()) {
      std::fprintf(stderr, "snvs.p4: %s\n",
                   parsed.status().ToString().c_str());
      std::abort();
    }
    return std::move(parsed).value();
  }();
  return kProgram;
}

std::string SnvsRules() {
  return R"dl(
// ---------------------------------------------------------------------
// snvs control plane (hand-written rules; declarations are generated).
// ---------------------------------------------------------------------

// VLAN membership of each port (tagged = trunk membership).
relation PortVlan(port: bigint, vlan: bigint, tagged: bool)
PortVlan(p, t, false) :- Port(_, _, p, "access", t, _).
PortVlan(p, v, true) :- Port(_, _, p, "trunk", _, trunks), var v in trunks.

// Ingress VLAN admission.
InVlanUntagged(p as bit<16>, "SetAccessVlan", t as bit<12>) :-
    Port(_, _, p, "access", t, _).
InVlanTagged(p as bit<16>, v as bit<12>, "UseTaggedVlan", v as bit<12>) :-
    PortVlan(p, v, true).

// Per-VLAN flooding through the generated MulticastGroup relation; group
// id = vlan + 1 (group 0 means "no multicast").
FloodVlan(v as bit<12>, "Flood", (v + 1) as bit<16>) :- PortVlan(_, v, _).
MulticastGroup((v + 1) as bit<16>, p as bit<16>) :- PortVlan(p, v, _).

// Egress tagging policy.
OutVlan(p as bit<16>, v as bit<12>, "EmitUntagged", 0) :-
    PortVlan(p, v, false).
OutVlan(p as bit<16>, v as bit<12>, "EmitTagged", v as bit<12>) :-
    PortVlan(p, v, true).

// ACLs on source MACs.
Acl(v as bit<12>, m as bit<48>, "AclDrop") :- AclRule(_, m, v, false).
Acl(v as bit<12>, m as bit<48>, "AclAllow") :- AclRule(_, m, v, true).

// SPAN port mirroring.
PortMirror(s as bit<16>, "MirrorTo", d as bit<16>) :- Mirror(_, _, s, d).

// MAC learning: the newest digest for a (vlan, mac) replaces the old one.
key MacLearn(meta_vlan, ethernet_srcAddr)

// A learned (vlan, mac, port) suppresses further digests on that port and
// installs the unicast forwarding entry.
SMac(v, m, p, "NoAction") :- MacLearn(p, v, m).
Dmac(v, m, "Forward", p) :- MacLearn(p, v, m).
)dl";
}

Result<std::unique_ptr<SnvsStack>> BuildSnvsStack(const SnvsOptions& options) {
  if (options.devices < 1) {
    return InvalidArgument("need at least one device");
  }
  auto stack = std::unique_ptr<SnvsStack>(new SnvsStack());
  bool recovered = false;
  if (!options.ha_dir.empty()) {
    NERPA_ASSIGN_OR_RETURN(stack->store_,
                           ha::DurableStore::Open(SnvsSchema(),
                                                  options.ha_dir,
                                                  options.io));
    stack->db_raw_ = &stack->store_->db();
    recovered = stack->store_->recovered();
  } else {
    stack->db_ = std::make_unique<ovsdb::Database>(SnvsSchema());
    stack->db_raw_ = stack->db_.get();
  }
  stack->p4_ = SnvsP4Program();

  NERPA_ASSIGN_OR_RETURN(
      stack->bindings_,
      GenerateBindings(stack->db_raw_->schema(), *stack->p4_));

  stack->program_text_ = stack->bindings_.DeclsText() + SnvsRules();
  NERPA_ASSIGN_OR_RETURN(stack->program_,
                         dlog::Program::Parse(stack->program_text_));

  bool inject_faults = options.fault.write_fail_probability > 0 ||
                       options.fault.write_delay_nanos > 0;
  if (options.external_clients.empty()) {
    for (int i = 0; i < options.devices; ++i) {
      stack->switches_.push_back(std::make_unique<p4::Switch>(stack->p4_));
      if (inject_faults) {
        ha::FaultPolicy policy = options.fault;
        policy.seed += static_cast<uint64_t>(i);  // decorrelate devices
        stack->clients_.push_back(std::make_unique<ha::FaultyRuntimeClient>(
            stack->switches_.back().get(), policy));
      } else {
        stack->clients_.push_back(std::make_unique<p4::RuntimeClient>(
            stack->switches_.back().get()));
      }
      stack->client_ptrs_.push_back(stack->clients_.back().get());
    }
  } else {
    stack->client_ptrs_ = options.external_clients;
  }

  Controller::Options controller_options;
  if (recovered) {
    // Warm-start the control plane from the engine checkpoint sidecar when
    // one survived.  Any failure here (absent, corrupt, stale program) just
    // means recomputing the derivations — exactly the pre-checkpoint path.
    Result<std::string> blob =
        stack->store_->ReadEngineCheckpoint(kEngineCheckpointName);
    if (blob.ok()) {
      controller_options.engine_checkpoint = std::move(blob).value();
    } else if (blob.status().code() != StatusCode::kNotFound) {
      LOG_WARNING << "snvs: engine checkpoint unusable ("
                  << blob.status().ToString() << "); recomputing";
    }
  }
  controller_options.retry = options.retry;
  controller_options.breaker = options.breaker;
  controller_options.commit_deadline_nanos = options.commit_deadline_nanos;
  controller_options.watchdog = options.watchdog;
  stack->controller_ = std::make_unique<Controller>(
      stack->db_raw_, stack->program_, stack->p4_, stack->bindings_,
      controller_options);
  for (size_t i = 0; i < stack->client_ptrs_.size(); ++i) {
    NERPA_RETURN_IF_ERROR(stack->controller_->AddDevice(
        StrFormat("sw%zu", i), stack->client_ptrs_[i]));
  }
  NERPA_RETURN_IF_ERROR(stack->controller_->Start());
  return stack;
}

ha::FaultyRuntimeClient* SnvsStack::faulty(size_t index) {
  if (index >= clients_.size()) return nullptr;
  return dynamic_cast<ha::FaultyRuntimeClient*>(clients_[index].get());
}

Status SnvsStack::Checkpoint() {
  if (store_ == nullptr) {
    return FailedPrecondition("stack was built without ha_dir");
  }
  NERPA_RETURN_IF_ERROR(store_->Checkpoint());
  // Engine sidecar after the snapshot: a crash in between leaves an older
  // sidecar beside a newer snapshot, which restore reconciles (catch-up
  // diff for management rows; digest state is soft, and a re-learned MAC
  // replaces the restored row under its key).
  NERPA_ASSIGN_OR_RETURN(std::string blob, controller_->CheckpointEngine());
  return store_->WriteEngineCheckpoint(kEngineCheckpointName, blob);
}

Result<ovsdb::Uuid> SnvsManagement::AddPort(
    const std::string& name, int64_t port, const std::string& vlan_mode,
    int64_t tag, const std::vector<int64_t>& trunks) {
  ovsdb::TxnBuilder txn(db_raw_);
  std::vector<ovsdb::Atom> trunk_atoms;
  for (int64_t vlan : trunks) trunk_atoms.emplace_back(vlan);
  txn.Insert("Port", {
                         {"name", ovsdb::Datum::String(name)},
                         {"port", ovsdb::Datum::Integer(port)},
                         {"vlan_mode", ovsdb::Datum::String(vlan_mode)},
                         {"tag", ovsdb::Datum::Integer(tag)},
                         {"trunks", ovsdb::Datum::Set(std::move(trunk_atoms))},
                     });
  return CommitInsert(txn);
}

Status SnvsManagement::DeletePort(const std::string& name) {
  ovsdb::TxnBuilder txn(db_raw_);
  txn.Delete("Port", {{"name", "==", ovsdb::Datum::String(name)}});
  NERPA_RETURN_IF_ERROR(txn.Commit().status());
  return ControllerError();
}

Result<ovsdb::Uuid> SnvsManagement::AddMirror(const std::string& name,
                                              int64_t src_port,
                                              int64_t out_port) {
  ovsdb::TxnBuilder txn(db_raw_);
  txn.Insert("Mirror", {
                           {"name", ovsdb::Datum::String(name)},
                           {"src_port", ovsdb::Datum::Integer(src_port)},
                           {"out_port", ovsdb::Datum::Integer(out_port)},
                       });
  return CommitInsert(txn);
}

Result<ovsdb::Uuid> SnvsManagement::AddAclRule(int64_t mac, int64_t vlan,
                                               bool allow) {
  ovsdb::TxnBuilder txn(db_raw_);
  txn.Insert("AclRule", {
                            {"mac", ovsdb::Datum::Integer(mac)},
                            {"vlan", ovsdb::Datum::Integer(vlan)},
                            {"allow", ovsdb::Datum::Boolean(allow)},
                        });
  return CommitInsert(txn);
}

Result<ovsdb::Uuid> SnvsManagement::CommitInsert(ovsdb::TxnBuilder& txn) {
  NERPA_ASSIGN_OR_RETURN(std::vector<ovsdb::Uuid> inserted, txn.Commit());
  NERPA_RETURN_IF_ERROR(ControllerError());
  return inserted.at(0);
}

Result<std::vector<p4::PacketOut>> SnvsStack::InjectPacket(
    size_t device, uint64_t port, const net::Packet& packet) {
  if (device >= switches_.size()) {
    return InvalidArgument(
        "InjectPacket targets an internally created device; drive external "
        "switches directly and call SyncDataPlaneNotifications()");
  }
  NERPA_ASSIGN_OR_RETURN(
      std::vector<p4::PacketOut> out,
      switches_[device]->ProcessPacket(p4::PacketIn{port, packet}));
  NERPA_RETURN_IF_ERROR(controller_->SyncDataPlaneNotifications());
  return out;
}

}  // namespace nerpa::snvs
