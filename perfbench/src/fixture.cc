#include "fixture.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>

#include "common/clock.h"
#include "dlog/program.h"
#include "nerpa/bindings.h"

namespace perfbench {

using nerpa::Result;
using nerpa::Status;

namespace {

constexpr const char* kMulticastRelation = "MulticastGroup";

double PerUnit(double total, uint64_t units) {
  return units == 0 ? 0 : total / static_cast<double>(units);
}

}  // namespace

net::Packet MakeFrame(uint64_t dst, uint64_t src, size_t size) {
  net::Packet frame(std::max<size_t>(size, 14), 0);
  for (int i = 0; i < 6; ++i) {
    frame[static_cast<size_t>(i)] = static_cast<uint8_t>(dst >> (40 - 8 * i));
    frame[static_cast<size_t>(6 + i)] =
        static_cast<uint8_t>(src >> (40 - 8 * i));
  }
  frame[12] = 0x08;  // IPv4 ethertype
  frame[13] = 0x00;
  return frame;
}

Result<std::unique_ptr<Fixture>> BuildFixture(int devices, Tracer* tracer) {
  auto fixture = std::make_unique<Fixture>();
  nerpa::snvs::SnvsOptions options;
  for (int i = 0; i < devices; ++i) {
    fixture->switches.push_back(
        std::make_unique<p4::Switch>(nerpa::snvs::SnvsP4Program()));
    p4::Switch* sw = fixture->switches.back().get();
    if (tracer != nullptr) {
      auto client =
          std::make_unique<TimingClient>(sw, tracer, static_cast<uint32_t>(i + 1));
      fixture->timing.push_back(client.get());
      tracer->AddClient(client.get());
      fixture->clients.push_back(std::move(client));
    } else {
      fixture->clients.push_back(std::make_unique<p4::RuntimeClient>(sw));
    }
    options.external_clients.push_back(fixture->clients.back().get());
  }
  NERPA_ASSIGN_OR_RETURN(fixture->stack, nerpa::snvs::BuildSnvsStack(options));
  return fixture;
}

Status CommitTxn(ovsdb::Database& db,
                 const std::function<void(ovsdb::TxnBuilder&)>& build) {
  ovsdb::TxnBuilder txn(&db);
  build(txn);
  return txn.Commit().status();
}

// --- FailureWatch ---

FailureWatch::FailureWatch(nerpa::Controller* controller)
    : controller_(controller),
      last_error_ok_(controller->last_error().ok()),
      troubles_(Troubles()) {}

uint64_t FailureWatch::Troubles() const {
  nerpa::Controller::Stats stats = controller_->stats();
  return stats.errors + stats.write_failures + stats.retries;
}

bool FailureWatch::Failed(const Status& status) {
  bool failed = !status.ok();
  bool error_ok = controller_->last_error().ok();
  if (!error_ok && last_error_ok_) failed = true;
  last_error_ok_ = error_ok;
  uint64_t troubles = Troubles();
  if (troubles > troubles_) failed = true;
  troubles_ = troubles;
  return failed;
}

// --- Shadow ---

Result<std::unique_ptr<Shadow>> Shadow::Create(
    const nerpa::snvs::SnvsStack& stack, Tracer* tracer) {
  auto shadow = std::unique_ptr<Shadow>(new Shadow());
  Shadow* raw = shadow.get();
  raw->tracer_ = tracer;
  raw->db_ = std::make_unique<ovsdb::Database>(nerpa::snvs::SnvsSchema());
  raw->db_->AddMonitor({}, [raw](const ovsdb::TableUpdates& updates) {
    Scope capture(raw->tracer_, Kind::kOvsdbCapture);
    raw->captured_ = updates;
  });
  NERPA_ASSIGN_OR_RETURN(std::shared_ptr<const dlog::Program> program,
                         dlog::Program::Parse(stack.program_text()));
  raw->engine_ = std::make_unique<dlog::Engine>(std::move(program));
  raw->p4_ = nerpa::snvs::SnvsP4Program();
  raw->bindings_ = stack.bindings();
  dlog::TxnDelta initial = raw->engine_->TakeInitialDelta();
  if (!initial.empty()) {
    return nerpa::FailedPrecondition("snvs rules derive facts at start-up");
  }
  return shadow;
}

Status Shadow::ReplayTxn(const std::function<void(ovsdb::TxnBuilder&)>& build,
                         uint64_t rows, std::vector<std::string>* expected) {
  ovsdb::TxnBuilder txn(db_.get());
  build(txn);
  captured_.clear();
  Status committed;
  {
    Scope span(tracer_, Kind::kOvsdbTxn);
    committed = txn.Commit().status();
  }
  NERPA_RETURN_IF_ERROR(committed);
  bool traced = tracer_ != nullptr && tracer_->in_change();
  if (traced) {
    Counters& counters = counters_[static_cast<size_t>(tracer_->phase())];
    ++counters.txns;
    counters.txn_rows += rows;
    for (const auto& [table, updates] : captured_) {
      counters.monitor_rows += updates.size();
    }
  }
  // Conversion exactly as Controller::ProcessOvsdbUpdates does it: per
  // row update, the old row is deleted and the new one inserted.
  pending_.clear();
  {
    Scope span(tracer_, Kind::kRowConvert);
    for (const auto& [table, updates] : captured_) {
      const nerpa::OvsdbBinding* binding = bindings_.FindOvsdbTable(table);
      if (binding == nullptr) continue;
      const ovsdb::TableSchema* schema = db_->schema().FindTable(table);
      for (const auto& [uuid, update] : updates) {
        if (update.old_row) {
          NERPA_ASSIGN_OR_RETURN(dlog::Row row,
                                 nerpa::OvsdbRowToDlog(*schema, *update.old_row));
          pending_.push_back(Input{&binding->relation, std::move(row), false});
        }
        if (update.new_row) {
          NERPA_ASSIGN_OR_RETURN(dlog::Row row,
                                 nerpa::OvsdbRowToDlog(*schema, *update.new_row));
          pending_.push_back(Input{&binding->relation, std::move(row), true});
        }
      }
    }
  }
  return Evaluate(expected);
}

Status Shadow::ReplayInputs(const std::string& relation,
                            std::vector<dlog::Row> rows,
                            std::vector<std::string>* expected) {
  pending_.clear();
  for (dlog::Row& row : rows) {
    pending_.push_back(Input{&relation, std::move(row), true});
  }
  return Evaluate(expected);
}

Status Shadow::Evaluate(std::vector<std::string>* expected) {
  int64_t start = nerpa::MonotonicNanos();
  for (Input& input : pending_) {
    NERPA_RETURN_IF_ERROR(
        input.insert ? engine_->Insert(*input.relation, std::move(input.row))
                     : engine_->Delete(*input.relation, std::move(input.row)));
  }
  NERPA_ASSIGN_OR_RETURN(dlog::TxnDelta delta, engine_->Commit());
  int64_t end = nerpa::MonotonicNanos();
  bool retracts = false;
  uint64_t output_rows = 0;
  for (const auto& [relation, rows] : delta.outputs) {
    output_rows += rows.size();
    for (const auto& [row, direction] : rows) {
      if (direction < 0) retracts = true;
    }
  }
  if (tracer_ != nullptr && tracer_->in_change()) {
    tracer_->AddSpan(retracts ? Kind::kDlogDelete : Kind::kDlogInsert, start,
                     end);
    Counters& counters = counters_[static_cast<size_t>(tracer_->phase())];
    ++counters.commits;
    counters.output_rows += output_rows;
  }
  std::vector<std::pair<int, p4::TableEntry>> entries;
  {
    Scope span(tracer_, Kind::kEntryConvert);
    for (const auto& [relation, rows] : delta.outputs) {
      const nerpa::TableBinding* binding = bindings_.FindTable(relation);
      if (binding == nullptr) continue;
      for (const auto& [row, direction] : rows) {
        NERPA_ASSIGN_OR_RETURN(auto converted,
                               nerpa::DlogRowToEntry(*binding, *p4_, row));
        entries.emplace_back(direction, std::move(converted.second));
      }
    }
  }
  // Multicast membership, as the controller regroups it: one reprogram
  // per touched group carrying its final sorted member list.
  std::set<uint32_t> dirty;
  auto multicast = delta.outputs.find(kMulticastRelation);
  if (multicast != delta.outputs.end()) {
    for (const auto& [row, direction] : multicast->second) {
      uint32_t group = static_cast<uint32_t>(row[0].as_bit());
      uint64_t port = row[1].as_bit();
      std::vector<uint64_t>& members = groups_[group];
      auto at = std::lower_bound(members.begin(), members.end(), port);
      if (direction > 0 && (at == members.end() || *at != port)) {
        members.insert(at, port);
      } else if (direction < 0 && at != members.end() && *at == port) {
        members.erase(at);
      }
      dirty.insert(group);
    }
  }
  if (expected != nullptr) {
    expected->clear();
    for (const auto& [direction, entry] : entries) {
      expected->push_back((direction < 0 ? "D|" : "I|") + entry.ToString());
    }
    for (uint32_t group : dirty) {
      std::string text = "M|" + std::to_string(group) + "|";
      for (uint64_t port : groups_[group]) text += std::to_string(port) + ",";
      expected->push_back(std::move(text));
    }
    std::sort(expected->begin(), expected->end());
  }
  for (uint32_t group : dirty) {
    if (groups_[group].empty()) groups_.erase(group);
  }
  return Status::Ok();
}

// --- Runner ---

double Runner::Run(const std::function<void(ovsdb::TxnBuilder&)>& build,
                   uint64_t rows, bool traced) {
  ovsdb::TxnBuilder txn(&fixture_->db());
  build(txn);
  if (traced) tracer_->BeginChange();
  Status committed;
  int64_t start = 0;
  int64_t end = 0;
  uint64_t interned = shadow_ != nullptr ? InternedValues() : 0;
  {
    Scope change(tracer_, Kind::kChange);
    start = nerpa::MonotonicNanos();
    committed = txn.Commit().status();
    end = nerpa::MonotonicNanos();
  }
  if (shadow_ != nullptr) interned_ += InternedValues() - interned;
  bool failed = watch_.Failed(committed);
  if (shadow_ != nullptr) {
    std::vector<std::string> expected;
    Status replayed =
        shadow_->ReplayTxn(build, rows, traced ? &expected : nullptr);
    if (!replayed.ok()) {
      outcome_->Fail("shadow replay: " + replayed.ToString());
    }
    if (traced) {
      for (size_t i = 0; i < fixture_->timing.size(); ++i) {
        if (fixture_->timing[i]->TakeWrites() != expected) {
          outcome_->Fail("change " + std::to_string(changes_) + ": sw" +
                         std::to_string(i) +
                         " writes differ from the shadow engine's output");
        }
      }
    }
  }
  if (traced) tracer_->EndChange();
  ++changes_;
  return failed ? -1 : static_cast<double>(end - start);
}

// --- Gates and probes ---

void PrintResidentState(const char* when, Fixture& fixture) {
  const p4::TableState* dmac = fixture.switches[0]->GetTable("Dmac");
  std::printf(
      "state[%s]: ports=%zu dmac_entries=%zu maclearn_rows=%zu "
      "interned_strings=%zu\n",
      when, fixture.db().RowCount("Port"), dmac != nullptr ? dmac->size() : 0,
      fixture.controller().engine().Size("MacLearn"),
      dlog::GetInternPoolStats().strings);
}

namespace {

std::vector<std::string> TableText(const p4::RuntimeClient& client,
                                   const std::string& table) {
  std::vector<std::string> out;
  Result<std::vector<p4::TableEntry>> entries = client.ReadTable(table);
  if (!entries.ok()) return {"<" + entries.status().ToString() + ">"};
  for (const p4::TableEntry& entry : entries.value()) {
    out.push_back(entry.ToString() + "#" + std::to_string(entry.priority));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::pair<uint32_t, std::vector<uint64_t>>> Groups(
    const p4::RuntimeClient& client) {
  auto groups = client.ReadMulticastGroups();
  if (!groups.ok()) return {};
  std::vector<std::pair<uint32_t, std::vector<uint64_t>>> out = groups.value();
  for (auto& [group, ports] : out) std::sort(ports.begin(), ports.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

void CheckRebuild(Fixture& live, Outcome* outcome) {
  Result<std::unique_ptr<Fixture>> fresh =
      BuildFixture(static_cast<int>(live.switches.size()), nullptr);
  if (!fresh.ok()) {
    outcome->Fail("rebuild: " + fresh.status().ToString());
    return;
  }
  Status copied = CommitTxn((*fresh)->db(), [&](ovsdb::TxnBuilder& txn) {
    for (const char* table : {"Port", "Mirror", "AclRule"}) {
      for (const ovsdb::Row* row : live.db().GetRows(table)) {
        txn.Insert(table, row->columns);
      }
    }
  });
  if (!copied.ok()) {
    outcome->Fail("rebuild: copying rows: " + copied.ToString());
    return;
  }
  for (size_t i = 0; i < live.switches.size(); ++i) {
    for (const p4::Table& table : live.switches[i]->program().tables) {
      if (TableText(*live.clients[i], table.name) !=
          TableText(*(*fresh)->clients[i], table.name)) {
        outcome->Fail("rebuild: switch " + std::to_string(i) + " table " +
                      table.name + " differs from a fresh build");
      }
    }
    if (Groups(*live.clients[i]) != Groups(*(*fresh)->clients[i])) {
      outcome->Fail("rebuild: switch " + std::to_string(i) +
                    " multicast groups differ from a fresh build");
    }
  }
  nerpa::Controller::Stats before = live.controller().stats();
  for (size_t i = 0; i < live.switches.size(); ++i) {
    uint64_t writes = live.clients[i]->write_count();
    Status synced = live.controller().ResyncDevice("sw" + std::to_string(i));
    if (!synced.ok()) {
      outcome->Fail("resync sw" + std::to_string(i) + ": " + synced.ToString());
    } else if (live.clients[i]->write_count() != writes) {
      outcome->Fail("resync sw" + std::to_string(i) + " issued writes");
    }
  }
  nerpa::Controller::Stats after = live.controller().stats();
  if (after.resync_inserted != before.resync_inserted ||
      after.resync_deleted != before.resync_deleted ||
      after.resync_modified != before.resync_modified) {
    outcome->Fail("resync found a diff on a converged stack");
  }
}

void ProbeFlooding(Fixture& fixture, int vlans, Tracer* tracer,
                   PacketCounters* counters, Outcome* outcome) {
  std::map<int64_t, std::vector<uint64_t>> members;
  std::map<int64_t, uint64_t> access_port;
  for (const ovsdb::Row* row : fixture.db().GetRows("Port")) {
    uint64_t port = static_cast<uint64_t>(row->Find("port")->AsInteger());
    if (row->Find("vlan_mode")->AsString() == "access") {
      int64_t vlan = row->Find("tag")->AsInteger();
      members[vlan].push_back(port);
      access_port.emplace(vlan, port);
    } else {
      for (const ovsdb::Atom& vlan : row->Find("trunks")->keys()) {
        members[vlan.integer()].push_back(port);
      }
    }
  }
  if (tracer != nullptr) tracer->set_phase(Phase::kProbe);
  p4::Switch& sw = *fixture.switches[0];
  int probed = 0;
  for (const auto& [vlan, ingress] : access_port) {
    if (probed++ == vlans) break;
    uint64_t src = 0x02fe00000000ULL | static_cast<uint64_t>(vlan);
    net::Packet frame = MakeFrame(0xffffffffffffULL, src, 64);
    std::vector<uint64_t> want = members[vlan];
    want.erase(std::find(want.begin(), want.end(), ingress));
    std::sort(want.begin(), want.end());
    uint64_t digests = sw.stats().digests;
    if (tracer != nullptr) tracer->BeginChange();
    Result<std::vector<p4::PacketOut>> out = nerpa::Status::Ok();
    Status synced;
    {
      Scope change(tracer, Kind::kChange);
      int64_t start = nerpa::MonotonicNanos();
      {
        Scope packet(tracer, Kind::kP4Packet);
        out = sw.ProcessPacket(p4::PacketIn{ingress, frame});
      }
      counters->total_ns += static_cast<double>(nerpa::MonotonicNanos() - start);
      Scope sync(tracer, Kind::kDigestSync);
      synced = fixture.controller().SyncDataPlaneNotifications();
    }
    if (tracer != nullptr) {
      for (TimingClient* client : fixture.timing) client->TakeWrites();
      tracer->EndChange();
    }
    ++counters->frames;
    ++counters->floods;
    counters->digests += sw.stats().digests - digests;
    if (!out.ok() || !synced.ok()) {
      outcome->Fail("probe: vlan " + std::to_string(vlan) + ": " +
                    (out.ok() ? synced : out.status()).ToString());
      continue;
    }
    counters->replicas += out->size();
    std::vector<uint64_t> got;
    for (const p4::PacketOut& copy : *out) got.push_back(copy.port);
    std::sort(got.begin(), got.end());
    if (got != want) {
      auto list = [](const std::vector<uint64_t>& ports) {
        std::string text;
        for (uint64_t port : ports) text += " " + std::to_string(port);
        return text;
      };
      outcome->Fail("probe: broadcast on vlan " + std::to_string(vlan) +
                    " from port " + std::to_string(ingress) + " left on" +
                    list(got) + " instead of" + list(want));
    }
    const p4::TableEntry* learned = sw.GetTable("Dmac")->Lookup(
        {static_cast<uint64_t>(vlan), src});
    if (learned == nullptr || learned->action_args.empty() ||
        learned->action_args[0] != ingress) {
      outcome->Fail("probe: vlan " + std::to_string(vlan) +
                    " did not learn the flooding host");
    }
  }
}

// --- Per-layer metrics ---

uint64_t InternedValues() {
  dlog::InternPoolStats stats = dlog::GetInternPoolStats();
  return stats.strings + stats.tuples;
}

void SnapshotClients(const Fixture& fixture, uint64_t* write_calls,
                     uint64_t* updates, uint64_t* multicast_calls,
                     uint64_t* offthread) {
  *write_calls = *updates = *multicast_calls = *offthread = 0;
  for (const TimingClient* client : fixture.timing) {
    *write_calls += client->write_calls();
    *updates += client->updates();
    *multicast_calls += client->multicast_calls();
    *offthread += client->offthread_calls();
  }
}

void AddLayerMetrics(const LayerInputs& in, Outcome* outcome) {
  const Tracer& tracer = *in.tracer;
  auto best = [&](Kind kind) -> const KindTotals& {
    return tracer.totals(tracer.BestPhase({kind}), kind);
  };
  // Mean self time of `kind` per span, in µs.
  auto per_span_us = [&](Kind kind) {
    const KindTotals& t = best(kind);
    return PerUnit(t.self_ns, t.count) / 1e3;
  };
  // Busy time of `kind` per traced change of the phase it comes from.
  auto per_change_us = [&](Kind kind) {
    Phase phase = tracer.BestPhase({kind});
    return PerUnit(tracer.totals(phase, kind).total_ns, tracer.changes(phase)) /
           1e3;
  };
  auto per_change_count = [&](Kind kind) {
    Phase phase = tracer.BestPhase({kind});
    return PerUnit(static_cast<double>(tracer.totals(phase, kind).count),
                   tracer.changes(phase));
  };

  Phase ovsdb_phase = tracer.BestPhase({Kind::kOvsdbTxn});
  const Shadow::Counters& txns = in.shadow->counters(ovsdb_phase);
  outcome->Add("ovsdb.txn_us", per_span_us(Kind::kOvsdbTxn), "us");
  outcome->Add("ovsdb.rows_per_txn",
               PerUnit(static_cast<double>(txns.txn_rows), txns.txns), "count");
  outcome->Add("ovsdb.monitor_rows",
               PerUnit(static_cast<double>(txns.monitor_rows), txns.txns),
               "count");

  double changes = static_cast<double>(in.timed_changes);
  const auto& c0 = in.controller_before;
  const auto& c1 = in.controller_after;
  outcome->Add("nerpa.row_convert_us", per_span_us(Kind::kRowConvert), "us");
  outcome->Add("nerpa.entry_convert_us", per_span_us(Kind::kEntryConvert), "us");
  outcome->Add("nerpa.glue_us", tracer.GlueUs(Phase::kTimed), "us");
  outcome->Add("nerpa.offthread_write_share",
               PerUnit(static_cast<double>(in.offthread),
                       in.write_calls + in.multicast_calls),
               "ratio");
  outcome->Add("nerpa.entries_per_change",
               PerUnit(static_cast<double>(
                           (c1.entries_inserted - c0.entries_inserted) +
                           (c1.entries_deleted - c0.entries_deleted)),
                       in.timed_changes),
               "count");
  outcome->Add("nerpa.multicast_updates_per_change",
               PerUnit(static_cast<double>(c1.multicast_updates -
                                           c0.multicast_updates),
                       in.timed_changes),
               "count");
  const KindTotals& sync = best(Kind::kDigestSync);
  outcome->Add("nerpa.digest_sync_us", PerUnit(sync.total_ns, sync.count) / 1e3,
               "us");

  Phase dlog_phase = tracer.BestPhase({Kind::kDlogInsert, Kind::kDlogDelete});
  const KindTotals& ins = tracer.totals(dlog_phase, Kind::kDlogInsert);
  const KindTotals& del = tracer.totals(dlog_phase, Kind::kDlogDelete);
  outcome->Add("dlog.commit_us",
               PerUnit(ins.self_ns + del.self_ns, ins.count + del.count) / 1e3,
               "us");
  outcome->Add("dlog.insert_commit_ms", per_span_us(Kind::kDlogInsert) / 1e3,
               "ms");
  outcome->Add("dlog.delete_commit_ms", per_span_us(Kind::kDlogDelete) / 1e3,
               "ms");
  const auto& e0 = in.engine_before;
  const auto& e1 = in.engine_after;
  outcome->Add("dlog.rule_firings_per_change",
               PerUnit(static_cast<double>(e1.rule_firings - e0.rule_firings),
                       in.timed_changes),
               "count");
  outcome->Add("dlog.probes_per_change",
               PerUnit(static_cast<double>(e1.probes - e0.probes),
                       in.timed_changes),
               "count");
  outcome->Add("dlog.scans_per_change",
               PerUnit(static_cast<double>(e1.scans - e0.scans),
                       in.timed_changes),
               "count");
  const Shadow::Counters& commits = in.shadow->counters(dlog_phase);
  outcome->Add("dlog.output_rows_per_change",
               PerUnit(static_cast<double>(commits.output_rows),
                       tracer.changes(dlog_phase)),
               "count");
  outcome->Add("dlog.interned_per_change",
               PerUnit(static_cast<double>(in.interned), in.timed_changes),
               "count");
  outcome->Add("dlog.arrangement_mib",
               static_cast<double>(e1.arrangement_bytes) / (1024.0 * 1024.0),
               "MiB");
  outcome->Add("dlog.tuples", static_cast<double>(e1.tuples), "count");

  const KindTotals& writes = best(Kind::kP4Write);
  outcome->Add("p4.write_us", per_change_us(Kind::kP4Write), "us");
  outcome->Add("p4.write_call_us", PerUnit(writes.total_ns, writes.count) / 1e3,
               "us");
  outcome->Add("p4.write_calls_per_change", per_change_count(Kind::kP4Write),
               "count");
  outcome->Add("p4.updates_per_write_call",
               PerUnit(static_cast<double>(in.updates), in.write_calls),
               "count");
  outcome->Add("p4.multicast_us", per_change_us(Kind::kP4Multicast), "us");
  outcome->Add("p4.multicast_calls_per_change",
               per_change_count(Kind::kP4Multicast), "count");
  const PacketCounters& packets = in.packets;
  outcome->Add("p4.packet_us", PerUnit(packets.total_ns, packets.frames) / 1e3,
               "us");
  outcome->Add("p4.replicas_per_packet",
               PerUnit(static_cast<double>(packets.replicas), packets.frames),
               "count");
  outcome->Add("p4.flood_share",
               PerUnit(static_cast<double>(packets.floods), packets.frames),
               "ratio");
  outcome->Add("p4.digests_per_kpkt",
               PerUnit(1e3 * static_cast<double>(packets.digests),
                       packets.frames),
               "count");
  double overhead = in.untraced_change_us > 0
                        ? in.traced_change_us / in.untraced_change_us - 1
                        : 0;
  outcome->Add("trace.overhead_share", overhead, "ratio");

  // Do the stages add up?  By construction yes: the glue is the explicit
  // remainder, printed next to the parts it completes.
  uint64_t traced = tracer.changes(Phase::kTimed);
  auto phase_us = [&](Kind kind) {
    return PerUnit(tracer.totals(Phase::kTimed, kind).self_ns, traced) / 1e3;
  };
  std::printf(
      "stages (mean per traced change, n=%llu): change %.3fus = live p4 "
      "%.3f + ovsdb %.3f + row_convert %.3f + dlog %.3f + entry_convert "
      "%.3f + nerpa.glue %.3f\n",
      static_cast<unsigned long long>(traced),
      PerUnit(tracer.totals(Phase::kTimed, Kind::kChange).total_ns, traced) /
          1e3,
      tracer.LiveChildUs(Phase::kTimed), phase_us(Kind::kOvsdbTxn),
      phase_us(Kind::kRowConvert),
      phase_us(Kind::kDlogInsert) + phase_us(Kind::kDlogDelete),
      phase_us(Kind::kEntryConvert), tracer.GlueUs(Phase::kTimed));
  std::printf("trace.overhead_share: traced change mean %.3fus vs untraced "
              "%.3fus (%+.3f); %.0f changes in the timed phase\n",
              in.traced_change_us, in.untraced_change_us, overhead, changes);
}

void WriteTrace(const Options& options, const Tracer& tracer) {
  if (options.trace_dir.empty()) return;
  std::string path = options.trace_dir + "/trace-" + options.workload +
                     "-seed" + std::to_string(options.seed) + ".jsonl";
  if (tracer.WriteFile(path)) {
    std::printf("trace: spans written to %s\n", path.c_str());
  } else {
    std::printf("trace: could not write %s\n", path.c_str());
  }
}

}  // namespace perfbench
