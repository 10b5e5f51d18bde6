// The distributed deployment shape of the paper's Fig. 4: the management
// plane is a real TCP OVSDB server, and the controller consumes its
// monitor stream over the wire — the same architecture as the prototype's
// ovsdb-server + Rust controller split, here in two threads of one process
// connected only by a socket.
//
//   [ ovsdb server (service thread) ] ── TCP/JSON-RPC ──▶
//        [ controller: OvsdbClient → dlog engine → P4Runtime → switch ]
//
//   $ ./build/examples/networked_stack
#include <cstdio>

#include "nerpa/bindings.h"
#include "ovsdb/client.h"
#include "ovsdb/server.h"
#include "p4/runtime.h"
#include "snvs/snvs.h"

using namespace nerpa;

int main() {
  // --- Management plane: a real OVSDB server on a TCP port. ---
  ovsdb::OvsdbServer server(
      std::make_unique<ovsdb::Database>(snvs::SnvsSchema()));
  if (Status started = server.Start(); !started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("ovsdb server on 127.0.0.1:%u\n", server.port());

  // --- Data plane: one snvs switch. ---
  auto pipeline = snvs::SnvsP4Program();
  p4::Switch device(pipeline);
  p4::RuntimeClient runtime(&device);

  // --- Control plane: engine + bindings, fed from the wire. ---
  ovsdb::DatabaseSchema schema = snvs::SnvsSchema();
  auto bindings = GenerateBindings(schema, *pipeline);
  if (!bindings.ok()) return 1;
  auto program =
      dlog::Program::Parse(bindings->DeclsText() + snvs::SnvsRules());
  if (!program.ok()) {
    std::fprintf(stderr, "%s\n", program.status().ToString().c_str());
    return 1;
  }
  if (Status check = TypeCheck(**program, *bindings); !check.ok()) {
    std::fprintf(stderr, "%s\n", check.ToString().c_str());
    return 1;
  }
  dlog::Engine engine(*program);

  // Applies one wire-format update batch to the engine and pushes the
  // resulting entry deltas into the switch — the controller loop.
  auto apply_updates = [&](const Json& updates) -> Status {
    for (const auto& [table_name, rows] : updates.as_object()) {
      const ovsdb::TableSchema* table = schema.FindTable(table_name);
      const OvsdbBinding* binding = bindings->FindOvsdbTable(table_name);
      if (table == nullptr || binding == nullptr) continue;
      for (const auto& [uuid_text, change] : rows.as_object()) {
        auto uuid = ovsdb::Uuid::Parse(uuid_text);
        if (!uuid) return InvalidArgument("bad uuid on the wire");
        if (const Json* old_row = change.Find("old")) {
          NERPA_ASSIGN_OR_RETURN(ovsdb::Row row,
                                 RowFromJson(*table, *uuid, *old_row));
          NERPA_ASSIGN_OR_RETURN(dlog::Row dlog_row,
                                 OvsdbRowToDlog(*table, row));
          NERPA_RETURN_IF_ERROR(engine.Delete(binding->relation, dlog_row));
        }
        if (const Json* new_row = change.Find("new")) {
          NERPA_ASSIGN_OR_RETURN(ovsdb::Row row,
                                 RowFromJson(*table, *uuid, *new_row));
          NERPA_ASSIGN_OR_RETURN(dlog::Row dlog_row,
                                 OvsdbRowToDlog(*table, row));
          NERPA_RETURN_IF_ERROR(engine.Insert(binding->relation, dlog_row));
        }
      }
    }
    NERPA_ASSIGN_OR_RETURN(dlog::TxnDelta delta, engine.Commit());
    int writes = 0;
    for (const auto& [relation, rows] : delta.outputs) {
      if (relation == "MulticastGroup") {
        // Group membership (group = vlan + 1); rebuild affected groups.
        std::map<uint32_t, std::vector<uint64_t>> groups;
        auto existing = [&](uint32_t group) -> std::vector<uint64_t> {
          const auto* members = device.GetMulticastGroup(group);
          return members != nullptr ? *members : std::vector<uint64_t>{};
        };
        for (const auto& [row, direction] : rows) {
          uint32_t group = static_cast<uint32_t>(row[0].as_bit());
          if (groups.count(group) == 0) groups[group] = existing(group);
          auto& members = groups[group];
          uint64_t port = row[1].as_bit();
          if (direction > 0) {
            members.push_back(port);
          } else {
            members.erase(std::remove(members.begin(), members.end(), port),
                          members.end());
          }
        }
        for (auto& [group, members] : groups) {
          std::sort(members.begin(), members.end());
          device.SetMulticastGroup(group, members);
        }
        continue;
      }
      const TableBinding* table_binding = bindings->FindTable(relation);
      if (table_binding == nullptr) continue;
      for (const auto& [row, direction] : rows) {
        NERPA_ASSIGN_OR_RETURN(auto converted,
                               DlogRowToEntry(*table_binding, *pipeline, row));
        NERPA_RETURN_IF_ERROR(runtime.Write(
            {{direction > 0 ? p4::UpdateType::kInsert
                            : p4::UpdateType::kDelete,
              converted.second}}));
        ++writes;
      }
    }
    std::printf("controller: applied a wire delta -> %d table writes\n",
                writes);
    return Status::Ok();
  };

  // --- Wire the controller to the server over TCP. ---
  ovsdb::OvsdbClient watcher;
  if (!watcher.Connect("127.0.0.1", server.port()).ok()) return 1;
  Status pump_error;
  auto initial = watcher.Monitor(
      Json("controller"), {"Port", "Mirror", "AclRule"},
      [&](const Json&, const Json& updates) {
        Status status = apply_updates(updates);
        if (!status.ok() && pump_error.ok()) pump_error = status;
      });
  if (!initial.ok()) return 1;

  // --- An "administrator" CLI session on its own connection. ---
  ovsdb::OvsdbClient admin;
  if (!admin.Connect("127.0.0.1", server.port()).ok()) return 1;
  std::printf("admin: adding ports p1/p2 on vlan 10 over the wire\n");
  auto txn = admin.Transact(Json::Parse(R"([
    {"op": "insert", "table": "Port",
     "row": {"name": "p1", "port": 1, "vlan_mode": "access", "tag": 10}},
    {"op": "insert", "table": "Port",
     "row": {"name": "p2", "port": 2, "vlan_mode": "access", "tag": 10}}
  ])").value());
  if (!txn.ok()) {
    std::fprintf(stderr, "transact: %s\n", txn.status().ToString().c_str());
    return 1;
  }

  // Pump the monitor stream until the delta lands.
  auto delivered = watcher.WaitForUpdate(2000);
  if (!delivered.ok() || !pump_error.ok()) {
    std::fprintf(stderr, "pump: %s\n", pump_error.ToString().c_str());
    return 1;
  }

  std::printf("switch now has %zu admission entries; sending a packet:\n",
              device.GetTable("InVlanUntagged")->size());
  net::Packet frame = net::MakeEthernetFrame(
      net::Mac(0, 0, 0, 0, 0, 0xBB), net::Mac(0, 0, 0, 0, 0, 0xAA), 0x0800,
      {'h', 'i'});
  auto out = device.ProcessPacket(p4::PacketIn{1, frame});
  if (!out.ok()) return 1;
  std::printf("  packet from port 1 delivered to %zu port(s) (flood on "
              "vlan 10)\n", out->size());

  server.Stop();
  std::printf("done — three planes, one of them across a socket.\n");
  return 0;
}
