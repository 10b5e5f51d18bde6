// Tests for the OVSDB wire layer: JSON-RPC messages, stream splitting,
// and a live TCP server/client exchange with monitors.
#include <gtest/gtest.h>

#include "common/clock.h"
#include "common/strings.h"
#include "ovsdb/client.h"
#include "ovsdb/server.h"
#include "snvs/snvs.h"

namespace nerpa::ovsdb {
namespace {

TEST(JsonRpc, MessageRoundTrip) {
  JsonRpcMessage request = JsonRpcMessage::Request(
      "transact", Json(Json::Array{Json("db")}), Json(int64_t{7}));
  auto back = JsonRpcMessage::FromJson(Json::Parse(request.ToJson().Dump())
                                           .value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->kind, JsonRpcMessage::Kind::kRequest);
  EXPECT_EQ(back->method, "transact");
  EXPECT_EQ(back->id.as_integer(), 7);

  JsonRpcMessage notification = JsonRpcMessage::Notification(
      "update", Json(Json::Array{}));
  back = JsonRpcMessage::FromJson(
      Json::Parse(notification.ToJson().Dump()).value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->kind, JsonRpcMessage::Kind::kNotification);

  JsonRpcMessage response =
      JsonRpcMessage::Response(Json(int64_t{1}), Json(int64_t{7}));
  back = JsonRpcMessage::FromJson(
      Json::Parse(response.ToJson().Dump()).value());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->kind, JsonRpcMessage::Kind::kResponse);
  EXPECT_TRUE(back->error.is_null());
}

TEST(JsonStreamSplitter, SplitsConcatenatedAndFragmented) {
  JsonStreamSplitter splitter;
  std::vector<std::string> documents;
  auto collect = [&](std::string_view text) -> Status {
    documents.emplace_back(text);
    return Status::Ok();
  };
  // Two messages in one chunk, then one split across three chunks, with a
  // brace inside a string to trip naive splitters.
  ASSERT_TRUE(splitter.Feed(R"({"a":1}{"b":[1,2]})", collect).ok());
  ASSERT_TRUE(splitter.Feed(R"({"c":"}{", )", collect).ok());
  ASSERT_TRUE(splitter.Feed(R"("d": "\"}")", collect).ok());
  ASSERT_TRUE(splitter.Feed("}", collect).ok());
  ASSERT_EQ(documents.size(), 3u);
  EXPECT_EQ(documents[0], R"({"a":1})");
  EXPECT_EQ(documents[1], R"({"b":[1,2]})");
  auto third = Json::Parse(documents[2]);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->Find("c")->as_string(), "}{");
  EXPECT_EQ(third->Find("d")->as_string(), "\"}");
}

TEST(JsonStreamSplitter, RejectsUnbalanced) {
  JsonStreamSplitter splitter;
  auto ignore = [](std::string_view) { return Status::Ok(); };
  EXPECT_FALSE(splitter.Feed("}}", ignore).ok());
}

class RpcTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<OvsdbServer>(
        std::make_unique<Database>(snvs::SnvsSchema()));
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
  }

  void TearDown() override {
    client_.Disconnect();
    server_->Stop();
  }

  std::unique_ptr<OvsdbServer> server_;
  OvsdbClient client_;
};

TEST_F(RpcTest, EchoAndSchema) {
  ASSERT_TRUE(client_.Echo().ok());
  auto schema = client_.GetSchema();
  ASSERT_TRUE(schema.ok()) << schema.status().ToString();
  EXPECT_EQ(schema->name, "snvs");
  EXPECT_NE(schema->FindTable("Port"), nullptr);
}

TEST_F(RpcTest, TransactOverTheWire) {
  auto result = client_.Transact(Json::Parse(R"([
    {"op": "insert", "table": "Port",
     "row": {"name": "p1", "port": 1, "vlan_mode": "access", "tag": 10}}
  ])").value());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->is_array());
  EXPECT_NE(result->as_array()[0].Find("uuid"), nullptr);

  // Errors come back as JSON-RPC errors.
  result = client_.Transact(Json::Parse(R"([
    {"op": "insert", "table": "Port",
     "row": {"name": "p2", "port": 2, "vlan_mode": "bogus", "tag": 1}}
  ])").value());
  EXPECT_FALSE(result.ok());
}

TEST_F(RpcTest, MonitorStreamsUpdates) {
  int updates_seen = 0;
  Json last_update;
  auto initial = client_.Monitor(
      Json("m1"), {"Port"}, [&](const Json& id, const Json& updates) {
        (void)id;
        ++updates_seen;
        last_update = updates;
      });
  ASSERT_TRUE(initial.ok()) << initial.status().ToString();
  EXPECT_TRUE(initial->as_object().empty());  // empty db: empty snapshot

  ASSERT_TRUE(client_.Transact(Json::Parse(R"([
    {"op": "insert", "table": "Port",
     "row": {"name": "p1", "port": 1, "vlan_mode": "access", "tag": 10}}
  ])").value()).ok());
  auto delivered = client_.WaitForUpdate(2000);
  ASSERT_TRUE(delivered.ok()) << delivered.status().ToString();
  ASSERT_GE(*delivered, 1);
  EXPECT_EQ(updates_seen, 1);
  const Json* port_updates = last_update.Find("Port");
  ASSERT_NE(port_updates, nullptr);
  ASSERT_EQ(port_updates->as_object().size(), 1u);
  const Json& row = port_updates->as_object().begin()->second;
  EXPECT_EQ(row.Find("new")->Find("name")->as_string(), "p1");
  EXPECT_EQ(row.Find("old"), nullptr);  // insert: no old

  // A second client gets the current contents in its initial snapshot.
  OvsdbClient late;
  ASSERT_TRUE(late.Connect("127.0.0.1", server_->port()).ok());
  auto late_initial =
      late.Monitor(Json("m2"), {"Port"}, [](const Json&, const Json&) {});
  ASSERT_TRUE(late_initial.ok());
  ASSERT_NE(late_initial->Find("Port"), nullptr);
  EXPECT_EQ(late_initial->Find("Port")->as_object().size(), 1u);

  // Cancel stops the stream.
  ASSERT_TRUE(client_.MonitorCancel(Json("m1")).ok());
  ASSERT_TRUE(client_.Transact(Json::Parse(R"([
    {"op": "delete", "table": "Port", "where": []}
  ])").value()).ok());
  delivered = client_.WaitForUpdate(300);
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(*delivered, 0);
}

// --- Self-healing session semantics -----------------------------------

Status InsertPort(OvsdbClient& client, const std::string& name, int64_t port) {
  return client
      .Transact(Json::Parse(StrFormat(
                                R"([{"op": "insert", "table": "Port",
                                     "row": {"name": "%s", "port": %lld,
                                             "vlan_mode": "access",
                                             "tag": 10}}])",
                                name.c_str(), static_cast<long long>(port)))
                    .value())
      .status();
}

TEST_F(RpcTest, HealReplaysExactlyTheMissedDeltas) {
  OvsdbClient::HealPolicy heal;
  heal.enabled = true;
  client_.set_heal_policy(heal);

  // Count every distinct insert delivered, keyed by port name, to pin
  // down exactly-once delivery across the reconnect.
  std::map<std::string, int> seen;
  auto initial = client_.Monitor(
      Json("m1"), {"Port"}, [&](const Json&, const Json& updates) {
        const Json* ports = updates.Find("Port");
        if (ports == nullptr) return;
        for (const auto& [uuid, delta] : ports->as_object()) {
          const Json* row = delta.Find("new");
          if (row != nullptr) ++seen[row->Find("name")->as_string()];
        }
      });
  ASSERT_TRUE(initial.ok()) << initial.status().ToString();

  OvsdbClient writer;
  ASSERT_TRUE(writer.Connect("127.0.0.1", server_->port()).ok());
  ASSERT_TRUE(InsertPort(writer, "p1", 1).ok());
  auto delivered = client_.WaitForUpdate(2000);
  ASSERT_TRUE(delivered.ok());
  ASSERT_EQ(*delivered, 1);

  // Kill the transport, then commit twice while the session is down.
  client_.InjectTransportFault();
  ASSERT_TRUE(InsertPort(writer, "p2", 2).ok());
  ASSERT_TRUE(InsertPort(writer, "p3", 3).ok());

  // The next pump notices the dead transport, reconnects, and replays
  // exactly the two missed deltas — p1 is not delivered again.
  delivered = client_.Poll();
  ASSERT_TRUE(delivered.ok()) << delivered.status().ToString();
  EXPECT_EQ(*delivered, 2);
  EXPECT_EQ(client_.session_stats().reconnects, 1u);
  EXPECT_EQ(client_.session_stats().replayed_updates, 2u);
  EXPECT_EQ(client_.session_stats().full_redumps, 0u);
  EXPECT_EQ(seen["p1"], 1);
  EXPECT_EQ(seen["p2"], 1);
  EXPECT_EQ(seen["p3"], 1);

  // The healed session streams live again.
  ASSERT_TRUE(InsertPort(writer, "p4", 4).ok());
  delivered = client_.WaitForUpdate(2000);
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(*delivered, 1);
  EXPECT_EQ(seen["p4"], 1);
}

TEST(RpcHeal, FullRedumpWhenGapAgedOutOfHistory) {
  auto server = std::make_unique<OvsdbServer>(
      std::make_unique<Database>(snvs::SnvsSchema()));
  server->set_history_limit(1);
  ASSERT_TRUE(server->Start().ok());

  OvsdbClient client;
  OvsdbClient::HealPolicy heal;
  heal.enabled = true;
  client.set_heal_policy(heal);
  ASSERT_TRUE(client.Connect("127.0.0.1", server->port()).ok());
  int full_dump_rows = 0;
  ASSERT_TRUE(client
                  .Monitor(Json("m"), {"Port"},
                           [&](const Json&, const Json& updates) {
                             const Json* ports = updates.Find("Port");
                             if (ports == nullptr) return;
                             full_dump_rows =
                                 static_cast<int>(ports->as_object().size());
                           })
                  .ok());

  OvsdbClient writer;
  ASSERT_TRUE(writer.Connect("127.0.0.1", server->port()).ok());
  client.InjectTransportFault();
  ASSERT_TRUE(InsertPort(writer, "p1", 1).ok());
  ASSERT_TRUE(InsertPort(writer, "p2", 2).ok());
  ASSERT_TRUE(InsertPort(writer, "p3", 3).ok());

  // Three commits but a one-entry history: the gap aged out, so the heal
  // falls back to a full dump carrying the complete current contents.
  auto delivered = client.Poll();
  ASSERT_TRUE(delivered.ok()) << delivered.status().ToString();
  EXPECT_GE(*delivered, 1);
  EXPECT_EQ(client.session_stats().full_redumps, 1u);
  EXPECT_EQ(full_dump_rows, 3);

  client.Disconnect();
  server->Stop();
}

TEST_F(RpcTest, MonitorCancelOfDeadSessionIsNoOp) {
  ASSERT_TRUE(client_
                  .Monitor(Json("m1"), {"Port"},
                           [](const Json&, const Json&) {})
                  .ok());
  client_.InjectTransportFault();
  // Healing is off: the session is simply dead.  Cancelling a monitor we
  // held is a local no-op success; the server half died with the socket.
  EXPECT_TRUE(client_.MonitorCancel(Json("m1")).ok());
  // An id that was never registered still surfaces the transport error.
  EXPECT_FALSE(client_.MonitorCancel(Json("never-registered")).ok());
}

TEST_F(RpcTest, OverlappingMonitorIdsRejected) {
  ASSERT_TRUE(client_
                  .Monitor(Json("dup"), {"Port"},
                           [](const Json&, const Json&) {})
                  .ok());
  auto second = client_.Monitor(Json("dup"), {"Mirror"},
                                [](const Json&, const Json&) {});
  EXPECT_FALSE(second.ok());
  // Distinct sessions may reuse the id: it is per-session, not global.
  OvsdbClient other;
  ASSERT_TRUE(other.Connect("127.0.0.1", server_->port()).ok());
  EXPECT_TRUE(other
                  .Monitor(Json("dup"), {"Port"},
                           [](const Json&, const Json&) {})
                  .ok());
}

TEST_F(RpcTest, TransactHealsAcrossTransportFault) {
  OvsdbClient::HealPolicy heal;
  heal.enabled = true;
  client_.set_heal_policy(heal);
  client_.InjectTransportFault();
  // The first send fails on the dead socket; the client reconnects and
  // retries the call once.
  EXPECT_TRUE(InsertPort(client_, "p1", 1).ok());
  EXPECT_EQ(client_.session_stats().reconnects, 1u);
}

TEST_F(RpcTest, TransactRetryAfterLostResponseAppliesExactlyOnce) {
  OvsdbClient::HealPolicy heal;
  heal.enabled = true;
  client_.set_heal_policy(heal);
  // Kill only the receive half: the transact still reaches the server and
  // is applied, but the response is lost — the worst case for a retried
  // non-idempotent call.
  client_.InjectReceiveFault();
  ASSERT_TRUE(InsertPort(client_, "p1", 1).ok());
  EXPECT_EQ(client_.session_stats().reconnects, 1u);
  // The healed retry re-sent the same request id, and the server answered
  // it from its response cache instead of applying a second time.
  EXPECT_EQ(server_->transacts_deduped(), 1u);
  // Ground truth: a fresh client's initial monitor dump holds exactly one
  // Port row, not two.
  OvsdbClient observer;
  ASSERT_TRUE(observer.Connect("127.0.0.1", server_->port()).ok());
  auto initial = observer.Monitor(Json("obs"), {"Port"},
                                  [](const Json&, const Json&) {});
  ASSERT_TRUE(initial.ok()) << initial.status().ToString();
  const Json* ports = initial->Find("Port");
  ASSERT_NE(ports, nullptr);
  EXPECT_EQ(ports->as_object().size(), 1u);
}

TEST(RpcHeal, ServerRestartForcesFullDumpNotBogusDeltaReplay) {
  auto server = std::make_unique<OvsdbServer>(
      std::make_unique<Database>(snvs::SnvsSchema()));
  ASSERT_TRUE(server->Start().ok());
  uint16_t port = server->port();

  OvsdbClient client;
  OvsdbClient::HealPolicy heal;
  heal.enabled = true;
  client.set_heal_policy(heal);
  ASSERT_TRUE(client.Connect("127.0.0.1", port).ok());
  std::map<std::string, int> seen;
  ASSERT_TRUE(client
                  .Monitor(Json("m"), {"Port"},
                           [&](const Json&, const Json& updates) {
                             const Json* ports = updates.Find("Port");
                             if (ports == nullptr) return;
                             for (const auto& [uuid, delta] :
                                  ports->as_object()) {
                               const Json* row = delta.Find("new");
                               if (row != nullptr) {
                                 ++seen[row->Find("name")->as_string()];
                               }
                             }
                           })
                  .ok());
  {
    OvsdbClient writer;
    ASSERT_TRUE(writer.Connect("127.0.0.1", port).ok());
    ASSERT_TRUE(InsertPort(writer, "old1", 1).ok());
    ASSERT_TRUE(InsertPort(writer, "old2", 2).ok());
  }
  // Drain both live updates so the client's last-txn-id advances to 2.
  for (int waited = 0; seen["old2"] == 0 && waited < 40; ++waited) {
    ASSERT_TRUE(client.WaitForUpdate(100).ok());
  }
  ASSERT_EQ(seen["old2"], 1);

  // Replace the server: same port, fresh database, txn counter back at 0.
  server->Stop();
  server = std::make_unique<OvsdbServer>(
      std::make_unique<Database>(snvs::SnvsSchema()));
  ASSERT_TRUE(server->Start(port).ok()) << "port rebind failed";
  OvsdbClient writer;
  ASSERT_TRUE(writer.Connect("127.0.0.1", port).ok());
  ASSERT_TRUE(InsertPort(writer, "new1", 1).ok());
  ASSERT_TRUE(InsertPort(writer, "new2", 2).ok());
  ASSERT_TRUE(InsertPort(writer, "new3", 3).ok());

  // The client resumes holding last-txn-id 2 — numerically plausible
  // against the new incarnation's history (it holds txns 1..3), but from
  // an unrelated counter.  The epoch mismatch forces found=false: one
  // full dump of the new contents, not a delta replay that would
  // silently miss new1 and new2.
  auto healed = client.Poll();
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(client.session_stats().full_redumps, 1u);
  EXPECT_EQ(seen["new1"], 1);
  EXPECT_EQ(seen["new2"], 1);
  EXPECT_EQ(seen["new3"], 1);

  client.Disconnect();
  server->Stop();
}

TEST_F(RpcTest, TwoClientsSeeEachOthersCommits) {
  OvsdbClient other;
  ASSERT_TRUE(other.Connect("127.0.0.1", server_->port()).ok());
  int updates = 0;
  ASSERT_TRUE(other
                  .Monitor(Json("watch"), {},
                           [&](const Json&, const Json&) { ++updates; })
                  .ok());
  ASSERT_TRUE(client_.Transact(Json::Parse(R"([
    {"op": "insert", "table": "Mirror",
     "row": {"name": "m", "src_port": 1, "out_port": 9}}
  ])").value()).ok());
  auto delivered = other.WaitForUpdate(2000);
  ASSERT_TRUE(delivered.ok());
  EXPECT_EQ(*delivered, 1);
  EXPECT_EQ(updates, 1);
}

// --- Scale features over the wire: fetch, column-scoped monitors,
// priority sessions + slow-consumer shedding, stats thread-safety ---

TEST_F(RpcTest, FetchOnDemandOverTheWire) {
  ASSERT_TRUE(client_.Transact(Json::Parse(R"([
    {"op": "insert", "table": "Port",
     "row": {"name": "p1", "port": 1, "vlan_mode": "access", "tag": 10}},
    {"op": "insert", "table": "Port",
     "row": {"name": "p2", "port": 2, "vlan_mode": "trunk", "tag": 20}}
  ])").value()).ok());

  auto fetched = client_.Fetch("Port", Json::Parse(R"([["name","==","p2"]])")
                                           .value(), {"tag", "vlan_mode"});
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  const Json::Array& rows = fetched->Find("rows")->as_array();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].Find("tag")->as_integer(), 20);
  EXPECT_EQ(rows[0].Find("vlan_mode")->as_string(), "trunk");
  EXPECT_EQ(rows[0].Find("name"), nullptr);  // not requested

  // Unknown table and unknown column surface as errors, not crashes.
  EXPECT_FALSE(client_.Fetch("Nope", Json(Json::Array{}), {}).ok());
  EXPECT_FALSE(client_.Fetch("Port", Json(Json::Array{}), {"bogus"}).ok());
}

TEST_F(RpcTest, ColumnScopedMonitorOverTheWire) {
  int updates_seen = 0;
  Json last_update;
  auto initial = client_.MonitorColumns(
      Json("cols"), {{"Port", {"name"}}},
      [&](const Json&, const Json& updates) {
        ++updates_seen;
        last_update = updates;
      });
  ASSERT_TRUE(initial.ok()) << initial.status().ToString();

  ASSERT_TRUE(client_.Transact(Json::Parse(R"([
    {"op": "insert", "table": "Port",
     "row": {"name": "p1", "port": 1, "vlan_mode": "access", "tag": 10}}
  ])").value()).ok());
  ASSERT_GE(client_.WaitForUpdate(2000).value(), 1);
  ASSERT_EQ(updates_seen, 1);
  // The insert arrives projected: name only.
  const Json::Object& rows = last_update.Find("Port")->as_object();
  ASSERT_EQ(rows.size(), 1u);
  const Json& new_row = *rows.begin()->second.Find("new");
  EXPECT_NE(new_row.Find("name"), nullptr);
  EXPECT_EQ(new_row.Find("tag"), nullptr);

  // A commit touching only unselected columns produces no notification.
  ASSERT_TRUE(client_.Transact(Json::Parse(R"([
    {"op": "update", "table": "Port", "where": [["name", "==", "p1"]],
     "row": {"tag": 99}}
  ])").value()).ok());
  // A selected-column change right after must be the NEXT thing seen.
  ASSERT_TRUE(client_.Transact(Json::Parse(R"([
    {"op": "update", "table": "Port", "where": [["name", "==", "p1"]],
     "row": {"name": "p1b"}}
  ])").value()).ok());
  ASSERT_GE(client_.WaitForUpdate(2000).value(), 1);
  EXPECT_EQ(updates_seen, 2);  // tag-only commit was invisible
  EXPECT_EQ(last_update.Find("Port")->as_object().begin()
                ->second.Find("new")->Find("name")->as_string(), "p1b");
}

TEST(RpcPriority, PrioritySessionSurvivesSlowConsumerShed) {
  OvsdbServer server(std::make_unique<Database>(snvs::SnvsSchema()));
  server.set_max_outbox_bytes(8 * 1024);  // tiny cap: shed fast
  server.set_send_buffer_bytes(4 * 1024); // tiny SO_SNDBUF: back up fast
  ASSERT_TRUE(server.Start().ok());

  // Two monitor subscribers that stop reading, one of them priority, and
  // one writer blasting fat rows through.
  OvsdbClient slow, priority, writer;
  ASSERT_TRUE(slow.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(priority.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(writer.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(priority.SetPriority(1).ok());
  int slow_updates = 0, priority_updates = 0;
  ASSERT_TRUE(slow.Monitor(Json("s"), {"Port"},
                           [&](const Json&, const Json&) { ++slow_updates; })
                  .ok());
  ASSERT_TRUE(priority.Monitor(Json("p"), {"Port"},
                               [&](const Json&, const Json&) {
                                 ++priority_updates;
                               })
                  .ok());

  // ~4KB per row; neither subscriber polls, so the kernel buffers fill and
  // outboxes grow until the cap sheds the non-priority session.
  std::string fat(4000, 'x');
  for (int i = 0; i < 100 && server.slow_consumer_drops() == 0; ++i) {
    std::string op = StrFormat(
        R"([{"op": "insert", "table": "Port",
             "row": {"name": "%s-%d", "port": %d,
                     "vlan_mode": "access", "tag": 1}}])",
        fat.c_str(), i, i % 60000);
    ASSERT_TRUE(writer.Transact(Json::Parse(op).value()).ok());
  }
  EXPECT_GE(server.slow_consumer_drops(), 1u);

  // The priority session was exempt: it can still drain its stream.
  auto drained = priority.WaitForUpdate(2000);
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  EXPECT_GE(priority_updates, 1);

  // The shed session is really gone: once the pre-shed stream still in
  // its receive buffer is drained, the next read hits a closed socket.
  // The buffer's size depends on the kernel, so bound the drain by time.
  bool slow_dead = false;
  int64_t give_up = MonotonicNanos() + 5'000'000'000;
  while (!slow_dead && MonotonicNanos() < give_up) {
    if (!slow.Poll().ok()) slow_dead = true;
  }
  EXPECT_TRUE(slow_dead);
  server.Stop();
}

TEST_F(RpcTest, SessionStatsReadableWhileHealing) {
  // TSan regression (the PR-3 stats_mu_ fix, client edition): a
  // supervisor thread sampling session_stats() must not race the owning
  // thread bumping counters mid-heal.
  OvsdbClient::HealPolicy policy;
  policy.enabled = true;
  client_.set_heal_policy(policy);
  ASSERT_TRUE(client_.Monitor(Json("m"), {"Port"},
                              [](const Json&, const Json&) {})
                  .ok());
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> sampled{0};
  std::thread sampler([&] {
    while (!stop.load(std::memory_order_acquire)) {
      OvsdbClient::SessionStats stats = client_.session_stats();
      sampled.fetch_add(stats.reconnects + 1, std::memory_order_relaxed);
      (void)server_->requests_served();
      (void)server_->slow_consumer_drops();
    }
  });
  for (int i = 0; i < 20; ++i) {
    client_.InjectTransportFault();
    std::string op = StrFormat(
        R"([{"op": "insert", "table": "Port",
             "row": {"name": "p%d", "port": %d,
                     "vlan_mode": "access", "tag": 1}}])", i, i + 1);
    ASSERT_TRUE(client_.Transact(Json::Parse(op).value()).ok());
  }
  stop.store(true, std::memory_order_release);
  sampler.join();
  EXPECT_GE(client_.session_stats().reconnects, 20u);
  EXPECT_GT(sampled.load(), 0u);
}

}  // namespace
}  // namespace nerpa::ovsdb
