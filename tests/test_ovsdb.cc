// Unit tests for the management-plane database: value model, schema
// round-trips, transaction semantics (atomicity, mutate, named-uuids),
// constraints (indexes, enums, referential integrity, GC), and monitors.
#include <gtest/gtest.h>

#include "common/strings.h"
#include "ovsdb/database.h"

namespace nerpa::ovsdb {
namespace {

DatabaseSchema TestSchema() {
  DatabaseSchema schema;
  schema.name = "testdb";

  TableSchema bridge;
  bridge.name = "Bridge";
  bridge.columns = {
      {"name", ColumnType::Scalar(BaseType::String()), false, true},
      {"ports", ColumnType::Set(BaseType::Ref("Port")), false, true},
      {"datapath", ColumnType::Scalar(BaseType::StringEnum(
                       {"system", "netdev"})), false, true},
  };
  bridge.indexes = {{"name"}};
  schema.tables.emplace("Bridge", std::move(bridge));

  TableSchema port;
  port.name = "Port";
  port.is_root = false;  // garbage-collected when unreferenced
  port.columns = {
      {"name", ColumnType::Scalar(BaseType::String()), false, true},
      {"tag", ColumnType::Scalar(BaseType::Integer(0, 4095)), false, true},
      {"stats", ColumnType::Map(BaseType::String(), BaseType::Integer()),
       false, true},
      {"peer", ColumnType::Optional(BaseType::Ref("Port", /*weak=*/true)),
       false, true},
  };
  schema.tables.emplace("Port", std::move(port));
  return schema;
}

TEST(Atom, OrderingAndJson) {
  EXPECT_LT(Atom(int64_t{1}), Atom(int64_t{2}));
  EXPECT_LT(Atom(int64_t{5}), Atom("a"));  // ordered by type first
  EXPECT_EQ(Atom("x").ToJson().as_string(), "x");
  Uuid uuid = Uuid::Generate();
  Json json = Atom(uuid).ToJson();
  auto back = Atom::FromJson(json, AtomicType::kUuid);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->uuid(), uuid);
}

TEST(Uuid, ParseRoundTrip) {
  Uuid uuid = Uuid::Generate();
  auto parsed = Uuid::Parse(uuid.ToString());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, uuid);
  EXPECT_FALSE(Uuid::Parse("not-a-uuid").has_value());
  EXPECT_FALSE(Uuid::Parse("00000000-0000-0000-0000-00000000000").has_value());
  EXPECT_NE(Uuid::Generate(), Uuid::Generate());
}

TEST(Datum, SetCanonicalization) {
  Datum set = Datum::Set({Atom(int64_t{3}), Atom(int64_t{1}),
                          Atom(int64_t{3}), Atom(int64_t{2})});
  EXPECT_EQ(set.size(), 3u);
  EXPECT_TRUE(set.ContainsKey(Atom(int64_t{1})));
  // Equal regardless of construction order.
  EXPECT_EQ(set, Datum::Set({Atom(int64_t{2}), Atom(int64_t{1}),
                             Atom(int64_t{3})}));
}

TEST(Datum, MapOperations) {
  Datum map = Datum::Map({{Atom("a"), Atom(int64_t{1})},
                          {Atom("b"), Atom(int64_t{2})}});
  EXPECT_EQ(map.MapGet(Atom("a"))->integer(), 1);
  map.InsertPair(Atom("a"), Atom(int64_t{9}));
  EXPECT_EQ(map.MapGet(Atom("a"))->integer(), 9);
  map.EraseKey(Atom("b"));
  EXPECT_FALSE(map.MapGet(Atom("b")).has_value());
}

TEST(Datum, TypeChecking) {
  ColumnType tag = ColumnType::Scalar(BaseType::Integer(0, 4095));
  EXPECT_TRUE(Datum::Integer(100).CheckType(tag).ok());
  EXPECT_FALSE(Datum::Integer(9999).CheckType(tag).ok());
  EXPECT_FALSE(Datum::String("x").CheckType(tag).ok());
  ColumnType small_set = ColumnType::Set(BaseType::Integer(), 0, 2);
  EXPECT_FALSE(Datum::Set({Atom(int64_t{1}), Atom(int64_t{2}),
                           Atom(int64_t{3})})
                   .CheckType(small_set)
                   .ok());
}

TEST(Schema, JsonRoundTrip) {
  DatabaseSchema schema = TestSchema();
  auto back = DatabaseSchema::FromJson(schema.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->name, "testdb");
  const TableSchema* port = back->FindTable("Port");
  ASSERT_NE(port, nullptr);
  EXPECT_FALSE(port->is_root);
  const ColumnSchema* stats = port->FindColumn("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_TRUE(stats->type.is_map());
  const ColumnSchema* peer = port->FindColumn("peer");
  ASSERT_NE(peer, nullptr);
  EXPECT_TRUE(peer->type.key.ref_weak);
  const ColumnSchema* datapath =
      back->FindTable("Bridge")->FindColumn("datapath");
  EXPECT_EQ(datapath->type.key.enum_values.size(), 2u);
}

TEST(Schema, ValidateRejectsDanglingRef) {
  DatabaseSchema schema = TestSchema();
  schema.tables.at("Bridge").columns[1].type.key.ref_table = "Nope";
  EXPECT_FALSE(schema.Validate().ok());
}

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() : db_(TestSchema()) {}

  Database db_;
};

TEST_F(DatabaseTest, InsertSelectDelete) {
  // Ports are non-root; insert a root Bridge referencing one.
  auto result = db_.TransactText(R"([
    {"op": "insert", "table": "Port",
     "row": {"name": "eth0", "tag": 7}, "uuid-name": "p"},
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "ports": ["named-uuid", "p"],
             "datapath": "system"}}
  ])");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(db_.RowCount("Port"), 1u);
  EXPECT_EQ(db_.RowCount("Bridge"), 1u);

  auto rows = db_.SelectRows(
      "Port", {{"tag", "==", Datum::Integer(7)}});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0]->Find("name")->AsString(), "eth0");

  // Deleting the bridge garbage-collects the (now unreferenced) port.
  result = db_.TransactText(R"([
    {"op": "delete", "table": "Bridge",
     "where": [["name", "==", "br0"]]}
  ])");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(db_.RowCount("Port"), 0u);
}

TEST_F(DatabaseTest, AtomicRollbackOnFailure) {
  // Second op violates the enum constraint => first insert must roll back.
  auto result = db_.TransactText(R"([
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "datapath": "system"}},
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br1", "datapath": "bogus"}}
  ])");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(db_.RowCount("Bridge"), 0u);
}

TEST_F(DatabaseTest, UniqueIndexEnforced) {
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "datapath": "system"}}
  ])").ok());
  auto dup = db_.TransactText(R"([
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "datapath": "netdev"}}
  ])");
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(db_.RowCount("Bridge"), 1u);
}

TEST_F(DatabaseTest, UpdateAndMutate) {
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "insert", "table": "Port",
     "row": {"name": "eth0", "tag": 1,
             "stats": ["map", [["rx", 10]]]}, "uuid-name": "p"},
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "ports": ["named-uuid", "p"],
             "datapath": "system"}}
  ])").ok());

  // update rewrites a column; mutate does arithmetic and map surgery.
  auto result = db_.TransactText(R"([
    {"op": "update", "table": "Port", "where": [["name", "==", "eth0"]],
     "row": {"tag": 42}},
    {"op": "mutate", "table": "Port", "where": [["name", "==", "eth0"]],
     "mutations": [["tag", "+=", 8],
                   ["stats", "insert", ["map", [["tx", 5]]]],
                   ["stats", "delete", ["set", ["rx"]]]]}
  ])");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto rows = db_.SelectRows("Port", {});
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ((*rows)[0]->Find("tag")->AsInteger(), 50);
  const Datum* stats = (*rows)[0]->Find("stats");
  EXPECT_EQ(stats->MapGet(Atom("tx"))->integer(), 5);
  EXPECT_FALSE(stats->MapGet(Atom("rx")).has_value());
}

TEST_F(DatabaseTest, MutateDivisionByZeroFailsCleanly) {
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "datapath": "system"}}
  ])").ok());
  auto result = db_.TransactText(R"([
    {"op": "mutate", "table": "Bridge", "where": [],
     "mutations": [["name", "+=", 1]]}
  ])");
  EXPECT_FALSE(result.ok());  // arithmetic on a string column
}

TEST_F(DatabaseTest, StrongRefMustResolve) {
  Uuid bogus = Uuid::Generate();
  std::string request = StrFormat(R"([
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "datapath": "system",
             "ports": ["set", [["uuid", "%s"]]]}}
  ])", bogus.ToString().c_str());
  auto result = db_.TransactText(request);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(db_.RowCount("Bridge"), 0u);
}

TEST_F(DatabaseTest, WeakRefPrunedOnTargetDeletion) {
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "insert", "table": "Port",
     "row": {"name": "a", "tag": 1}, "uuid-name": "pa"},
    {"op": "insert", "table": "Port",
     "row": {"name": "b", "tag": 2, "peer": ["named-uuid", "pa"]},
     "uuid-name": "pb"},
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "datapath": "system",
             "ports": ["set", [["named-uuid", "pa"], ["named-uuid", "pb"]]]}}
  ])").ok());
  // Drop port a from the bridge: GC deletes it, and b's weak peer ref is
  // pruned automatically.
  auto result = db_.TransactText(R"([
    {"op": "mutate", "table": "Bridge", "where": [["name", "==", "br0"]],
     "mutations": [["ports", "delete",
                    ["set", []]]]}
  ])");
  ASSERT_TRUE(result.ok());
  // Rebuild the ports set without a (the mutate above was a no-op; easier
  // with update): find a's uuid, then remove it.
  auto port_a = db_.SelectRows("Port", {{"name", "==", Datum::String("a")}});
  ASSERT_EQ(port_a->size(), 1u);
  Uuid a_uuid = (*port_a)[0]->uuid;
  result = db_.TransactText(StrFormat(R"([
    {"op": "mutate", "table": "Bridge", "where": [["name", "==", "br0"]],
     "mutations": [["ports", "delete", ["set", [["uuid", "%s"]]]]]}
  ])", a_uuid.ToString().c_str()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(db_.RowCount("Port"), 1u);  // a was GC'd
  auto port_b = db_.SelectRows("Port", {{"name", "==", Datum::String("b")}});
  ASSERT_EQ(port_b->size(), 1u);
  EXPECT_TRUE((*port_b)[0]->Find("peer")->empty());  // weak ref pruned
}

TEST_F(DatabaseTest, MonitorSeesInitialAndIncremental) {
  std::vector<TableUpdates> batches;
  db_.AddMonitor({"Bridge"}, [&](const TableUpdates& updates) {
    batches.push_back(updates);
  });
  EXPECT_TRUE(batches.empty());  // empty db: no initial batch

  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "datapath": "system"}}
  ])").ok());
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].count("Bridge"), 1u);
  const RowUpdate& insert = batches[0]["Bridge"].begin()->second;
  EXPECT_TRUE(insert.is_insert());
  EXPECT_EQ(insert.new_row->Find("name")->AsString(), "br0");

  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "update", "table": "Bridge", "where": [["name", "==", "br0"]],
     "row": {"datapath": "netdev"}}
  ])").ok());
  ASSERT_EQ(batches.size(), 2u);
  const RowUpdate& modify = batches[1]["Bridge"].begin()->second;
  EXPECT_TRUE(modify.is_modify());
  EXPECT_EQ(modify.old_row->Find("datapath")->AsString(), "system");
  EXPECT_EQ(modify.new_row->Find("datapath")->AsString(), "netdev");

  // A second monitor gets the current contents as initial inserts.
  std::vector<TableUpdates> late;
  db_.AddMonitor({}, [&](const TableUpdates& updates) {
    late.push_back(updates);
  });
  ASSERT_EQ(late.size(), 1u);
  EXPECT_TRUE(late[0]["Bridge"].begin()->second.is_insert());
}

TEST_F(DatabaseTest, MonitorNotNotifiedOnNoOpTransaction) {
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "datapath": "system"}}
  ])").ok());
  int calls = 0;
  db_.AddMonitor({"Bridge"}, [&](const TableUpdates&) { ++calls; });
  // An update writing identical values commits but produces no delta.
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "update", "table": "Bridge", "where": [["name", "==", "br0"]],
     "row": {"datapath": "system"}}
  ])").ok());
  EXPECT_EQ(calls, 1);  // only the initial snapshot
}

TEST_F(DatabaseTest, SelectComparisonsAndSetClauses) {
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "insert", "table": "Port", "row": {"name": "a", "tag": 5},
     "uuid-name": "pa"},
    {"op": "insert", "table": "Port", "row": {"name": "b", "tag": 9},
     "uuid-name": "pb"},
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "datapath": "system",
             "ports": ["set", [["named-uuid", "pa"], ["named-uuid", "pb"]]]}}
  ])").ok());
  auto low = db_.SelectRows("Port", {{"tag", "<", Datum::Integer(6)}});
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low->size(), 1u);
  auto ge = db_.SelectRows("Port", {{"tag", ">=", Datum::Integer(5)}});
  EXPECT_EQ(ge->size(), 2u);

  auto port_a = db_.SelectRows("Port", {{"name", "==", Datum::String("a")}});
  Uuid a_uuid = (*port_a)[0]->uuid;
  auto includes = db_.SelectRows(
      "Bridge", {{"ports", "includes", Datum::UuidRef(a_uuid)}});
  ASSERT_TRUE(includes.ok());
  EXPECT_EQ(includes->size(), 1u);
  auto excludes = db_.SelectRows(
      "Bridge", {{"ports", "excludes", Datum::UuidRef(Uuid::Generate())}});
  EXPECT_EQ(excludes->size(), 1u);
}

TEST_F(DatabaseTest, WaitOpGatesTransaction) {
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "datapath": "system"}}
  ])").ok());
  // wait until == succeeds when contents match.
  auto ok = db_.TransactText(R"([
    {"op": "wait", "table": "Bridge", "where": [["name", "==", "br0"]],
     "columns": ["datapath"], "until": "==",
     "rows": [{"datapath": "system"}]},
    {"op": "update", "table": "Bridge", "where": [["name", "==", "br0"]],
     "row": {"datapath": "netdev"}}
  ])");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  // Now the same wait fails and blocks the transaction.
  auto blocked = db_.TransactText(R"([
    {"op": "wait", "table": "Bridge", "where": [["name", "==", "br0"]],
     "columns": ["datapath"], "until": "==",
     "rows": [{"datapath": "system"}]},
    {"op": "delete", "table": "Bridge", "where": []}
  ])");
  EXPECT_FALSE(blocked.ok());
  EXPECT_EQ(db_.RowCount("Bridge"), 1u);
}

TEST_F(DatabaseTest, AbortRollsBack) {
  auto result = db_.TransactText(R"([
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "datapath": "system"}},
    {"op": "abort"}
  ])");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(db_.RowCount("Bridge"), 0u);
}

TEST_F(DatabaseTest, ImmutableColumnRejectsUpdate) {
  DatabaseSchema schema = TestSchema();
  schema.tables.at("Bridge").columns[0].mutable_ = false;  // name
  Database db(std::move(schema));
  ASSERT_TRUE(db.TransactText(R"([
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "datapath": "system"}}
  ])").ok());
  auto result = db.TransactText(R"([
    {"op": "update", "table": "Bridge", "where": [],
     "row": {"name": "br1"}}
  ])");
  EXPECT_FALSE(result.ok());
}


TEST_F(DatabaseTest, CommitHookReplayRestoresStateAndUuids) {
  // The commit hook is the durability path: ha::DurableStore appends each
  // record it gets to its WAL.  Replaying the records into a fresh
  // database must reproduce rows, uuids and references.
  std::vector<std::string> log;
  db_.AddCommitHook([&](const Json& pinned) { log.push_back(pinned.Dump()); });
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "insert", "table": "Port",
     "row": {"name": "eth0", "tag": 7}, "uuid-name": "p"},
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "ports": ["named-uuid", "p"],
             "datapath": "system"}}
  ])").ok());
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "mutate", "table": "Port", "where": [["name", "==", "eth0"]],
     "mutations": [["tag", "+=", 5]]}
  ])").ok());
  // A failed transaction must not reach the hook.
  ASSERT_FALSE(db_.TransactText(R"([
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "datapath": "system"}}
  ])").ok());
  ASSERT_EQ(log.size(), 2u);

  Database restored(TestSchema());
  for (const std::string& record : log) {
    auto replay = restored.TransactText(record);
    ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  }
  EXPECT_EQ(restored.RowCount("Bridge"), 1u);
  EXPECT_EQ(restored.RowCount("Port"), 1u);
  auto original = db_.SelectRows("Port", {});
  auto replayed = restored.SelectRows("Port", {});
  ASSERT_EQ(replayed->size(), 1u);
  // Row identity (uuid) and contents survive the replay.
  EXPECT_EQ((*replayed)[0]->uuid, (*original)[0]->uuid);
  EXPECT_EQ((*replayed)[0]->Find("tag")->AsInteger(), 12);
  // The restored database keeps referential integrity: the bridge still
  // strongly references the port (same uuid).
  auto bridges = restored.SelectRows("Bridge", {});
  EXPECT_EQ((*bridges)[0]->uuid, (*db_.SelectRows("Bridge", {}))[0]->uuid);
  EXPECT_TRUE((*bridges)[0]->Find("ports")->ContainsKey(
      Atom((*replayed)[0]->uuid)));
}

TEST_F(DatabaseTest, ForcedUuidInsertRejectsDuplicates) {
  Uuid uuid = Uuid::Generate();
  std::string request = StrFormat(R"([
    {"op": "insert", "table": "Bridge", "uuid": "%s",
     "row": {"name": "br0", "datapath": "system"}}
  ])", uuid.ToString().c_str());
  ASSERT_TRUE(db_.TransactText(request).ok());
  EXPECT_NE(db_.GetRow("Bridge", uuid), nullptr);
  std::string duplicate = StrFormat(R"([
    {"op": "insert", "table": "Bridge", "uuid": "%s",
     "row": {"name": "br1", "datapath": "system"}}
  ])", uuid.ToString().c_str());
  EXPECT_FALSE(db_.TransactText(duplicate).ok());
}

// --- Scale features: indexed select, partial map mutate, column-scoped
// monitors, on-demand fetch (the OVSDB-improvements quartet) ---

TEST_F(DatabaseTest, IndexedSelectUsesUniqueIndex) {
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "datapath": "system"}},
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br1", "datapath": "netdev"}}
  ])").ok());
  uint64_t before = db_.indexed_selects();

  // Equality on the indexed column probes instead of scanning.
  auto hit = db_.SelectRows("Bridge", {{"name", "==", Datum::String("br1")}});
  ASSERT_TRUE(hit.ok());
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_EQ((*hit)[0]->Find("datapath")->AsString(), "netdev");
  EXPECT_EQ(db_.indexed_selects(), before + 1);

  // Missing key: indexed miss, not a scan.
  auto miss = db_.SelectRows("Bridge", {{"name", "==", Datum::String("zz")}});
  ASSERT_TRUE(miss.ok());
  EXPECT_TRUE(miss->empty());
  EXPECT_EQ(db_.indexed_selects(), before + 2);

  // Extra clauses still verify against the probed row.
  auto narrowed = db_.SelectRows(
      "Bridge", {{"name", "==", Datum::String("br1")},
                 {"datapath", "==", Datum::String("system")}});
  ASSERT_TRUE(narrowed.ok());
  EXPECT_TRUE(narrowed->empty());
  EXPECT_EQ(db_.indexed_selects(), before + 3);

  // Non-equality functions and unindexed columns fall back to the scan.
  (void)db_.SelectRows("Bridge", {{"datapath", "==", Datum::String("netdev")}});
  (void)db_.SelectRows("Port", {{"tag", ">=", Datum::Integer(0)}});
  EXPECT_EQ(db_.indexed_selects(), before + 3);
}

TEST_F(DatabaseTest, IndexedSelectByUuidAndInTransactWhere) {
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "datapath": "system"}}
  ])").ok());
  Uuid uuid = db_.SelectRows("Bridge", {})->front()->uuid;
  uint64_t before = db_.indexed_selects();

  auto by_uuid = db_.SelectRows("Bridge", {{"_uuid", "==",
                                            Datum::UuidRef(uuid)}});
  ASSERT_TRUE(by_uuid.ok());
  EXPECT_EQ(by_uuid->size(), 1u);
  EXPECT_EQ(db_.indexed_selects(), before + 1);

  // Transaction `where` matching takes the same fast path.
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "update", "table": "Bridge", "where": [["name", "==", "br0"]],
     "row": {"datapath": "netdev"}}
  ])").ok());
  EXPECT_GT(db_.indexed_selects(), before + 1);
  EXPECT_EQ(db_.SelectRows("Bridge", {})->front()
                ->Find("datapath")->AsString(), "netdev");
}

TEST_F(DatabaseTest, MutateSetKeyAndDelKey) {
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "insert", "table": "Port",
     "row": {"name": "eth0", "stats": ["map", [["rx", 10], ["errs", 1]]]},
     "uuid-name": "p"},
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "ports": ["named-uuid", "p"],
             "datapath": "system"}}
  ])").ok());

  // setkey overwrites an existing key and inserts a fresh one.
  auto result = db_.TransactText(R"([
    {"op": "mutate", "table": "Port", "where": [["name", "==", "eth0"]],
     "mutations": [["stats", "setkey", ["map", [["rx", 11]]]],
                   ["stats", "setkey", ["map", [["tx", 5]]]]]}
  ])");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Datum* stats = db_.SelectRows("Port", {})->front()->Find("stats");
  EXPECT_EQ(stats->MapGet(Atom("rx"))->integer(), 11);
  EXPECT_EQ(stats->MapGet(Atom("tx"))->integer(), 5);

  // delkey removes present keys; absent keys are a no-op, not an error.
  result = db_.TransactText(R"([
    {"op": "mutate", "table": "Port", "where": [["name", "==", "eth0"]],
     "mutations": [["stats", "delkey", ["set", ["errs", "nope"]]]]}
  ])");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  stats = db_.SelectRows("Port", {})->front()->Find("stats");
  EXPECT_FALSE(stats->MapGet(Atom("errs")).has_value());
  EXPECT_EQ(stats->size(), 2u);  // rx, tx

  // setkey on a non-map column is a type error and rolls back.
  EXPECT_FALSE(db_.TransactText(R"([
    {"op": "mutate", "table": "Port", "where": [],
     "mutations": [["tag", "setkey", ["map", [["x", 1]]]]]}
  ])").ok());
}

TEST_F(DatabaseTest, ColumnScopedMonitorProjectsAndSuppresses) {
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "insert", "table": "Port", "row": {"name": "eth0", "tag": 1},
     "uuid-name": "p"},
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "ports": ["named-uuid", "p"],
             "datapath": "system"}}
  ])").ok());

  std::vector<TableUpdates> batches;
  db_.AddMonitorColumns({{"Port", {"name"}}},
                        [&](const TableUpdates& updates) {
                          batches.push_back(updates);
                        });
  // Initial snapshot arrives projected to the selected columns.
  ASSERT_EQ(batches.size(), 1u);
  const Row& initial = *batches[0].at("Port").begin()->second.new_row;
  EXPECT_NE(initial.Find("name"), nullptr);
  EXPECT_EQ(initial.Find("tag"), nullptr);

  // A commit touching only unselected columns does not fire the callback.
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "update", "table": "Port", "where": [["name", "==", "eth0"]],
     "row": {"tag": 9}}
  ])").ok());
  EXPECT_EQ(batches.size(), 1u);

  // Changes to selected columns still arrive (projected).
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "update", "table": "Port", "where": [["name", "==", "eth0"]],
     "row": {"name": "eth1"}}
  ])").ok());
  ASSERT_EQ(batches.size(), 2u);
  const RowUpdate& modify = batches[1].at("Port").begin()->second;
  EXPECT_TRUE(modify.is_modify());
  EXPECT_EQ(modify.new_row->Find("name")->AsString(), "eth1");
  EXPECT_EQ(modify.new_row->Find("tag"), nullptr);

  // Unmonitored tables stay invisible.
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "update", "table": "Bridge", "where": [["name", "==", "br0"]],
     "row": {"datapath": "netdev"}}
  ])").ok());
  EXPECT_EQ(batches.size(), 2u);
}

TEST_F(DatabaseTest, FetchRowsProjectsOnDemand) {
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "insert", "table": "Port",
     "row": {"name": "eth0", "tag": 3, "stats": ["map", [["rx", 10]]]},
     "uuid-name": "p"},
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "ports": ["named-uuid", "p"],
             "datapath": "system"}}
  ])").ok());

  auto where = Json::Parse(R"([["name", "==", "eth0"]])");
  ASSERT_TRUE(where.ok());
  auto fetched = db_.FetchRows("Port", *where, {"_uuid", "stats"});
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  const Json::Array& rows = fetched->Find("rows")->as_array();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_NE(rows[0].Find("stats"), nullptr);
  EXPECT_NE(rows[0].Find("_uuid"), nullptr);
  EXPECT_EQ(rows[0].Find("name"), nullptr);  // not requested

  // Empty column list = everything.
  auto all = db_.FetchRows("Port", *where, {});
  ASSERT_TRUE(all.ok());
  EXPECT_NE(all->Find("rows")->as_array()[0].Find("name"), nullptr);

  // Errors: unknown table, unknown column, malformed where.
  EXPECT_FALSE(db_.FetchRows("Nope", *where, {}).ok());
  EXPECT_FALSE(db_.FetchRows("Port", *where, {"bogus"}).ok());
  EXPECT_FALSE(db_.FetchRows("Port", Json(42), {}).ok());
}

TEST_F(DatabaseTest, TxnBuilderSetKeyDelKey) {
  ASSERT_TRUE(db_.TransactText(R"([
    {"op": "insert", "table": "Port", "row": {"name": "eth0"},
     "uuid-name": "p"},
    {"op": "insert", "table": "Bridge",
     "row": {"name": "br0", "ports": ["named-uuid", "p"],
             "datapath": "system"}}
  ])").ok());

  TxnBuilder txn(&db_);
  txn.MutateSetKey("Port", {{"name", "==", Datum::String("eth0")}},
                   "stats", Atom("rx"), Atom(int64_t{7}));
  ASSERT_TRUE(txn.Commit().ok());
  txn.MutateSetKey("Port", {{"name", "==", Datum::String("eth0")}},
                   "stats", Atom("rx"), Atom(int64_t{8}));
  txn.MutateDelKey("Port", {{"name", "==", Datum::String("eth0")}},
                   "stats", Atom("absent"));
  ASSERT_TRUE(txn.Commit().ok());

  const Datum* stats = db_.SelectRows("Port", {})->front()->Find("stats");
  EXPECT_EQ(stats->MapGet(Atom("rx"))->integer(), 8);
  EXPECT_EQ(stats->size(), 1u);
}

}  // namespace
}  // namespace nerpa::ovsdb
