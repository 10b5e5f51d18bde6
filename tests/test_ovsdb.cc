// Unit tests for the management-plane database: value model, schema
// round-trips, transaction semantics (atomicity, mutate, named-uuids),
// constraints (indexes, enums, referential integrity, GC), and monitors.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <random>

#include "common/strings.h"
#include "ovsdb/database.h"
#include "snvs/snvs.h"

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

TEST(Uuid, ToStringMatchesPrintfFormat) {
  std::vector<Uuid> uuids = {Uuid{}, Uuid{~0ULL, ~0ULL}};
  // Every value at every single nibble, the rest zero.
  for (int nibble = 0; nibble < 32; ++nibble) {
    for (uint64_t v = 1; v < 16; ++v) {
      uint64_t word = v << (4 * (nibble % 16));
      uuids.push_back(nibble < 16 ? Uuid{word, 0} : Uuid{0, word});
    }
  }
  std::mt19937_64 rng(26);
  for (int i = 0; i < 10000; ++i) uuids.push_back(Uuid{rng(), rng()});
  for (const Uuid& uuid : uuids) {
    std::string printf_text = StrFormat(
        "%08x-%04x-%04x-%04x-%012llx", static_cast<uint32_t>(uuid.hi >> 32),
        static_cast<uint32_t>((uuid.hi >> 16) & 0xFFFF),
        static_cast<uint32_t>(uuid.hi & 0xFFFF),
        static_cast<uint32_t>(uuid.lo >> 48),
        static_cast<unsigned long long>(uuid.lo & 0xFFFFFFFFFFFFULL));
    std::string text = uuid.ToString();
    ASSERT_EQ(text, printf_text);
    auto parsed = Uuid::Parse(text);
    ASSERT_TRUE(parsed.has_value()) << text;
    ASSERT_EQ(*parsed, uuid) << text;
  }
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

TEST(Database, FailedWriteLeavesNoIndexKeyBehind) {
  // The insert passes the name index and fails on the port index; the name
  // must not stay claimed by a row that never existed.
  Database db(snvs::SnvsSchema());
  ASSERT_TRUE(db.TransactText(R"([{"op": "insert", "table": "Port",
      "row": {"name": "a", "port": 1, "vlan_mode": "access"}}])").ok());
  EXPECT_FALSE(db.TransactText(R"([{"op": "insert", "table": "Port",
      "row": {"name": "b", "port": 1, "vlan_mode": "access"}}])").ok());
  auto retry = db.TransactText(R"([{"op": "insert", "table": "Port",
      "row": {"name": "b", "port": 2, "vlan_mode": "access"}}])");
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(db.RowCount("Port"), 2u);
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

TEST(Database, IntegerMutationsRejectOverflow) {
  // Leader_Lease.expiry_nanos is an unconstrained integer column.  Division
  // of INT64_MIN by -1 used to raise SIGFPE, and -= / *= overflowed.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Database db(WithLeaderLease(TestSchema()));
  TxnBuilder insert(&db);
  insert.Insert(kLeaderLeaseTable,
                {{kLeaseExpiryColumn, Datum::Integer(kMin)}});
  ASSERT_TRUE(insert.Commit().ok());
  auto expiry = [&db] {
    return db.GetRows(kLeaderLeaseTable).front()->Find(kLeaseExpiryColumn)
        ->AsInteger();
  };
  const std::vector<std::pair<std::string, int64_t>> overflows = {
      {"/=", -1}, {"%=", -1}, {"-=", 1}, {"*=", -1}, {"*=", 2}};
  for (const auto& [mutator, operand] : overflows) {
    TxnBuilder txn(&db);
    txn.Mutate(kLeaderLeaseTable, {},
               {{kLeaseExpiryColumn, mutator, Datum::Integer(operand)}});
    auto result = txn.Commit();
    ASSERT_FALSE(result.ok()) << mutator << " " << operand;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(expiry(), kMin);
  }
  // The wire form takes the same checks; results that fit still apply.
  auto wire = db.TransactText(R"([{"op": "mutate", "table": "Leader_Lease",
      "where": [], "mutations": [["expiry_nanos", "+=", -1]]}])");
  EXPECT_EQ(wire.status().code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(db.TransactText(R"([{"op": "mutate", "table": "Leader_Lease",
      "where": [], "mutations": [["expiry_nanos", "/=", 2],
                                 ["expiry_nanos", "%=", 3]]}])").ok());
  EXPECT_EQ(expiry(), kMin / 2 % 3);
  auto high = db.TransactText(StrFormat(R"([{"op": "mutate",
      "table": "Leader_Lease", "where": [],
      "mutations": [["expiry_nanos", "+=", %lld],
                    ["expiry_nanos", "+=", %lld]]}])",
      static_cast<long long>(kMax), static_cast<long long>(kMax)));
  EXPECT_EQ(high.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(expiry(), kMin / 2 % 3);
}

TEST_F(DatabaseTest, NonStringColumnsAreAParseError) {
  // A select or wait whose "columns" held a non-string used to throw
  // std::bad_variant_access out of Transact and abort the process.
  for (const char* request : {
           R"([{"op": "select", "table": "Port", "where": [],
                "columns": [1]}])",
           R"([{"op": "wait", "table": "Port", "where": [],
                "columns": ["name", null], "until": "==", "rows": []}])"}) {
    auto result = db_.TransactText(request);
    ASSERT_FALSE(result.ok()) << request;
    EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  }
  EXPECT_EQ(db_.commit_count(), 0u);
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


// --- OvsdbOracle: typed commits against their wire form ---------------
//
// Seeded streams of TxnBuilder transactions (insert, update, every mutator,
// setkey/delkey, delete, assert_fence), about a third built to fail, run
// against two databases.  A commits through TxnBuilder.  B receives A's
// commit-hook record when A accepted, or the same operations as the JSON a
// TxnBuilder request carries when A rejected.  After every transaction the
// two agree on the status code, rows and uuids, monitor deltas and commit
// count; a rejected transaction leaves both as they were, fires no monitor
// and keeps every unique index answering.

constexpr int kOracleSeeds = 20;
constexpr int kOracleTxns = 200;

// Generated uuids are splitmix64 over a process-wide counter (uuid.cc).
// Inverting it names a uuid by its position in the generated sequence, so a
// fingerprint can pin the generation order whatever earlier tests consumed.
uint64_t Unshift(uint64_t y, int shift) {
  uint64_t x = y;
  for (int i = 0; i < 64 / shift; ++i) x = y ^ (x >> shift);
  return x;
}

uint64_t MulInverse(uint64_t odd) {
  uint64_t x = odd;  // Newton's iteration doubles the correct low bits.
  for (int i = 0; i < 5; ++i) x *= 2 - odd * x;
  return x;
}

uint64_t GenerationOf(const Uuid& uuid) {
  uint64_t x = Unshift(uuid.hi, 31) * MulInverse(0x94d049bb133111ebULL);
  x = Unshift(x, 27) * MulInverse(0xbf58476d1ce4e5b9ULL);
  return Unshift(x, 30) - 0x9e3779b97f4a7c15ULL;
}

uint64_t Fnv1a(uint64_t hash, std::string_view bytes) {
  for (unsigned char c : bytes) hash = (hash ^ c) * 0x100000001b3ULL;
  return hash;
}

/// `json` with every generated uuid replaced by its offset from `base`.
/// Uuids the test drew from its own generator stay as they are (their
/// offset lands in the generated range with odds of 2^-32).
Json CanonicalUuids(const Json& json, uint64_t base) {
  if (json.is_string()) {
    auto uuid = Uuid::Parse(json.as_string());
    const uint64_t offset = uuid ? GenerationOf(*uuid) - base : ~0ULL;
    return offset >> 32 ? json : Json("#" + std::to_string(offset));
  }
  if (json.is_array()) {
    Json::Array out;
    for (const Json& item : json.as_array()) {
      out.push_back(CanonicalUuids(item, base));
    }
    // A set of uuids is sorted by uuid; sort it by its canonical names.
    if (out.size() == 2 && out[0] == Json("set") && out[1].is_array()) {
      std::sort(out[1].as_array().begin(), out[1].as_array().end(),
                [](const Json& x, const Json& y) {
                  return x.Dump() < y.Dump();
                });
    }
    return Json(std::move(out));
  }
  if (json.is_object()) {
    Json::Object out;
    for (const auto& [key, value] : json.as_object()) {
      out[key] = CanonicalUuids(value, base);
    }
    return Json(std::move(out));
  }
  return json;
}

/// The oracle's schemas: TestSchema() with an immutable enum column and an
/// optional real column, and the snvs schema with the lease table and an
/// immutable column.
DatabaseSchema OracleSchema(bool snvs) {
  if (snvs) {
    DatabaseSchema schema = WithLeaderLease(snvs::SnvsSchema());
    schema.tables.at("Mirror").columns[2].mutable_ = false;  // out_port
    return schema;
  }
  DatabaseSchema schema = TestSchema();
  TableSchema& bridge = schema.tables.at("Bridge");
  bridge.columns[2].mutable_ = false;  // datapath
  BaseType weight = BaseType::Real();
  weight.min_real = 0;
  weight.max_real = 100;
  bridge.columns.push_back(
      {"weight", ColumnType::Optional(weight), false, true});
  return schema;
}

using Columns = decltype(Row::columns);
using Mutations = std::vector<std::tuple<std::string, std::string, Datum>>;

/// One generated operation.  A lone "setkey"/"delkey" mutation goes through
/// MutateSetKey/MutateDelKey.
struct OracleOp {
  enum Kind { kInsert, kUpdate, kMutate, kDelete, kFence } kind;
  std::string table;
  std::vector<Clause> where;
  Columns row;
  Mutations mutations;
  int64_t epoch = 0;
};

void AddTo(TxnBuilder& txn, const OracleOp& op) {
  switch (op.kind) {
    case OracleOp::kInsert: txn.Insert(op.table, op.row); break;
    case OracleOp::kUpdate: txn.Update(op.table, op.where, op.row); break;
    case OracleOp::kDelete: txn.Delete(op.table, op.where); break;
    case OracleOp::kFence: txn.AssertFence(op.epoch); break;
    case OracleOp::kMutate: {
      const auto& [column, mutator, value] = op.mutations.front();
      if (op.mutations.size() == 1 && mutator == "setkey") {
        txn.MutateSetKey(op.table, op.where, column, value.keys()[0],
                         value.values()[0]);
      } else if (op.mutations.size() == 1 && mutator == "delkey") {
        txn.MutateDelKey(op.table, op.where, column, value.keys()[0]);
      } else {
        txn.Mutate(op.table, op.where, op.mutations);
      }
      break;
    }
  }
}

/// `ops` as the JSON request TxnBuilder sends for them.
Json WireOps(const std::vector<OracleOp>& ops) {
  Json::Array out;
  int inserts = 0;
  for (const OracleOp& op : ops) {
    Json::Object json;
    Json::Array where, mutations;
    Json::Object row;
    for (const Clause& c : op.where) {
      where.push_back(Json(Json::Array{Json(c.column), Json(c.function),
                                       c.value.ToJson()}));
    }
    for (const auto& [column, mutator, value] : op.mutations) {
      mutations.push_back(
          Json(Json::Array{Json(column), Json(mutator), value.ToJson()}));
    }
    for (const auto& [column, datum] : op.row) row[column] = datum.ToJson();
    static const char* const kNames[] = {"insert", "update", "mutate",
                                         "delete", "assert_fence"};
    json["op"] = Json(kNames[op.kind]);
    if (op.kind == OracleOp::kFence) {
      json["epoch"] = Json(op.epoch);
    } else {
      json["table"] = Json(op.table);
    }
    if (op.kind == OracleOp::kInsert) {
      json["uuid-name"] = Json(StrFormat("row%d", inserts++));
    }
    if (op.kind == OracleOp::kUpdate || op.kind == OracleOp::kMutate ||
        op.kind == OracleOp::kDelete) {
      json["where"] = Json(std::move(where));
    }
    if (op.kind == OracleOp::kInsert || op.kind == OracleOp::kUpdate) {
      json["row"] = Json(std::move(row));
    }
    if (op.kind == OracleOp::kMutate) {
      json["mutations"] = Json(std::move(mutations));
    }
    out.push_back(Json(std::move(json)));
  }
  return Json(std::move(out));
}

std::string RowText(const Row& row) {
  std::string out = row.uuid.ToString();
  for (const auto& [column, datum] : row.columns) {
    out += " " + column + "=" + datum.ToString();
  }
  return out;
}

/// One database under test with an all-table monitor and a column-scoped
/// one, each logging the deltas it receives.
struct OracleSide {
  explicit OracleSide(const DatabaseSchema& schema) : db(schema) {
    db.AddMonitor({}, [this](const TableUpdates& u) { Log("all", u); });
    db.AddMonitorColumns({{"Port", {"name", "tag"}}},
                         [this](const TableUpdates& u) { Log("cols", u); });
  }

  void Log(const std::string& monitor, const TableUpdates& updates) {
    std::string text = monitor;
    for (const auto& [table, rows] : updates) {
      for (const auto& [uuid, update] : rows) {
        text += " " + table + " " + uuid.ToString();
        if (update.old_row) text += " old{" + RowText(*update.old_row) + "}";
        if (update.new_row) text += " new{" + RowText(*update.new_row) + "}";
      }
    }
    deltas.push_back(std::move(text));
  }

  Database db;
  std::vector<std::string> deltas;
};

/// Every row of every table, in uuid order.
std::map<std::string, std::vector<Row>> Contents(const Database& db) {
  std::map<std::string, std::vector<Row>> out;
  for (const auto& [table, schema] : db.schema().tables) {
    std::vector<Row>& rows = out[table];
    for (const Row* row : db.GetRows(table)) rows.push_back(*row);
    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.uuid < b.uuid; });
  }
  return out;
}

/// Each unique index still finds each row.
void ExpectIndexesAnswer(const Database& db) {
  for (const auto& [table, schema] : db.schema().tables) {
    for (const Row* row : db.GetRows(table)) {
      for (const std::vector<std::string>& index : schema.indexes) {
        std::vector<Clause> where;
        for (const std::string& column : index) {
          where.push_back({column, "==", *row->Find(column)});
        }
        auto found = db.SelectRows(table, where);
        ASSERT_TRUE(found.ok()) << found.status().ToString();
        ASSERT_EQ(found->size(), 1u) << table << " " << RowText(*row);
        EXPECT_EQ(found->front()->uuid, row->uuid);
      }
    }
  }
}

/// Draws the operations of one transaction from the current state of `db`.
class OracleGen {
 public:
  OracleGen(uint64_t seed, uint64_t base) : rng_(seed), base_(base) {}

  uint64_t Below(uint64_t n) { return n == 0 ? 0 : rng_() % n; }
  bool OneIn(uint64_t n) { return Below(n) == 0; }
  Datum IntBelow(uint64_t n) {
    return Datum::Integer(static_cast<int64_t>(Below(n)));
  }
  Datum Named(const char* prefix, uint64_t n) {
    return Datum::String(prefix + std::to_string(Below(n)));
  }

  /// Rows of `table` in generation order (uuid order would depend on how
  /// many uuids earlier tests drew).
  std::vector<const Row*> Rows(const Database& db, const std::string& table) {
    std::vector<const Row*> rows = db.GetRows(table);
    std::sort(rows.begin(), rows.end(), [&](const Row* a, const Row* b) {
      return GenerationOf(a->uuid) - base_ < GenerationOf(b->uuid) - base_;
    });
    return rows;
  }

  /// A random existing row's column value, or `fallback` on an empty table.
  Datum Existing(const Database& db, const std::string& table,
                 const std::string& column, Datum fallback) {
    std::vector<const Row*> rows = Rows(db, table);
    if (rows.empty()) return fallback;
    const Row* row = rows[Below(rows.size())];
    return column == "_uuid" ? Datum::UuidRef(row->uuid) : *row->Find(column);
  }

  std::vector<Clause> ByColumn(const Database& db, const std::string& table,
                               const std::string& column, Datum fallback) {
    return {{column, "==", Existing(db, table, column, std::move(fallback))}};
  }

  Datum SomePorts(const Database& db) {
    std::vector<Atom> ports;
    for (const Row* row : Rows(db, "Port")) {
      if (OneIn(2)) ports.emplace_back(row->uuid);
    }
    return Datum::Set(std::move(ports));
  }

  Datum Weight() {
    int64_t w = static_cast<int64_t>(Below(40));
    return OneIn(2) ? Datum::Integer(w)
                    : Datum::Real(static_cast<double>(w) / 2);
  }

  std::string Arith() {
    static const char* const kOps[] = {"+=", "-=", "*=", "/=", "%="};
    return kOps[Below(5)];
  }

  /// 1..3, with the odd zero (division by zero) and -1.
  int64_t Operand() {
    return OneIn(16) ? static_cast<int64_t>(Below(2)) - 1
                     : 1 + static_cast<int64_t>(Below(3));
  }

  /// One operation over TestSchema(); `fail` picks a way to be rejected.
  OracleOp TestOp(const Database& db, int fail) {
    OracleOp op{OracleOp::kUpdate, "Bridge", {}, {}, {}, 0};
    auto bridge = [&] {
      return ByColumn(db, "Bridge", "name", Datum::String("br0"));
    };
    auto port = [&] {
      return OneIn(2) ? ByColumn(db, "Port", "_uuid", Datum::UuidRef(Uuid{}))
                      : ByColumn(db, "Port", "name", Datum::String("eth0"));
    };
    switch (fail) {
      case 0:  // duplicate index key
        op.kind = OracleOp::kInsert;
        op.row = {{"name",
                   Existing(db, "Bridge", "name", Datum::String("br0"))},
                  {"datapath", Datum::String("system")}};
        if (db.RowCount("Bridge") == 0) {
          op.row["datapath"] = Datum::String("x");  // no name to collide with
        }
        return op;
      case 1:  // out of range
        if (OneIn(2)) {
          op.table = "Port";
          op.where = port();
          op.row = {{"tag", Datum::Integer(5000)}};
        } else {
          op.kind = OracleOp::kInsert;
          op.row = {{"name", Datum::String("brx")},
                    {"datapath", Datum::String(OneIn(2) ? "bogus" : "system")},
                    {"weight", Datum::Real(OneIn(2) ? 100.5 : -1)}};
        }
        return op;
      case 2:  // wrong-typed datum, in a row or a clause
        if (OneIn(2)) {
          op.where = bridge();
          op.row = {{"weight", Datum::String("heavy")}};
        } else {
          op.table = "Port";
          op.where = {{"tag", "==", Datum::String("x")}};
          op.row = {{"tag", Datum::Integer(1)}};
        }
        return op;
      case 3:  // unknown column
        op.where = bridge();
        if (OneIn(2)) {
          op.row = {{"nope", Datum::Integer(1)}};
        } else {
          op.kind = OracleOp::kMutate;
          op.mutations = {{"nope", "+=", Datum::Integer(1)}};
        }
        return op;
      case 4:  // immutable column
        op.where = bridge();
        if (OneIn(2)) {
          op.row = {{"datapath", Datum::String("netdev")}};
        } else {
          op.kind = OracleOp::kMutate;
          op.mutations = {{"datapath", "insert", Datum::String("netdev")}};
        }
        return op;
      case 5:  // a fence on a database without a lease table
        op.kind = OracleOp::kFence;
        op.epoch = 1;
        return op;
      case 6:  // dangling strong reference
        op.kind = OracleOp::kMutate;
        op.where = bridge();
        op.mutations = {{"ports", "insert",
                         Datum::UuidRef(Uuid{rng_(), rng_()})}};
        return op;
    }
    switch (Below(10)) {
      case 0:
        op.kind = OracleOp::kInsert;
        op.row = {{"name", Named("br", 64)},
                  {"datapath", Datum::String(OneIn(2) ? "system" : "netdev")},
                  {"ports", SomePorts(db)},
                  {"weight", Weight()}};
        break;
      case 1:
        op.kind = OracleOp::kInsert;
        op.table = "Port";
        op.row = {{"name", Named("eth", 8)},
                  {"tag", IntBelow(4096)}};
        break;
      case 2:
        op.where = OneIn(4) ? std::vector<Clause>{{"name", "!=",
                                                   Datum::String("br1")}}
                            : bridge();
        if (OneIn(3)) {
          op.row = {{"ports", SomePorts(db)}};
        } else if (OneIn(2)) {
          op.row = {{"weight", OneIn(8) ? Datum::Empty() : Weight()}};
        } else {
          op.row = {{"name", Named("br", 64)}};
        }
        break;
      case 3:
        op.table = "Port";
        op.where = port();
        if (OneIn(3)) {
          op.row = {{"tag", IntBelow(4096)}};
        } else if (OneIn(2)) {
          op.row = {{"stats", Datum::Map({{Atom("rx"), Atom(int64_t{1})},
                                          {Atom("tx"), Atom(int64_t{2})}})}};
        } else {
          op.row = {{"peer", OneIn(3) ? Datum::Empty()
                                      : Existing(db, "Port", "_uuid",
                                                 Datum::Empty())}};
        }
        break;
      case 4:
        op.kind = OracleOp::kMutate;
        op.table = "Port";
        op.where = OneIn(4) ? std::vector<Clause>{{"tag", "<",
                                                   Datum::Integer(2000)}}
                            : port();
        op.mutations = {{"tag", Arith(), Datum::Integer(Operand())}};
        if (OneIn(2)) {
          const bool insert = OneIn(2);
          op.mutations.emplace_back(
              "stats", insert ? "insert" : "delete",
              insert || OneIn(2) ? Datum::Map({{Atom("rx"), Atom(int64_t{5})}})
                                 : Datum::Set({Atom("tx")}));
        }
        break;
      case 5:
        op.kind = OracleOp::kMutate;
        op.table = "Port";
        op.where = port();
        op.mutations = {OneIn(2)
                            ? std::make_tuple(
                                  std::string("stats"), std::string("setkey"),
                                  Datum::Map({{Atom(OneIn(2) ? "rx" : "err"),
                                               Atom(int64_t{7})}}))
                            : std::make_tuple(std::string("stats"),
                                              std::string("delkey"),
                                              Datum::Set({Atom("rx")}))};
        break;
      case 6:
        op.kind = OracleOp::kMutate;
        op.where = bridge();
        if (OneIn(2)) {
          op.mutations = {{"ports", OneIn(2) ? "insert" : "delete",
                           SomePorts(db)}};
        } else {
          op.mutations = {{"weight", OneIn(4) ? Arith() : "+=",
                           OneIn(2) ? Datum::Integer(Operand())
                                    : Datum::Real(0.5 * Operand())}};
        }
        break;
      case 7:
        if (OneIn(4)) {  // usually still referenced by a bridge: rejected
          op.kind = OracleOp::kDelete;
          op.table = "Port";
          op.where = port();
        } else {  // unreferenced ports are garbage-collected
          op.kind = OracleOp::kMutate;
          op.where = bridge();
          op.mutations = {{"ports", "delete", SomePorts(db)}};
        }
        break;
      default:
        op.kind = OracleOp::kDelete;
        op.where = bridge();
        break;
    }
    return op;
  }

  /// One operation over WithLeaderLease(SnvsSchema()).
  OracleOp SnvsOp(const Database& db, int fail) {
    OracleOp op{OracleOp::kUpdate, "Port", {}, {}, {}, 0};
    auto port = [&] {
      switch (Below(3)) {
        case 0: return ByColumn(db, "Port", "port", Datum::Integer(0));
        case 1: return ByColumn(db, "Port", "_uuid", Datum::UuidRef(Uuid{}));
        default: return ByColumn(db, "Port", "name", Datum::String("p0"));
      }
    };
    Datum epoch = Existing(db, kLeaderLeaseTable, kLeaseEpochColumn,
                           Datum::Integer(0));
    switch (fail) {
      case 0:  // duplicate index key
        if (OneIn(2)) {
          op.kind = OracleOp::kInsert;
          op.row = {{"name", Existing(db, "Port", "name", Datum::String("p0"))},
                    {"port", Datum::Integer(200)},
                    {"vlan_mode", Datum::String("access")}};
        } else {
          op.where = port();
          op.row = {{"port", Existing(db, "Port", "port", Datum::Integer(0))}};
        }
        return op;
      case 1:  // out of range
        op.where = port();
        op.row = {{OneIn(2) ? "tag" : "port", Datum::Integer(70000)}};
        if (OneIn(3)) {
          op.table = kLeaderLeaseTable;
          op.where = {};
          op.row = {{kLeaseEpochColumn, Datum::Integer(-1)}};
        }
        return op;
      case 2:  // wrong-typed datum
        op.where = port();
        op.row = {{"tag", Datum::String("ten")}};
        if (OneIn(2)) op.row = {{"trunks", Datum::Set({Atom("a"), Atom("b")})}};
        return op;
      case 3:  // unknown column
        op.where = port();
        op.row = {{"speed", Datum::Integer(10)}};
        return op;
      case 4:  // immutable column
        op.table = "Mirror";
        op.where = ByColumn(db, "Mirror", "name", Datum::String("m0"));
        op.row = {{"out_port", Datum::Integer(3)}};
        return op;
      case 5:  // stale fence (rejected only once a lease row holds epoch > 0)
        op.kind = OracleOp::kFence;
        op.epoch = epoch.AsInteger() - 1;
        return op;
      case 6:  // a second lease row: max_rows = 1
        op.kind = OracleOp::kInsert;
        op.table = kLeaderLeaseTable;
        op.row = {{kLeaseEpochColumn, Datum::Integer(1)},
                  {kLeaseHolderColumn, Datum::String("b")}};
        if (db.RowCount(kLeaderLeaseTable) == 0) {
          op.row[kLeaseEpochColumn] = Datum::Integer(-5);
        }
        return op;
    }
    switch (Below(10)) {
      case 0: {
        op.kind = OracleOp::kInsert;
        std::vector<Atom> trunks;
        for (uint64_t i = Below(4); i > 0; --i) {
          trunks.emplace_back(static_cast<int64_t>(Below(4096)));
        }
        op.row = {{"name", Named("p", 96)},
                  {"port", IntBelow(128)},
                  {"vlan_mode", Datum::String(OneIn(2) ? "access" : "trunk")},
                  {"tag", IntBelow(4096)},
                  {"trunks", Datum::Set(std::move(trunks))}};
        break;
      }
      case 2:
        op.where = port();
        switch (Below(4)) {
          case 0: op.row = {{"tag", IntBelow(4096)}}; break;
          case 1: op.row = {{"vlan_mode", Datum::String("trunk")}}; break;
          case 2: op.row = {{"port", IntBelow(128)}}; break;
          default: op.row = {{"name", Named("p", 96)}}; break;
        }
        break;
      case 3:
        op.kind = OracleOp::kMutate;
        op.where = port();
        op.mutations = {{"tag", Arith(), Datum::Integer(Operand())}};
        if (OneIn(2)) {
          op.mutations.emplace_back(
              "trunks", OneIn(2) ? "insert" : "delete",
              Datum::Set({Atom(static_cast<int64_t>(Below(8)))}));
        }
        break;
      case 1:
      case 4:
        op.kind = OracleOp::kDelete;
        op.where = OneIn(3) ? std::vector<Clause>{{"tag", ">",
                                                   Datum::Integer(3500)}}
                            : port();
        break;
      case 5:
        op.table = "Mirror";
        if (OneIn(2)) {
          op.kind = OracleOp::kDelete;
          op.where = ByColumn(db, "Mirror", "name", Datum::String("m0"));
          break;
        }
        op.kind = OracleOp::kInsert;
        op.row = {{"name", Named("m", 64)},
                  {"src_port", IntBelow(256)},
                  {"out_port", IntBelow(16)}};
        break;
      case 6:
        op.table = "AclRule";
        if (OneIn(2)) {
          op.kind = OracleOp::kInsert;
          op.row = {{"mac", IntBelow(1000)},
                    {"vlan", IntBelow(8)},
                    {"allow", Datum::Boolean(OneIn(2))}};
        } else {
          op.kind = OracleOp::kDelete;
          op.where = ByColumn(db, "AclRule", "mac", Datum::Integer(0));
        }
        break;
      case 7:
        op.table = kLeaderLeaseTable;
        if (db.RowCount(kLeaderLeaseTable) == 0) {
          op.kind = OracleOp::kInsert;
          op.row = {{kLeaseEpochColumn, Datum::Integer(1)},
                    {kLeaseHolderColumn, Datum::String("a")},
                    {kLeaseExpiryColumn, Datum::Integer(100)}};
        } else if (OneIn(2)) {
          op.row = {{kLeaseEpochColumn, Datum::Integer(epoch.AsInteger() + 1)},
                    {kLeaseHolderColumn, Datum::String(OneIn(2) ? "a" : "b")}};
        } else {
          op.kind = OracleOp::kMutate;
          op.mutations = {{kLeaseEpochColumn, "+=", Datum::Integer(1)},
                          {kLeaseExpiryColumn, OneIn(2) ? "+=" : "-=",
                           Datum::Integer(Operand())}};
        }
        break;
      default:
        op.kind = OracleOp::kFence;
        op.epoch = epoch.AsInteger() + static_cast<int64_t>(Below(2));
        break;
    }
    return op;
  }

  std::vector<OracleOp> Txn(const Database& db, bool snvs) {
    std::vector<OracleOp> ops;
    const size_t count = 1 + Below(6);
    const size_t failing = OneIn(3) ? Below(count) : count;
    for (size_t i = 0; i < count; ++i) {
      int fail = i == failing ? static_cast<int>(Below(7)) : -1;
      ops.push_back(snvs ? SnvsOp(db, fail) : TestOp(db, fail));
    }
    return ops;
  }

  /// A wire transaction that gives TestSchema() ports to work with: ports
  /// live only while a bridge references them, and TxnBuilder cannot name
  /// a row it inserts in the same transaction.
  Json Replenish(int round) {
    Json::Array ops, refs;
    std::string peer;
    for (int i = 0; i < 3; ++i) {
      std::string uuid = Uuid{rng_(), rng_()}.ToString();
      Json::Object row{{"name", Json(StrFormat("eth%d", i + 2 * round % 6))},
                       {"tag", Json(static_cast<int64_t>(Below(4096)))}};
      if (!peer.empty()) {
        row["peer"] = Json(Json::Array{Json("uuid"), Json(peer)});
      }
      ops.push_back(Json(Json::Object{{"op", Json("insert")},
                                      {"table", Json("Port")},
                                      {"uuid", Json(uuid)},
                                      {"row", Json(std::move(row))}}));
      refs.push_back(Json(Json::Array{Json("uuid"), Json(uuid)}));
      peer = uuid;
    }
    Json::Object bridge{
        {"name", Json(StrFormat("rb%d", round))},
        {"datapath", Json("system")},
        {"weight", Json(1)},
        {"ports", Json(Json::Array{Json("set"), Json(std::move(refs))})}};
    const std::string uuid = Uuid{rng_(), rng_()}.ToString();
    ops.push_back(Json(Json::Object{{"op", Json("insert")},
                                    {"table", Json("Bridge")},
                                    {"uuid", Json(uuid)},
                                    {"row", Json(std::move(bridge))}}));
    return Json(std::move(ops));
  }

 private:
  std::mt19937_64 rng_;
  uint64_t base_;
};

struct OracleFingerprints {
  uint64_t records = 0xcbf29ce484222325ULL;   // A's hook records, seed 1
  uint64_t statuses = 0xcbf29ce484222325ULL;  // every transaction's code
  int rejected = 0;
  int total = 0;
};

void RunOracleStream(bool snvs, uint64_t seed, OracleFingerprints& fp) {
  const DatabaseSchema schema = OracleSchema(snvs);
  auto a = std::make_unique<OracleSide>(schema);
  auto b = std::make_unique<OracleSide>(schema);
  std::vector<Json> records;
  a->db.AddCommitHook([&](const Json& record) { records.push_back(record); });
  const uint64_t base = GenerationOf(Uuid::Generate());
  OracleGen gen(seed * 2 + (snvs ? 1 : 0), base);
  for (int t = 0; t < kOracleTxns; ++t) {
    SCOPED_TRACE(StrFormat("%s seed %llu txn %d", snvs ? "snvs" : "test",
                           static_cast<unsigned long long>(seed), t));
    const auto before = Contents(a->db);
    const size_t deltas_a = a->deltas.size(), deltas_b = b->deltas.size();
    const size_t logged = records.size();
    Status status_a, status_b;
    std::vector<OracleOp> ops;
    if (!snvs && t % 8 == 0) {
      Json replenish = gen.Replenish(t / 8);
      status_a = a->db.Transact(replenish).status();
      status_b = b->db.Transact(replenish).status();
      ASSERT_TRUE(status_a.ok()) << status_a.ToString();
    } else {
      ops = gen.Txn(a->db, snvs);
      TxnBuilder txn(&a->db);
      for (const OracleOp& op : ops) AddTo(txn, op);
      status_a = txn.Commit().status();
      ASSERT_EQ(records.size(), logged + (status_a.ok() ? 1 : 0));
      status_b = b->db.Transact(status_a.ok() ? records.back() : WireOps(ops))
                     .status();
    }
    ASSERT_EQ(status_a.code(), status_b.code())
        << status_a.ToString() << " vs " << status_b.ToString() << "\n"
        << WireOps(ops).Dump();
    ASSERT_EQ(Contents(a->db), Contents(b->db));
    ASSERT_EQ(a->deltas, b->deltas);
    ASSERT_EQ(a->db.commit_count(), b->db.commit_count());
    if (!status_a.ok()) {
      ++fp.rejected;
      ASSERT_EQ(Contents(a->db), before);
      EXPECT_EQ(a->deltas.size(), deltas_a);
      EXPECT_EQ(b->deltas.size(), deltas_b);
      ExpectIndexesAnswer(a->db);
      ExpectIndexesAnswer(b->db);
    }
    ++fp.total;
    const char code = static_cast<char>(status_a.code());
    fp.statuses = Fnv1a(fp.statuses, std::string_view(&code, 1));
  }
  if (seed == 1) {
    for (const Json& record : records) {
      fp.records = Fnv1a(fp.records, CanonicalUuids(record, base).Dump());
    }
  }
}

TEST(OvsdbOracle, TypedCommitsMatchTheirWireForm) {
  OracleFingerprints fp;
  for (bool snvs : {false, true}) {
    for (uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
      RunOracleStream(snvs, seed, fp);
      if (HasFatalFailure()) return;
    }
  }
  // About a third of the transactions are built to fail.
  EXPECT_GT(fp.rejected * 5, fp.total) << fp.rejected << " of " << fp.total;
  EXPECT_LT(fp.rejected * 2, fp.total) << fp.rejected << " of " << fp.total;
  // Golden values: the WAL bytes of seed 1 (uuids named by their place in
  // the generated sequence) and the status code of every transaction.
  EXPECT_EQ(fp.records, 0xcbe7276e15854e10ULL)
      << StrFormat("0x%016llx", static_cast<unsigned long long>(fp.records));
  EXPECT_EQ(fp.statuses, 0x0bec510770f0eff3ULL)
      << StrFormat("0x%016llx", static_cast<unsigned long long>(fp.statuses));
}

}  // namespace
}  // namespace nerpa::ovsdb
