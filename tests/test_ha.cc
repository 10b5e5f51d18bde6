// Unit tests for the durability layer (src/ha): WAL append/replay and
// truncated-tail tolerance, snapshot + recovery round-trips, log
// compaction, digest-seq checkpointing, and the deterministic fault
// injector.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ha/durable.h"
#include "ha/fault.h"
#include "ha/wal.h"
#include "ovsdb/database.h"
#include "p4/interpreter.h"
#include "snvs/snvs.h"

namespace nerpa::ha {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/nerpa_ha_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

Json Record(int64_t n) {
  return Json(Json::Object{{"n", Json(n)}});
}

TEST(WriteAheadLog, AppendThenReplayReturnsSameRecords) {
  std::string dir = FreshDir("wal_roundtrip");
  std::vector<Json> replayed;
  {
    auto wal = WriteAheadLog::Open(dir + "/wal.jsonl");
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    for (int64_t n = 0; n < 5; ++n) {
      ASSERT_TRUE(wal->Append(Record(n)).ok());
    }
    EXPECT_EQ(wal->records_appended(), 5u);
  }
  auto wal = WriteAheadLog::Open(dir + "/wal.jsonl");
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Replay([&](const Json& record) {
                   replayed.push_back(record);
                   return Status::Ok();
                 }).ok());
  ASSERT_EQ(replayed.size(), 5u);
  for (int64_t n = 0; n < 5; ++n) EXPECT_EQ(replayed[n], Record(n));
  EXPECT_EQ(wal->truncated_tail_records(), 0u);
}

TEST(WriteAheadLog, TruncatedFinalRecordIsDropped) {
  std::string dir = FreshDir("wal_tail");
  std::string path = dir + "/wal.jsonl";
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal->Append(Record(1)).ok());
    ASSERT_TRUE(wal->Append(Record(2)).ok());
  }
  // Simulate a crash mid-append: a half-written final line.
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"n\": 3";  // no closing brace, no newline
  }
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  int64_t count = 0;
  ASSERT_TRUE(wal->Replay([&](const Json&) {
                   ++count;
                   return Status::Ok();
                 }).ok());
  EXPECT_EQ(count, 2);
  EXPECT_EQ(wal->truncated_tail_records(), 1u);
}

TEST(WriteAheadLog, CorruptionBeforeTailFailsReplay) {
  std::string dir = FreshDir("wal_corrupt");
  std::string path = dir + "/wal.jsonl";
  {
    std::ofstream out(path);
    out << "{\"n\": 1}\n";
    out << "this is not json\n";
    out << "{\"n\": 3}\n";
  }
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  EXPECT_FALSE(wal->Replay([](const Json&) { return Status::Ok(); }).ok());
}

TEST(WriteAheadLog, AppendAfterMoveWrites) {
  std::string dir = FreshDir("wal_move");
  std::string path = dir + "/wal.jsonl";
  auto opened = WriteAheadLog::Open(path);
  ASSERT_TRUE(opened.ok());
  ASSERT_TRUE(opened->Append(Record(1)).ok());

  // Move-construct, then move-assign; the append stream must follow the
  // moves (regression: a moved-from raw ofstream member used to leave the
  // destination writing nowhere).
  WriteAheadLog moved(std::move(opened).value());
  ASSERT_TRUE(moved.Append(Record(2)).ok());
  WriteAheadLog assigned = WriteAheadLog::Open(dir + "/other.jsonl").value();
  assigned = std::move(moved);
  ASSERT_TRUE(assigned.Append(Record(3)).ok());
  EXPECT_EQ(assigned.records_appended(), 3u);

  std::vector<Json> replayed;
  auto reader = WriteAheadLog::Open(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader->Replay([&](const Json& record) {
                   replayed.push_back(record);
                   return Status::Ok();
                 }).ok());
  ASSERT_EQ(replayed.size(), 3u);
  for (int64_t n = 1; n <= 3; ++n) EXPECT_EQ(replayed[n - 1], Record(n));
}

TEST(WriteAheadLog, InteriorValidJsonByteFlipCaughtByCrc) {
  std::string dir = FreshDir("wal_byteflip");
  std::string path = dir + "/wal.jsonl";
  {
    auto wal = WriteAheadLog::Open(path);
    ASSERT_TRUE(wal.ok());
    for (int64_t n = 1; n <= 3; ++n) ASSERT_TRUE(wal->Append(Record(n)).ok());
  }
  // Flip one digit inside record 2's JSON.  The line still parses as
  // valid JSON — only the checksum can tell it was altered.
  std::string text;
  {
    std::ifstream in(path);
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
  }
  size_t line2 = text.find('\n') + 1;
  size_t digit = text.find("\"n\":2", line2);
  ASSERT_NE(digit, std::string::npos);
  text[digit + 4] = '7';
  {
    std::ofstream out(path, std::ios::trunc);
    out << text;
  }
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  Status replay = wal->Replay([](const Json&) { return Status::Ok(); });
  ASSERT_FALSE(replay.ok());
  // Fails fast naming the corrupt record, not silently dropping it.
  EXPECT_NE(replay.ToString().find("record 2"), std::string::npos)
      << replay.ToString();
  EXPECT_NE(replay.ToString().find("crc mismatch"), std::string::npos);
}

TEST(WriteAheadLog, ResetCompactsToEmpty) {
  std::string dir = FreshDir("wal_reset");
  std::string path = dir + "/wal.jsonl";
  auto wal = WriteAheadLog::Open(path);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal->Append(Record(1)).ok());
  ASSERT_TRUE(wal->Reset().ok());
  ASSERT_TRUE(wal->Append(Record(2)).ok());
  std::vector<Json> replayed;
  auto reader = WriteAheadLog::Open(path);
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader->Replay([&](const Json& record) {
                   replayed.push_back(record);
                   return Status::Ok();
                 }).ok());
  ASSERT_EQ(replayed.size(), 1u);
  EXPECT_EQ(replayed[0], Record(2));
}

// --- DurableStore ---

Status AddPortRow(ovsdb::Database& db, const std::string& name, int64_t port,
                  int64_t tag) {
  ovsdb::TxnBuilder txn(&db);
  txn.Insert("Port", {{"name", ovsdb::Datum::String(name)},
                      {"port", ovsdb::Datum::Integer(port)},
                      {"vlan_mode", ovsdb::Datum::String("access")},
                      {"tag", ovsdb::Datum::Integer(tag)},
                      {"trunks", ovsdb::Datum::Set({})}});
  return txn.Commit().status();
}

TEST(DurableStore, FreshDirectoryStartsEmpty) {
  std::string dir = FreshDir("fresh");
  auto store = DurableStore::Open(snvs::SnvsSchema(), dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_FALSE((*store)->recovered());
  EXPECT_EQ((*store)->db().commit_count(), 0u);
}

TEST(DurableStore, WalOnlyRecoveryReproducesDatabase) {
  std::string dir = FreshDir("wal_only");
  Json before;
  {
    auto store = DurableStore::Open(snvs::SnvsSchema(), dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(AddPortRow((*store)->db(), "p1", 1, 10).ok());
    ASSERT_TRUE(AddPortRow((*store)->db(), "p2", 2, 20).ok());
    EXPECT_EQ((*store)->stats().wal_records_appended, 2u);
    before = DurableStore::SnapshotJson((*store)->db());
  }  // "crash": no checkpoint was ever taken
  auto store = DurableStore::Open(snvs::SnvsSchema(), dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE((*store)->recovered());
  EXPECT_EQ((*store)->stats().recovered_wal_records, 2u);
  // Same rows, same uuids: the snapshot serializations are identical.
  EXPECT_EQ(DurableStore::SnapshotJson((*store)->db()), before);
}

TEST(DurableStore, CheckpointCompactsWal) {
  std::string dir = FreshDir("checkpoint");
  Json before;
  {
    auto store = DurableStore::Open(snvs::SnvsSchema(), dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(AddPortRow((*store)->db(), "p1", 1, 10).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());
    // Post-snapshot transactions land in the (now compacted) WAL.
    ASSERT_TRUE(AddPortRow((*store)->db(), "p2", 2, 20).ok());
    before = DurableStore::SnapshotJson((*store)->db());
    EXPECT_EQ((*store)->stats().checkpoints, 1u);
    EXPECT_EQ((*store)->stats().snapshot_rows, 1u);
  }
  auto store = DurableStore::Open(snvs::SnvsSchema(), dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE((*store)->recovered());
  EXPECT_EQ((*store)->stats().recovered_snapshot_rows, 1u);
  EXPECT_EQ((*store)->stats().recovered_wal_records, 1u);
  EXPECT_EQ(DurableStore::SnapshotJson((*store)->db()), before);
}

/// Forwards to the real filesystem but fails the n-th Rename of one
/// source path — simulating a crash part-way through Checkpoint()'s
/// rotation sequence.
class RenameCrashIo : public Io {
 public:
  RenameCrashIo(std::string path, int fail_on)
      : path_(std::move(path)), fail_on_(fail_on) {}
  Status Rename(const std::string& from, const std::string& to) override {
    if (from == path_ && ++seen_ == fail_on_) {
      return Internal("injected crash");
    }
    return DefaultIo().Rename(from, to);
  }

 private:
  std::string path_;
  int fail_on_;
  int seen_ = 0;
};

TEST(DurableStore, CrashBetweenSnapshotAndWalRotationStillRecovers) {
  std::string dir = FreshDir("checkpoint_crash");
  Json before;
  {
    // Fail the second rename of wal.jsonl: checkpoint #2 dies after
    // rotating snapshot.json aside but before rotating the WAL — the
    // window where a stale wal.jsonl.1, were it not removed first, would
    // be replayed on top of the NEWER snapshot.json.1, double-applying
    // its uuid-pinned transactions.
    RenameCrashIo io(dir + "/wal.jsonl", 2);
    auto store = DurableStore::Open(snvs::SnvsSchema(), dir, &io);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE(AddPortRow((*store)->db(), "p1", 1, 10).ok());
    ASSERT_TRUE((*store)->Checkpoint().ok());
    ASSERT_TRUE(AddPortRow((*store)->db(), "p2", 2, 20).ok());
    before = DurableStore::SnapshotJson((*store)->db());
    EXPECT_FALSE((*store)->Checkpoint().ok());
  }  // crash mid-checkpoint: no snapshot.json, snapshot.json.1 is newest
  auto store = DurableStore::Open(snvs::SnvsSchema(), dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_TRUE((*store)->recovered());
  // snapshot.json.1 ({p1}) + the live WAL ({p2}) reproduce the exact
  // pre-crash state.
  EXPECT_EQ((*store)->stats().snapshot_fallbacks, 1u);
  EXPECT_EQ(DurableStore::SnapshotJson((*store)->db()), before);
}

TEST(DurableStore, RecoverSurvivesTruncatedWalTail) {
  std::string dir = FreshDir("durable_tail");
  {
    auto store = DurableStore::Open(snvs::SnvsSchema(), dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(AddPortRow((*store)->db(), "p1", 1, 10).ok());
  }
  {
    std::ofstream out(dir + "/wal.jsonl", std::ios::app);
    out << "[\"partial";  // interrupted append
  }
  auto store = DurableStore::Open(snvs::SnvsSchema(), dir);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->stats().recovered_wal_records, 1u);
  EXPECT_EQ((*store)->stats().truncated_tail_records, 1u);
}

TEST(DurableStore, RecoverDatabaseHelper) {
  std::string dir = FreshDir("recover_helper");
  EXPECT_FALSE(RecoverDatabase(snvs::SnvsSchema(), dir).ok());  // no state
  {
    auto store = DurableStore::Open(snvs::SnvsSchema(), dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(AddPortRow((*store)->db(), "p1", 1, 10).ok());
  }
  auto db = RecoverDatabase(snvs::SnvsSchema(), dir);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->commit_count(), 1u);
}

// --- FaultyRuntimeClient ---

p4::TableEntry AclEntry(uint64_t mac, uint64_t vlan) {
  p4::TableEntry entry;
  entry.table = "Acl";
  entry.match = {p4::MatchField::Exact(vlan), p4::MatchField::Exact(mac)};
  entry.action = "AclAllow";
  return entry;
}

TEST(FaultyRuntimeClient, SameSeedSameFaultSequence) {
  auto program = snvs::SnvsP4Program();
  std::vector<bool> run[2];
  for (int r = 0; r < 2; ++r) {
    p4::Switch sw(program);
    FaultPolicy policy;
    policy.write_fail_probability = 0.5;
    policy.seed = 7;
    FaultyRuntimeClient client(&sw, policy);
    for (uint64_t i = 0; i < 32; ++i) {
      run[r].push_back(
          client.Write({{p4::UpdateType::kInsert, AclEntry(i, 1)}}).ok());
    }
    EXPECT_GT(client.fault_stats().injected_failures, 0u);
    EXPECT_LT(client.fault_stats().injected_failures, 32u);
    EXPECT_EQ(client.fault_stats().write_calls, 32u);
  }
  EXPECT_EQ(run[0], run[1]);
}

TEST(FaultyRuntimeClient, InjectedFailureAppliesNothing) {
  auto program = snvs::SnvsP4Program();
  p4::Switch sw(program);
  FaultPolicy policy;
  policy.write_fail_probability = 1.0;
  FaultyRuntimeClient client(&sw, policy);
  Status status = client.Write({{p4::UpdateType::kInsert, AclEntry(1, 1)}});
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(sw.GetTable("Acl")->size(), 0u);
  EXPECT_EQ(client.write_count(), 0u);
}

TEST(FaultyRuntimeClient, MaxFailuresHeals) {
  auto program = snvs::SnvsP4Program();
  p4::Switch sw(program);
  FaultPolicy policy;
  policy.write_fail_probability = 1.0;
  policy.max_failures = 2;
  FaultyRuntimeClient client(&sw, policy);
  EXPECT_FALSE(client.Write({{p4::UpdateType::kInsert, AclEntry(1, 1)}}).ok());
  EXPECT_FALSE(client.Write({{p4::UpdateType::kInsert, AclEntry(1, 1)}}).ok());
  // Device "heals" after the failure budget is spent.
  EXPECT_TRUE(client.Write({{p4::UpdateType::kInsert, AclEntry(1, 1)}}).ok());
  EXPECT_EQ(client.fault_stats().injected_failures, 2u);
  EXPECT_EQ(sw.GetTable("Acl")->size(), 1u);
}

TEST(FaultyRuntimeClient, StallModeSucceedsSlowly) {
  auto program = snvs::SnvsP4Program();
  p4::Switch sw(program);
  FaultPolicy policy;
  policy.write_fail_probability = 1.0;  // every write draws a fault...
  policy.stall_nanos = 200'000;         // ...but stalls instead of failing
  FaultyRuntimeClient client(&sw, policy);
  EXPECT_TRUE(client.Write({{p4::UpdateType::kInsert, AclEntry(1, 1)}}).ok());
  EXPECT_EQ(client.fault_stats().injected_stalls, 1u);
  EXPECT_EQ(client.fault_stats().injected_failures, 0u);
  EXPECT_EQ(sw.GetTable("Acl")->size(), 1u);  // slow, not broken

  // Flipping the policy back to error mode makes the same client break.
  policy.stall_nanos = 0;
  client.set_policy(policy);
  EXPECT_FALSE(client.Write({{p4::UpdateType::kInsert, AclEntry(2, 1)}}).ok());
  EXPECT_EQ(client.fault_stats().injected_failures, 1u);
}

TEST(FaultyRuntimeClient, ReadsAreNeverFaulted) {
  auto program = snvs::SnvsP4Program();
  p4::Switch sw(program);
  FaultPolicy policy;
  policy.write_fail_probability = 1.0;
  FaultyRuntimeClient client(&sw, policy);
  EXPECT_TRUE(client.ReadTable("Acl").ok());
  EXPECT_TRUE(client.ReadMulticastGroups().ok());
}

}  // namespace
}  // namespace nerpa::ha
