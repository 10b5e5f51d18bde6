#include "ha/durable.h"

#include <algorithm>
#include <cstring>
#include <filesystem>

#include "common/hash.h"
#include "common/log.h"
#include "common/strings.h"

namespace nerpa::ha {

namespace {

constexpr const char* kSnapshotFormat = "nerpa-ha-snapshot-v1";
constexpr const char* kTrailerPrefix = "#crc32 ";

// Engine-checkpoint sidecar frame: magic, format version, CRC32 of the
// payload, payload length, payload bytes.  All integers little-endian.
constexpr char kCkptMagic[8] = {'n', 'e', 'r', 'p', 'a', 'e', 'c', 'k'};
constexpr uint32_t kCkptVersion = 1;

std::string SnapshotPath(const std::string& dir) {
  return dir + "/snapshot.json";
}
std::string WalPath(const std::string& dir) { return dir + "/wal.jsonl"; }

bool ValidCheckpointName(const std::string& name) {
  if (name.empty()) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

std::string CheckpointPath(const std::string& dir, const std::string& name) {
  return dir + "/engine." + name + ".ckpt";
}

void PutLe32(std::string& out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, sizeof(v));
  out.append(buf, sizeof(buf));
}

void PutLe64(std::string& out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, sizeof(v));
  out.append(buf, sizeof(buf));
}

}  // namespace

Json DurableStore::SnapshotJson(const ovsdb::Database& db) {
  Json::Object tables;
  for (const auto& [table_name, table_schema] : db.schema().tables) {
    std::vector<const ovsdb::Row*> rows = db.GetRows(table_name);
    // Sort by uuid so identical databases produce identical snapshots.
    std::sort(rows.begin(), rows.end(),
              [](const ovsdb::Row* a, const ovsdb::Row* b) {
                return a->uuid < b->uuid;
              });
    Json::Array out_rows;
    for (const ovsdb::Row* row : rows) {
      Json::Object columns;
      for (const auto& [column, datum] : row->columns) {
        columns[column] = datum.ToJson();
      }
      Json::Object entry;
      entry["uuid"] = Json(row->uuid.ToString());
      entry["row"] = Json(std::move(columns));
      out_rows.push_back(Json(std::move(entry)));
    }
    tables[table_name] = Json(std::move(out_rows));
  }
  Json::Object doc;
  doc["format"] = Json(kSnapshotFormat);
  doc["schema"] = Json(db.schema().name);
  doc["tables"] = Json(std::move(tables));
  return Json(std::move(doc));
}

std::string DurableStore::EncodeSnapshot(const Json& snapshot) {
  std::string json = snapshot.Dump();
  std::string out = json;
  out += "\n";
  out += kTrailerPrefix;
  out += StrFormat("%08x", static_cast<unsigned>(Crc32(json)));
  out += "\n";
  return out;
}

Result<Json> DurableStore::DecodeSnapshot(const std::string& text) {
  std::string_view body = text;
  size_t newline = body.find('\n');
  if (newline != std::string_view::npos) {
    std::string_view rest = Trim(body.substr(newline + 1));
    if (StartsWith(rest, kTrailerPrefix)) {
      std::string_view hex = rest.substr(std::string_view(kTrailerPrefix).size());
      std::string_view json = body.substr(0, newline);
      unsigned stored = 0;
      bool hex_ok = hex.size() == 8;
      for (char c : hex) {
        if (c >= '0' && c <= '9') {
          stored = (stored << 4) | static_cast<unsigned>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
          stored = (stored << 4) | (static_cast<unsigned>(c - 'a') + 10);
        } else {
          hex_ok = false;
          break;
        }
      }
      uint32_t computed = Crc32(json);
      if (!hex_ok || stored != computed) {
        return Internal(StrFormat(
            "snapshot crc mismatch (stored %.*s, computed %08x)",
            static_cast<int>(hex.size()), hex.data(),
            static_cast<unsigned>(computed)));
      }
      return Json::Parse(std::string(json));
    }
  }
  // Legacy snapshot without a trailer: accepted unverified.
  return Json::Parse(text);
}

Status DurableStore::ApplySnapshot(ovsdb::Database& db, const Json& snapshot) {
  const Json* format = snapshot.Find("format");
  if (format == nullptr || !format->is_string() ||
      format->as_string() != kSnapshotFormat) {
    return ParseError("snapshot has missing/unsupported format tag");
  }
  const Json* tables = snapshot.Find("tables");
  if (tables == nullptr || !tables->is_object()) {
    return ParseError("snapshot missing 'tables' object");
  }
  // One transaction restores everything: intra-snapshot references resolve
  // because constraints are enforced at commit, and atomicity means a
  // half-applied snapshot can never be observed.
  Json::Array ops;
  for (const auto& [table_name, rows] : tables->as_object()) {
    if (!rows.is_array()) {
      return ParseError("snapshot table '" + table_name + "' is not an array");
    }
    for (const Json& entry : rows.as_array()) {
      const Json* uuid = entry.Find("uuid");
      const Json* row = entry.Find("row");
      if (uuid == nullptr || !uuid->is_string() || row == nullptr ||
          !row->is_object()) {
        return ParseError("snapshot row entry malformed in table '" +
                          table_name + "'");
      }
      Json::Object op;
      op["op"] = Json("insert");
      op["table"] = Json(table_name);
      op["uuid"] = *uuid;
      op["row"] = *row;
      ops.push_back(Json(std::move(op)));
    }
  }
  if (ops.empty()) return Status::Ok();
  Result<Json> applied = db.Transact(Json(std::move(ops)));
  if (!applied.ok()) {
    return Internal("snapshot restore failed: " +
                    applied.status().ToString());
  }
  return Status::Ok();
}

DurableStore::DurableStore(std::unique_ptr<ovsdb::Database> db,
                           WriteAheadLog wal, std::string dir, Io* io)
    : db_(std::move(db)), wal_(std::move(wal)), dir_(std::move(dir)),
      io_(io) {}

DurableStore::~DurableStore() {
  if (hook_id_ != 0 && db_ != nullptr) db_->RemoveCommitHook(hook_id_);
}

std::unique_ptr<ovsdb::Database> DurableStore::Release() && {
  if (hook_id_ != 0) {
    db_->RemoveCommitHook(hook_id_);
    hook_id_ = 0;
  }
  return std::move(db_);
}

namespace {

/// Reads, checksum-verifies, parses, and applies one snapshot file.
Status RestoreSnapshotFile(ovsdb::Database& db, Io& io,
                           const std::string& path) {
  NERPA_ASSIGN_OR_RETURN(std::string text, io.ReadFile(path));
  NERPA_ASSIGN_OR_RETURN(Json snapshot, DurableStore::DecodeSnapshot(text));
  return DurableStore::ApplySnapshot(db, snapshot);
}

}  // namespace

Result<std::unique_ptr<DurableStore>> DurableStore::Open(
    ovsdb::DatabaseSchema schema, const std::string& dir, Io* io) {
  if (io == nullptr) io = &DefaultIo();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Internal("cannot create HA directory '" + dir +
                    "': " + ec.message());
  }
  auto db = std::make_unique<ovsdb::Database>(std::move(schema));

  const std::string snap = SnapshotPath(dir);
  const std::string snap1 = snap + ".1";
  const std::string wal1 = WalPath(dir) + ".1";

  bool recovered = false;
  bool fell_back = false;
  uint64_t snapshot_rows = 0;
  uint64_t replayed = 0;
  uint64_t truncated = 0;

  auto apply_record = [&db](const Json& record) {
    return db->Transact(record).status();
  };

  if (io->Exists(snap)) {
    Status restored = RestoreSnapshotFile(*db, *io, snap);
    if (restored.ok()) {
      recovered = true;
    } else {
      // Corrupt current snapshot: fall back to the previous snapshot plus
      // the longer WAL replay (wal.jsonl.1 first, then wal.jsonl).
      LOG_WARNING << "ha: snapshot '" << snap << "' unusable ("
               << restored.ToString()
               << "); falling back to previous snapshot";
      fell_back = true;
      db = std::make_unique<ovsdb::Database>(db->schema());
    }
  }
  if (fell_back || (!io->Exists(snap) && io->Exists(snap1))) {
    // Either the current snapshot was corrupt, or a crash between rotation
    // and publication left no current snapshot at all.  Both recover from
    // the previous generation.
    fell_back = true;
    if (io->Exists(snap1)) {
      Status restored = RestoreSnapshotFile(*db, *io, snap1);
      if (!restored.ok()) {
        return Internal("both snapshot generations unusable under '" + dir +
                        "': " + restored.ToString());
      }
      recovered = true;
    }
    if (io->Exists(wal1)) {
      NERPA_RETURN_IF_ERROR(WriteAheadLog::ReplayFile(
          wal1, *io, apply_record, &replayed, &truncated));
      recovered = true;
    }
  }
  if (recovered) {
    for (const auto& [table, unused] : db->schema().tables) {
      snapshot_rows += db->RowCount(table);
    }
  }

  NERPA_ASSIGN_OR_RETURN(WriteAheadLog wal,
                         WriteAheadLog::Open(WalPath(dir), io));
  NERPA_RETURN_IF_ERROR(wal.Replay(apply_record));
  if (wal.records_replayed() > 0) recovered = true;

  auto store = std::unique_ptr<DurableStore>(
      new DurableStore(std::move(db), std::move(wal), dir, io));
  store->recovered_ = recovered;
  store->recovered_snapshot_rows_ = snapshot_rows;
  store->recovered_wal_records_ = replayed + store->wal_.records_replayed();
  store->recovered_truncated_tail_ = truncated;
  store->snapshot_fallbacks_ = fell_back ? 1 : 0;
  // Attach the WAL hook only now: recovery replay must not re-append the
  // records it is reading.
  store->hook_id_ = store->db_->AddCommitHook([raw = store.get()](
                                                  const Json& pinned) {
    Status appended = raw->wal_.Append(pinned);
    if (!appended.ok()) {
      LOG_ERROR << "ha: WAL append failed (transaction is NOT durable): "
                << appended.ToString();
    }
  });
  return store;
}

Status DurableStore::Checkpoint() {
  Json snapshot = SnapshotJson(*db_);
  const std::string snap = SnapshotPath(dir_);
  // Crash-safe rotation: after every individual step below, the on-disk
  // state still recovers to the current database under Open()'s rules
  // (snapshot.json + wal.jsonl, else snapshot.json.1 [+ wal.jsonl.1]
  // + wal.jsonl).
  //
  //   1. Drop the stale wal.jsonl.1 — it is subsumed by the current
  //      snapshot.  Were it left in place, a crash after step 2 would
  //      make recovery replay it on top of the NEWER snapshot.json.1,
  //      double-applying uuid-pinned transactions.
  //   2. Rotate snapshot.json -> snapshot.json.1.  A crash here leaves
  //      snapshot.json.1 + wal.jsonl, which Open() recovers (a missing
  //      wal.jsonl.1 is tolerated).
  //   3. Rotate wal.jsonl -> wal.jsonl.1 and start a fresh segment.  A
  //      crash here leaves snapshot.json.1 + wal.jsonl.1 + empty WAL.
  //   4. Publish the new snapshot atomically, restoring the invariant:
  //      snapshot.json.1 + wal.jsonl.1 reproduce exactly snapshot.json,
  //      so a corrupt current snapshot can always be recovered from the
  //      previous generation plus the longer replay.
  NERPA_RETURN_IF_ERROR(io_->Remove(WalPath(dir_) + ".1"));
  if (io_->Exists(snap)) {
    NERPA_RETURN_IF_ERROR(io_->Rename(snap, snap + ".1"));
  }
  NERPA_RETURN_IF_ERROR(wal_.Rotate());
  NERPA_RETURN_IF_ERROR(io_->WriteFileAtomic(snap, EncodeSnapshot(snapshot)));
  ++checkpoints_;
  snapshot_rows_ = 0;
  for (const auto& [table, unused] : db_->schema().tables) {
    snapshot_rows_ += db_->RowCount(table);
  }
  return Status::Ok();
}

Status DurableStore::WriteEngineCheckpoint(const std::string& name,
                                           std::string_view blob) {
  if (!ValidCheckpointName(name)) {
    return InvalidArgument("bad engine checkpoint name '" + name + "'");
  }
  std::string framed;
  framed.reserve(sizeof(kCkptMagic) + 16 + blob.size());
  framed.append(kCkptMagic, sizeof(kCkptMagic));
  PutLe32(framed, kCkptVersion);
  PutLe32(framed, Crc32(blob));
  PutLe64(framed, blob.size());
  framed.append(blob);
  NERPA_RETURN_IF_ERROR(
      io_->WriteFileAtomic(CheckpointPath(dir_, name), framed));
  ++engine_checkpoints_;
  return Status::Ok();
}

Result<std::string> DurableStore::ReadEngineCheckpoint(
    const std::string& name) const {
  if (!ValidCheckpointName(name)) {
    return InvalidArgument("bad engine checkpoint name '" + name + "'");
  }
  const std::string path = CheckpointPath(dir_, name);
  if (!io_->Exists(path)) {
    return NotFound("no engine checkpoint '" + name + "'");
  }
  NERPA_ASSIGN_OR_RETURN(std::string framed, io_->ReadFile(path));
  constexpr size_t kHeader = sizeof(kCkptMagic) + 4 + 4 + 8;
  auto corrupt = [&](const std::string& why) {
    return Internal("engine checkpoint '" + path + "' rejected: " + why);
  };
  if (framed.size() < kHeader) return corrupt("truncated header");
  if (std::memcmp(framed.data(), kCkptMagic, sizeof(kCkptMagic)) != 0) {
    return corrupt("bad magic");
  }
  uint32_t version = 0;
  uint32_t crc = 0;
  uint64_t size = 0;
  std::memcpy(&version, framed.data() + sizeof(kCkptMagic), sizeof(version));
  std::memcpy(&crc, framed.data() + sizeof(kCkptMagic) + 4, sizeof(crc));
  std::memcpy(&size, framed.data() + sizeof(kCkptMagic) + 8, sizeof(size));
  if (version != kCkptVersion) {
    return corrupt(StrFormat("unsupported version %u", version));
  }
  if (framed.size() - kHeader != size) return corrupt("length mismatch");
  std::string blob = framed.substr(kHeader);
  if (Crc32(blob) != crc) return corrupt("crc mismatch");
  return blob;
}

DurableStore::Stats DurableStore::stats() const {
  Stats stats;
  stats.checkpoints = checkpoints_;
  stats.snapshot_rows = snapshot_rows_;
  stats.recovered_snapshot_rows = recovered_snapshot_rows_;
  stats.recovered_wal_records = recovered_wal_records_;
  stats.truncated_tail_records =
      recovered_truncated_tail_ + wal_.truncated_tail_records();
  stats.wal_records_appended = wal_.records_appended();
  stats.snapshot_fallbacks = snapshot_fallbacks_;
  stats.engine_checkpoints = engine_checkpoints_;
  return stats;
}

Result<std::unique_ptr<ovsdb::Database>> RecoverDatabase(
    ovsdb::DatabaseSchema schema, const std::string& dir, Io* io) {
  Io& fs = io != nullptr ? *io : DefaultIo();
  if (!fs.Exists(SnapshotPath(dir)) && !fs.Exists(WalPath(dir)) &&
      !fs.Exists(SnapshotPath(dir) + ".1")) {
    return NotFound("no HA state under '" + dir + "'");
  }
  NERPA_ASSIGN_OR_RETURN(std::unique_ptr<DurableStore> store,
                         DurableStore::Open(std::move(schema), dir, &fs));
  // Detach the store scaffolding; keep only the rebuilt database.
  return std::move(*store).Release();
}

}  // namespace nerpa::ha
