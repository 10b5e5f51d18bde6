// Durability and crash recovery for the management plane.
//
// The paper leaves "fault-tolerance and replication of the management and
// control planes" open (§5); this is the single-node half of that story.
// A DurableStore owns an ovsdb::Database plus an on-disk state directory:
//
//   <dir>/snapshot.json    full database image, written atomically
//                          (tmp + rename) with a CRC32 trailer line
//   <dir>/wal.jsonl        every transaction committed since the snapshot,
//                          CRC32-framed, appended and flushed before the
//                          commit returns (via Database::AddCommitHook)
//   <dir>/snapshot.json.1  the previous snapshot (rotated at checkpoint)
//   <dir>/wal.jsonl.1      the WAL segment the current snapshot subsumed
//
// Open() is also Recover(): if the directory holds state, the database is
// rebuilt by applying the snapshot as one pinned-uuid transaction and then
// replaying the WAL record by record; otherwise a fresh database is
// created.  Checkpoint() rotates the previous snapshot and WAL segment
// aside, writes a new checksummed snapshot, and starts a fresh WAL (log
// compaction), bounding both recovery time and disk growth.
//
// Corruption policy (every byte read back is checksum-verified):
//   - WAL torn tail: truncated silently (interrupted append, see wal.h).
//   - WAL interior corruption: recovery fails fast with the record index.
//   - Corrupt current snapshot: recovery falls back to the previous
//     snapshot plus the longer replay wal.jsonl.1 + wal.jsonl, which
//     reconstructs the same state (invariant: snapshot.json.1 + wal.jsonl.1
//     == snapshot.json).  Counted in Stats::snapshot_fallbacks.
//
// The snapshot holds no control-plane state: the control plane is a pure
// function of the management plane plus the digest stream, and is
// re-derived on restart.  An engine checkpoint sidecar (below) only spares
// the recomputation and carries learned state across.
#ifndef NERPA_HA_DURABLE_H_
#define NERPA_HA_DURABLE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/status.h"
#include "ha/io.h"
#include "ha/wal.h"
#include "ovsdb/database.h"

namespace nerpa::ha {

class DurableStore {
 public:
  /// Opens (recovering if state exists, creating otherwise) a durable
  /// database for `schema` rooted at directory `dir` (created if missing).
  /// All disk access goes through `io` (defaults to the real filesystem);
  /// the chaos harness injects a faulty Io here.
  static Result<std::unique_ptr<DurableStore>> Open(
      ovsdb::DatabaseSchema schema, const std::string& dir,
      Io* io = nullptr);

  ~DurableStore();
  DurableStore(const DurableStore&) = delete;
  DurableStore& operator=(const DurableStore&) = delete;

  /// The durable database.  Every Transact() against it is WAL-appended
  /// before the call returns.
  ovsdb::Database& db() { return *db_; }

  /// True when Open() rebuilt state from disk (vs. starting empty).
  bool recovered() const { return recovered_; }

  /// The underlying WAL — exposed so supervisors can attach a watchdog
  /// to the append/fsync path (see WriteAheadLog::AttachWatchdog).
  WriteAheadLog& wal() { return wal_; }

  /// Writes a full snapshot and compacts the WAL.
  Status Checkpoint();

  // --- Engine checkpoint sidecars ---
  //
  // Opaque per-component blobs (e.g. dlog::Engine::SerializeState) stored
  // next to the snapshot as <dir>/engine.<name>.ckpt, CRC32-framed and
  // written atomically (tmp + rename).  A sidecar is strictly an
  // accelerator: corruption or absence surfaces as an error and the caller
  // recomputes the state it would have loaded — never a recovery failure.

  /// Atomically writes `blob` as the checkpoint sidecar `name`
  /// ([A-Za-z0-9_-]+).
  Status WriteEngineCheckpoint(const std::string& name, std::string_view blob);

  /// Reads sidecar `name` back, verifying the frame and checksum.
  /// NotFound when absent; Internal when the frame is damaged.
  Result<std::string> ReadEngineCheckpoint(const std::string& name) const;

  struct Stats {
    uint64_t checkpoints = 0;
    uint64_t snapshot_rows = 0;          // rows in the last snapshot written
    uint64_t recovered_snapshot_rows = 0;
    uint64_t recovered_wal_records = 0;
    uint64_t truncated_tail_records = 0; // dropped interrupted appends
    uint64_t wal_records_appended = 0;   // since last checkpoint
    uint64_t snapshot_fallbacks = 0;     // recoveries off snapshot.json.1
    uint64_t engine_checkpoints = 0;     // sidecar blobs written
  };
  Stats stats() const;

  /// Serializes a database into the snapshot JSON document (exposed for
  /// tests and benches that need to measure snapshot size directly).
  static Json SnapshotJson(const ovsdb::Database& db);

  /// Renders a snapshot document into its on-disk form: the JSON text
  /// followed by a CRC32 trailer line.
  static std::string EncodeSnapshot(const Json& snapshot);

  /// Verifies the trailer checksum and parses the document.  Legacy files
  /// without a trailer are accepted unverified.
  static Result<Json> DecodeSnapshot(const std::string& text);

  /// Applies a parsed snapshot document to an empty database.  Keys other
  /// than "format" and "tables" are ignored, such as the "digest_seq" of
  /// snapshots written while digests carried sequence numbers.
  static Status ApplySnapshot(ovsdb::Database& db, const Json& snapshot);

  /// Detaches and returns the database, ending durability (no further WAL
  /// appends).  The store is unusable afterwards.
  std::unique_ptr<ovsdb::Database> Release() &&;

 private:
  DurableStore(std::unique_ptr<ovsdb::Database> db, WriteAheadLog wal,
               std::string dir, Io* io);

  std::unique_ptr<ovsdb::Database> db_;
  WriteAheadLog wal_;
  std::string dir_;
  Io* io_ = nullptr;
  uint64_t hook_id_ = 0;
  bool recovered_ = false;
  uint64_t checkpoints_ = 0;
  uint64_t snapshot_rows_ = 0;
  uint64_t recovered_snapshot_rows_ = 0;
  uint64_t recovered_wal_records_ = 0;
  uint64_t recovered_truncated_tail_ = 0;
  uint64_t snapshot_fallbacks_ = 0;
  uint64_t engine_checkpoints_ = 0;
};

/// Convenience: recover just the database (no live store) from `dir`.
/// NotFound when the directory holds no state.
Result<std::unique_ptr<ovsdb::Database>> RecoverDatabase(
    ovsdb::DatabaseSchema schema, const std::string& dir, Io* io = nullptr);

}  // namespace nerpa::ha

#endif  // NERPA_HA_DURABLE_H_
