// The management-plane database: an in-memory OVSDB (RFC 7047) lookalike.
//
// Key properties Nerpa depends on, all implemented here:
//   * Transactional mutation: a "transact" request is a list of operations
//     applied atomically; any failure rolls the whole batch back.
//   * Monitors: subscribers receive the per-transaction delta (old/new row
//     pairs) after each commit — this stream drives the incremental control
//     plane, giving the "changes grouped into transactions" property of §4.1.
//   * Schema enforcement: column types, enum/range constraints, unique
//     indexes, strong/weak referential integrity, and garbage collection of
//     unreferenced rows in non-root tables.
#ifndef NERPA_OVSDB_DATABASE_H_
#define NERPA_OVSDB_DATABASE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "ovsdb/datum.h"
#include "ovsdb/schema.h"

namespace nerpa::ovsdb {

/// A row: its UUID plus column values.  Missing columns read as the column
/// type's default.  The database shares each committed row, immutable,
/// between its table, the undo log and every monitor delta.
struct Row {
  using Columns = std::map<std::string, Datum, std::less<>>;

  Uuid uuid;
  Columns columns;

  const Datum* Find(std::string_view column) const {
    auto it = columns.find(column);
    return it == columns.end() ? nullptr : &it->second;
  }

  bool operator==(const Row& o) const {
    return uuid == o.uuid && columns == o.columns;
  }
};

/// One row's change within a transaction delta.
///   insert: old absent, new present.   delete: old present, new absent.
///   modify: both present (and differing).
struct RowUpdate {
  std::shared_ptr<const Row> old_row;
  std::shared_ptr<const Row> new_row;

  bool is_insert() const { return !old_row && new_row; }
  bool is_delete() const { return old_row && !new_row; }
  bool is_modify() const { return old_row && new_row; }
};

using TableUpdate = std::map<Uuid, RowUpdate>;
/// table name -> row updates; the unit delivered to each monitor per commit.
using TableUpdates = std::map<std::string, TableUpdate>;

/// A typed `where` clause: [column, function, value].
struct Clause {
  std::string column;   // "_uuid" selects by row id
  std::string function; // "==", "!=", "<", "<=", ">", ">=", "includes", "excludes"
  Datum value;
};

/// One mutation: [column, mutator, operand].  Mutators: "+=", "-=", "*=",
/// "/=", "%=", "insert", "delete", "setkey", "delkey".
struct Mutation {
  std::string column;
  std::string mutator;
  Datum value;
  Status error;  // a wire operand that did not parse, reported when read
};

/// One typed operation.  TxnBuilder records these, the wire parser turns
/// each JSON operation into one, and a single executor runs both.
struct TxnOp {
  enum class Kind {
    kInsert, kSelect, kUpdate, kMutate, kDelete, kWait, kComment, kAbort,
    kAssertFence,
  };
  Kind kind = Kind::kComment;
  std::string table;
  std::vector<Clause> where;
  Row::Columns row;                 // insert, update
  std::vector<Mutation> mutations;  // mutate
  std::optional<Uuid> uuid;         // insert: the row's uuid (else generated)
  std::string uuid_name;            // insert: its name in the WAL record
  int64_t epoch = 0;                // assert_fence
  std::vector<std::string> columns;      // select, wait: the projection
  std::vector<std::vector<Datum>> rows;  // wait: the expected rows
  bool until_equal = true;               // wait: "==" (else "!=")
  Status error;  // wait: a row that did not parse, reported after matching
};

// --- Leader lease (controller replication) ---
//
// Hot-standby controller pairs elect a leader through a singleton
// `Leader_Lease` row (epoch, holder, expiry_nanos) updated with CAS-style
// wait+update transactions; the lease epoch doubles as a fencing token.  A
// transaction may carry an extra {"op":"assert_fence","epoch":N} operation:
// it fails (rolling the whole transaction back) when N is older than the
// epoch recorded in the lease row, so a paused-then-revived old leader can
// never push stale writes into a database that has since elected a
// successor.

/// Name of the lease table and its columns.
inline constexpr char kLeaderLeaseTable[] = "Leader_Lease";
inline constexpr char kLeaseEpochColumn[] = "epoch";
inline constexpr char kLeaseHolderColumn[] = "holder";
inline constexpr char kLeaseExpiryColumn[] = "expiry_nanos";

/// The lease table schema: max_rows=1 makes the singleton a DB invariant.
TableSchema LeaderLeaseTableSchema();

/// Returns `schema` extended with the Leader_Lease table (idempotent).
DatabaseSchema WithLeaderLease(DatabaseSchema schema);

class Database {
 public:
  explicit Database(DatabaseSchema schema);
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const DatabaseSchema& schema() const { return schema_; }

  /// Executes a JSON "transact" request: an array of operation objects
  /// (insert/select/update/mutate/delete/wait/comment/abort/assert_fence).
  /// Returns the per-operation result array; if any operation fails the
  /// transaction is rolled back and the Status is the error.
  Result<Json> Transact(const Json& operations);

  /// Parses `text` as JSON and calls Transact.
  Result<Json> TransactText(std::string_view text);

  // --- Read API (between transactions) ---

  /// Row by UUID; nullptr if missing.  Pointer valid until next Transact.
  const Row* GetRow(std::string_view table, const Uuid& uuid) const;
  /// All rows of `table` (unspecified order).
  std::vector<const Row*> GetRows(std::string_view table) const;
  size_t RowCount(std::string_view table) const;
  /// Rows matching all `where` clauses.
  Result<std::vector<const Row*>> SelectRows(
      std::string_view table, const std::vector<Clause>& where) const;

  // --- Monitors ---

  using MonitorCallback = std::function<void(const TableUpdates&)>;

  /// Per-table column selection for a monitor: table name -> monitored
  /// columns.  An empty column list monitors every column of that table; an
  /// empty map monitors every table.  Columns outside the selection are
  /// invisible to the monitor — their rows arrive projected, and a commit
  /// touching only unselected columns does not fire the callback at all
  /// (the OVSDB-improvements "on-demand fetch" split: monitor the cheap
  /// columns, Fetch the expensive ones when actually needed).
  using MonitorColumnSpec = std::map<std::string, std::vector<std::string>>;

  /// Registers a monitor on `tables` (empty = all tables).  The current
  /// contents are delivered immediately as an initial batch of inserts;
  /// thereafter the callback fires synchronously after every commit that
  /// touches a monitored table.  Returns a handle for RemoveMonitor.
  uint64_t AddMonitor(std::vector<std::string> tables, MonitorCallback cb);
  /// Column-scoped monitor registration (empty column list = all columns).
  /// Unknown tables/columns are ignored here; the server validates specs
  /// before registering.
  uint64_t AddMonitorColumns(MonitorColumnSpec spec, MonitorCallback cb);
  void RemoveMonitor(uint64_t id);

  /// On-demand read of specific columns: rows of `table` matching the JSON
  /// `where` clause array, projected onto `columns` (empty = all + _uuid).
  /// This is how clients fetch columns they deliberately do not monitor.
  Result<Json> FetchRows(std::string_view table, const Json& where_json,
                         const std::vector<std::string>& columns) const;

  /// Selects (reads and transaction `where` matching) answered through a
  /// unique-index probe or a direct _uuid lookup instead of a full table
  /// scan (monotone; for tests and benches).
  uint64_t indexed_selects() const { return indexed_selects_; }

  /// Number of committed transactions (monotone; useful for tests).
  uint64_t commit_count() const { return commit_count_; }

  /// Transactions rejected because their assert_fence epoch was older than
  /// the current Leader_Lease epoch (monotone; split-brain observability).
  uint64_t fence_rejections() const { return fence_rejections_; }

  // --- Commit hooks (durability integration, src/ha) ---

  /// Called after every successful commit with the transaction's operations
  /// in wire form, each insert pinning its generated uuid (replaying the
  /// JSON reproduces row identities).  This is the write-ahead-log hook:
  /// ha::DurableStore appends each record to its WAL through it.  Only a
  /// registered hook makes an in-process commit serialize its operations.
  using CommitHook = std::function<void(const Json& pinned_operations)>;

  uint64_t AddCommitHook(CommitHook hook);
  void RemoveCommitHook(uint64_t id);

 private:
  friend class TxnBuilder;

  struct IndexKeyHash {
    size_t operator()(const std::vector<Datum>& key) const {
      size_t hash = 0;
      for (const Datum& datum : key) hash = hash * 31 + datum.Hash();
      return hash;
    }
  };

  struct TableData {
    const TableSchema* schema = nullptr;
    std::unordered_map<Uuid, std::shared_ptr<const Row>> rows;
    // One map per schema index: index-column datums -> row uuid.
    std::vector<std::unordered_map<std::vector<Datum>, Uuid, IndexKeyHash>>
        index_maps;
  };

  struct Monitor {
    uint64_t id;
    MonitorColumnSpec spec;  // empty = all tables, all columns
    MonitorCallback callback;
  };

  /// Projects `updates` onto one monitor's selection, in `out`: rows shrink
  /// to the selected columns, and modifies of unselected ones vanish.  A
  /// monitor that sees all of `updates` gets `updates` itself, rows shared.
  const TableUpdates& FilterForMonitor(const Monitor& monitor,
                                       const TableUpdates& updates,
                                       TableUpdates& out) const;

  class Txn;  // transaction executor (database.cc)

  const TableData* FindTable(std::string_view name) const;

  /// Answers an all-"==" `where` through a direct _uuid lookup or a
  /// (compound) unique-index probe.  Returns nullopt when no clause set
  /// covers an index — callers fall back to the full scan.  The returned
  /// candidates (0 or 1 rows) are already validated against every clause.
  std::optional<std::vector<Uuid>> ProbeIndexes(
      const TableSchema& schema, const TableData& data,
      const std::vector<Clause>& where) const;

  DatabaseSchema schema_;
  std::map<std::string, TableData, std::less<>> tables_;
  bool has_refs_ = false;  // some column holds a row reference
  std::vector<std::shared_ptr<const Monitor>> monitors_;
  std::vector<std::pair<uint64_t, CommitHook>> commit_hooks_;
  uint64_t next_monitor_id_ = 1;
  uint64_t next_hook_id_ = 1;
  uint64_t commit_count_ = 0;
  uint64_t fence_rejections_ = 0;
  mutable uint64_t indexed_selects_ = 0;
};

/// Evaluates one clause against a row (exposed for tests).
Result<bool> EvalClause(const TableSchema& schema, const Row& row,
                        const Clause& clause);

/// Parses a wire-format row object ({column: datum-json}) into a Row.
/// Used by clients consuming monitor "update" notifications.
Result<Row> RowFromJson(const TableSchema& schema, const Uuid& uuid,
                        const Json& row_json);

/// Typed transaction builder: accumulates operations, then `Commit()` runs
/// them through the database's executor, with no JSON in between.  This
/// mirrors the client libraries real OVSDB users code against.
class TxnBuilder {
 public:
  explicit TxnBuilder(Database* db) : db_(db) {}

  /// Adds an insert; returns its named-uuid name.
  std::string Insert(std::string_view table, Row::Columns columns);
  void Update(std::string_view table, std::vector<Clause> where,
              Row::Columns columns);
  void Mutate(std::string_view table, std::vector<Clause> where,
              std::vector<std::tuple<std::string, std::string, Datum>> mutations);
  void Delete(std::string_view table, std::vector<Clause> where);

  /// Partial map-column updates (the OVSDB-improvements setkey/delkey
  /// idiom): ship only the touched key(s) instead of rewriting the whole
  /// map through "update".  SetKey inserts or overwrites one pair; DelKey
  /// removes one key (absent keys are a no-op).
  void MutateSetKey(std::string_view table, std::vector<Clause> where,
                    std::string_view column, Atom key, Atom value);
  void MutateDelKey(std::string_view table, std::vector<Clause> where,
                    std::string_view column, Atom key);

  /// Adds an assert_fence operation: the transaction commits only if `epoch`
  /// is at least the current Leader_Lease epoch (split-brain fencing).
  void AssertFence(int64_t epoch);

  /// Executes the accumulated operations atomically.  On success returns the
  /// UUIDs of inserted rows, in insert order.
  Result<std::vector<Uuid>> Commit();

 private:
  TxnOp& Add(TxnOp::Kind kind, std::string_view table,
             std::vector<Clause> where);

  Database* db_;
  std::vector<TxnOp> ops_;
  int insert_count_ = 0;
};

}  // namespace nerpa::ovsdb

#endif  // NERPA_OVSDB_DATABASE_H_
