#include "ovsdb/database.h"

#include <algorithm>
#include <limits>
#include <set>

#include "common/log.h"
#include "common/strings.h"

namespace nerpa::ovsdb {

namespace {

// Wire names of TxnOp::Kind, in enum order.
constexpr const char* kOpNames[] = {"insert", "select",  "update",
                                    "mutate", "delete",  "wait",
                                    "comment", "abort", "assert_fence"};

/// The type a clause on `column` compares against ("_uuid" is a uuid).
Result<const ColumnType*> ClauseType(const TableSchema& schema,
                                     const std::string& column) {
  static const ColumnType kUuidType = ColumnType::Scalar(BaseType::Ref(""));
  if (column == "_uuid") return &kUuidType;
  const ColumnSchema* cs = schema.FindColumn(column);
  if (cs == nullptr) {
    return NotFound(StrFormat("clause names unknown column '%s' in '%s'",
                              column.c_str(), schema.name.c_str()));
  }
  return &cs->type;
}

/// A column an insert (or, when `update`, an update) may write.
Result<const ColumnSchema*> WritableColumn(const TableSchema& schema,
                                           const std::string& name,
                                           bool update) {
  const ColumnSchema* column = schema.FindColumn(name);
  if (column == nullptr) {
    return NotFound(StrFormat("unknown column '%s' in table '%s'",
                              name.c_str(), schema.name.c_str()));
  }
  if (update && !column->mutable_) {
    return ConstraintError("column '" + name + "' is immutable");
  }
  return column;
}

/// A wire row object's columns; `update` admits only mutable ones.
Result<Row::Columns> ColumnsFromJson(
    const TableSchema& schema, const Json& row_json,
    const std::map<std::string, Uuid>* named_uuids, bool update) {
  if (!row_json.is_object()) return ParseError("row must be an object");
  Row::Columns out;
  for (const auto& [column_name, value_json] : row_json.as_object()) {
    NERPA_ASSIGN_OR_RETURN(const ColumnSchema* column,
                           WritableColumn(schema, column_name, update));
    NERPA_ASSIGN_OR_RETURN(
        Datum datum, Datum::FromJson(value_json, column->type, named_uuids));
    out.emplace(column_name, std::move(datum));
  }
  return out;
}

Result<Clause> ClauseFromJson(const TableSchema& schema, const Json& json) {
  if (!json.is_array() || json.as_array().size() != 3 ||
      !json.as_array()[0].is_string() || !json.as_array()[1].is_string()) {
    return ParseError("clause must be [column, function, value]");
  }
  Clause clause;
  clause.column = json.as_array()[0].as_string();
  clause.function = json.as_array()[1].as_string();
  NERPA_ASSIGN_OR_RETURN(const ColumnType* type,
                         ClauseType(schema, clause.column));
  NERPA_ASSIGN_OR_RETURN(clause.value,
                         Datum::FromJson(json.as_array()[2], *type));
  return clause;
}

/// A row's column value, falling back to the schema default (built in
/// `storage`, as is the "_uuid" pseudo-column).
const Datum& ColumnOf(const TableSchema& schema, const Row& row,
                      std::string_view column, Datum& storage) {
  if (column == "_uuid") return storage = Datum::UuidRef(row.uuid);
  if (const Datum* datum = row.Find(column)) return *datum;
  const ColumnSchema* cs = schema.FindColumn(column);
  return storage = cs != nullptr ? Datum::Default(cs->type) : Datum();
}

bool SameKey(const TableSchema& schema, const Row& a, const Row& b,
             const std::vector<std::string>& columns) {
  Datum x, y;
  return std::all_of(columns.begin(), columns.end(), [&](const auto& c) {
    return ColumnOf(schema, a, c, x) == ColumnOf(schema, b, c, y);
  });
}

std::vector<Datum> IndexKey(const TableSchema& schema, const Row& row,
                            const std::vector<std::string>& columns) {
  std::vector<Datum> key;
  key.reserve(columns.size());
  Datum storage;
  for (const std::string& column : columns) {
    key.push_back(ColumnOf(schema, row, column, storage));
  }
  return key;
}

/// {"rows": [...]}: `rows` projected onto `columns`.
Json RowsJson(const TableSchema& schema, const std::vector<const Row*>& rows,
              const std::vector<std::string>& columns) {
  Json::Array out;
  Datum storage;
  for (const Row* row : rows) {
    Json::Object row_json;
    for (const std::string& column : columns) {
      row_json[column] = ColumnOf(schema, *row, column, storage).ToJson();
    }
    out.push_back(Json(std::move(row_json)));
  }
  return Json(Json::Object{{"rows", Json(std::move(out))}});
}

/// Shrinks a row to the named columns (for column-scoped monitors).
std::shared_ptr<const Row> ProjectRow(const Row& row,
                                      const std::vector<std::string>& columns) {
  auto out = std::make_shared<Row>();
  out->uuid = row.uuid;
  for (const std::string& column : columns) {
    if (const Datum* datum = row.Find(column)) {
      out->columns.emplace(column, *datum);
    }
  }
  return out;
}

/// A mutator's operand type: a set of the column's keys (`keys`), or the
/// column's type with any number of elements.
ColumnType OperandType(const ColumnType& column, bool keys) {
  if (keys) return ColumnType::Set(column.key, 0, kUnlimited);
  ColumnType loose = column;
  loose.min = 0;
  loose.max = kUnlimited;
  return loose;
}

/// "delkey", and "delete" from a map, read the operand as keys first.
bool KeysFirst(const std::string& mutator, const ColumnType& column) {
  return mutator == "delkey" || (mutator == "delete" && column.is_map());
}

bool IsSetMutator(const std::string& mutator) {
  return mutator == "insert" || mutator == "delete" || mutator == "setkey" ||
         mutator == "delkey";
}

/// Integer `x <mutator> y` for a nonzero divisor; nullopt when the result
/// does not fit in 64 bits (INT64_MIN / -1 and INT64_MIN % -1 included).
std::optional<int64_t> IntegerArithmetic(const std::string& mutator,
                                         int64_t x, int64_t y) {
  int64_t out = 0;
  if (mutator == "+=" ? __builtin_add_overflow(x, y, &out)
      : mutator == "-=" ? __builtin_sub_overflow(x, y, &out)
      : mutator == "*=" ? __builtin_mul_overflow(x, y, &out)
      : x == std::numeric_limits<int64_t>::min() && y == -1) {
    return std::nullopt;
  }
  if (mutator == "/=") out = x / y;
  if (mutator == "%=") out = x % y;
  return out;
}

/// Rewrites `operations`, pinning each insert's generated uuid (taken from
/// the corresponding result) so replaying them reproduces identities.
Json PinInsertUuids(const Json& operations, const Json& results) {
  Json::Array pinned;
  const Json::Array& ops = operations.as_array();
  const Json::Array& res = results.as_array();
  for (size_t i = 0; i < ops.size(); ++i) {
    Json op = ops[i];
    if (const Json* kind = op.Find("op");
        kind != nullptr && kind->is_string() && kind->as_string() == "insert" &&
        i < res.size()) {
      if (const Json* uuid = res[i].Find("uuid");
          uuid != nullptr && uuid->is_array()) {
        op.as_object()["uuid"] = uuid->as_array()[1];
      }
    }
    pinned.push_back(std::move(op));
  }
  return Json(std::move(pinned));
}

/// The WAL record of TxnBuilder operations: their wire form, each insert
/// pinned to its uuid.
Json WireRecord(const std::vector<TxnOp>& ops) {
  Json::Array out;
  for (const TxnOp& op : ops) {
    Json::Object json{{"op", Json(kOpNames[static_cast<int>(op.kind)])}};
    if (op.kind == TxnOp::Kind::kAssertFence) {
      json["epoch"] = Json(op.epoch);
    } else {
      json["table"] = Json(op.table);
    }
    if (op.kind == TxnOp::Kind::kInsert) {
      json["uuid-name"] = Json(op.uuid_name);
      json["uuid"] = Json(op.uuid->ToString());
    } else if (op.kind != TxnOp::Kind::kAssertFence) {
      Json::Array where;
      for (const Clause& clause : op.where) {
        where.push_back(Json(Json::Array{Json(clause.column),
                                         Json(clause.function),
                                         clause.value.ToJson()}));
      }
      json["where"] = Json(std::move(where));
    }
    if (op.kind == TxnOp::Kind::kInsert || op.kind == TxnOp::Kind::kUpdate) {
      Json::Object row;
      for (const auto& [column, datum] : op.row) row[column] = datum.ToJson();
      json["row"] = Json(std::move(row));
    }
    if (op.kind == TxnOp::Kind::kMutate) {
      Json::Array mutations;
      for (const Mutation& m : op.mutations) {
        mutations.push_back(Json(Json::Array{Json(m.column), Json(m.mutator),
                                             m.value.ToJson()}));
      }
      json["mutations"] = Json(std::move(mutations));
    }
    out.push_back(Json(std::move(json)));
  }
  return Json(std::move(out));
}

}  // namespace

Result<bool> EvalClause(const TableSchema& schema, const Row& row,
                        const Clause& clause) {
  Datum storage;
  const Datum& actual = ColumnOf(schema, row, clause.column, storage);
  const std::string& fn = clause.function;
  if (fn == "==") return actual == clause.value;
  if (fn == "!=") return actual != clause.value;
  if (fn == "includes") {
    for (const Atom& key : clause.value.keys()) {
      if (!actual.ContainsKey(key)) return false;
    }
    return true;
  }
  if (fn == "excludes") {
    for (const Atom& key : clause.value.keys()) {
      if (actual.ContainsKey(key)) return false;
    }
    return true;
  }
  if (fn == "<" || fn == "<=" || fn == ">" || fn == ">=") {
    if (actual.size() != 1 || clause.value.size() != 1) {
      return InvalidArgument("ordered comparison requires scalars");
    }
    const Atom& a = actual.scalar();
    const Atom& b = clause.value.scalar();
    if (a.type() != b.type() ||
        (a.type() != AtomicType::kInteger && a.type() != AtomicType::kReal)) {
      return InvalidArgument("ordered comparison requires numeric atoms");
    }
    double x = a.type() == AtomicType::kInteger
                   ? static_cast<double>(a.integer()) : a.real();
    double y = b.type() == AtomicType::kInteger
                   ? static_cast<double>(b.integer()) : b.real();
    if (fn == "<") return x < y;
    if (fn == "<=") return x <= y;
    if (fn == ">") return x > y;
    return x >= y;
  }
  return InvalidArgument("unknown clause function '" + fn + "'");
}

Result<Row> RowFromJson(const TableSchema& schema, const Uuid& uuid,
                        const Json& row_json) {
  Row row;
  row.uuid = uuid;
  NERPA_ASSIGN_OR_RETURN(row.columns,
                         ColumnsFromJson(schema, row_json, nullptr, false));
  return row;
}

TableSchema LeaderLeaseTableSchema() {
  TableSchema table;
  table.name = kLeaderLeaseTable;
  table.columns = {
      {kLeaseEpochColumn, ColumnType::Scalar(BaseType::Integer(0)), false,
       true},
      {kLeaseHolderColumn, ColumnType::Scalar(BaseType::String()), false,
       true},
      {kLeaseExpiryColumn, ColumnType::Scalar(BaseType::Integer()), false,
       true},
  };
  table.is_root = true;
  table.max_rows = 1;  // the singleton invariant the CAS protocol relies on
  return table;
}

DatabaseSchema WithLeaderLease(DatabaseSchema schema) {
  schema.tables.insert({kLeaderLeaseTable, LeaderLeaseTableSchema()});
  return schema;
}

Database::Database(DatabaseSchema schema) : schema_(std::move(schema)) {
  for (const auto& [name, table_schema] : schema_.tables) {
    TableData& data = tables_[name];
    data.schema = &table_schema;
    data.index_maps.resize(table_schema.indexes.size());
    for (const ColumnSchema& column : table_schema.columns) {
      has_refs_ = has_refs_ || !column.type.key.ref_table.empty() ||
                  (column.type.value && !column.type.value->ref_table.empty());
    }
  }
}

const Database::TableData* Database::FindTable(std::string_view name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const Row* Database::GetRow(std::string_view table, const Uuid& uuid) const {
  const TableData* data = FindTable(table);
  if (data == nullptr) return nullptr;
  auto it = data->rows.find(uuid);
  return it == data->rows.end() ? nullptr : it->second.get();
}

std::vector<const Row*> Database::GetRows(std::string_view table) const {
  std::vector<const Row*> out;
  const TableData* data = FindTable(table);
  if (data == nullptr) return out;
  out.reserve(data->rows.size());
  for (const auto& [uuid, row] : data->rows) out.push_back(row.get());
  return out;
}

size_t Database::RowCount(std::string_view table) const {
  const TableData* data = FindTable(table);
  return data == nullptr ? 0 : data->rows.size();
}

std::optional<std::vector<Uuid>> Database::ProbeIndexes(
    const TableSchema& schema, const TableData& data,
    const std::vector<Clause>& where) const {
  if (where.empty()) return std::nullopt;
  // Probes only apply to pure-equality queries: "==" can neither error nor
  // match more rows than the index key, so the verification step below is
  // exact.
  for (const Clause& clause : where) {
    if (clause.function != "==") return std::nullopt;
  }
  // Any remaining clauses (beyond the ones the index consumed) still have to
  // hold on the candidate row.
  auto verify = [&](const Uuid& uuid) -> std::vector<Uuid> {
    auto it = data.rows.find(uuid);
    if (it == data.rows.end()) return {};
    for (const Clause& clause : where) {
      Result<bool> match = EvalClause(schema, *it->second, clause);
      if (!match.ok() || !*match) return {};
    }
    return {uuid};
  };
  // _uuid equality: direct hash lookup.
  for (const Clause& clause : where) {
    if (clause.column != "_uuid") continue;
    if (clause.value.size() != 1 ||
        clause.value.scalar().type() != AtomicType::kUuid) {
      return std::nullopt;
    }
    ++indexed_selects_;
    return verify(clause.value.scalar().uuid());
  }
  // A (compound) unique index every column of which is pinned by a clause.
  for (size_t i = 0; i < schema.indexes.size(); ++i) {
    std::vector<Datum> key;
    for (const std::string& column : schema.indexes[i]) {
      auto pin = std::find_if(where.begin(), where.end(), [&](const Clause& c) {
        return c.column == column;
      });
      if (pin == where.end()) break;
      key.push_back(pin->value);
    }
    if (key.size() != schema.indexes[i].size()) continue;
    ++indexed_selects_;
    auto it = data.index_maps[i].find(key);
    if (it == data.index_maps[i].end()) return std::vector<Uuid>{};
    return verify(it->second);
  }
  return std::nullopt;
}

Result<std::vector<const Row*>> Database::SelectRows(
    std::string_view table, const std::vector<Clause>& where) const {
  const TableData* data = FindTable(table);
  if (data == nullptr) return NotFound("no table '" + std::string(table) + "'");
  const TableSchema& schema = *data->schema;
  std::vector<const Row*> out;
  if (auto probed = ProbeIndexes(schema, *data, where)) {
    for (const Uuid& uuid : *probed) out.push_back(data->rows.at(uuid).get());
    return out;
  }
  for (const auto& [uuid, row] : data->rows) {
    bool all = true;
    for (const Clause& clause : where) {
      NERPA_ASSIGN_OR_RETURN(bool match, EvalClause(schema, *row, clause));
      if (!match) {
        all = false;
        break;
      }
    }
    if (all) out.push_back(row.get());
  }
  return out;
}

uint64_t Database::AddMonitor(std::vector<std::string> tables,
                              MonitorCallback cb) {
  MonitorColumnSpec spec;
  for (std::string& table : tables) spec[std::move(table)];  // all columns
  return AddMonitorColumns(std::move(spec), std::move(cb));
}

uint64_t Database::AddMonitorColumns(MonitorColumnSpec spec,
                                     MonitorCallback cb) {
  auto monitor = std::make_shared<const Monitor>(
      Monitor{next_monitor_id_++, std::move(spec), std::move(cb)});
  // Initial state: every current row as an insert, projected to the spec.
  TableUpdates initial;
  for (const auto& [name, data] : tables_) {
    if (!monitor->spec.empty() && monitor->spec.count(name) == 0) continue;
    for (const auto& [uuid, row] : data.rows) {
      initial[name][uuid] = RowUpdate{nullptr, row};
    }
  }
  TableUpdates scratch;
  const TableUpdates& seen = FilterForMonitor(*monitor, initial, scratch);
  monitors_.push_back(monitor);
  if (!seen.empty()) monitor->callback(seen);
  return monitor->id;
}

const TableUpdates& Database::FilterForMonitor(const Monitor& monitor,
                                               const TableUpdates& updates,
                                               TableUpdates& out) const {
  auto all_columns = [&](const auto& table) {
    auto it = monitor.spec.find(table.first);
    return it != monitor.spec.end() && it->second.empty();
  };
  if (monitor.spec.empty() ||
      std::all_of(updates.begin(), updates.end(), all_columns)) {
    return updates;
  }
  for (const auto& [table, columns] : monitor.spec) {
    auto it = updates.find(table);
    if (it == updates.end()) continue;
    if (columns.empty()) {
      out.insert(*it);
      continue;
    }
    TableUpdate projected_rows;
    for (const auto& [uuid, update] : it->second) {
      RowUpdate projected;
      if (update.old_row) {
        projected.old_row = ProjectRow(*update.old_row, columns);
      }
      if (update.new_row) {
        projected.new_row = ProjectRow(*update.new_row, columns);
      }
      // A modify that only touched unselected columns is invisible.
      if (projected.is_modify() && *projected.old_row == *projected.new_row) {
        continue;
      }
      projected_rows.emplace(uuid, std::move(projected));
    }
    if (!projected_rows.empty()) {
      out.emplace(table, std::move(projected_rows));
    }
  }
  return out;
}

Result<Json> Database::FetchRows(std::string_view table, const Json& where_json,
                                 const std::vector<std::string>& columns) const {
  const TableSchema* schema = schema_.FindTable(table);
  if (schema == nullptr) {
    return NotFound("no table '" + std::string(table) + "'");
  }
  if (!where_json.is_array()) return ParseError("'where' must be an array");
  std::vector<Clause> where;
  for (const Json& clause_json : where_json.as_array()) {
    NERPA_ASSIGN_OR_RETURN(Clause clause, ClauseFromJson(*schema, clause_json));
    where.push_back(std::move(clause));
  }
  std::vector<std::string> projected = columns;
  if (projected.empty()) {
    projected.emplace_back("_uuid");
    for (const ColumnSchema& c : schema->columns) projected.push_back(c.name);
  } else {
    for (const std::string& column : projected) {
      if (column != "_uuid" && schema->FindColumn(column) == nullptr) {
        return NotFound(StrFormat("unknown column '%s' in table '%s'",
                                  column.c_str(), schema->name.c_str()));
      }
    }
  }
  NERPA_ASSIGN_OR_RETURN(std::vector<const Row*> rows,
                         SelectRows(table, where));
  // Deterministic row order keeps responses reproducible (and cacheable).
  std::sort(rows.begin(), rows.end(),
            [](const Row* a, const Row* b) { return a->uuid < b->uuid; });
  return RowsJson(*schema, rows, projected);
}

void Database::RemoveMonitor(uint64_t id) {
  std::erase_if(monitors_,
                [id](const auto& monitor) { return monitor->id == id; });
}

// ---------------------------------------------------------------------------
// Transaction executor: typed operations over shared, immutable rows.
// ---------------------------------------------------------------------------

class Database::Txn {
 public:
  explicit Txn(Database* db) : db_(db) {}

  /// Runs one operation against in-transaction state.  Returns the uuid an
  /// insert created, or the rows a select, update, mutate or delete matched.
  Result<std::vector<Uuid>> Run(TxnOp& op) {
    if (op.kind == TxnOp::Kind::kAbort) return FailedPrecondition("aborted");
    if (op.kind == TxnOp::Kind::kAssertFence) return AssertFence(op.epoch);
    if (op.kind == TxnOp::Kind::kComment) return std::vector<Uuid>{};
    auto found = db_->tables_.find(op.table);
    if (found == db_->tables_.end()) {
      return NotFound("no table '" + op.table + "'");
    }
    TableData* data = &found->second;
    const TableSchema& schema = *data->schema;
    for (Clause& clause : op.where) {
      NERPA_ASSIGN_OR_RETURN(const ColumnType* type,
                             ClauseType(schema, clause.column));
      NERPA_RETURN_IF_ERROR(clause.value.CoerceTo(*type));
    }
    for (auto& [name, datum] : op.row) {  // insert, update
      NERPA_ASSIGN_OR_RETURN(
          const ColumnSchema* column,
          WritableColumn(schema, name, op.kind == TxnOp::Kind::kUpdate));
      NERPA_RETURN_IF_ERROR(datum.CoerceTo(column->type));
    }
    if (op.kind == TxnOp::Kind::kInsert) return Insert(*data, op);
    // In-transaction index maps are kept current by PutRow, so matching
    // takes the same index probe as a read.
    NERPA_ASSIGN_OR_RETURN(std::vector<const Row*> rows,
                           db_->SelectRows(op.table, op.where));
    // Uuid order keeps results and monitor deltas reproducible.
    std::sort(rows.begin(), rows.end(),
              [](const Row* a, const Row* b) { return a->uuid < b->uuid; });
    if (op.kind == TxnOp::Kind::kWait) {
      NERPA_RETURN_IF_ERROR(op.error);
      // Compare multisets of projected rows.
      std::multiset<std::vector<Datum>> actual, expected(op.rows.begin(),
                                                         op.rows.end());
      Datum storage;
      for (const Row* row : rows) {
        std::vector<Datum> projected;
        for (const std::string& column : op.columns) {
          projected.push_back(ColumnOf(schema, *row, column, storage));
        }
        actual.insert(std::move(projected));
      }
      if ((actual == expected) != op.until_equal) {
        return FailedPrecondition("wait condition not met (timed out)");
      }
      return std::vector<Uuid>{};
    }
    std::vector<Uuid> uuids;
    for (const Row* match : rows) {  // valid until its own PutRow
      uuids.push_back(match->uuid);
      if (op.kind == TxnOp::Kind::kSelect) continue;
      if (op.kind == TxnOp::Kind::kDelete) {
        NERPA_RETURN_IF_ERROR(PutRow(*data, uuids.back(), nullptr));
        continue;
      }
      // The row's new version, built once and shared from then on.
      auto row = std::make_shared<Row>(*match);
      for (const auto& [column, datum] : op.row) row->columns[column] = datum;
      for (Mutation& mutation : op.mutations) {
        NERPA_RETURN_IF_ERROR(ApplyMutation(schema, *row, mutation));
      }
      NERPA_RETURN_IF_ERROR(PutRow(*data, uuids.back(), std::move(row)));
    }
    return uuids;
  }

  /// Enforces references and garbage collection, then commits and notifies
  /// monitors; on a violation rolls everything back instead.
  Status Commit() {
    Status constraints = EnforceConstraints();
    if (!constraints.ok()) {
      Rollback();
      return constraints;
    }
    CommitNotify();
    return Status::Ok();
  }

  void Rollback() {
    // The indexes always match the rows, so unindexing every current
    // version and then reindexing every old one restores them exactly.
    for (const auto& [key, undo] : undo_) {
      auto it = undo.data->rows.find(key.second);
      if (it != undo.data->rows.end()) Reindex(*undo.data, *it->second, false);
    }
    for (auto& [key, undo] : undo_) {
      if (undo.old) {
        Reindex(*undo.data, *undo.old, true);
        undo.data->rows[key.second] = std::move(undo.old);
      } else {
        undo.data->rows.erase(key.second);
      }
    }
    undo_.clear();
  }

  // --- Wire form ---

  /// Pre-scans for named uuids so forward references resolve (RFC 7047
  /// allows an op to reference a row inserted by a later op).
  Status NameUuids(const Json& operations) {
    for (const Json& op : operations.as_array()) {
      const Json* name = op.Find("uuid-name");
      if (name == nullptr || !name->is_string()) continue;
      if (named_uuids_.count(name->as_string()) != 0) {
        return InvalidArgument("duplicate uuid-name '" + name->as_string() +
                               "'");
      }
      // WAL replay pins row identities via an explicit "uuid" member.
      Uuid uuid = Uuid::Generate();
      if (const Json* forced = op.Find("uuid");
          forced != nullptr && forced->is_string()) {
        auto parsed = Uuid::Parse(forced->as_string());
        if (!parsed) return InvalidArgument("malformed forced uuid");
        uuid = *parsed;
      }
      named_uuids_[name->as_string()] = uuid;
    }
    return Status::Ok();
  }

  /// Parses one wire operation and runs it; returns its wire result.
  Result<Json> RunWire(const Json& json) {
    NERPA_ASSIGN_OR_RETURN(TxnOp op, Parse(json));
    NERPA_ASSIGN_OR_RETURN(std::vector<Uuid> uuids, Run(op));
    switch (op.kind) {
      case TxnOp::Kind::kInsert:
        return Json(Json::Object{{"uuid", Atom(uuids.front()).ToJson()}});
      case TxnOp::Kind::kSelect: {
        const TableData& data = *db_->FindTable(op.table);
        std::vector<const Row*> rows;
        for (const Uuid& uuid : uuids) rows.push_back(data.rows.at(uuid).get());
        return RowsJson(*data.schema, rows, op.columns);
      }
      case TxnOp::Kind::kUpdate:
      case TxnOp::Kind::kMutate:
      case TxnOp::Kind::kDelete:
        return Json(Json::Object{
            {"count", Json(static_cast<int64_t>(uuids.size()))}});
      default:
        return Json(Json::Object{});
    }
  }

 private:
  struct Undo {
    TableData* data;
    std::shared_ptr<const Row> old;  // nullptr: the row did not exist
  };

  /// Parses a wire operation, checking fields in the order the executor
  /// reads them.  Errors that surface only once rows match (a mutation or
  /// a wait row that does not parse) travel in the op.
  Result<TxnOp> Parse(const Json& json) {
    const Json* name = json.Find("op");
    if (name == nullptr || !name->is_string()) {
      return ParseError("operation missing 'op'");
    }
    auto kind = std::find(std::begin(kOpNames), std::end(kOpNames),
                          name->as_string());
    if (kind == std::end(kOpNames)) {
      return InvalidArgument("unknown operation '" + name->as_string() + "'");
    }
    TxnOp op;
    op.kind = static_cast<TxnOp::Kind>(kind - std::begin(kOpNames));
    if (op.kind == TxnOp::Kind::kComment || op.kind == TxnOp::Kind::kAbort) {
      return op;
    }
    if (op.kind == TxnOp::Kind::kAssertFence) {
      const Json* epoch = json.Find("epoch");
      if (epoch == nullptr || !epoch->is_integer()) {
        return ParseError("assert_fence needs integer 'epoch'");
      }
      op.epoch = epoch->as_integer();
      return op;
    }
    const Json* table = json.Find("table");
    if (table == nullptr || !table->is_string()) {
      return ParseError("operation missing 'table'");
    }
    op.table = table->as_string();
    const TableSchema* schema = db_->schema_.FindTable(op.table);
    if (schema == nullptr) return NotFound("no table '" + op.table + "'");
    if (op.kind == TxnOp::Kind::kInsert) {
      NERPA_ASSIGN_OR_RETURN(op.row, ParseRow(*schema, json, false));
      const Json* uuid_name = json.Find("uuid-name");
      const Json* forced = json.Find("uuid");
      if (uuid_name != nullptr && uuid_name->is_string()) {
        op.uuid = named_uuids_.at(uuid_name->as_string());
      } else if (forced != nullptr && forced->is_string()) {
        op.uuid = Uuid::Parse(forced->as_string());
        if (!op.uuid) return InvalidArgument("malformed forced uuid");
      }
      return op;
    }
    const Json* where = json.Find("where");
    if (where == nullptr) return ParseError("operation missing 'where'");
    if (!where->is_array()) return ParseError("'where' must be an array");
    for (const Json& clause_json : where->as_array()) {
      NERPA_ASSIGN_OR_RETURN(Clause clause,
                             ClauseFromJson(*schema, clause_json));
      op.where.push_back(std::move(clause));
    }
    if (op.kind == TxnOp::Kind::kUpdate) {
      NERPA_ASSIGN_OR_RETURN(op.row, ParseRow(*schema, json, true));
    } else if (op.kind == TxnOp::Kind::kMutate) {
      const Json* mutations = json.Find("mutations");
      if (mutations == nullptr || !mutations->is_array()) {
        return ParseError("mutate missing 'mutations'");
      }
      for (const Json& mutation : mutations->as_array()) {
        op.mutations.push_back(ParseMutation(*schema, mutation));
      }
    } else if (op.kind == TxnOp::Kind::kWait) {
      const Json* until = json.Find("until");
      const Json* rows = json.Find("rows");
      if (until == nullptr || !until->is_string() || rows == nullptr ||
          !rows->is_array()) {
        return ParseError("wait needs 'until' and 'rows'");
      }
      op.until_equal = until->as_string() == "==";
    }
    if (op.kind == TxnOp::Kind::kSelect || op.kind == TxnOp::Kind::kWait) {
      // The projection; by default every column, and a select's _uuid.
      if (const Json* cols = json.Find("columns"); cols && cols->is_array()) {
        for (const Json& c : cols->as_array()) {
          if (!c.is_string()) return ParseError("'columns' must hold strings");
          op.columns.push_back(c.as_string());
        }
      } else {
        if (op.kind == TxnOp::Kind::kSelect) op.columns.emplace_back("_uuid");
        for (const ColumnSchema& c : schema->columns) {
          op.columns.push_back(c.name);
        }
      }
    }
    if (op.kind == TxnOp::Kind::kWait) {
      op.error = ParseWaitRows(*schema, *json.Find("rows"), op);
    }
    return op;
  }

  /// The "row" member of an insert or update.
  Result<Row::Columns> ParseRow(const TableSchema& schema, const Json& op,
                                bool update) {
    const Json* row = op.Find("row");
    if (row == nullptr || !row->is_object()) {
      return ParseError("operation missing 'row' object");
    }
    return ColumnsFromJson(schema, *row, &named_uuids_, update);
  }

  Status ParseWaitRows(const TableSchema& schema, const Json& rows,
                       TxnOp& op) {
    for (const Json& row_json : rows.as_array()) {
      if (!row_json.is_object()) return ParseError("wait row must be object");
      std::vector<Datum>& projected = op.rows.emplace_back();
      for (const std::string& column : op.columns) {
        const ColumnSchema* cs = schema.FindColumn(column);
        if (cs == nullptr) return NotFound("wait names unknown column");
        const Json* cell = row_json.Find(column);
        Result<Datum> datum =
            cell == nullptr ? Datum::Default(cs->type)
                            : Datum::FromJson(*cell, cs->type, &named_uuids_);
        if (!datum.ok()) return datum.status();
        projected.push_back(std::move(datum).value());
      }
    }
    return Status::Ok();
  }

  /// A wire mutation.  Its operand is read with the column's type when the
  /// column exists; ApplyMutation reports any error where the operand is
  /// first needed.
  Mutation ParseMutation(const TableSchema& schema, const Json& json) {
    Mutation m;
    if (!json.is_array() || json.as_array().size() != 3 ||
        !json.as_array()[0].is_string() || !json.as_array()[1].is_string()) {
      m.error = ParseError("mutation must be [column, mutator, value]");
      return m;
    }
    m.column = json.as_array()[0].as_string();
    m.mutator = json.as_array()[1].as_string();
    const Json& value = json.as_array()[2];
    const ColumnSchema* column = schema.FindColumn(m.column);
    if (column == nullptr) return m;
    if (!IsSetMutator(m.mutator)) {  // arithmetic: a number, else nothing
      if (value.is_integer()) m.value = Datum::Integer(value.as_integer());
      if (value.is_double()) m.value = Datum::Real(value.as_double());
      return m;
    }
    const bool keys_first = KeysFirst(m.mutator, column->type);
    Result<Datum> operand = Datum::FromJson(
        value, OperandType(column->type, keys_first), &named_uuids_);
    if (!operand.ok() && keys_first && m.mutator != "delkey") {
      operand = Datum::FromJson(value, OperandType(column->type, false),
                                &named_uuids_);
    }
    if (!operand.ok()) return {m.column, m.mutator, {}, operand.status()};
    m.value = std::move(operand).value();
    return m;
  }

  // --- Operations ---

  /// Split-brain fencing: the op's epoch must be at least the epoch in the
  /// Leader_Lease singleton, read at in-transaction state (so an acquire
  /// that bumps the epoch earlier in the same transaction is visible).  An
  /// absent row fences nothing — no leader has ever been elected.
  Result<std::vector<Uuid>> AssertFence(int64_t token) {
    const TableData* data = db_->FindTable(kLeaderLeaseTable);
    if (data == nullptr) {
      return InvalidArgument("assert_fence on a database without a '" +
                             std::string(kLeaderLeaseTable) + "' table");
    }
    for (const auto& [uuid, row] : data->rows) {
      const Datum* current = row->Find(kLeaseEpochColumn);
      const int64_t lease_epoch =
          current != nullptr && !current->empty() ? current->AsInteger() : 0;
      if (token < lease_epoch) {
        ++db_->fence_rejections_;
        return PermissionDenied(
            StrFormat("stale fencing token: epoch %lld < lease epoch %lld",
                      static_cast<long long>(token),
                      static_cast<long long>(lease_epoch)));
      }
    }
    return std::vector<Uuid>{};
  }

  Result<std::vector<Uuid>> Insert(TableData& data, TxnOp& op) {
    const TableSchema& schema = *data.schema;
    auto row = std::make_shared<Row>();
    row->uuid = op.uuid ? *op.uuid : Uuid::Generate();
    if (data.rows.count(row->uuid) != 0) {
      return AlreadyExists("row uuid already present in table '" +
                           schema.name + "'");
    }
    row->columns = std::move(op.row);
    // Fill unspecified columns with defaults so min-cardinality passes.
    for (const ColumnSchema& column : schema.columns) {
      if (!row->columns.contains(column.name)) {
        row->columns.emplace(column.name, Datum::Default(column.type));
      }
    }
    if (data.rows.size() >= schema.max_rows) {
      return ConstraintError("table '" + schema.name + "' is full");
    }
    const Uuid uuid = row->uuid;
    NERPA_RETURN_IF_ERROR(PutRow(data, uuid, std::move(row)));
    return std::vector<Uuid>{uuid};
  }

  /// Applies one mutation to `row`, a new version not yet installed.
  Status ApplyMutation(const TableSchema& schema, Row& row, Mutation& m) {
    const ColumnSchema* column = schema.FindColumn(m.column);
    if (column == nullptr) {  // a malformed wire mutation names no column
      return m.error.ok() ? NotFound("mutation names unknown column '" +
                                     m.column + "'")
                          : m.error;
    }
    if (!column->mutable_) {
      return ConstraintError("column '" + m.column + "' is immutable");
    }
    const std::string& mutator = m.mutator;
    auto slot = row.columns.find(m.column);
    if (slot == row.columns.end()) {
      slot = row.columns.emplace(m.column, Datum::Default(column->type)).first;
    }
    Datum& current = slot->second;

    if (IsSetMutator(mutator)) {
      // Partial map updates (the OVSDB-improvements fast path) ship only
      // the touched key(s): setkey inserts or overwrites, delkey removes
      // (absent keys are a no-op), and insert never overwrites a map key.
      if ((mutator == "setkey" || mutator == "delkey") &&
          !column->type.is_map()) {
        return TypeError("'" + mutator + "' requires a map column");
      }
      NERPA_RETURN_IF_ERROR(m.error);
      const bool keys_first = KeysFirst(mutator, column->type);
      Status typed = m.value.CoerceTo(OperandType(column->type, keys_first));
      if (!typed.ok() && keys_first && mutator != "delkey") {
        typed = m.value.CoerceTo(OperandType(column->type, false));
      }
      NERPA_RETURN_IF_ERROR(typed);
      const Datum& delta = m.value;
      for (size_t i = 0; i < delta.size(); ++i) {
        const Atom& key = delta.keys()[i];
        if (mutator == "delete" || mutator == "delkey") {
          current.EraseKey(key);
        } else if (!delta.is_map()) {
          current.InsertKey(key);
        } else if (mutator == "setkey" || !current.ContainsKey(key)) {
          current.InsertPair(key, delta.values()[i]);
        }
      }
      return Status::Ok();
    }

    // Arithmetic mutators on integer/real scalars.
    if (current.size() != 1) {
      return InvalidArgument("arithmetic mutation requires a scalar");
    }
    const Atom& atom = current.scalar();
    const bool integer = atom.type() == AtomicType::kInteger;
    if (!integer && atom.type() != AtomicType::kReal) {
      return TypeError("arithmetic mutation on non-numeric column");
    }
    const AtomicType operand =
        m.value.size() == 1 && !m.value.is_map() ? m.value.scalar().type()
                                                 : AtomicType::kString;
    if (integer && operand != AtomicType::kInteger) {
      return TypeError("integer mutation needs integer operand");
    }
    if (operand != AtomicType::kInteger && operand != AtomicType::kReal) {
      return TypeError("real mutation needs numeric operand");
    }
    const double y = operand == AtomicType::kReal
                         ? m.value.AsReal()
                         : static_cast<double>(m.value.AsInteger());
    if ((mutator == "/=" || (integer && mutator == "%=")) && y == 0) {
      return InvalidArgument("division by zero in mutation");
    }
    if (mutator != "+=" && mutator != "-=" && mutator != "*=" &&
        mutator != "/=" && (!integer || mutator != "%=")) {
      return InvalidArgument("unknown mutator '" + mutator + "'");
    }
    if (integer) {
      std::optional<int64_t> x =
          IntegerArithmetic(mutator, atom.integer(), m.value.AsInteger());
      if (!x) return InvalidArgument("integer overflow in mutation");
      current = Datum::Integer(*x);
    } else {
      const double x = atom.real();
      current = Datum::Real(mutator == "+=" ? x + y
                            : mutator == "-=" ? x - y
                            : mutator == "*=" ? x * y : x / y);
    }
    return Status::Ok();
  }

  // --- State mutation with undo tracking ---

  /// Installs (or deletes, when null) a row version, validating column
  /// types and unique indexes, and recording undo state on first touch.
  Status PutRow(TableData& data, const Uuid& uuid,
                std::shared_ptr<const Row> row) {
    const TableSchema& schema = *data.schema;
    auto it = data.rows.find(uuid);
    std::shared_ptr<const Row> old =
        it == data.rows.end() ? nullptr : it->second;
    if (!old && !row) return Status::Ok();

    if (row) {
      for (const auto& [column_name, datum] : row->columns) {
        const ColumnSchema* column = schema.FindColumn(column_name);
        if (column == nullptr) {
          return NotFound("unknown column '" + column_name + "'");
        }
        Status check = datum.CheckType(column->type);
        if (!check.ok()) {
          return Status(check.code(),
                        StrFormat("%s.%s: %s", schema.name.c_str(),
                                  column_name.c_str(),
                                  check.message().c_str()));
        }
      }
    }

    // Unique indexes: check every changed key before changing any.
    std::vector<std::pair<size_t, std::vector<Datum>>> changed;
    for (size_t i = 0; i < schema.indexes.size(); ++i) {
      const std::vector<std::string>& columns = schema.indexes[i];
      std::vector<Datum> key;
      if (row) {
        if (old && SameKey(schema, *old, *row, columns)) continue;
        key = IndexKey(schema, *row, columns);
        auto hit = data.index_maps[i].find(key);
        if (hit != data.index_maps[i].end() && hit->second != uuid) {
          return ConstraintError(StrFormat(
              "unique index %zu violated in table '%s'", i,
              schema.name.c_str()));
        }
      }
      changed.emplace_back(i, std::move(key));
    }
    for (auto& [i, key] : changed) {
      auto& index = data.index_maps[i];
      if (old) index.erase(IndexKey(schema, *old, schema.indexes[i]));
      if (row) index.emplace(std::move(key), uuid);
    }

    // Keeps the *first* recorded old state.
    undo_.emplace(std::make_pair(std::string_view(schema.name), uuid),
                  Undo{&data, old});
    if (!row) {
      data.rows.erase(it);
    } else if (old) {
      it->second = std::move(row);
    } else {
      data.rows.emplace(uuid, std::move(row));
    }
    return Status::Ok();
  }

  /// Adds (or removes) `row`'s keys in every unique index of its table.
  static void Reindex(TableData& data, const Row& row, bool add) {
    const TableSchema& schema = *data.schema;
    for (size_t i = 0; i < schema.indexes.size(); ++i) {
      std::vector<Datum> key = IndexKey(schema, row, schema.indexes[i]);
      if (add) {
        data.index_maps[i].emplace(std::move(key), row.uuid);
      } else {
        data.index_maps[i].erase(key);
      }
    }
  }

  // --- Post-op constraint enforcement ---

  /// Prunes weak references to deleted rows, requires every strong one to
  /// resolve, and garbage-collects rows of non-root tables that no strong
  /// reference reaches (RFC 7047 "isRoot"), iterating to a fixpoint.  Only
  /// a schema with reference columns scans rows for references.
  Status EnforceConstraints() {
    while (true) {
      std::set<std::pair<std::string_view, Uuid>> deleted;
      for (const auto& [key, undo] : undo_) {
        if (db_->has_refs_ && undo.old &&
            !undo.data->rows.contains(key.second)) {
          deleted.insert(key);
        }
      }
      std::map<std::string_view, std::set<Uuid>> referenced;  // strongly
      for (auto& [table, data] : db_->tables_) {
        if (!db_->has_refs_) break;
        std::vector<std::shared_ptr<Row>> pruned;
        for (const auto& [uuid, row] : data.rows) {
          std::shared_ptr<Row> rewrite;
          for (const ColumnSchema& column : data.schema->columns) {
            const Datum* datum = row->Find(column.name);
            if (datum == nullptr) continue;
            for (const BaseType* base :
                 {&column.type.key,
                  column.type.value ? &*column.type.value : nullptr}) {
              if (base == nullptr || base->ref_table.empty()) continue;
              const bool keys = base == &column.type.key;
              const std::vector<Atom>& atoms =
                  keys ? datum->keys() : datum->values();
              for (size_t i = 0; i < atoms.size(); ++i) {
                if (atoms[i].type() != AtomicType::kUuid) continue;
                const Uuid& target = atoms[i].uuid();
                const bool gone =
                    deleted.count({base->ref_table, target}) != 0;
                if (base->ref_weak) {
                  // A weak reference in a map value drops the whole pair.
                  if (!gone) continue;
                  if (!rewrite) rewrite = std::make_shared<Row>(*row);
                  rewrite->columns[column.name].EraseKey(datum->keys()[i]);
                } else if (gone) {
                  return ConstraintError(StrFormat(
                      "row %s still strongly referenced from %s.%s",
                      target.ToString().c_str(), table.c_str(),
                      column.name.c_str()));
                } else if (!target.IsZero() &&  // zero: a default, no ref
                           db_->FindTable(base->ref_table)->rows.count(
                               target) == 0) {
                  return ConstraintError(StrFormat(
                      "%s.%s: strong reference to nonexistent %s row %s",
                      table.c_str(), column.name.c_str(),
                      base->ref_table.c_str(), target.ToString().c_str()));
                } else {
                  referenced[base->ref_table].insert(target);
                }
              }
            }
          }
          if (rewrite) pruned.push_back(std::move(rewrite));
        }
        for (std::shared_ptr<Row>& row : pruned) {
          const Uuid uuid = row->uuid;
          NERPA_RETURN_IF_ERROR(PutRow(data, uuid, std::move(row)));
        }
      }
      bool collected = false;
      for (auto& [table, data] : db_->tables_) {
        if (data.schema->is_root) continue;
        std::vector<Uuid> orphans;
        for (const auto& [uuid, row] : data.rows) {
          if (referenced[table].count(uuid) == 0) orphans.push_back(uuid);
        }
        for (const Uuid& uuid : orphans) {
          NERPA_RETURN_IF_ERROR(PutRow(data, uuid, nullptr));
          collected = true;
        }
      }
      if (!collected) return Status::Ok();
    }
  }

  /// Builds the commit's delta once and hands the same row pointers to
  /// every monitor.
  void CommitNotify() {
    TableUpdates updates;
    for (const auto& [key, undo] : undo_) {
      auto it = undo.data->rows.find(key.second);
      std::shared_ptr<const Row> now =
          it == undo.data->rows.end() ? nullptr : it->second;
      if (!undo.old && !now) continue;  // inserted then deleted: invisible
      if (undo.old && now && *undo.old == *now) continue;  // no-op
      updates[std::string(key.first)].emplace(key.second,
                                              RowUpdate{undo.old, now});
    }
    ++db_->commit_count_;
    if (updates.empty()) return;
    // Copy the monitor list: a callback may add/remove monitors.
    std::vector<std::shared_ptr<const Monitor>> monitors = db_->monitors_;
    for (const auto& monitor : monitors) {
      TableUpdates scratch;
      const TableUpdates& seen =
          db_->FilterForMonitor(*monitor, updates, scratch);
      if (!seen.empty()) monitor->callback(seen);
    }
  }

  Database* db_;
  std::map<std::string, Uuid> named_uuids_;
  // (table, row) -> the row's version before this transaction.
  std::map<std::pair<std::string_view, Uuid>, Undo> undo_;
};

Result<Json> Database::Transact(const Json& operations) {
  if (!operations.is_array()) {
    return ParseError("transact request must be an array of operations");
  }
  Txn txn(this);
  NERPA_RETURN_IF_ERROR(txn.NameUuids(operations));
  // Op k is parsed and run before op k+1 is parsed, so a request reports
  // the first error in op order.
  Json::Array results;
  for (const Json& op : operations.as_array()) {
    Result<Json> result = txn.RunWire(op);
    if (!result.ok()) {
      txn.Rollback();
      return result.status();
    }
    results.push_back(std::move(result).value());
  }
  NERPA_RETURN_IF_ERROR(txn.Commit());
  Json out(std::move(results));
  if (commit_hooks_.empty()) return out;
  const Json record = PinInsertUuids(operations, out);
  for (const auto& [id, hook] : commit_hooks_) hook(record);
  return out;
}

uint64_t Database::AddCommitHook(CommitHook hook) {
  uint64_t id = next_hook_id_++;
  commit_hooks_.emplace_back(id, std::move(hook));
  return id;
}

void Database::RemoveCommitHook(uint64_t id) {
  std::erase_if(commit_hooks_,
                [id](const auto& entry) { return entry.first == id; });
}

Result<Json> Database::TransactText(std::string_view text) {
  NERPA_ASSIGN_OR_RETURN(Json ops, Json::Parse(text));
  return Transact(ops);
}

// ---------------------------------------------------------------------------
// TxnBuilder
// ---------------------------------------------------------------------------

TxnOp& TxnBuilder::Add(TxnOp::Kind kind, std::string_view table,
                       std::vector<Clause> where) {
  TxnOp& op = ops_.emplace_back();
  op.kind = kind;
  op.table = table;
  op.where = std::move(where);
  return op;
}

std::string TxnBuilder::Insert(std::string_view table, Row::Columns columns) {
  TxnOp& op = Add(TxnOp::Kind::kInsert, table, {});
  op.row = std::move(columns);
  op.uuid_name = StrFormat("row%d", insert_count_++);
  return op.uuid_name;
}

void TxnBuilder::Update(std::string_view table, std::vector<Clause> where,
                        Row::Columns columns) {
  Add(TxnOp::Kind::kUpdate, table, std::move(where)).row = std::move(columns);
}

void TxnBuilder::Mutate(
    std::string_view table, std::vector<Clause> where,
    std::vector<std::tuple<std::string, std::string, Datum>> mutations) {
  TxnOp& op = Add(TxnOp::Kind::kMutate, table, std::move(where));
  for (auto& [column, mutator, value] : mutations) {
    op.mutations.push_back(
        {std::move(column), std::move(mutator), std::move(value), {}});
  }
}

void TxnBuilder::MutateSetKey(std::string_view table,
                              std::vector<Clause> where,
                              std::string_view column, Atom key, Atom value) {
  Mutate(table, std::move(where),
         {{std::string(column), "setkey",
           Datum::Map({{std::move(key), std::move(value)}})}});
}

void TxnBuilder::MutateDelKey(std::string_view table,
                              std::vector<Clause> where,
                              std::string_view column, Atom key) {
  Mutate(table, std::move(where),
         {{std::string(column), "delkey", Datum::Set({std::move(key)})}});
}

void TxnBuilder::Delete(std::string_view table, std::vector<Clause> where) {
  Add(TxnOp::Kind::kDelete, table, std::move(where));
}

void TxnBuilder::AssertFence(int64_t epoch) {
  Add(TxnOp::Kind::kAssertFence, {}, {}).epoch = epoch;
}

Result<std::vector<Uuid>> TxnBuilder::Commit() {
  std::vector<TxnOp> ops = std::move(ops_);
  ops_.clear();
  // Uuids are drawn before any op runs, in insert order, as the wire
  // path's named-uuid pre-scan draws them.
  std::vector<Uuid> inserted;
  for (TxnOp& op : ops) {
    if (op.kind == TxnOp::Kind::kInsert) {
      op.uuid = Uuid::Generate();
      inserted.push_back(*op.uuid);
    }
  }
  // The record is written before the executor consumes the ops.
  const Json record =
      db_->commit_hooks_.empty() ? Json() : WireRecord(ops);
  Database::Txn txn(db_);
  for (TxnOp& op : ops) {
    Status status = txn.Run(op).status();
    if (!status.ok()) {
      txn.Rollback();
      return status;
    }
  }
  NERPA_RETURN_IF_ERROR(txn.Commit());
  insert_count_ = 0;
  for (const auto& [id, hook] : db_->commit_hooks_) hook(record);
  return inserted;
}

}  // namespace nerpa::ovsdb
