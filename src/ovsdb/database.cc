#include "ovsdb/database.h"

#include <algorithm>
#include <set>

#include "common/log.h"
#include "common/strings.h"

namespace nerpa::ovsdb {

namespace {

/// Orders (table, uuid) pairs for the undo map.
using RowKey = std::pair<std::string, Uuid>;

Result<Clause> ClauseFromJson(const TableSchema& schema, const Json& json) {
  if (!json.is_array() || json.as_array().size() != 3 ||
      !json.as_array()[0].is_string() || !json.as_array()[1].is_string()) {
    return ParseError("clause must be [column, function, value]");
  }
  Clause clause;
  clause.column = json.as_array()[0].as_string();
  clause.function = json.as_array()[1].as_string();
  ColumnType type;
  if (clause.column == "_uuid") {
    type = ColumnType::Scalar(BaseType::Ref(""));
  } else {
    const ColumnSchema* column = schema.FindColumn(clause.column);
    if (column == nullptr) {
      return NotFound(StrFormat("clause names unknown column '%s' in '%s'",
                                clause.column.c_str(), schema.name.c_str()));
    }
    type = column->type;
  }
  NERPA_ASSIGN_OR_RETURN(clause.value,
                         Datum::FromJson(json.as_array()[2], type));
  return clause;
}

/// Reads a row's column value, falling back to the schema default.
Datum GetColumn(const TableSchema& schema, const Row& row,
                const std::string& column) {
  if (column == "_uuid") return Datum::UuidRef(row.uuid);
  if (const Datum* datum = row.Find(column)) return *datum;
  const ColumnSchema* cs = schema.FindColumn(column);
  return cs != nullptr ? Datum::Default(cs->type) : Datum();
}

/// Shrinks a row to the named columns (for column-scoped monitors).
Row ProjectRow(const Row& row, const std::vector<std::string>& columns) {
  Row out;
  out.uuid = row.uuid;
  for (const std::string& column : columns) {
    if (const Datum* datum = row.Find(column)) {
      out.columns.emplace(column, *datum);
    }
  }
  return out;
}

}  // namespace

Result<bool> EvalClause(const TableSchema& schema, const Row& row,
                        const Clause& clause) {
  Datum actual = GetColumn(schema, row, clause.column);
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
  if (!row_json.is_object()) return ParseError("row must be an object");
  Row row;
  row.uuid = uuid;
  for (const auto& [column_name, value_json] : row_json.as_object()) {
    const ColumnSchema* column = schema.FindColumn(column_name);
    if (column == nullptr) {
      return NotFound(StrFormat("unknown column '%s' in table '%s'",
                                column_name.c_str(), schema.name.c_str()));
    }
    NERPA_ASSIGN_OR_RETURN(Datum datum,
                           Datum::FromJson(value_json, column->type));
    row.columns.emplace(column_name, std::move(datum));
  }
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
    data.index_maps.resize(table_schema.indexes.size());
  }
}

Database::TableData* Database::FindTable(std::string_view name) {
  auto it = tables_.find(std::string(name));
  return it == tables_.end() ? nullptr : &it->second;
}

const Database::TableData* Database::FindTable(std::string_view name) const {
  auto it = tables_.find(std::string(name));
  return it == tables_.end() ? nullptr : &it->second;
}

const Row* Database::GetRow(std::string_view table, const Uuid& uuid) const {
  const TableData* data = FindTable(table);
  if (data == nullptr) return nullptr;
  auto it = data->rows.find(uuid);
  return it == data->rows.end() ? nullptr : &it->second;
}

std::vector<const Row*> Database::GetRows(std::string_view table) const {
  std::vector<const Row*> out;
  const TableData* data = FindTable(table);
  if (data == nullptr) return out;
  out.reserve(data->rows.size());
  for (const auto& [uuid, row] : data->rows) out.push_back(&row);
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
      Result<bool> match = EvalClause(schema, it->second, clause);
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
    const std::vector<std::string>& columns = schema.indexes[i];
    std::vector<Datum> key;
    key.reserve(columns.size());
    bool covered = true;
    for (const std::string& column : columns) {
      const Clause* pin = nullptr;
      for (const Clause& clause : where) {
        if (clause.column == column) {
          pin = &clause;
          break;
        }
      }
      if (pin == nullptr) {
        covered = false;
        break;
      }
      key.push_back(pin->value);
    }
    if (!covered) continue;
    ++indexed_selects_;
    auto it = data.index_maps[i].find(key);
    if (it == data.index_maps[i].end()) return std::vector<Uuid>{};
    return verify(it->second);
  }
  return std::nullopt;
}

Result<std::vector<const Row*>> Database::SelectRows(
    std::string_view table, const std::vector<Clause>& where) const {
  const TableSchema* schema = schema_.FindTable(table);
  const TableData* data = FindTable(table);
  if (schema == nullptr || data == nullptr) {
    return NotFound("no table '" + std::string(table) + "'");
  }
  if (auto probed = ProbeIndexes(*schema, *data, where)) {
    std::vector<const Row*> out;
    out.reserve(probed->size());
    for (const Uuid& uuid : *probed) out.push_back(&data->rows.at(uuid));
    return out;
  }
  std::vector<const Row*> out;
  for (const auto& [uuid, row] : data->rows) {
    bool all = true;
    for (const Clause& clause : where) {
      NERPA_ASSIGN_OR_RETURN(bool match, EvalClause(*schema, row, clause));
      if (!match) {
        all = false;
        break;
      }
    }
    if (all) out.push_back(&row);
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
  Monitor monitor{next_monitor_id_++, std::move(spec), std::move(cb)};
  // Initial state: every current row as an insert, projected to the spec.
  TableUpdates initial;
  for (const auto& [name, data] : tables_) {
    if (!monitor.spec.empty() && monitor.spec.count(name) == 0) continue;
    for (const auto& [uuid, row] : data.rows) {
      initial[name][uuid] = RowUpdate{std::nullopt, row};
    }
  }
  initial = FilterForMonitor(monitor, initial);
  monitors_.push_back(monitor);
  if (!initial.empty()) monitor.callback(initial);
  return monitor.id;
}

TableUpdates Database::FilterForMonitor(const Monitor& monitor,
                                        const TableUpdates& updates) const {
  if (monitor.spec.empty()) return updates;
  TableUpdates out;
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
  Json::Array out_rows;
  for (const Row* row : rows) {
    Json::Object row_json;
    for (const std::string& column : projected) {
      row_json[column] = GetColumn(*schema, *row, column).ToJson();
    }
    out_rows.push_back(Json(std::move(row_json)));
  }
  return Json(Json::Object{{"rows", Json(std::move(out_rows))}});
}

void Database::RemoveMonitor(uint64_t id) {
  monitors_.erase(std::remove_if(monitors_.begin(), monitors_.end(),
                                 [id](const Monitor& m) { return m.id == id; }),
                  monitors_.end());
}

// ---------------------------------------------------------------------------
// Transaction executor.
// ---------------------------------------------------------------------------

class Database::Txn {
 public:
  explicit Txn(Database* db) : db_(db) {}

  Result<Json> Execute(const Json& operations) {
    if (!operations.is_array()) {
      return ParseError("transact request must be an array of operations");
    }
    // Pre-scan for named uuids so forward references resolve (RFC 7047
    // allows an op to reference a row inserted by a later op).
    for (const Json& op : operations.as_array()) {
      const Json* name = op.Find("uuid-name");
      if (name != nullptr && name->is_string()) {
        if (named_uuids_.count(name->as_string()) != 0) {
          Rollback();
          return InvalidArgument("duplicate uuid-name '" + name->as_string() +
                                 "'");
        }
        // WAL replay pins row identities via an explicit "uuid" member.
        Uuid uuid = Uuid::Generate();
        if (const Json* forced = op.Find("uuid");
            forced != nullptr && forced->is_string()) {
          auto parsed = Uuid::Parse(forced->as_string());
          if (!parsed) {
            Rollback();
            return InvalidArgument("malformed forced uuid");
          }
          uuid = *parsed;
        }
        named_uuids_[name->as_string()] = uuid;
      }
    }
    Json::Array results;
    for (const Json& op : operations.as_array()) {
      Result<Json> result = ExecuteOp(op);
      if (!result.ok()) {
        Rollback();
        return result.status();
      }
      results.push_back(std::move(result).value());
    }
    Status constraints = EnforceConstraints();
    if (!constraints.ok()) {
      Rollback();
      return constraints;
    }
    CommitNotify();
    return Json(std::move(results));
  }

 private:
  Result<Json> ExecuteOp(const Json& op) {
    const Json* op_name = op.Find("op");
    if (op_name == nullptr || !op_name->is_string()) {
      return ParseError("operation missing 'op'");
    }
    const std::string& name = op_name->as_string();
    if (name == "insert") return OpInsert(op);
    if (name == "select") return OpSelect(op);
    if (name == "update") return OpUpdate(op);
    if (name == "mutate") return OpMutate(op);
    if (name == "delete") return OpDelete(op);
    if (name == "wait") return OpWait(op);
    if (name == "comment") return Json(Json::Object{});
    if (name == "abort") return FailedPrecondition("aborted");
    if (name == "assert_fence") return OpAssertFence(op);
    return InvalidArgument("unknown operation '" + name + "'");
  }

  /// Split-brain fencing: the op's epoch must be at least the epoch in the
  /// Leader_Lease singleton, read at in-transaction state (so an acquire
  /// that bumps the epoch earlier in the same transaction is visible).  An
  /// absent row fences nothing — no leader has ever been elected.
  Result<Json> OpAssertFence(const Json& op) {
    const Json* epoch = op.Find("epoch");
    if (epoch == nullptr || !epoch->is_integer()) {
      return ParseError("assert_fence needs integer 'epoch'");
    }
    const int64_t token = epoch->as_integer();
    const TableSchema* schema = db_->schema_.FindTable(kLeaderLeaseTable);
    TableData* data = db_->FindTable(kLeaderLeaseTable);
    if (schema == nullptr || data == nullptr) {
      return InvalidArgument("assert_fence on a database without a '" +
                             std::string(kLeaderLeaseTable) + "' table");
    }
    for (const auto& [uuid, row] : data->rows) {
      const Datum* current = row.Find(kLeaseEpochColumn);
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
    return Json(Json::Object{});
  }

  Result<const TableSchema*> GetTableSchema(const Json& op) {
    const Json* table = op.Find("table");
    if (table == nullptr || !table->is_string()) {
      return ParseError("operation missing 'table'");
    }
    const TableSchema* schema = db_->schema_.FindTable(table->as_string());
    if (schema == nullptr) {
      return NotFound("no table '" + table->as_string() + "'");
    }
    return schema;
  }

  Result<std::vector<Clause>> GetWhere(const TableSchema& schema,
                                       const Json& op) {
    const Json* where = op.Find("where");
    if (where == nullptr) return ParseError("operation missing 'where'");
    if (!where->is_array()) return ParseError("'where' must be an array");
    std::vector<Clause> out;
    for (const Json& clause_json : where->as_array()) {
      NERPA_ASSIGN_OR_RETURN(Clause clause,
                             ClauseFromJson(schema, clause_json));
      out.push_back(std::move(clause));
    }
    return out;
  }

  /// UUIDs of rows matching `where`, reading *current* (in-txn) state.
  Result<std::vector<Uuid>> MatchRows(const TableSchema& schema,
                                      const std::vector<Clause>& where) {
    TableData& data = *db_->FindTable(schema.name);
    // Index probe: in-txn index maps are kept current by PutRow, so the
    // same fast path serves transaction `where` matching.
    if (auto probed = db_->ProbeIndexes(schema, data, where)) {
      return *probed;  // 0 or 1 rows — trivially sorted
    }
    std::vector<Uuid> out;
    for (auto& [uuid, row] : data.rows) {
      bool all = true;
      for (const Clause& clause : where) {
        NERPA_ASSIGN_OR_RETURN(bool match, EvalClause(schema, row, clause));
        if (!match) {
          all = false;
          break;
        }
      }
      if (all) out.push_back(uuid);
    }
    // Deterministic order keeps results and monitor deltas reproducible.
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Parses the "row" member of an op against the schema.
  Result<std::map<std::string, Datum>> ParseRowColumns(
      const TableSchema& schema, const Json& op, bool for_update) {
    const Json* row = op.Find("row");
    if (row == nullptr || !row->is_object()) {
      return ParseError("operation missing 'row' object");
    }
    std::map<std::string, Datum> out;
    for (const auto& [column_name, value_json] : row->as_object()) {
      const ColumnSchema* column = schema.FindColumn(column_name);
      if (column == nullptr) {
        return NotFound(StrFormat("unknown column '%s' in table '%s'",
                                  column_name.c_str(), schema.name.c_str()));
      }
      if (for_update && !column->mutable_) {
        return ConstraintError("column '" + column_name + "' is immutable");
      }
      NERPA_ASSIGN_OR_RETURN(
          Datum datum,
          Datum::FromJson(value_json, column->type, &named_uuids_));
      out.emplace(column_name, std::move(datum));
    }
    return out;
  }

  Result<Json> OpInsert(const Json& op) {
    NERPA_ASSIGN_OR_RETURN(const TableSchema* schema, GetTableSchema(op));
    NERPA_ASSIGN_OR_RETURN(auto columns,
                           ParseRowColumns(*schema, op, /*for_update=*/false));
    Row row;
    const Json* name = op.Find("uuid-name");
    const Json* forced = op.Find("uuid");
    if (name != nullptr && name->is_string()) {
      row.uuid = named_uuids_.at(name->as_string());
    } else if (forced != nullptr && forced->is_string()) {
      auto parsed = Uuid::Parse(forced->as_string());
      if (!parsed) return InvalidArgument("malformed forced uuid");
      row.uuid = *parsed;
    } else {
      row.uuid = Uuid::Generate();
    }
    if (db_->FindTable(schema->name)->rows.count(row.uuid) != 0) {
      return AlreadyExists("row uuid already present in table '" +
                           schema->name + "'");
    }
    // Fill unspecified columns with defaults so min-cardinality passes.
    for (const ColumnSchema& column : schema->columns) {
      if (columns.find(column.name) == columns.end()) {
        columns.emplace(column.name, Datum::Default(column.type));
      }
    }
    row.columns = std::move(columns);
    TableData& data = *db_->FindTable(schema->name);
    if (data.rows.size() >= schema->max_rows) {
      return ConstraintError("table '" + schema->name + "' is full");
    }
    Uuid uuid = row.uuid;
    NERPA_RETURN_IF_ERROR(PutRow(*schema, uuid, std::move(row)));
    return Json(Json::Object{
        {"uuid", Json(Json::Array{Json("uuid"), Json(uuid.ToString())})}});
  }

  Result<Json> OpSelect(const Json& op) {
    NERPA_ASSIGN_OR_RETURN(const TableSchema* schema, GetTableSchema(op));
    NERPA_ASSIGN_OR_RETURN(auto where, GetWhere(*schema, op));
    NERPA_ASSIGN_OR_RETURN(auto uuids, MatchRows(*schema, where));
    // Column projection: default all + _uuid.
    std::vector<std::string> columns;
    if (const Json* cols = op.Find("columns"); cols && cols->is_array()) {
      for (const Json& c : cols->as_array()) columns.push_back(c.as_string());
    } else {
      columns.emplace_back("_uuid");
      for (const ColumnSchema& c : schema->columns) columns.push_back(c.name);
    }
    TableData& data = *db_->FindTable(schema->name);
    Json::Array rows;
    for (const Uuid& uuid : uuids) {
      const Row& row = data.rows.at(uuid);
      Json::Object row_json;
      for (const std::string& column : columns) {
        row_json[column] = GetColumn(*schema, row, column).ToJson();
      }
      rows.push_back(Json(std::move(row_json)));
    }
    return Json(Json::Object{{"rows", Json(std::move(rows))}});
  }

  Result<Json> OpUpdate(const Json& op) {
    NERPA_ASSIGN_OR_RETURN(const TableSchema* schema, GetTableSchema(op));
    NERPA_ASSIGN_OR_RETURN(auto where, GetWhere(*schema, op));
    NERPA_ASSIGN_OR_RETURN(auto columns,
                           ParseRowColumns(*schema, op, /*for_update=*/true));
    NERPA_ASSIGN_OR_RETURN(auto uuids, MatchRows(*schema, where));
    TableData& data = *db_->FindTable(schema->name);
    for (const Uuid& uuid : uuids) {
      Row row = data.rows.at(uuid);
      for (const auto& [column, datum] : columns) row.columns[column] = datum;
      NERPA_RETURN_IF_ERROR(PutRow(*schema, uuid, std::move(row)));
    }
    return Json(Json::Object{
        {"count", Json(static_cast<int64_t>(uuids.size()))}});
  }

  Result<Json> OpMutate(const Json& op) {
    NERPA_ASSIGN_OR_RETURN(const TableSchema* schema, GetTableSchema(op));
    NERPA_ASSIGN_OR_RETURN(auto where, GetWhere(*schema, op));
    const Json* mutations = op.Find("mutations");
    if (mutations == nullptr || !mutations->is_array()) {
      return ParseError("mutate missing 'mutations'");
    }
    NERPA_ASSIGN_OR_RETURN(auto uuids, MatchRows(*schema, where));
    TableData& data = *db_->FindTable(schema->name);
    for (const Uuid& uuid : uuids) {
      Row row = data.rows.at(uuid);
      for (const Json& mutation : mutations->as_array()) {
        NERPA_RETURN_IF_ERROR(ApplyMutation(*schema, row, mutation));
      }
      NERPA_RETURN_IF_ERROR(PutRow(*schema, uuid, std::move(row)));
    }
    return Json(Json::Object{
        {"count", Json(static_cast<int64_t>(uuids.size()))}});
  }

  Status ApplyMutation(const TableSchema& schema, Row& row,
                       const Json& mutation) {
    if (!mutation.is_array() || mutation.as_array().size() != 3 ||
        !mutation.as_array()[0].is_string() ||
        !mutation.as_array()[1].is_string()) {
      return ParseError("mutation must be [column, mutator, value]");
    }
    const std::string& column_name = mutation.as_array()[0].as_string();
    const std::string& mutator = mutation.as_array()[1].as_string();
    const Json& value_json = mutation.as_array()[2];
    const ColumnSchema* column = schema.FindColumn(column_name);
    if (column == nullptr) {
      return NotFound("mutation names unknown column '" + column_name + "'");
    }
    if (!column->mutable_) {
      return ConstraintError("column '" + column_name + "' is immutable");
    }
    Datum current = GetColumn(schema, row, column_name);

    if (mutator == "setkey" || mutator == "delkey") {
      // Partial map updates (the OVSDB-improvements fast path): ship only
      // the touched key(s) instead of rewriting the whole map.  setkey
      // inserts or overwrites; delkey removes (absent keys are a no-op).
      if (!column->type.is_map()) {
        return TypeError("'" + mutator + "' requires a map column");
      }
      if (mutator == "setkey") {
        ColumnType loose = column->type;
        loose.min = 0;
        loose.max = kUnlimited;
        NERPA_ASSIGN_OR_RETURN(
            Datum delta, Datum::FromJson(value_json, loose, &named_uuids_));
        for (size_t i = 0; i < delta.keys().size(); ++i) {
          current.EraseKey(delta.keys()[i]);
          current.InsertPair(delta.keys()[i], delta.values()[i]);
        }
      } else {
        ColumnType keys_only = ColumnType::Set(column->type.key, 0, kUnlimited);
        NERPA_ASSIGN_OR_RETURN(
            Datum keys, Datum::FromJson(value_json, keys_only, &named_uuids_));
        for (const Atom& key : keys.keys()) current.EraseKey(key);
      }
      row.columns[column_name] = std::move(current);
      return Status::Ok();
    }

    if (mutator == "insert" || mutator == "delete") {
      // Value is a set (or map) of elements to add/remove.
      ColumnType loose = column->type;
      loose.min = 0;
      loose.max = kUnlimited;
      if (mutator == "delete" && column->type.is_map()) {
        // Deleting from a map may name just keys.
        ColumnType keys_only = ColumnType::Set(column->type.key, 0, kUnlimited);
        Result<Datum> as_keys =
            Datum::FromJson(value_json, keys_only, &named_uuids_);
        if (as_keys.ok()) {
          for (const Atom& key : as_keys->keys()) current.EraseKey(key);
          row.columns[column_name] = std::move(current);
          return Status::Ok();
        }
      }
      NERPA_ASSIGN_OR_RETURN(Datum delta,
                             Datum::FromJson(value_json, loose, &named_uuids_));
      if (mutator == "insert") {
        if (column->type.is_map()) {
          for (size_t i = 0; i < delta.keys().size(); ++i) {
            // OVSDB "insert" does not overwrite existing map keys.
            if (!current.ContainsKey(delta.keys()[i])) {
              current.InsertPair(delta.keys()[i], delta.values()[i]);
            }
          }
        } else {
          for (const Atom& key : delta.keys()) current.InsertKey(key);
        }
      } else {
        for (const Atom& key : delta.keys()) current.EraseKey(key);
      }
      row.columns[column_name] = std::move(current);
      return Status::Ok();
    }

    // Arithmetic mutators on integer/real scalars.
    if (current.size() != 1) {
      return InvalidArgument("arithmetic mutation requires a scalar");
    }
    const Atom& atom = current.scalar();
    if (atom.type() == AtomicType::kInteger) {
      if (!value_json.is_integer()) {
        return TypeError("integer mutation needs integer operand");
      }
      int64_t x = atom.integer();
      int64_t y = value_json.as_integer();
      if ((mutator == "/=" || mutator == "%=") && y == 0) {
        return InvalidArgument("division by zero in mutation");
      }
      if (mutator == "+=") x += y;
      else if (mutator == "-=") x -= y;
      else if (mutator == "*=") x *= y;
      else if (mutator == "/=") x /= y;
      else if (mutator == "%=") x %= y;
      else return InvalidArgument("unknown mutator '" + mutator + "'");
      row.columns[column_name] = Datum::Integer(x);
      return Status::Ok();
    }
    if (atom.type() == AtomicType::kReal) {
      if (!value_json.is_number()) {
        return TypeError("real mutation needs numeric operand");
      }
      double x = atom.real();
      double y = value_json.as_double();
      if (mutator == "/=" && y == 0) {
        return InvalidArgument("division by zero in mutation");
      }
      if (mutator == "+=") x += y;
      else if (mutator == "-=") x -= y;
      else if (mutator == "*=") x *= y;
      else if (mutator == "/=") x /= y;
      else return InvalidArgument("unknown mutator '" + mutator + "'");
      row.columns[column_name] = Datum::Real(x);
      return Status::Ok();
    }
    return TypeError("arithmetic mutation on non-numeric column");
  }

  Result<Json> OpDelete(const Json& op) {
    NERPA_ASSIGN_OR_RETURN(const TableSchema* schema, GetTableSchema(op));
    NERPA_ASSIGN_OR_RETURN(auto where, GetWhere(*schema, op));
    NERPA_ASSIGN_OR_RETURN(auto uuids, MatchRows(*schema, where));
    for (const Uuid& uuid : uuids) {
      NERPA_RETURN_IF_ERROR(PutRow(*schema, uuid, std::nullopt));
    }
    return Json(Json::Object{
        {"count", Json(static_cast<int64_t>(uuids.size()))}});
  }

  Result<Json> OpWait(const Json& op) {
    NERPA_ASSIGN_OR_RETURN(const TableSchema* schema, GetTableSchema(op));
    NERPA_ASSIGN_OR_RETURN(auto where, GetWhere(*schema, op));
    const Json* until = op.Find("until");
    const Json* rows = op.Find("rows");
    if (until == nullptr || !until->is_string() || rows == nullptr ||
        !rows->is_array()) {
      return ParseError("wait needs 'until' and 'rows'");
    }
    std::vector<std::string> columns;
    if (const Json* cols = op.Find("columns"); cols && cols->is_array()) {
      for (const Json& c : cols->as_array()) columns.push_back(c.as_string());
    } else {
      for (const ColumnSchema& c : schema->columns) columns.push_back(c.name);
    }
    NERPA_ASSIGN_OR_RETURN(auto uuids, MatchRows(*schema, where));
    TableData& data = *db_->FindTable(schema->name);
    // Build multisets of projected rows on both sides and compare.
    std::multiset<std::vector<Datum>> actual, expected;
    for (const Uuid& uuid : uuids) {
      const Row& row = data.rows.at(uuid);
      std::vector<Datum> projected;
      for (const std::string& column : columns) {
        projected.push_back(GetColumn(*schema, row, column));
      }
      actual.insert(std::move(projected));
    }
    for (const Json& row_json : rows->as_array()) {
      if (!row_json.is_object()) return ParseError("wait row must be object");
      std::vector<Datum> projected;
      for (const std::string& column : columns) {
        const ColumnSchema* cs = schema->FindColumn(column);
        if (cs == nullptr) return NotFound("wait names unknown column");
        const Json* cell = row_json.Find(column);
        if (cell == nullptr) {
          projected.push_back(Datum::Default(cs->type));
        } else {
          NERPA_ASSIGN_OR_RETURN(
              Datum datum, Datum::FromJson(*cell, cs->type, &named_uuids_));
          projected.push_back(std::move(datum));
        }
      }
      expected.insert(std::move(projected));
    }
    bool equal = actual == expected;
    bool want_equal = until->as_string() == "==";
    if (equal != want_equal) {
      return FailedPrecondition("wait condition not met (timed out)");
    }
    return Json(Json::Object{});
  }

  // --- State mutation with undo tracking ---

  /// Installs (or deletes, when nullopt) a row, validating column types and
  /// unique indexes, and recording undo state on first touch.
  Status PutRow(const TableSchema& schema, const Uuid& uuid,
                std::optional<Row> row) {
    TableData& data = *db_->FindTable(schema.name);
    auto it = data.rows.find(uuid);
    std::optional<Row> old_row;
    if (it != data.rows.end()) old_row = it->second;
    if (!old_row && !row) return Status::Ok();

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

    // Unique index maintenance.
    for (size_t i = 0; i < schema.indexes.size(); ++i) {
      auto& index_map = data.index_maps[i];
      if (old_row) {
        index_map.erase(IndexKey(schema, *old_row, schema.indexes[i]));
      }
      if (row) {
        std::vector<Datum> key = IndexKey(schema, *row, schema.indexes[i]);
        auto [pos, inserted] = index_map.emplace(std::move(key), uuid);
        if (!inserted && pos->second != uuid) {
          // Restore the old entry before failing so rollback stays simple.
          if (old_row) {
            index_map.emplace(IndexKey(schema, *old_row, schema.indexes[i]),
                              uuid);
          }
          return ConstraintError(StrFormat(
              "unique index %zu violated in table '%s'", i,
              schema.name.c_str()));
        }
      }
    }

    RowKey key{schema.name, uuid};
    undo_.emplace(key, old_row);  // keeps the *first* recorded old state
    if (row) {
      data.rows[uuid] = std::move(*row);
    } else {
      data.rows.erase(uuid);
    }
    return Status::Ok();
  }

  static std::vector<Datum> IndexKey(const TableSchema& schema, const Row& row,
                                     const std::vector<std::string>& columns) {
    std::vector<Datum> key;
    key.reserve(columns.size());
    for (const std::string& column : columns) {
      key.push_back(GetColumn(schema, row, column));
    }
    return key;
  }

  // --- Post-op constraint enforcement ---

  Status EnforceConstraints() {
    // Garbage collection can orphan weak references (a GC'd row was some
    // weak ref's target), and pruning weak refs can in turn unreference
    // non-root rows; iterate to fixpoint.
    while (true) {
      NERPA_RETURN_IF_ERROR(PruneWeakRefsAndCheckStrong());
      NERPA_ASSIGN_OR_RETURN(bool gc_deleted, GarbageCollect());
      if (!gc_deleted) return Status::Ok();
    }
  }

  /// Set of row UUIDs deleted (so far) from `table` by this transaction.
  std::set<Uuid> DeletedFrom(const std::string& table) {
    std::set<Uuid> out;
    TableData& data = *db_->FindTable(table);
    for (const auto& [key, old_row] : undo_) {
      if (key.first != table || !old_row) continue;
      if (data.rows.find(key.second) == data.rows.end()) {
        out.insert(key.second);
      }
    }
    return out;
  }

  Status PruneWeakRefsAndCheckStrong() {
    // 1. Remove weak references that now dangle.  Only needed when rows were
    //    deleted; we scan referrer tables (workshop-scale OK).
    for (const auto& [table_name, table_schema] : db_->schema_.tables) {
      std::set<Uuid> deleted = DeletedFrom(table_name);
      if (deleted.empty()) continue;
      for (const auto& [ref_table, ref_schema] : db_->schema_.tables) {
        for (const ColumnSchema& column : ref_schema.columns) {
          for (const BaseType* base :
               {&column.type.key,
                column.type.value ? &*column.type.value : nullptr}) {
            if (base == nullptr || base->ref_table != table_name ||
                !base->ref_weak) {
              continue;
            }
            TableData& data = *db_->FindTable(ref_table);
            bool key_side = base == &column.type.key;
            std::vector<std::pair<Uuid, Row>> rewrites;
            for (const auto& [uuid, row] : data.rows) {
              const Datum* datum = row.Find(column.name);
              if (datum == nullptr) continue;
              bool dirty = false;
              Datum updated = *datum;
              if (key_side) {
                for (const Atom& key : datum->keys()) {
                  if (key.type() == AtomicType::kUuid &&
                      deleted.count(key.uuid()) != 0) {
                    updated.EraseKey(key);
                    dirty = true;
                  }
                }
              } else if (datum->is_map()) {
                // Weak refs in map *values*: drop the whole pair.
                for (size_t i = 0; i < datum->keys().size(); ++i) {
                  const Atom& value = datum->values()[i];
                  if (value.type() == AtomicType::kUuid &&
                      deleted.count(value.uuid()) != 0) {
                    updated.EraseKey(datum->keys()[i]);
                    dirty = true;
                  }
                }
              }
              if (dirty) {
                Row rewritten{uuid, row.columns};
                rewritten.columns[column.name] = std::move(updated);
                rewrites.emplace_back(uuid, std::move(rewritten));
              }
            }
            for (auto& [uuid, row] : rewrites) {
              NERPA_RETURN_IF_ERROR(PutRow(ref_schema, uuid, std::move(row)));
            }
          }
        }
      }
    }

    // 2. Strong references from changed rows must resolve; strong references
    //    *to* deleted rows must be gone.
    for (const auto& [key, old_row] : undo_) {
      const auto& [table_name, uuid] = key;
      TableData& data = *db_->FindTable(table_name);
      auto it = data.rows.find(uuid);
      if (it == data.rows.end()) continue;  // deleted; referrers checked below
      const TableSchema& schema = *db_->schema_.FindTable(table_name);
      for (const ColumnSchema& column : schema.columns) {
        const Datum* datum = it->second.Find(column.name);
        if (datum == nullptr) continue;
        NERPA_RETURN_IF_ERROR(
            CheckStrongRefs(schema, column, *datum));
      }
    }
    for (const auto& [table_name, table_schema] : db_->schema_.tables) {
      std::set<Uuid> deleted = DeletedFrom(table_name);
      if (deleted.empty()) continue;
      for (const auto& [ref_table, ref_schema] : db_->schema_.tables) {
        for (const ColumnSchema& column : ref_schema.columns) {
          bool strong_here =
              (!column.type.key.ref_table.empty() &&
               column.type.key.ref_table == table_name &&
               !column.type.key.ref_weak) ||
              (column.type.value && !column.type.value->ref_table.empty() &&
               column.type.value->ref_table == table_name &&
               !column.type.value->ref_weak);
          if (!strong_here) continue;
          TableData& data = *db_->FindTable(ref_table);
          for (const auto& [uuid, row] : data.rows) {
            const Datum* datum = row.Find(column.name);
            if (datum == nullptr) continue;
            for (const Atom& atom : datum->keys()) {
              if (atom.type() == AtomicType::kUuid &&
                  deleted.count(atom.uuid()) != 0) {
                return ConstraintError(StrFormat(
                    "row %s still strongly referenced from %s.%s",
                    atom.uuid().ToString().c_str(), ref_table.c_str(),
                    column.name.c_str()));
              }
            }
            for (const Atom& atom : datum->values()) {
              if (atom.type() == AtomicType::kUuid &&
                  deleted.count(atom.uuid()) != 0) {
                return ConstraintError(StrFormat(
                    "row %s still strongly referenced from %s.%s",
                    atom.uuid().ToString().c_str(), ref_table.c_str(),
                    column.name.c_str()));
              }
            }
          }
        }
      }
    }
    return Status::Ok();
  }

  Status CheckStrongRefs(const TableSchema& schema, const ColumnSchema& column,
                         const Datum& datum) {
    auto check_atoms = [&](const std::vector<Atom>& atoms,
                           const BaseType& base) -> Status {
      if (base.ref_table.empty() || base.ref_weak) return Status::Ok();
      TableData& target = *db_->FindTable(base.ref_table);
      for (const Atom& atom : atoms) {
        if (atom.type() != AtomicType::kUuid) continue;
        if (atom.uuid().IsZero()) continue;  // default value, not a real ref
        if (target.rows.find(atom.uuid()) == target.rows.end()) {
          return ConstraintError(StrFormat(
              "%s.%s: strong reference to nonexistent %s row %s",
              schema.name.c_str(), column.name.c_str(),
              base.ref_table.c_str(), atom.uuid().ToString().c_str()));
        }
      }
      return Status::Ok();
    };
    NERPA_RETURN_IF_ERROR(check_atoms(datum.keys(), column.type.key));
    if (column.type.value) {
      NERPA_RETURN_IF_ERROR(check_atoms(datum.values(), *column.type.value));
    }
    return Status::Ok();
  }

  /// Deletes rows of non-root tables that no strong reference reaches,
  /// cascading until fixpoint (RFC 7047 "isRoot" garbage collection).
  /// Returns whether anything was deleted.
  Result<bool> GarbageCollect() {
    bool has_non_root = false;
    for (const auto& [name, table] : db_->schema_.tables) {
      if (!table.is_root && db_->FindTable(name)->rows.size() > 0) {
        has_non_root = true;
      }
    }
    if (!has_non_root) return false;

    bool any_deleted = false;
    while (true) {
      // Collect every uuid strongly or weakly referenced... GC counts *any*
      // reference per RFC 7047 (weak refs do not keep rows alive; only
      // strong ones do).
      std::map<std::string, std::set<Uuid>> referenced;
      for (const auto& [table_name, table_schema] : db_->schema_.tables) {
        TableData& data = *db_->FindTable(table_name);
        for (const auto& [uuid, row] : data.rows) {
          for (const ColumnSchema& column : table_schema.columns) {
            const Datum* datum = row.Find(column.name);
            if (datum == nullptr) continue;
            auto note = [&](const std::vector<Atom>& atoms,
                            const BaseType& base) {
              if (base.ref_table.empty() || base.ref_weak) return;
              for (const Atom& atom : atoms) {
                if (atom.type() == AtomicType::kUuid) {
                  referenced[base.ref_table].insert(atom.uuid());
                }
              }
            };
            note(datum->keys(), column.type.key);
            if (column.type.value) note(datum->values(), *column.type.value);
          }
        }
      }
      bool deleted_any = false;
      for (const auto& [table_name, table_schema] : db_->schema_.tables) {
        if (table_schema.is_root) continue;
        TableData& data = *db_->FindTable(table_name);
        std::vector<Uuid> to_delete;
        const std::set<Uuid>& live = referenced[table_name];
        for (const auto& [uuid, row] : data.rows) {
          if (live.count(uuid) == 0) to_delete.push_back(uuid);
        }
        for (const Uuid& uuid : to_delete) {
          NERPA_RETURN_IF_ERROR(PutRow(table_schema, uuid, std::nullopt));
          deleted_any = true;
          any_deleted = true;
        }
      }
      if (!deleted_any) return any_deleted;
    }
  }

  // --- Commit / rollback ---

  void Rollback() {
    // Restore rows in reverse insertion order is unnecessary (undo_ stores
    // the original state); indexes are rebuilt for affected tables.
    std::set<std::string> touched;
    for (auto& [key, old_row] : undo_) {
      TableData& data = *db_->FindTable(key.first);
      if (old_row) {
        data.rows[key.second] = *old_row;
      } else {
        data.rows.erase(key.second);
      }
      touched.insert(key.first);
    }
    for (const std::string& table_name : touched) {
      RebuildIndexes(table_name);
    }
    undo_.clear();
  }

  void RebuildIndexes(const std::string& table_name) {
    const TableSchema& schema = *db_->schema_.FindTable(table_name);
    TableData& data = *db_->FindTable(table_name);
    for (size_t i = 0; i < schema.indexes.size(); ++i) {
      data.index_maps[i].clear();
      for (const auto& [uuid, row] : data.rows) {
        data.index_maps[i].emplace(IndexKey(schema, row, schema.indexes[i]),
                                   uuid);
      }
    }
  }

  void CommitNotify() {
    TableUpdates updates;
    for (const auto& [key, old_row] : undo_) {
      const auto& [table_name, uuid] = key;
      TableData& data = *db_->FindTable(table_name);
      auto it = data.rows.find(uuid);
      std::optional<Row> new_row;
      if (it != data.rows.end()) new_row = it->second;
      if (!old_row && !new_row) continue;  // inserted then deleted: invisible
      if (old_row && new_row && *old_row == *new_row) continue;  // no-op
      updates[table_name][uuid] = RowUpdate{old_row, new_row};
    }
    ++db_->commit_count_;
    if (updates.empty()) return;
    // Copy the monitor list: a callback may add/remove monitors.
    std::vector<Monitor> monitors = db_->monitors_;
    for (const Monitor& monitor : monitors) {
      TableUpdates filtered = db_->FilterForMonitor(monitor, updates);
      if (!filtered.empty()) monitor.callback(filtered);
    }
  }

  Database* db_;
  std::map<std::string, Uuid> named_uuids_;
  std::map<RowKey, std::optional<Row>> undo_;
};

namespace {

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

}  // namespace

Result<Json> Database::Transact(const Json& operations) {
  Txn txn(this);
  NERPA_ASSIGN_OR_RETURN(Json results, txn.Execute(operations));
  if (!commit_hooks_.empty()) {
    Json pinned = PinInsertUuids(operations, results);
    for (const auto& [id, hook] : commit_hooks_) hook(pinned);
  }
  return results;
}

uint64_t Database::AddCommitHook(CommitHook hook) {
  uint64_t id = next_hook_id_++;
  commit_hooks_.emplace_back(id, std::move(hook));
  return id;
}

void Database::RemoveCommitHook(uint64_t id) {
  commit_hooks_.erase(
      std::remove_if(commit_hooks_.begin(), commit_hooks_.end(),
                     [id](const auto& entry) { return entry.first == id; }),
      commit_hooks_.end());
}

Result<Json> Database::TransactText(std::string_view text) {
  NERPA_ASSIGN_OR_RETURN(Json ops, Json::Parse(text));
  return Transact(ops);
}

// ---------------------------------------------------------------------------
// TxnBuilder
// ---------------------------------------------------------------------------

std::string TxnBuilder::Insert(std::string_view table,
                               std::map<std::string, Datum> columns) {
  std::string name = StrFormat("row%d", insert_count_++);
  Json::Object row;
  for (const auto& [column, datum] : columns) row[column] = datum.ToJson();
  Json::Object op;
  op["op"] = Json("insert");
  op["table"] = Json(std::string(table));
  op["row"] = Json(std::move(row));
  op["uuid-name"] = Json(name);
  ops_.push_back(Json(std::move(op)));
  return name;
}

namespace {
Json WhereToJson(const std::vector<Clause>& where) {
  Json::Array out;
  for (const Clause& clause : where) {
    out.push_back(Json(Json::Array{Json(clause.column), Json(clause.function),
                                   clause.value.ToJson()}));
  }
  return Json(std::move(out));
}
}  // namespace

void TxnBuilder::Update(std::string_view table, std::vector<Clause> where,
                        std::map<std::string, Datum> columns) {
  Json::Object row;
  for (const auto& [column, datum] : columns) row[column] = datum.ToJson();
  Json::Object op;
  op["op"] = Json("update");
  op["table"] = Json(std::string(table));
  op["where"] = WhereToJson(where);
  op["row"] = Json(std::move(row));
  ops_.push_back(Json(std::move(op)));
}

void TxnBuilder::Mutate(
    std::string_view table, std::vector<Clause> where,
    std::vector<std::tuple<std::string, std::string, Datum>> mutations) {
  Json::Array mutations_json;
  for (auto& [column, mutator, value] : mutations) {
    mutations_json.push_back(
        Json(Json::Array{Json(column), Json(mutator), value.ToJson()}));
  }
  Json::Object op;
  op["op"] = Json("mutate");
  op["table"] = Json(std::string(table));
  op["where"] = WhereToJson(where);
  op["mutations"] = Json(std::move(mutations_json));
  ops_.push_back(Json(std::move(op)));
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
  Json::Object op;
  op["op"] = Json("delete");
  op["table"] = Json(std::string(table));
  op["where"] = WhereToJson(where);
  ops_.push_back(Json(std::move(op)));
}

void TxnBuilder::AssertFence(int64_t epoch) {
  Json::Object op;
  op["op"] = Json("assert_fence");
  op["epoch"] = Json(epoch);
  ops_.push_back(Json(std::move(op)));
}

Result<std::vector<Uuid>> TxnBuilder::Commit() {
  NERPA_ASSIGN_OR_RETURN(Json results, db_->Transact(Json(std::move(ops_))));
  ops_.clear();
  insert_count_ = 0;
  std::vector<Uuid> inserted;
  for (const Json& result : results.as_array()) {
    const Json* uuid_json = result.Find("uuid");
    if (uuid_json == nullptr) continue;
    auto uuid = Uuid::Parse(uuid_json->as_array()[1].as_string());
    if (uuid) inserted.push_back(*uuid);
  }
  return inserted;
}

}  // namespace nerpa::ovsdb
