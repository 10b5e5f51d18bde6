#include "p4/runtime.h"

#include "common/strings.h"

namespace nerpa::p4 {

const char* UpdateTypeName(UpdateType type) {
  switch (type) {
    case UpdateType::kInsert: return "insert";
    case UpdateType::kModify: return "modify";
    case UpdateType::kDelete: return "delete";
  }
  return "?";
}

Result<const Table*> RuntimeClient::ValidateEntry(const TableEntry& entry,
                                                  UpdateType type) const {
  const Table* table = program().FindTable(entry.table);
  if (table == nullptr) {
    return NotFound("no table '" + entry.table + "'");
  }
  if (entry.match.size() != table->keys.size()) {
    return InvalidArgument(StrFormat(
        "table '%s' has %zu keys, entry supplies %zu", table->name.c_str(),
        table->keys.size(), entry.match.size()));
  }
  if (entry.priority != 0 && !TakesPriority(*table)) {
    return InvalidArgument(StrFormat(
        "table '%s' has no ternary, range or optional key, so its entries "
        "take no priority (got %d)", table->name.c_str(), entry.priority));
  }
  for (size_t i = 0; i < table->keys.size(); ++i) {
    const TableKey& key = table->keys[i];
    const MatchField& field = entry.match[i];
    uint64_t mask = WidthMask(key.width);
    if ((field.value & mask) != field.value) {
      return InvalidArgument(StrFormat(
          "match value %llx exceeds bit<%d> key %s of table %s",
          static_cast<unsigned long long>(field.value), key.width,
          key.field.text.c_str(), table->name.c_str()));
    }
    if (key.kind == MatchKind::kLpm &&
        (field.prefix_len < 0 || field.prefix_len > key.width)) {
      return InvalidArgument(StrFormat(
          "prefix length %d out of range for bit<%d> LPM key",
          field.prefix_len, key.width));
    }
    if (key.kind == MatchKind::kRange && field.high < field.value) {
      return InvalidArgument("range match with high < low");
    }
  }
  if (type == UpdateType::kDelete) return table;
  const Action* action = program().FindAction(entry.action);
  if (action == nullptr) {
    return NotFound("no action '" + entry.action + "'");
  }
  bool permitted = false;
  for (const std::string& allowed : table->actions) {
    if (allowed == entry.action) permitted = true;
  }
  if (!permitted) {
    return FailedPrecondition(StrFormat(
        "action '%s' is not permitted in table '%s'", action->name.c_str(),
        table->name.c_str()));
  }
  if (entry.action_args.size() != action->params.size()) {
    return InvalidArgument(StrFormat(
        "action '%s' takes %zu parameters, entry supplies %zu",
        action->name.c_str(), action->params.size(),
        entry.action_args.size()));
  }
  for (size_t i = 0; i < action->params.size(); ++i) {
    uint64_t mask = WidthMask(action->params[i].width);
    if ((entry.action_args[i] & mask) != entry.action_args[i]) {
      return InvalidArgument(StrFormat(
          "argument %llx exceeds bit<%d> parameter '%s' of action '%s'",
          static_cast<unsigned long long>(entry.action_args[i]),
          action->params[i].width, action->params[i].name.c_str(),
          action->name.c_str()));
    }
  }
  return table;
}

Status RuntimeClient::Write(const std::vector<Update>& updates) {
  NERPA_RETURN_IF_ERROR(switch_->CheckFence(fence_token_));
  resolved_.clear();
  for (const Update& update : updates) {
    NERPA_ASSIGN_OR_RETURN(const Table* table,
                           ValidateEntry(update.entry, update.type));
    resolved_.push_back(&switch_->table_state(*table));
  }
  for (size_t i = 0; i < updates.size(); ++i) {
    const Update& update = updates[i];
    TableState* table = resolved_[i];
    switch (update.type) {
      case UpdateType::kInsert:
        NERPA_RETURN_IF_ERROR(table->Insert(update.entry));
        break;
      case UpdateType::kModify:
        NERPA_RETURN_IF_ERROR(table->Modify(update.entry));
        break;
      case UpdateType::kDelete:
        NERPA_RETURN_IF_ERROR(table->Remove(update.entry));
        break;
    }
    ++write_count_;
  }
  return Status::Ok();
}

Status RuntimeClient::Insert(TableEntry entry) {
  return Write({Update{UpdateType::kInsert, std::move(entry)}});
}

Status RuntimeClient::Modify(TableEntry entry) {
  return Write({Update{UpdateType::kModify, std::move(entry)}});
}

Status RuntimeClient::Delete(TableEntry entry) {
  return Write({Update{UpdateType::kDelete, std::move(entry)}});
}

Result<std::vector<TableEntry>> RuntimeClient::ReadTable(
    std::string_view table_name) const {
  const TableState* table =
      static_cast<const Switch*>(switch_)->GetTable(table_name);
  if (table == nullptr) {
    return NotFound("no table '" + std::string(table_name) + "'");
  }
  std::vector<TableEntry> out;
  for (const TableEntry* entry : table->Entries()) out.push_back(*entry);
  return out;
}

Result<std::vector<std::pair<TableEntry, uint64_t>>>
RuntimeClient::ReadCounters(std::string_view table_name) const {
  const TableState* table =
      static_cast<const Switch*>(switch_)->GetTable(table_name);
  if (table == nullptr) {
    return NotFound("no table '" + std::string(table_name) + "'");
  }
  std::vector<std::pair<TableEntry, uint64_t>> out;
  for (const TableEntry* entry : table->Entries()) {
    out.emplace_back(*entry, entry->hit_count);
  }
  return out;
}

Status RuntimeClient::SetMulticastGroup(uint32_t group,
                                        std::vector<uint64_t> ports) {
  NERPA_RETURN_IF_ERROR(switch_->CheckFence(fence_token_));
  switch_->SetMulticastGroup(group, std::move(ports));
  ++write_count_;
  return Status::Ok();
}

Result<std::vector<std::pair<uint32_t, std::vector<uint64_t>>>>
RuntimeClient::ReadMulticastGroups() const {
  std::vector<std::pair<uint32_t, std::vector<uint64_t>>> out;
  for (const auto& [group, ports] : switch_->multicast_groups()) {
    out.emplace_back(group, ports);
  }
  return out;
}

void RuntimeClient::PollDigests() {
  if (!digest_handler_) return;
  for (const DigestMessage& digest : switch_->TakeDigests()) {
    digest_handler_(digest);
  }
}

}  // namespace nerpa::p4
