#include "p4/entry.h"

#include <algorithm>

#include "common/strings.h"

namespace nerpa::p4 {

MatchField MatchField::Exact(uint64_t value) {
  MatchField f;
  f.value = value;
  return f;
}

MatchField MatchField::Lpm(uint64_t value, int prefix_len) {
  MatchField f;
  f.value = value;
  f.prefix_len = prefix_len;
  return f;
}

MatchField MatchField::Ternary(uint64_t value, uint64_t mask) {
  MatchField f;
  f.value = value & mask;
  f.mask = mask;
  return f;
}

MatchField MatchField::Range(uint64_t low, uint64_t high) {
  MatchField f;
  f.value = low;
  f.high = high;
  return f;
}

MatchField MatchField::Optional(std::optional<uint64_t> value) {
  MatchField f;
  if (value) {
    f.value = *value;
  } else {
    f.wildcard = true;
  }
  return f;
}

bool MatchField::Matches(MatchKind kind, int width, uint64_t field) const {
  switch (kind) {
    case MatchKind::kExact:
      return field == value;
    case MatchKind::kLpm: {
      if (prefix_len <= 0) return true;
      uint64_t mask_bits =
          prefix_len >= width ? WidthMask(width)
                              : WidthMask(width) ^ WidthMask(width - prefix_len);
      return (field & mask_bits) == (value & mask_bits);
    }
    case MatchKind::kTernary:
      return (field & mask) == value;
    case MatchKind::kRange:
      return field >= value && field <= high;
    case MatchKind::kOptional:
      return wildcard || field == value;
  }
  return false;
}

std::string TableEntry::ToString() const {
  std::string out = table + "[";
  for (size_t i = 0; i < match.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("%llx", static_cast<unsigned long long>(match[i].value));
  }
  out += "] -> " + action + "(";
  for (size_t i = 0; i < action_args.size(); ++i) {
    if (i > 0) out += ", ";
    out += StrFormat("%llx",
                     static_cast<unsigned long long>(action_args[i]));
  }
  return out + ")";
}

MatchKey KeyOf(const Table& schema, const TableEntry& entry) {
  MatchKey key;
  key.reserve(2 * entry.match.size() + 1);
  for (size_t i = 0; i < entry.match.size(); ++i) {
    const MatchField& f = entry.match[i];
    switch (schema.keys[i].kind) {
      case MatchKind::kExact:
        key.push_back(f.value);
        break;
      case MatchKind::kLpm:
        key.insert(key.end(), {f.value, static_cast<uint64_t>(f.prefix_len)});
        break;
      case MatchKind::kTernary:
        key.insert(key.end(), {f.value, f.mask});
        break;
      case MatchKind::kRange:
        key.insert(key.end(), {f.value, f.high});
        break;
      case MatchKind::kOptional:
        key.insert(key.end(), {f.wildcard ? 1u : 0u, f.wildcard ? 0 : f.value});
        break;
    }
  }
  if (entry.priority != 0 || TakesPriority(schema)) {
    key.push_back(static_cast<uint64_t>(entry.priority));
  }
  return key;
}

bool TakesPriority(const Table& table) {
  return std::any_of(table.keys.begin(), table.keys.end(),
                     [](const TableKey& key) {
                       return key.kind == MatchKind::kTernary ||
                              key.kind == MatchKind::kRange ||
                              key.kind == MatchKind::kOptional;
                     });
}

size_t TableState::KeyHash::operator()(const MatchKey& key) const {
  uint64_t h = 0;
  for (uint64_t word : key) {
    h = (h ^ word) * 0x9e3779b97f4a7c15ULL + (h >> 29);
  }
  return h;
}

TableState::TableState(const Table* schema)
    : schema_(schema),
      all_exact_(std::all_of(
          schema->keys.begin(), schema->keys.end(),
          [](const TableKey& key) { return key.kind == MatchKind::kExact; })) {}

Status TableState::Insert(TableEntry entry) {
  if (entry.priority != 0 && !TakesPriority(*schema_)) {
    return InvalidArgument("table '" + schema_->name +
                           "' ranks no entries, so priority must be 0");
  }
  if (entries_.size() >= schema_->size) {
    return ConstraintError("table '" + schema_->name + "' is full");
  }
  auto [it, inserted] = entries_.try_emplace(KeyOf(*schema_, entry));
  if (!inserted) {
    return AlreadyExists("entry already exists in table '" + schema_->name +
                         "': " + entry.ToString());
  }
  it->second = std::move(entry);
  return Status::Ok();
}

Status TableState::Modify(const TableEntry& entry) {
  auto it = entries_.find(KeyOf(*schema_, entry));
  if (it == entries_.end()) {
    return NotFound("no such entry in table '" + schema_->name + "': " +
                    entry.ToString());
  }
  it->second.action = entry.action;
  it->second.action_args = entry.action_args;
  return Status::Ok();
}

Status TableState::Remove(const TableEntry& entry) {
  if (entries_.erase(KeyOf(*schema_, entry)) == 0) {
    return NotFound("no such entry in table '" + schema_->name + "': " +
                    entry.ToString());
  }
  return Status::Ok();
}

const TableEntry* TableState::Lookup(
    const std::vector<uint64_t>& key_fields) const {
  const TableEntry* best = nullptr;
  if (all_exact_) {
    auto it = entries_.find(key_fields);
    if (it != entries_.end()) best = &it->second;
  } else {
    // Scan, keeping the best (longest LPM prefix sum, then highest
    // priority) match.
    int best_prefix = -1;
    for (const auto& [key, entry] : entries_) {
      bool all = true;
      int prefix_sum = 0;
      for (size_t i = 0; i < schema_->keys.size(); ++i) {
        const TableKey& tk = schema_->keys[i];
        if (!entry.match[i].Matches(tk.kind, tk.width, key_fields[i])) {
          all = false;
          break;
        }
        if (tk.kind == MatchKind::kLpm) prefix_sum += entry.match[i].prefix_len;
      }
      if (!all) continue;
      if (best == nullptr || prefix_sum > best_prefix ||
          (prefix_sum == best_prefix && entry.priority > best->priority)) {
        best = &entry;
        best_prefix = prefix_sum;
      }
    }
  }
  if (best != nullptr) {
    ++hits_;
    ++best->hit_count;
  } else {
    ++misses_;
  }
  return best;
}

std::vector<const TableEntry*> TableState::Entries() const {
  std::vector<const TableEntry*> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(&entry);
  return out;
}

}  // namespace nerpa::p4
