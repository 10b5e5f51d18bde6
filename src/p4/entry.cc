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

namespace {

/// Appends the words `entry`'s match fields contribute to its MatchKey.
void AppendMatchWords(const Table& schema, const TableEntry& entry,
                      std::vector<uint64_t>& key) {
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
}

uint64_t HashWords(const uint64_t* words, size_t count) {
  uint64_t h = count;
  for (size_t i = 0; i < count; ++i) {
    h = (h ^ words[i]) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 31;
  }
  // The index masks the low bits, so fold the high ones into them.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  return h ^ (h >> 33);
}

}  // namespace

MatchKey KeyOf(const Table& schema, const TableEntry& entry) {
  MatchKey key;
  key.reserve(2 * entry.match.size() + 1);
  AppendMatchWords(schema, entry, key);
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

TableState::TableState(const Table* schema)
    : schema_(schema),
      all_exact_(std::all_of(
          schema->keys.begin(), schema->keys.end(),
          [](const TableKey& key) { return key.kind == MatchKind::kExact; })),
      ranked_(TakesPriority(*schema)),
      width_(ranked_ ? 1 : 0) {
  for (const TableKey& key : schema->keys) {
    width_ += key.kind == MatchKind::kExact ? 1 : 2;
  }
  index_.Reserve(0, 0, [](size_t) { return uint64_t{0}; });
}

bool TableState::PackKey(const TableEntry& entry, uint64_t* hash) {
  if (entry.match.size() != schema_->keys.size() ||
      (entry.priority != 0 && !ranked_)) {
    return false;
  }
  key_.clear();
  AppendMatchWords(*schema_, entry, key_);
  if (ranked_) key_.push_back(static_cast<uint64_t>(entry.priority));
  *hash = HashWords(key_.data(), width_);
  return true;
}

size_t TableState::Probe(const uint64_t* key, uint64_t hash) const {
  return index_.Probe(hash, [&](size_t at) {
    return hashes_[at] == hash &&
           std::equal(key, key + width_, keys_.begin() + at * width_);
  });
}

int64_t TableState::Find(const TableEntry& entry, size_t* slot) {
  uint64_t hash = 0;
  if (!PackKey(entry, &hash)) return -1;
  *slot = Probe(key_.data(), hash);
  return index_.At(*slot);
}

int TableState::ResolveAction(const TableEntry& entry) const {
  const std::vector<int>& indices = schema_->action_indices;
  for (size_t i = 0; i < indices.size(); ++i) {
    if (schema_->actions[i] == entry.action) return indices[i];
  }
  return -1;
}

Status TableState::Insert(TableEntry entry) {
  if (entry.priority != 0 && !ranked_) {
    return InvalidArgument("table '" + schema_->name +
                           "' ranks no entries, so priority must be 0");
  }
  if (entries_.size() >= schema_->size) {
    return ConstraintError("table '" + schema_->name + "' is full");
  }
  uint64_t hash = 0;
  if (!PackKey(entry, &hash)) {
    return InvalidArgument(StrFormat(
        "table '%s' has %zu keys, entry supplies %zu", schema_->name.c_str(),
        schema_->keys.size(), entry.match.size()));
  }
  index_.Reserve(entries_.size() + 1, entries_.size(),
                 [&](size_t at) { return hashes_[at]; });
  size_t slot = Probe(key_.data(), hash);
  if (index_.At(slot) >= 0) {
    return AlreadyExists("entry already exists in table '" + schema_->name +
                         "': " + entry.ToString());
  }
  index_.Set(slot, entries_.size());
  keys_.insert(keys_.end(), key_.begin(), key_.end());
  hashes_.push_back(hash);
  actions_.push_back(ResolveAction(entry));
  entries_.push_back(std::move(entry));
  return Status::Ok();
}

Status TableState::Modify(const TableEntry& entry) {
  size_t slot = 0;
  int64_t at = Find(entry, &slot);
  if (at < 0) {
    return NotFound("no such entry in table '" + schema_->name + "': " +
                    entry.ToString());
  }
  entries_[at].action = entry.action;
  entries_[at].action_args = entry.action_args;
  actions_[at] = ResolveAction(entry);
  return Status::Ok();
}

Status TableState::Remove(const TableEntry& entry) {
  size_t slot = 0;
  int64_t at = Find(entry, &slot);
  if (at < 0) {
    return NotFound("no such entry in table '" + schema_->name + "': " +
                    entry.ToString());
  }
  index_.Remove(slot, entries_.size(),
                [&](size_t i) { return hashes_[i]; });
  // Move the last entry into the freed position.
  const size_t last = entries_.size() - 1;
  if (static_cast<size_t>(at) != last) {
    entries_[at] = std::move(entries_[last]);
    std::copy_n(keys_.begin() + last * width_, width_,
                keys_.begin() + at * width_);
    hashes_[at] = hashes_[last];
    actions_[at] = actions_[last];
  }
  entries_.pop_back();
  keys_.resize(last * width_);
  hashes_.pop_back();
  actions_.pop_back();
  return Status::Ok();
}

const TableEntry* TableState::Lookup(
    const std::vector<uint64_t>& key_fields) const {
  const TableEntry* best = nullptr;
  if (all_exact_) {
    if (key_fields.size() == width_) {
      int64_t at = index_.At(Probe(key_fields.data(),
                                   HashWords(key_fields.data(), width_)));
      if (at >= 0) best = &entries_[at];
    }
  } else {
    // Scan, keeping the best (longest LPM prefix sum, then highest
    // priority) match.
    int best_prefix = -1;
    for (const TableEntry& entry : entries_) {
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
  for (const TableEntry& entry : entries_) out.push_back(&entry);
  return out;
}

}  // namespace nerpa::p4
