// Match-action table entries and the match semantics for each match kind.
//
// Entries are what the control plane writes through the P4Runtime-style API
// (runtime.h) and what a data-plane table consults per packet: the concrete
// realization of the paper's "table entries written by the control plane
// and read by the data plane" (§2.3).
#ifndef NERPA_P4_ENTRY_H_
#define NERPA_P4_ENTRY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "p4/ir.h"

namespace nerpa::p4 {

/// One key field of an entry; interpretation depends on the key's MatchKind.
struct MatchField {
  uint64_t value = 0;
  uint64_t mask = ~uint64_t{0};     // kTernary
  int prefix_len = 0;               // kLpm
  uint64_t high = 0;                // kRange: [value, high]
  bool wildcard = false;            // kOptional: match anything

  static MatchField Exact(uint64_t value);
  static MatchField Lpm(uint64_t value, int prefix_len);
  static MatchField Ternary(uint64_t value, uint64_t mask);
  static MatchField Range(uint64_t low, uint64_t high);
  static MatchField Optional(std::optional<uint64_t> value);

  /// Does a packet field value satisfy this match under `kind`/`width`?
  bool Matches(MatchKind kind, int width, uint64_t field) const;
};

/// A complete table entry.
struct TableEntry {
  std::string table;
  std::vector<MatchField> match;     // parallel to the table's keys
  int32_t priority = 0;              // higher wins (ternary/range/optional)
  std::string action;
  std::vector<uint64_t> action_args; // parallel to the action's params
  // Direct counter (packets that hit this entry); maintained by
  // TableState::Lookup, read through RuntimeClient::ReadCounters.
  mutable uint64_t hit_count = 0;

  std::string ToString() const;
};

/// An entry's P4Runtime identity within its table: for each key, the words
/// its match kind compares (exact: value; LPM: value, prefix length;
/// ternary: value, mask; range: low, high; optional: wildcard flag, value),
/// then the priority.  Modify keeps an entry's key; a different match or
/// priority names a different entry.  A table that ranks nothing (see
/// TakesPriority) holds only priority-0 entries, and their keys leave that
/// zero out, so an all-exact table's key is its looked-up field values.
using MatchKey = std::vector<uint64_t>;
MatchKey KeyOf(const Table& schema, const TableEntry& entry);

/// Does `table` rank overlapping entries by priority, i.e. has it a
/// ternary, range or optional key?  Every entry of any other table has
/// priority 0.
bool TakesPriority(const Table& table);

/// The runtime contents of one table, kept in one hash map keyed by
/// MatchKey.  An all-exact table answers a lookup with one probe; other
/// tables scan, preferring the longest LPM prefix, then the highest
/// priority.
class TableState {
 public:
  explicit TableState(const Table* schema);

  const Table& schema() const { return *schema_; }
  size_t size() const { return entries_.size(); }

  /// Inserts a new entry; error if the table is full, an entry with the
  /// same key exists, or the entry has a priority that TakesPriority()
  /// forbids (a lookup could never reach it).
  Status Insert(TableEntry entry);
  /// Replaces the action of an existing entry.
  Status Modify(const TableEntry& entry);
  /// Removes an entry by key.
  Status Remove(const TableEntry& entry);

  /// Highest-precedence entry matching `key_fields`, or nullptr on miss.
  const TableEntry* Lookup(const std::vector<uint64_t>& key_fields) const;

  /// Every entry, in no particular order.
  std::vector<const TableEntry*> Entries() const;

  /// Per-table hit/miss counters (a tiny model of P4 direct counters).
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  struct KeyHash {
    size_t operator()(const MatchKey& key) const;
  };

  const Table* schema_;
  bool all_exact_;
  std::unordered_map<MatchKey, TableEntry, KeyHash> entries_;
  mutable uint64_t hits_ = 0;
  mutable uint64_t misses_ = 0;
};

}  // namespace nerpa::p4

#endif  // NERPA_P4_ENTRY_H_
