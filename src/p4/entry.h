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
#include <vector>

#include "common/flat_index.h"
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

/// The runtime contents of one table, kept flat: the entries in one dense
/// array (a removal moves the last entry into the hole), every entry's
/// MatchKey words packed into a second array at a fixed width per table,
/// and the shared open-addressing index (common/flat_index.h) over them,
/// so a write allocates no node or key.  An all-exact table answers a
/// lookup with one probe of the index; other tables scan the entries,
/// preferring the longest LPM prefix, then the highest priority.
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

  /// The program's index of the action `entry` runs (`entry` is one of
  /// this table's entries, as Lookup returns them), resolved when the
  /// entry was written; -1 when the table does not permit that action.
  int ActionIndex(const TableEntry& entry) const {
    return actions_[&entry - entries_.data()];
  }

  /// Every entry, in no particular order.  The pointers stay valid until
  /// the next write.
  std::vector<const TableEntry*> Entries() const;

  /// Per-table hit/miss counters (a tiny model of P4 direct counters).
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }

 private:
  /// Packs `entry`'s key into key_ and returns its hash; false when no
  /// entry of this table can have that key (wrong arity, or a priority on
  /// a table that ranks nothing).
  bool PackKey(const TableEntry& entry, uint64_t* hash);
  /// The index slot holding the entry whose key is `key`, or the empty
  /// slot where it would go.
  size_t Probe(const uint64_t* key, uint64_t hash) const;
  /// The entry with `entry`'s key, or -1; `*slot` is its index slot.
  int64_t Find(const TableEntry& entry, size_t* slot);
  /// The program's index of `entry`'s action (see ActionIndex).
  int ResolveAction(const TableEntry& entry) const;

  const Table* schema_;
  bool all_exact_;
  bool ranked_;  // TakesPriority(*schema_)
  size_t width_;  // key words per entry
  // Parallel, one element (width_ words for keys_) per entry.
  std::vector<TableEntry> entries_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> hashes_;
  std::vector<int32_t> actions_;
  FlatIndex index_;  // over keys_, by hashes_
  std::vector<uint64_t> key_;  // PackKey's buffer, reused across writes
  mutable uint64_t hits_ = 0;
  mutable uint64_t misses_ = 0;
};

}  // namespace nerpa::p4

#endif  // NERPA_P4_ENTRY_H_
