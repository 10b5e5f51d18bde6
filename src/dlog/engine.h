// The incremental Datalog evaluator — the DDlog-equivalent runtime.
//
// A transaction supplies a batch of input-relation inserts/deletes and the
// engine returns the exact set-level delta of every output relation,
// spending work proportional to the size of the change (§1, §2.1 of the
// paper), not the size of the database.  Mechanisms:
//
//   * Derivation counting: every derived tuple carries its number of
//     derivations; downstream consumers see only set-level transitions
//     (count 0 <-> positive), giving Datalog set semantics on top of
//     weighted (z-set) deltas.
//   * Delta rules: each rule is evaluated once per body literal, with the
//     changed literal pinned to the change set, literals to its left read
//     in the post-transaction state and literals to its right in the
//     pre-transaction state (the standard bilinear expansion).
//   * Arrangements: hash indexes on (relation, key positions), planned at
//     compile time for the lookups that run after the first commit and
//     maintained incrementally; these are the memory cost the paper's
//     load-balancer worst case measures (§2.2).
//   * Stratified negation as incremental antijoin via per-arrangement
//     presence flips.
//   * Incremental group-by aggregation with persistent per-group state.
//   * Recursion by semi-naive insertion plus DRed (delete-and-rederive)
//     for deletions, with set semantics inside recursive strata.
//   * Keyed inputs (`key Rel(cols)`): an insert replaces the row holding
//     its key in the same transaction, found through an arrangement on the
//     key columns; the last insert of a key in one commit wins.
//   * Bootstrap: a commit into a completely empty engine (cold start, and
//     the fact rules at construction) runs one full evaluation per rule
//     instead of the delta expansion, with no undo log and bulk-built
//     arrangements.  Its results are byte-identical (differential-tested).
#ifndef NERPA_DLOG_ENGINE_H_
#define NERPA_DLOG_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <unordered_set>
#include <vector>

#include "common/flat_index.h"
#include "common/status.h"
#include "dlog/program.h"

namespace nerpa::dlog {

/// Weighted tuple collection (row -> weight / derivation count), kept
/// flat by arity: entry i's values sit at values_[i*arity, (i+1)*arity),
/// its memoized hash and weight beside it, and the shared open-addressing
/// index (common/flat_index.h) maps hashes to positions, so an entry
/// allocates nothing and a row of any width sits inline.  An empty map
/// takes the arity of the first row inserted (scratch maps serve
/// relations of different widths).  Iteration yields (RowView, weight)
/// pairs in arbitrary order; an erase moves the last entry into the hole,
/// and any insert or erase invalidates every iterator and view into the
/// map.  A `hash` argument is the row's hash when the caller has it; 0
/// computes it.
class ZSet {
  struct Meta {
    size_t hash;
    int64_t weight;
  };
  // The entries' hashes by position, for the index (declared first, so
  // every member below can use the deduced type).
  auto HashOf() const {
    return [this](size_t at) { return meta_[at].hash; };
  }

  template <typename Map, typename Weight>
  class Iter {
   public:
    using Entry = std::pair<RowView, Weight&>;
    Iter(Map* map, size_t at) : map_(map), at_(at) {}
    Entry operator*() const {
      return {map_->row(at_), map_->meta_[at_].weight};
    }
    struct Arrow {  // it->second names the entry's weight
      Entry entry;
      Entry* operator->() { return &entry; }
    };
    Arrow operator->() const { return {**this}; }
    Iter& operator++() {
      ++at_;
      return *this;
    }
    bool operator==(const Iter& o) const { return at_ == o.at_; }
    size_t position() const { return at_; }
    size_t hash() const { return map_->meta_[at_].hash; }

   private:
    Map* map_;
    size_t at_;
  };

 public:
  using iterator = Iter<ZSet, int64_t>;
  using const_iterator = Iter<const ZSet, const int64_t>;

  size_t size() const { return meta_.size(); }
  bool empty() const { return meta_.empty(); }
  iterator begin() { return {this, 0}; }
  iterator end() { return {this, size()}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, size()}; }
  /// The index's slot count; clear() reads it.
  size_t slot_count() const { return index_.slot_count(); }

  /// The entry of `key`, or end().
  const_iterator find(RowView key, size_t hash = 0) const {
    int64_t at = empty() ? -1 : index_.At(Probe(key, hash));
    return {this, at < 0 ? size() : static_cast<size_t>(at)};
  }
  iterator find(RowView key, size_t hash = 0) {
    return {this, std::as_const(*this).find(key, hash).position()};
  }
  size_t count(RowView key, size_t hash = 0) const {
    return find(key, hash) != end();
  }

  /// Inserts (key, weight) unless `key` is present; returns its entry and
  /// whether it was inserted.
  std::pair<iterator, bool> try_emplace(RowView key, int64_t weight = 0,
                                        size_t hash = 0) {
    if (hash == 0) hash = RowHash{}(key);
    if (empty()) arity_ = key.size();
    index_.Reserve(size() + 1, size(), HashOf());
    size_t slot = Probe(key, hash);
    if (int64_t at = index_.At(slot); at >= 0) {
      return {{this, static_cast<size_t>(at)}, false};
    }
    index_.Set(slot, size());
    values_.insert(values_.end(), key.begin(), key.end());
    meta_.push_back({hash, weight});
    return {{this, size() - 1}, true};
  }
  int64_t& operator[](RowView key) { return try_emplace(key).first->second; }
  /// Adds `weight` to the entry of `key`, erasing it when the sum is zero;
  /// returns the sum.
  int64_t Add(RowView key, int64_t weight, size_t hash = 0) {
    iterator it = try_emplace(key, 0, hash).first;
    int64_t sum = it->second += weight;
    if (sum == 0) erase(it);
    return sum;
  }

  size_t erase(RowView key, size_t hash = 0) {
    if (empty()) return 0;
    size_t slot = Probe(key, hash);
    if (index_.At(slot) < 0) return 0;
    EraseSlot(slot);
    return 1;
  }
  void erase(iterator it) {
    const size_t at = it.position();
    EraseSlot(index_.Probe(it.hash(), [at](size_t i) { return i == at; }));
  }

  /// Makes room for `n` entries of `arity` values (or of the map's arity,
  /// unless it is empty) without rehashing.
  void reserve(size_t n, size_t arity) {
    if (n == 0) return;
    if (empty()) arity_ = arity;
    index_.Reserve(n, size(), HashOf());
    values_.reserve(n * arity_);
    meta_.reserve(n);
  }

  /// Empties the map.  Capacity stays for the next use of similar size,
  /// unless it far exceeds the size cleared (as after one huge
  /// transaction): then the map keeps room for twice that size only.
  void clear() {
    if (slot_count() > 64 + 8 * size()) {
      const size_t keep = 2 * size(), arity = arity_;
      *this = ZSet();
      reserve(keep, arity);
    } else {
      index_.Clear();
      values_.clear();
      meta_.clear();
    }
  }

 private:
  /// The values of the entry at `at`.
  RowView row(size_t at) const {
    return {values_.data() + at * arity_, arity_};
  }
  size_t Probe(RowView key, size_t hash) const {
    if (hash == 0) hash = RowHash{}(key);
    return index_.Probe(hash, [&](size_t at) {
      return meta_[at].hash == hash && std::ranges::equal(row(at), key);
    });
  }
  void EraseSlot(size_t slot) {
    const size_t at = static_cast<size_t>(index_.At(slot));
    const size_t last = size() - 1;
    index_.Remove(slot, size(), HashOf());
    if (at != last) {
      std::copy_n(values_.begin() + last * arity_, arity_,
                  values_.begin() + at * arity_);
      meta_[at] = meta_[last];
    }
    values_.resize(last * arity_);
    meta_.pop_back();
  }

  std::vector<Value> values_;
  std::vector<Meta> meta_;
  size_t arity_ = 0;
  FlatIndex index_;
};

using RowSet = std::unordered_set<Row, RowHash, RowEq>;

/// A set-level relation delta: rows with +1 (inserted) or -1 (deleted).
using SetDelta = std::vector<std::pair<Row, int>>;

/// The result of a transaction: per-output-relation set deltas, sorted for
/// determinism.
struct TxnDelta {
  std::map<std::string, SetDelta> outputs;

  bool empty() const;
  std::string ToString() const;
};

struct EngineOptions {
  /// Ablation switch: when false, no arrangements (hash join indexes) are
  /// built or consulted — every join lookup scans the relation and filters
  /// by key.  Saves the index memory E5 measures, at the join cost the
  /// ablation bench quantifies.  Programs with negation are rejected in
  /// this mode (incremental antijoin needs arrangement presence flips).
  bool use_arrangements = true;
};

class Engine {
 public:
  /// Builds runtime state for `program` and evaluates fact rules; their
  /// effect on outputs is available via TakeInitialDelta().
  explicit Engine(std::shared_ptr<const Program> program,
                  EngineOptions options = {});
  ~Engine();

  const Program& program() const { return *program_; }

  /// Queues an insert/delete of `row` into an input relation.  The change
  /// takes effect at Commit().  Duplicate inserts and deletes of absent
  /// rows are ignored at commit time (set semantics), matching DDlog, and
  /// an insert into a keyed relation replaces the row holding its key.
  Status Insert(std::string_view relation, Row row);
  Status Delete(std::string_view relation, Row row);

  /// Applies all queued changes as one transaction; returns the output
  /// deltas.  On error (e.g. a division by zero inside a rule) the queued
  /// changes are discarded and every partial effect — derivation counts,
  /// arrangements, and aggregation state — is rolled back, so the engine
  /// is exactly as it was before the failed Commit().
  Result<TxnDelta> Commit();

  /// Output rows derived from fact rules at construction time.
  TxnDelta TakeInitialDelta();

  // --- Checkpointing (between transactions) ---

  /// Serializes the engine's full derived state — relation contents with
  /// derivation counts plus aggregation group state — into a compact
  /// versioned binary blob prefixed with a fingerprint of the compiled
  /// program.  Arrangements are not stored; Restore() rebuilds them with
  /// one linear pass (no join re-evaluation).
  std::string SerializeState() const;

  /// Restores an engine from a SerializeState() blob: validates the format
  /// version and program fingerprint, loads relation counts and
  /// aggregation state, and rebuilds arrangements.  The restored engine is
  /// byte-identical to the one that produced the blob (same Dump() output,
  /// same deltas for subsequent commits); its initial delta is empty.
  /// Fails (so callers fall back to recomputing) on any mismatch or
  /// truncation, and on state the engine could not evaluate: rows that do
  /// not fit their relation's column types, two rows under one input key,
  /// aggregate group keys and bindings that do not fit the planned
  /// aggregate, or impossible counts.
  static Result<std::unique_ptr<Engine>> Restore(
      std::shared_ptr<const Program> program, std::string_view blob,
      EngineOptions options = {});

  /// Fingerprint binding a checkpoint to the program that produced it:
  /// hashes the program's canonical text and the blob format version.
  uint64_t StateFingerprint() const;

  // --- Introspection (between transactions) ---

  /// Sorted set-level contents of any relation.
  Result<std::vector<Row>> Dump(std::string_view relation) const;
  bool Contains(std::string_view relation, const Row& row) const;
  size_t Size(std::string_view relation) const;

  struct Stats {
    size_t tuples = 0;              // total tuples across relations
    size_t arrangement_entries = 0; // total indexed rows across arrangements
    size_t arrangement_bytes = 0;   // approx. resident bytes of all indexes
    uint64_t rule_firings = 0;      // cumulative sink invocations
    uint64_t transactions = 0;
    // --- hot-path counters (cumulative) ---
    uint64_t probes = 0;            // arrangement lookups issued
    uint64_t probe_hits = 0;        // lookups that found a non-empty bucket
    uint64_t scans = 0;             // unindexed (full or filtered) scans
    uint64_t key_rows_materialized = 0;  // key Rows built (index maintenance)
    uint64_t key_allocs_saved = 0;  // probes served by a scratch-span key
                                    // (each was one heap Row pre-interning)
    /// Process-wide intern pool (shared across engines).
    InternPoolStats intern;
  };
  Stats GetStats() const;

 private:
  class Txn;  // transaction processor (engine.cc); persistent so its
              // scratch buffers and hash-table capacity carry across
              // commits (no per-transaction rehash ramp-up)

  /// One hash index over a relation, per its compile-time ArrangementSpec.
  struct Arrangement {
    std::unordered_map<Row, RowSet, RowHash, RowEq> index;
    // Per-transaction presence flips of keys: +1 bucket became non-empty,
    // -1 became empty.  Drives pinned negated literals; kept only when the
    // spec's records_flips says one reads them.
    ZSet flips;
    // Per-transaction deleted rows by key, for OLD-state lookups; kept only
    // when the spec's records_deleted says one reads them.
    std::unordered_map<Row, std::vector<Row>, RowHash, RowEq> deleted;
  };

  struct RelState {
    ZSet counts;                      // derivation counts, always > 0
    std::vector<Arrangement> arrangements;
    // This txn's set-level delta (+1/-1).  A relation folds once per txn,
    // so its -1 rows are the rows OLD-mode scans add back.
    ZSet set_delta;
    bool dirty = false;               // touched this txn (bounds Cleanup)
  };

  /// Persistent aggregation state: group key -> binding row -> count.
  struct AggState {
    std::unordered_map<Row, ZSet, RowHash, RowEq> groups;
  };

  int RelationId(std::string_view name) const;

  /// Tag for the Restore() constructor: build runtime state but skip the
  /// initial fact-evaluation transaction.
  struct RestoreTag {};
  Engine(std::shared_ptr<const Program> program, EngineOptions options,
         RestoreTag);
  /// Shared constructor body: sizes runtime structures, validates option
  /// compatibility, creates the transaction processor.
  void InitRuntime();

  std::shared_ptr<const Program> program_;
  EngineOptions options_;
  std::unique_ptr<Txn> txn_;
  std::vector<RelState> relations_;
  std::vector<AggState> agg_states_;
  std::vector<std::tuple<int, Row, int>> pending_;  // (relation, row, +-1)
  TxnDelta initial_delta_;
  // Cumulative counters (see Stats); the transaction processor bumps them
  // as it works.
  uint64_t rule_firings_ = 0;
  uint64_t transactions_ = 0;
  uint64_t probes_ = 0;
  uint64_t probe_hits_ = 0;
  uint64_t scans_ = 0;
  uint64_t key_rows_materialized_ = 0;
  uint64_t key_allocs_saved_ = 0;
};

}  // namespace nerpa::dlog

#endif  // NERPA_DLOG_ENGINE_H_
