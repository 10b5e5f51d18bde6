#include "dlog/engine.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <optional>
#include <utility>

#include "common/hash.h"
#include "common/log.h"
#include "common/strings.h"
#include "dlog/eval.h"

namespace nerpa::dlog {

bool TxnDelta::empty() const {
  for (const auto& [name, delta] : outputs) {
    if (!delta.empty()) return false;
  }
  return true;
}

std::string TxnDelta::ToString() const {
  std::string out;
  for (const auto& [name, delta] : outputs) {
    for (const auto& [row, weight] : delta) {
      out += StrFormat("%s %s%s\n", weight > 0 ? "+" : "-", name.c_str(),
                       RowToString(row).c_str());
    }
  }
  return out;
}

namespace {

/// Lexicographic row order (used for deterministic output deltas).
bool RowLess(const Row& a, const Row& b) { return a < b; }

/// Projects `row`'s arrangement key into a reusable scratch buffer;
/// returns a borrowed view (no heap allocation).
RowView ProjectInto(RowView row, const std::vector<int>& positions,
                    ValueVec& buf) {
  buf.clear();
  for (int p : positions) buf.push_back(row[static_cast<size_t>(p)]);
  return RowView(buf.data(), buf.size());
}

}  // namespace

// ---------------------------------------------------------------------------
// Transaction processor.
// ---------------------------------------------------------------------------

class Engine::Txn {
 public:
  /// Which snapshot of a relation a lookup reads.
  enum class Mode { kOld, kNew };

  /// Overlay for relations inside the recursive stratum being processed:
  /// rows in `removed` (unless also in `removed_except`) are hidden, rows in
  /// `added` are visible.  The base is always the pre-fold state.
  struct RelOverlay {
    const RowSet* removed = nullptr;
    const RowSet* removed_except = nullptr;
    const RowSet* added = nullptr;
    // Per-arrangement index of `added` rows (parallel to the relation's
    // arrangement list).
    const std::vector<std::unordered_map<Row, std::vector<Row>, RowHash,
                                         RowEq>>* added_index = nullptr;
  };
  using Overlay = std::unordered_map<int, RelOverlay>;

  explicit Txn(Engine* engine)
      : e_(*engine), program_(*engine->program_) {
    // Pre-size the per-step-depth scratch buffers to the deepest rule body,
    // so recursive ExecSteps frames can hold references into them without
    // any resize invalidating an outer frame's buffer.
    size_t max_steps = 1;
    for (const CompiledRule& rule : program_.rules()) {
      max_steps = std::max(max_steps, rule.steps.size());
    }
    key_buffers_.resize(max_steps);
    trail_buffers_.resize(max_steps);
  }

  /// Runs the queued inputs as one transaction.  "The engine is empty"
  /// is the only selector between the bootstrap and incremental paths.
  Result<TxnDelta> Run() {
    ApplyKeys();
    if (EngineIsEmpty()) return RunBootstrap();
    Status status = Execute();
    if (!status.ok()) {
      // Failed Commit() contract: undo every partial effect so the engine
      // is byte-identical to its pre-transaction state.
      Rollback();
      Cleanup();
      return status;
    }
    TxnDelta out = CollectOutputs();
    ResetLogs();
    Cleanup();
    ++e_.transactions_;
    return out;
  }

  /// Linear pass over a relation's contents inserting every row into every
  /// arrangement index (bulk build: reserve once, no flip/deleted
  /// recording).  Used by the bootstrap fold and checkpoint restore.
  void BuildArrangements(int rel) {
    if (!e_.options_.use_arrangements) return;
    RelState& state = e_.relations_[static_cast<size_t>(rel)];
    const auto& specs = program_.arrangements()[static_cast<size_t>(rel)];
    for (size_t a = 0; a < specs.size(); ++a) {
      const std::vector<int>& positions = specs[a].key_positions;
      Arrangement& arr = state.arrangements[a];
      arr.index.reserve(state.counts.size());
      for (const auto& [row, count] : state.counts) {
        RowView key = ProjectInto(row, positions, arr_key_buf_);
        auto it = arr.index.find(key);
        if (it == arr.index.end()) {
          ++e_.key_rows_materialized_;
          it = arr.index.emplace(MaterializeKey(key), RowSet{}).first;
        }
        it->second.emplace(row);
      }
    }
  }

 private:
  Status Execute() {
    NERPA_RETURN_IF_ERROR(ApplyInputs());
    for (const Stratum& stratum : program_.strata()) {
      if (stratum.recursive) {
        NERPA_RETURN_IF_ERROR(ProcessRecursive(stratum));
      } else {
        NERPA_RETURN_IF_ERROR(ProcessNonRecursive(stratum));
      }
    }
    return Status::Ok();
  }

  /// Empties the undo logs, returning outsized capacity (the Txn persists
  /// across transactions, so capacity follows the typical delta size).
  void ResetLogs() {
    if (fold_log_.capacity() > 65536) {
      std::vector<FoldRecord>{}.swap(fold_log_);
      std::vector<Value>{}.swap(fold_values_);
    } else {
      fold_log_.clear();
      fold_values_.clear();
    }
    if (agg_log_.capacity() > 65536) {
      std::vector<AggRecord>{}.swap(agg_log_);
    } else {
      agg_log_.clear();
    }
  }

  /// Replays the undo logs in reverse through the same fold functions (with
  /// logging disabled), restoring derivation counts, arrangements, and
  /// aggregation state exactly.
  void Rollback() {
    overlay_ = nullptr;
    ZSet& inverse = delta_scratch_;
    inverse.clear();  // a failed stratum may leave heads behind
    rolling_back_ = true;
    for (auto it = agg_log_.rbegin(); it != agg_log_.rend(); ++it) {
      AggState& state = e_.agg_states_[static_cast<size_t>(it->state_index)];
      ZSet& group = state.groups[it->group];
      group.Add(it->binding, -it->weight);
      if (group.empty()) state.groups.erase(it->group);
    }
    agg_log_.clear();
    size_t end = fold_values_.size();
    for (auto it = fold_log_.rbegin(); it != fold_log_.rend(); ++it) {
      end -= it->arity;
      inverse.try_emplace(RowView(fold_values_.data() + end, it->arity),
                          -it->weight);
      // LIFO replay walks each count back along the path it came, so
      // every intermediate value is the (non-negative) original.
      Status s = Fold(it->rel, inverse, /*set_level=*/false);
      assert(s.ok());
      (void)s;
      inverse.clear();
    }
    fold_log_.clear();
    fold_values_.clear();
    rolling_back_ = false;
  }

  // --- Folding deltas into relation state ---

  /// Marks `rel` as touched this transaction so Cleanup() and rollback
  /// only visit relations proportional to the change.
  void MarkDirty(int rel) {
    RelState& state = e_.relations_[static_cast<size_t>(rel)];
    if (!state.dirty) {
      state.dirty = true;
      dirty_rels_.push_back(rel);
    }
  }

  static Row MaterializeKey(RowView key) {
    return Row(key.data(), key.size());
  }

  /// One presence transition per entry; rows borrowed from the caller.
  using ArrDelta = std::vector<std::pair<RowView, int>>;

  /// Batched index maintenance: applies a whole transition batch to each
  /// arrangement in turn (one spec/arrangement fetch per batch instead of
  /// per row), recording presence flips and per-key deletions where the
  /// spec says a reader uses them.  Probe keys are assembled in a scratch
  /// buffer; a key Row is materialized only when a bucket is created (or
  /// first recorded in deleted).
  void ApplyArrangementDelta(int rel, const ArrDelta& delta) {
    if (!e_.options_.use_arrangements || delta.empty()) return;
    RelState& state = e_.relations_[static_cast<size_t>(rel)];
    const auto& specs = program_.arrangements()[static_cast<size_t>(rel)];
    for (size_t a = 0; a < specs.size(); ++a) {
      const ArrangementSpec& spec = specs[a];
      Arrangement& arr = state.arrangements[a];
      for (const auto& [row, direction] : delta) {
        RowView key = ProjectInto(row, spec.key_positions, arr_key_buf_);
        if (direction > 0) {
          auto it = arr.index.find(key);
          if (it == arr.index.end()) {
            ++e_.key_rows_materialized_;
            it = arr.index.emplace(MaterializeKey(key), RowSet{}).first;
            if (spec.records_flips) arr.flips.Add(key, +1);
          }
          it->second.emplace(row);
        } else {
          auto it = arr.index.find(key);
          if (it == arr.index.end()) continue;
          if (auto held = it->second.find(row); held != it->second.end()) {
            it->second.erase(held);
          }
          if (spec.records_deleted) {
            auto del = arr.deleted.find(key);
            if (del == arr.deleted.end()) {
              ++e_.key_rows_materialized_;
              del = arr.deleted.emplace(MaterializeKey(key),
                                        std::vector<Row>{}).first;
            }
            del->second.emplace_back(row);
          }
          if (it->second.empty()) {
            arr.index.erase(it);
            if (spec.records_flips) arr.flips.Add(key, -1);
          }
        }
      }
    }
  }

  /// Folds `delta` into the derivation counts of `rel`, deriving its
  /// set-level transitions, the arrangement batch and the undo log.  Each
  /// weight adds to its row's count (non-recursive derived relations); with
  /// `set_level` its sign sets the row present with count 1 or absent
  /// (inputs and recursive strata).  Zero weights change nothing.
  Status Fold(int rel, const ZSet& delta, bool set_level) {
    if (delta.empty()) return Status::Ok();
    MarkDirty(rel);
    RelState& state = e_.relations_[static_cast<size_t>(rel)];
    // Rows borrowed from `delta`, which no fold here mutates.
    ArrDelta transitions;
    for (auto entry = delta.begin(); entry != delta.end(); ++entry) {
      auto [row, weight] = *entry;
      if (weight == 0) continue;
      auto [it, inserted] = state.counts.try_emplace(row, 0, entry.hash());
      const int64_t old_count = it->second;
      const int64_t new_count =
          set_level ? (weight > 0 ? 1 : 0) : old_count + weight;
      if (new_count < 0) {
        if (inserted) state.counts.erase(it);
        ApplyArrangementDelta(rel, transitions);  // keep state coherent
        return Internal(StrFormat(
            "negative derivation count for %s in relation '%s'",
            RowToString(Row(row)).c_str(),
            program_.relation(rel).name.c_str()));
      }
      if (new_count == 0) {
        state.counts.erase(it);
      } else {
        it->second = new_count;
      }
      if (new_count == old_count) continue;
      if (!rolling_back_) {
        fold_log_.push_back(FoldRecord{rel, static_cast<uint32_t>(row.size()),
                                       new_count - old_count});
        fold_values_.insert(fold_values_.end(), row.begin(), row.end());
      }
      if ((old_count == 0) != (new_count == 0)) {
        const int direction = new_count > 0 ? +1 : -1;
        transitions.emplace_back(row, direction);
        state.set_delta.Add(row, direction, entry.hash());
      }
    }
    ApplyArrangementDelta(rel, transitions);
    return Status::Ok();
  }

  // --- Reading relations (old/new + overlay) ---

  const RelOverlay* FindOverlay(int rel) const {
    if (overlay_ == nullptr) return nullptr;
    auto it = overlay_->find(rel);
    return it == overlay_->end() ? nullptr : &it->second;
  }

  static bool OverlayHides(const RelOverlay& ov, RowView row) {
    if (ov.removed != nullptr && ov.removed->count(row) != 0) {
      return !(ov.removed_except != nullptr &&
               ov.removed_except->count(row) != 0);
    }
    return false;
  }

  /// Invokes `fn(row)` for every row of `rel` matching `key` under the
  /// given arrangement, mode and the active overlay.  `key` is a borrowed
  /// view (scratch buffer or a Row's span) — probes never materialize a
  /// key Row.  `fn` returns false to stop early; ForEachMatch then returns
  /// false.
  template <typename Fn>
  bool ForEachMatch(int rel, int arrangement, RowView key, Mode mode,
                    Fn&& fn) {
    RelState& state = e_.relations_[static_cast<size_t>(rel)];
    const RelOverlay* ov = FindOverlay(rel);
    // OLD-mode reads skip the rows this transaction inserted and add back
    // the ones it deleted; hoist the (common) no-delta case so clean
    // relations pay no per-row lookup.
    const ZSet* txn_delta =
        mode == Mode::kOld && !state.set_delta.empty() ? &state.set_delta
                                                       : nullptr;
    auto visible = [&](RowView row, size_t hash) {
      if (ov != nullptr && OverlayHides(*ov, row)) return false;
      if (txn_delta == nullptr) return true;
      auto d = txn_delta->find(row, hash);
      return d == txn_delta->end() || d->second < 0;
    };
    if (arrangement >= 0 && e_.options_.use_arrangements) {
      ++e_.probes_;
      ++e_.key_allocs_saved_;
      Arrangement& arr = state.arrangements[static_cast<size_t>(arrangement)];
      auto bucket = arr.index.find(key);
      if (bucket != arr.index.end()) {
        ++e_.probe_hits_;
        for (const Row& row : bucket->second) {
          if (visible(row, row.Hash()) && !fn(row)) return false;
        }
      }
      if (mode == Mode::kOld) {
        auto deleted = arr.deleted.find(key);
        if (deleted != arr.deleted.end()) {
          for (const Row& row : deleted->second) {
            if (!fn(row)) return false;
          }
        }
      }
      if (ov != nullptr && ov->added_index != nullptr) {
        const auto& added_arr =
            (*ov->added_index)[static_cast<size_t>(arrangement)];
        auto added = added_arr.find(key);
        if (added != added_arr.end()) {
          for (const Row& row : added->second) {
            if (!fn(row)) return false;
          }
        }
      }
      return true;
    }
    // A scan: of every row, or (ablation mode) of the rows holding `key` at
    // the arrangement's key positions.
    ++e_.scans_;
    const std::vector<int>* positions = nullptr;
    if (arrangement >= 0) {
      positions = &program_.arrangements()[static_cast<size_t>(rel)]
                                          [static_cast<size_t>(arrangement)]
                       .key_positions;
    }
    auto matches_key = [&](RowView row) {
      for (size_t k = 0; positions != nullptr && k < positions->size(); ++k) {
        if (!(row[static_cast<size_t>((*positions)[k])] == key[k])) {
          return false;
        }
      }
      return true;
    };
    for (auto it = state.counts.begin(); it != state.counts.end(); ++it) {
      RowView row = (*it).first;
      if (visible(row, it.hash()) && matches_key(row) && !fn(row)) {
        return false;
      }
    }
    if (txn_delta != nullptr) {
      for (const auto& [row, d] : *txn_delta) {
        if (d < 0 && matches_key(row) && !fn(row)) return false;
      }
    }
    if (ov != nullptr && ov->added != nullptr) {
      for (const Row& row : *ov->added) {
        if (matches_key(row) && !fn(row)) return false;
      }
    }
    return true;
  }

  /// Presence test for negation: does any row of `rel` match `key`?
  bool AnyMatch(int rel, int arrangement, RowView key, Mode mode) {
    bool found = false;
    ForEachMatch(rel, arrangement, key, mode, [&](RowView) {
      found = true;
      return false;
    });
    return found;
  }

  // --- The join executor ---

  /// Binds `row` against `terms`, returning false on mismatch.  Newly bound
  /// slots are appended to `trail` for later unbinding.
  bool MatchTerms(const std::vector<TermPlan>& terms, RowView row,
                  std::vector<int>& trail) {
    for (size_t p = 0; p < terms.size(); ++p) {
      const TermPlan& term = terms[p];
      switch (term.kind) {
        case TermPlan::Kind::kIgnore:
          break;
        case TermPlan::Kind::kCheckConst:
          if (!(row[p] == term.constant)) return false;
          break;
        case TermPlan::Kind::kBind:
        case TermPlan::Kind::kCheckVar: {
          size_t slot = static_cast<size_t>(term.slot);
          // Affine head terms (bigint only): slot value = row value -
          // offset, wrapping as the head's `+` did.
          Value value = term.offset == 0
                            ? row[p]
                            : Value::Int(static_cast<int64_t>(
                                  static_cast<uint64_t>(row[p].as_int()) -
                                  static_cast<uint64_t>(term.offset)));
          if (bound_[slot]) {
            if (!(frame_[slot] == value)) return false;
          } else {
            frame_[slot] = std::move(value);
            bound_[slot] = 1;
            trail.push_back(term.slot);
          }
          break;
        }
      }
    }
    return true;
  }

  void Unbind(const std::vector<int>& trail, size_t from) {
    for (size_t i = from; i < trail.size(); ++i) {
      bound_[static_cast<size_t>(trail[i])] = 0;
    }
  }

  /// Assembles the lookup key for a literal from currently bound slots
  /// into a per-step scratch buffer (reused across probes; keys stay alive
  /// through deeper recursion because each step depth owns its buffer).
  RowView BuildKey(const StepPlan& step, const std::vector<int>& positions,
                   size_t step_index) {
    if (key_buffers_.size() <= step_index) {
      key_buffers_.resize(step_index + 1);
    }
    ValueVec& buf = key_buffers_[step_index];
    buf.clear();
    for (int p : positions) {
      const TermPlan& term = step.terms[static_cast<size_t>(p)];
      if (term.kind == TermPlan::Kind::kCheckConst) {
        buf.push_back(term.constant);
      } else {
        buf.push_back(frame_[static_cast<size_t>(term.slot)]);
      }
    }
    return RowView(buf.data(), buf.size());
  }

  /// Context for one rule-body execution.
  struct Exec {
    const CompiledRule* rule = nullptr;
    const std::vector<LookupPlan>* lookups = nullptr;
    int skip_step = -1;   // pinned literal (already bound), or -1
    bool delta_modes = false;  // true: j<skip_step NEW, j>skip_step OLD
    Mode uniform_mode = Mode::kNew;  // used when !delta_modes
    bool stop_at_aggregate = false;
  };

  Mode StepMode(const Exec& exec, int step_index) const {
    if (!exec.delta_modes) return exec.uniform_mode;
    return step_index < exec.skip_step ? Mode::kNew : Mode::kOld;
  }

  /// Recursively executes body steps from `step_index` on; `lookup_index`
  /// tracks the position in exec.lookups.  Sink(frame) is called for each
  /// satisfying assignment (at the aggregate step when stop_at_aggregate).
  template <typename Sink>
  Status ExecSteps(const Exec& exec, size_t step_index, size_t lookup_index,
                   Sink&& sink) {
    const CompiledRule& rule = *exec.rule;
    if (step_index >= rule.steps.size()) {
      ++e_.rule_firings_;
      return sink(frame_);
    }
    if (static_cast<int>(step_index) == exec.skip_step) {
      return ExecSteps(exec, step_index + 1, lookup_index,
                       std::forward<Sink>(sink));
    }
    const StepPlan& step = rule.steps[step_index];
    switch (step.kind) {
      case BodyElem::Kind::kLiteral: {
        const LookupPlan& lookup = (*exec.lookups)[lookup_index];
        assert(lookup.step_index == static_cast<int>(step_index));
        Mode mode = StepMode(exec, static_cast<int>(step_index));
        RowView key = BuildKey(step, lookup.key_positions, step_index);
        if (step.negated) {
          bool present;
          if (lookup.arrangement >= 0 || !lookup.key_positions.empty()) {
            present = AnyMatch(step.relation, lookup.arrangement, key, mode);
          } else {
            present = RelationNonEmpty(step.relation, mode);
          }
          if (present) return Status::Ok();  // antijoin: branch dies
          return ExecSteps(exec, step_index + 1, lookup_index + 1,
                           std::forward<Sink>(sink));
        }
        Status status = Status::Ok();
        // Per-depth trail scratch (pre-sized in the ctor): rebinding per
        // matched row never heap-allocates.
        std::vector<int>& trail = trail_buffers_[step_index];
        ForEachMatch(step.relation, lookup.arrangement, key, mode,
                     [&](RowView row) {
                       trail.clear();
                       if (MatchTerms(step.terms, row, trail)) {
                         Status s =
                             ExecSteps(exec, step_index + 1, lookup_index + 1,
                                       sink);
                         if (!s.ok()) {
                           status = s;
                           Unbind(trail, 0);
                           return false;
                         }
                       }
                       Unbind(trail, 0);
                       return true;
                     });
        return status;
      }
      case BodyElem::Kind::kCondition: {
        NERPA_ASSIGN_OR_RETURN(Value v, EvalExpr(*step.condition, frame_));
        if (!v.as_bool()) return Status::Ok();
        return ExecSteps(exec, step_index + 1, lookup_index,
                         std::forward<Sink>(sink));
      }
      case BodyElem::Kind::kAssignment: {
        NERPA_ASSIGN_OR_RETURN(Value v, EvalExpr(*step.expr, frame_));
        size_t slot = static_cast<size_t>(step.slot);
        frame_[slot] = std::move(v);
        bound_[slot] = 1;
        Status s = ExecSteps(exec, step_index + 1, lookup_index,
                             std::forward<Sink>(sink));
        bound_[slot] = 0;
        return s;
      }
      case BodyElem::Kind::kFlatMap: {
        NERPA_ASSIGN_OR_RETURN(Value v, EvalExpr(*step.expr, frame_));
        size_t slot = static_cast<size_t>(step.slot);
        for (const Value& elem : v.as_tuple()) {
          frame_[slot] = elem;
          bound_[slot] = 1;
          Status s = ExecSteps(exec, step_index + 1, lookup_index, sink);
          bound_[slot] = 0;
          NERPA_RETURN_IF_ERROR(s);
        }
        return Status::Ok();
      }
      case BodyElem::Kind::kAggregate: {
        if (exec.stop_at_aggregate) {
          ++e_.rule_firings_;
          return sink(frame_);
        }
        return Internal("aggregate reached in non-aggregate execution");
      }
    }
    return Internal("bad step kind");
  }

  bool RelationNonEmpty(int rel, Mode mode) {
    RelState& state = e_.relations_[static_cast<size_t>(rel)];
    const RelOverlay* ov = FindOverlay(rel);
    if (mode == Mode::kNew && ov == nullptr) return !state.counts.empty();
    // Rare path: count visible rows until one is found.
    bool found = false;
    ForEachMatch(rel, -1, RowView{}, mode, [&](RowView) {
      found = true;
      return false;
    });
    return found;
  }

  /// Prepares the frame for `rule` and runs `body(trail)`.
  template <typename Body>
  Status WithFrame(const CompiledRule& rule, Body&& body) {
    frame_.assign(static_cast<size_t>(rule.frame_size), Value());
    bound_.assign(static_cast<size_t>(rule.frame_size), 0);
    return body();
  }

  /// One full evaluation of `rule` in original body order, every literal
  /// read NEW; sink() runs per satisfying assignment.
  template <typename Sink>
  Status EvalFull(const CompiledRule& rule, bool stop_at_aggregate,
                  Sink&& sink) {
    Exec exec{.rule = &rule,
              .lookups = &rule.full_plan.lookups,
              .stop_at_aggregate = stop_at_aggregate};
    return WithFrame(rule, [&]() -> Status {
      return ExecSteps(exec, 0, 0,
                       [&](std::vector<Value>&) -> Status { return sink(); });
    });
  }

  /// Evaluates the head expressions into a scratch row, valid until the
  /// next call.  All-bare-variable heads (the common case) gather straight
  /// from frame slots — no expression evaluation on the emit hot path.
  Result<RowView> HeadRow(const CompiledRule& rule) {
    head_buf_.clear();
    if (rule.head_all_vars) {
      for (int slot : rule.head_var_slots) {
        head_buf_.push_back(frame_[static_cast<size_t>(slot)]);
      }
      return RowView(head_buf_);
    }
    for (const ExprPtr& expr : rule.head_exprs) {
      NERPA_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr, frame_));
      head_buf_.push_back(v);
    }
    return RowView(head_buf_);
  }

  // --- Delta-plan driving ---

  /// Which pinned changes a delta-plan pass replays, by the sign of the
  /// derivation weight they carry: a deleted row, or a negated key that
  /// became present, retracts (-1); their mirror images derive (+1).
  enum class Changes { kAll, kRetractions, kDerivations };

  /// The pinned-change driver: runs one delta variant of `rule` for every
  /// change of its pinned literal that `changes` selects — the set-delta
  /// rows of a positive pin, the key presence flips of a negated one (or
  /// whole-relation emptiness when its key is empty) — and feeds each
  /// satisfying assignment's weight into `sink`.  With `uniform`, every
  /// other literal reads that snapshot (recursive strata); without it,
  /// literals left of the pin read NEW and those right of it OLD (the
  /// bilinear expansion).
  template <typename Sink>
  Status ProcessDeltaPlan(const CompiledRule& rule, const DeltaPlan& plan,
                          Changes changes, std::optional<Mode> uniform,
                          bool stop_at_aggregate, Sink&& sink) {
    const StepPlan& pinned =
        rule.steps[static_cast<size_t>(plan.pinned_step)];
    Exec exec{.rule = &rule,
              .lookups = &plan.lookups,
              .skip_step = plan.pinned_step,
              .delta_modes = !uniform.has_value(),
              .uniform_mode = uniform.value_or(Mode::kNew),
              .stop_at_aggregate = stop_at_aggregate};
    // Runs the rest of the body for one change of weight `w`, once `bind`
    // has bound the pinned literal's variables (false: no match).
    auto replay = [&](int64_t w, auto&& bind) -> Status {
      if (changes != Changes::kAll &&
          (w < 0) != (changes == Changes::kRetractions)) {
        return Status::Ok();
      }
      return WithFrame(rule, [&]() -> Status {
        if (!bind()) return Status::Ok();
        return ExecSteps(exec, 0, 0,
                         [&](std::vector<Value>&) { return sink(w); });
      });
    };

    RelState& pinned_state =
        e_.relations_[static_cast<size_t>(pinned.relation)];
    // The pinned changes are read in place: no fold runs until every rule
    // of the stratum has fired, so no set_delta or flips moves meanwhile.
    if (!pinned.negated) {
      // The pinned step is skipped by ExecSteps, so its trail is free.
      std::vector<int>& trail =
          trail_buffers_[static_cast<size_t>(plan.pinned_step)];
      for (const auto& [row, weight] : pinned_state.set_delta) {
        NERPA_RETURN_IF_ERROR(replay(weight, [&] {
          trail.clear();
          return MatchTerms(pinned.terms, row, trail);
        }));
      }
      return Status::Ok();
    }
    // Pinned negated literal: driven by presence flips of its key.
    if (plan.pinned_arrangement >= 0) {
      Arrangement& arr =
          pinned_state.arrangements[static_cast<size_t>(
              plan.pinned_arrangement)];
      const ArrangementSpec& spec =
          program_.arrangements()[static_cast<size_t>(pinned.relation)]
                                 [static_cast<size_t>(plan.pinned_arrangement)];
      for (const auto& [key, flip] : arr.flips) {
        // A key that became present blocks derivations: weight -flip.
        NERPA_RETURN_IF_ERROR(replay(-flip, [&] {
          return BindNegatedKey(pinned, spec.key_positions, key);
        }));
      }
      return Status::Ok();
    }
    // Negated literal with an empty key: whole-relation emptiness flip.
    size_t inserted = 0, deleted = 0;
    for (const auto& [row, d] : pinned_state.set_delta) {
      if (d > 0) ++inserted;
      else ++deleted;
    }
    bool old_nonempty = pinned_state.counts.size() + deleted - inserted > 0;
    bool new_nonempty = !pinned_state.counts.empty();
    if (old_nonempty == new_nonempty) return Status::Ok();
    return replay(new_nonempty ? -1 : +1, [] { return true; });
  }

  /// Binds a negated pin's arrangement key (the atom's non-ignored
  /// `positions`, in order) into the frame.  A variable repeated in the
  /// atom must take one value at every position: a key (1, 2) binds
  /// nothing for `not B(a, a)`.  Returns false on a mismatch.
  bool BindNegatedKey(const StepPlan& pinned,
                      const std::vector<int>& positions, RowView key) {
    for (size_t k = 0; k < positions.size(); ++k) {
      const TermPlan& term = pinned.terms[static_cast<size_t>(positions[k])];
      if (term.kind == TermPlan::Kind::kCheckConst) {
        if (!(key[k] == term.constant)) return false;
        continue;
      }
      size_t slot = static_cast<size_t>(term.slot);
      if (bound_[slot]) {
        if (!(frame_[slot] == key[k])) return false;
      } else {
        frame_[slot] = key[k];
        bound_[slot] = 1;
      }
    }
    return true;
  }

  // --- Aggregation ---

  Row CollectSlots(const std::vector<int>& slots) {
    Row out;
    out.reserve(slots.size());
    for (int slot : slots) out.push_back(frame_[static_cast<size_t>(slot)]);
    return out;
  }

  /// Aggregate result over a group's current (count > 0) binding rows; the
  /// aggregate argument value is the last element of each binding row.
  std::optional<Value> ComputeAgg(const StepPlan& step, const ZSet& group) {
    if (group.empty()) return std::nullopt;
    switch (step.agg_func) {
      case AggFunc::kCount:
        return Value::Int(static_cast<int64_t>(group.size()));
      case AggFunc::kSum: {
        // Unsigned, so an overflowing sum wraps instead of being undefined.
        uint64_t total = 0;
        bool is_bit = step.result_type.kind == Type::Kind::kBit;
        for (const auto& [binding, count] : group) {
          total += static_cast<uint64_t>(binding.back().NumericAsInt());
        }
        return is_bit ? Value::Bit(step.result_type.MaskBits(total))
                      : Value::Int(static_cast<int64_t>(total));
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        std::optional<Value> best;
        for (const auto& [binding, count] : group) {
          const Value& v = binding.back();
          if (!best) {
            best = v;
          } else if (step.agg_func == AggFunc::kMin ? v < *best : *best < v) {
            best = v;
          }
        }
        return best;
      }
    }
    return std::nullopt;
  }

  /// Processes one aggregate rule: collects binding deltas via its delta
  /// plans (plus init full eval), updates the persistent group state, and
  /// emits head count deltas for dirty groups.
  Status ProcessAggRule(const CompiledRule& rule, ZSet& head_delta) {
    const StepPlan& agg =
        rule.steps[static_cast<size_t>(rule.aggregate_step)];
    // group key -> (binding row -> weight)
    std::unordered_map<Row, ZSet, RowHash, RowEq> collected;

    auto collect = [&](int64_t weight) -> Status {
      Row group = CollectSlots(agg.group_slots);
      Row binding = CollectSlots(agg.binding_slots);
      NERPA_ASSIGN_OR_RETURN(Value arg, EvalExpr(*agg.agg_arg, frame_));
      binding.push_back(std::move(arg));
      collected[group].Add(binding, weight);
      return Status::Ok();
    };

    for (const DeltaPlan& plan : rule.delta_plans) {
      NERPA_RETURN_IF_ERROR(ProcessDeltaPlan(rule, plan, Changes::kAll,
                                             std::nullopt,
                                             /*stop_at_aggregate=*/true,
                                             collect));
    }
    if (collected.empty()) return Status::Ok();

    AggState& state =
        e_.agg_states_[static_cast<size_t>(agg.agg_state_index)];
    for (auto& [group, delta] : collected) {
      ZSet& group_state = state.groups[group];
      std::optional<Value> old_result = ComputeAgg(agg, group_state);
      for (const auto& [binding, weight] : delta) {
        agg_log_.push_back(
            AggRecord{agg.agg_state_index, group, Row(binding), weight});
        if (group_state.Add(binding, weight) < 0) {
          return Internal("negative aggregation support count");
        }
      }
      std::optional<Value> new_result = ComputeAgg(agg, group_state);
      if (group_state.empty()) state.groups.erase(group);
      if (old_result == new_result) continue;
      // Emit head transitions with the group frame.
      frame_.assign(static_cast<size_t>(rule.frame_size), Value());
      bound_.assign(static_cast<size_t>(rule.frame_size), 0);
      for (size_t g = 0; g < agg.group_slots.size(); ++g) {
        size_t slot = static_cast<size_t>(agg.group_slots[g]);
        frame_[slot] = group[g];
        bound_[slot] = 1;
      }
      if (old_result) {
        frame_[static_cast<size_t>(agg.result_slot)] = *old_result;
        bound_[static_cast<size_t>(agg.result_slot)] = 1;
        NERPA_ASSIGN_OR_RETURN(RowView row, HeadRow(rule));
        head_delta.Add(row, -1);
      }
      if (new_result) {
        frame_[static_cast<size_t>(agg.result_slot)] = *new_result;
        bound_[static_cast<size_t>(agg.result_slot)] = 1;
        NERPA_ASSIGN_OR_RETURN(RowView row, HeadRow(rule));
        head_delta.Add(row, +1);
      }
    }
    return Status::Ok();
  }

  // --- Stratum processing ---

  Status ProcessNonRecursive(const Stratum& stratum) {
    // Non-recursive SCCs contain exactly one relation.
    int head_rel = stratum.relations[0];
    // Scratch z-set reused across strata and transactions, and empty
    // between them: steady-state commits accumulate head rows with zero
    // rehashes.  (A sorted stage-sort-net buffer was measured here and
    // lost: sorting fat (Row, weight) pairs costs more than a warm hash
    // index.)
    ZSet& head_delta = delta_scratch_;
    for (int rule_index : stratum.rules) {
      const CompiledRule& rule =
          program_.rules()[static_cast<size_t>(rule_index)];
      if (rule.has_aggregate) {
        NERPA_RETURN_IF_ERROR(ProcessAggRule(rule, head_delta));
        continue;
      }
      auto emit = [&](int64_t weight) -> Status {
        NERPA_ASSIGN_OR_RETURN(RowView row, HeadRow(rule));
        head_delta.Add(row, weight);
        return Status::Ok();
      };
      for (const DeltaPlan& plan : rule.delta_plans) {
        NERPA_RETURN_IF_ERROR(ProcessDeltaPlan(rule, plan, Changes::kAll,
                                               std::nullopt,
                                               /*stop_at_aggregate=*/false,
                                               emit));
      }
    }
    Status folded = Fold(head_rel, head_delta, /*set_level=*/false);
    head_delta.clear();
    return folded;
  }

  // --- Recursive strata: semi-naive insertion + DRed deletion ---

  struct SccWork {
    RowSet overdeleted;
    RowSet rederived;
    RowSet inserted;
    std::vector<std::unordered_map<Row, std::vector<Row>, RowHash, RowEq>>
        inserted_index;  // parallel to the relation's arrangements
  };
  using SccWorkMap = std::unordered_map<int, SccWork>;

  SccWorkMap NewSccWork(const Stratum& stratum) const {
    SccWorkMap work;
    for (int rel : stratum.relations) {
      work[rel].inserted_index.resize(
          program_.arrangements()[static_cast<size_t>(rel)].size());
    }
    return work;
  }

  /// Fires every rule of `stratum` pinned (positively) on tuple `row` of
  /// SCC relation `rel`, reading the rest of each body in `mode`, and hands
  /// each derived head to `emit(head_relation, head)`.
  template <typename Emit>
  Status FirePinnedOn(const Stratum& stratum, int rel, const Row& row,
                      Mode mode, Emit&& emit) {
    for (int rule_index : stratum.rules) {
      const CompiledRule& rule =
          program_.rules()[static_cast<size_t>(rule_index)];
      for (const DeltaPlan& plan : rule.delta_plans) {
        const StepPlan& pinned =
            rule.steps[static_cast<size_t>(plan.pinned_step)];
        if (pinned.relation != rel || pinned.negated) continue;
        Exec exec{.rule = &rule,
                  .lookups = &plan.lookups,
                  .skip_step = plan.pinned_step,
                  .uniform_mode = mode};
        std::vector<int>& trail =
            trail_buffers_[static_cast<size_t>(plan.pinned_step)];
        NERPA_RETURN_IF_ERROR(WithFrame(rule, [&]() -> Status {
          trail.clear();
          if (!MatchTerms(pinned.terms, row, trail)) return Status::Ok();
          return ExecSteps(exec, 0, 0, [&](std::vector<Value>&) -> Status {
            NERPA_ASSIGN_OR_RETURN(RowView head, HeadRow(rule));
            emit(rule.head_relation, head);
            return Status::Ok();
          });
        }));
      }
    }
    return Status::Ok();
  }

  /// Semi-naive insertion for one recursive stratum over the base state
  /// minus `work`'s overdeleted (and not rederived) tuples: `seed(insert)`
  /// derives the first tuples, then every rule pinned on each newly
  /// inserted tuple fires, reading NEW, until nothing new appears.  New
  /// tuples collect in work[rel].inserted.  Shared by the incremental path
  /// and the bootstrap, which differ only in how they seed.
  template <typename Seed>
  Status InsertSemiNaive(const Stratum& stratum, SccWorkMap& work,
                         Seed&& seed) {
    Overlay overlay;
    for (auto& [rel, w] : work) {
      RelOverlay& ov = overlay[rel];
      ov.removed = &w.overdeleted;
      ov.removed_except = &w.rederived;
      ov.added = &w.inserted;
      ov.added_index = &w.inserted_index;
    }
    std::vector<std::pair<int, Row>> derived;   // heads of the running pass
    std::vector<std::pair<int, Row>> worklist;  // (relation, tuple)
    auto insert = [&](int rel, RowView row) {
      derived.emplace_back(rel, row);
    };
    // A pass iterates the overlay's containers, so the heads it derives
    // join the overlay only after it returns.  Each new tuple still meets
    // every other one: the later of the two fires with the earlier visible.
    auto flush = [&] {
      for (auto& [rel, row] : derived) {
        SccWork& w = work[rel];
        if (w.inserted.count(row) != 0) continue;
        // Present in the working state already?
        RelState& state = e_.relations_[static_cast<size_t>(rel)];
        bool base_present = state.counts.count(row, row.Hash()) != 0 &&
                            !(w.overdeleted.count(row) != 0 &&
                              w.rederived.count(row) == 0);
        if (base_present) continue;
        w.inserted.insert(row);
        const auto& specs =
            program_.arrangements()[static_cast<size_t>(rel)];
        for (size_t a = 0; a < specs.size(); ++a) {
          RowView key =
              ProjectInto(row, specs[a].key_positions, arr_key_buf_);
          auto& index = w.inserted_index[a];
          auto it = index.find(key);
          if (it == index.end()) {
            ++e_.key_rows_materialized_;
            it = index.emplace(MaterializeKey(key), std::vector<Row>{}).first;
          }
          it->second.push_back(row);
        }
        worklist.emplace_back(rel, std::move(row));
      }
      derived.clear();
    };
    overlay_ = &overlay;
    Status status = seed(insert);
    flush();
    while (status.ok() && !worklist.empty()) {
      auto [rel, row] = std::move(worklist.back());
      worklist.pop_back();
      status = FirePinnedOn(stratum, rel, row, Mode::kNew, insert);
      flush();
    }
    overlay_ = nullptr;
    return status;
  }

  Status ProcessRecursive(const Stratum& stratum) {
    SccWorkMap work = NewSccWork(stratum);
    auto in_scc = [&](int rel) { return work.count(rel) != 0; };

    // Does any external dependency carry a delta?  (Cheap early-out.)
    bool external_change = false;
    for (int rule_index : stratum.rules) {
      const CompiledRule& rule =
          program_.rules()[static_cast<size_t>(rule_index)];
      for (const StepPlan& step : rule.steps) {
        if (step.kind != BodyElem::Kind::kLiteral || in_scc(step.relation)) {
          continue;
        }
        RelState& state = e_.relations_[static_cast<size_t>(step.relation)];
        if (!state.set_delta.empty()) external_change = true;
      }
    }
    if (!external_change) return Status::Ok();

    // ---- Phase 1: overdelete, then rederive (DRed). ----
    // Seeds: retractions through external pins, everything read OLD.
    std::vector<std::pair<int, Row>> worklist;  // (relation, tuple)
    auto overdelete = [&](int rel, RowView row) {
      SccWork& w = work[rel];
      if (w.overdeleted.count(row) != 0) return;
      RelState& state = e_.relations_[static_cast<size_t>(rel)];
      if (state.counts.count(row) == 0) return;  // not present before txn
      w.overdeleted.emplace(row);
      worklist.emplace_back(rel, row);
    };
    // External pins drive one direction each phase: retractions here,
    // derivations in phase 2.  (SCC pins fire through the worklists.)
    auto for_external_pins = [&](Changes changes, Mode mode,
                                 auto&& emit) -> Status {
      for (int rule_index : stratum.rules) {
        const CompiledRule& rule =
            program_.rules()[static_cast<size_t>(rule_index)];
        for (const DeltaPlan& plan : rule.delta_plans) {
          if (in_scc(rule.steps[static_cast<size_t>(plan.pinned_step)]
                         .relation)) {
            continue;
          }
          NERPA_RETURN_IF_ERROR(ProcessDeltaPlan(
              rule, plan, changes, mode, /*stop_at_aggregate=*/false,
              [&](int64_t) -> Status {
                NERPA_ASSIGN_OR_RETURN(RowView head, HeadRow(rule));
                emit(rule.head_relation, head);
                return Status::Ok();
              }));
        }
      }
      return Status::Ok();
    };
    NERPA_RETURN_IF_ERROR(
        for_external_pins(Changes::kRetractions, Mode::kOld, overdelete));
    // Propagate overdeletion through SCC literals (all OLD state).
    while (!worklist.empty()) {
      auto [rel, row] = std::move(worklist.back());
      worklist.pop_back();
      NERPA_RETURN_IF_ERROR(
          FirePinnedOn(stratum, rel, row, Mode::kOld, overdelete));
    }

    // Rederive: a tuple survives if some rule body still derives it from
    // the non-overdeleted remainder (externals read NEW).
    Overlay rederive_overlay;
    for (int rel : stratum.relations) {
      RelOverlay ov;
      ov.removed = &work[rel].overdeleted;
      ov.removed_except = &work[rel].rederived;
      rederive_overlay[rel] = ov;
    }
    size_t total_overdeleted = 0;
    for (int rel : stratum.relations) {
      total_overdeleted += work[rel].overdeleted.size();
    }
    if (total_overdeleted <= 32) {
      // Small overdeletion: per-tuple backward re-derivation is cheapest.
      bool changed = true;
      while (changed) {
        changed = false;
        for (int rel : stratum.relations) {
          SccWork& w = work[rel];
          for (const Row& row : w.overdeleted) {
            if (w.rederived.count(row) != 0) continue;
            NERPA_ASSIGN_OR_RETURN(
                bool derivable,
                CanRederive(stratum, rel, row, &rederive_overlay));
            if (derivable) {
              w.rederived.insert(row);
              changed = true;
            }
          }
        }
      }
    } else {
      // Large overdeletion (dense graphs): forward semi-naive passes over
      // the surviving state, keeping any head that was overdeleted but is
      // still derivable.  Each pass is one full stratum evaluation; passes
      // bound by the re-derivation depth.
      overlay_ = &rederive_overlay;
      bool changed = true;
      while (changed) {
        changed = false;
        for (int rule_index : stratum.rules) {
          const CompiledRule& rule =
              program_.rules()[static_cast<size_t>(rule_index)];
          SccWork& w = work[rule.head_relation];
          auto keep = [&]() -> Status {
            NERPA_ASSIGN_OR_RETURN(RowView head, HeadRow(rule));
            if (w.overdeleted.count(head) != 0 &&
                w.rederived.count(head) == 0) {
              w.rederived.emplace(head);
              changed = true;
            }
            return Status::Ok();
          };
          Status status = EvalFull(rule, /*stop_at_aggregate=*/false, keep);
          overlay_ = nullptr;
          NERPA_RETURN_IF_ERROR(status);
          overlay_ = &rederive_overlay;
        }
      }
      overlay_ = nullptr;
    }

    // ---- Phase 2: semi-naive insertion over the post-deletion state. ----
    NERPA_RETURN_IF_ERROR(
        InsertSemiNaive(stratum, work, [&](auto& insert) -> Status {
          return for_external_pins(Changes::kDerivations, Mode::kNew,
                                   insert);
        }));

    // ---- Fold the net changes. ----
    ZSet& delta = delta_scratch_;
    for (int rel : stratum.relations) {
      SccWork& w = work[rel];
      for (const Row& row : w.overdeleted) {
        if (w.rederived.count(row) != 0) continue;
        if (w.inserted.count(row) != 0) continue;  // net zero
        delta.try_emplace(row, -1, row.Hash());
      }
      for (const Row& row : w.inserted) {
        // An overdeleted tuple that phase 2 re-inserted was present all
        // along: net zero, like the skip above.
        if (w.overdeleted.count(row) != 0) continue;
        delta.try_emplace(row, +1, row.Hash());
      }
      NERPA_RETURN_IF_ERROR(Fold(rel, delta, /*set_level=*/true));
      delta.clear();
    }
    return Status::Ok();
  }

  /// Is `row` of SCC relation `rel` derivable under `overlay` (externals
  /// NEW)?  Uses the head-inverted re-derivation plan.
  Result<bool> CanRederive(const Stratum& stratum, int rel, const Row& row,
                           Overlay* overlay) {
    overlay_ = overlay;
    bool derivable = false;
    for (int rule_index : stratum.rules) {
      if (derivable) break;
      const CompiledRule& rule =
          program_.rules()[static_cast<size_t>(rule_index)];
      if (rule.head_relation != rel) continue;
      Exec exec{.rule = &rule, .lookups = &rule.rederive_plan.lookups};
      Status status = WithFrame(rule, [&]() -> Status {
        std::vector<int> trail;
        if (!MatchTerms(rule.head_pattern, row, trail)) return Status::Ok();
        return ExecSteps(exec, 0, 0, [&](std::vector<Value>&) -> Status {
          derivable = true;
          // Early exit: report a sentinel error swallowed below.
          return FailedPrecondition("__found__");
        });
      });
      if (!status.ok() && status.message() != "__found__") {
        overlay_ = nullptr;
        return status;
      }
    }
    overlay_ = nullptr;
    return derivable;
  }

  // --- Inputs / outputs / cleanup ---

  /// Input keys: an insert into a keyed relation replaces the row holding
  /// its key.  Walks the queued ops in order and queues the holder's delete
  /// ahead of each insert that displaces it, so the last insert of a key in
  /// one commit wins.  Both input paths then net the ops as usual, and a
  /// rollback restores a replaced row like any deleted one.
  void ApplyKeys() {
    auto& pending = e_.pending_;
    if (std::none_of(pending.begin(), pending.end(), [&](const auto& op) {
          return program_.key_arrangement(std::get<0>(op)) >= 0;
        })) {
      return;
    }
    std::vector<std::tuple<int, Row, int>> ops;
    // (relation, key) -> the row holding it after the ops so far, or empty.
    std::map<std::pair<int, Row>, Row> holders;
    for (auto& op : pending) {
      const auto& [rel, row, direction] = op;
      if (int arr = program_.key_arrangement(rel); arr >= 0) {
        const ArrangementSpec& spec = program_.arrangements()
            [static_cast<size_t>(rel)][static_cast<size_t>(arr)];
        auto [it, fresh] = holders.try_emplace(
            {rel, MaterializeKey(
                      ProjectInto(row, spec.key_positions, arr_key_buf_))});
        Row& holder = it->second;
        if (fresh) {
          ForEachMatch(rel, arr, it->first.second.span(), Mode::kNew,
                       [&](RowView held) {
                         holder = Row(held);
                         return false;  // a key holds at most one row
                       });
        }
        if (direction < 0) {
          if (holder == row) holder = Row{};
        } else {
          if (!holder.empty() && holder != row) {
            ops.emplace_back(rel, holder, -1);
          }
          holder = row;
        }
      }
      ops.push_back(std::move(op));
    }
    pending.swap(ops);
  }

  /// Nets the queued ops relation by relation, in relation order: the
  /// last op on a row decides, and one that leaves the row as it was
  /// before the commit nets to weight 0, which the fold skips.
  Status ApplyInputs() {
    auto& pending = e_.pending_;
    std::stable_sort(pending.begin(), pending.end(),
                     [](const auto& a, const auto& b) {
                       return std::get<0>(a) < std::get<0>(b);
                     });
    ZSet& net = delta_scratch_;
    for (size_t i = 0; i < pending.size();) {
      const int rel = std::get<0>(pending[i]);
      const ZSet& counts = e_.relations_[static_cast<size_t>(rel)].counts;
      for (; i < pending.size() && std::get<0>(pending[i]) == rel; ++i) {
        const auto& [r, row, direction] = pending[i];
        const size_t hash = row.Hash();
        const bool present = counts.count(row, hash) != 0;
        net.try_emplace(row, 0, hash).first->second =
            present == (direction > 0) ? 0 : direction;
      }
      NERPA_RETURN_IF_ERROR(Fold(rel, net, /*set_level=*/true));
      net.clear();
    }
    pending.clear();
    return Status::Ok();
  }

  TxnDelta CollectOutputs() {
    TxnDelta out;
    // Only relations touched this transaction can carry a delta.
    for (int rel : dirty_rels_) {
      const RelationDecl& decl =
          program_.relations()[static_cast<size_t>(rel)];
      if (decl.role != RelationRole::kOutput) continue;
      RelState& state = e_.relations_[static_cast<size_t>(rel)];
      if (state.set_delta.empty()) continue;
      SetDelta delta;
      delta.reserve(state.set_delta.size());
      for (const auto& [row, d] : state.set_delta) {
        delta.emplace_back(row, d > 0 ? +1 : -1);
      }
      std::sort(delta.begin(), delta.end(),
                [](const auto& a, const auto& b) {
                  if (a.second != b.second) return a.second < b.second;
                  return RowLess(a.first, b.first);
                });
      out.outputs[decl.name] = std::move(delta);
    }
    return out;
  }

  // --- Bootstrap: full evaluation into a completely empty engine ---
  //
  // The delta-rule expansion is wasted work when the engine holds nothing:
  // every delta variant except "pinned on the last-bound positive literal"
  // joins against empty OLD state, the undo log records a fold per derived
  // row that rollback could replace with "wipe to empty", and set-delta
  // bookkeeping tracks transitions that are all trivially 0 -> 1.  So a
  // transaction against an empty engine runs here instead: one full
  // evaluation per rule in uniform NEW mode against the already-folded
  // lower strata, bulk-built arrangements, and no per-row undo/delta
  // bookkeeping.  Outputs are byte-identical to the incremental path
  // (differential-tested); rollback is a wipe back to empty.

  bool EngineIsEmpty() const {
    for (const RelState& state : e_.relations_) {
      if (!state.counts.empty()) return false;
    }
    for (const AggState& agg : e_.agg_states_) {
      if (!agg.groups.empty()) return false;
    }
    return true;
  }

  Result<TxnDelta> RunBootstrap() {
    Status status = ExecuteBootstrap();
    if (!status.ok()) {
      WipeToEmpty();
      return status;
    }
    TxnDelta out = std::exchange(bootstrap_delta_, TxnDelta{});
    for (int rel : dirty_rels_) {
      e_.relations_[static_cast<size_t>(rel)].dirty = false;
    }
    dirty_rels_.clear();
    ++e_.transactions_;
    return out;
  }

  Status ExecuteBootstrap() {
    ApplyInputsBootstrap();
    for (const Stratum& stratum : program_.strata()) {
      if (stratum.recursive) {
        NERPA_RETURN_IF_ERROR(BootstrapRecursive(stratum));
      } else {
        NERPA_RETURN_IF_ERROR(BootstrapNonRecursive(stratum));
      }
    }
    return Status::Ok();
  }

  /// Nets the queued inputs straight into relation counts.  Last op per
  /// (relation, row) wins, so the batch is walked backwards and the first
  /// op seen decides; tombstones are tracked only for final deletes (a
  /// bootstrap batch — e.g. a monitor full dump — is typically all
  /// inserts, so the common case allocates nothing extra).
  void ApplyInputsBootstrap() {
    std::unordered_map<int, RowSet> final_deletes;
    for (auto it = e_.pending_.rbegin(); it != e_.pending_.rend(); ++it) {
      const auto& [rel, row, direction] = *it;
      if (direction > 0) {
        auto fd = final_deletes.find(rel);
        if (fd != final_deletes.end() && fd->second.count(row) != 0) continue;
        RelState& state = e_.relations_[static_cast<size_t>(rel)];
        if (state.counts.try_emplace(row, 1, row.Hash()).second) {
          MarkDirty(rel);
        }
      } else {
        final_deletes[rel].insert(row);
      }
    }
    e_.pending_.clear();
    for (int rel : dirty_rels_) BuildArrangements(rel);
  }

  /// Appends `rule`'s head row for the current frame to `out`.  The
  /// all-bare-variable head gathers in place, skipping the Result<Row>
  /// plumbing entirely — this runs once per derived tuple during cold
  /// start, the single hottest call in a bootstrap.
  Status EmitBootstrapHead(const CompiledRule& rule, std::vector<Row>& out) {
    if (rule.head_all_vars) {
      Row& row = out.emplace_back();
      row.reserve(rule.head_var_slots.size());
      for (int slot : rule.head_var_slots) {
        row.push_back(frame_[static_cast<size_t>(slot)]);
      }
      return Status::Ok();
    }
    NERPA_ASSIGN_OR_RETURN(RowView head, HeadRow(rule));
    out.emplace_back(head);
    return Status::Ok();
  }

  /// Bootstrap aggregation: collect all bindings with one full evaluation,
  /// install the group state wholesale (no undo log — rollback wipes), and
  /// emit each group's result row.
  Status BootstrapAggRule(const CompiledRule& rule,
                          std::vector<Row>& emitted) {
    const StepPlan& agg =
        rule.steps[static_cast<size_t>(rule.aggregate_step)];
    std::unordered_map<Row, ZSet, RowHash, RowEq> collected;
    auto collect = [&]() -> Status {
      Row group = CollectSlots(agg.group_slots);
      Row binding = CollectSlots(agg.binding_slots);
      NERPA_ASSIGN_OR_RETURN(Value arg, EvalExpr(*agg.agg_arg, frame_));
      binding.push_back(std::move(arg));
      ++collected[std::move(group)][binding];
      return Status::Ok();
    };
    NERPA_RETURN_IF_ERROR(
        EvalFull(rule, /*stop_at_aggregate=*/true, collect));
    if (collected.empty()) return Status::Ok();
    AggState& state =
        e_.agg_states_[static_cast<size_t>(agg.agg_state_index)];
    for (auto& [group, bindings] : collected) {
      ZSet& group_state = state.groups[group] = std::move(bindings);
      std::optional<Value> result = ComputeAgg(agg, group_state);
      if (!result) continue;
      frame_.assign(static_cast<size_t>(rule.frame_size), Value());
      bound_.assign(static_cast<size_t>(rule.frame_size), 0);
      for (size_t g = 0; g < agg.group_slots.size(); ++g) {
        size_t slot = static_cast<size_t>(agg.group_slots[g]);
        frame_[slot] = group[g];
        bound_[slot] = 1;
      }
      frame_[static_cast<size_t>(agg.result_slot)] = *result;
      bound_[static_cast<size_t>(agg.result_slot)] = 1;
      NERPA_ASSIGN_OR_RETURN(RowView row, HeadRow(rule));
      emitted.emplace_back(row);
    }
    return Status::Ok();
  }

  /// Folds a stratum's emitted head rows into its relation: sort, run-length
  /// aggregate equal rows into derivation counts, bulk-load, and — because
  /// the rows are now sorted and unique — emit the output set delta as a
  /// by-product, exactly matching the sorted form CollectOutputs() produces
  /// on the incremental path.
  void FoldBootstrapStratum(int rel, std::vector<Row>& emitted) {
    if (emitted.empty()) return;
    MarkDirty(rel);
    std::sort(emitted.begin(), emitted.end());
    size_t unique = 0;
    for (size_t i = 0; i < emitted.size(); ++unique) {
      size_t j = i + 1;
      while (j < emitted.size() && emitted[i] == emitted[j]) ++j;
      i = j;
    }
    RelState& state = e_.relations_[static_cast<size_t>(rel)];
    state.counts.reserve(unique, emitted.front().size());
    const RelationDecl& decl = program_.relations()[static_cast<size_t>(rel)];
    SetDelta* delta = nullptr;
    if (decl.role == RelationRole::kOutput) {
      delta = &bootstrap_delta_.outputs[decl.name];
      delta->reserve(unique);
    }
    for (size_t i = 0; i < emitted.size();) {
      size_t j = i + 1;
      while (j < emitted.size() && emitted[i] == emitted[j]) ++j;
      if (delta != nullptr) delta->emplace_back(emitted[i], +1);
      state.counts.try_emplace(emitted[i], static_cast<int64_t>(j - i));
      i = j;
    }
    BuildArrangements(rel);
    emitted.clear();
  }

  Status BootstrapNonRecursive(const Stratum& stratum) {
    int head_rel = stratum.relations[0];
    std::vector<Row>& emitted = bootstrap_emit_;
    emitted.clear();
    for (int rule_index : stratum.rules) {
      const CompiledRule& rule =
          program_.rules()[static_cast<size_t>(rule_index)];
      if (rule.has_aggregate) {
        NERPA_RETURN_IF_ERROR(BootstrapAggRule(rule, emitted));
      } else {
        // One full evaluation against the post-state of the lower strata.
        NERPA_RETURN_IF_ERROR(
            EvalFull(rule, /*stop_at_aggregate=*/false,
                     [&] { return EmitBootstrapHead(rule, emitted); }));
      }
    }
    FoldBootstrapStratum(head_rel, emitted);
    return Status::Ok();
  }

  /// Bootstrap recursion: semi-naive insertion from empty SCC state.
  /// Rules without an SCC positive literal seed it with one full
  /// evaluation (they read only already-folded externals).  No DRed pass —
  /// nothing can be deleted from empty.
  Status BootstrapRecursive(const Stratum& stratum) {
    SccWorkMap work = NewSccWork(stratum);
    NERPA_RETURN_IF_ERROR(InsertSemiNaive(
        stratum, work, [&](auto& insert) -> Status {
          for (int rule_index : stratum.rules) {
            const CompiledRule& rule =
                program_.rules()[static_cast<size_t>(rule_index)];
            bool has_scc_positive = false;
            for (const StepPlan& step : rule.steps) {
              has_scc_positive |= step.kind == BodyElem::Kind::kLiteral &&
                                  !step.negated &&
                                  work.count(step.relation) != 0;
            }
            if (has_scc_positive) continue;  // fires only via the worklist
            auto emit = [&]() -> Status {
              NERPA_ASSIGN_OR_RETURN(RowView head, HeadRow(rule));
              insert(rule.head_relation, head);
              return Status::Ok();
            };
            NERPA_RETURN_IF_ERROR(
                EvalFull(rule, /*stop_at_aggregate=*/false, emit));
          }
          return Status::Ok();
        }));

    for (int rel : stratum.relations) {
      SccWork& w = work[rel];
      if (w.inserted.empty()) continue;
      // Reuse the stratum fold: semi-naive insertion already deduplicated,
      // so every run has length 1 (count 1, set semantics in recursion).
      std::vector<Row>& emitted = bootstrap_emit_;
      emitted.clear();
      emitted.reserve(w.inserted.size());
      for (const Row& row : w.inserted) emitted.push_back(row);
      FoldBootstrapStratum(rel, emitted);
    }
    return Status::Ok();
  }

  /// Bootstrap rollback: the pre-transaction state was empty, so undoing
  /// is wiping every touched structure rather than replaying a log.
  void WipeToEmpty() {
    overlay_ = nullptr;
    for (int rel : dirty_rels_) {
      RelState& state = e_.relations_[static_cast<size_t>(rel)];
      state.dirty = false;
      state.counts = ZSet{};
      state.set_delta = ZSet{};
      for (Arrangement& arr : state.arrangements) {
        arr.index = {};
        arr.flips = {};
        arr.deleted = {};
      }
    }
    dirty_rels_.clear();
    for (AggState& agg : e_.agg_states_) agg.groups = {};
    bootstrap_emit_ = std::vector<Row>{};
    bootstrap_delta_ = TxnDelta{};
    fold_log_.clear();
    fold_values_.clear();
    agg_log_.clear();
    e_.pending_.clear();
  }

  /// ZSet::clear()'s rule for a node map: clear() keeps the buckets, so
  /// transactions of similar size reuse them with no rehashing, but it is
  /// O(bucket_count) — when the buckets far exceed this transaction's
  /// needs, swap in a fresh map sized for deltas like the current one.
  template <typename Map>
  static void ResetTxnMap(Map& map) {
    size_t used = map.size();
    if (map.bucket_count() > 64 + 8 * used) {
      Map fresh;
      fresh.reserve(2 * used);
      fresh.swap(map);
    } else {
      map.clear();
    }
  }

  /// Visits only relations touched this transaction, so per-commit work is
  /// proportional to the change, not the number of relations/arrangements.
  void Cleanup() {
    for (int rel : dirty_rels_) {
      RelState& state = e_.relations_[static_cast<size_t>(rel)];
      state.dirty = false;
      state.set_delta.clear();
      for (Arrangement& arr : state.arrangements) {
        arr.flips.clear();
        ResetTxnMap(arr.deleted);
      }
    }
    dirty_rels_.clear();
  }

  Engine& e_;
  const Program& program_;
  const Overlay* overlay_ = nullptr;
  std::vector<Value> frame_;
  std::vector<char> bound_;

  /// Undo log: each count change this transaction folded, with its row's
  /// values appended to fold_values_ in the same order; replayed in
  /// reverse (with logging off) if the transaction errors.
  struct FoldRecord {
    int rel;
    uint32_t arity;  // the row's value count
    int64_t weight;  // new count - old count
  };
  std::vector<FoldRecord> fold_log_;
  std::vector<Value> fold_values_;
  /// Undo log for persistent aggregation state.
  struct AggRecord {
    int state_index;
    Row group;
    Row binding;
    int64_t weight;
  };
  std::vector<AggRecord> agg_log_;
  bool rolling_back_ = false;

  std::vector<int> dirty_rels_;        // relations touched this transaction
  ValueVec arr_key_buf_;               // scratch for index-maintenance keys
  std::vector<ValueVec> key_buffers_;  // per-step-depth probe-key buffers
  std::vector<std::vector<int>> trail_buffers_;  // per-step-depth match
                                                 // trails (no per-row alloc)
  ValueVec head_buf_;                  // HeadRow's result
  ZSet delta_scratch_;                 // one fold's delta at a time (heads,
                                       // netted inputs, undo), else empty
  std::vector<Row> bootstrap_emit_;    // bootstrap head-row accumulator
  TxnDelta bootstrap_delta_;           // bootstrap output deltas (pre-sorted
                                       // by the stratum fold)
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

void Engine::InitRuntime() {
  relations_.resize(program_->relations().size());
  for (size_t rel = 0; rel < relations_.size(); ++rel) {
    relations_[rel].arrangements.resize(program_->arrangements()[rel].size());
  }
  if (!options_.use_arrangements) {
    // Incremental antijoin is driven by arrangement presence flips; refuse
    // programs that need it rather than computing wrong answers.
    for (const CompiledRule& rule : program_->rules()) {
      for (const StepPlan& step : rule.steps) {
        if (step.kind == BodyElem::Kind::kLiteral && step.negated) {
          LOG_ERROR << "dlog: EngineOptions.use_arrangements=false is "
                       "incompatible with negation (rule at line "
                    << rule.line << "); re-enabling arrangements";
          options_.use_arrangements = true;
        }
      }
    }
  }
  agg_states_.resize(static_cast<size_t>(program_->aggregate_state_count()));
  txn_ = std::make_unique<Txn>(this);
}

Engine::Engine(std::shared_ptr<const Program> program, EngineOptions options)
    : program_(std::move(program)), options_(options) {
  InitRuntime();
  Result<TxnDelta> result = txn_->Run();
  if (result.ok()) {
    initial_delta_ = std::move(result).value();
  } else {
    // Fact evaluation can only fail on runtime expression errors (e.g.
    // division by zero in a fact); surface loudly.
    LOG_ERROR << "dlog: fact evaluation failed: "
              << result.status().ToString();
  }
}

Engine::Engine(std::shared_ptr<const Program> program, EngineOptions options,
               RestoreTag)
    : program_(std::move(program)), options_(options) {
  // Restore path: runtime structures only.  The caller loads relation and
  // aggregation state from the checkpoint; the initial fact transaction
  // must NOT run (its derivations are part of the checkpointed state).
  InitRuntime();
}

int Engine::RelationId(std::string_view name) const {
  return program_->FindRelation(name);
}

Status Engine::Insert(std::string_view relation, Row row) {
  int rel = RelationId(relation);
  if (rel < 0) return NotFound("no relation '" + std::string(relation) + "'");
  const RelationDecl& decl = program_->relation(rel);
  if (decl.role != RelationRole::kInput) {
    return FailedPrecondition("relation '" + decl.name + "' is not an input");
  }
  NERPA_RETURN_IF_ERROR(decl.CheckRow(row));
  pending_.emplace_back(rel, std::move(row), +1);
  return Status::Ok();
}

Status Engine::Delete(std::string_view relation, Row row) {
  int rel = RelationId(relation);
  if (rel < 0) return NotFound("no relation '" + std::string(relation) + "'");
  const RelationDecl& decl = program_->relation(rel);
  if (decl.role != RelationRole::kInput) {
    return FailedPrecondition("relation '" + decl.name + "' is not an input");
  }
  NERPA_RETURN_IF_ERROR(decl.CheckRow(row));
  pending_.emplace_back(rel, std::move(row), -1);
  return Status::Ok();
}

Engine::~Engine() = default;

Result<TxnDelta> Engine::Commit() { return txn_->Run(); }

TxnDelta Engine::TakeInitialDelta() {
  TxnDelta out = std::move(initial_delta_);
  initial_delta_ = TxnDelta{};
  return out;
}

// --- Checkpointing ---
//
// Blob layout (all integers little-endian, host-local — checkpoints are
// read back on the machine that wrote them):
//
//   "NDCK" | u32 version | u64 program fingerprint
//   u32 nrels | nrels x ( u32 namelen | name | u64 nrows |
//                         nrows x ( row | i64 count ) )
//   u32 naggs | naggs x ( u64 ngroups | ngroups x ( group-row |
//                         u64 nbindings | nbindings x ( row | i64 count ) ) )
//
// row   = u32 ncols | ncols x value
// value = tag byte (1 bool, 2 int, 3 bit, 4 string, 5 tuple) + payload
//
// Arrangements are deliberately absent: they are pure derived indexes and
// one linear BuildArrangements() pass per relation rebuilds them far
// cheaper than storing them.

namespace {

constexpr char kCheckpointMagic[4] = {'N', 'D', 'C', 'K'};
constexpr uint32_t kCheckpointVersion = 1;
constexpr int kMaxValueDepth = 64;
/// No evaluation reaches 2^48 derivations of one row; a larger count is
/// damage, and the next fold could overflow it.
constexpr int64_t kMaxCount = int64_t{1} << 48;

bool ValidCount(int64_t count) { return count > 0 && count <= kMaxCount; }

/// Does `row` hold one value of each of `types`, in order?
bool RowHasTypes(const Row& row, const std::vector<Type>& types) {
  if (row.size() != types.size()) return false;
  for (size_t i = 0; i < types.size(); ++i) {
    if (!types[i].CheckValue(row[i]).ok()) return false;
  }
  return true;
}

void PutU32(std::string& out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out.append(buf, 4);
}

void PutU64(std::string& out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}

void PutValue(std::string& out, const Value& v) {
  if (v.is_bool()) {
    out.push_back(1);
    out.push_back(v.as_bool() ? 1 : 0);
  } else if (v.is_int()) {
    out.push_back(2);
    PutU64(out, static_cast<uint64_t>(v.as_int()));
  } else if (v.is_bit()) {
    out.push_back(3);
    PutU64(out, v.as_bit());
  } else if (v.is_string()) {
    out.push_back(4);
    const std::string& s = v.as_string();
    PutU32(out, static_cast<uint32_t>(s.size()));
    out.append(s);
  } else {
    out.push_back(5);
    const ValueVec& elems = v.as_tuple();
    PutU32(out, static_cast<uint32_t>(elems.size()));
    for (const Value& elem : elems) PutValue(out, elem);
  }
}

void PutRow(std::string& out, RowView row) {
  PutU32(out, static_cast<uint32_t>(row.size()));
  for (size_t i = 0; i < row.size(); ++i) PutValue(out, row[i]);
}

/// Bounds-checked cursor over a checkpoint blob.  Any overrun or malformed
/// tag latches `ok = false`; readers return zero values after that, and the
/// caller checks `ok` once at the end of each structure.
struct BlobReader {
  const char* p;
  const char* end;
  bool ok = true;

  bool Need(size_t n) {
    if (static_cast<size_t>(end - p) < n) {
      ok = false;
      return false;
    }
    return true;
  }
  uint8_t U8() {
    if (!Need(1)) return 0;
    return static_cast<uint8_t>(*p++);
  }
  uint32_t U32() {
    if (!Need(4)) return 0;
    uint32_t v;
    std::memcpy(&v, p, 4);
    p += 4;
    return v;
  }
  uint64_t U64() {
    if (!Need(8)) return 0;
    uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8;
    return v;
  }
  bool ReadValue(Value& out, int depth) {
    if (!ok || depth > kMaxValueDepth) {
      ok = false;
      return false;
    }
    switch (U8()) {
      case 1:
        out = Value::Bool(U8() != 0);
        return ok;
      case 2:
        out = Value::Int(static_cast<int64_t>(U64()));
        return ok;
      case 3:
        out = Value::Bit(U64());
        return ok;
      case 4: {
        uint32_t len = U32();
        if (!Need(len)) return false;
        out = Value::String(std::string(p, len));
        p += len;
        return true;
      }
      case 5: {
        uint32_t n = U32();
        ValueVec elems;
        if (!Need(n)) return false;  // each element is >= 1 byte
        elems.reserve(n);
        for (uint32_t i = 0; i < n; ++i) {
          Value elem;
          if (!ReadValue(elem, depth + 1)) return false;
          elems.push_back(std::move(elem));
        }
        out = Value::Tuple(std::move(elems));
        return true;
      }
      default:
        ok = false;
        return false;
    }
  }
  bool ReadRow(Row& out) {
    uint32_t n = U32();
    if (!Need(n)) return false;  // each value is >= 1 byte
    out = Row{};
    out.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      Value v;
      if (!ReadValue(v, 0)) return false;
      out.push_back(std::move(v));
    }
    return true;
  }
};

}  // namespace

uint64_t Engine::StateFingerprint() const {
  // Canonical program text pins rules, relations, keys and column types;
  // the format version pins the blob layout.  use_arrangements only shapes
  // derived indexes, so it is excluded — Restore() rebuilds those per its
  // own options.
  uint64_t h = Fnv1a(program_->ast().ToString());
  return Fnv1a(&kCheckpointVersion, sizeof(kCheckpointVersion), h);
}

std::string Engine::SerializeState() const {
  std::string out;
  out.append(kCheckpointMagic, sizeof(kCheckpointMagic));
  PutU32(out, kCheckpointVersion);
  PutU64(out, StateFingerprint());
  PutU32(out, static_cast<uint32_t>(relations_.size()));
  for (size_t rel = 0; rel < relations_.size(); ++rel) {
    const std::string& name = program_->relations()[rel].name;
    PutU32(out, static_cast<uint32_t>(name.size()));
    out.append(name);
    const ZSet& counts = relations_[rel].counts;
    PutU64(out, counts.size());
    for (const auto& [row, count] : counts) {
      PutRow(out, row);
      PutU64(out, static_cast<uint64_t>(count));
    }
  }
  PutU32(out, static_cast<uint32_t>(agg_states_.size()));
  for (const AggState& agg : agg_states_) {
    PutU64(out, agg.groups.size());
    for (const auto& [group, bindings] : agg.groups) {
      PutRow(out, group);
      PutU64(out, bindings.size());
      for (const auto& [binding, count] : bindings) {
        PutRow(out, binding);
        PutU64(out, static_cast<uint64_t>(count));
      }
    }
  }
  return out;
}

Result<std::unique_ptr<Engine>> Engine::Restore(
    std::shared_ptr<const Program> program, std::string_view blob,
    EngineOptions options) {
  if (program == nullptr) return InvalidArgument("null program");
  auto corrupt = [](const char* what) {
    return FailedPrecondition(std::string("dlog checkpoint rejected: ") +
                              what);
  };
  std::unique_ptr<Engine> engine(
      new Engine(std::move(program), options, RestoreTag{}));
  BlobReader r{blob.data(), blob.data() + blob.size()};
  if (!r.Need(sizeof(kCheckpointMagic)) ||
      std::memcmp(r.p, kCheckpointMagic, sizeof(kCheckpointMagic)) != 0) {
    return corrupt("bad magic");
  }
  r.p += sizeof(kCheckpointMagic);
  if (r.U32() != kCheckpointVersion) return corrupt("unsupported version");
  if (r.U64() != engine->StateFingerprint() || !r.ok) {
    return corrupt("program fingerprint mismatch");
  }
  if (r.U32() != engine->relations_.size()) {
    return corrupt("relation count mismatch");
  }
  for (size_t rel = 0; rel < engine->relations_.size(); ++rel) {
    const RelationDecl& decl = engine->program_->relations()[rel];
    uint32_t name_len = r.U32();
    if (!r.Need(name_len) ||
        std::string_view(r.p, name_len) != decl.name) {
      return corrupt("relation name mismatch");
    }
    r.p += name_len;
    uint64_t nrows = r.U64();
    if (!r.Need(nrows)) return corrupt("truncated relation");
    ZSet& counts = engine->relations_[rel].counts;
    counts.reserve(nrows, decl.columns.size());
    for (uint64_t i = 0; i < nrows; ++i) {
      Row row;
      if (!r.ReadRow(row)) return corrupt("truncated row");
      if (!decl.CheckRow(row).ok()) return corrupt("row type mismatch");
      int64_t count = static_cast<int64_t>(r.U64());
      if (!r.ok || !ValidCount(count)) {
        return corrupt("bad derivation count");
      }
      counts.try_emplace(row, count);
    }
    int key = engine->program_->key_arrangement(static_cast<int>(rel));
    if (key >= 0) {
      const std::vector<int>& columns =
          engine->program_->arrangements()[rel][static_cast<size_t>(key)]
              .key_positions;
      RowSet keys;
      ValueVec buf;
      for (const auto& [row, count] : counts) {
        RowView projected = ProjectInto(row, columns, buf);
        if (!keys.emplace(projected.data(), projected.size()).second) {
          return corrupt("two rows under one key");
        }
      }
    }
  }
  if (r.U32() != engine->agg_states_.size()) {
    return corrupt("aggregate state count mismatch");
  }
  // Group keys and binding rows must have the shape and types the planner
  // gives them: the fingerprint covers the program text, not the plan.
  std::vector<const StepPlan*> agg_steps(engine->agg_states_.size());
  for (const CompiledRule& rule : engine->program_->rules()) {
    if (!rule.has_aggregate) continue;
    const StepPlan& step =
        rule.steps[static_cast<size_t>(rule.aggregate_step)];
    agg_steps[static_cast<size_t>(step.agg_state_index)] = &step;
  }
  for (size_t a = 0; a < engine->agg_states_.size(); ++a) {
    AggState& agg = engine->agg_states_[a];
    uint64_t ngroups = r.U64();
    if (!r.Need(ngroups)) return corrupt("truncated aggregate state");
    agg.groups.reserve(ngroups);
    for (uint64_t g = 0; g < ngroups; ++g) {
      Row group;
      if (!r.ReadRow(group)) return corrupt("truncated group key");
      if (!RowHasTypes(group, agg_steps[a]->group_types)) {
        return corrupt("group key does not fit aggregate");
      }
      ZSet& bindings = agg.groups[std::move(group)];
      uint64_t nbindings = r.U64();
      if (!r.Need(nbindings)) return corrupt("truncated group");
      bindings.reserve(nbindings, agg_steps[a]->binding_types.size());
      for (uint64_t b = 0; b < nbindings; ++b) {
        Row binding;
        if (!r.ReadRow(binding)) return corrupt("truncated binding");
        if (!RowHasTypes(binding, agg_steps[a]->binding_types)) {
          return corrupt("binding does not fit aggregate");
        }
        int64_t count = static_cast<int64_t>(r.U64());
        if (!r.ok || !ValidCount(count)) {
          return corrupt("bad binding count");
        }
        bindings[binding] = count;
      }
    }
  }
  if (!r.ok) return corrupt("truncated blob");
  if (r.p != r.end) return corrupt("trailing bytes");
  for (size_t rel = 0; rel < engine->relations_.size(); ++rel) {
    if (!engine->relations_[rel].counts.empty()) {
      engine->txn_->BuildArrangements(static_cast<int>(rel));
    }
  }
  return engine;
}

Result<std::vector<Row>> Engine::Dump(std::string_view relation) const {
  int rel = RelationId(relation);
  if (rel < 0) return NotFound("no relation '" + std::string(relation) + "'");
  std::vector<Row> rows;
  rows.reserve(relations_[static_cast<size_t>(rel)].counts.size());
  for (const auto& [row, count] : relations_[static_cast<size_t>(rel)].counts) {
    rows.emplace_back(row);
  }
  std::sort(rows.begin(), rows.end(), RowLess);
  return rows;
}

bool Engine::Contains(std::string_view relation, const Row& row) const {
  int rel = RelationId(relation);
  if (rel < 0) return false;
  return relations_[static_cast<size_t>(rel)].counts.count(row, row.Hash()) !=
         0;
}

size_t Engine::Size(std::string_view relation) const {
  int rel = RelationId(relation);
  if (rel < 0) return 0;
  return relations_[static_cast<size_t>(rel)].counts.size();
}

Engine::Stats Engine::GetStats() const {
  Stats stats;
  stats.rule_firings = rule_firings_;
  stats.transactions = transactions_;
  stats.probes = probes_;
  stats.probe_hits = probe_hits_;
  stats.scans = scans_;
  stats.key_rows_materialized = key_rows_materialized_;
  stats.key_allocs_saved = key_allocs_saved_;
  stats.intern = GetInternPoolStats();
  // Approximate node overhead of one unordered_map/set entry (libstdc++:
  // next pointer + cached hash, plus allocator slack).
  constexpr size_t kNodeOverhead = 2 * sizeof(void*);
  for (const RelState& state : relations_) {
    stats.tuples += state.counts.size();
    for (const Arrangement& arr : state.arrangements) {
      stats.arrangement_bytes += arr.index.bucket_count() * sizeof(void*);
      for (const auto& [key, bucket] : arr.index) {
        stats.arrangement_entries += bucket.size();
        stats.arrangement_bytes += kNodeOverhead + sizeof(key) +
                                   key.size() * sizeof(Value) +
                                   bucket.bucket_count() * sizeof(void*) +
                                   bucket.size() * (kNodeOverhead + sizeof(Row));
        // Interned payloads are shared process-wide, so indexed rows cost
        // only their inline Value words here.
        for (const Row& row : bucket) {
          stats.arrangement_bytes += row.size() * sizeof(Value);
        }
      }
    }
  }
  return stats;
}

}  // namespace nerpa::dlog
