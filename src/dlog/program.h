// Compilation of a parsed Datalog program into an executable incremental
// plan: name resolution, bidirectional type checking, safety checks,
// stratification (SCC condensation with negation/aggregation constraints),
// join planning, and arrangement (index) registration.
//
// The output of compilation is consumed by the incremental evaluator in
// engine.h.  The delta-rule expansion is planned *here*, at compile time:
// for a rule with body literals L1..Ln, the engine computes
//
//   dH = sum_i  [ L1^new * ... * L_{i-1}^new * dLi * L_{i+1}^old * ... * Ln^old ]
//
// and each variant i needs its own join order and index keys, because the
// pinned literal binds its variables first.  DeltaPlan captures exactly
// that, so the evaluator never searches for an index at runtime.
#ifndef NERPA_DLOG_PROGRAM_H_
#define NERPA_DLOG_PROGRAM_H_

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "dlog/ast.h"
#include "dlog/type.h"

namespace nerpa::dlog {

/// How one term of a body atom participates in matching.
struct TermPlan {
  enum class Kind {
    kBind,       // fresh variable: binds the frame slot
    kCheckVar,   // variable already bound: value must match
    kCheckConst, // literal constant: value must match
    kIgnore,     // wildcard
  };
  Kind kind = Kind::kIgnore;
  int slot = -1;    // kBind / kCheckVar
  Value constant;   // kCheckConst (coerced to the column type)
  // Affine offset for head patterns (bigint columns only): the head term
  // was `var + offset`, so matching a head row binds slot = value - offset
  // (what lets DRed invert hop-counting recursive rules like
  // `Reach(n, h + 1) :- Reach(m, h), Edge(m, n)`).  Always 0 in body atoms.
  int64_t offset = 0;
};

/// One body step in execution form.
struct StepPlan {
  BodyElem::Kind kind = BodyElem::Kind::kLiteral;

  // kLiteral:
  int relation = -1;
  bool negated = false;
  std::vector<TermPlan> terms;

  // kCondition:
  ExprPtr condition;

  // kAssignment:
  int slot = -1;
  ExprPtr expr;

  // kAggregate:
  AggFunc agg_func = AggFunc::kCount;
  ExprPtr agg_arg;                 // evaluated per binding
  std::vector<int> group_slots;    // frame slots of the group-by variables
  std::vector<int> binding_slots;  // all bound slots at the aggregate (the
                                   // distinct-assignment key), group first
  // Value types of a group key (one per group slot) and of a binding row
  // (one per binding slot, then the argument's): checkpoint validation.
  std::vector<Type> group_types;
  std::vector<Type> binding_types;
  int result_slot = -1;
  Type result_type;
  int agg_state_index = -1;        // engine-side persistent group state
};

/// Key/arrangement selection for one literal within one execution order.
struct LookupPlan {
  int step_index = -1;             // index into CompiledRule::steps
  std::vector<int> key_positions;  // probe-key positions, all known
                                   // before matching
  int arrangement = -1;            // arrangement id on the relation; -1=scan
};

/// One delta-expansion variant: literal `pinned_step` is driven by the
/// relation's change set; the remaining steps execute in original order.
struct DeltaPlan {
  int pinned_step = -1;
  // For a pinned *negated* literal: the arrangement whose presence flips
  // drive this variant (-1 = empty key, use whole-relation emptiness).
  int pinned_arrangement = -1;
  // For every literal step other than the pinned one, the lookup plan (in
  // execution order).  Non-literal steps run in original order as their
  // inputs become bound (original order is already valid).
  std::vector<LookupPlan> lookups;
};

/// Lookup plans for full (non-delta) evaluation in original body order,
/// optionally with head variables pre-bound (used by DRed re-derivation).
/// A lookup's key positions are its arrangement's, which may be fewer than
/// the positions known at that step (MatchTerms checks the rest), or none
/// when it scans.
struct FullPlan {
  std::vector<LookupPlan> lookups;
};

struct CompiledRule {
  int index = -1;
  int head_relation = -1;
  std::vector<ExprPtr> head_exprs;  // one per head column, type-checked
  std::vector<StepPlan> steps;
  int frame_size = 0;
  int line = 0;
  int col = 0;

  bool has_aggregate = false;
  int aggregate_step = -1;

  // Head fast path: every head term is a bare variable, so the engine can
  // gather a head row straight from frame slots — no expression evaluation
  // or Result plumbing on the hot emit path.
  bool head_all_vars = false;
  std::vector<int> head_var_slots;  // one slot per head column

  // Delta plans, one per *positive or negative literal* step index that can
  // be pinned.  For aggregate rules only literals before the aggregate.
  std::vector<DeltaPlan> delta_plans;

  // Full evaluation: the bootstrap, plus DRed's large-overdeletion pass in
  // a recursive stratum.
  FullPlan full_plan;
  // Re-derivation plan: head variable slots that the head row binds
  // directly (only valid when head terms are plain vars/constants).
  bool head_invertible = false;
  std::vector<TermPlan> head_pattern;  // same vocabulary as body terms
  FullPlan rederive_plan;  // lookups with head vars pre-bound; built only
                           // for rules of recursive strata (DRed)

  std::string ToString() const;
};

/// An arrangement (hash index) specification on a relation.  Only plans
/// that run after the first commit and input keys register one, and each
/// records only the per-transaction facts its readers use.
struct ArrangementSpec {
  std::vector<int> key_positions;  // sorted, non-empty
  // A pinned negated literal is driven by this arrangement's key presence
  // flips.
  bool records_flips = false;
  // A delta-plan lookup reads it in OLD mode, which needs the rows each
  // key lost this transaction.
  bool records_deleted = false;
};

/// One stratum: an SCC of the relation dependency graph, in topo order.
struct Stratum {
  std::vector<int> relations;  // relation ids defined in this stratum
  std::vector<int> rules;      // rules whose head is in this stratum
  bool recursive = false;
};

/// A compiled program, shareable across engines.
class Program {
 public:
  /// Parses, type-checks, stratifies and plans a program.
  static Result<std::shared_ptr<const Program>> Parse(std::string_view source);
  /// Same, from an already-parsed AST.
  static Result<std::shared_ptr<const Program>> Compile(ProgramAst ast);

  const std::vector<RelationDecl>& relations() const { return relations_; }
  const RelationDecl& relation(int id) const { return relations_[static_cast<size_t>(id)]; }
  int FindRelation(std::string_view name) const;

  const std::vector<CompiledRule>& rules() const { return rules_; }
  const std::vector<Stratum>& strata() const { return strata_; }
  const std::vector<std::vector<ArrangementSpec>>& arrangements() const {
    return arrangements_;
  }
  int aggregate_state_count() const { return aggregate_state_count_; }
  const ProgramAst& ast() const { return ast_; }

  /// The arrangement on a keyed input's key columns, which an insert
  /// probes for the row it replaces; -1 for a relation without a key.
  int key_arrangement(int relation) const {
    return key_arrangements_[static_cast<size_t>(relation)];
  }

  /// Stratum index that defines each relation (-1 for inputs).
  int stratum_of(int relation) const { return stratum_of_[static_cast<size_t>(relation)]; }

 private:
  friend class Compiler;
  Program() = default;

  ProgramAst ast_;
  std::vector<RelationDecl> relations_;
  std::vector<CompiledRule> rules_;
  std::vector<Stratum> strata_;
  std::vector<int> stratum_of_;
  std::vector<std::vector<ArrangementSpec>> arrangements_;
  std::vector<int> key_arrangements_;
  int aggregate_state_count_ = 0;
};

}  // namespace nerpa::dlog

#endif  // NERPA_DLOG_PROGRAM_H_
