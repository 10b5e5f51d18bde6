// NW2xx: cross-plane consistency between the management plane (OVSDB
// schema), the control plane (dlog rules), and the data plane (P4 tables),
// built on an interval range analysis seeded from the OVSDB column
// constraints.
//
//   NW201 warning  output relation bound to no P4 table
//   NW202 warning  a cast to bit<w> may truncate / bit arithmetic may wrap
//   NW203 error    LPM prefix length not provably within [0, key width]
//   NW204 error    declaration shape differs from the generated binding
//   NW205 error    action name no P4 table permits
//   NW206 warning  digest input relation never read by any rule
//   NW207 error    ternary/range priority not provably within [0, 2^31-1]
//   NW208 warning  input relation column neither monitored nor
//                  on-demand-fetchable under the given monitor spec
//
// The range analysis is a fixpoint over per-relation column intervals:
// input relations seed from OVSDB constraints (integer min/max), digest
// field widths, or declared types; derived relations accumulate the hull of
// every rule head, with body conditions (`h < 6`) refining variable ranges.
// Vec columns track the hull of their *elements*, so `var t in trunks`
// inherits the set's constraint.
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analyze/interval.h"
#include "analyze/passes.h"
#include "common/strings.h"

namespace nerpa::analyze {

namespace {

using dlog::BinOp;
using dlog::BodyElem;
using dlog::Expr;
using dlog::ExprPtr;
using dlog::RelationDecl;
using dlog::Rule;

std::string BoundsText(const Interval& interval) { return interval.ToString(); }

class RangeAnalysis {
 public:
  explicit RangeAnalysis(PassContext& context) : context_(context) {}

  void Run() {
    Seed();
    // Fixpoint with a hard cap; if still unstable (an unbounded recursion),
    // widen the restless relations to Top — sound, just imprecise.
    int iteration = 0;
    while (Step()) {
      if (++iteration >= 256) {
        for (const std::string& name : changed_last_step_) {
          for (Interval& interval : columns_[name]) interval = Interval::Top();
        }
      }
    }
    FinalChecks();
  }

 private:
  using Env = std::map<std::string, Interval>;

  void Seed() {
    for (const RelationDecl& decl : context_.ast->relations) {
      std::vector<Interval>& cols = columns_[decl.name];
      cols.assign(decl.columns.size(), Interval::Bottom());
      if (decl.role != dlog::RelationRole::kInput) continue;
      const ovsdb::TableSchema* table = nullptr;
      if (context_.bindings != nullptr && context_.schema != nullptr &&
          context_.bindings->FindOvsdbTable(decl.name) != nullptr) {
        table = context_.schema->FindTable(decl.name);
      }
      for (size_t i = 0; i < decl.columns.size(); ++i) {
        cols[i] = SeedColumn(decl.columns[i], table);
      }
    }
  }

  /// The interval of one input column: OVSDB integer constraints when the
  /// relation mirrors a management-plane table, otherwise the full value
  /// set of the declared type.  Vec columns hold the element hull.
  Interval SeedColumn(const dlog::Column& column,
                      const ovsdb::TableSchema* table) {
    const dlog::Type& type = column.type.kind == dlog::Type::Kind::kVec
                                 ? column.type.elems[0]
                                 : column.type;
    Interval fallback = Interval::OfType(type);
    if (table == nullptr || column.name == "_uuid") return fallback;
    const ovsdb::ColumnSchema* schema_column = table->FindColumn(column.name);
    if (schema_column == nullptr ||
        schema_column->type.key.type != ovsdb::AtomicType::kInteger) {
      return fallback;
    }
    const ovsdb::BaseType& base = schema_column->type.key;
    return Interval::Range(
        base.min_integer.value_or(std::numeric_limits<int64_t>::min()),
        base.max_integer.value_or(std::numeric_limits<int64_t>::max()));
  }

  bool Step() {
    changed_last_step_.clear();
    for (const Rule& rule : context_.ast->rules) {
      auto it = columns_.find(rule.head.relation);
      if (it == columns_.end()) continue;
      std::vector<Interval>& head_cols = it->second;
      if (head_cols.size() != rule.head.terms.size()) continue;
      Env env = EvalBody(rule);
      for (size_t i = 0; i < rule.head.terms.size(); ++i) {
        Interval value = Eval(rule.head.terms[i], env);
        Interval joined = head_cols[i].Join(value);
        if (joined != head_cols[i]) {
          head_cols[i] = joined;
          changed_last_step_.insert(rule.head.relation);
        }
      }
    }
    return !changed_last_step_.empty();
  }

  Env EvalBody(const Rule& rule) {
    Env env;
    for (const BodyElem& elem : rule.body) {
      switch (elem.kind) {
        case BodyElem::Kind::kLiteral: {
          if (elem.negated) break;  // tests only, binds nothing
          auto it = columns_.find(elem.atom.relation);
          if (it == columns_.end()) break;
          const std::vector<Interval>& cols = it->second;
          if (cols.size() != elem.atom.terms.size()) break;
          for (size_t i = 0; i < elem.atom.terms.size(); ++i) {
            const ExprPtr& term = elem.atom.terms[i];
            if (term->kind != Expr::Kind::kVar) continue;
            auto [var, inserted] = env.emplace(term->name, cols[i]);
            if (!inserted) var->second = var->second.Meet(cols[i]);
          }
          break;
        }
        case BodyElem::Kind::kCondition:
          Refine(env, elem.condition);
          break;
        case BodyElem::Kind::kAssignment:
          env[elem.var] = Eval(elem.expr, env);
          break;
        case BodyElem::Kind::kFlatMap:
          // `var x in e`: when e is a Vec-typed column variable, the bound
          // element inherits the column's element hull.
          if (elem.expr->kind == Expr::Kind::kVar &&
              env.count(elem.expr->name) != 0) {
            env[elem.var] = env[elem.expr->name];
          } else {
            dlog::Type vec = elem.expr->resolved_type;
            env[elem.var] = vec.kind == dlog::Type::Kind::kVec
                                ? Interval::OfType(vec.elems[0])
                                : Interval::Top();
          }
          break;
        case BodyElem::Kind::kAggregate:
          switch (elem.agg_func) {
            case dlog::AggFunc::kCount:
              env[elem.var] = Interval::Range(
                  0, std::numeric_limits<int64_t>::max());
              break;
            case dlog::AggFunc::kMin:
            case dlog::AggFunc::kMax:
              env[elem.var] = Eval(elem.expr, env);
              break;
            case dlog::AggFunc::kSum:
              env[elem.var] = Interval::OfType(dlog::Type::Int());
              break;
          }
          break;
      }
    }
    return env;
  }

  Interval Eval(const ExprPtr& expr, const Env& env) {
    switch (expr->kind) {
      case Expr::Kind::kVar: {
        auto it = env.find(expr->name);
        if (it != env.end()) return it->second;
        return Interval::OfType(expr->resolved_type);
      }
      case Expr::Kind::kLit:
        if (expr->value.is_int()) return Interval::Point(expr->value.as_int());
        if (expr->value.is_bit()) {
          return Interval::Point(static_cast<Int>(expr->value.as_bit()));
        }
        if (expr->value.is_bool()) {
          return Interval::Point(expr->value.as_bool() ? 1 : 0);
        }
        return Interval::Top();
      case Expr::Kind::kUnary:
        switch (expr->op1) {
          case dlog::UnOp::kNeg:
            return Eval(expr->args[0], env).Neg();
          case dlog::UnOp::kNot:
            return Interval::Range(0, 1);
          case dlog::UnOp::kBitNot:
            return Interval::OfType(expr->resolved_type);
        }
        return Interval::Top();
      case Expr::Kind::kBinary: {
        Interval result = EvalBinaryUnwrapped(expr, env);
        // bit<w> arithmetic wraps; model it so downstream stays sound (the
        // wrap itself is reported separately in FinalChecks).
        if (expr->resolved_type.kind == dlog::Type::Kind::kBit &&
            !result.FitsBits(expr->resolved_type.width)) {
          return Interval::OfType(expr->resolved_type);
        }
        return result;
      }
      case Expr::Kind::kCall:
        return Interval::OfType(expr->resolved_type);
      case Expr::Kind::kTuple:
        return Interval::Top();
      case Expr::Kind::kCond:
        return Eval(expr->args[1], env).Join(Eval(expr->args[2], env));
      case Expr::Kind::kCast: {
        Interval value = Eval(expr->args[0], env);
        const dlog::Type& target = expr->literal_type;
        if (target.kind == dlog::Type::Kind::kBit) {
          if (value.FitsBits(target.width)) return value;
          return Interval::OfType(target);  // masked
        }
        return value;
      }
      case Expr::Kind::kWildcard:
        return Interval::Top();
    }
    return Interval::Top();
  }

  Interval EvalBinaryUnwrapped(const ExprPtr& expr, const Env& env) {
    switch (expr->op2) {
      case BinOp::kAdd:
        return Eval(expr->args[0], env).Add(Eval(expr->args[1], env));
      case BinOp::kSub:
        return Eval(expr->args[0], env).Sub(Eval(expr->args[1], env));
      case BinOp::kMul:
        return Eval(expr->args[0], env).Mul(Eval(expr->args[1], env));
      case BinOp::kDiv:
        return Eval(expr->args[0], env).Div(Eval(expr->args[1], env));
      case BinOp::kMod:
        return Eval(expr->args[0], env).Mod(Eval(expr->args[1], env));
      case BinOp::kShl:
        return Eval(expr->args[0], env).Shl(Eval(expr->args[1], env));
      case BinOp::kShr:
        return Eval(expr->args[0], env).Shr(Eval(expr->args[1], env));
      case BinOp::kBitAnd:
      case BinOp::kBitOr:
      case BinOp::kBitXor:
        return Eval(expr->args[0], env).BitOp(Eval(expr->args[1], env));
      case BinOp::kEq:
      case BinOp::kNe:
      case BinOp::kLt:
      case BinOp::kLe:
      case BinOp::kGt:
      case BinOp::kGe:
      case BinOp::kAnd:
      case BinOp::kOr:
        return Interval::Range(0, 1);
      case BinOp::kConcat:
        return Interval::Top();
    }
    return Interval::Top();
  }

  /// Narrows variable intervals using a body condition: `x < 6`,
  /// `3 <= y`, `x == 7`, and conjunctions thereof.
  void Refine(Env& env, const ExprPtr& condition) {
    if (condition == nullptr || condition->kind != Expr::Kind::kBinary) return;
    if (condition->op2 == BinOp::kAnd) {
      Refine(env, condition->args[0]);
      Refine(env, condition->args[1]);
      return;
    }
    const ExprPtr& lhs = condition->args[0];
    const ExprPtr& rhs = condition->args[1];
    auto clamp = [&](const ExprPtr& var, BinOp op, const Interval& bound) {
      if (var->kind != Expr::Kind::kVar || bound.is_bottom()) return;
      auto it = env.find(var->name);
      if (it == env.end()) return;
      Interval& current = it->second;
      switch (op) {
        case BinOp::kLt:
          current = current.Meet(
              Interval::Range(Interval::kMin, bound.hi - 1));
          break;
        case BinOp::kLe:
          current = current.Meet(Interval::Range(Interval::kMin, bound.hi));
          break;
        case BinOp::kGt:
          current = current.Meet(
              Interval::Range(bound.lo + 1, Interval::kMax));
          break;
        case BinOp::kGe:
          current = current.Meet(Interval::Range(bound.lo, Interval::kMax));
          break;
        case BinOp::kEq:
          current = current.Meet(bound);
          break;
        default:
          break;
      }
    };
    auto flip = [](BinOp op) {
      switch (op) {
        case BinOp::kLt: return BinOp::kGt;
        case BinOp::kLe: return BinOp::kGe;
        case BinOp::kGt: return BinOp::kLt;
        case BinOp::kGe: return BinOp::kLe;
        default: return op;
      }
    };
    clamp(lhs, condition->op2, Eval(rhs, env));
    clamp(rhs, flip(condition->op2), Eval(lhs, env));
  }

  // --- Final reporting pass (runs once, on the stable intervals) ---

  void FinalChecks() {
    for (const Rule& rule : context_.ast->rules) {
      Env env = EvalBody(rule);
      for (const BodyElem& elem : rule.body) {
        switch (elem.kind) {
          case BodyElem::Kind::kLiteral:
            for (const ExprPtr& term : elem.atom.terms) {
              CheckExpr(term, env);
            }
            break;
          case BodyElem::Kind::kCondition:
            CheckExpr(elem.condition, env);
            break;
          case BodyElem::Kind::kAssignment:
          case BodyElem::Kind::kFlatMap:
          case BodyElem::Kind::kAggregate:
            CheckExpr(elem.expr, env);
            break;
        }
      }
      for (const ExprPtr& term : rule.head.terms) CheckExpr(term, env);
      CheckHeadRoles(rule, env);
    }
  }

  /// NW202 at every cast that may truncate and every bit<w> arithmetic node
  /// that may wrap.
  void CheckExpr(const ExprPtr& expr, const Env& env) {
    if (expr == nullptr) return;
    for (const ExprPtr& arg : expr->args) CheckExpr(arg, env);
    if (expr->kind == Expr::Kind::kCast &&
        expr->literal_type.kind == dlog::Type::Kind::kBit) {
      Interval value = Eval(expr->args[0], env);
      if (!value.FitsBits(expr->literal_type.width)) {
        Emit(context_, "NW202", Severity::kWarning, "cross-plane",
             StrFormat("cast to %s may truncate: operand range %s exceeds "
                       "[0, 2^%d-1]",
                       expr->literal_type.ToString().c_str(),
                       BoundsText(value).c_str(), expr->literal_type.width),
             "dlog", expr->line, expr->col);
      }
    }
    if (expr->kind == Expr::Kind::kBinary &&
        expr->resolved_type.kind == dlog::Type::Kind::kBit &&
        (expr->op2 == BinOp::kAdd || expr->op2 == BinOp::kSub ||
         expr->op2 == BinOp::kMul || expr->op2 == BinOp::kShl)) {
      Interval result = EvalBinaryUnwrapped(expr, env);
      if (!result.FitsBits(expr->resolved_type.width)) {
        Emit(context_, "NW202", Severity::kWarning, "cross-plane",
             StrFormat("'%s' on %s may wrap: result range %s exceeds "
                       "[0, 2^%d-1]",
                       dlog::BinOpName(expr->op2),
                       expr->resolved_type.ToString().c_str(),
                       BoundsText(result).c_str(),
                       expr->resolved_type.width),
             "dlog", expr->line, expr->col);
      }
    }
  }

  /// NW203 / NW207: head terms flowing into LPM prefix-length and priority
  /// columns of bound table-output relations.
  void CheckHeadRoles(const Rule& rule, const Env& env) {
    if (context_.bindings == nullptr || context_.p4 == nullptr) return;
    const TableBinding* binding =
        context_.bindings->FindTable(rule.head.relation);
    if (binding == nullptr ||
        binding->columns.size() != rule.head.terms.size()) {
      return;
    }
    const p4::Table* table = context_.p4->FindTable(binding->p4_table);
    for (size_t i = 0; i < binding->columns.size(); ++i) {
      const EntryColumn& column = binding->columns[i];
      const ExprPtr& term = rule.head.terms[i];
      if (column.role == EntryColumn::Role::kKeyPlen && table != nullptr &&
          column.key_index >= 0 &&
          static_cast<size_t>(column.key_index) < table->keys.size()) {
        int width = table->keys[static_cast<size_t>(column.key_index)].width;
        Interval value = Eval(term, env);
        if (!value.ContainedIn(Interval::Range(0, width))) {
          Emit(context_, "NW203", Severity::kError, "cross-plane",
               StrFormat("LPM prefix length for key '%s' of table '%s' must "
                         "lie in [0, %d]; proven range is %s",
                         table->keys[static_cast<size_t>(column.key_index)]
                             .field.text.c_str(),
                         table->name.c_str(), width,
                         BoundsText(value).c_str()),
               "dlog", term->line > 0 ? term->line : rule.line,
               term->col > 0 ? term->col : rule.col);
        }
      }
      if (column.role == EntryColumn::Role::kPriority) {
        Interval value = Eval(term, env);
        Interval valid = Interval::Range(0, (Int{1} << 31) - 1);
        if (!value.ContainedIn(valid)) {
          Emit(context_, "NW207", Severity::kError, "cross-plane",
               StrFormat("priority for table '%s' must lie in [0, 2^31-1]; "
                         "proven range is %s",
                         binding->p4_table.c_str(),
                         BoundsText(value).c_str()),
               "dlog", term->line > 0 ? term->line : rule.line,
               term->col > 0 ? term->col : rule.col);
        }
      }
    }
  }

  PassContext& context_;
  std::map<std::string, std::vector<Interval>> columns_;
  std::set<std::string> changed_last_step_;
};

/// NW205: every statically-known action name written into a bound output
/// relation must be permitted by the P4 table.
void CollectActionNames(const ExprPtr& expr,
                        std::vector<const Expr*>& names) {
  if (expr == nullptr) return;
  if (expr->kind == Expr::Kind::kLit && expr->value.is_string()) {
    names.push_back(expr.get());
    return;
  }
  if (expr->kind == Expr::Kind::kCond) {
    CollectActionNames(expr->args[1], names);
    CollectActionNames(expr->args[2], names);
  }
  // Variables and calls are not statically known; the runtime conversion
  // rejects bad names per-row.
}

void CheckActionNames(PassContext& context) {
  if (context.bindings == nullptr || context.p4 == nullptr) return;
  for (const Rule& rule : context.ast->rules) {
    const TableBinding* binding =
        context.bindings->FindTable(rule.head.relation);
    if (binding == nullptr ||
        binding->columns.size() != rule.head.terms.size()) {
      continue;
    }
    const p4::Table* table = context.p4->FindTable(binding->p4_table);
    if (table == nullptr) continue;
    for (size_t i = 0; i < binding->columns.size(); ++i) {
      if (binding->columns[i].role != EntryColumn::Role::kActionName) {
        continue;
      }
      std::vector<const Expr*> names;
      CollectActionNames(rule.head.terms[i], names);
      for (const Expr* name : names) {
        const std::string& text = name->value.as_string();
        bool permitted = false;
        for (const std::string& action : table->actions) {
          if (action == text) permitted = true;
        }
        if (!permitted) {
          Emit(context, "NW205", Severity::kError, "cross-plane",
               StrFormat("action '%s' is not permitted by P4 table '%s'",
                         text.c_str(), table->name.c_str()),
               "dlog", name->line, name->col);
        }
      }
    }
  }
}

/// NW201: output relations no table consumes (the generated multicast
/// relation is exempt).
void CheckUnboundOutputs(PassContext& context) {
  if (context.bindings == nullptr) return;
  for (const RelationDecl& decl : context.ast->relations) {
    if (decl.role != dlog::RelationRole::kOutput) continue;
    if (context.bindings->FindTable(decl.name) != nullptr ||
        decl.name == context.bindings->multicast_relation) {
      continue;
    }
    Emit(context, "NW201", Severity::kWarning, "cross-plane",
         StrFormat("output relation '%s' is not bound to any P4 table; its "
                   "rows go nowhere",
                   decl.name.c_str()),
         "dlog", decl.line, decl.col);
  }
}

/// NW206: digest-backed inputs never read — the data plane sends
/// notifications nobody listens to.
void CheckUnreadDigests(PassContext& context) {
  if (context.bindings == nullptr) return;
  std::set<std::string> read;
  for (const Rule& rule : context.ast->rules) {
    for (const BodyElem& elem : rule.body) {
      if (elem.kind == BodyElem::Kind::kLiteral) {
        read.insert(elem.atom.relation);
      }
    }
  }
  for (const DigestBinding& binding : context.bindings->digests) {
    if (read.count(binding.relation) != 0) continue;
    const RelationDecl* decl = context.ast->FindRelation(binding.relation);
    Emit(context, "NW206", Severity::kWarning, "cross-plane",
         StrFormat("digest '%s' is sent by the data plane but never read by "
                   "any rule",
                   binding.digest.c_str()),
         "dlog", decl != nullptr ? decl->line : 0,
         decl != nullptr ? decl->col : 0);
  }
}

/// NW208: a dlog input relation mirrors an OVSDB table, but the
/// deployment's monitor configuration neither streams one of its columns
/// nor marks it fetchable on demand — the rows arrive with that field
/// forever absent, and the rules reading it silently see nothing.  Only
/// runs when a monitor spec is supplied; the default monitor subscribes to
/// every column, so there is nothing to audit.
void CheckMonitorCoverage(PassContext& context) {
  const AnalyzeOptions& options = *context.options;
  if (options.monitored_columns.empty() && options.on_demand_columns.empty()) {
    return;
  }
  if (context.bindings == nullptr || context.schema == nullptr) return;
  // An entry with an empty column list covers the whole table.
  auto covers = [](const std::map<std::string, std::vector<std::string>>& spec,
                   const std::string& table, const std::string& column) {
    auto it = spec.find(table);
    if (it == spec.end()) return false;
    if (it->second.empty()) return true;
    for (const std::string& name : it->second) {
      if (name == column) return true;
    }
    return false;
  };
  for (const RelationDecl& decl : context.ast->relations) {
    if (decl.role != dlog::RelationRole::kInput) continue;
    if (context.bindings->FindOvsdbTable(decl.name) == nullptr) continue;
    const ovsdb::TableSchema* table = context.schema->FindTable(decl.name);
    if (table == nullptr) continue;
    for (const dlog::Column& column : decl.columns) {
      if (column.name == "_uuid") continue;
      if (table->FindColumn(column.name) == nullptr) continue;
      if (covers(options.monitored_columns, decl.name, column.name)) continue;
      if (covers(options.on_demand_columns, decl.name, column.name)) continue;
      Emit(context, "NW208", Severity::kWarning, "cross-plane",
           StrFormat("input relation '%s' is bound to OVSDB column '%s.%s', "
                     "which the monitor spec neither streams nor fetches on "
                     "demand; the controller will never see it",
                     decl.name.c_str(), decl.name.c_str(),
                     column.name.c_str()),
           "dlog", decl.line, decl.col);
    }
  }
}

/// NW204: user-maintained declarations must match the generated shapes
/// (only meaningful when the rules carry their own declarations).
void CheckDeclShapes(PassContext& context) {
  if (context.bindings == nullptr || !context.options->rules_include_decls) {
    return;
  }
  auto check = [&](const RelationDecl& expected) {
    const RelationDecl* actual = context.ast->FindRelation(expected.name);
    if (actual == nullptr) {
      Emit(context, "NW204", Severity::kError, "cross-plane",
           StrFormat("program does not declare generated relation: %s",
                     expected.ToString().c_str()),
           "dlog");
      return;
    }
    if (actual->role != expected.role) {
      Emit(context, "NW204", Severity::kError, "cross-plane",
           StrFormat("relation '%s' must be declared '%s', found '%s'",
                     expected.name.c_str(),
                     dlog::RelationRoleName(expected.role),
                     dlog::RelationRoleName(actual->role)),
           "dlog", actual->line, actual->col);
      return;
    }
    if (actual->columns.size() != expected.columns.size()) {
      Emit(context, "NW204", Severity::kError, "cross-plane",
           StrFormat("relation '%s' must have %zu columns (generated shape: "
                     "%s), found %zu",
                     expected.name.c_str(), expected.columns.size(),
                     expected.ToString().c_str(), actual->columns.size()),
           "dlog", actual->line, actual->col);
      return;
    }
    for (size_t i = 0; i < expected.columns.size(); ++i) {
      if (actual->columns[i].name == expected.columns[i].name &&
          actual->columns[i].type == expected.columns[i].type) {
        continue;
      }
      const dlog::Column& bad = actual->columns[i];
      Emit(context, "NW204", Severity::kError, "cross-plane",
           StrFormat("relation '%s', column %zu: expected '%s: %s', found "
                     "'%s: %s'",
                     expected.name.c_str(), i,
                     expected.columns[i].name.c_str(),
                     expected.columns[i].type.ToString().c_str(),
                     bad.name.c_str(), bad.type.ToString().c_str()),
           "dlog", bad.line > 0 ? bad.line : actual->line,
           bad.col > 0 ? bad.col : actual->col);
    }
  };
  for (const RelationDecl& decl : context.bindings->inputs) check(decl);
  for (const RelationDecl& decl : context.bindings->outputs) check(decl);
}

}  // namespace

void RunCrossPlaneChecks(PassContext& context) {
  CheckDeclShapes(context);
  CheckUnboundOutputs(context);
  CheckUnreadDigests(context);
  CheckMonitorCoverage(context);
  CheckActionNames(context);
  if (context.program != nullptr) {
    RangeAnalysis analysis(context);
    analysis.Run();
  }
}

}  // namespace nerpa::analyze
