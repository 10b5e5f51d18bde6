#include "dlog/program.h"

#include <algorithm>
#include <cctype>

#include "common/strings.h"
#include "dlog/eval.h"
#include "dlog/parser.h"

namespace nerpa::dlog {

namespace {

struct VarInfo {
  int slot = -1;
  Type type;
};

using Env = std::map<std::string, VarInfo>;

/// Bidirectional expression type checker.  Writes resolved_type/var_slot
/// into the (shared, mutable-annotated) Expr nodes.
class ExprChecker {
 public:
  /// `line`/`col` are the fallback span (the enclosing element) used when the
  /// expression under scrutiny carries no span of its own.
  ExprChecker(const Env& env, int line, int col)
      : env_(env), line_(line), col_(col) {}

  Result<Type> Check(const ExprPtr& expr,
                     const std::optional<Type>& expected) {
    // Errors report at the innermost spanned node, so point `current_` here
    // for the duration of this subtree.
    const Expr* previous = current_;
    if (expr->line > 0) current_ = expr.get();
    Result<Type> result = CheckImpl(expr, expected);
    if (result.ok() && expected && result.value() != *expected) {
      result = Error(StrFormat("expected %s, got %s for '%s'",
                               expected->ToString().c_str(),
                               result.value().ToString().c_str(),
                               expr->ToString().c_str()));
    }
    current_ = previous;
    if (!result.ok()) return result;
    expr->resolved_type = result.value();
    return result;
  }

 private:
  Status Error(const std::string& message) const {
    int line = current_ != nullptr ? current_->line : line_;
    int col = current_ != nullptr ? current_->col : col_;
    return TypeError(StrFormat("line %d:%d: %s", line, col, message.c_str()));
  }

  static bool IsBareIntLiteral(const ExprPtr& expr) {
    return expr->kind == Expr::Kind::kLit && expr->value.is_int() &&
           !expr->literal_type_known;
  }

  /// Types a pair of subexpressions that must agree (arithmetic operands,
  /// comparison operands, if/else branches), letting integer literals adapt.
  Result<Type> UnifyPair(const ExprPtr& lhs, const ExprPtr& rhs,
                         const std::optional<Type>& expected) {
    if (expected) {
      NERPA_RETURN_IF_ERROR(Check(lhs, expected).status());
      NERPA_RETURN_IF_ERROR(Check(rhs, expected).status());
      return *expected;
    }
    if (IsBareIntLiteral(lhs) && !IsBareIntLiteral(rhs)) {
      NERPA_ASSIGN_OR_RETURN(Type t, Check(rhs, std::nullopt));
      NERPA_RETURN_IF_ERROR(Check(lhs, t).status());
      return t;
    }
    NERPA_ASSIGN_OR_RETURN(Type t, Check(lhs, std::nullopt));
    NERPA_RETURN_IF_ERROR(Check(rhs, t).status());
    return t;
  }

  Result<Type> CheckImpl(const ExprPtr& expr,
                         const std::optional<Type>& expected) {
    switch (expr->kind) {
      case Expr::Kind::kWildcard:
        return Error("'_' is only allowed as a body-atom argument");
      case Expr::Kind::kVar: {
        auto it = env_.find(expr->name);
        if (it == env_.end()) {
          return Error("unbound variable '" + expr->name + "'");
        }
        expr->var_slot = it->second.slot;
        return it->second.type;
      }
      case Expr::Kind::kLit: {
        if (expr->literal_type_known) {
          return expr->literal_type;
        }
        if (expr->value.is_bool()) return Type::Bool();
        if (expr->value.is_string()) return Type::String();
        // Integer literal: adapt to the expected numeric type.
        if (expected && expected->kind == Type::Kind::kBit) {
          uint64_t raw = static_cast<uint64_t>(expr->value.as_int());
          if (expected->MaskBits(raw) != raw) {
            return Error(StrFormat("literal %lld does not fit in %s",
                                   static_cast<long long>(
                                       expr->value.as_int()),
                                   expected->ToString().c_str()));
          }
          return *expected;
        }
        return Type::Int();
      }
      case Expr::Kind::kUnary: {
        switch (expr->op1) {
          case UnOp::kNeg: {
            NERPA_ASSIGN_OR_RETURN(Type t, Check(expr->args[0], expected));
            if (!t.is_numeric()) return Error("unary '-' needs a number");
            return t;
          }
          case UnOp::kNot:
            NERPA_RETURN_IF_ERROR(Check(expr->args[0], Type::Bool()).status());
            return Type::Bool();
          case UnOp::kBitNot: {
            NERPA_ASSIGN_OR_RETURN(Type t, Check(expr->args[0], expected));
            if (t.kind != Type::Kind::kBit) return Error("'~' needs bit<N>");
            return t;
          }
        }
        return Error("bad unary operator");
      }
      case Expr::Kind::kBinary: {
        switch (expr->op2) {
          case BinOp::kAdd:
          case BinOp::kSub:
          case BinOp::kMul:
          case BinOp::kDiv:
          case BinOp::kMod: {
            NERPA_ASSIGN_OR_RETURN(
                Type t, UnifyPair(expr->args[0], expr->args[1], expected));
            if (!t.is_numeric()) {
              return Error(StrFormat("'%s' needs numeric operands, got %s",
                                     BinOpName(expr->op2),
                                     t.ToString().c_str()));
            }
            return t;
          }
          case BinOp::kBitAnd:
          case BinOp::kBitOr:
          case BinOp::kBitXor: {
            NERPA_ASSIGN_OR_RETURN(
                Type t, UnifyPair(expr->args[0], expr->args[1], expected));
            if (t.kind != Type::Kind::kBit) {
              return Error(StrFormat("'%s' needs bit<N> operands",
                                     BinOpName(expr->op2)));
            }
            return t;
          }
          case BinOp::kShl:
          case BinOp::kShr: {
            NERPA_ASSIGN_OR_RETURN(Type t, Check(expr->args[0], expected));
            if (!t.is_numeric()) return Error("shift needs numeric lhs");
            NERPA_ASSIGN_OR_RETURN(Type amount,
                                   Check(expr->args[1], std::nullopt));
            if (!amount.is_numeric()) return Error("shift amount not numeric");
            return t;
          }
          case BinOp::kEq:
          case BinOp::kNe:
          case BinOp::kLt:
          case BinOp::kLe:
          case BinOp::kGt:
          case BinOp::kGe: {
            NERPA_RETURN_IF_ERROR(
                UnifyPair(expr->args[0], expr->args[1], std::nullopt)
                    .status());
            return Type::Bool();
          }
          case BinOp::kAnd:
          case BinOp::kOr:
            NERPA_RETURN_IF_ERROR(Check(expr->args[0], Type::Bool()).status());
            NERPA_RETURN_IF_ERROR(Check(expr->args[1], Type::Bool()).status());
            return Type::Bool();
          case BinOp::kConcat:
            NERPA_RETURN_IF_ERROR(
                Check(expr->args[0], Type::String()).status());
            NERPA_RETURN_IF_ERROR(
                Check(expr->args[1], Type::String()).status());
            return Type::String();
        }
        return Error("bad binary operator");
      }
      case Expr::Kind::kCall: {
        std::vector<Type> arg_types;
        for (const ExprPtr& arg : expr->args) {
          NERPA_ASSIGN_OR_RETURN(Type t, Check(arg, std::nullopt));
          arg_types.push_back(std::move(t));
        }
        Result<Type> result = BuiltinResultType(expr->name, arg_types);
        if (!result.ok()) {
          return Error(result.status().message());
        }
        return std::move(result).value();
      }
      case Expr::Kind::kTuple: {
        std::vector<Type> elems;
        for (size_t i = 0; i < expr->args.size(); ++i) {
          std::optional<Type> elem_expected;
          if (expected && expected->kind == Type::Kind::kTuple &&
              expected->elems.size() == expr->args.size()) {
            elem_expected = expected->elems[i];
          }
          NERPA_ASSIGN_OR_RETURN(Type t, Check(expr->args[i], elem_expected));
          elems.push_back(std::move(t));
        }
        return Type::Tuple(std::move(elems));
      }
      case Expr::Kind::kCond: {
        NERPA_RETURN_IF_ERROR(Check(expr->args[0], Type::Bool()).status());
        return UnifyPair(expr->args[1], expr->args[2], expected);
      }
      case Expr::Kind::kCast: {
        NERPA_ASSIGN_OR_RETURN(Type from, Check(expr->args[0], std::nullopt));
        const Type& to = expr->literal_type;
        if (!from.is_numeric() || !to.is_numeric()) {
          return Error(StrFormat("cannot cast %s to %s",
                                 from.ToString().c_str(),
                                 to.ToString().c_str()));
        }
        return to;
      }
    }
    return Error("bad expression");
  }

  const Env& env_;
  int line_;
  int col_;
  const Expr* current_ = nullptr;  // innermost spanned node being checked
};

/// Tarjan strongly-connected components over the relation dependency graph.
class Tarjan {
 public:
  explicit Tarjan(const std::vector<std::vector<int>>& edges)
      : edges_(edges),
        index_(edges.size(), -1),
        low_(edges.size(), -1),
        on_stack_(edges.size(), false) {}

  /// Returns the SCCs of the graph.  With edges directed body -> head,
  /// Tarjan emits *sinks first* (heads before the relations they read), so
  /// callers must reverse for evaluation order.
  std::vector<std::vector<int>> Run() {
    for (size_t v = 0; v < edges_.size(); ++v) {
      if (index_[v] < 0) Visit(static_cast<int>(v));
    }
    return components_;
  }

 private:
  void Visit(int v) {
    index_[static_cast<size_t>(v)] = low_[static_cast<size_t>(v)] = counter_++;
    stack_.push_back(v);
    on_stack_[static_cast<size_t>(v)] = true;
    for (int w : edges_[static_cast<size_t>(v)]) {
      if (index_[static_cast<size_t>(w)] < 0) {
        Visit(w);
        low_[static_cast<size_t>(v)] =
            std::min(low_[static_cast<size_t>(v)], low_[static_cast<size_t>(w)]);
      } else if (on_stack_[static_cast<size_t>(w)]) {
        low_[static_cast<size_t>(v)] =
            std::min(low_[static_cast<size_t>(v)], index_[static_cast<size_t>(w)]);
      }
    }
    if (low_[static_cast<size_t>(v)] == index_[static_cast<size_t>(v)]) {
      std::vector<int> component;
      while (true) {
        int w = stack_.back();
        stack_.pop_back();
        on_stack_[static_cast<size_t>(w)] = false;
        component.push_back(w);
        if (w == v) break;
      }
      components_.push_back(std::move(component));
    }
  }

  const std::vector<std::vector<int>>& edges_;
  std::vector<int> index_, low_;
  std::vector<bool> on_stack_;
  std::vector<int> stack_;
  std::vector<std::vector<int>> components_;
  int counter_ = 0;
};

}  // namespace

std::string CompiledRule::ToString() const {
  return StrFormat("rule #%d (line %d), head relation %d, %zu steps", index,
                   line, head_relation, steps.size());
}

int Program::FindRelation(std::string_view name) const {
  for (size_t i = 0; i < relations_.size(); ++i) {
    if (relations_[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

/// The compiler proper: turns a ProgramAst into a Program.
class Compiler {
 public:
  explicit Compiler(ProgramAst ast) { program_.ast_ = std::move(ast); }

  Result<std::shared_ptr<const Program>> Run() {
    NERPA_RETURN_IF_ERROR(CollectRelations());
    NERPA_RETURN_IF_ERROR(CompileRules());
    NERPA_RETURN_IF_ERROR(Stratify());
    NERPA_RETURN_IF_ERROR(BuildPlans());
    return std::make_shared<const Program>(std::move(program_));
  }

 private:
  Status CollectRelations() {
    for (const RelationDecl& decl : program_.ast_.relations) {
      if (!decl.name.empty() &&
          !std::isupper(static_cast<unsigned char>(decl.name[0]))) {
        return TypeError("relation names must be capitalized: '" + decl.name +
                         "'");
      }
      program_.relations_.push_back(decl);
    }
    program_.arrangements_.resize(program_.relations_.size());
    program_.key_arrangements_.assign(program_.relations_.size(), -1);
    return Status::Ok();
  }

  Status CompileRules() {
    for (const Rule& rule : program_.ast_.rules) {
      NERPA_RETURN_IF_ERROR(CompileRule(rule));
    }
    return Status::Ok();
  }

  Status RuleError(const Rule& rule, const std::string& message) {
    // Expression-level errors already carry a more precise span; keep it
    // rather than stacking the rule's span in front.
    if (message.rfind("line ", 0) == 0) {
      return TypeError(StrFormat("%s (in rule: %s)", message.c_str(),
                                 rule.ToString().c_str()));
    }
    return TypeError(StrFormat("line %d:%d: %s (in rule: %s)", rule.line,
                               rule.col, message.c_str(),
                               rule.ToString().c_str()));
  }

  Status CompileRule(const Rule& rule) {
    CompiledRule out;
    out.index = static_cast<int>(program_.rules_.size());
    out.line = rule.line;
    out.col = rule.col;
    out.head_relation = program_.FindRelation(rule.head.relation);
    if (out.head_relation < 0) {
      return RuleError(rule, "unknown relation '" + rule.head.relation + "'");
    }
    const RelationDecl& head_decl =
        program_.relation(out.head_relation);
    if (head_decl.role == RelationRole::kInput) {
      return RuleError(rule,
                       "input relation '" + head_decl.name +
                           "' cannot appear in a rule head");
    }
    if (rule.head.terms.size() != head_decl.columns.size()) {
      return RuleError(
          rule, StrFormat("head arity %zu does not match relation arity %zu",
                          rule.head.terms.size(), head_decl.columns.size()));
    }

    Env env;
    int next_slot = 0;

    // Body steps.
    for (size_t elem_index = 0; elem_index < rule.body.size(); ++elem_index) {
      const BodyElem& elem = rule.body[elem_index];
      if (out.has_aggregate) {
        return RuleError(rule, "the aggregate must be the last body element");
      }
      StepPlan step;
      step.kind = elem.kind;
      switch (elem.kind) {
        case BodyElem::Kind::kLiteral: {
          step.relation = program_.FindRelation(elem.atom.relation);
          if (step.relation < 0) {
            return RuleError(rule, "unknown relation '" + elem.atom.relation +
                                       "'");
          }
          step.negated = elem.negated;
          const RelationDecl& decl = program_.relation(step.relation);
          if (elem.atom.terms.size() != decl.columns.size()) {
            return RuleError(
                rule, StrFormat("atom %s has arity %zu, relation has %zu",
                                elem.atom.ToString().c_str(),
                                elem.atom.terms.size(), decl.columns.size()));
          }
          for (size_t p = 0; p < elem.atom.terms.size(); ++p) {
            const ExprPtr& term = elem.atom.terms[p];
            const Type& col_type = decl.columns[p].type;
            TermPlan tp;
            if (term->kind == Expr::Kind::kWildcard) {
              tp.kind = TermPlan::Kind::kIgnore;
            } else if (term->kind == Expr::Kind::kVar) {
              auto it = env.find(term->name);
              if (it != env.end()) {
                if (it->second.type != col_type) {
                  return RuleError(
                      rule,
                      StrFormat("variable '%s' is %s but column %s.%s is %s",
                                term->name.c_str(),
                                it->second.type.ToString().c_str(),
                                decl.name.c_str(), decl.columns[p].name.c_str(),
                                col_type.ToString().c_str()));
                }
                tp.kind = TermPlan::Kind::kCheckVar;
                tp.slot = it->second.slot;
              } else {
                if (elem.negated) {
                  return RuleError(rule, "variable '" + term->name +
                                             "' is unbound in negated atom");
                }
                tp.kind = TermPlan::Kind::kBind;
                tp.slot = next_slot++;
                env[term->name] = VarInfo{tp.slot, col_type};
              }
              term->var_slot = tp.slot;
              term->resolved_type = col_type;
            } else if (term->kind == Expr::Kind::kLit ||
                       (term->kind == Expr::Kind::kUnary &&
                        term->op1 == UnOp::kNeg &&
                        term->args[0]->kind == Expr::Kind::kLit)) {
              ExprChecker checker(env, elem.line, elem.col);
              NERPA_RETURN_IF_ERROR(checker.Check(term, col_type).status());
              Result<Value> value = EvalExpr(*term, {});
              if (!value.ok()) return value.status();
              tp.kind = TermPlan::Kind::kCheckConst;
              tp.constant = std::move(value).value();
            } else {
              return RuleError(rule,
                               "body atom arguments must be variables, "
                               "literals, or '_': " +
                                   term->ToString());
            }
            step.terms.push_back(std::move(tp));
          }
          break;
        }
        case BodyElem::Kind::kCondition: {
          ExprChecker checker(env, elem.line, elem.col);
          NERPA_RETURN_IF_ERROR(
              checker.Check(elem.condition, Type::Bool()).status());
          step.condition = elem.condition;
          break;
        }
        case BodyElem::Kind::kAssignment: {
          if (env.count(elem.var) != 0) {
            return RuleError(rule,
                             "variable '" + elem.var + "' is already bound");
          }
          ExprChecker checker(env, elem.line, elem.col);
          NERPA_ASSIGN_OR_RETURN(Type t,
                                 checker.Check(elem.expr, std::nullopt));
          step.slot = next_slot++;
          step.expr = elem.expr;
          env[elem.var] = VarInfo{step.slot, std::move(t)};
          break;
        }
        case BodyElem::Kind::kFlatMap: {
          if (env.count(elem.var) != 0) {
            return RuleError(rule,
                             "variable '" + elem.var + "' is already bound");
          }
          ExprChecker checker(env, elem.line, elem.col);
          NERPA_ASSIGN_OR_RETURN(Type t,
                                 checker.Check(elem.expr, std::nullopt));
          if (t.kind != Type::Kind::kVec) {
            return RuleError(rule, "'var " + elem.var +
                                       " in ...' needs a Vec<...> expression");
          }
          step.slot = next_slot++;
          step.expr = elem.expr;
          env[elem.var] = VarInfo{step.slot, t.elems[0]};
          break;
        }
        case BodyElem::Kind::kAggregate: {
          if (env.count(elem.var) != 0) {
            return RuleError(rule,
                             "variable '" + elem.var + "' is already bound");
          }
          ExprChecker checker(env, elem.line, elem.col);
          NERPA_ASSIGN_OR_RETURN(Type arg_type,
                                 checker.Check(elem.expr, std::nullopt));
          if (elem.agg_func != AggFunc::kCount && !arg_type.is_numeric()) {
            return RuleError(rule, std::string(AggFuncName(elem.agg_func)) +
                                       " needs a numeric argument");
          }
          step.agg_func = elem.agg_func;
          step.agg_arg = elem.expr;
          for (const std::string& var : elem.group_by) {
            auto it = env.find(var);
            if (it == env.end()) {
              return RuleError(rule, "group_by variable '" + var +
                                         "' is unbound");
            }
            step.group_slots.push_back(it->second.slot);
            step.group_types.push_back(it->second.type);
          }
          std::vector<const VarInfo*> bound;
          for (const auto& [name, info] : env) bound.push_back(&info);
          std::sort(bound.begin(), bound.end(),
                    [](const VarInfo* a, const VarInfo* b) {
                      return a->slot < b->slot;
                    });
          for (const VarInfo* info : bound) {
            step.binding_slots.push_back(info->slot);
            step.binding_types.push_back(info->type);
          }
          step.binding_types.push_back(arg_type);
          step.result_type = elem.agg_func == AggFunc::kCount
                                 ? Type::Int()
                                 : arg_type;
          step.result_slot = next_slot++;
          step.agg_state_index = program_.aggregate_state_count_++;
          // Aggregation consumes the group: only the group-by variables and
          // the result stay in scope.
          Env post;
          for (const std::string& var : elem.group_by) {
            post[var] = env[var];
          }
          post[elem.var] = VarInfo{step.result_slot, step.result_type};
          env = std::move(post);
          out.has_aggregate = true;
          out.aggregate_step = static_cast<int>(out.steps.size());
          break;
        }
      }
      out.steps.push_back(std::move(step));
    }

    // Head expressions.
    for (size_t c = 0; c < rule.head.terms.size(); ++c) {
      ExprChecker checker(env, rule.head.line, rule.head.col);
      Status s =
          checker.Check(rule.head.terms[c], head_decl.columns[c].type)
              .status();
      if (!s.ok()) return RuleError(rule, s.message());
      out.head_exprs.push_back(rule.head.terms[c]);
    }
    out.frame_size = next_slot;

    // Head fast path: all-bare-variable heads gather the row from frame
    // slots directly at emit time.
    out.head_all_vars = true;
    for (const ExprPtr& term : rule.head.terms) {
      if (term->kind != Expr::Kind::kVar || term->var_slot < 0) {
        out.head_all_vars = false;
        break;
      }
    }
    if (out.head_all_vars) {
      for (const ExprPtr& term : rule.head.terms) {
        out.head_var_slots.push_back(term->var_slot);
      }
    }

    // Head pattern (for DRed re-derivation): valid when every head term is
    // a plain variable, a constant, or an affine bigint term `var + k` /
    // `var - k` (invertible: matching binds var = value -+ k).
    out.head_invertible = true;
    std::set<int> seen_slots;
    for (size_t c = 0; c < rule.head.terms.size(); ++c) {
      const ExprPtr& term = rule.head.terms[c];
      TermPlan tp;
      const Expr* var_part = nullptr;
      int64_t offset = 0;
      if (term->kind == Expr::Kind::kVar) {
        var_part = term.get();
      } else if (term->kind == Expr::Kind::kBinary &&
                 (term->op2 == BinOp::kAdd || term->op2 == BinOp::kSub) &&
                 term->resolved_type.kind == Type::Kind::kInt) {
        const Expr* lhs = term->args[0].get();
        const Expr* rhs = term->args[1].get();
        if (lhs->kind == Expr::Kind::kVar && rhs->kind == Expr::Kind::kLit &&
            rhs->value.is_int()) {
          var_part = lhs;
          offset = term->op2 == BinOp::kAdd ? rhs->value.as_int()
                                            : -rhs->value.as_int();
        } else if (term->op2 == BinOp::kAdd &&
                   rhs->kind == Expr::Kind::kVar &&
                   lhs->kind == Expr::Kind::kLit && lhs->value.is_int()) {
          var_part = rhs;
          offset = lhs->value.as_int();
        }
      }
      if (var_part != nullptr && var_part->var_slot >= 0) {
        if (seen_slots.insert(var_part->var_slot).second) {
          tp.kind = TermPlan::Kind::kBind;
        } else {
          tp.kind = TermPlan::Kind::kCheckVar;
          if (offset != 0) {
            // `R(h, h + 1)`-style double use with offsets is out of scope.
            out.head_invertible = false;
            break;
          }
        }
        tp.slot = var_part->var_slot;
        tp.offset = offset;
      } else if (term->kind == Expr::Kind::kLit) {
        Result<Value> value = EvalExpr(*term, {});
        if (!value.ok()) return value.status();
        tp.kind = TermPlan::Kind::kCheckConst;
        tp.constant = std::move(value).value();
      } else {
        out.head_invertible = false;
        break;
      }
      out.head_pattern.push_back(std::move(tp));
    }
    if (!out.head_invertible) out.head_pattern.clear();

    program_.rules_.push_back(std::move(out));
    return Status::Ok();
  }

  Status Stratify() {
    size_t n = program_.relations_.size();
    std::vector<std::vector<int>> edges(n);       // body -> head
    // Edges that must cross strata, with the span of the first offending
    // rule for diagnostics.
    std::map<std::pair<int, int>, std::pair<int, int>> strict_edges;

    for (const CompiledRule& rule : program_.rules_) {
      for (const StepPlan& step : rule.steps) {
        if (step.kind != BodyElem::Kind::kLiteral) continue;
        edges[static_cast<size_t>(step.relation)].push_back(
            rule.head_relation);
        if (step.negated || rule.has_aggregate) {
          strict_edges.emplace(std::pair<int, int>{step.relation,
                                                   rule.head_relation},
                               std::pair<int, int>{rule.line, rule.col});
        }
      }
    }

    Tarjan tarjan(edges);
    std::vector<std::vector<int>> sccs = tarjan.Run();
    // Dependency order: a relation's SCC must be evaluated after every SCC
    // it reads from.
    std::reverse(sccs.begin(), sccs.end());

    std::vector<int> scc_of(n, -1);
    for (size_t s = 0; s < sccs.size(); ++s) {
      for (int r : sccs[s]) scc_of[static_cast<size_t>(r)] = static_cast<int>(s);
    }
    for (const auto& [edge, span] : strict_edges) {
      const auto& [from, to] = edge;
      if (scc_of[static_cast<size_t>(from)] == scc_of[static_cast<size_t>(to)]) {
        return TypeError(StrFormat(
            "line %d:%d: program is not stratifiable: relation '%s' depends "
            "on '%s' through negation or aggregation inside a recursive cycle",
            span.first, span.second, program_.relation(to).name.c_str(),
            program_.relation(from).name.c_str()));
      }
    }

    program_.stratum_of_.assign(n, -1);
    for (const std::vector<int>& scc : sccs) {
      // Skip SCCs that contain only underived relations (pure inputs).
      bool has_rules = false;
      for (const CompiledRule& rule : program_.rules_) {
        if (std::find(scc.begin(), scc.end(), rule.head_relation) !=
            scc.end()) {
          has_rules = true;
          break;
        }
      }
      bool only_inputs = true;
      for (int r : scc) {
        if (program_.relation(r).role != RelationRole::kInput) {
          only_inputs = false;
        }
      }
      if (only_inputs) {
        if (has_rules) {
          return Internal("rule with input head escaped earlier check");
        }
        continue;
      }
      Stratum stratum;
      stratum.relations = scc;
      std::sort(stratum.relations.begin(), stratum.relations.end());
      for (const CompiledRule& rule : program_.rules_) {
        if (std::find(scc.begin(), scc.end(), rule.head_relation) !=
            scc.end()) {
          stratum.rules.push_back(rule.index);
        }
      }
      // Recursive iff multi-relation SCC or a self-referencing rule.
      stratum.recursive = scc.size() > 1;
      if (!stratum.recursive) {
        for (int rule_index : stratum.rules) {
          const CompiledRule& rule = program_.rules_[static_cast<size_t>(rule_index)];
          for (const StepPlan& step : rule.steps) {
            if (step.kind == BodyElem::Kind::kLiteral &&
                step.relation == rule.head_relation) {
              stratum.recursive = true;
            }
          }
        }
      }
      if (stratum.recursive) {
        // DRed re-derivation binds head values backwards; require it.
        for (int rule_index : stratum.rules) {
          const CompiledRule& rule = program_.rules_[static_cast<size_t>(rule_index)];
          if (!rule.head_invertible) {
            return TypeError(StrFormat(
                "line %d:%d: rules in a recursive cycle must have plain "
                "variables or constants in the head",
                rule.line, rule.col));
          }
          if (rule.has_aggregate) {
            return TypeError(StrFormat(
                "line %d:%d: aggregates are not allowed in recursive rules",
                rule.line, rule.col));
          }
        }
      }
      int stratum_index = static_cast<int>(program_.strata_.size());
      for (int r : scc) {
        program_.stratum_of_[static_cast<size_t>(r)] = stratum_index;
      }
      program_.strata_.push_back(std::move(stratum));
    }
    return Status::Ok();
  }

  /// Registers an arrangement on `relation` with the given (sorted) key
  /// positions, deduplicating; returns its id, or -1 for an empty key.
  int RegisterArrangement(int relation, std::vector<int> key_positions) {
    if (key_positions.empty()) return -1;
    std::sort(key_positions.begin(), key_positions.end());
    auto& specs = program_.arrangements_[static_cast<size_t>(relation)];
    for (size_t i = 0; i < specs.size(); ++i) {
      if (specs[i].key_positions == key_positions) return static_cast<int>(i);
    }
    specs.push_back(ArrangementSpec{std::move(key_positions)});
    return static_cast<int>(specs.size()) - 1;
  }

  /// The registered arrangement on `relation` whose key covers the most of
  /// the sorted positions `known` and nothing else, or -1.
  int FindCoveringArrangement(int relation,
                              const std::vector<int>& known) const {
    const auto& specs = program_.arrangements_[static_cast<size_t>(relation)];
    int best = -1;
    size_t best_size = 0;
    for (size_t i = 0; i < specs.size(); ++i) {
      const std::vector<int>& key = specs[i].key_positions;
      if (key.size() > best_size &&
          std::includes(known.begin(), known.end(), key.begin(), key.end())) {
        best = static_cast<int>(i);
        best_size = key.size();
      }
    }
    return best;
  }

  /// Builds the lookup plan for `step` given the currently-bound slots, and
  /// adds the slots the step binds.  With `register_key`, the lookup is
  /// keyed on every known position and registers that arrangement.  Without
  /// it (plans that run only in the bootstrap), it reuses the registered
  /// arrangement covering the most known positions, or scans.  A negated
  /// literal's key is all its positions but wildcards in every plan, and
  /// its delta plans registered it, so registering again only finds it.
  LookupPlan PlanLookup(int step_index, const StepPlan& step,
                        std::set<int>& bound, bool register_key) {
    LookupPlan plan;
    plan.step_index = step_index;
    for (size_t p = 0; p < step.terms.size(); ++p) {
      const TermPlan& term = step.terms[p];
      bool known = term.kind == TermPlan::Kind::kCheckConst ||
                   ((term.kind == TermPlan::Kind::kCheckVar ||
                     term.kind == TermPlan::Kind::kBind) &&
                    bound.count(term.slot) != 0);
      if (known) plan.key_positions.push_back(static_cast<int>(p));
    }
    if (register_key || step.negated) {
      plan.arrangement =
          RegisterArrangement(step.relation, plan.key_positions);
    } else {
      plan.arrangement =
          FindCoveringArrangement(step.relation, plan.key_positions);
      plan.key_positions.clear();
      if (plan.arrangement >= 0) {
        plan.key_positions =
            Spec(step.relation, plan.arrangement).key_positions;
      }
    }
    for (const TermPlan& term : step.terms) {
      if (term.kind == TermPlan::Kind::kBind ||
          term.kind == TermPlan::Kind::kCheckVar) {
        bound.insert(term.slot);
      }
    }
    return plan;
  }

  void AddNonLiteralBindings(const StepPlan& step, std::set<int>& bound) {
    if (step.kind == BodyElem::Kind::kAssignment ||
        step.kind == BodyElem::Kind::kFlatMap) {
      bound.insert(step.slot);
    }
    if (step.kind == BodyElem::Kind::kAggregate) {
      bound.insert(step.result_slot);
    }
  }

  /// Plans `rule`'s literals in original body order with `bound` pre-bound.
  FullPlan PlanInOrder(const CompiledRule& rule, std::set<int> bound,
                       bool register_keys) {
    FullPlan plan;
    for (size_t s = 0; s < rule.steps.size(); ++s) {
      const StepPlan& step = rule.steps[s];
      if (step.kind == BodyElem::Kind::kLiteral) {
        plan.lookups.push_back(
            PlanLookup(static_cast<int>(s), step, bound, register_keys));
      } else {
        AddNonLiteralBindings(step, bound);
      }
    }
    return plan;
  }

  /// An arrangement exists only because an input key or a plan that runs
  /// after the first commit reads it.  A key is probed by every insert into
  /// its relation.  Delta plans run on every commit in every stratum; full
  /// and re-derivation plans run at steady state only in recursive strata
  /// (DRed).  A non-recursive rule's full plan runs only in the bootstrap,
  /// so it is planned last and reuses what the others registered; nothing
  /// runs its re-derivation plan, so that is not built.
  Status BuildPlans() {
    // The parser resolved every key's names.
    for (const Atom& key : program_.ast_.keys) {
      int rel = program_.FindRelation(key.relation);
      std::vector<int> positions;
      for (const ExprPtr& column : key.terms) {
        positions.push_back(program_.relation(rel).FindColumn(column->name));
      }
      program_.key_arrangements_[static_cast<size_t>(rel)] =
          RegisterArrangement(rel, std::move(positions));
    }
    auto recursive = [&](const CompiledRule& rule) {
      int stratum = program_.stratum_of(rule.head_relation);
      return program_.strata_[static_cast<size_t>(stratum)].recursive;
    };
    for (CompiledRule& rule : program_.rules_) {
      BuildDeltaPlans(rule, recursive(rule));
      if (!recursive(rule)) continue;
      rule.full_plan = PlanInOrder(rule, {}, /*register_keys=*/true);
      std::set<int> head_bound;
      for (const TermPlan& term : rule.head_pattern) {
        if (term.slot >= 0) head_bound.insert(term.slot);
      }
      rule.rederive_plan =
          PlanInOrder(rule, std::move(head_bound), /*register_keys=*/true);
    }
    for (CompiledRule& rule : program_.rules_) {
      if (!recursive(rule)) {
        rule.full_plan = PlanInOrder(rule, {}, /*register_keys=*/false);
      }
    }
    return Status::Ok();
  }

  /// One delta plan per literal step, and the per-transaction facts their
  /// lookups read: a negated pin reads its arrangement's presence flips;
  /// a lookup reads OLD state right of the pin, or anywhere in a recursive
  /// stratum (DRed's overdeletion reads every literal OLD).
  void BuildDeltaPlans(CompiledRule& rule, bool recursive) {
    for (size_t pin = 0; pin < rule.steps.size(); ++pin) {
      const StepPlan& pinned = rule.steps[pin];
      if (pinned.kind != BodyElem::Kind::kLiteral) continue;
      DeltaPlan plan;
      plan.pinned_step = static_cast<int>(pin);
      std::set<int> bound;
      // The pinned literal provides values at every non-ignored position;
      // for a negated pin, only at its key (non-ignored) positions — which
      // is the same set, since negated atoms have no kBind terms.
      for (const TermPlan& term : pinned.terms) {
        if (term.slot >= 0) bound.insert(term.slot);
      }
      for (size_t s = 0; s < rule.steps.size(); ++s) {
        if (s == pin) continue;
        const StepPlan& step = rule.steps[s];
        if (step.kind != BodyElem::Kind::kLiteral) {
          AddNonLiteralBindings(step, bound);
          continue;
        }
        LookupPlan lookup = PlanLookup(static_cast<int>(s), step, bound,
                                       /*register_key=*/true);
        if (lookup.arrangement >= 0 && (recursive || s > pin)) {
          Spec(step.relation, lookup.arrangement).records_deleted = true;
        }
        plan.lookups.push_back(std::move(lookup));
      }
      if (pinned.negated) {
        std::vector<int> key;
        for (size_t p = 0; p < pinned.terms.size(); ++p) {
          if (pinned.terms[p].kind != TermPlan::Kind::kIgnore) {
            key.push_back(static_cast<int>(p));
          }
        }
        plan.pinned_arrangement =
            RegisterArrangement(pinned.relation, std::move(key));
        if (plan.pinned_arrangement >= 0) {
          Spec(pinned.relation, plan.pinned_arrangement).records_flips = true;
        }
      }
      rule.delta_plans.push_back(std::move(plan));
    }
  }

  ArrangementSpec& Spec(int relation, int arrangement) {
    return program_.arrangements_[static_cast<size_t>(relation)]
                                 [static_cast<size_t>(arrangement)];
  }

  Program program_;
};

Result<std::shared_ptr<const Program>> Program::Parse(
    std::string_view source) {
  NERPA_ASSIGN_OR_RETURN(ProgramAst ast, ParseProgram(source));
  return Compile(std::move(ast));
}

Result<std::shared_ptr<const Program>> Program::Compile(ProgramAst ast) {
  return Compiler(std::move(ast)).Run();
}

}  // namespace nerpa::dlog
