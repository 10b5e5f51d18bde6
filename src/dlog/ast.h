// Abstract syntax for the Datalog dialect (a pragmatic DDlog subset).
//
// Grammar sketch (see parser.h for the full grammar):
//
//   program   := (decl | key | rule)*
//   decl      := ("input"|"output")? "relation" Name "(" columns ")"
//   key       := "key" Name "(" column ("," column)* ")"  (after Name's decl)
//   rule      := atom ":-" body "."  |  atom "."            (fact)
//   body      := elem ("," elem)*
//   elem      := atom                                        positive literal
//              | "not" atom                                  negated literal
//              | "var" x "=" expr                            let binding
//              | "var" x "=" AGG "(" expr ")" "group_by" "(" vars ")"
//              | expr                                        condition
//   atom      := Name "(" term ("," term)* ")"
//   term      := expr          (head atoms: any expr; body atoms: var | lit | "_")
//
// Expressions cover arithmetic, comparison, boolean logic, bit operations,
// string concatenation (++), if/else, tuples, and builtin function calls.
#ifndef NERPA_DLOG_AST_H_
#define NERPA_DLOG_AST_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dlog/type.h"
#include "dlog/value.h"

namespace nerpa::dlog {

struct Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class BinOp {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
  kBitAnd, kBitOr, kBitXor, kShl, kShr,
  kConcat,  // string ++
};

enum class UnOp { kNeg, kNot, kBitNot };

const char* BinOpName(BinOp op);

/// An expression tree node.
struct Expr {
  enum class Kind {
    kVar,     // name
    kLit,     // value (+ literal type)
    kUnary,   // op, args[0]
    kBinary,  // op2, args[0], args[1]
    kCall,    // name(args...)
    kTuple,   // (args...)
    kCond,    // if args[0] then args[1] else args[2]
    kCast,    // args[0] as literal_type (numeric conversions)
    kWildcard // "_" (only legal as a body-atom term)
  };

  Kind kind;
  std::string name;        // kVar / kCall
  Value value;             // kLit
  Type literal_type;       // kLit (e.g. 12 as bigint vs bit<16> context)
  bool literal_type_known = false;
  UnOp op1 = UnOp::kNeg;
  BinOp op2 = BinOp::kAdd;
  std::vector<ExprPtr> args;

  // Source span of the node's first token (0 = unknown, e.g. synthesized
  // expressions).  Mutable so the parser can stamp nodes after the shared
  // const pointer is built, like the checker annotations below.
  mutable int line = 0;
  mutable int col = 0;

  // During type checking, variables get a slot in the rule's frame and all
  // nodes get a resolved type.
  mutable int var_slot = -1;
  mutable Type resolved_type;

  std::string ToString() const;

  static ExprPtr MakeVar(std::string name);
  static ExprPtr MakeLit(Value value);
  static ExprPtr MakeTypedLit(Value value, Type type);
  static ExprPtr MakeUnary(UnOp op, ExprPtr arg);
  static ExprPtr MakeBinary(BinOp op, ExprPtr lhs, ExprPtr rhs);
  static ExprPtr MakeCall(std::string name, std::vector<ExprPtr> args);
  static ExprPtr MakeTuple(std::vector<ExprPtr> elems);
  static ExprPtr MakeCond(ExprPtr c, ExprPtr t, ExprPtr f);
  static ExprPtr MakeCast(ExprPtr value, Type target);
  static ExprPtr MakeWildcard();
};

/// A relation atom: `Name(term, term, ...)`.
struct Atom {
  std::string relation;
  std::vector<ExprPtr> terms;
  int line = 0;  // span of the relation name token
  int col = 0;

  std::string ToString() const;
};

/// Aggregate functions available in `group_by` bindings.
enum class AggFunc { kCount, kSum, kMin, kMax };

Result<AggFunc> AggFuncFromName(std::string_view name);
const char* AggFuncName(AggFunc func);

/// One element of a rule body.
struct BodyElem {
  enum class Kind {
    kLiteral,
    kCondition,
    kAssignment,
    kAggregate,
    kFlatMap,  // `var x in expr` — binds x to each element of a Vec
  };

  Kind kind;

  // kLiteral:
  bool negated = false;
  Atom atom;

  // kCondition:
  ExprPtr condition;

  // kAssignment (var x = expr):
  std::string var;
  ExprPtr expr;

  // kAggregate (var x = FUNC(expr) group_by (v1, ..., vk)):
  AggFunc agg_func = AggFunc::kCount;
  std::vector<std::string> group_by;

  int line = 0;  // span of the element's first token
  int col = 0;

  std::string ToString() const;
};

/// A rule `head :- body.` — a fact if the body is empty.
struct Rule {
  Atom head;
  std::vector<BodyElem> body;
  int line = 0;  // source span for diagnostics
  int col = 0;

  bool is_fact() const { return body.empty(); }
  std::string ToString() const;
};

/// A parsed (not yet compiled) program.
struct ProgramAst {
  std::vector<RelationDecl> relations;
  /// `key Rel(c1, ..., cn)`, as an atom of column names: an insert into
  /// input relation Rel replaces the row holding the same values in those
  /// columns (DDlog's `primary key` with `insert_or_update`).
  std::vector<Atom> keys;
  std::vector<Rule> rules;

  const RelationDecl* FindRelation(std::string_view name) const {
    for (const RelationDecl& r : relations) {
      if (r.name == name) return &r;
    }
    return nullptr;
  }

  std::string ToString() const;
};

}  // namespace nerpa::dlog

#endif  // NERPA_DLOG_AST_H_
