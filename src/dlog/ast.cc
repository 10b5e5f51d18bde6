#include "dlog/ast.h"

#include "common/strings.h"

namespace nerpa::dlog {

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAnd: return "and";
    case BinOp::kOr: return "or";
    case BinOp::kBitAnd: return "&";
    case BinOp::kBitOr: return "|";
    case BinOp::kBitXor: return "^";
    case BinOp::kShl: return "<<";
    case BinOp::kShr: return ">>";
    case BinOp::kConcat: return "++";
  }
  return "?";
}

ExprPtr Expr::MakeVar(std::string name) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kVar;
  e->name = std::move(name);
  return e;
}

ExprPtr Expr::MakeLit(Value value) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kLit;
  e->value = std::move(value);
  return e;
}

ExprPtr Expr::MakeTypedLit(Value value, Type type) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kLit;
  e->value = std::move(value);
  e->literal_type = std::move(type);
  e->literal_type_known = true;
  return e;
}

ExprPtr Expr::MakeUnary(UnOp op, ExprPtr arg) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kUnary;
  e->op1 = op;
  e->args = {std::move(arg)};
  return e;
}

ExprPtr Expr::MakeBinary(BinOp op, ExprPtr lhs, ExprPtr rhs) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kBinary;
  e->op2 = op;
  e->args = {std::move(lhs), std::move(rhs)};
  return e;
}

ExprPtr Expr::MakeCall(std::string name, std::vector<ExprPtr> args) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kCall;
  e->name = std::move(name);
  e->args = std::move(args);
  return e;
}

ExprPtr Expr::MakeTuple(std::vector<ExprPtr> elems) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kTuple;
  e->args = std::move(elems);
  return e;
}

ExprPtr Expr::MakeCond(ExprPtr c, ExprPtr t, ExprPtr f) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kCond;
  e->args = {std::move(c), std::move(t), std::move(f)};
  return e;
}

ExprPtr Expr::MakeCast(ExprPtr value, Type target) {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kCast;
  e->args = {std::move(value)};
  e->literal_type = std::move(target);
  e->literal_type_known = true;
  return e;
}

ExprPtr Expr::MakeWildcard() {
  auto e = std::make_shared<Expr>();
  e->kind = Kind::kWildcard;
  return e;
}

std::string Expr::ToString() const {
  switch (kind) {
    case Kind::kVar: return name;
    case Kind::kLit: return value.ToString();
    case Kind::kUnary: {
      const char* op = op1 == UnOp::kNeg ? "-" : op1 == UnOp::kNot ? "not " : "~";
      return std::string(op) + args[0]->ToString();
    }
    case Kind::kBinary:
      return "(" + args[0]->ToString() + " " + BinOpName(op2) + " " +
             args[1]->ToString() + ")";
    case Kind::kCall: {
      std::string out = name + "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString();
      }
      return out + ")";
    }
    case Kind::kTuple: {
      std::string out = "(";
      for (size_t i = 0; i < args.size(); ++i) {
        if (i > 0) out += ", ";
        out += args[i]->ToString();
      }
      return out + ")";
    }
    case Kind::kCond:
      return "if " + args[0]->ToString() + " then " + args[1]->ToString() +
             " else " + args[2]->ToString();
    case Kind::kCast:
      return "(" + args[0]->ToString() + " as " + literal_type.ToString() +
             ")";
    case Kind::kWildcard: return "_";
  }
  return "?";
}

std::string Atom::ToString() const {
  std::string out = relation + "(";
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out += ", ";
    out += terms[i]->ToString();
  }
  return out + ")";
}

Result<AggFunc> AggFuncFromName(std::string_view name) {
  if (name == "count") return AggFunc::kCount;
  if (name == "sum") return AggFunc::kSum;
  if (name == "min") return AggFunc::kMin;
  if (name == "max") return AggFunc::kMax;
  return ParseError("unknown aggregate function '" + std::string(name) + "'");
}

const char* AggFuncName(AggFunc func) {
  switch (func) {
    case AggFunc::kCount: return "count";
    case AggFunc::kSum: return "sum";
    case AggFunc::kMin: return "min";
    case AggFunc::kMax: return "max";
  }
  return "?";
}

std::string BodyElem::ToString() const {
  switch (kind) {
    case Kind::kLiteral:
      return (negated ? "not " : "") + atom.ToString();
    case Kind::kCondition:
      return condition->ToString();
    case Kind::kAssignment:
      return "var " + var + " = " + expr->ToString();
    case Kind::kFlatMap:
      return "var " + var + " in " + expr->ToString();
    case Kind::kAggregate: {
      std::string out = "var " + var + " = " + AggFuncName(agg_func) + "(" +
                        expr->ToString() + ") group_by (";
      for (size_t i = 0; i < group_by.size(); ++i) {
        if (i > 0) out += ", ";
        out += group_by[i];
      }
      return out + ")";
    }
  }
  return "?";
}

std::string Rule::ToString() const {
  std::string out = head.ToString();
  if (!body.empty()) {
    out += " :- ";
    for (size_t i = 0; i < body.size(); ++i) {
      if (i > 0) out += ", ";
      out += body[i].ToString();
    }
  }
  return out + ".";
}

std::string ProgramAst::ToString() const {
  std::string out;
  for (const RelationDecl& relation : relations) {
    out += relation.ToString() + "\n";
  }
  for (const Atom& key : keys) out += "key " + key.ToString() + "\n";
  out += "\n";
  for (const Rule& rule : rules) {
    out += rule.ToString() + "\n";
  }
  return out;
}

}  // namespace nerpa::dlog
