#include "dlog/eval.h"

#include "common/hash.h"
#include "common/strings.h"

namespace nerpa::dlog {

Result<Type> BuiltinResultType(std::string_view name,
                               const std::vector<Type>& arg_types) {
  auto arity_error = [&](size_t want) {
    return TypeError(StrFormat("%.*s expects %zu argument(s), got %zu",
                               static_cast<int>(name.size()), name.data(),
                               want, arg_types.size()));
  };
  if (name == "to_string") {
    if (arg_types.size() != 1) return arity_error(1);
    return Type::String();
  }
  if (name == "hash64") {
    if (arg_types.empty()) return TypeError("hash64 needs >= 1 argument");
    return Type::Bit(64);
  }
  if (name == "min2" || name == "max2") {
    if (arg_types.size() != 2) return arity_error(2);
    if (!arg_types[0].is_numeric() || arg_types[0] != arg_types[1]) {
      return TypeError(std::string(name) + " needs two equal numeric types");
    }
    return arg_types[0];
  }
  if (name == "abs") {
    if (arg_types.size() != 1) return arity_error(1);
    if (arg_types[0].kind != Type::Kind::kInt) {
      return TypeError("abs expects bigint");
    }
    return Type::Int();
  }
  if (name == "len") {
    if (arg_types.size() != 1) return arity_error(1);
    if (arg_types[0].kind != Type::Kind::kString) {
      return TypeError("len expects string");
    }
    return Type::Int();
  }
  if (name == "contains") {
    if (arg_types.size() != 2) return arity_error(2);
    if (arg_types[0].kind != Type::Kind::kString ||
        arg_types[1].kind != Type::Kind::kString) {
      return TypeError("contains expects (string, string)");
    }
    return Type::Bool();
  }
  if (name == "substr") {
    if (arg_types.size() != 3) return arity_error(3);
    if (arg_types[0].kind != Type::Kind::kString ||
        arg_types[1].kind != Type::Kind::kInt ||
        arg_types[2].kind != Type::Kind::kInt) {
      return TypeError("substr expects (string, bigint, bigint)");
    }
    return Type::String();
  }
  if (name == "fst" || name == "snd") {
    if (arg_types.size() != 1) return arity_error(1);
    if (arg_types[0].kind != Type::Kind::kTuple ||
        arg_types[0].elems.size() != 2) {
      return TypeError(std::string(name) + " expects a 2-tuple");
    }
    return arg_types[0].elems[name == "fst" ? 0 : 1];
  }
  if (name == "vec_len") {
    if (arg_types.size() != 1) return arity_error(1);
    if (arg_types[0].kind != Type::Kind::kVec) {
      return TypeError("vec_len expects a Vec<...>");
    }
    return Type::Int();
  }
  if (name == "vec_contains") {
    if (arg_types.size() != 2) return arity_error(2);
    if (arg_types[0].kind != Type::Kind::kVec ||
        arg_types[0].elems[0] != arg_types[1]) {
      return TypeError("vec_contains expects (Vec<T>, T)");
    }
    return Type::Bool();
  }
  return TypeError("unknown function '" + std::string(name) + "'");
}

namespace {

/// Stringifies a value for to_string (strings unquoted).
std::string ValueToPlainString(const Value& v) {
  if (v.is_string()) return v.as_string();
  return v.ToString();
}

uint64_t HashValue(const Value& v, uint64_t seed) {
  return Fnv1a(nullptr, 0, seed) ^ v.Hash() * 0x9e3779b97f4a7c15ULL;
}

/// A numeric value's two's-complement bits.  Arithmetic runs on these, so
/// bigint overflow wraps modulo 2^64, as the `sum` aggregate does, instead
/// of being undefined.
uint64_t Raw(const Value& v) {
  return static_cast<uint64_t>(v.NumericAsInt());
}

/// Wraps a raw numeric result into the expression's resolved type.
Value MakeNumeric(const Type& type, uint64_t raw) {
  if (type.kind == Type::Kind::kBit) return Value::Bit(type.MaskBits(raw));
  return Value::Int(static_cast<int64_t>(raw));
}

/// Quotient or remainder of nonzero `rhs`.  bit<N> divides unsigned.
/// bigint divides signed; INT64_MIN / -1, the one quotient that does not
/// fit, wraps to INT64_MIN with remainder 0 instead of trapping.
uint64_t DivMod(const Type& type, const Value& lhs, const Value& rhs,
                bool quotient) {
  if (type.kind == Type::Kind::kBit) {
    return quotient ? lhs.as_bit() / rhs.as_bit()
                    : lhs.as_bit() % rhs.as_bit();
  }
  int64_t a = lhs.as_int();
  int64_t b = rhs.as_int();
  if (b == -1) return quotient ? 0 - Raw(lhs) : 0;
  return static_cast<uint64_t>(quotient ? a / b : a % b);
}

}  // namespace

Result<Value> EvalExpr(const Expr& expr, const std::vector<Value>& frame) {
  switch (expr.kind) {
    case Expr::Kind::kVar: {
      if (expr.var_slot < 0 ||
          static_cast<size_t>(expr.var_slot) >= frame.size()) {
        return Internal("unresolved variable '" + expr.name + "'");
      }
      return frame[static_cast<size_t>(expr.var_slot)];
    }
    case Expr::Kind::kLit: {
      // Integer literals adopt the resolved (possibly bit<N>) type.
      if (expr.value.is_int() &&
          expr.resolved_type.kind == Type::Kind::kBit) {
        return Value::Bit(expr.resolved_type.MaskBits(
            static_cast<uint64_t>(expr.value.as_int())));
      }
      return expr.value;
    }
    case Expr::Kind::kUnary: {
      NERPA_ASSIGN_OR_RETURN(Value arg, EvalExpr(*expr.args[0], frame));
      switch (expr.op1) {
        case UnOp::kNeg:
          return MakeNumeric(expr.resolved_type, 0 - Raw(arg));
        case UnOp::kNot:
          return Value::Bool(!arg.as_bool());
        case UnOp::kBitNot:
          return MakeNumeric(expr.resolved_type, ~Raw(arg));
      }
      return Internal("bad unary op");
    }
    case Expr::Kind::kBinary: {
      // Short-circuit logical operators.
      if (expr.op2 == BinOp::kAnd || expr.op2 == BinOp::kOr) {
        NERPA_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*expr.args[0], frame));
        if (expr.op2 == BinOp::kAnd && !lhs.as_bool()) {
          return Value::Bool(false);
        }
        if (expr.op2 == BinOp::kOr && lhs.as_bool()) return Value::Bool(true);
        return EvalExpr(*expr.args[1], frame);
      }
      NERPA_ASSIGN_OR_RETURN(Value lhs, EvalExpr(*expr.args[0], frame));
      NERPA_ASSIGN_OR_RETURN(Value rhs, EvalExpr(*expr.args[1], frame));
      switch (expr.op2) {
        case BinOp::kAdd:
          return MakeNumeric(expr.resolved_type, Raw(lhs) + Raw(rhs));
        case BinOp::kSub:
          return MakeNumeric(expr.resolved_type, Raw(lhs) - Raw(rhs));
        case BinOp::kMul:
          return MakeNumeric(expr.resolved_type, Raw(lhs) * Raw(rhs));
        case BinOp::kDiv:
          if (Raw(rhs) == 0) return InvalidArgument("division by zero");
          return MakeNumeric(expr.resolved_type,
                             DivMod(expr.resolved_type, lhs, rhs, true));
        case BinOp::kMod:
          if (Raw(rhs) == 0) return InvalidArgument("modulo by zero");
          return MakeNumeric(expr.resolved_type,
                             DivMod(expr.resolved_type, lhs, rhs, false));
        case BinOp::kEq: return Value::Bool(lhs == rhs);
        case BinOp::kNe: return Value::Bool(lhs != rhs);
        case BinOp::kLt: return Value::Bool(lhs < rhs);
        case BinOp::kLe: return Value::Bool(!(rhs < lhs));
        case BinOp::kGt: return Value::Bool(rhs < lhs);
        case BinOp::kGe: return Value::Bool(!(lhs < rhs));
        case BinOp::kBitAnd:
          return MakeNumeric(expr.resolved_type, Raw(lhs) & Raw(rhs));
        case BinOp::kBitOr:
          return MakeNumeric(expr.resolved_type, Raw(lhs) | Raw(rhs));
        case BinOp::kBitXor:
          return MakeNumeric(expr.resolved_type, Raw(lhs) ^ Raw(rhs));
        case BinOp::kShl: {
          int64_t amount = rhs.NumericAsInt();
          if (amount < 0 || amount > 63) {
            return InvalidArgument("shift amount out of range");
          }
          return MakeNumeric(expr.resolved_type, Raw(lhs) << amount);
        }
        case BinOp::kShr: {
          int64_t amount = rhs.NumericAsInt();
          if (amount < 0 || amount > 63) {
            return InvalidArgument("shift amount out of range");
          }
          // Logical shift for bit<N>, arithmetic for bigint.
          if (expr.resolved_type.kind == Type::Kind::kBit) {
            return Value::Bit(expr.resolved_type.MaskBits(
                lhs.as_bit() >> amount));
          }
          return Value::Int(lhs.as_int() >> amount);
        }
        case BinOp::kConcat:
          return Value::String(lhs.as_string() + rhs.as_string());
        case BinOp::kAnd:
        case BinOp::kOr:
          break;  // handled above
      }
      return Internal("bad binary op");
    }
    case Expr::Kind::kCall: {
      std::vector<Value> args;
      args.reserve(expr.args.size());
      for (const ExprPtr& arg : expr.args) {
        NERPA_ASSIGN_OR_RETURN(Value v, EvalExpr(*arg, frame));
        args.push_back(std::move(v));
      }
      if (expr.name == "to_string") {
        return Value::String(ValueToPlainString(args[0]));
      }
      if (expr.name == "hash64") {
        uint64_t h = 0xcbf29ce484222325ULL;
        for (const Value& v : args) h = HashValue(v, h);
        return Value::Bit(h);
      }
      if (expr.name == "min2") {
        return args[0] < args[1] ? args[0] : args[1];
      }
      if (expr.name == "max2") {
        return args[0] < args[1] ? args[1] : args[0];
      }
      if (expr.name == "abs") {
        // abs(INT64_MIN) wraps to itself, like unary minus.
        uint64_t v = Raw(args[0]);
        if (args[0].as_int() < 0) v = 0 - v;
        return Value::Int(static_cast<int64_t>(v));
      }
      if (expr.name == "len") {
        return Value::Int(static_cast<int64_t>(args[0].as_string().size()));
      }
      if (expr.name == "contains") {
        return Value::Bool(args[0].as_string().find(args[1].as_string()) !=
                           std::string::npos);
      }
      if (expr.name == "fst") {
        return args[0].as_tuple()[0];
      }
      if (expr.name == "snd") {
        return args[0].as_tuple()[1];
      }
      if (expr.name == "vec_len") {
        return Value::Int(static_cast<int64_t>(args[0].as_tuple().size()));
      }
      if (expr.name == "vec_contains") {
        for (const Value& elem : args[0].as_tuple()) {
          if (elem == args[1]) return Value::Bool(true);
        }
        return Value::Bool(false);
      }
      if (expr.name == "substr") {
        const std::string& s = args[0].as_string();
        int64_t start = args[1].as_int();
        int64_t count = args[2].as_int();
        if (start < 0) start = 0;
        if (start > static_cast<int64_t>(s.size())) {
          start = static_cast<int64_t>(s.size());
        }
        if (count < 0) count = 0;
        return Value::String(s.substr(static_cast<size_t>(start),
                                      static_cast<size_t>(count)));
      }
      return Internal("unknown function '" + expr.name + "'");
    }
    case Expr::Kind::kTuple: {
      ValueVec elems;
      elems.reserve(expr.args.size());
      for (const ExprPtr& arg : expr.args) {
        NERPA_ASSIGN_OR_RETURN(Value v, EvalExpr(*arg, frame));
        elems.push_back(std::move(v));
      }
      return Value::Tuple(std::move(elems));
    }
    case Expr::Kind::kCond: {
      NERPA_ASSIGN_OR_RETURN(Value c, EvalExpr(*expr.args[0], frame));
      return EvalExpr(c.as_bool() ? *expr.args[1] : *expr.args[2], frame);
    }
    case Expr::Kind::kCast: {
      NERPA_ASSIGN_OR_RETURN(Value v, EvalExpr(*expr.args[0], frame));
      return MakeNumeric(expr.literal_type, Raw(v));
    }
    case Expr::Kind::kWildcard:
      return Internal("wildcard in expression position");
  }
  return Internal("bad expression kind");
}

}  // namespace nerpa::dlog
