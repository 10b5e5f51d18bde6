#include "dlog/parser.h"

#include "common/strings.h"
#include "dlog/lexer.h"

namespace nerpa::dlog {

namespace {

bool IsKeyword(const std::string& word) {
  static const char* kKeywords[] = {
      "input", "output", "relation", "not", "var", "if", "then", "else",
      "true", "false", "and", "or", "group_by", "bool", "bigint", "string",
      "bit", "Vec", "in", "as"};
  for (const char* k : kKeywords) {
    if (word == k) return true;
  }
  return false;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<ProgramAst> ParseProgram() {
    ProgramAst program;
    while (!Peek().Is(TokKind::kEof)) {
      if (Peek().IsIdent("input") || Peek().IsIdent("output") ||
          Peek().IsIdent("relation")) {
        NERPA_ASSIGN_OR_RETURN(RelationDecl decl, ParseRelationDecl());
        if (program.FindRelation(decl.name) != nullptr) {
          return Error("duplicate relation '" + decl.name + "'");
        }
        program.relations.push_back(std::move(decl));
      } else if (Peek().IsIdent("key") && Peek(1).Is(TokKind::kIdent)) {
        // `key` is contextual: a rule head is `Name(`, never `key Name`.
        const Token& start = Next();
        NERPA_ASSIGN_OR_RETURN(Atom key, ParseAtom());
        key.line = start.line;
        key.col = start.col;
        NERPA_RETURN_IF_ERROR(CheckKey(program, key));
        program.keys.push_back(std::move(key));
      } else {
        NERPA_ASSIGN_OR_RETURN(Rule rule, ParseRule());
        program.rules.push_back(std::move(rule));
      }
    }
    return program;
  }

  Result<ExprPtr> ParseSingleExpr() {
    NERPA_ASSIGN_OR_RETURN(ExprPtr expr, ParseExpr());
    if (!Peek().Is(TokKind::kEof)) return Error("trailing tokens after expression");
    return expr;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t index = pos_ + ahead;
    if (index >= tokens_.size()) index = tokens_.size() - 1;  // EOF
    return tokens_[index];
  }
  const Token& Next() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }

  Status Error(const std::string& message) const {
    return ParseError(StrFormat("line %d:%d: %s", Peek().line, Peek().col,
                                message.c_str()));
  }

  /// Stamps `expr` with the span of `token` unless a sub-parse already set
  /// one (spans are mutable annotations, like var_slot).
  static ExprPtr Spanned(ExprPtr expr, const Token& token) {
    if (expr->line == 0) {
      expr->line = token.line;
      expr->col = token.col;
    }
    return expr;
  }

  bool ConsumePunct(std::string_view p) {
    if (Peek().IsPunct(p)) {
      Next();
      return true;
    }
    return false;
  }

  bool ConsumeIdent(std::string_view id) {
    if (Peek().IsIdent(id)) {
      Next();
      return true;
    }
    return false;
  }

  Status ExpectPunct(std::string_view p) {
    if (!ConsumePunct(p)) {
      return Error(StrFormat("expected '%.*s', got '%s'",
                             static_cast<int>(p.size()), p.data(),
                             Peek().text.c_str()));
    }
    return Status::Ok();
  }

  Result<std::string> ExpectName() {
    if (!Peek().Is(TokKind::kIdent) || IsKeyword(Peek().text)) {
      return Error("expected an identifier, got '" + Peek().text + "'");
    }
    return Next().text;
  }

  // --- Types ---

  Result<Type> ParseType() {
    if (ConsumeIdent("bool")) return Type::Bool();
    if (ConsumeIdent("bigint")) return Type::Int();
    if (ConsumeIdent("string")) return Type::String();
    if (ConsumeIdent("bit")) {
      NERPA_RETURN_IF_ERROR(ExpectPunct("<"));
      if (!Peek().Is(TokKind::kInt)) return Error("expected bit width");
      int width = static_cast<int>(Next().int_value);
      if (width < 1 || width > 64) {
        return Error(StrFormat("bit width %d out of range [1, 64]", width));
      }
      NERPA_RETURN_IF_ERROR(ExpectPunct(">"));
      return Type::Bit(width);
    }
    if (ConsumeIdent("Vec")) {
      NERPA_RETURN_IF_ERROR(ExpectPunct("<"));
      NERPA_ASSIGN_OR_RETURN(Type elem, ParseType());
      NERPA_RETURN_IF_ERROR(ExpectPunct(">"));
      return Type::Vec(std::move(elem));
    }
    if (ConsumePunct("(")) {
      std::vector<Type> elems;
      if (!ConsumePunct(")")) {
        do {
          NERPA_ASSIGN_OR_RETURN(Type elem, ParseType());
          elems.push_back(std::move(elem));
        } while (ConsumePunct(","));
        NERPA_RETURN_IF_ERROR(ExpectPunct(")"));
      }
      return Type::Tuple(std::move(elems));
    }
    return Error("expected a type, got '" + Peek().text + "'");
  }

  // --- Declarations ---

  Result<RelationDecl> ParseRelationDecl() {
    RelationDecl decl;
    if (ConsumeIdent("input")) {
      decl.role = RelationRole::kInput;
    } else if (ConsumeIdent("output")) {
      decl.role = RelationRole::kOutput;
    }
    if (!ConsumeIdent("relation")) return Error("expected 'relation'");
    decl.line = Peek().line;
    decl.col = Peek().col;
    NERPA_ASSIGN_OR_RETURN(decl.name, ExpectName());
    NERPA_RETURN_IF_ERROR(ExpectPunct("("));
    if (!ConsumePunct(")")) {
      do {
        Column column;
        column.line = Peek().line;
        column.col = Peek().col;
        NERPA_ASSIGN_OR_RETURN(column.name, ExpectName());
        NERPA_RETURN_IF_ERROR(ExpectPunct(":"));
        NERPA_ASSIGN_OR_RETURN(column.type, ParseType());
        for (const Column& existing : decl.columns) {
          if (existing.name == column.name) {
            return Error("duplicate column '" + column.name + "'");
          }
        }
        decl.columns.push_back(std::move(column));
      } while (ConsumePunct(","));
      NERPA_RETURN_IF_ERROR(ExpectPunct(")"));
    }
    return decl;
  }

  /// A key names one or more columns of an input relation declared before
  /// it, which has no other key.
  static Status CheckKey(const ProgramAst& program, const Atom& key) {
    auto error = [&](const std::string& message) {
      return ParseError(StrFormat("line %d:%d: key %s: %s", key.line,
                                  key.col, key.relation.c_str(),
                                  message.c_str()));
    };
    const RelationDecl* decl = program.FindRelation(key.relation);
    if (decl == nullptr) return error("no such relation declared before it");
    if (decl->role != RelationRole::kInput) return error("not an input");
    for (const Atom& other : program.keys) {
      if (other.relation == key.relation) return error("a second key");
    }
    if (key.terms.empty()) return error("no columns");
    for (const ExprPtr& term : key.terms) {
      if (term->kind != Expr::Kind::kVar || decl->FindColumn(term->name) < 0) {
        return error("no column '" + term->ToString() + "'");
      }
    }
    return Status::Ok();
  }

  // --- Rules ---

  Result<Rule> ParseRule() {
    Rule rule;
    rule.line = Peek().line;
    rule.col = Peek().col;
    NERPA_ASSIGN_OR_RETURN(rule.head, ParseAtom());
    if (ConsumePunct(":-")) {
      do {
        NERPA_ASSIGN_OR_RETURN(BodyElem elem, ParseBodyElem());
        rule.body.push_back(std::move(elem));
      } while (ConsumePunct(","));
    }
    NERPA_RETURN_IF_ERROR(ExpectPunct("."));
    return rule;
  }

  Result<Atom> ParseAtom() {
    Atom atom;
    atom.line = Peek().line;
    atom.col = Peek().col;
    NERPA_ASSIGN_OR_RETURN(atom.relation, ExpectName());
    NERPA_RETURN_IF_ERROR(ExpectPunct("("));
    if (!ConsumePunct(")")) {
      do {
        NERPA_ASSIGN_OR_RETURN(ExprPtr term, ParseExpr());
        atom.terms.push_back(std::move(term));
      } while (ConsumePunct(","));
      NERPA_RETURN_IF_ERROR(ExpectPunct(")"));
    }
    return atom;
  }

  Result<BodyElem> ParseBodyElem() {
    BodyElem elem;
    elem.line = Peek().line;
    elem.col = Peek().col;
    if (ConsumeIdent("not")) {
      elem.kind = BodyElem::Kind::kLiteral;
      elem.negated = true;
      NERPA_ASSIGN_OR_RETURN(elem.atom, ParseAtom());
      return elem;
    }
    if (ConsumeIdent("var")) {
      NERPA_ASSIGN_OR_RETURN(elem.var, ExpectName());
      // FlatMap form: `var x in expr`.
      if (ConsumeIdent("in")) {
        elem.kind = BodyElem::Kind::kFlatMap;
        NERPA_ASSIGN_OR_RETURN(elem.expr, ParseExpr());
        return elem;
      }
      NERPA_RETURN_IF_ERROR(ExpectPunct("="));
      // Aggregate form: AGG "(" expr ")" "group_by" "(" vars ")".
      if (Peek().Is(TokKind::kIdent) && Peek(1).IsPunct("(") &&
          AggFuncFromName(Peek().text).ok()) {
        // Look ahead for group_by after the closing paren to distinguish a
        // plain call named like an aggregate, e.g. var x = count(y) + 1.
        size_t save = pos_;
        AggFunc func = AggFuncFromName(Next().text).value();
        Next();  // "("
        Result<ExprPtr> arg = ParseExpr();
        if (arg.ok() && ConsumePunct(")") && ConsumeIdent("group_by")) {
          elem.kind = BodyElem::Kind::kAggregate;
          elem.agg_func = func;
          elem.expr = std::move(arg).value();
          NERPA_RETURN_IF_ERROR(ExpectPunct("("));
          do {
            NERPA_ASSIGN_OR_RETURN(std::string v, ExpectName());
            elem.group_by.push_back(std::move(v));
          } while (ConsumePunct(","));
          NERPA_RETURN_IF_ERROR(ExpectPunct(")"));
          return elem;
        }
        pos_ = save;  // not an aggregate; reparse as expression
      }
      elem.kind = BodyElem::Kind::kAssignment;
      NERPA_ASSIGN_OR_RETURN(elem.expr, ParseExpr());
      return elem;
    }
    // Positive literal iff "Name(" where Name is not a builtin call —
    // resolved later; here the heuristic is: identifier starting uppercase
    // followed by "(" is an atom (relations are capitalized by convention
    // and the compiler enforces it).
    if (Peek().Is(TokKind::kIdent) && !IsKeyword(Peek().text) &&
        !Peek().text.empty() && std::isupper(static_cast<unsigned char>(
            Peek().text[0])) && Peek(1).IsPunct("(")) {
      elem.kind = BodyElem::Kind::kLiteral;
      NERPA_ASSIGN_OR_RETURN(elem.atom, ParseAtom());
      return elem;
    }
    elem.kind = BodyElem::Kind::kCondition;
    NERPA_ASSIGN_OR_RETURN(elem.condition, ParseExpr());
    return elem;
  }

  // --- Expressions (precedence climbing) ---

  Result<ExprPtr> ParseExpr() { return ParseIf(); }

  Result<ExprPtr> ParseIf() {
    const Token& start = Peek();
    if (ConsumeIdent("if")) {
      NERPA_ASSIGN_OR_RETURN(ExprPtr c, ParseExpr());
      if (!ConsumeIdent("then")) return Error("expected 'then'");
      NERPA_ASSIGN_OR_RETURN(ExprPtr t, ParseExpr());
      if (!ConsumeIdent("else")) return Error("expected 'else'");
      NERPA_ASSIGN_OR_RETURN(ExprPtr f, ParseExpr());
      return Spanned(Expr::MakeCond(std::move(c), std::move(t), std::move(f)),
                     start);
    }
    return ParseOr();
  }

  Result<ExprPtr> ParseOr() {
    const Token& start = Peek();
    NERPA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAnd());
    while (ConsumeIdent("or")) {
      NERPA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAnd());
      lhs = Spanned(Expr::MakeBinary(BinOp::kOr, std::move(lhs), std::move(rhs)), start);
    }
    return lhs;
  }

  Result<ExprPtr> ParseAnd() {
    const Token& start = Peek();
    NERPA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseNot());
    while (ConsumeIdent("and")) {
      NERPA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseNot());
      lhs = Spanned(Expr::MakeBinary(BinOp::kAnd, std::move(lhs), std::move(rhs)), start);
    }
    return lhs;
  }

  Result<ExprPtr> ParseNot() {
    const Token& start = Peek();
    if (ConsumeIdent("not")) {
      NERPA_ASSIGN_OR_RETURN(ExprPtr arg, ParseNot());
      return Spanned(Expr::MakeUnary(UnOp::kNot, std::move(arg)), start);
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    const Token& start = Peek();
    NERPA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseBitOr());
    struct { const char* text; BinOp op; } kOps[] = {
        {"==", BinOp::kEq}, {"!=", BinOp::kNe}, {"<=", BinOp::kLe},
        {">=", BinOp::kGe}, {"<", BinOp::kLt}, {">", BinOp::kGt}};
    for (const auto& candidate : kOps) {
      if (Peek().IsPunct(candidate.text)) {
        Next();
        NERPA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseBitOr());
        return Spanned(
            Expr::MakeBinary(candidate.op, std::move(lhs), std::move(rhs)),
            start);
      }
    }
    return lhs;
  }

  Result<ExprPtr> ParseBitOr() {
    const Token& start = Peek();
    NERPA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseBitXor());
    while (Peek().IsPunct("|")) {
      Next();
      NERPA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseBitXor());
      lhs = Spanned(
          Expr::MakeBinary(BinOp::kBitOr, std::move(lhs), std::move(rhs)), start);
    }
    return lhs;
  }

  Result<ExprPtr> ParseBitXor() {
    const Token& start = Peek();
    NERPA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseBitAnd());
    while (Peek().IsPunct("^")) {
      Next();
      NERPA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseBitAnd());
      lhs = Spanned(
          Expr::MakeBinary(BinOp::kBitXor, std::move(lhs), std::move(rhs)), start);
    }
    return lhs;
  }

  Result<ExprPtr> ParseBitAnd() {
    const Token& start = Peek();
    NERPA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseShift());
    while (Peek().IsPunct("&")) {
      Next();
      NERPA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseShift());
      lhs = Spanned(
          Expr::MakeBinary(BinOp::kBitAnd, std::move(lhs), std::move(rhs)), start);
    }
    return lhs;
  }

  Result<ExprPtr> ParseShift() {
    const Token& start = Peek();
    NERPA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAdditive());
    while (Peek().IsPunct("<<") || Peek().IsPunct(">>")) {
      BinOp op = Peek().IsPunct("<<") ? BinOp::kShl : BinOp::kShr;
      Next();
      NERPA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAdditive());
      lhs = Spanned(
          Expr::MakeBinary(op, std::move(lhs), std::move(rhs)), start);
    }
    return lhs;
  }

  Result<ExprPtr> ParseAdditive() {
    const Token& start = Peek();
    NERPA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseMultiplicative());
    while (Peek().IsPunct("+") || Peek().IsPunct("-") ||
           Peek().IsPunct("++")) {
      BinOp op = Peek().IsPunct("+") ? BinOp::kAdd
                 : Peek().IsPunct("-") ? BinOp::kSub : BinOp::kConcat;
      Next();
      NERPA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseMultiplicative());
      lhs = Spanned(
          Expr::MakeBinary(op, std::move(lhs), std::move(rhs)), start);
    }
    return lhs;
  }

  Result<ExprPtr> ParseMultiplicative() {
    const Token& start = Peek();
    NERPA_ASSIGN_OR_RETURN(ExprPtr lhs, ParseCast());
    while (Peek().IsPunct("*") || Peek().IsPunct("/") || Peek().IsPunct("%")) {
      BinOp op = Peek().IsPunct("*") ? BinOp::kMul
                 : Peek().IsPunct("/") ? BinOp::kDiv : BinOp::kMod;
      Next();
      NERPA_ASSIGN_OR_RETURN(ExprPtr rhs, ParseCast());
      lhs = Spanned(
          Expr::MakeBinary(op, std::move(lhs), std::move(rhs)), start);
    }
    return lhs;
  }

  Result<ExprPtr> ParseCast() {
    const Token& start = Peek();
    NERPA_ASSIGN_OR_RETURN(ExprPtr expr, ParseUnary());
    while (ConsumeIdent("as")) {
      NERPA_ASSIGN_OR_RETURN(Type target, ParseType());
      expr = Spanned(Expr::MakeCast(std::move(expr), std::move(target)), start);
    }
    return expr;
  }

  Result<ExprPtr> ParseUnary() {
    const Token& start = Peek();
    if (ConsumePunct("-")) {
      NERPA_ASSIGN_OR_RETURN(ExprPtr arg, ParseUnary());
      return Spanned(Expr::MakeUnary(UnOp::kNeg, std::move(arg)), start);
    }
    if (ConsumePunct("~")) {
      NERPA_ASSIGN_OR_RETURN(ExprPtr arg, ParseUnary());
      return Spanned(Expr::MakeUnary(UnOp::kBitNot, std::move(arg)), start);
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token& token = Peek();
    if (token.Is(TokKind::kInt)) {
      Next();
      return Spanned(Expr::MakeLit(Value::Int(token.int_value)), token);
    }
    if (token.Is(TokKind::kString)) {
      Next();
      return Spanned(Expr::MakeLit(Value::String(token.text)), token);
    }
    if (token.IsIdent("true")) {
      Next();
      return Spanned(Expr::MakeLit(Value::Bool(true)), token);
    }
    if (token.IsIdent("false")) {
      Next();
      return Spanned(Expr::MakeLit(Value::Bool(false)), token);
    }
    if (token.IsPunct("_")) {  // lexer emits "_" as an identifier, see below
      Next();
      return Spanned(Expr::MakeWildcard(), token);
    }
    if (token.Is(TokKind::kIdent)) {
      if (token.text == "_") {
        Next();
        return Spanned(Expr::MakeWildcard(), token);
      }
      if (IsKeyword(token.text) && token.text != "if") {
        return Error("unexpected keyword '" + token.text + "' in expression");
      }
      if (token.text == "if") return ParseIf();
      std::string name = Next().text;
      if (ConsumePunct("(")) {
        std::vector<ExprPtr> args;
        if (!ConsumePunct(")")) {
          do {
            NERPA_ASSIGN_OR_RETURN(ExprPtr arg, ParseExpr());
            args.push_back(std::move(arg));
          } while (ConsumePunct(","));
          NERPA_RETURN_IF_ERROR(ExpectPunct(")"));
        }
        return Spanned(Expr::MakeCall(std::move(name), std::move(args)),
                       token);
      }
      return Spanned(Expr::MakeVar(std::move(name)), token);
    }
    if (ConsumePunct("(")) {
      NERPA_ASSIGN_OR_RETURN(ExprPtr first, ParseExpr());
      if (ConsumePunct(")")) return first;
      std::vector<ExprPtr> elems;
      elems.push_back(std::move(first));
      while (ConsumePunct(",")) {
        NERPA_ASSIGN_OR_RETURN(ExprPtr elem, ParseExpr());
        elems.push_back(std::move(elem));
      }
      NERPA_RETURN_IF_ERROR(ExpectPunct(")"));
      return Spanned(Expr::MakeTuple(std::move(elems)), token);
    }
    return Error("expected an expression, got '" + token.text + "'");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<ProgramAst> ParseProgram(std::string_view source) {
  NERPA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).ParseProgram();
}

Result<ExprPtr> ParseExpr(std::string_view source) {
  NERPA_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(source));
  return Parser(std::move(tokens)).ParseSingleExpr();
}

}  // namespace nerpa::dlog
