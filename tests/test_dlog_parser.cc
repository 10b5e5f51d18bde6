// Unit tests for the Datalog dialect front end: lexer, parser, type
// checker, expression evaluation, and compile-time diagnostics.
#include <gtest/gtest.h>

#include "dlog/engine.h"
#include "dlog/eval.h"
#include "dlog/lexer.h"
#include "dlog/parser.h"
#include "dlog/program.h"

namespace nerpa::dlog {
namespace {

TEST(Lexer, TokensAndComments) {
  auto tokens = Tokenize(R"(
    relation Foo(x: bit<12>)  // line comment
    /* block
       comment */ Foo(0x1F, 1_000) :- x == 2.
  )");
  ASSERT_TRUE(tokens.ok()) << tokens.status().ToString();
  std::vector<std::string> texts;
  for (const Token& token : *tokens) {
    if (!token.Is(TokKind::kEof)) texts.push_back(token.text);
  }
  EXPECT_EQ(texts[0], "relation");
  // Hex and underscore-separated literals.
  bool saw_hex = false, saw_thousand = false;
  for (const Token& token : *tokens) {
    if (token.Is(TokKind::kInt) && token.int_value == 0x1F) saw_hex = true;
    if (token.Is(TokKind::kInt) && token.int_value == 1000) {
      saw_thousand = true;
    }
  }
  EXPECT_TRUE(saw_hex);
  EXPECT_TRUE(saw_thousand);
}

TEST(Lexer, StringEscapes) {
  auto tokens = Tokenize(R"("a\n\t\"b\\")");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].text, "a\n\t\"b\\");
  EXPECT_FALSE(Tokenize("\"unterminated").ok());
  EXPECT_FALSE(Tokenize("\"bad\\qescape\"").ok());
}

TEST(Parser, RelationDeclarations) {
  auto ast = ParseProgram(R"(
    input relation In(a: bigint, b: string)
    output relation Out(t: (bool, bit<4>), v: Vec<bigint>)
    relation Mid(x: bigint)
  )");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  ASSERT_EQ(ast->relations.size(), 3u);
  EXPECT_EQ(ast->relations[0].role, RelationRole::kInput);
  EXPECT_EQ(ast->relations[1].role, RelationRole::kOutput);
  EXPECT_EQ(ast->relations[2].role, RelationRole::kInternal);
  EXPECT_EQ(ast->relations[1].columns[0].type.kind, Type::Kind::kTuple);
  EXPECT_EQ(ast->relations[1].columns[1].type.kind, Type::Kind::kVec);
}

TEST(Parser, RuleShapes) {
  auto ast = ParseProgram(R"(
    input relation E(a: bigint, b: bigint)
    output relation O(a: bigint)
    O(a) :- E(a, _), not E(a, 5), a != 0, var c = a * 2, c < 100.
  )");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  ASSERT_EQ(ast->rules.size(), 1u);
  const Rule& rule = ast->rules[0];
  ASSERT_EQ(rule.body.size(), 5u);
  EXPECT_EQ(rule.body[0].kind, BodyElem::Kind::kLiteral);
  EXPECT_TRUE(rule.body[1].negated);
  EXPECT_EQ(rule.body[2].kind, BodyElem::Kind::kCondition);
  EXPECT_EQ(rule.body[3].kind, BodyElem::Kind::kAssignment);
  EXPECT_EQ(rule.body[4].kind, BodyElem::Kind::kCondition);
}

TEST(Parser, AggregateAndFlatMap) {
  auto ast = ParseProgram(R"(
    input relation M(g: bigint, vs: Vec<bigint>)
    output relation C(g: bigint, n: bigint)
    C(g, n) :- M(g, vs), var v in vs, var n = count(v) group_by (g).
  )");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  const Rule& rule = ast->rules[0];
  ASSERT_EQ(rule.body.size(), 3u);
  EXPECT_EQ(rule.body[1].kind, BodyElem::Kind::kFlatMap);
  EXPECT_EQ(rule.body[2].kind, BodyElem::Kind::kAggregate);
  EXPECT_EQ(rule.body[2].agg_func, AggFunc::kCount);
}

TEST(Parser, ExpressionPrecedence) {
  auto expr = ParseExpr("1 + 2 * 3 == 7 and not (4 < 3)");
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  // Top node is `and`.
  EXPECT_EQ((*expr)->op2, BinOp::kAnd);
  EXPECT_EQ((*expr)->ToString(),
            "(((1 + (2 * 3)) == 7) and not (4 < 3))");
}

TEST(Parser, CastsAndIf) {
  auto expr = ParseExpr("if x > 0 then x as bit<8> else 0");
  ASSERT_TRUE(expr.ok()) << expr.status().ToString();
  EXPECT_EQ((*expr)->kind, Expr::Kind::kCond);
}

TEST(Parser, SyntaxErrors) {
  EXPECT_FALSE(ParseProgram("relation ()").ok());
  EXPECT_FALSE(ParseProgram("relation Foo(x: bit<0>)").ok());
  EXPECT_FALSE(ParseProgram("relation Foo(x: bit<65>)").ok());
  EXPECT_FALSE(ParseProgram("relation Foo(x: bigint, x: bigint)").ok());
  EXPECT_FALSE(ParseProgram(R"(
    relation Foo(x: bigint)
    Foo(1)
  )").ok());  // missing period
  EXPECT_FALSE(ParseProgram(R"(
    relation Foo(x: bigint)
    relation Foo(y: bigint)
  )").ok());  // duplicate relation
}

TEST(Parser, InputKeys) {
  auto ast = ParseProgram(R"(
    input relation Learn(port: bit<16>, vlan: bit<12>, mac: bit<48>)
    key Learn(vlan, mac)
    output relation Key(key: bigint)
    Key(key) :- Learn(_, _, _), var key = 1.
  )");
  ASSERT_TRUE(ast.ok()) << ast.status().ToString();
  ASSERT_EQ(ast->keys.size(), 1u);
  EXPECT_EQ(ast->keys[0].ToString(), "Learn(vlan, mac)");
  EXPECT_EQ(ast->keys[0].line, 3);
  EXPECT_NE(ast->ToString().find("\nkey Learn(vlan, mac)\n"),
            std::string::npos);

  auto error = [](const std::string& key) {
    auto parsed = ParseProgram(R"(
      input relation Learn(port: bit<16>, vlan: bit<12>, mac: bit<48>)
      relation Mid(vlan: bit<12>)
)" + key + "\ninput relation Later(x: bigint)");
    EXPECT_FALSE(parsed.ok()) << key;
    return parsed.ok() ? std::string() : parsed.status().message();
  };
  EXPECT_EQ(error("key Lern(vlan)"),
            "line 4:1: key Lern: no such relation declared before it");
  EXPECT_EQ(error("key Later(x)"),
            "line 4:1: key Later: no such relation declared before it");
  EXPECT_EQ(error("key Learn(vlan, host)"),
            "line 4:1: key Learn: no column 'host'");
  EXPECT_EQ(error("key Learn(vlan + 1)"),
            "line 4:1: key Learn: no column '(vlan + 1)'");
  EXPECT_EQ(error("key Learn()"), "line 4:1: key Learn: no columns");
  EXPECT_EQ(error("key Mid(vlan)"), "line 4:1: key Mid: not an input");
  EXPECT_EQ(error("key Learn(vlan)\n  key Learn(mac)"),
            "line 5:3: key Learn: a second key");
}

TEST(Compile, TypesFlowThroughRules) {
  auto program = Program::Parse(R"(
    input relation P(port: bit<16>, name: string)
    output relation O(p: bit<16>, label: string)
    O(p + 1, "port-" ++ n) :- P(p, n), p < 100.
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
}

TEST(Compile, LiteralWidthChecked) {
  auto program = Program::Parse(R"(
    input relation P(x: bit<4>)
    output relation O(x: bit<4>)
    O(99) :- P(_).
  )");
  EXPECT_FALSE(program.ok());  // 99 does not fit bit<4>
}

TEST(Compile, WildcardInHeadRejected) {
  EXPECT_FALSE(Program::Parse(R"(
    input relation P(x: bigint)
    output relation O(x: bigint)
    O(_) :- P(_).
  )").ok());
}

TEST(Compile, GroupByUnboundRejected) {
  EXPECT_FALSE(Program::Parse(R"(
    input relation P(x: bigint)
    output relation O(g: bigint, n: bigint)
    O(g, n) :- P(x), var n = count(x) group_by (g).
  )").ok());
}

TEST(Compile, AggregateMustBeLast) {
  EXPECT_FALSE(Program::Parse(R"(
    input relation P(x: bigint)
    input relation Q(x: bigint)
    output relation O(n: bigint)
    O(n) :- P(x), var n = count(x) group_by (x), Q(n).
  )").ok());
}

TEST(Compile, RecursiveHeadExpressions) {
  // Recursive rules must have invertible heads (DRed re-derivation):
  // plain variables, constants, and affine bigint terms are invertible...
  EXPECT_TRUE(Program::Parse(R"(
    input relation E(a: bigint, b: bigint)
    output relation R(a: bigint, h: bigint)
    R(a, 0) :- E(a, _).
    R(b, h + 1) :- R(a, h), E(a, b), h < 8.
  )").ok());
  // ...but arbitrary expressions are not.
  EXPECT_FALSE(Program::Parse(R"(
    input relation E(a: bigint, b: bigint)
    output relation R(a: bigint)
    R(a) :- E(a, _).
    R(a * 2) :- R(a), E(a, _).
  )").ok());
}

TEST(Compile, StratifiesChains) {
  auto program = Program::Parse(R"(
    input relation A(x: bigint)
    relation B(x: bigint)
    relation C(x: bigint)
    output relation D(x: bigint)
    B(x) :- A(x).
    C(x) :- B(x), not A(x).
    D(x) :- C(x).
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  // B before C before D.
  int b = (*program)->FindRelation("B");
  int c = (*program)->FindRelation("C");
  int d = (*program)->FindRelation("D");
  EXPECT_LT((*program)->stratum_of(b), (*program)->stratum_of(c));
  EXPECT_LT((*program)->stratum_of(c), (*program)->stratum_of(d));
}

TEST(Eval, Builtins) {
  auto check = [](const char* source, const Value& expected) {
    auto expr = ParseExpr(source);
    ASSERT_TRUE(expr.ok()) << source;
    // Type check against an empty environment (constants only).
    auto program = Program::Parse(std::string(R"(
      output relation O(x: )") +
        (expected.is_string() ? "string"
         : expected.is_bool() ? "bool"
                              : "bigint") +
        ")\nO(" + source + ").");
    ASSERT_TRUE(program.ok()) << program.status().ToString() << " " << source;
    Engine engine(*program);
    auto rows = engine.Dump("O");
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows->size(), 1u) << source;
    EXPECT_EQ((*rows)[0][0], expected) << source;
  };
  check("1 + 2 * 3", Value::Int(7));
  check("-7 % 3", Value::Int(-1));
  check("min2(4, 9)", Value::Int(4));
  check("max2(4, 9)", Value::Int(9));
  check("abs(0 - 5)", Value::Int(5));
  check("len(\"abc\")", Value::Int(3));
  check("contains(\"haystack\", \"hay\")", Value::Bool(true));
  check("substr(\"abcdef\", 2, 3)", Value::String("cde"));
  check("to_string(42)", Value::String("42"));
  check("\"a\" ++ \"b\"", Value::String("ab"));
  check("if 1 < 2 then \"y\" else \"n\"", Value::String("y"));
  check("7 > 3 and 2 != 2 or true", Value::Bool(true));
}

TEST(Eval, DivisionByZeroIsAnError) {
  auto program = Program::Parse(R"(
    input relation P(x: bigint)
    output relation O(x: bigint)
    O(10 / x) :- P(x).
  )");
  ASSERT_TRUE(program.ok());
  Engine engine(*program);
  ASSERT_TRUE(engine.Insert("P", {Value::Int(0)}).ok());
  EXPECT_FALSE(engine.Commit().ok());
}

TEST(Eval, BitArithmeticWraps) {
  auto program = Program::Parse(R"(
    input relation P(x: bit<8>)
    output relation O(x: bit<8>)
    O(x + 1) :- P(x).
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Engine engine(*program);
  ASSERT_TRUE(engine.Insert("P", {Value::Bit(255)}).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_TRUE(engine.Contains("O", {Value::Bit(0)}));  // wraps mod 2^8
}

TEST(Eval, CastTruncates) {
  auto program = Program::Parse(R"(
    input relation P(x: bigint)
    output relation O(x: bit<4>)
    O(x as bit<4>) :- P(x).
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Engine engine(*program);
  ASSERT_TRUE(engine.Insert("P", {Value::Int(0x1F)}).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_TRUE(engine.Contains("O", {Value::Bit(0xF)}));
}

TEST(Eval, FlatMapExpandsVectors) {
  auto program = Program::Parse(R"(
    input relation P(id: bigint, vs: Vec<bigint>)
    output relation O(id: bigint, v: bigint)
    O(id, v) :- P(id, vs), var v in vs.
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Engine engine(*program);
  ASSERT_TRUE(engine
                  .Insert("P", {Value::Int(1),
                                Value::Tuple({Value::Int(10), Value::Int(20),
                                              Value::Int(30)})})
                  .ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.Size("O"), 3u);
  EXPECT_TRUE(engine.Contains("O", {Value::Int(1), Value::Int(20)}));
  // Deleting the row retracts all expansions.
  ASSERT_TRUE(engine
                  .Delete("P", {Value::Int(1),
                                Value::Tuple({Value::Int(10), Value::Int(20),
                                              Value::Int(30)})})
                  .ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.Size("O"), 0u);
}


TEST(Eval, VecBuiltins) {
  auto program = Program::Parse(R"(
    input relation P(id: bigint, vs: Vec<bigint>)
    output relation O(id: bigint, n: bigint)
    O(id, vec_len(vs)) :- P(id, vs), vec_contains(vs, 7).
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Engine engine(*program);
  ASSERT_TRUE(engine
                  .Insert("P", {Value::Int(1),
                                Value::Tuple({Value::Int(7), Value::Int(9)})})
                  .ok());
  ASSERT_TRUE(engine
                  .Insert("P", {Value::Int(2),
                                Value::Tuple({Value::Int(5)})})
                  .ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.Size("O"), 1u);
  EXPECT_TRUE(engine.Contains("O", {Value::Int(1), Value::Int(2)}));
  // Type errors caught at compile time.
  EXPECT_FALSE(Program::Parse(R"(
    input relation P(vs: Vec<bigint>)
    output relation O(b: bool)
    O(vec_contains(vs, "x")) :- P(vs).
  )").ok());
}


TEST(Eval, TupleDestructuringForMapColumns) {
  // OVSDB map columns arrive as Vec<(key, value)>; fst/snd destructure the
  // pairs after a FlatMap.
  auto program = Program::Parse(R"(
    input relation Opts(id: bigint, kv: Vec<(string, bigint)>)
    output relation O(id: bigint, k: string, v: bigint)
    O(id, fst(pair), snd(pair)) :- Opts(id, kv), var pair in kv.
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Engine engine(*program);
  ASSERT_TRUE(
      engine
          .Insert("Opts",
                  {Value::Int(1),
                   Value::Tuple({Value::Tuple({Value::String("mtu"),
                                               Value::Int(9000)}),
                                 Value::Tuple({Value::String("cost"),
                                               Value::Int(10)})})})
          .ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.Size("O"), 2u);
  EXPECT_TRUE(engine.Contains(
      "O", {Value::Int(1), Value::String("mtu"), Value::Int(9000)}));
  // fst on a non-tuple is a compile error.
  EXPECT_FALSE(Program::Parse(R"(
    input relation P(x: bigint)
    output relation O(x: bigint)
    O(fst(x)) :- P(x).
  )").ok());
}

TEST(AstPrinting, RoundTripThroughParser) {
  const char* source = R"(
    input relation E(a: bigint, b: bigint)
    output relation O(a: bigint, s: string)
    O(a, "x" ++ to_string(b)) :- E(a, b), not E(b, a), a < b.
  )";
  auto first = ParseProgram(source);
  ASSERT_TRUE(first.ok());
  auto second = ParseProgram(first->ToString());
  ASSERT_TRUE(second.ok()) << second.status().ToString()
                           << "\nprinted:\n" << first->ToString();
  EXPECT_EQ(first->ToString(), second->ToString());
}

}  // namespace
}  // namespace nerpa::dlog
