// Edge-case and failure-injection tests for the incremental engine:
// behaviours that the main suite's happy paths do not reach — empty-key
// negation, facts inside recursive strata, aggregation over recursion,
// deep negation chains, cascading strata, self-joins, duplicate-variable
// patterns, and engine misuse errors.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>

#include "dlog/engine.h"
#include "dlog/program.h"

namespace nerpa::dlog {
namespace {

std::shared_ptr<const Program> MustParse(std::string_view source) {
  auto program = Program::Parse(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return program.value();
}

Row R(std::initializer_list<Value> values) { return Row(values); }
Value I(int64_t v) { return Value::Int(v); }
Value S(const char* v) { return Value::String(v); }

TEST(DlogEdge, EmptyKeyNegation) {
  // `not Q(_)` tests whole-relation emptiness and must flip both ways.
  auto program = MustParse(R"(
    input relation P(x: bigint)
    input relation Q(x: bigint)
    output relation O(x: bigint)
    O(x) :- P(x), not Q(_).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("P", R({I(1)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.Size("O"), 1u);

  ASSERT_TRUE(engine.Insert("Q", R({I(9)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.Size("O"), 0u);

  // A second Q row then removing one keeps O empty (Q still non-empty).
  ASSERT_TRUE(engine.Insert("Q", R({I(8)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  ASSERT_TRUE(engine.Delete("Q", R({I(9)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.Size("O"), 0u);

  ASSERT_TRUE(engine.Delete("Q", R({I(8)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.Size("O"), 1u);
}

TEST(DlogEdge, FactSeedsRecursiveStratum) {
  auto program = MustParse(R"(
    input relation Edge(a: bigint, b: bigint)
    output relation Reach(a: bigint)
    Reach(0).
    Reach(b) :- Reach(a), Edge(a, b).
  )");
  Engine engine(program);
  EXPECT_TRUE(engine.Contains("Reach", R({I(0)})));
  ASSERT_TRUE(engine.Insert("Edge", R({I(0), I(1)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_TRUE(engine.Contains("Reach", R({I(1)})));
  // The fact itself can never be deleted by edge changes.
  ASSERT_TRUE(engine.Delete("Edge", R({I(0), I(1)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_TRUE(engine.Contains("Reach", R({I(0)})));
  EXPECT_FALSE(engine.Contains("Reach", R({I(1)})));
}

TEST(DlogEdge, AggregationOverRecursion) {
  // Count reachable nodes per source — aggregation stratified above a
  // recursive stratum.
  auto program = MustParse(R"(
    input relation Edge(a: bigint, b: bigint)
    input relation Src(s: bigint)
    relation Reach(s: bigint, n: bigint)
    output relation ReachCount(s: bigint, c: bigint)
    Reach(s, s) :- Src(s).
    Reach(s, b) :- Reach(s, a), Edge(a, b).
    ReachCount(s, c) :- Reach(s, n), var c = count(n) group_by (s).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("Src", R({I(0)})).ok());
  ASSERT_TRUE(engine.Insert("Edge", R({I(0), I(1)})).ok());
  ASSERT_TRUE(engine.Insert("Edge", R({I(1), I(2)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_TRUE(engine.Contains("ReachCount", R({I(0), I(3)})));

  ASSERT_TRUE(engine.Delete("Edge", R({I(1), I(2)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_TRUE(engine.Contains("ReachCount", R({I(0), I(2)})));
  EXPECT_FALSE(engine.Contains("ReachCount", R({I(0), I(3)})));
}

TEST(DlogEdge, DoubleNegationChain) {
  // O = P minus (Q minus R): three strata of antijoins.
  auto program = MustParse(R"(
    input relation P(x: bigint)
    input relation Q(x: bigint)
    input relation Rr(x: bigint)
    relation QminusR(x: bigint)
    output relation O(x: bigint)
    QminusR(x) :- Q(x), not Rr(x).
    O(x) :- P(x), not QminusR(x).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("P", R({I(1)})).ok());
  ASSERT_TRUE(engine.Insert("Q", R({I(1)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.Size("O"), 0u);  // 1 in Q, not in R => blocked

  // Adding 1 to R unblocks it through the double negation.
  ASSERT_TRUE(engine.Insert("Rr", R({I(1)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.Size("O"), 1u);

  ASSERT_TRUE(engine.Delete("Rr", R({I(1)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.Size("O"), 0u);
}

TEST(DlogEdge, SelfJoin) {
  // Two-hop paths within one relation (the same relation twice in a body).
  auto program = MustParse(R"(
    input relation E(a: bigint, b: bigint)
    output relation TwoHop(a: bigint, c: bigint)
    TwoHop(a, c) :- E(a, b), E(b, c).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("E", R({I(1), I(2)})).ok());
  ASSERT_TRUE(engine.Insert("E", R({I(2), I(3)})).ok());
  ASSERT_TRUE(engine.Insert("E", R({I(2), I(2)})).ok());  // self loop
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_TRUE(engine.Contains("TwoHop", R({I(1), I(3)})));
  EXPECT_TRUE(engine.Contains("TwoHop", R({I(1), I(2)})));
  EXPECT_TRUE(engine.Contains("TwoHop", R({I(2), I(2)})));
  EXPECT_TRUE(engine.Contains("TwoHop", R({I(2), I(3)})));
  // Deleting the loop removes exactly the loop-dependent pairs.
  ASSERT_TRUE(engine.Delete("E", R({I(2), I(2)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_FALSE(engine.Contains("TwoHop", R({I(2), I(2)})));
  EXPECT_FALSE(engine.Contains("TwoHop", R({I(1), I(2)})));
  EXPECT_TRUE(engine.Contains("TwoHop", R({I(1), I(3)})));
}

TEST(DlogEdge, RepeatedVariablePattern) {
  // E(x, x) matches only diagonal rows.
  auto program = MustParse(R"(
    input relation E(a: bigint, b: bigint)
    output relation Diag(a: bigint)
    Diag(x) :- E(x, x).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("E", R({I(1), I(1)})).ok());
  ASSERT_TRUE(engine.Insert("E", R({I(1), I(2)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.Size("Diag"), 1u);
  EXPECT_TRUE(engine.Contains("Diag", R({I(1)})));
}

TEST(DlogEdge, NegatedRepeatedVariableInRecursiveStratum) {
  // Deleting B(1, 2) flips the key (1, 2) of `not B(a, a)` to absent, but
  // no `a` binds both columns to different values, so nothing changes:
  // B(2, 2) still forbids R(2, 5).
  auto program = MustParse(R"(
    input relation E(a: bigint, b: bigint)
    input relation B(a: bigint, b: bigint)
    output relation R(a: bigint, b: bigint)
    R(a, b) :- E(a, b), not B(a, a).
    R(a, c) :- R(a, b), E(b, c).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("E", R({I(2), I(5)})).ok());
  ASSERT_TRUE(engine.Insert("B", R({I(2), I(2)})).ok());
  ASSERT_TRUE(engine.Insert("B", R({I(1), I(2)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.Size("R"), 0u);

  ASSERT_TRUE(engine.Delete("B", R({I(1), I(2)})).ok());
  auto delta = engine.Commit();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_TRUE(delta->empty()) << delta->ToString();
  EXPECT_EQ(engine.Size("R"), 0u);
}

TEST(DlogEdge, ReinsertedOverdeletedTupleIsNotAChange) {
  // Deleting E(3, 4) overdeletes R(3, 3), which no surviving tuple
  // rederives; the new path 3 -> 5 -> 3 re-inserts it in the same commit.
  // R(3, 3) was present before and after, so the delta must not list it.
  auto program = MustParse(R"(
    input relation E(a: bigint, b: bigint)
    output relation R(a: bigint, b: bigint)
    R(a, b) :- E(a, b).
    R(a, c) :- R(a, b), E(b, c).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("E", R({I(3), I(4)})).ok());
  ASSERT_TRUE(engine.Insert("E", R({I(4), I(3)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  ASSERT_TRUE(engine.Contains("R", R({I(3), I(3)})));

  ASSERT_TRUE(engine.Delete("E", R({I(3), I(4)})).ok());
  ASSERT_TRUE(engine.Insert("E", R({I(3), I(5)})).ok());
  ASSERT_TRUE(engine.Insert("E", R({I(5), I(3)})).ok());
  auto delta = engine.Commit();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->ToString(),
            "- R(3, 4)\n- R(4, 4)\n"
            "+ R(3, 5)\n+ R(4, 5)\n+ R(5, 3)\n+ R(5, 5)\n");
  EXPECT_TRUE(engine.Contains("R", R({I(3), I(3)})));
}

TEST(DlogEdge, SelfLoopUnderAffineRecursion) {
  // The new self-loop E(1, 1) derives D(1, h + 1) from every D(1, h): the
  // pass reading D's new rows under key 1 keeps deriving rows with that
  // same key.  (The bucket being read used to grow under its own reader, a
  // use-after-free the sanitizer builds catch.)
  auto program = MustParse(R"(
    input relation E(a: bigint, b: bigint)
    output relation D(n: bigint, h: bigint)
    D(1, 0).
    D(1, 5).
    D(b, h + 1) :- D(a, h), E(a, b), h < 10.
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("E", R({I(1), I(1)})).ok());
  auto delta = engine.Commit();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->ToString(),
            "+ D(1, 1)\n+ D(1, 2)\n+ D(1, 3)\n+ D(1, 4)\n+ D(1, 6)\n"
            "+ D(1, 7)\n+ D(1, 8)\n+ D(1, 9)\n+ D(1, 10)\n");
  EXPECT_EQ(engine.Size("D"), 11u);
}

TEST(DlogEdge, CascadeAcrossManyStrata) {
  // A 6-deep chain: one input insert must ripple all the way down.
  auto program = MustParse(R"(
    input relation A(x: bigint)
    relation B(x: bigint)
    relation C(x: bigint)
    relation D(x: bigint)
    relation E(x: bigint)
    output relation F(x: bigint)
    B(x + 1) :- A(x).
    C(x + 1) :- B(x).
    D(x + 1) :- C(x).
    E(x + 1) :- D(x).
    F(x + 1) :- E(x).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("A", R({I(0)})).ok());
  auto delta = engine.Commit();
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta->outputs["F"].size(), 1u);
  EXPECT_EQ(delta->outputs["F"][0].first, R({I(5)}));
  ASSERT_TRUE(engine.Delete("A", R({I(0)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.Size("F"), 0u);
}

TEST(DlogEdge, ApiMisuseErrors) {
  auto program = MustParse(R"(
    input relation P(x: bigint)
    output relation O(x: bigint)
    O(x) :- P(x).
  )");
  Engine engine(program);
  // Unknown relation.
  EXPECT_FALSE(engine.Insert("Nope", R({I(1)})).ok());
  // Writing a derived relation.
  EXPECT_FALSE(engine.Insert("O", R({I(1)})).ok());
  // Arity mismatch.
  EXPECT_FALSE(engine.Insert("P", R({I(1), I(2)})).ok());
  // Type mismatch.
  EXPECT_FALSE(engine.Insert("P", R({S("x")})).ok());
  // Dump of unknown relation.
  EXPECT_FALSE(engine.Dump("Nope").ok());
}

TEST(DlogEdge, DuplicateInsertAndDeleteOfAbsentAreIdempotent) {
  auto program = MustParse(R"(
    input relation P(x: bigint)
    output relation O(x: bigint)
    O(x) :- P(x).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("P", R({I(1)})).ok());
  ASSERT_TRUE(engine.Insert("P", R({I(1)})).ok());  // dup in one txn
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.Size("O"), 1u);
  ASSERT_TRUE(engine.Insert("P", R({I(1)})).ok());  // dup across txns
  auto delta = engine.Commit();
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->empty());
  ASSERT_TRUE(engine.Delete("P", R({I(7)})).ok());  // absent row
  delta = engine.Commit();
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->empty());
}

TEST(DlogEdge, AblationEngineMatchesDefault) {
  // The scan-join engine must compute identical results.
  auto program = MustParse(R"(
    input relation E(a: bigint, b: bigint)
    input relation F(b: bigint, c: bigint)
    output relation J(a: bigint, c: bigint)
    output relation Agg(a: bigint, n: bigint)
    J(a, c) :- E(a, b), F(b, c).
    Agg(a, n) :- E(a, b), var n = count(b) group_by (a).
  )");
  EngineOptions scan_options;
  scan_options.use_arrangements = false;
  Engine indexed(program);
  Engine scanning(program, scan_options);
  std::mt19937_64 rng(99);
  std::set<std::pair<int64_t, int64_t>> e_rows, f_rows;
  for (int step = 0; step < 40; ++step) {
    int64_t a = static_cast<int64_t>(rng() % 5);
    int64_t b = static_cast<int64_t>(rng() % 5);
    bool do_f = rng() % 2 == 0;
    auto& target = do_f ? f_rows : e_rows;
    const char* relation = do_f ? "F" : "E";
    Row row{I(a), I(b)};
    if (target.count({a, b}) != 0 && rng() % 2 == 0) {
      ASSERT_TRUE(indexed.Delete(relation, row).ok());
      ASSERT_TRUE(scanning.Delete(relation, row).ok());
      target.erase({a, b});
    } else {
      ASSERT_TRUE(indexed.Insert(relation, row).ok());
      ASSERT_TRUE(scanning.Insert(relation, row).ok());
      target.insert({a, b});
    }
    ASSERT_TRUE(indexed.Commit().ok());
    ASSERT_TRUE(scanning.Commit().ok());
    for (const char* out : {"J", "Agg"}) {
      EXPECT_EQ(*indexed.Dump(out), *scanning.Dump(out)) << "step " << step;
    }
  }
  // And the ablation engine really carries no index entries.
  EXPECT_EQ(scanning.GetStats().arrangement_entries, 0u);
  EXPECT_GT(indexed.GetStats().arrangement_entries, 0u);
}

TEST(DlogEdge, LargeTransactionThenTeardown) {
  // A coarse memory-behaviour check: state returns to empty after full
  // teardown (no leaked tuples/arrangement entries).
  auto program = MustParse(R"(
    input relation E(a: bigint, b: bigint)
    output relation J(a: bigint, b: bigint)
    J(a, b) :- E(a, b), a < b.
  )");
  Engine engine(program);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(engine.Insert("E", R({I(i % 25), I(i)})).ok());
  }
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_GT(engine.GetStats().tuples, 0u);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(engine.Delete("E", R({I(i % 25), I(i)})).ok());
  }
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.GetStats().tuples, 0u);
  EXPECT_EQ(engine.GetStats().arrangement_entries, 0u);
}

TEST(DlogEdge, HopCountedShortestPathUpdates) {
  // Affine recursive heads: distances update on topology changes.
  auto program = MustParse(R"(
    input relation Edge(a: bigint, b: bigint)
    output relation Dist(n: bigint, h: bigint)
    Dist(0, 0).
    Dist(b, h + 1) :- Dist(a, h), Edge(a, b), h < 10.
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("Edge", R({I(0), I(1)})).ok());
  ASSERT_TRUE(engine.Insert("Edge", R({I(1), I(2)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  // Dist holds ALL hop counts <= bound; the min is the shortest path.
  EXPECT_TRUE(engine.Contains("Dist", R({I(2), I(2)})));
  // Add a shortcut 0 -> 2: distance 1 appears (2 remains; set semantics).
  ASSERT_TRUE(engine.Insert("Edge", R({I(0), I(2)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_TRUE(engine.Contains("Dist", R({I(2), I(1)})));
  // Remove the shortcut: the 1-hop distance retracts.
  ASSERT_TRUE(engine.Delete("Edge", R({I(0), I(2)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_FALSE(engine.Contains("Dist", R({I(2), I(1)})));
  EXPECT_TRUE(engine.Contains("Dist", R({I(2), I(2)})));
}

TEST(DlogEdge, Bit64DivisionIsUnsigned) {
  // A bit<64> operand of 2^63 or more is a large unsigned value, not a
  // negative one.
  auto program = MustParse(R"(
    input relation A(x: bit<64>)
    output relation D(q: bit<64>, r: bit<64>)
    D(x / 2, x % 10) :- A(x).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("A", R({Value::Bit(UINT64_MAX)})).ok());
  ASSERT_TRUE(engine.Insert("A", R({Value::Bit(uint64_t{1} << 63)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(*engine.Dump("D"),
            (std::vector<Row>{
                R({Value::Bit(uint64_t{1} << 62), Value::Bit(8)}),
                R({Value::Bit(INT64_MAX), Value::Bit(5)})}));
}

TEST(DlogEdge, BigintOverflowWraps) {
  // bigint arithmetic wraps modulo 2^64.  INT64_MIN / -1 is INT64_MIN and
  // INT64_MIN % -1 is 0; neither may trap, since one management-plane row
  // reaches them.
  auto program = MustParse(R"(
    input relation A(x: bigint, y: bigint)
    output relation Q(x: bigint, q: bigint, r: bigint)
    output relation W(x: bigint, s: bigint, d: bigint, p: bigint, n: bigint,
                      a: bigint)
    Q(x, z, m) :- A(x, y), var w = x - 1, var z = w / y, var m = w % y.
    W(x, x + y, x - y, x * y, -x, abs(x)) :- A(x, y).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("A", R({I(-INT64_MAX), I(-1)})).ok());
  ASSERT_TRUE(engine.Insert("A", R({I(INT64_MIN), I(2)})).ok());
  ASSERT_TRUE(engine.Insert("A", R({I(INT64_MAX), I(INT64_MAX)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(*engine.Dump("Q"),
            (std::vector<Row>{R({I(INT64_MIN), I(INT64_MAX / 2), I(1)}),
                              R({I(-INT64_MAX), I(INT64_MIN), I(0)}),
                              R({I(INT64_MAX), I(0), I(INT64_MAX - 1)})}));
  EXPECT_EQ(*engine.Dump("W"),
            (std::vector<Row>{
                R({I(INT64_MIN), I(INT64_MIN + 2), I(INT64_MAX - 1), I(0),
                   I(INT64_MIN), I(INT64_MIN)}),
                R({I(-INT64_MAX), I(INT64_MIN), I(-INT64_MAX + 1),
                   I(INT64_MAX), I(INT64_MAX), I(INT64_MAX)}),
                R({I(INT64_MAX), I(-2), I(0), I(1), I(-INT64_MAX),
                   I(INT64_MAX)})}));
}

/// Holds an engine in a function-local static that is filled on first use,
/// commits rows into it and exits.  The static is constructed before any
/// function-local static the engine first uses, so it is destroyed after
/// them: tearing down its z-sets and indexes must need none of them (the
/// intern pool is leaked for this reason).
[[noreturn]] void BuildStaticEngineAndExit() {
  static std::unique_ptr<Engine> engine;
  engine = std::make_unique<Engine>(MustParse(R"(
    input relation P(x: bigint)
    output relation O(x: bigint)
    O(x) :- P(x).
  )"));
  for (int64_t i = 0; i < 2000; ++i) {
    if (!engine->Insert("P", R({I(i)})).ok()) std::exit(2);
  }
  if (!engine->Commit().ok()) std::exit(3);
  std::exit(0);
}

TEST(DlogEdge, StaticEngineBuiltOnFirstUseExitsCleanly) {
  // The threadsafe style runs this test alone in a fresh process.  Under
  // the fast style an earlier test in this binary has already built the
  // registry, and the hazard cannot show.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(BuildStaticEngineAndExit(), ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace nerpa::dlog
