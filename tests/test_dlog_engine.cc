// Core behaviour of the incremental Datalog engine: joins, negation,
// aggregation, recursion, and — most importantly — the equivalence between
// incremental evaluation and from-scratch recomputation.  Also the flat
// z-set the engine keeps its counts and deltas in, against a node map.
#include <gtest/gtest.h>

#include <random>
#include <unordered_map>

#include "dlog/engine.h"
#include "dlog/program.h"

namespace nerpa::dlog {
namespace {

using ::testing::Test;

std::shared_ptr<const Program> MustParse(std::string_view source) {
  auto program = Program::Parse(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return program.value();
}

Row R(std::initializer_list<Value> values) { return Row(values); }
Value I(int64_t v) { return Value::Int(v); }
Value B(uint64_t v) { return Value::Bit(v); }
Value S(const char* v) { return Value::String(v); }

TEST(DlogEngine, SimpleProjection) {
  auto program = MustParse(R"(
    input relation Port(id: bigint, mode: string, tag: bigint)
    output relation InVlan(port: bigint, vlan: bigint)
    InVlan(p, t) :- Port(p, "access", t).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("Port", R({I(1), S("access"), I(10)})).ok());
  ASSERT_TRUE(engine.Insert("Port", R({I(2), S("trunk"), I(20)})).ok());
  auto delta = engine.Commit();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  ASSERT_EQ(delta->outputs.count("InVlan"), 1u);
  ASSERT_EQ(delta->outputs["InVlan"].size(), 1u);
  EXPECT_EQ(delta->outputs["InVlan"][0].first, R({I(1), I(10)}));
  EXPECT_EQ(delta->outputs["InVlan"][0].second, +1);

  // Deleting the access port retracts the derived row.
  ASSERT_TRUE(engine.Delete("Port", R({I(1), S("access"), I(10)})).ok());
  delta = engine.Commit();
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta->outputs["InVlan"].size(), 1u);
  EXPECT_EQ(delta->outputs["InVlan"][0].second, -1);
  EXPECT_EQ(engine.Size("InVlan"), 0u);
}

TEST(DlogEngine, JoinAndArithmetic) {
  auto program = MustParse(R"(
    input relation E(a: bigint, b: bigint)
    input relation F(b: bigint, c: bigint)
    output relation G(a: bigint, c: bigint, s: bigint)
    G(a, c, a + c) :- E(a, b), F(b, c), a != c.
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("E", R({I(1), I(2)})).ok());
  ASSERT_TRUE(engine.Insert("F", R({I(2), I(3)})).ok());
  ASSERT_TRUE(engine.Insert("F", R({I(2), I(1)})).ok());  // filtered: a == c
  auto delta = engine.Commit();
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(engine.Size("G"), 1u);
  EXPECT_TRUE(engine.Contains("G", R({I(1), I(3), I(4)})));

  // Adding a second E row joins with the existing F rows incrementally.
  ASSERT_TRUE(engine.Insert("E", R({I(7), I(2)})).ok());
  delta = engine.Commit();
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(engine.Size("G"), 3u);  // (1,3), (7,3), (7,1)
  EXPECT_TRUE(engine.Contains("G", R({I(7), I(1), I(8)})));
}

TEST(DlogEngine, DerivationCountsSurviveOneSupportRemoval) {
  // The same derived row from two different supports: deleting one support
  // must NOT retract the row; deleting both must.
  auto program = MustParse(R"(
    input relation A(x: bigint)
    input relation B(x: bigint)
    output relation O(x: bigint)
    O(x) :- A(x).
    O(x) :- B(x).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("A", R({I(5)})).ok());
  ASSERT_TRUE(engine.Insert("B", R({I(5)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_TRUE(engine.Contains("O", R({I(5)})));

  ASSERT_TRUE(engine.Delete("A", R({I(5)})).ok());
  auto delta = engine.Commit();
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->empty()) << delta->ToString();
  EXPECT_TRUE(engine.Contains("O", R({I(5)})));

  ASSERT_TRUE(engine.Delete("B", R({I(5)})).ok());
  delta = engine.Commit();
  ASSERT_TRUE(delta.ok());
  EXPECT_FALSE(engine.Contains("O", R({I(5)})));
  ASSERT_EQ(delta->outputs["O"].size(), 1u);
  EXPECT_EQ(delta->outputs["O"][0].second, -1);
}

TEST(DlogEngine, NegationIncremental) {
  auto program = MustParse(R"(
    input relation All(x: bigint)
    input relation Banned(x: bigint)
    output relation Allowed(x: bigint)
    Allowed(x) :- All(x), not Banned(x).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("All", R({I(1)})).ok());
  ASSERT_TRUE(engine.Insert("All", R({I(2)})).ok());
  ASSERT_TRUE(engine.Insert("Banned", R({I(2)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_TRUE(engine.Contains("Allowed", R({I(1)})));
  EXPECT_FALSE(engine.Contains("Allowed", R({I(2)})));

  // Banning 1 retracts it; unbanning 2 derives it.
  ASSERT_TRUE(engine.Insert("Banned", R({I(1)})).ok());
  ASSERT_TRUE(engine.Delete("Banned", R({I(2)})).ok());
  auto delta = engine.Commit();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_FALSE(engine.Contains("Allowed", R({I(1)})));
  EXPECT_TRUE(engine.Contains("Allowed", R({I(2)})));
  EXPECT_EQ(delta->outputs["Allowed"].size(), 2u);
}

TEST(DlogEngine, PaperLabelProgramRecursion) {
  // The exact program from §1 of the paper.
  auto program = MustParse(R"(
    input relation GivenLabel(n1: bigint, label: string)
    input relation Edge(n1: bigint, n2: bigint)
    output relation Label(n: bigint, label: string)
    Label(n1, label) :- GivenLabel(n1, label).
    Label(n2, label) :- Label(n1, label), Edge(n1, n2).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("GivenLabel", R({I(0), S("red")})).ok());
  ASSERT_TRUE(engine.Insert("Edge", R({I(0), I(1)})).ok());
  ASSERT_TRUE(engine.Insert("Edge", R({I(1), I(2)})).ok());
  auto delta = engine.Commit();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(engine.Size("Label"), 3u);
  EXPECT_TRUE(engine.Contains("Label", R({I(2), S("red")})));

  // Incremental edge insertion extends the reachable set.
  ASSERT_TRUE(engine.Insert("Edge", R({I(2), I(3)})).ok());
  delta = engine.Commit();
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta->outputs["Label"].size(), 1u);
  EXPECT_EQ(delta->outputs["Label"][0].first, R({I(3), S("red")}));

  // Deleting the middle edge retracts the tail of the chain (DRed).
  ASSERT_TRUE(engine.Delete("Edge", R({I(1), I(2)})).ok());
  delta = engine.Commit();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(engine.Size("Label"), 2u);
  EXPECT_FALSE(engine.Contains("Label", R({I(2), S("red")})));
  EXPECT_FALSE(engine.Contains("Label", R({I(3), S("red")})));
}

TEST(DlogEngine, RecursionWithCycleDeletion) {
  // A cycle keeps nodes alive only while externally supported (DRed must
  // not rederive a label through the cycle itself).
  auto program = MustParse(R"(
    input relation GivenLabel(n1: bigint, label: string)
    input relation Edge(n1: bigint, n2: bigint)
    output relation Label(n: bigint, label: string)
    Label(n1, label) :- GivenLabel(n1, label).
    Label(n2, label) :- Label(n1, label), Edge(n1, n2).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("GivenLabel", R({I(0), S("x")})).ok());
  ASSERT_TRUE(engine.Insert("Edge", R({I(0), I(1)})).ok());
  ASSERT_TRUE(engine.Insert("Edge", R({I(1), I(2)})).ok());
  ASSERT_TRUE(engine.Insert("Edge", R({I(2), I(1)})).ok());  // cycle 1<->2
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_EQ(engine.Size("Label"), 3u);

  // Cut the bridge 0->1: the cycle must not keep itself alive.
  ASSERT_TRUE(engine.Delete("Edge", R({I(0), I(1)})).ok());
  auto delta = engine.Commit();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(engine.Size("Label"), 1u);
  EXPECT_TRUE(engine.Contains("Label", R({I(0), S("x")})));
}

TEST(DlogEngine, AggregationCountIncremental) {
  auto program = MustParse(R"(
    input relation Mac(port: bigint, mac: bigint)
    output relation MacCount(port: bigint, n: bigint)
    MacCount(port, n) :- Mac(port, mac), var n = count(mac) group_by (port).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("Mac", R({I(1), I(100)})).ok());
  ASSERT_TRUE(engine.Insert("Mac", R({I(1), I(101)})).ok());
  ASSERT_TRUE(engine.Insert("Mac", R({I(2), I(200)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_TRUE(engine.Contains("MacCount", R({I(1), I(2)})));
  EXPECT_TRUE(engine.Contains("MacCount", R({I(2), I(1)})));

  // Adding to port 1 replaces (1,2) with (1,3).
  ASSERT_TRUE(engine.Insert("Mac", R({I(1), I(102)})).ok());
  auto delta = engine.Commit();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  ASSERT_EQ(delta->outputs["MacCount"].size(), 2u);
  EXPECT_TRUE(engine.Contains("MacCount", R({I(1), I(3)})));
  EXPECT_FALSE(engine.Contains("MacCount", R({I(1), I(2)})));

  // Deleting the last mac of port 2 removes the group entirely.
  ASSERT_TRUE(engine.Delete("Mac", R({I(2), I(200)})).ok());
  delta = engine.Commit();
  ASSERT_TRUE(delta.ok());
  EXPECT_FALSE(engine.Contains("MacCount", R({I(2), I(1)})));
  EXPECT_EQ(engine.Size("MacCount"), 1u);
}

TEST(DlogEngine, AggregationSumMinMax) {
  auto program = MustParse(R"(
    input relation Load(server: string, load: bigint)
    output relation TotalLoad(server: string, total: bigint)
    output relation MaxLoad(server: string, m: bigint)
    TotalLoad(s, t) :- Load(s, l), var t = sum(l) group_by (s).
    MaxLoad(s, m) :- Load(s, l), var m = max(l) group_by (s).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("Load", R({S("a"), I(10)})).ok());
  ASSERT_TRUE(engine.Insert("Load", R({S("a"), I(32)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_TRUE(engine.Contains("TotalLoad", R({S("a"), I(42)})));
  EXPECT_TRUE(engine.Contains("MaxLoad", R({S("a"), I(32)})));

  ASSERT_TRUE(engine.Delete("Load", R({S("a"), I(32)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_TRUE(engine.Contains("TotalLoad", R({S("a"), I(10)})));
  EXPECT_TRUE(engine.Contains("MaxLoad", R({S("a"), I(10)})));
}

TEST(DlogEngine, FactsAndInitialDelta) {
  auto program = MustParse(R"(
    input relation X(x: bigint)
    output relation O(x: bigint)
    O(42).
    O(x) :- X(x).
  )");
  Engine engine(program);
  TxnDelta initial = engine.TakeInitialDelta();
  ASSERT_EQ(initial.outputs["O"].size(), 1u);
  EXPECT_EQ(initial.outputs["O"][0].first, R({I(42)}));
  EXPECT_TRUE(engine.Contains("O", R({I(42)})));
}

TEST(DlogEngine, NegationOnlyRuleAtInit) {
  // H holds while R is empty (implicit-TRUE delta expansion at init).
  auto program = MustParse(R"(
    input relation Q(x: bigint)
    output relation H(x: bigint)
    H(1) :- not Q(1).
  )");
  Engine engine(program);
  EXPECT_TRUE(engine.Contains("H", R({I(1)})));

  ASSERT_TRUE(engine.Insert("Q", R({I(1)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_FALSE(engine.Contains("H", R({I(1)})));

  ASSERT_TRUE(engine.Delete("Q", R({I(1)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  EXPECT_TRUE(engine.Contains("H", R({I(1)})));
}

TEST(DlogEngine, BitTypesAndStringOps) {
  auto program = MustParse(R"(
    input relation Port(id: bit<32>, vlan: bit<12>)
    output relation Tag(id: bit<32>, tag: bit<12>, name: string)
    Tag(p, v + 1, "vlan-" ++ to_string(v)) :- Port(p, v).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("Port", R({B(7), B(4094)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  // 4094 + 1 = 4095 fits bit<12>.
  EXPECT_TRUE(engine.Contains("Tag", R({B(7), B(4095), S("vlan-4094")})));

  // Row that does not fit the declared width is rejected at the API edge.
  EXPECT_FALSE(engine.Insert("Port", R({B(7), B(5000)})).ok());
}

TEST(DlogEngine, TransactionCancellation) {
  auto program = MustParse(R"(
    input relation X(x: bigint)
    output relation O(x: bigint)
    O(x) :- X(x).
  )");
  Engine engine(program);
  // Insert+delete within one transaction cancels; no output delta.
  ASSERT_TRUE(engine.Insert("X", R({I(1)})).ok());
  ASSERT_TRUE(engine.Delete("X", R({I(1)})).ok());
  auto delta = engine.Commit();
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->empty());
  EXPECT_EQ(engine.Size("O"), 0u);
}

// ---------------------------------------------------------------------------
// The golden property: incremental == from-scratch, under random updates.
// ---------------------------------------------------------------------------

/// Recomputes `program` from scratch over `rows` and compares every output
/// relation against `incremental`.
void ExpectEquivalentToScratch(
    const std::shared_ptr<const Program>& program, Engine& incremental,
    const std::map<std::string, std::set<std::vector<int64_t>>>& inputs) {
  Engine scratch(program);
  for (const auto& [relation, rows] : inputs) {
    for (const auto& ints : rows) {
      Row row;
      for (int64_t v : ints) row.push_back(Value::Int(v));
      ASSERT_TRUE(scratch.Insert(relation, row).ok());
    }
  }
  ASSERT_TRUE(scratch.Commit().ok());
  for (const RelationDecl& decl : program->relations()) {
    if (decl.role == RelationRole::kInput) continue;
    auto a = incremental.Dump(decl.name);
    auto b = scratch.Dump(decl.name);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(*a, *b) << "relation " << decl.name << " diverged";
  }
}

struct RandomizedCase {
  const char* name;
  const char* source;
  // Input relation name -> arity and value ranges.
  std::vector<std::pair<std::string, int>> inputs;
  int64_t domain;  // values drawn from [0, domain)
};

class DlogRandomized : public ::testing::TestWithParam<RandomizedCase> {};

TEST_P(DlogRandomized, IncrementalMatchesScratch) {
  const RandomizedCase& tc = GetParam();
  auto program = MustParse(tc.source);
  Engine engine(program);
  std::map<std::string, std::set<std::vector<int64_t>>> state;
  std::mt19937_64 rng(0xC0FFEE ^ std::hash<std::string>{}(tc.name));

  for (int step = 0; step < 60; ++step) {
    // A transaction of 1..5 random ops.
    int ops = 1 + static_cast<int>(rng() % 5);
    for (int k = 0; k < ops; ++k) {
      const auto& [relation, arity] =
          tc.inputs[rng() % tc.inputs.size()];
      std::vector<int64_t> ints;
      for (int i = 0; i < arity; ++i) {
        ints.push_back(static_cast<int64_t>(rng() % static_cast<uint64_t>(
            tc.domain)));
      }
      Row row;
      for (int64_t v : ints) row.push_back(Value::Int(v));
      bool del = !state[relation].empty() && (rng() % 3 == 0);
      if (del) {
        // Delete a random existing row instead.
        auto it = state[relation].begin();
        std::advance(it, static_cast<long>(rng() % state[relation].size()));
        ints = *it;
        row.clear();
        for (int64_t v : ints) row.push_back(Value::Int(v));
        ASSERT_TRUE(engine.Delete(relation, row).ok());
        state[relation].erase(it);
      } else {
        ASSERT_TRUE(engine.Insert(relation, row).ok());
        state[relation].insert(ints);
      }
    }
    auto delta = engine.Commit();
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    if (step % 10 == 9) {
      ExpectEquivalentToScratch(program, engine, state);
    }
  }
  ExpectEquivalentToScratch(program, engine, state);
}

INSTANTIATE_TEST_SUITE_P(
    Programs, DlogRandomized,
    ::testing::Values(
        RandomizedCase{
            "join",
            R"(input relation E(a: bigint, b: bigint)
               input relation F(a: bigint, b: bigint)
               output relation J(a: bigint, c: bigint)
               J(a, c) :- E(a, b), F(b, c).)",
            {{"E", 2}, {"F", 2}},
            6},
        RandomizedCase{
            "negation",
            R"(input relation A(x: bigint, y: bigint)
               input relation B(x: bigint)
               output relation O(x: bigint, y: bigint)
               O(x, y) :- A(x, y), not B(y).)",
            {{"A", 2}, {"B", 1}},
            5},
        RandomizedCase{
            "negation_partial",
            R"(input relation A(x: bigint, y: bigint)
               input relation B(x: bigint, y: bigint)
               output relation O(x: bigint, y: bigint)
               O(x, y) :- A(x, y), not B(x, _).)",
            {{"A", 2}, {"B", 2}},
            4},
        RandomizedCase{
            "reachability",
            R"(input relation Edge(a: bigint, b: bigint)
               input relation Src(a: bigint)
               output relation Reach(a: bigint)
               Reach(a) :- Src(a).
               Reach(b) :- Reach(a), Edge(a, b).)",
            {{"Edge", 2}, {"Src", 1}},
            8},
        RandomizedCase{
            "aggregation",
            R"(input relation M(g: bigint, v: bigint)
               output relation C(g: bigint, n: bigint)
               output relation Sums(g: bigint, s: bigint)
               C(g, n) :- M(g, v), var n = count(v) group_by (g).
               Sums(g, s) :- M(g, v), var s = sum(v) group_by (g).)",
            {{"M", 2}},
            5},
        RandomizedCase{
            "chained",
            R"(input relation E(a: bigint, b: bigint)
               input relation Block(x: bigint)
               relation Mid(a: bigint, b: bigint)
               output relation Out(a: bigint, b: bigint)
               Mid(a, b) :- E(a, b), not Block(a).
               Out(a, c) :- Mid(a, b), Mid(b, c).)",
            {{"E", 2}, {"Block", 1}},
            5},
        RandomizedCase{
            "hop_counted_recursion",
            R"(input relation Edge(a: bigint, b: bigint)
               input relation Src(a: bigint)
               output relation Dist(a: bigint, h: bigint)
               Dist(a, 0) :- Src(a).
               Dist(b, h + 1) :- Dist(a, h), Edge(a, b), h < 4.)",
            {{"Edge", 2}, {"Src", 1}},
            6},
        RandomizedCase{
            "mutual_recursion",
            R"(input relation Base(x: bigint)
               input relation Step(a: bigint, b: bigint)
               output relation Even(x: bigint)
               output relation Odd(x: bigint)
               Even(x) :- Base(x).
               Odd(b) :- Even(a), Step(a, b).
               Even(b) :- Odd(a), Step(a, b).)",
            {{"Base", 1}, {"Step", 2}},
            6}),
    [](const ::testing::TestParamInfo<RandomizedCase>& info) {
      return info.param.name;
    });

TEST(DlogCompile, RejectsUnstratifiable) {
  auto program = Program::Parse(R"(
    input relation A(x: bigint)
    output relation P(x: bigint)
    output relation Q(x: bigint)
    P(x) :- A(x), not Q(x).
    Q(x) :- A(x), not P(x).
  )");
  EXPECT_FALSE(program.ok());
}

TEST(DlogCompile, RejectsUnboundNegatedVariable) {
  auto program = Program::Parse(R"(
    input relation A(x: bigint)
    output relation O(x: bigint)
    O(x) :- A(x), not A(y).
  )");
  EXPECT_FALSE(program.ok());
}

TEST(DlogCompile, RejectsTypeMismatch) {
  auto program = Program::Parse(R"(
    input relation A(x: bigint)
    output relation O(x: string)
    O(x) :- A(x).
  )");
  EXPECT_FALSE(program.ok());
}

TEST(DlogCompile, RejectsRuleForInputRelation) {
  auto program = Program::Parse(R"(
    input relation A(x: bigint)
    input relation B(x: bigint)
    A(x) :- B(x).
  )");
  EXPECT_FALSE(program.ok());
}

// ---------------------------------------------------------------------------
// ZSet, the flat row -> weight map, against std::unordered_map.
// ---------------------------------------------------------------------------

/// Row `i` of `arity` columns: i, then `tag` and i's multiples in turn.
Row WideRow(int64_t i, size_t arity, const char* tag) {
  Row row;
  for (size_t c = 0; c < arity; ++c) {
    row.push_back(c % 2 == 1 ? S(tag) : I(i * static_cast<int64_t>(c + 1)));
  }
  return row;
}

/// `count` rows of `arity` columns whose hashes agree in their low 10 bits
/// on 1020..1023, so at every slot count up to 1024 their homes are the
/// last four slots: probe runs wrap past the end of the slot array, and
/// backward-shift deletion moves entries across the wrap.  Arity 0 has
/// the one row ().
std::vector<Row> RowsHomedAtTheEnd(size_t count, size_t arity) {
  if (arity == 0) return {Row()};
  std::vector<Row> rows;
  for (int64_t i = 0; rows.size() < count; ++i) {
    Row row = WideRow(i, arity, "wrap");
    if ((row.Hash() & 1023) >= 1020) rows.push_back(row);
  }
  return rows;
}

TEST(FlatZSet, MatchesUnorderedMapUnderCollidingHashes) {
  for (size_t arity : {0, 1, 3, 4, 6, 8}) {
    SCOPED_TRACE(testing::Message() << "arity " << arity);
    std::vector<Row> pool = RowsHomedAtTheEnd(96, arity);
    for (int64_t i = 0; i < 32 && arity > 0; ++i) {
      pool.push_back(WideRow(-i - 1, arity, "plain"));
    }
    ZSet zset;
    std::unordered_map<Row, int64_t, RowHash, RowEq> model;
    std::mt19937_64 rng(24);
    for (int op = 0; op < 20000; ++op) {
      const Row& row = pool[rng() % pool.size()];
      int64_t weight = static_cast<int64_t>(rng() % 7) - 3;
      switch (rng() % 64) {
        case 0:
          zset.clear();
          model.clear();
          break;
        case 1: case 2: case 3: case 4: case 5: case 6: case 7: case 8:
        case 9: case 10: case 11: case 12: case 13: case 14: case 15: {
          auto [it, inserted] = zset.try_emplace(row, weight);
          auto [mit, minserted] = model.try_emplace(row, weight);
          ASSERT_EQ(inserted, minserted) << "op " << op;
          ASSERT_EQ(Row(it->first), row);
          ASSERT_EQ(it->second, mit->second);
          break;
        }
        case 16: case 17: case 18: case 19: case 20: case 21: case 22:
        case 23: case 24: case 25: case 26: case 27: case 28: case 29:
          ASSERT_EQ(zset[row] += weight, model[row] += weight) << "op " << op;
          break;
        case 30: case 31: case 32: case 33: case 34: case 35: case 36:
        case 37: case 38: case 39: case 40: case 41: case 42: case 43:
        case 44: case 45: case 46:
          ASSERT_EQ(zset.erase(row), model.erase(row)) << "op " << op;
          break;
        default: {
          // Erase through an iterator found by a borrowed key.
          auto it = zset.find(row.span());
          ASSERT_EQ(it == zset.end(), model.count(row) == 0) << "op " << op;
          if (it != zset.end()) {
            zset.erase(it);
            model.erase(row);
          }
          break;
        }
      }
      ASSERT_EQ(zset.size(), model.size()) << "op " << op;
      // Iteration visits every live row exactly once, with its weight.
      std::unordered_map<Row, int64_t, RowHash, RowEq> seen;
      for (const auto& [r, w] : zset) {
        ASSERT_TRUE(seen.emplace(Row(r), w).second) << "op " << op << ": twice";
      }
      ASSERT_EQ(seen, model) << "op " << op;
      for (const Row& probe : pool) {
        auto it = zset.find(probe);
        ASSERT_EQ(it == zset.end(), model.count(probe) == 0) << "op " << op;
        ASSERT_EQ(zset.count(probe), model.count(probe)) << "op " << op;
      }
    }
  }
}

TEST(FlatZSet, ClearReleasesOnlyCapacityFarAboveTheSizeCleared) {
  ZSet zset;
  EXPECT_EQ(zset.slot_count(), 0u);  // nothing allocated until an insert
  for (int64_t i = 0; i < 10000; ++i) zset[R({I(i)})] = i + 1;
  ASSERT_EQ(zset.slot_count(), 32768u);  // a power of two >= 2 x 10,000
  // 32,768 slots are not more than 64 + 8 x 10,000: all of them stay, and
  // a refill of the same size does not rehash.
  zset.clear();
  EXPECT_TRUE(zset.empty());
  EXPECT_EQ(zset.slot_count(), 32768u);
  for (int64_t i = 0; i < 10000; ++i) zset[R({I(i)})] = 1;
  EXPECT_EQ(zset.slot_count(), 32768u);
  // Cleared at 100 rows, 32,768 > 64 + 8 x 100: the map keeps room for
  // 200 rows only, i.e. 512 slots.
  for (int64_t i = 100; i < 10000; ++i) ASSERT_EQ(zset.erase(R({I(i)})), 1u);
  zset.clear();
  EXPECT_EQ(zset.slot_count(), 512u);
  // Cleared empty, it releases everything.
  zset.clear();
  EXPECT_EQ(zset.slot_count(), 0u);
  EXPECT_TRUE(zset.find(R({I(1)})) == zset.end());
  EXPECT_EQ(zset.erase(R({I(1)})), 0u);
}

TEST(FlatZSet, ClearedMapTakesTheArityOfItsNextRow) {
  ZSet zset;
  for (size_t arity : {6, 2, 0, 8, 1}) {
    SCOPED_TRACE(testing::Message() << "arity " << arity);
    zset.clear();
    const int64_t rows = arity == 0 ? 1 : 50;
    for (int64_t i = 0; i < rows; ++i) {
      ASSERT_TRUE(zset.try_emplace(WideRow(i, arity, "x"), i + 1).second);
    }
    ASSERT_EQ(zset.size(), static_cast<size_t>(rows));
    for (int64_t i = 0; i < rows; ++i) {
      auto it = zset.find(WideRow(i, arity, "x"));
      ASSERT_FALSE(it == zset.end());
      EXPECT_EQ(it->first.size(), arity);
      EXPECT_EQ(Row(it->first), WideRow(i, arity, "x"));
      EXPECT_EQ(it->second, i + 1);
    }
    // Add() drops an entry whose weight sums to zero.
    EXPECT_EQ(zset.Add(WideRow(0, arity, "x"), -1), 0);
    EXPECT_EQ(zset.count(WideRow(0, arity, "x")), 0u);
    EXPECT_EQ(zset.size(), static_cast<size_t>(rows - 1));
    size_t visited = 0;
    for (const auto& [row, weight] : zset) {
      EXPECT_EQ(row.size(), arity);
      EXPECT_GT(weight, 1);
      ++visited;
    }
    EXPECT_EQ(visited, zset.size());
  }
}

TEST(DlogEngine, ZeroColumnRelation) {
  auto program = MustParse(R"(
    input relation A(x: bigint)
    output relation Any()
    Any() :- A(_).
  )");
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("A", R({I(1)})).ok());
  ASSERT_TRUE(engine.Insert("A", R({I(2)})).ok());
  auto delta = engine.Commit();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  ASSERT_EQ(delta->outputs["Any"].size(), 1u);
  EXPECT_EQ(delta->outputs["Any"][0], std::make_pair(Row(), +1));
  EXPECT_TRUE(engine.Contains("Any", Row()));
  // One of two supports goes: Any() stays, with no delta.
  ASSERT_TRUE(engine.Delete("A", R({I(1)})).ok());
  delta = engine.Commit();
  ASSERT_TRUE(delta.ok());
  EXPECT_TRUE(delta->outputs["Any"].empty());
  // The last one goes, and so does Any().
  ASSERT_TRUE(engine.Delete("A", R({I(2)})).ok());
  delta = engine.Commit();
  ASSERT_TRUE(delta.ok());
  ASSERT_EQ(delta->outputs["Any"].size(), 1u);
  EXPECT_EQ(delta->outputs["Any"][0], std::make_pair(Row(), -1));
  EXPECT_EQ(engine.Size("Any"), 0u);
  auto restored = Engine::Restore(program, engine.SerializeState());
  ASSERT_TRUE(restored.ok());
  ASSERT_TRUE((*restored)->Insert("A", R({I(3)})).ok());
  ASSERT_TRUE((*restored)->Commit().ok());
  EXPECT_EQ(*(*restored)->Dump("Any"), std::vector<Row>{Row()});
}

}  // namespace
}  // namespace nerpa::dlog
