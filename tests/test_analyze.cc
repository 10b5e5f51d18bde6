// Golden-diagnostic tests for the full-stack static analyzer: one fixture
// per diagnostic code asserting the code, the exact line:column span, and a
// message substring — plus clean runs over every stack the repository ships
// (the CI gate depends on those staying clean).
#include "analyze/analyze.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analyze/interval.h"
#include "ovsdb/schema.h"
#include "p4/text.h"
#include "stacks.h"

namespace nerpa::analyze {
namespace {

using testing::AssertionFailure;
using testing::AssertionResult;
using testing::AssertionSuccess;

/// Asserts exactly one diagnostic with `code` exists and matches the span
/// and message substring.
AssertionResult HasDiag(const Analysis& analysis, const std::string& code,
                        int line, int col, const std::string& substring) {
  const Diagnostic* found = nullptr;
  int count = 0;
  for (const Diagnostic& d : analysis.diagnostics) {
    if (d.code == code) {
      found = &d;
      ++count;
    }
  }
  if (count == 0) {
    std::string all;
    for (const Diagnostic& d : analysis.diagnostics) {
      all += "\n  " + d.code + " @" + std::to_string(d.line) + ":" +
             std::to_string(d.col) + " " + d.message;
    }
    return AssertionFailure() << "no " << code << " diagnostic; got:" << all;
  }
  if (count > 1) {
    return AssertionFailure() << count << " " << code << " diagnostics";
  }
  if (found->line != line || found->col != col) {
    return AssertionFailure()
           << code << " at " << found->line << ":" << found->col
           << ", expected " << line << ":" << col << " (" << found->message
           << ")";
  }
  if (found->message.find(substring) == std::string::npos) {
    return AssertionFailure() << code << " message '" << found->message
                              << "' lacks '" << substring << "'";
  }
  return AssertionSuccess();
}

// --- NW0xx / NW1xx: dlog-only analysis -------------------------------------

TEST(AnalyzeDlog, Nw001ParseErrorCarriesSpan) {
  Analysis analysis = AnalyzeDlog("relation Foo(x bigint)\n");
  ASSERT_EQ(analysis.diagnostics.size(), 1u);
  EXPECT_TRUE(HasDiag(analysis, "NW001", 1, 16, "expected ':'"));
  EXPECT_EQ(analysis.errors(), 1);
}

TEST(AnalyzeDlog, Nw002CompileErrorPassthrough) {
  // Type error the AST lints cannot see: bigint column fed a string.
  Analysis analysis = AnalyzeDlog(
      "input relation E(x: bigint)\n"
      "output relation O(x: bigint)\n"
      "O(x + \"s\") :- E(x).\n");
  EXPECT_TRUE(HasDiag(analysis, "NW002", 3, 7, "expected bigint"));
}

TEST(AnalyzeDlog, Nw101UnboundHeadVar) {
  Analysis analysis = AnalyzeDlog(
      "input relation E(a: bigint, b: bigint)\n"
      "output relation O(x: bigint, y: bigint)\n"
      "O(a, c) :- E(a, b).\n");
  EXPECT_TRUE(HasDiag(analysis, "NW101", 3, 6, "head variable 'c'"));
}

TEST(AnalyzeDlog, Nw102UnusedRelation) {
  Analysis analysis = AnalyzeDlog(
      "input relation E(a: bigint)\n"
      "relation Never(x: bigint)\n"
      "output relation O(x: bigint)\n"
      "O(a) :- E(a).\n");
  EXPECT_TRUE(HasDiag(analysis, "NW102", 2, 10, "'Never' is never read"));
}

TEST(AnalyzeDlog, Nw103DuplicateRule) {
  Analysis analysis = AnalyzeDlog(
      "input relation E(a: bigint)\n"
      "output relation O(x: bigint)\n"
      "O(a) :- E(a).\n"
      "O(a) :- E(a).\n");
  EXPECT_TRUE(HasDiag(analysis, "NW103", 4, 1, "first defined at line 3:1"));
}

TEST(AnalyzeDlog, Nw104StratificationAtOffendingLiteral) {
  Analysis analysis = AnalyzeDlog(
      "input relation E(a: bigint)\n"
      "relation Odd(x: bigint)\n"
      "relation Even(x: bigint)\n"
      "output relation O(x: bigint)\n"
      "Odd(x) :- E(x), not Even(x).\n"
      "Even(x) :- E(x), not Odd(x).\n"
      "O(x) :- Odd(x).\n");
  // Both rules carry a violating literal; check the first (line 5, at the
  // negated atom, column of `Even`).
  bool found = false;
  for (const Diagnostic& d : analysis.diagnostics) {
    if (d.code == "NW104" && d.line == 5 && d.col == 17) found = true;
    if (d.code == "NW104") {
      EXPECT_NE(d.message.find("not stratifiable"), std::string::npos);
    }
  }
  EXPECT_TRUE(found) << "no NW104 at 5:17";
}

TEST(AnalyzeDlog, Nw105SingletonVariable) {
  Analysis analysis = AnalyzeDlog(
      "input relation E(a: bigint, b: bigint)\n"
      "output relation O(x: bigint)\n"
      "O(a) :- E(a, junk).\n");
  EXPECT_TRUE(HasDiag(analysis, "NW105", 3, 14, "'junk' is bound but"));
}

TEST(AnalyzeDlog, UnderscorePrefixSuppressesNw105) {
  Analysis analysis = AnalyzeDlog(
      "input relation E(a: bigint, b: bigint)\n"
      "output relation O(x: bigint)\n"
      "O(a) :- E(a, _junk).\n");
  EXPECT_TRUE(analysis.clean());
}

TEST(AnalyzeDlog, JoinVariableIsNotSingleton) {
  Analysis analysis = AnalyzeDlog(
      "input relation E(a: bigint, b: bigint)\n"
      "output relation O(x: bigint)\n"
      "O(a) :- E(a, j), E(j, _).\n");
  EXPECT_TRUE(analysis.clean());
}

// --- NW2xx: cross-plane fixture --------------------------------------------

// A schema whose `ip` exceeds 32 bits and whose `plen` exceeds the LPM key
// width — every range-analysis check has something to find.
constexpr const char* kSchema = R"({
  "name": "fab",
  "tables": {
    "Host": {
      "columns": {
        "ip": {"type": {"key":
            {"type": "integer", "minInteger": 0, "maxInteger": 8589934591}}},
        "plen": {"type": {"key":
            {"type": "integer", "minInteger": 0, "maxInteger": 64}}},
        "port": {"type": {"key":
            {"type": "integer", "minInteger": 0, "maxInteger": 65535}}}
      }
    }
  }
})";

constexpr const char* kP4 = R"(
program fab;
header ipv4 {
  bit<32> src;
  bit<32> dst;
}
digest Learn {
  ipv4.src: bit<32>;
}
parser {
  state start {
    extract(ipv4);
    goto accept;
  }
  state orphan {
    goto accept;
  }
}
action Discard() { drop(); }
action Route(bit<16> port) { output(port); }
action Lost() { drop(); }
table IpRoute {
  key = { ipv4.dst: lpm; }
  actions = { Route; }
  default_action = Discard;
}
table Acl {
  key = { ipv4.src: ternary; }
  actions = { Discard; }
}
table Ghost {
  key = { ipv4.src: exact; }
  actions = { Discard; }
}
ingress {
  apply(IpRoute);
  apply(Acl);
}
egress { }
deparser {
  emit(ipv4);
}
)";

class CrossPlaneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = ovsdb::DatabaseSchema::FromJsonText(kSchema);
    ASSERT_TRUE(schema.ok()) << schema.status().ToString();
    schema_ = std::move(schema).value();
    auto p4 = p4::ParseP4Text(kP4);
    ASSERT_TRUE(p4.ok()) << p4.status().ToString();
    p4_ = std::move(p4).value();
  }

  Analysis Analyze(const std::string& rules, AnalyzeOptions options = {}) {
    StackInput input;
    input.schema = &schema_;
    input.p4 = p4_.get();
    input.rules = rules;
    auto analysis = AnalyzeStack(input, options);
    EXPECT_TRUE(analysis.ok());
    return std::move(analysis).value();
  }

  /// Line number of `rules`'s first line inside the combined source (the
  /// generated declarations are prepended).
  int RulesStart(const Analysis& analysis, const std::string& rules) {
    size_t at = analysis.dlog_source.find(rules);
    EXPECT_NE(at, std::string::npos);
    int line = 1;
    for (size_t i = 0; i < at; ++i) {
      if (analysis.dlog_source[i] == '\n') ++line;
    }
    return line;
  }

  ovsdb::DatabaseSchema schema_;
  std::shared_ptr<const p4::P4Program> p4_;
};

TEST_F(CrossPlaneTest, Nw201OutputBoundToNoTable) {
  std::string rules =
      "output relation Orphan(x: bigint)\n"
      "Orphan(p) :- Host(_, _, _, p).\n"
      "IpRoute(0, 0, \"Route\", p as bit<16>) :- Host(_, _, _, p),"
      " Learn(_).\n"
      "Acl(s, s, 1, \"Discard\") :- Learn(s).\n";
  Analysis analysis = Analyze(rules);
  int base = RulesStart(analysis, rules);
  EXPECT_TRUE(HasDiag(analysis, "NW201", base, 17,
                      "'Orphan' is not bound to any P4 table"));
}

TEST_F(CrossPlaneTest, Nw201MulticastRelationExempt) {
  // An action that multicasts makes the bindings generate MulticastGroup,
  // which no table consumes; the controller programs groups from it.
  std::string source = kP4;
  std::string lost = "action Lost() { drop(); }";
  source.replace(source.find(lost), lost.size(),
                 "action Lost() { multicast(1); }");
  auto p4 = p4::ParseP4Text(source);
  ASSERT_TRUE(p4.ok()) << p4.status().ToString();
  p4_ = std::move(p4).value();
  std::string rules =
      "output relation Orphan(x: bigint)\n"
      "Orphan(p) :- Host(_, _, _, p).\n"
      "MulticastGroup(1, p as bit<16>) :- Host(_, _, _, p).\n"
      "IpRoute(0, 0, \"Route\", p as bit<16>) :- Host(_, _, _, p),"
      " Learn(_).\n"
      "Acl(s, s, 1, \"Discard\") :- Learn(s).\n";
  Analysis analysis = Analyze(rules);
  std::vector<std::string> unbound;
  for (const Diagnostic& d : analysis.diagnostics) {
    if (d.code == "NW201") unbound.push_back(d.message);
  }
  EXPECT_EQ(unbound, std::vector<std::string>{
                         "output relation 'Orphan' is not bound to any P4 "
                         "table; its rows go nowhere"});
}

TEST_F(CrossPlaneTest, Nw202CastMayTruncate) {
  // ip's schema range [0, 2^33-1] cannot fit bit<32>.
  std::string rules =
      "IpRoute(ip as bit<32>, plen, \"Route\","
      " p as bit<16>) :- Host(_, ip, plen, p), plen <= 32, Learn(_).\n"
      "Acl(s, s, 1, \"Discard\") :- Learn(s).\n";
  Analysis analysis = Analyze(rules);
  int base = RulesStart(analysis, rules);
  EXPECT_TRUE(HasDiag(analysis, "NW202", base, 9,
                      "cast to bit<32> may truncate"));
}

TEST_F(CrossPlaneTest, Nw203LpmPrefixLengthOutOfBounds) {
  // plen's schema range [0, 64] exceeds the 32-bit LPM key.
  std::string rules =
      "IpRoute(0, plen, \"Route\", p as bit<16>) :- Host(_, _, plen, p),"
      " Learn(_).\n"
      "Acl(s, s, 1, \"Discard\") :- Learn(s).\n";
  Analysis analysis = Analyze(rules);
  int base = RulesStart(analysis, rules);
  EXPECT_TRUE(HasDiag(analysis, "NW203", base, 12, "must lie in [0, 32]"));
}

TEST_F(CrossPlaneTest, Nw203RefinedBoundIsClean) {
  // The same column, but the body proves plen <= 32.
  std::string rules =
      "IpRoute(0, plen, \"Route\", p as bit<16>) :- Host(_, _, plen, p),"
      " plen <= 32, Learn(_).\n"
      "Acl(s, s, 1, \"Discard\") :- Learn(s).\n";
  Analysis analysis = Analyze(rules);
  for (const Diagnostic& d : analysis.diagnostics) {
    EXPECT_NE(d.code, "NW203") << d.message;
  }
}

TEST_F(CrossPlaneTest, Nw204DeclShapeMismatch) {
  // Complete program with one wrong column type in a generated decl.
  std::string rules =
      "input relation Host(_uuid: string, ip: bigint, plen: bigint,"
      " port: bit<16>)\n"
      "input relation Learn(ipv4_src: bit<32>)\n"
      "output relation IpRoute(ipv4_dst: bit<32>, ipv4_dst_plen: bigint,"
      " action: string, port: bit<16>)\n"
      "output relation Acl(ipv4_src: bit<32>, ipv4_src_mask: bit<32>,"
      " priority: bigint, action: string)\n"
      "output relation Ghost(ipv4_src: bit<32>, action: string)\n"
      "IpRoute(0, 0, \"Route\", p) :- Host(_, _, _, p), Learn(_).\n"
      "Acl(s, s, 1, \"Discard\") :- Learn(s).\n"
      "Ghost(s, \"Discard\") :- Learn(s).\n";
  AnalyzeOptions options;
  options.rules_include_decls = true;
  Analysis analysis = Analyze(rules, options);
  EXPECT_TRUE(HasDiag(analysis, "NW204", 1, 62,
                      "expected 'port: bigint', found 'port: bit<16>'"));
}

TEST_F(CrossPlaneTest, Nw205UnpermittedAction) {
  std::string rules =
      "IpRoute(0, 0, \"Rout\", p as bit<16>) :- Host(_, _, _, p),"
      " Learn(_).\n"
      "Acl(s, s, 1, \"Discard\") :- Learn(s).\n";
  Analysis analysis = Analyze(rules);
  int base = RulesStart(analysis, rules);
  EXPECT_TRUE(HasDiag(analysis, "NW205", base, 15,
                      "action 'Rout' is not permitted by P4 table"));
}

TEST_F(CrossPlaneTest, Nw206DigestNeverRead) {
  std::string rules =
      "IpRoute(0, 0, \"Route\", p as bit<16>) :- Host(_, _, _, p).\n"
      "Acl(0, 0, 1, \"Discard\") :- Host(_, _, _, _).\n";
  Analysis analysis = Analyze(rules);
  // The span lands on the generated `input relation Learn(...)` decl.
  const Diagnostic* found = nullptr;
  for (const Diagnostic& d : analysis.diagnostics) {
    if (d.code == "NW206") found = &d;
  }
  ASSERT_NE(found, nullptr);
  EXPECT_NE(found->message.find("digest 'Learn'"), std::string::npos);
  EXPECT_GT(found->line, 0);
}

TEST_F(CrossPlaneTest, Nw207PriorityOutOfRange) {
  // port*port reaches 65535^2 > 2^31-1.
  std::string rules =
      "IpRoute(0, 0, \"Route\", p as bit<16>) :- Host(_, _, _, p),"
      " Learn(_).\n"
      "Acl(s, s, p * p, \"Discard\") :- Learn(s), Host(_, _, _, p).\n";
  Analysis analysis = Analyze(rules);
  int base = RulesStart(analysis, rules) + 1;
  EXPECT_TRUE(HasDiag(analysis, "NW207", base, 11,
                      "must lie in [0, 2^31-1]"));
}

TEST_F(CrossPlaneTest, Nw208UnmonitoredColumn) {
  std::string rules =
      "IpRoute(0, 0, \"Route\", p as bit<16>) :- Host(_, _, _, p),"
      " Learn(_).\n"
      "Acl(s, s, 1, \"Discard\") :- Learn(s).\n";
  AnalyzeOptions options;
  options.monitored_columns["Host"] = {"ip", "plen"};  // port left out
  Analysis analysis = Analyze(rules, options);
  // The span lands on the generated `input relation Host(...)` decl.
  const Diagnostic* found = nullptr;
  int count = 0;
  for (const Diagnostic& d : analysis.diagnostics) {
    if (d.code == "NW208") {
      found = &d;
      ++count;
    }
  }
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(count, 1);  // only `port` is uncovered
  EXPECT_NE(found->message.find("'Host.port'"), std::string::npos);
  EXPECT_GT(found->line, 0);
}

TEST_F(CrossPlaneTest, Nw208OnDemandColumnIsCovered) {
  std::string rules =
      "IpRoute(0, 0, \"Route\", p as bit<16>) :- Host(_, _, _, p),"
      " Learn(_).\n"
      "Acl(s, s, 1, \"Discard\") :- Learn(s).\n";
  AnalyzeOptions options;
  options.monitored_columns["Host"] = {"ip", "plen"};
  options.on_demand_columns["Host"] = {"port"};
  Analysis analysis = Analyze(rules, options);
  for (const Diagnostic& d : analysis.diagnostics) {
    EXPECT_NE(d.code, "NW208") << d.message;
  }
}

TEST_F(CrossPlaneTest, Nw208EmptyColumnListMonitorsWholeTable) {
  std::string rules =
      "IpRoute(0, 0, \"Route\", p as bit<16>) :- Host(_, _, _, p),"
      " Learn(_).\n"
      "Acl(s, s, 1, \"Discard\") :- Learn(s).\n";
  AnalyzeOptions options;
  options.monitored_columns["Host"] = {};  // all columns
  Analysis analysis = Analyze(rules, options);
  for (const Diagnostic& d : analysis.diagnostics) {
    EXPECT_NE(d.code, "NW208") << d.message;
  }
}

TEST_F(CrossPlaneTest, Nw208SilentWithoutMonitorSpec) {
  std::string rules =
      "IpRoute(0, 0, \"Route\", p as bit<16>) :- Host(_, _, _, p),"
      " Learn(_).\n"
      "Acl(s, s, 1, \"Discard\") :- Learn(s).\n";
  Analysis analysis = Analyze(rules);  // no spec: the audit is off
  for (const Diagnostic& d : analysis.diagnostics) {
    EXPECT_NE(d.code, "NW208") << d.message;
  }
}

TEST_F(CrossPlaneTest, Nw208TableAbsentFromSpecWarnsAllColumns) {
  // A spec that only mentions some other table means Host itself is
  // unmonitored: every bound column warns.
  std::string rules =
      "IpRoute(0, 0, \"Route\", p as bit<16>) :- Host(_, _, _, p),"
      " Learn(_).\n"
      "Acl(s, s, 1, \"Discard\") :- Learn(s).\n";
  AnalyzeOptions options;
  options.monitored_columns["Elsewhere"] = {};
  Analysis analysis = Analyze(rules, options);
  int count = 0;
  for (const Diagnostic& d : analysis.diagnostics) {
    if (d.code == "NW208") ++count;
  }
  EXPECT_EQ(count, 3);  // ip, plen, port (never _uuid)
}

// --- NW3xx: P4 IR reachability ---------------------------------------------

class P4ChecksTest : public CrossPlaneTest {};

TEST_F(P4ChecksTest, Nw301Nw302Nw303) {
  std::string rules =
      "IpRoute(0, 0, \"Route\", p as bit<16>) :- Host(_, _, _, p),"
      " Learn(_).\n"
      "Acl(s, s, 1, \"Discard\") :- Learn(s).\n";
  Analysis analysis = Analyze(rules);
  // Spans point into kP4 (leading newline: `program fab;` is line 2).
  EXPECT_TRUE(HasDiag(analysis, "NW301", 31, 7, "table 'Ghost' is never"));
  EXPECT_TRUE(HasDiag(analysis, "NW302", 21, 8, "action 'Lost' is not"));
  EXPECT_TRUE(
      HasDiag(analysis, "NW303", 15, 9, "parser state 'orphan'"));
  for (const Diagnostic& d : analysis.diagnostics) {
    if (d.code[2] == '3') {
      EXPECT_EQ(d.unit, "p4");
    }
  }
}

// --- shipped stacks stay clean (the CI gate) -------------------------------

TEST(ShippedStacks, AllBuiltinsAnalyzeClean) {
  for (const std::string& name : examples::StackNames()) {
    auto stack = examples::GetStack(name);
    ASSERT_TRUE(stack.ok()) << name;
    StackInput input;
    if (stack->schema.has_value()) input.schema = &*stack->schema;
    if (stack->p4 != nullptr) input.p4 = stack->p4.get();
    input.rules = stack->rules;
    input.binding_options = stack->options;
    AnalyzeOptions options;
    options.rules_include_decls =
        input.schema == nullptr && input.p4 == nullptr;
    auto analysis = AnalyzeStack(input, options);
    ASSERT_TRUE(analysis.ok()) << name;
    std::string report;
    for (const Diagnostic& d : analysis->diagnostics) {
      report += "\n  " + d.code + " @" + std::to_string(d.line) + ":" +
                std::to_string(d.col) + " " + d.message;
    }
    EXPECT_TRUE(analysis->clean()) << name << ":" << report;
  }
}

// --- interval domain sanity ------------------------------------------------

TEST(Interval, ArithmeticAndLattice) {
  Interval a = Interval::Range(0, 10);
  Interval b = Interval::Range(-3, 4);
  EXPECT_EQ(a.Add(b), Interval::Range(-3, 14));
  EXPECT_EQ(a.Sub(b), Interval::Range(-4, 13));
  EXPECT_EQ(a.Mul(b), Interval::Range(-30, 40));
  EXPECT_EQ(a.Join(b), Interval::Range(-3, 10));
  EXPECT_EQ(a.Meet(b), Interval::Range(0, 4));
  EXPECT_TRUE(Interval::Bottom().ContainedIn(a));
  EXPECT_TRUE(a.Meet(Interval::Range(20, 30)).is_bottom());
  EXPECT_TRUE(Interval::Range(0, 255).FitsBits(8));
  EXPECT_FALSE(Interval::Range(0, 256).FitsBits(8));
  EXPECT_FALSE(Interval::Range(-1, 0).FitsBits(8));
}

TEST(Interval, DivisionByIntervalContainingZeroIsTop) {
  Interval a = Interval::Range(1, 10);
  EXPECT_TRUE(a.Div(Interval::Range(-1, 1)).is_top());
  EXPECT_EQ(a.Div(Interval::Point(2)), Interval::Range(0, 5));
}

TEST(Interval, SaturationTerminates) {
  // Repeated doubling must reach the saturation bound, not overflow.
  Interval v = Interval::Point(1);
  for (int i = 0; i < 500; ++i) v = v.Add(v);
  EXPECT_EQ(v.hi, Interval::kMax);
}

}  // namespace
}  // namespace nerpa::analyze
