// Differential and hot-path regression tests for the dlog engine:
//
//   * seeded random commit streams must match from-scratch evaluation
//     after every commit, and the bootstrap and incremental paths must
//     produce byte-identical deltas for the same bulk load;
//   * the arrangement ablation switch must not change any observable
//     result — both settings produce byte-identical output deltas for the
//     same transaction stream;
//   * a checkpoint-restored engine behaves exactly like its original, and
//     Restore() rejects blobs it could not evaluate;
//   * the planner registers an arrangement only for a lookup that runs
//     after the first commit, and each records only what its readers use;
//   * the intern pool must keep value equality/hashing content-based (the
//     transparent-lookup contract probe-free joins rely on);
//   * a failed Commit() (division by zero mid-rule) must roll back every
//     partial effect — derivation counts, arrangements, aggregation state
//     — leaving the engine exactly as before the failed transaction.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/strings.h"
#include "dlog/engine.h"
#include "stacks.h"

namespace nerpa::dlog {
namespace {

Row R(std::initializer_list<Value> vs) { return Row(vs); }
Value I(int64_t v) { return Value::Int(v); }
Value S(const std::string& s) { return Value::String(s); }

std::shared_ptr<const Program> MustParse(const char* source) {
  auto program = Program::Parse(source);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return *program;
}

/// A builtin stack's whole program (generated declarations included).
std::shared_ptr<const Program> ParseStack(const char* name) {
  auto stack = examples::GetStack(name);
  EXPECT_TRUE(stack.ok()) << stack.status().ToString();
  auto source = examples::StackProgram(*stack);
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  return MustParse(source->c_str());
}

/// Dump of every relation, stringified, for whole-state comparison.
std::string DumpAll(const Engine& engine) {
  std::string out;
  for (const auto& decl : engine.program().relations()) {
    auto rows = engine.Dump(decl.name);
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    out += decl.name + ":\n";
    for (const Row& row : *rows) out += "  " + RowToString(row) + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Randomized oracle: after every commit of a seeded insert/delete stream,
// the live engine must equal from-scratch evaluation of its current inputs.
// From scratch is a fresh engine that loads them in one commit (the
// bootstrap path); its delta must in turn be byte-identical to the same
// bulk load into an engine that already holds a row of `Pad`, an input no
// rule reads, so that load runs the incremental path.
// ---------------------------------------------------------------------------

// Negation inside a recursive stratum, including a negated literal that
// repeats a variable, plus negation over the recursive relation above it.
constexpr const char* kNegationRecursionProgram = R"(
input relation E(a: bigint, b: bigint)
input relation B(a: bigint, b: bigint)
input relation Pad(x: bigint)
output relation R(a: bigint, b: bigint)
output relation Lone(a: bigint)
R(a, b) :- E(a, b), not B(a, a).
R(a, c) :- R(a, b), E(b, c), not B(b, c).
Lone(a) :- E(a, _), not R(a, a).
)";

// sum/min aggregates over rows filtered by negation.
constexpr const char* kAggregateNegationProgram = R"(
input relation V(g: bigint, x: bigint)
input relation B(a: bigint, b: bigint)
input relation Pad(x: bigint)
relation Live(g: bigint, x: bigint)
output relation Total(g: bigint, s: bigint)
output relation Least(g: bigint, m: bigint)
Live(g, x) :- V(g, x), not B(x, x).
Total(g, s) :- Live(g, x), var s = sum(x) group_by (g).
Least(g, m) :- V(g, x), not B(g, _), var m = min(x) group_by (g).
)";

// The shapes whose plans differ between bootstrap and steady state: a
// first literal filtered only by a constant, which the bootstrap probes
// through an arrangement another rule keeps (Zero) or scans (One), a max
// whose result joins back to its input (Hi/Hop), a non-recursive
// two-literal join with an invertible head (Join), and a recursive stratum
// beside them (Path).
constexpr const char* kReplanProgram = R"(
input relation E(a: bigint, b: bigint)
input relation F(a: bigint, b: bigint)
input relation Pad(x: bigint)
output relation Zero(a: bigint)
output relation One(a: bigint)
relation Hi(a: bigint, m: bigint)
output relation Hop(a: bigint, c: bigint)
output relation Join(a: bigint, c: bigint)
output relation Path(a: bigint, b: bigint)
Zero(a) :- E(a, 0).
One(a) :- F(a, 1).
Hi(a, m) :- F(a, b), var m = max(b) group_by (a).
Hop(a, c) :- Hi(a, m), F(m, c).
Join(a, c) :- E(a, b), F(b, c).
Path(a, b) :- E(a, b).
Path(a, c) :- Path(a, b), F(b, c).
)";

constexpr int kOracleSeeds = 20;
constexpr int kOracleCommits = 60;
constexpr uint64_t kOracleDomain = 6;

/// Runs one seeded stream of commits over `relations` (each two bigint
/// columns) and checks the oracle after every commit.  Returns an empty
/// string, or a description of the first divergence.
std::string RunOracleStream(const std::shared_ptr<const Program>& program,
                            const std::vector<std::string>& relations,
                            uint64_t seed) {
  Engine live(program);
  std::set<std::tuple<std::string, int64_t, int64_t>> inputs;
  std::mt19937_64 rng(seed);
  for (int commit = 0; commit < kOracleCommits; ++commit) {
    std::string ops;
    int count = 1 + static_cast<int>(rng() % 6);
    for (int k = 0; k < count; ++k) {
      const std::string& rel = relations[rng() % relations.size()];
      int64_t a = static_cast<int64_t>(rng() % kOracleDomain);
      int64_t b = static_cast<int64_t>(rng() % kOracleDomain);
      bool insert = rng() % 2 == 0;
      Status status = insert ? live.Insert(rel, R({I(a), I(b)}))
                             : live.Delete(rel, R({I(a), I(b)}));
      if (!status.ok()) return status.ToString();
      if (insert) {
        inputs.emplace(rel, a, b);
      } else {
        inputs.erase({rel, a, b});
      }
      ops += StrFormat(" %s%s(%lld,%lld)", insert ? "+" : "-", rel.c_str(),
                       static_cast<long long>(a), static_cast<long long>(b));
    }
    auto live_delta = live.Commit();
    if (!live_delta.ok()) return live_delta.status().ToString();

    Engine fresh(program);
    Engine padded(program);
    if (!padded.Insert("Pad", R({I(0)})).ok() || !padded.Commit().ok()) {
      return "padded engine setup failed";
    }
    for (const auto& [rel, a, b] : inputs) {
      if (!fresh.Insert(rel, R({I(a), I(b)})).ok() ||
          !padded.Insert(rel, R({I(a), I(b)})).ok()) {
        return "reference load failed";
      }
    }
    // Retracting Pad in the same commit leaves both reference states whole
    // and comparable.
    if (!padded.Delete("Pad", R({I(0)})).ok()) return "Pad delete failed";
    auto fresh_delta = fresh.Commit();
    auto padded_delta = padded.Commit();
    if (!fresh_delta.ok() || !padded_delta.ok()) {
      return "reference commit failed";
    }

    std::string where = StrFormat("commit %d (ops:%s)", commit, ops.c_str());
    if (DumpAll(live) != DumpAll(fresh)) {
      return where + ": live engine\n" + DumpAll(live) +
             "from scratch\n" + DumpAll(fresh);
    }
    if (fresh_delta->ToString() != padded_delta->ToString()) {
      return where + ": bootstrap delta\n" + fresh_delta->ToString() +
             "incremental bulk delta\n" + padded_delta->ToString();
    }
    if (DumpAll(padded) != DumpAll(fresh)) {
      return where + ": incremental bulk load state diverged";
    }
  }
  return "";
}

void ExpectStreamsMatchOracle(const char* source,
                              const std::vector<std::string>& relations) {
  auto program = MustParse(source);
  int diverged = 0;
  std::string first;
  for (uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
    std::string failure = RunOracleStream(program, relations, seed);
    if (failure.empty()) continue;
    if (diverged++ == 0) {
      first = StrFormat("seed %llu, ", static_cast<unsigned long long>(seed)) +
              failure;
    }
  }
  EXPECT_EQ(diverged, 0) << diverged << " of " << kOracleSeeds
                         << " streams diverged; first: " << first;
}

TEST(DlogOracle, NegationRecursionStreamsMatchFromScratch) {
  ExpectStreamsMatchOracle(kNegationRecursionProgram, {"E", "B"});
}

TEST(DlogOracle, AggregateNegationStreamsMatchFromScratch) {
  ExpectStreamsMatchOracle(kAggregateNegationProgram, {"V", "B"});
}

TEST(DlogOracle, ReplannedShapesStreamsMatchFromScratch) {
  ExpectStreamsMatchOracle(kReplanProgram, {"E", "F"});
}

// ---------------------------------------------------------------------------
// Keyed inputs against the program they replaced: snvs keeps the newest
// digest per (vlan, mac) with `key MacLearn(meta_vlan, ethernet_srcAddr)`.
// Before keys the controller numbered every digest and the rules picked the
// highest number per (vlan, mac) with a max and a join back; that program
// is kept here as the reference.  On the same digest streams both derive
// the same SMac and Dmac deltas and contents after every commit, and so
// does a fresh engine loaded with the MacLearn rows the key kept.
// ---------------------------------------------------------------------------

constexpr const char* kSeqLearnProgram = R"(
input relation MacLearn(standard_ingress_port: bit<16>, meta_vlan: bit<12>,
                        ethernet_srcAddr: bit<48>, seq: bigint)
output relation SMac(meta_vlan: bit<12>, ethernet_srcAddr: bit<48>,
                     standard_ingress_port: bit<16>, action: string)
output relation Dmac(meta_vlan: bit<12>, ethernet_dstAddr: bit<48>,
                     action: string, port: bit<16>)
relation MaxSeq(vlan: bit<12>, mac: bit<48>, s: bigint)
MaxSeq(v, m, s) :- MacLearn(_, v, m, seq), var s = max(seq) group_by (v, m).
relation BestLearn(vlan: bit<12>, mac: bit<48>, port: bit<16>)
BestLearn(v, m, p) :- MaxSeq(v, m, s), MacLearn(p, v, m, s).
SMac(v, m, p, "NoAction") :- BestLearn(v, m, p).
Dmac(v, m, "Forward", p) :- BestLearn(v, m, p).
)";

/// SMac and Dmac of a delta, or of an engine's contents.
std::string Learned(const TxnDelta& delta) {
  TxnDelta out;
  for (const char* name : {"SMac", "Dmac"}) {
    auto it = delta.outputs.find(name);
    if (it != delta.outputs.end()) out.outputs[name] = it->second;
  }
  return out.ToString();
}
std::string Learned(const Engine& engine) {
  std::string out;
  for (const char* name : {"SMac", "Dmac"}) {
    auto rows = engine.Dump(name);
    for (const Row& row : *rows) {
      out += std::string(name) + RowToString(row) + "\n";
    }
  }
  return out;
}

/// One seeded stream of learns over 3 ports, 2 VLANs and 3 MACs, 1-4 per
/// commit: host moves, repeated digests, and (in the first commit, which
/// runs the bootstrap, and in a quarter of the rest) two learns of one key
/// on different ports.  Halfway, the keyed engine is replaced by its own
/// checkpoint.  Returns "" or the first divergence.
std::string RunKeyedLearnStream(const std::shared_ptr<const Program>& keyed,
                                const std::shared_ptr<const Program>& seq,
                                EngineOptions options, uint64_t seed) {
  auto live = std::make_unique<Engine>(keyed, options);
  Engine reference(seq, options);
  int64_t next_seq = 0;  // numbered as the controller numbered digests
  std::mt19937_64 rng(seed);
  for (int commit = 0; commit < kOracleCommits; ++commit) {
    if (commit == kOracleCommits / 2) {
      auto restored = Engine::Restore(keyed, live->SerializeState(), options);
      if (!restored.ok()) return restored.status().ToString();
      live = std::move(restored).value();
    }
    std::vector<Row> learns;
    for (int k = 1 + static_cast<int>(rng() % 4); k > 0; --k) {
      learns.push_back(R({Value::Bit(1 + rng() % 3), Value::Bit(1 + rng() % 2),
                          Value::Bit(1 + rng() % 3)}));
    }
    if (commit == 0 || rng() % 4 == 0) {
      learns.push_back(R({Value::Bit(1 + (learns[0][0].as_bit() % 3)),
                          learns[0][1], learns[0][2]}));
    }
    std::string ops;
    for (const Row& learn : learns) {
      Row numbered = learn;
      numbered.push_back(I(next_seq++));
      if (!live->Insert("MacLearn", learn).ok() ||
          !reference.Insert("MacLearn", numbered).ok()) {
        return "insert failed";
      }
      ops += " " + RowToString(learn);
    }
    auto live_delta = live->Commit();
    auto reference_delta = reference.Commit();
    if (!live_delta.ok() || !reference_delta.ok()) return "commit failed";

    Engine fresh(keyed, options);
    auto kept = live->Dump("MacLearn");
    for (const Row& row : *kept) {
      if (!fresh.Insert("MacLearn", row).ok()) return "fresh insert failed";
    }
    if (!fresh.Commit().ok()) return "fresh commit failed";

    std::string where = StrFormat("commit %d (learns:%s)", commit, ops.c_str());
    if (Learned(*live_delta) != Learned(*reference_delta)) {
      return where + ": keyed delta\n" + Learned(*live_delta) +
             "seq delta\n" + Learned(*reference_delta);
    }
    if (Learned(*live) != Learned(reference)) {
      return where + ": keyed state\n" + Learned(*live) + "seq state\n" +
             Learned(reference);
    }
    if (Learned(*live) != Learned(fresh)) {
      return where + ": keyed state\n" + Learned(*live) +
             "fresh engine\n" + Learned(fresh);
    }
  }
  return "";
}

TEST(DlogOracle, KeyedLearnMatchesSeqProgram) {
  auto keyed = ParseStack("snvs");
  auto seq = MustParse(kSeqLearnProgram);
  // A checkpoint of the seq program does not restore into the keyed one
  // (the controller then cold-starts).
  auto old = Engine::Restore(keyed, Engine(seq).SerializeState());
  ASSERT_FALSE(old.ok());
  EXPECT_NE(old.status().message().find("fingerprint"), std::string::npos);
  for (bool arrangements : {true, false}) {
    SCOPED_TRACE(arrangements ? "arrangements" : "scans");
    for (uint64_t seed = 1; seed <= kOracleSeeds; ++seed) {
      std::string failure = RunKeyedLearnStream(
          keyed, seq, EngineOptions{.use_arrangements = arrangements}, seed);
      EXPECT_EQ(failure, "") << "seed " << seed;
      if (!failure.empty()) break;
    }
  }
}

// ---------------------------------------------------------------------------
// Arrangement census: an arrangement exists only for a lookup that runs
// after the first commit (delta plans and negated pins everywhere; full and
// re-derivation plans in recursive strata), and its upkeep records presence
// flips only for a negated pin and deleted rows only for an OLD-mode read.
// ---------------------------------------------------------------------------

/// One line per arrangement: "Rel(col, ...)" plus " flips" and " deleted"
/// when its upkeep records them.
std::vector<std::string> Census(const Program& program) {
  std::vector<std::string> out;
  for (size_t rel = 0; rel < program.arrangements().size(); ++rel) {
    const RelationDecl& decl = program.relations()[rel];
    for (const ArrangementSpec& spec : program.arrangements()[rel]) {
      std::string key;
      for (int p : spec.key_positions) {
        key += (key.empty() ? "" : ", ") +
               decl.columns[static_cast<size_t>(p)].name;
      }
      out.push_back(decl.name + "(" + key + ")" +
                    (spec.records_flips ? " flips" : "") +
                    (spec.records_deleted ? " deleted" : ""));
    }
  }
  return out;
}

bool Recursive(const Program& program, const CompiledRule& rule) {
  int stratum = program.stratum_of(rule.head_relation);
  return program.strata()[static_cast<size_t>(stratum)].recursive;
}

/// Walks every plan and checks each arrangement against its readers: an
/// input key's pre-pass or some plan that runs after the first commit reads
/// it; it records flips iff a negated pin reads it, and deleted rows iff a
/// delta-plan lookup reads it in OLD mode (right of the pin, or anywhere in
/// a recursive stratum).
void ExpectArrangementsMatchReaders(const Program& program) {
  std::set<std::pair<int, int>> steady, flips, deleted;
  for (size_t rel = 0; rel < program.relations().size(); ++rel) {
    int key = program.key_arrangement(static_cast<int>(rel));
    if (key >= 0) steady.insert({static_cast<int>(rel), key});
  }
  for (const CompiledRule& rule : program.rules()) {
    bool recursive = Recursive(program, rule);
    auto relation_of = [&](const LookupPlan& lookup) {
      return rule.steps[static_cast<size_t>(lookup.step_index)].relation;
    };
    for (const DeltaPlan& plan : rule.delta_plans) {
      if (plan.pinned_arrangement >= 0) {
        std::pair<int, int> id{
            rule.steps[static_cast<size_t>(plan.pinned_step)].relation,
            plan.pinned_arrangement};
        steady.insert(id);
        flips.insert(id);
      }
      for (const LookupPlan& lookup : plan.lookups) {
        if (lookup.arrangement < 0) continue;
        std::pair<int, int> id{relation_of(lookup), lookup.arrangement};
        steady.insert(id);
        if (recursive || lookup.step_index > plan.pinned_step) {
          deleted.insert(id);
        }
      }
    }
    if (!recursive) {
      EXPECT_TRUE(rule.rederive_plan.lookups.empty()) << rule.ToString();
      continue;
    }
    for (const FullPlan* plan : {&rule.full_plan, &rule.rederive_plan}) {
      for (const LookupPlan& lookup : plan->lookups) {
        if (lookup.arrangement >= 0) {
          steady.insert({relation_of(lookup), lookup.arrangement});
        }
      }
    }
  }
  for (size_t rel = 0; rel < program.arrangements().size(); ++rel) {
    const auto& specs = program.arrangements()[rel];
    for (size_t a = 0; a < specs.size(); ++a) {
      std::pair<int, int> id{static_cast<int>(rel), static_cast<int>(a)};
      std::string where = program.relations()[rel].name + " #" +
                          std::to_string(a);
      EXPECT_EQ(steady.count(id), 1u) << where << " has no steady reader";
      EXPECT_EQ(specs[a].records_flips, flips.count(id) != 0) << where;
      EXPECT_EQ(specs[a].records_deleted, deleted.count(id) != 0) << where;
    }
  }
}

TEST(DlogArrangementCensus, SnvsKeepsOnlyTheMacLearnKey) {
  auto snvs = ParseStack("snvs");
  // Every snvs rule reads one literal, so only the key's pre-pass probes an
  // index: the insert of a learned MAC finds the row it replaces.
  EXPECT_EQ(Census(*snvs), std::vector<std::string>{
                               "MacLearn(meta_vlan, ethernet_srcAddr)"});
  EXPECT_EQ(Census(*ParseStack("multi_device")),
            std::vector<std::string>{});
  // E5's load-balancer program: Lb keyed on vip and Backend keyed on both
  // columns served only the re-derivation plan, which no non-recursive
  // rule runs.
  auto lb = MustParse(R"(
input relation Lb(lb: bigint, vip: bigint)
input relation Backend(lb: bigint, ip: bigint)
output relation LbFlow(vip: bigint, ip: bigint)
LbFlow(vip, ip) :- Lb(lb, vip), Backend(lb, ip).
)");
  EXPECT_EQ(Census(*lb), (std::vector<std::string>{"Lb(lb)",
                                                   "Backend(lb) deleted"}));
}

TEST(DlogArrangementCensus, RecursiveStrataKeepFullAndRederivePlans) {
  // Every literal of a recursive stratum is read OLD by DRed's overdeletion
  // and NEW by its full and re-derivation plans.
  EXPECT_EQ(Census(*ParseStack("reachability")),
            (std::vector<std::string>{"GivenLabel(n1, label)",
                                      "Edge(n1) deleted", "Edge(n1, n2)",
                                      "Label(n) deleted", "Label(label)"}));
  auto fabric = ParseStack("ip_fabric");
  EXPECT_EQ(Census(*fabric).size(), 6u);
  for (const CompiledRule& rule : fabric->rules()) {
    if (!Recursive(*fabric, rule)) continue;
    for (const LookupPlan& lookup : rule.rederive_plan.lookups) {
      EXPECT_GE(lookup.arrangement, 0) << rule.ToString();
    }
  }
}

TEST(DlogArrangementCensus, OnlyNegatedPinsRecordFlips) {
  // B is pinned negated in both R rules (`not B(a, a)` keys both
  // columns); R is pinned negated in Lone.  Nothing else records flips.
  std::vector<std::string> flipping;
  auto program = MustParse(kNegationRecursionProgram);
  for (const std::string& line : Census(*program)) {
    if (line.find(" flips") != std::string::npos) flipping.push_back(line);
  }
  EXPECT_EQ(flipping, (std::vector<std::string>{"B(a, b) flips deleted",
                                                "R(a, b) flips deleted"}));
  for (const char* source : {kNegationRecursionProgram,
                             kAggregateNegationProgram, kReplanProgram}) {
    ExpectArrangementsMatchReaders(*MustParse(source));
  }
}

TEST(DlogArrangementCensus, OnlyOldModeReadsRecordDeletedRows) {
  // Join and Hop read F right of their first pin (OLD), and E and Hi left
  // of their second (NEW).  Path's stratum is recursive: DRed reads Path(b)
  // OLD, and its re-derivation plans keep Path(a), E(a, b) and F(a, b).
  // The bootstrap-only full plans register nothing: Zero's reuses E(b)
  // with the constant as its key, One's scans F (no key covers only its
  // second column), and Join's reuses F(a).
  EXPECT_EQ(Census(*MustParse(kReplanProgram)),
            (std::vector<std::string>{"E(b)", "E(a, b)", "F(a) deleted",
                                      "F(a, b)", "Hi(m)", "Path(b) deleted",
                                      "Path(a)"}));
  for (const char* name : {"snvs", "ip_fabric", "multi_device",
                           "reachability"}) {
    SCOPED_TRACE(name);
    ExpectArrangementsMatchReaders(*ParseStack(name));
  }
}

// ---------------------------------------------------------------------------
// Differential property: arrangements {on, off} produce byte-identical
// deltas for the same transaction stream.
// ---------------------------------------------------------------------------

// Join + aggregation, string and integer columns.  (No negation: the
// no-arrangement mode rejects it by design.)
constexpr const char* kDifferentialProgram = R"(
input relation Port(sw: string, port: bigint, vlan: bigint)
input relation Trunk(sw: string, port: bigint)
output relation Flood(sw: string, vlan: bigint)
output relation PairUp(sw: string, a: bigint, b: bigint)
output relation VlanCount(sw: string, n: bigint)
Flood(s, v) :- Port(s, p, v).
PairUp(s, a, b) :- Port(s, a, v), Trunk(s, b).
VlanCount(s, n) :- Port(s, p, v), var n = count(p) group_by (s).
)";

/// One abstract input operation, materialized into a Row per engine.
struct Op {
  std::string relation;
  std::string sw;
  std::vector<int64_t> ints;
  bool insert = true;
};

Row MaterializeRow(const Op& op) {
  Row row;
  row.push_back(S(op.sw));
  for (int64_t v : op.ints) row.push_back(I(v));
  return row;
}

TEST(DlogDifferential, ArrangementsDoNotChangeDeltas) {
  const bool configs[] = {true, false};  // use_arrangements

  auto program = MustParse(kDifferentialProgram);
  std::vector<std::unique_ptr<Engine>> engines;
  for (bool arrange : configs) {
    EngineOptions options;
    options.use_arrangements = arrange;
    engines.push_back(std::make_unique<Engine>(program, options));
  }

  std::mt19937_64 rng(20260806);
  // Tracked live rows so deletes hit existing tuples ~half the time.
  std::set<std::pair<std::string, std::vector<int64_t>>> live_ports;
  for (int step = 0; step < 50; ++step) {
    std::vector<Op> ops;
    int count = 1 + static_cast<int>(rng() % 4);
    for (int k = 0; k < count; ++k) {
      Op op;
      op.sw = "sw-" + std::to_string(rng() % 3);
      if (rng() % 4 == 0) {
        op.relation = "Trunk";
        op.ints = {static_cast<int64_t>(rng() % 8)};
        op.insert = rng() % 2 == 0;
      } else {
        op.relation = "Port";
        op.ints = {static_cast<int64_t>(rng() % 8),
                   static_cast<int64_t>(rng() % 4)};
        auto key = std::make_pair(op.sw, op.ints);
        if (rng() % 2 == 0 && !live_ports.empty()) {
          // Delete something that exists.
          auto it = live_ports.begin();
          std::advance(it, static_cast<long>(rng() % live_ports.size()));
          op.sw = it->first;
          op.ints = it->second;
          op.insert = false;
          live_ports.erase(it);
        } else {
          op.insert = true;
          live_ports.insert(key);
        }
      }
      ops.push_back(std::move(op));
    }

    std::vector<std::string> deltas;
    for (size_t e = 0; e < engines.size(); ++e) {
      for (const Op& op : ops) {
        Row row = MaterializeRow(op);
        Status status = op.insert
                            ? engines[e]->Insert(op.relation, std::move(row))
                            : engines[e]->Delete(op.relation, std::move(row));
        ASSERT_TRUE(status.ok()) << status.ToString();
      }
      auto delta = engines[e]->Commit();
      ASSERT_TRUE(delta.ok()) << delta.status().ToString();
      deltas.push_back(delta->ToString());
    }
    for (size_t e = 1; e < deltas.size(); ++e) {
      ASSERT_EQ(deltas[0], deltas[e])
          << "arrange=" << configs[e] << " diverged at step " << step;
    }
  }
}

// ---------------------------------------------------------------------------
// Differential property: the bootstrap path must be byte-identical to the
// incremental path for the same bulk load, both in the returned delta and
// in all subsequent transactions.  The incremental reference holds a row
// of `Pad`, an input no rule reads, so its engine is not empty and its
// bulk load runs the incremental path; it retracts Pad in that same commit.
// ---------------------------------------------------------------------------

TEST(DlogDifferential, BootstrapAndIncrementalAgree) {
  auto program = MustParse(
      (std::string(kDifferentialProgram) + "input relation Pad(x: bigint)\n")
          .c_str());
  const char* const names[] = {"incremental", "bootstrap"};
  std::vector<std::unique_ptr<Engine>> engines;
  engines.push_back(std::make_unique<Engine>(program));
  engines.push_back(std::make_unique<Engine>(program));
  ASSERT_TRUE(engines[0]->Insert("Pad", R({I(0)})).ok());
  ASSERT_TRUE(engines[0]->Commit().ok());
  ASSERT_TRUE(engines[0]->Delete("Pad", R({I(0)})).ok());

  // Big-bang initial load: several hundred rows.
  std::mt19937_64 rng(20260808);
  std::vector<Op> initial;
  for (int k = 0; k < 600; ++k) {
    Op op;
    op.sw = "sw-" + std::to_string(rng() % 5);
    if (k % 5 == 0) {
      op.relation = "Trunk";
      op.ints = {static_cast<int64_t>(rng() % 32)};
    } else {
      op.relation = "Port";
      op.ints = {static_cast<int64_t>(rng() % 64),
                 static_cast<int64_t>(rng() % 8)};
    }
    initial.push_back(std::move(op));
  }

  std::vector<std::string> deltas;
  for (auto& engine : engines) {
    for (const Op& op : initial) {
      ASSERT_TRUE(engine->Insert(op.relation, MaterializeRow(op)).ok());
    }
    auto delta = engine->Commit();
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    deltas.push_back(delta->ToString());
  }
  for (size_t e = 1; e < deltas.size(); ++e) {
    ASSERT_EQ(deltas[0], deltas[e]) << names[e] << " bulk-load delta diverged";
  }
  for (size_t e = 1; e < engines.size(); ++e) {
    ASSERT_EQ(DumpAll(*engines[0]), DumpAll(*engines[e]))
        << names[e] << " state diverged after the bulk load";
  }

  // Both engines must behave identically incrementally too:
  // mixed inserts/deletes over rows that do and do not exist.
  for (int step = 0; step < 10; ++step) {
    std::vector<Op> ops;
    for (int k = 0; k < 5; ++k) {
      Op op;
      op.sw = "sw-" + std::to_string(rng() % 5);
      op.relation = k % 3 == 0 ? "Trunk" : "Port";
      if (op.relation == "Trunk") {
        op.ints = {static_cast<int64_t>(rng() % 32)};
      } else {
        op.ints = {static_cast<int64_t>(rng() % 64),
                   static_cast<int64_t>(rng() % 8)};
      }
      op.insert = rng() % 3 != 0;
      ops.push_back(std::move(op));
    }
    deltas.clear();
    for (auto& engine : engines) {
      for (const Op& op : ops) {
        Row row = MaterializeRow(op);
        Status status = op.insert ? engine->Insert(op.relation, std::move(row))
                                  : engine->Delete(op.relation, std::move(row));
        ASSERT_TRUE(status.ok()) << status.ToString();
      }
      auto delta = engine->Commit();
      ASSERT_TRUE(delta.ok()) << delta.status().ToString();
      deltas.push_back(delta->ToString());
    }
    for (size_t e = 1; e < deltas.size(); ++e) {
      ASSERT_EQ(deltas[0], deltas[e])
          << names[e] << " diverged at incremental step " << step;
    }
  }
}

// ---------------------------------------------------------------------------
// Differential property: a checkpoint-restored engine is byte-identical to
// the engine that produced the blob — same dumps, same deltas for every
// subsequent transaction — and a damaged blob is rejected outright.
// ---------------------------------------------------------------------------

TEST(DlogDifferential, CheckpointRestoreIsByteIdentical) {
  auto program = MustParse(kDifferentialProgram);
  Engine original(program);

  std::mt19937_64 rng(20260809);
  for (int k = 0; k < 200; ++k) {
    Op op;
    op.sw = "sw-" + std::to_string(rng() % 4);
    if (k % 4 == 0) {
      op.relation = "Trunk";
      op.ints = {static_cast<int64_t>(rng() % 16)};
    } else {
      op.relation = "Port";
      op.ints = {static_cast<int64_t>(rng() % 32),
                 static_cast<int64_t>(rng() % 6)};
    }
    ASSERT_TRUE(original.Insert(op.relation, MaterializeRow(op)).ok());
  }
  ASSERT_TRUE(original.Commit().ok());
  // A second transaction with deletes, so the checkpoint captures
  // derivation counts that have been decremented, not just fresh state.
  auto ports = original.Dump("Port");
  ASSERT_TRUE(ports.ok());
  for (size_t i = 0; i < ports->size(); i += 7) {
    ASSERT_TRUE(original.Delete("Port", (*ports)[i]).ok());
  }
  ASSERT_TRUE(original.Commit().ok());

  std::string blob = original.SerializeState();
  auto restored = Engine::Restore(program, blob);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ(original.StateFingerprint(), (*restored)->StateFingerprint());
  EXPECT_EQ(DumpAll(original), DumpAll(**restored));
  EXPECT_TRUE((*restored)->TakeInitialDelta().empty());

  // Subsequent commits must produce byte-identical deltas: the restored
  // derivation counts and aggregation groups have to match exactly, or a
  // delete would surface (or fail to surface) differently.
  for (int step = 0; step < 8; ++step) {
    std::vector<Op> ops;
    for (int k = 0; k < 4; ++k) {
      Op op;
      op.sw = "sw-" + std::to_string(rng() % 4);
      op.relation = k % 3 == 0 ? "Trunk" : "Port";
      if (op.relation == "Trunk") {
        op.ints = {static_cast<int64_t>(rng() % 16)};
      } else {
        op.ints = {static_cast<int64_t>(rng() % 32),
                   static_cast<int64_t>(rng() % 6)};
      }
      op.insert = rng() % 3 != 0;
      ops.push_back(std::move(op));
    }
    std::string original_delta, restored_delta;
    for (Engine* engine : {&original, restored->get()}) {
      for (const Op& op : ops) {
        Row row = MaterializeRow(op);
        Status status = op.insert ? engine->Insert(op.relation, std::move(row))
                                  : engine->Delete(op.relation, std::move(row));
        ASSERT_TRUE(status.ok()) << status.ToString();
      }
      auto delta = engine->Commit();
      ASSERT_TRUE(delta.ok()) << delta.status().ToString();
      (engine == &original ? original_delta : restored_delta) =
          delta->ToString();
    }
    ASSERT_EQ(original_delta, restored_delta)
        << "restored engine diverged at step " << step;
  }
  EXPECT_EQ(DumpAll(original), DumpAll(**restored));

  // Damage must be detected, not absorbed.  (Whole-blob integrity is the
  // durability layer's job — its frame carries a CRC32 — so here the
  // engine only has to reject structural damage: bad magic, truncation,
  // and wrong-program blobs.)
  std::string corrupt = blob;
  corrupt[0] = static_cast<char>(corrupt[0] ^ 0x40);
  EXPECT_FALSE(Engine::Restore(program, corrupt).ok());
  EXPECT_FALSE(Engine::Restore(program, std::string_view(blob).substr(
                                            0, blob.size() - 9)).ok());
  // And a blob from a different program must be rejected by fingerprint.
  auto other = MustParse("input relation X(a: bigint)\n");
  Engine other_engine(other);
  EXPECT_FALSE(Engine::Restore(program, other_engine.SerializeState()).ok());
}

// Hand-encoding for checkpoint blobs, in the layout engine.cc documents.
void PutU32(std::string& out, uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
void PutU64(std::string& out, uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}
/// One encoded row of bigint (tag 2) and string (tag 4) values.
std::string EncodeRow(std::initializer_list<Value> values) {
  std::string out;
  PutU32(out, static_cast<uint32_t>(values.size()));
  for (const Value& v : values) {
    if (v.is_string()) {
      out.push_back(4);
      PutU32(out, static_cast<uint32_t>(v.as_string().size()));
      out += v.as_string();
    } else {
      out.push_back(2);
      PutU64(out, static_cast<uint64_t>(v.as_int()));
    }
  }
  return out;
}

TEST(DlogDifferential, RestoreRejectsStateItCannotEvaluate) {
  auto program = MustParse(R"(
    input relation X(a: bigint, b: bigint)
    output relation S(a: bigint, s: bigint)
    S(a, s) :- X(a, b), var s = sum(b) group_by (a).
  )");
  Engine original(program);
  ASSERT_TRUE(original.Insert("X", R({I(7), I(1)})).ok());
  ASSERT_TRUE(original.Commit().ok());

  // X's one row and its count, S's one row, then the sum's one group: its
  // key and one binding row (the bound slots a, b, then the summed b).
  auto build = [&](const std::string& x_row, uint64_t x_count,
                   const std::string& group, const std::string& binding) {
    std::string out("NDCK");
    PutU32(out, 1);
    PutU64(out, original.StateFingerprint());
    PutU32(out, 2);
    PutU32(out, 1);
    out += "X";
    PutU64(out, 1);
    out += x_row;
    PutU64(out, x_count);
    PutU32(out, 1);
    out += "S";
    PutU64(out, 1);
    out += EncodeRow({I(7), I(1)});
    PutU64(out, 1);
    PutU32(out, 1);
    PutU64(out, 1);
    out += group;
    PutU64(out, 1);
    out += binding;
    PutU64(out, 1);
    return out;
  };
  const std::string x_row = EncodeRow({I(7), I(1)});
  const std::string group = EncodeRow({I(7)});
  const std::string binding = EncodeRow({I(7), I(1), I(1)});
  ASSERT_EQ(build(x_row, 1, group, binding), original.SerializeState());

  struct Case {
    const char* what;
    std::string blob;
  };
  const Case cases[] = {
      {"empty binding row", build(x_row, 1, group, EncodeRow({}))},
      {"binding row one value short",
       build(x_row, 1, group, EncodeRow({I(7), I(1)}))},
      {"group key with two values",
       build(x_row, 1, EncodeRow({I(7), I(7)}), binding)},
      {"string group key", build(x_row, 1, EncodeRow({S("7")}), binding)},
      {"string as the summed value",
       build(x_row, 1, group, EncodeRow({I(7), I(1), S("1")}))},
      {"string in a bigint column",
       build(EncodeRow({I(7), S("1")}), 1, group, binding)},
      {"impossible derivation count",
       build(x_row, uint64_t{1} << 62, group, binding)},
  };
  for (const Case& c : cases) {
    EXPECT_FALSE(Engine::Restore(program, c.blob).ok()) << c.what;
  }
}

// ---------------------------------------------------------------------------
// Intern pool invariants.
// ---------------------------------------------------------------------------

TEST(InternPool, EqualPayloadsShareOneNode) {
  InternPoolStats before = GetInternPoolStats();
  Value first = Value::String("intern-dedup-probe-aa");
  InternPoolStats after_first = GetInternPoolStats();
  EXPECT_EQ(after_first.misses, before.misses + 1);
  Value second = Value::String("intern-dedup-probe-aa");
  InternPoolStats after_second = GetInternPoolStats();
  // The duplicate is served from the pool: a hit, no new node.
  EXPECT_EQ(after_second.hits, after_first.hits + 1);
  EXPECT_EQ(after_second.strings, after_first.strings);
  EXPECT_EQ(first, second);
  EXPECT_EQ(first.Hash(), second.Hash());
  // Tuples too, including ones built from separately constructed elements.
  Value tuple = Value::Tuple({I(1), S("intern-dedup-elem")});
  Value again = Value::Tuple({I(1), S("intern-dedup-elem")});
  EXPECT_EQ(tuple, again);
  EXPECT_EQ(tuple.Hash(), again.Hash());
  EXPECT_EQ(tuple.Compare(again), 0);
  EXPECT_NE(tuple, Value::Tuple({I(2), S("intern-dedup-elem")}));
}

TEST(InternPool, RowHashMatchesValueRangeHash) {
  // The transparent-lookup contract: a Row and a borrowed span over the
  // same values must hash identically and compare equal (probe-free joins
  // key arrangement maps this way).
  Row row{S("key-7"), I(42), Value::Bit(7), Value::Bool(true)};
  std::vector<Value> values(row.begin(), row.end());
  EXPECT_EQ(row.Hash(), HashValueRange(values.data(), values.size()));
  RowHash hasher;
  RowEq eq;
  RowView view{values.data(), values.size()};
  EXPECT_EQ(hasher(row), hasher(view));
  EXPECT_TRUE(eq(row, view));
  EXPECT_TRUE(eq(view, row));
}

TEST(InternPool, RowHashMemoizationSurvivesMutation) {
  Row row{I(1), I(2)};
  size_t first = row.Hash();
  EXPECT_EQ(row.Hash(), first);  // memoized
  row.push_back(I(3));           // invalidates
  Row fresh{I(1), I(2), I(3)};
  EXPECT_EQ(row.Hash(), fresh.Hash());
  row.clear();
  EXPECT_EQ(row.Hash(), Row().Hash());
}

// ---------------------------------------------------------------------------
// Failed-Commit rollback.
// ---------------------------------------------------------------------------

constexpr const char* kDivProgram = R"(
input relation X(a: bigint, b: bigint)
output relation Mirror(a: bigint)
output relation Quot(a: bigint, q: bigint)
output relation PerA(a: bigint, n: bigint)
Mirror(a) :- X(a, b).
Quot(a, 100 / b) :- X(a, b).
PerA(a, n) :- X(a, b), var n = count(b) group_by (a).
)";

TEST(DlogRollback, FailedCommitRollsBackAllPartialEffects) {
  auto program = MustParse(kDivProgram);
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("X", R({I(1), I(2)})).ok());
  ASSERT_TRUE(engine.Insert("X", R({I(1), I(4)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  std::vector<Row> mirror_before = *engine.Dump("Mirror");
  std::vector<Row> quot_before = *engine.Dump("Quot");
  std::vector<Row> pera_before = *engine.Dump("PerA");
  Engine::Stats stats_before = engine.GetStats();

  // The poisoned transaction: valid rows on both sides of the
  // division-by-zero row, so every subsystem (counts, arrangements,
  // aggregation groups) has partial effects to undo.
  ASSERT_TRUE(engine.Insert("X", R({I(0), I(5)})).ok());
  ASSERT_TRUE(engine.Insert("X", R({I(2), I(0)})).ok());  // 100 / 0
  ASSERT_TRUE(engine.Insert("X", R({I(3), I(10)})).ok());
  ASSERT_TRUE(engine.Delete("X", R({I(1), I(2)})).ok());
  auto failed = engine.Commit();
  ASSERT_FALSE(failed.ok());

  // Every observable is exactly as before the failed Commit().
  EXPECT_EQ(*engine.Dump("Mirror"), mirror_before);
  EXPECT_EQ(*engine.Dump("Quot"), quot_before);
  EXPECT_EQ(*engine.Dump("PerA"), pera_before);
  EXPECT_EQ(*engine.Dump("X"),
            (std::vector<Row>{R({I(1), I(2)}), R({I(1), I(4)})}));
  Engine::Stats stats_after = engine.GetStats();
  EXPECT_EQ(stats_after.tuples, stats_before.tuples);
  EXPECT_EQ(stats_after.arrangement_entries,
            stats_before.arrangement_entries);

  // The engine keeps working, and the next delta is computed against the
  // rolled-back state (none of the poisoned rows leaked).
  ASSERT_TRUE(engine.Insert("X", R({I(3), I(10)})).ok());
  auto delta = engine.Commit();
  ASSERT_TRUE(delta.ok()) << delta.status().ToString();
  EXPECT_EQ(delta->outputs.at("Mirror"),
            (SetDelta{{R({I(3)}), +1}}));
  EXPECT_EQ(delta->outputs.at("Quot"), (SetDelta{{R({I(3), I(10)}), +1}}));
  EXPECT_EQ(delta->outputs.at("PerA"), (SetDelta{{R({I(3), I(1)}), +1}}));

  // After rollback + successful commits, the engine matches a from-scratch
  // evaluation of the surviving inputs.
  Engine scratch(program);
  ASSERT_TRUE(scratch.Insert("X", R({I(1), I(2)})).ok());
  ASSERT_TRUE(scratch.Insert("X", R({I(1), I(4)})).ok());
  ASSERT_TRUE(scratch.Insert("X", R({I(3), I(10)})).ok());
  ASSERT_TRUE(scratch.Commit().ok());
  for (const char* relation : {"X", "Mirror", "Quot", "PerA"}) {
    EXPECT_EQ(*engine.Dump(relation), *scratch.Dump(relation))
        << relation << " diverged from scratch recompute";
  }
}

TEST(DlogRollback, AggregationStateIsRestoredExactly) {
  auto program = MustParse(kDivProgram);
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("X", R({I(7), I(1)})).ok());
  ASSERT_TRUE(engine.Commit().ok());

  // Failing txn touches group 7's aggregation state before the error.
  ASSERT_TRUE(engine.Insert("X", R({I(7), I(2)})).ok());
  ASSERT_TRUE(engine.Insert("X", R({I(7), I(0)})).ok());
  ASSERT_FALSE(engine.Commit().ok());

  // If the per-group count survived the rollback, this commit would
  // produce n=3 instead of n=2.
  ASSERT_TRUE(engine.Insert("X", R({I(7), I(2)})).ok());
  auto delta = engine.Commit();
  ASSERT_TRUE(delta.ok());
  EXPECT_EQ(delta->outputs.at("PerA"),
            (SetDelta{{R({I(7), I(1)}), -1}, {R({I(7), I(2)}), +1}}));
}

TEST(DlogRollback, RepeatedFailuresDoNotAccumulateState) {
  auto program = MustParse(kDivProgram);
  Engine engine(program);
  ASSERT_TRUE(engine.Insert("X", R({I(1), I(5)})).ok());
  ASSERT_TRUE(engine.Commit().ok());
  Engine::Stats stats_before = engine.GetStats();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(engine.Insert("X", R({I(100 + i), I(0)})).ok());
    ASSERT_FALSE(engine.Commit().ok());
  }
  Engine::Stats stats_after = engine.GetStats();
  EXPECT_EQ(stats_after.tuples, stats_before.tuples);
  EXPECT_EQ(stats_after.arrangement_entries,
            stats_before.arrangement_entries);
  EXPECT_EQ(engine.Size("Mirror"), 1u);
  EXPECT_EQ(engine.Size("Quot"), 1u);
}

TEST(DlogRollback, FailedCommitRestoresReplacedKeyedRows) {
  // X keyed on a: an insert replaces the row holding its a.
  std::string keyed = kDivProgram;
  keyed.insert(keyed.find("output relation"), "key X(a)\n");
  auto program = MustParse(keyed.c_str());
  for (bool arrangements : {true, false}) {
    Engine engine(program, EngineOptions{.use_arrangements = arrangements});
    ASSERT_TRUE(engine.Insert("X", R({I(1), I(2)})).ok());
    ASSERT_TRUE(engine.Insert("X", R({I(2), I(4)})).ok());
    ASSERT_TRUE(engine.Commit().ok());
    std::string before = DumpAll(engine);

    // Replaces both rows; the second replacement divides by zero.
    ASSERT_TRUE(engine.Insert("X", R({I(1), I(5)})).ok());
    ASSERT_TRUE(engine.Insert("X", R({I(2), I(0)})).ok());
    ASSERT_FALSE(engine.Commit().ok());
    EXPECT_EQ(DumpAll(engine), before);

    auto delta = engine.Commit();  // nothing queued
    ASSERT_TRUE(delta.ok());
    EXPECT_TRUE(delta->empty());
    ASSERT_TRUE(engine.Insert("X", R({I(1), I(5)})).ok());
    delta = engine.Commit();
    ASSERT_TRUE(delta.ok()) << delta.status().ToString();
    EXPECT_EQ(delta->outputs.at("Quot"),
              (SetDelta{{R({I(1), I(50)}), -1}, {R({I(1), I(20)}), +1}}));
    EXPECT_EQ(*engine.Dump("X"), (std::vector<Row>{R({I(1), I(5)}),
                                                   R({I(2), I(4)})}));
  }
}

}  // namespace
}  // namespace nerpa::dlog
