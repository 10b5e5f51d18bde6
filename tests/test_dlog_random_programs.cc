// Random stratified programs against a naive bottom-up evaluator.
//
// A seeded generator builds small programs in a test-local rule form and
// prints them as dlog text: two or three inputs and two to five derived
// relations of one, two or four to seven bigint columns (the wide ones
// hold more values than a Row keeps inline), with joins over shared,
// repeated and constant terms, negation of strictly lower strata, count/sum/min/max
// group_by over lower strata, and positive (also mutual) recursion whose
// affine heads are bounded by a filter, as in
// `R(a, h + 1) :- R(b, h), E(b, a), h < 4`.
//
// The naive evaluator reads the same rule form, never the engine's parser
// or planner: nested loops over whole relations, no indexes, no deltas,
// and one fixpoint per stratum.  A random stream of insert/delete commits
// runs against the engine three ways at once (arrangements on; off, for
// negation-free programs; and through a SerializeState/Restore halfway),
// and after every commit each relation's Dump must equal the naive result.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "common/strings.h"
#include "dlog/engine.h"

namespace nerpa::dlog {
namespace {

constexpr int kPrograms = 100;
constexpr int kCommits = 30;
constexpr int64_t kDomain = 5;  // input values are 0 .. kDomain - 1
constexpr int kMaxVars = 8;

using Tuple = std::vector<int64_t>;
using Tuples = std::set<Tuple>;
using Db = std::vector<Tuples>;  // indexed by relation

// --- The rule form ---

struct Term {
  enum class Kind { kVar, kConst, kWild };
  Kind kind = Kind::kWild;
  int var = -1;
  int64_t value = 0;  // the constant; in a head variable, the added offset
};

struct Atom {
  int rel = 0;
  std::vector<Term> terms;
};

struct Rule {
  int head = 0;
  std::vector<Term> head_terms;
  std::vector<Atom> positive;  // joined left to right
  std::vector<std::pair<int, int64_t>> less;  // var < bound
  std::vector<Atom> negated;   // over strictly lower strata
  // Aggregate rules: head (group_var, result).
  std::optional<AggFunc> agg;
  int group_var = -1;
  int agg_arg = -1;
};

struct Rel {
  std::string name;
  int arity = 2;
  bool input = false;
  bool output = false;
  bool aggregate = false;
  int level = 0;  // inputs 0; derived relations read lower levels only
                  // through negation and aggregation
};

struct Prog {
  std::vector<Rel> rels;
  std::vector<Rule> rules;

  bool HasNegation() const {
    return std::any_of(rules.begin(), rules.end(),
                       [](const Rule& r) { return !r.negated.empty(); });
  }
  std::vector<int> Inputs() const {
    std::vector<int> out;
    for (size_t i = 0; i < rels.size(); ++i) {
      if (rels[i].input) out.push_back(static_cast<int>(i));
    }
    return out;
  }
};

// --- Printing ---

std::string TermText(const Term& term) {
  switch (term.kind) {
    case Term::Kind::kVar:
      return term.value == 0
                 ? StrFormat("v%d", term.var)
                 : StrFormat("v%d + %lld", term.var,
                             static_cast<long long>(term.value));
    case Term::Kind::kConst:
      return StrFormat("%lld", static_cast<long long>(term.value));
    case Term::Kind::kWild:
      return "_";
  }
  return "";
}

std::string AtomText(const std::string& name, const std::vector<Term>& terms) {
  std::string out = name + "(";
  for (size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out += ", ";
    out += TermText(terms[i]);
  }
  return out + ")";
}

std::string ProgramText(const Prog& p) {
  std::string out;
  for (const Rel& rel : p.rels) {
    out += rel.input ? "input " : rel.output ? "output " : "";
    out += "relation " + rel.name + "(c0: bigint";
    for (int c = 1; c < rel.arity; ++c) out += StrFormat(", c%d: bigint", c);
    out += ")\n";
  }
  for (const Rule& rule : p.rules) {
    std::vector<Term> head = rule.head_terms;
    std::vector<std::string> body;
    for (const Atom& atom : rule.positive) {
      body.push_back(AtomText(p.rels[atom.rel].name, atom.terms));
    }
    for (const auto& [var, bound] : rule.less) {
      body.push_back(StrFormat("v%d < %lld", var,
                               static_cast<long long>(bound)));
    }
    for (const Atom& atom : rule.negated) {
      body.push_back("not " + AtomText(p.rels[atom.rel].name, atom.terms));
    }
    std::string head_text;
    if (rule.agg) {
      body.push_back(StrFormat("var r = %s(v%d) group_by (v%d)",
                               AggFuncName(*rule.agg),
                               rule.agg_arg, rule.group_var));
      head_text = StrFormat("%s(v%d, r)", p.rels[rule.head].name.c_str(),
                            rule.group_var);
    } else {
      head_text = AtomText(p.rels[rule.head].name, head);
    }
    out += head_text + " :- ";
    for (size_t i = 0; i < body.size(); ++i) {
      if (i > 0) out += ", ";
      out += body[i];
    }
    out += ".\n";
  }
  return out;
}

// --- The generator ---

class Generator {
 public:
  explicit Generator(uint64_t seed) : rng_(seed) {}

  Prog Build() {
    Prog p;
    int inputs = 2 + Pick(2);
    for (int i = 0; i < inputs; ++i) {
      p.rels.push_back(Rel{.name = StrFormat("I%d", i),
                           .arity = Chance(30) ? Wide() : 2,
                           .input = true});
    }
    int derived = 2 + Pick(4);
    int level = 0;
    for (int d = 0; d < derived; ++d) {
      const Rel& prev = p.rels.back();
      Rel rel{.name = StrFormat("D%d", d)};
      rel.aggregate = Chance(30);
      // A plain relation may share its predecessor's level, which allows
      // mutual recursion between the two.
      bool share = !rel.aggregate && !prev.input && !prev.aggregate &&
                   Chance(25);
      rel.level = share ? level : ++level;
      rel.arity = rel.aggregate ? 2  // (group, result)
                  : Chance(25)  ? Wide()
                  : Chance(70)  ? 2
                                : 1;
      rel.output = Chance(50);
      p.rels.push_back(rel);
    }
    for (size_t r = static_cast<size_t>(inputs); r < p.rels.size(); ++r) {
      int head = static_cast<int>(r);
      if (p.rels[r].aggregate) {
        p.rules.push_back(AggregateRule(p, head));
        continue;
      }
      p.rules.push_back(PlainRule(p, head, /*recursive=*/false));
      if (Chance(55)) p.rules.push_back(PlainRule(p, head, true));
    }
    return p;
  }

 private:
  int Pick(int n) { return static_cast<int>(rng_() % static_cast<uint64_t>(n)); }
  bool Chance(int percent) { return Pick(100) < percent; }
  /// A width above Row::kInline.
  int Wide() { return 4 + Pick(4); }

  /// Relations a rule of `head` may read: strictly lower levels, or (for
  /// positive recursion) plain relations of its own level.
  std::vector<int> Candidates(const Prog& p, int head, bool same_level) {
    std::vector<int> out;
    int level = p.rels[head].level;
    for (size_t r = 0; r < p.rels.size(); ++r) {
      const Rel& rel = p.rels[r];
      if (same_level ? rel.level == level && !rel.input && !rel.aggregate
                     : rel.level < level) {
        out.push_back(static_cast<int>(r));
      }
    }
    return out;
  }

  /// A positive atom over `rel`: variables shared with earlier atoms,
  /// repeated within this one, or fresh; constants and wildcards.
  Atom PositiveAtom(const Prog& p, int rel, std::vector<int>& bound) {
    Atom atom;
    atom.rel = rel;
    const size_t earlier = bound.size();
    for (int c = 0; c < p.rels[rel].arity; ++c) {
      Term term;
      int roll = Pick(100);
      if (earlier > 0 && roll < 45) {
        term = Term{Term::Kind::kVar, bound[Pick(static_cast<int>(earlier))]};
      } else if (bound.size() > earlier && roll < 55) {
        term = Term{Term::Kind::kVar, bound.back()};
      } else if (roll < 85 && static_cast<int>(bound.size()) < kMaxVars) {
        term = Term{Term::Kind::kVar, static_cast<int>(bound.size())};
        bound.push_back(term.var);
      } else if (roll < 93) {
        term = Term{Term::Kind::kConst, -1, Pick(static_cast<int>(kDomain))};
      }
      atom.terms.push_back(term);
    }
    return atom;
  }

  /// A negated atom over a strictly lower relation, reading only bound
  /// variables, constants and wildcards.
  Atom NegatedAtom(const Prog& p, int head, const std::vector<int>& bound) {
    std::vector<int> lower = Candidates(p, head, false);
    Atom atom;
    atom.rel = lower[Pick(static_cast<int>(lower.size()))];
    for (int c = 0; c < p.rels[atom.rel].arity; ++c) {
      Term term;
      int roll = Pick(100);
      if (!bound.empty() && roll < 60) {
        term = Term{Term::Kind::kVar, bound[Pick(static_cast<int>(bound.size()))]};
      } else if (roll < 80) {
        term = Term{Term::Kind::kConst, -1, Pick(static_cast<int>(kDomain))};
      }
      atom.terms.push_back(term);
    }
    return atom;
  }

  /// The positive atoms of a rule of `head`; a recursive rule starts with
  /// an atom of its own level.  Guarantees at least one bound variable.
  void Body(const Prog& p, Rule& rule, bool recursive,
            std::vector<int>& bound) {
    std::vector<int> lower = Candidates(p, rule.head, false);
    if (recursive) {
      std::vector<int> same = Candidates(p, rule.head, true);
      rule.positive.push_back(
          PositiveAtom(p, same[Pick(static_cast<int>(same.size()))], bound));
    }
    int atoms = recursive ? Pick(2) : 1 + Pick(2);
    for (int i = 0; i < atoms; ++i) {
      rule.positive.push_back(PositiveAtom(
          p, lower[Pick(static_cast<int>(lower.size()))], bound));
    }
    if (bound.empty()) {
      rule.positive.front().terms.front() = Term{Term::Kind::kVar, 0};
      bound.push_back(0);
    }
  }

  Rule PlainRule(const Prog& p, int head, bool recursive) {
    Rule rule;
    rule.head = head;
    std::vector<int> bound;
    Body(p, rule, recursive, bound);
    // Head variables are distinct while the body has enough of them.
    std::vector<int> vars = bound;
    std::shuffle(vars.begin(), vars.end(), rng_);
    for (int c = 0; c < p.rels[head].arity; ++c) {
      if (Chance(85)) {
        rule.head_terms.push_back(
            Term{Term::Kind::kVar, vars[static_cast<size_t>(c) % vars.size()]});
      } else {
        rule.head_terms.push_back(
            Term{Term::Kind::kConst, -1, Pick(static_cast<int>(kDomain))});
      }
    }
    // An affine head term `v + 1` is bounded by a filter `v < k`, so a
    // recursion through it stops.  Its variable appears once in the head.
    if (Chance(recursive ? 45 : 15)) {
      size_t column = static_cast<size_t>(Pick(p.rels[head].arity));
      int var = bound[Pick(static_cast<int>(bound.size()))];
      bool reused = false;
      for (size_t c = 0; c < rule.head_terms.size(); ++c) {
        const Term& t = rule.head_terms[c];
        reused |= c != column && t.kind == Term::Kind::kVar && t.var == var;
      }
      if (!reused) {
        rule.head_terms[column] = Term{Term::Kind::kVar, var, 1};
        rule.less.emplace_back(var, 2 + Pick(static_cast<int>(kDomain) - 1));
      }
    }
    if (Chance(15)) {
      rule.less.emplace_back(bound[Pick(static_cast<int>(bound.size()))],
                             1 + Pick(static_cast<int>(kDomain)));
    }
    if (Chance(35)) rule.negated.push_back(NegatedAtom(p, head, bound));
    return rule;
  }

  Rule AggregateRule(const Prog& p, int head) {
    Rule rule;
    rule.head = head;
    std::vector<int> bound;
    Body(p, rule, /*recursive=*/false, bound);
    if (Chance(25)) rule.negated.push_back(NegatedAtom(p, head, bound));
    static constexpr AggFunc kFuncs[] = {AggFunc::kCount, AggFunc::kSum,
                                         AggFunc::kMin, AggFunc::kMax};
    rule.agg = kFuncs[Pick(4)];
    rule.group_var = bound[Pick(static_cast<int>(bound.size()))];
    rule.agg_arg = bound[Pick(static_cast<int>(bound.size()))];
    return rule;
  }

  std::mt19937_64 rng_;
};

// --- The naive evaluator ---

struct Frame {
  int64_t value[kMaxVars] = {};
  bool bound[kMaxVars] = {};
};

bool Matches(const Atom& atom, const Tuple& t, Frame& f,
             std::vector<int>* newly) {
  for (size_t c = 0; c < t.size(); ++c) {
    const Term& term = atom.terms[c];
    if (term.kind == Term::Kind::kConst) {
      if (t[c] != term.value) return false;
    } else if (term.kind == Term::Kind::kVar) {
      if (f.bound[term.var]) {
        if (f.value[term.var] != t[c]) return false;
      } else if (newly != nullptr) {
        f.bound[term.var] = true;
        f.value[term.var] = t[c];
        newly->push_back(term.var);
      }
    }
  }
  return true;
}

/// Calls `fn(frame)` for every assignment satisfying `rule`'s body.
template <typename Fn>
void Join(const Rule& rule, size_t i, Frame& f, const Db& db, Fn& fn) {
  if (i == rule.positive.size()) {
    for (const auto& [var, bound] : rule.less) {
      if (!(f.value[var] < bound)) return;
    }
    for (const Atom& atom : rule.negated) {
      for (const Tuple& t : db[static_cast<size_t>(atom.rel)]) {
        if (Matches(atom, t, f, nullptr)) return;
      }
    }
    fn(f);
    return;
  }
  const Atom& atom = rule.positive[i];
  for (const Tuple& t : db[static_cast<size_t>(atom.rel)]) {
    std::vector<int> newly;
    if (Matches(atom, t, f, &newly)) Join(rule, i + 1, f, db, fn);
    for (int var : newly) f.bound[var] = false;
  }
}

/// Every head tuple `rule` derives from `db`.
std::vector<Tuple> Fire(const Rule& rule, const Db& db) {
  std::vector<Tuple> out;
  Frame frame;
  if (!rule.agg) {
    auto emit = [&](const Frame& f) {
      Tuple head;
      for (const Term& term : rule.head_terms) {
        head.push_back(term.kind == Term::Kind::kVar
                           ? f.value[term.var] + term.value
                           : term.value);
      }
      out.push_back(std::move(head));
    };
    Join(rule, 0, frame, db, emit);
    return out;
  }
  // The engine aggregates over distinct assignments of every bound
  // variable, grouped by the group variable.
  std::map<int64_t, std::set<Tuple>> groups;
  auto collect = [&](const Frame& f) {
    Tuple assignment;
    for (int v = 0; v < kMaxVars; ++v) {
      if (f.bound[v]) assignment.push_back(f.value[v]);
    }
    assignment.push_back(f.value[rule.agg_arg]);
    groups[f.value[rule.group_var]].insert(std::move(assignment));
  };
  Join(rule, 0, frame, db, collect);
  for (const auto& [group, assignments] : groups) {
    int64_t result = 0;
    switch (*rule.agg) {
      case AggFunc::kCount:
        result = static_cast<int64_t>(assignments.size());
        break;
      case AggFunc::kSum:
        for (const Tuple& a : assignments) result += a.back();
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        result = assignments.begin()->back();
        for (const Tuple& a : assignments) {
          result = *rule.agg == AggFunc::kMin ? std::min(result, a.back())
                                              : std::max(result, a.back());
        }
        break;
    }
    out.push_back({group, result});
  }
  return out;
}

/// Bottom-up evaluation: one fixpoint per level, in level order.
Db Evaluate(const Prog& p, const Db& inputs) {
  Db db = inputs;
  db.resize(p.rels.size());
  int top = 0;
  for (const Rel& rel : p.rels) top = std::max(top, rel.level);
  for (int level = 1; level <= top; ++level) {
    for (bool changed = true; changed;) {
      changed = false;
      for (const Rule& rule : p.rules) {
        if (p.rels[static_cast<size_t>(rule.head)].level != level) continue;
        for (Tuple& t : Fire(rule, db)) {
          changed |= db[static_cast<size_t>(rule.head)].insert(std::move(t)).second;
        }
      }
    }
  }
  return db;
}

// --- The stream ---

Tuples DumpTuples(const Engine& engine, const std::string& relation) {
  Tuples out;
  auto rows = engine.Dump(relation);
  if (!rows.ok()) return out;
  for (const Row& row : *rows) {
    Tuple t;
    for (const Value& v : row) t.push_back(v.as_int());
    out.insert(std::move(t));
  }
  return out;
}

std::string TuplesText(const Tuples& tuples) {
  std::string out;
  for (const Tuple& t : tuples) {
    out += " (";
    for (size_t i = 0; i < t.size(); ++i) {
      out += StrFormat(i == 0 ? "%lld" : ", %lld", static_cast<long long>(t[i]));
    }
    out += ")";
  }
  return out.empty() ? " (none)" : out;
}

Row ToRow(const Tuple& t) {
  Row row;
  for (int64_t v : t) row.push_back(Value::Int(v));
  return row;
}

/// Runs one program's stream; returns "" or the first divergence, with the
/// program text and the failing commit's ops.
std::string RunProgram(uint64_t seed) {
  Prog prog = Generator(seed).Build();
  std::string text = ProgramText(prog);
  auto parsed = Program::Parse(text);
  if (!parsed.ok()) {
    return "program rejected: " + parsed.status().ToString() + "\n" + text;
  }
  std::shared_ptr<const Program> program = *parsed;
  struct Way {
    std::string name;
    std::unique_ptr<Engine> engine;
  };
  std::vector<Way> ways;
  ways.push_back({"arrangements on", std::make_unique<Engine>(program)});
  if (!prog.HasNegation()) {
    ways.push_back({"arrangements off",
                    std::make_unique<Engine>(
                        program, EngineOptions{.use_arrangements = false})});
  }
  ways.push_back({"restored halfway", std::make_unique<Engine>(program)});

  std::vector<int> inputs = prog.Inputs();
  Db db(prog.rels.size());
  std::mt19937_64 rng(seed * 7919 + 1);
  for (int commit = 0; commit < kCommits; ++commit) {
    if (commit == kCommits / 2) {
      Way& way = ways.back();
      auto restored = Engine::Restore(program, way.engine->SerializeState());
      if (!restored.ok()) {
        return "restore failed: " + restored.status().ToString() + "\n" + text;
      }
      way.engine = std::move(restored).value();
    }
    std::string ops;
    int count = 1 + static_cast<int>(rng() % 4);
    for (int k = 0; k < count; ++k) {
      int rel = inputs[rng() % inputs.size()];
      const Rel& decl = prog.rels[static_cast<size_t>(rel)];
      Tuple t;
      for (int c = 0; c < decl.arity; ++c) {
        t.push_back(static_cast<int64_t>(rng() % kDomain));
      }
      bool insert = rng() % 2 == 0;
      const std::string& name = decl.name;
      for (Way& way : ways) {
        Status s = insert ? way.engine->Insert(name, ToRow(t))
                          : way.engine->Delete(name, ToRow(t));
        if (!s.ok()) return s.ToString() + "\n" + text;
      }
      if (insert) {
        db[static_cast<size_t>(rel)].insert(t);
      } else {
        db[static_cast<size_t>(rel)].erase(t);
      }
      ops += StrFormat(" %s%s", insert ? "+" : "-", name.c_str()) +
             TuplesText({t});
    }
    Db expected = Evaluate(prog, db);
    for (Way& way : ways) {
      auto delta = way.engine->Commit();
      if (!delta.ok()) {
        return way.name + ": commit failed: " + delta.status().ToString() +
               "\n" + text;
      }
      for (size_t r = 0; r < prog.rels.size(); ++r) {
        Tuples got = DumpTuples(*way.engine, prog.rels[r].name);
        if (got == expected[r]) continue;
        return StrFormat("seed %llu, %s, commit %d (ops:%s): %s is",
                         static_cast<unsigned long long>(seed),
                         way.name.c_str(), commit, ops.c_str(),
                         prog.rels[r].name.c_str()) +
               TuplesText(got) + "\n  naive:" + TuplesText(expected[r]) +
               "\nprogram:\n" + text;
      }
    }
  }
  return "";
}

TEST(DlogRandomPrograms, StreamsMatchNaiveEvaluation) {
  int diverged = 0;
  for (uint64_t seed = 1; seed <= kPrograms; ++seed) {
    std::string failure = RunProgram(seed);
    if (failure.empty()) continue;
    ++diverged;
    ADD_FAILURE() << failure;
  }
  EXPECT_EQ(diverged, 0);
}

}  // namespace
}  // namespace nerpa::dlog
