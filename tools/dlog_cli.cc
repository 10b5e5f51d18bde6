// dlog_cli — load a Datalog program and drive it interactively (or from a
// piped script): the developer loop for writing control-plane rules.
//
//   $ ./build/tools/dlog_cli program.dl
//   dlog> insert Edge(1, 2)
//   dlog> insert GivenLabel(1, "blue")
//   dlog> commit
//   + Label(1, "blue")
//   + Label(2, "blue")
//   dlog> dump Label
//   dlog> delete Edge(1, 2)
//   dlog> commit
//
// Commands: insert R(v, ...), delete R(v, ...), commit, dump R, relations,
// stats, plan, source, help, quit.  Values: integers (coerced to the
// column's bit<N>/bigint type), "strings", true/false, and [v, ...] vectors.
//
// `dlog_cli --builtin <name>` loads a packaged example stack's whole program
// (generated declarations plus rules) instead of a file.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "analyze/diag.h"
#include "common/strings.h"
#include "dlog/engine.h"
#include "dlog/lexer.h"
#include "dlog/program.h"
#include "stacks.h"

namespace nerpa::dlog {
namespace {

/// Parses a literal value for `type` from the token stream.
Result<Value> ParseValue(const std::vector<Token>& tokens, size_t& pos,
                         const Type& type) {
  if (pos >= tokens.size()) return ParseError("expected a value");
  const Token& token = tokens[pos];
  bool negative = token.IsPunct("-");
  if (negative) ++pos;
  const Token& t = tokens[pos];
  switch (type.kind) {
    case Type::Kind::kInt:
      if (!t.Is(TokKind::kInt)) return ParseError("expected an integer");
      ++pos;
      return Value::Int(negative ? -t.int_value : t.int_value);
    case Type::Kind::kBit: {
      if (!t.Is(TokKind::kInt) || negative) {
        return ParseError("expected an unsigned integer");
      }
      uint64_t raw = static_cast<uint64_t>(t.int_value);
      if (type.MaskBits(raw) != raw) {
        return ParseError(StrFormat("value does not fit %s",
                                    type.ToString().c_str()));
      }
      ++pos;
      return Value::Bit(raw);
    }
    case Type::Kind::kBool:
      ++pos;
      if (t.IsIdent("true")) return Value::Bool(true);
      if (t.IsIdent("false")) return Value::Bool(false);
      return ParseError("expected true/false");
    case Type::Kind::kString:
      if (!t.Is(TokKind::kString)) return ParseError("expected a \"string\"");
      ++pos;
      return Value::String(t.text);
    case Type::Kind::kVec: {
      if (!t.IsPunct("[")) return ParseError("expected '['");
      ++pos;
      ValueVec elems;
      if (!tokens[pos].IsPunct("]")) {
        while (true) {
          NERPA_ASSIGN_OR_RETURN(Value v,
                                 ParseValue(tokens, pos, type.elems[0]));
          elems.push_back(std::move(v));
          if (tokens[pos].IsPunct(",")) {
            ++pos;
            continue;
          }
          break;
        }
      }
      if (!tokens[pos].IsPunct("]")) return ParseError("expected ']'");
      ++pos;
      return Value::Tuple(std::move(elems));
    }
    case Type::Kind::kTuple: {
      if (!t.IsPunct("(")) return ParseError("expected '('");
      ++pos;
      ValueVec elems;
      for (size_t i = 0; i < type.elems.size(); ++i) {
        if (i > 0) {
          if (!tokens[pos].IsPunct(",")) return ParseError("expected ','");
          ++pos;
        }
        NERPA_ASSIGN_OR_RETURN(Value v, ParseValue(tokens, pos, type.elems[i]));
        elems.push_back(std::move(v));
      }
      if (!tokens[pos].IsPunct(")")) return ParseError("expected ')'");
      ++pos;
      return Value::Tuple(std::move(elems));
    }
  }
  return ParseError("unsupported type");
}

Result<std::pair<std::string, Row>> ParseAtomCommand(
    const Program& program, const std::vector<Token>& tokens, size_t pos) {
  if (!tokens[pos].Is(TokKind::kIdent)) {
    return ParseError("expected a relation name");
  }
  std::string relation = tokens[pos++].text;
  int id = program.FindRelation(relation);
  if (id < 0) return NotFound("no relation '" + relation + "'");
  const RelationDecl& decl = program.relation(id);
  if (!tokens[pos].IsPunct("(")) return ParseError("expected '('");
  ++pos;
  Row row;
  for (size_t c = 0; c < decl.columns.size(); ++c) {
    if (c > 0) {
      if (!tokens[pos].IsPunct(",")) return ParseError("expected ','");
      ++pos;
    }
    NERPA_ASSIGN_OR_RETURN(Value v,
                           ParseValue(tokens, pos, decl.columns[c].type));
    row.push_back(std::move(v));
  }
  if (!tokens[pos].IsPunct(")")) {
    return ParseError(StrFormat("expected ')' — %s takes %zu columns",
                                decl.name.c_str(), decl.columns.size()));
  }
  return std::make_pair(std::move(relation), std::move(row));
}

/// Prints the compiled plan: each stratum in evaluation order, then each
/// arrangement with its key columns, what its upkeep records, and the
/// input key or plans that read it.
void PrintPlan(const Program& program) {
  for (size_t s = 0; s < program.strata().size(); ++s) {
    const Stratum& stratum = program.strata()[s];
    std::string names;
    for (int rel : stratum.relations) {
      names += (names.empty() ? "" : ", ") + program.relation(rel).name;
    }
    std::printf("stratum %zu: %s%s\n", s, names.c_str(),
                stratum.recursive ? "  (recursive)" : "");
  }
  // (relation, arrangement) -> one line per reader.
  std::map<std::pair<int, int>, std::vector<std::string>> readers;
  for (size_t rel = 0; rel < program.relations().size(); ++rel) {
    int key = program.key_arrangement(static_cast<int>(rel));
    if (key >= 0) {
      readers[{static_cast<int>(rel), key}].push_back(
          "input key: an insert finds the row it replaces");
    }
  }
  for (const CompiledRule& rule : program.rules()) {
    auto read = [&](int rel, int arrangement, const std::string& kind) {
      if (arrangement < 0) return;
      readers[{rel, arrangement}].push_back(StrFormat(
          "line %d (%s): %s", rule.line,
          program.relation(rule.head_relation).name.c_str(), kind.c_str()));
    };
    auto read_all = [&](const std::vector<LookupPlan>& lookups,
                        const std::string& kind) {
      for (const LookupPlan& lookup : lookups) {
        read(rule.steps[static_cast<size_t>(lookup.step_index)].relation,
             lookup.arrangement, kind);
      }
    };
    for (const DeltaPlan& plan : rule.delta_plans) {
      const StepPlan& pinned =
          rule.steps[static_cast<size_t>(plan.pinned_step)];
      int literal = 0;  // 1-based among the body's literals
      for (int s = 0; s <= plan.pinned_step; ++s) {
        literal += rule.steps[static_cast<size_t>(s)].kind ==
                   BodyElem::Kind::kLiteral;
      }
      read_all(plan.lookups,
               StrFormat("delta plan pinned at literal %d (%s)", literal,
                         program.relation(pinned.relation).name.c_str()));
      read(pinned.relation, plan.pinned_arrangement,
           StrFormat("negation pin at literal %d", literal));
    }
    int stratum = program.stratum_of(rule.head_relation);
    bool recursive = program.strata()[static_cast<size_t>(stratum)].recursive;
    read_all(rule.full_plan.lookups,
             recursive ? "recursive full plan" : "bootstrap full plan");
    read_all(rule.rederive_plan.lookups, "re-derivation plan");
  }
  size_t total = 0;
  for (const auto& specs : program.arrangements()) total += specs.size();
  std::printf("arrangements: %zu\n", total);
  for (size_t rel = 0; rel < program.arrangements().size(); ++rel) {
    const RelationDecl& decl = program.relations()[rel];
    const auto& specs = program.arrangements()[rel];
    for (size_t a = 0; a < specs.size(); ++a) {
      std::string key;
      for (int p : specs[a].key_positions) {
        key += (key.empty() ? "" : ", ") +
               decl.columns[static_cast<size_t>(p)].name;
      }
      std::printf("%s(%s)  flips=%s deleted=%s\n", decl.name.c_str(),
                  key.c_str(), specs[a].records_flips ? "yes" : "no",
                  specs[a].records_deleted ? "yes" : "no");
      for (const std::string& reader :
           readers[{static_cast<int>(rel), static_cast<int>(a)}]) {
        std::printf("  %s\n", reader.c_str());
      }
    }
  }
}

int Repl(const std::string& path, const std::string& source) {
  auto program = Program::Parse(source);
  if (!program.ok()) {
    // Frontend errors carry "line L:C:" spans — render them with a caret
    // snippet like nerpa_check does.
    const std::string& message = program.status().message();
    int line = 0, col = 0, prefix = 0;
    if (std::sscanf(message.c_str(), "line %d:%d:%n", &line, &col, &prefix) ==
        2) {
      // Drop the "line L:C:" prefix — the span is already in the location.
      std::string detail = message.substr(prefix);
      while (!detail.empty() && detail.front() == ' ') detail.erase(0, 1);
      std::fprintf(stderr, "%s:%d:%d: error: %s\n%s", path.c_str(), line,
                   col, detail.c_str(),
                   nerpa::analyze::CaretSnippet(source, line, col).c_str());
    } else {
      std::fprintf(stderr, "error: %s\n", program.status().ToString().c_str());
    }
    return 1;
  }
  Engine engine(*program);
  TxnDelta initial = engine.TakeInitialDelta();
  if (!initial.empty()) {
    std::printf("%s", initial.ToString().c_str());
  }
  bool interactive = isatty(fileno(stdin));
  std::string line;
  int pending = 0;
  while (true) {
    if (interactive) {
      std::printf("dlog> ");
      std::fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    auto tokens = Tokenize(trimmed);
    if (!tokens.ok()) {
      std::printf("error: %s\n", tokens.status().ToString().c_str());
      continue;
    }
    const std::string& command = (*tokens)[0].text;
    if (command == "quit" || command == "exit") break;
    if (command == "help") {
      std::printf(
          "commands: insert R(v, ...) | delete R(v, ...) | commit |\n"
          "          dump R | relations | stats | plan | source | quit\n"
          "  plan: strata in evaluation order, then each arrangement (index)\n"
          "        with its key columns, whether its upkeep records presence\n"
          "        flips and deleted rows, and the plans that read it\n");
    } else if (command == "relations") {
      for (const RelationDecl& decl : (*program)->relations()) {
        std::printf("%s  (%zu rows)\n", decl.ToString().c_str(),
                    engine.Size(decl.name));
      }
    } else if (command == "plan") {
      PrintPlan(**program);
    } else if (command == "source") {
      std::printf("%s", (*program)->ast().ToString().c_str());
    } else if (command == "stats") {
      auto stats = engine.GetStats();
      std::printf("transactions=%llu rule_firings=%llu tuples=%zu "
                  "arrangement_entries=%zu pending_ops=%d\n",
                  static_cast<unsigned long long>(stats.transactions),
                  static_cast<unsigned long long>(stats.rule_firings),
                  stats.tuples, stats.arrangement_entries, pending);
    } else if (command == "commit") {
      auto delta = engine.Commit();
      pending = 0;
      if (!delta.ok()) {
        std::printf("error: %s\n", delta.status().ToString().c_str());
      } else if (delta->empty()) {
        std::printf("(no output changes)\n");
      } else {
        std::printf("%s", delta->ToString().c_str());
      }
    } else if (command == "dump") {
      if (tokens->size() < 2 || !(*tokens)[1].Is(TokKind::kIdent)) {
        std::printf("usage: dump RelationName\n");
        continue;
      }
      auto rows = engine.Dump((*tokens)[1].text);
      if (!rows.ok()) {
        std::printf("error: %s\n", rows.status().ToString().c_str());
        continue;
      }
      for (const Row& row : *rows) {
        std::printf("%s%s\n", (*tokens)[1].text.c_str(),
                    RowToString(row).c_str());
      }
      std::printf("(%zu rows)\n", rows->size());
    } else if (command == "insert" || command == "delete") {
      auto atom = ParseAtomCommand(**program, *tokens, 1);
      if (!atom.ok()) {
        std::printf("error: %s\n", atom.status().ToString().c_str());
        continue;
      }
      Status status = command == "insert"
                          ? engine.Insert(atom->first, std::move(atom->second))
                          : engine.Delete(atom->first, std::move(atom->second));
      if (!status.ok()) {
        std::printf("error: %s\n", status.ToString().c_str());
      } else {
        ++pending;
      }
    } else {
      std::printf("unknown command '%s' (try 'help')\n", command.c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace nerpa::dlog

int main(int argc, char** argv) {
  if (argc == 3 && std::string_view(argv[1]) == "--builtin") {
    auto stack = nerpa::examples::GetStack(argv[2]);
    auto source = stack.ok() ? nerpa::examples::StackProgram(*stack)
                             : nerpa::Result<std::string>(stack.status());
    if (!source.ok()) {
      std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
      return 2;
    }
    return nerpa::dlog::Repl(argv[2], *source);
  }
  if (argc != 2) {
    std::fprintf(stderr,
                 "usage: %s program.dl | --builtin <name>\n"
                 "       (then type 'help' at the prompt)\n",
                 argv[0]);
    return 2;
  }
  std::ifstream in(argv[1]);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 2;
  }
  std::ostringstream source;
  source << in.rdbuf();
  return nerpa::dlog::Repl(argv[1], source.str());
}
