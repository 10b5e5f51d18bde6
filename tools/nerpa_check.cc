// nerpa_check: full-stack static analysis from the command line.
//
// Usage:
//   nerpa_check --builtin <snvs|ip_fabric|multi_device|reachability> [flags]
//   nerpa_check --dlog rules.dl [--schema db.ovsschema] [--p4 pipe.p4] [flags]
//
// Flags:
//   --json            machine-readable output (stable NWxxx codes + spans)
//   --werror          exit nonzero on warnings, not just errors
//   --list-builtins   print the packaged stack names and exit
//   --monitored Table[:col1,col2]
//                     declare the monitor spec for NW208: the controller's
//                     OVSDB monitor streams these columns of Table (no
//                     colon = every column); repeatable
//   --on-demand Table:col1[,col2]
//                     columns of Table the controller fetches on demand
//                     instead of monitoring (NW208); repeatable
//
// File mode inputs:
//   --schema  an OVSDB schema in the JSON wire format ("tables": {...})
//   --p4      a pipeline in the textual P4 dialect (p4/text.h)
//   --dlog    control-plane rules; with both --schema and --p4 the generated
//             relation declarations are prepended (pass --decls-included if
//             the file already declares them; they are then shape-checked,
//             NW204)
//
// Exit codes: 0 clean (or warnings without --werror), 1 findings, 2 usage /
// input errors.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/analyze.h"
#include "common/strings.h"
#include "ovsdb/schema.h"
#include "p4/text.h"
#include "stacks.h"

using namespace nerpa;

namespace {

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --builtin <name> [--json] [--werror]\n"
      "       %s --dlog <rules> [--schema <ovsschema>] [--p4 <p4>]\n"
      "          [--decls-included] [--json] [--werror]\n"
      "          [--monitored Table[:cols]]... [--on-demand Table:cols]...\n"
      "       %s --list-builtins\n",
      argv0, argv0, argv0);
  return 2;
}

std::optional<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

struct Args {
  std::string builtin;
  std::string schema_path;
  std::string p4_path;
  std::string dlog_path;
  bool decls_included = false;
  bool json = false;
  bool werror = false;
  bool list_builtins = false;
  std::map<std::string, std::vector<std::string>> monitored;
  std::map<std::string, std::vector<std::string>> on_demand;
};

/// "Table" or "Table:col1,col2" → an entry in a monitor-spec map.  A bare
/// table name covers every column.
bool ParseMonitorSpec(const char* text,
                      std::map<std::string, std::vector<std::string>>& spec) {
  std::string_view view = text;
  std::string table(view.substr(0, view.find(':')));
  if (table.empty()) return false;
  std::vector<std::string>& columns = spec[table];
  if (view.find(':') == std::string_view::npos) {
    columns.clear();  // bare name = all columns, even if listed before
    return true;
  }
  for (std::string_view column : Split(view.substr(table.size() + 1), ',')) {
    if (column.empty()) return false;
    columns.emplace_back(column);
  }
  return true;
}

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--builtin") {
      const char* v = value();
      if (v == nullptr) return false;
      args.builtin = v;
    } else if (arg == "--schema") {
      const char* v = value();
      if (v == nullptr) return false;
      args.schema_path = v;
    } else if (arg == "--p4") {
      const char* v = value();
      if (v == nullptr) return false;
      args.p4_path = v;
    } else if (arg == "--dlog") {
      const char* v = value();
      if (v == nullptr) return false;
      args.dlog_path = v;
    } else if (arg == "--monitored") {
      const char* v = value();
      if (v == nullptr || !ParseMonitorSpec(v, args.monitored)) {
        std::fprintf(stderr, "--monitored wants Table[:col1,col2]\n");
        return false;
      }
    } else if (arg == "--on-demand") {
      const char* v = value();
      if (v == nullptr || !ParseMonitorSpec(v, args.on_demand)) {
        std::fprintf(stderr, "--on-demand wants Table:col1[,col2]\n");
        return false;
      }
    } else if (arg == "--decls-included") {
      args.decls_included = true;
    } else if (arg == "--json") {
      args.json = true;
    } else if (arg == "--werror") {
      args.werror = true;
    } else if (arg == "--list-builtins") {
      args.list_builtins = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", std::string(arg).c_str());
      return false;
    }
  }
  return true;
}

int Report(const analyze::Analysis& analysis, const Args& args,
           const std::string& p4_source, const std::string& dlog_name,
           const std::string& p4_name) {
  if (args.json) {
    std::printf("%s\n", analysis.ToJson().Dump(2).c_str());
  } else {
    for (const analyze::Diagnostic& diagnostic : analysis.diagnostics) {
      std::printf("%s", analyze::RenderDiagnostic(
                            diagnostic, analysis.dlog_source, p4_source,
                            dlog_name, p4_name)
                            .c_str());
    }
    std::printf("%d error(s), %d warning(s)\n", analysis.errors(),
                analysis.warnings());
  }
  if (analysis.errors() > 0) return 1;
  if (args.werror && analysis.warnings() > 0) return 1;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) return Usage(argv[0]);
  if (args.list_builtins) {
    for (const std::string& name : examples::StackNames()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (args.builtin.empty() == args.dlog_path.empty()) {
    // exactly one of the two modes
    return Usage(argv[0]);
  }

  analyze::StackInput input;
  analyze::AnalyzeOptions options;
  ovsdb::DatabaseSchema schema;
  std::shared_ptr<const p4::P4Program> p4;
  std::string p4_source;
  std::string dlog_name = "<rules>";
  std::string p4_name = "<p4>";

  if (!args.builtin.empty()) {
    auto stack = examples::GetStack(args.builtin);
    if (!stack.ok()) {
      std::fprintf(stderr, "%s\n", stack.status().ToString().c_str());
      return 2;
    }
    if (stack->schema.has_value()) {
      schema = *stack->schema;
      input.schema = &schema;
    }
    p4 = stack->p4;
    if (p4 != nullptr) input.p4 = p4.get();
    p4_source = stack->p4_source;
    input.rules = stack->rules;
    input.binding_options = stack->options;
    options.rules_include_decls = input.schema == nullptr && p4 == nullptr;
    dlog_name = args.builtin + ".dl";
    p4_name = args.builtin + ".p4";
  } else {
    auto rules = ReadFile(args.dlog_path);
    if (!rules.has_value()) {
      std::fprintf(stderr, "cannot read %s\n", args.dlog_path.c_str());
      return 2;
    }
    input.rules = *rules;
    dlog_name = args.dlog_path;
    if (!args.schema_path.empty()) {
      auto text = ReadFile(args.schema_path);
      if (!text.has_value()) {
        std::fprintf(stderr, "cannot read %s\n", args.schema_path.c_str());
        return 2;
      }
      auto parsed = ovsdb::DatabaseSchema::FromJsonText(*text);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s: %s\n", args.schema_path.c_str(),
                     parsed.status().ToString().c_str());
        return 2;
      }
      schema = std::move(parsed).value();
      input.schema = &schema;
    }
    if (!args.p4_path.empty()) {
      auto text = ReadFile(args.p4_path);
      if (!text.has_value()) {
        std::fprintf(stderr, "cannot read %s\n", args.p4_path.c_str());
        return 2;
      }
      p4_source = *text;
      p4_name = args.p4_path;
      auto parsed = p4::ParseP4Text(p4_source);
      if (!parsed.ok()) {
        std::fprintf(stderr, "%s: %s\n", args.p4_path.c_str(),
                     parsed.status().ToString().c_str());
        return 2;
      }
      p4 = std::move(parsed).value();
      input.p4 = p4.get();
    }
    // Without both planes there are no generated declarations to prepend;
    // the rules must stand alone.
    options.rules_include_decls =
        args.decls_included || input.schema == nullptr || input.p4 == nullptr;
  }

  options.monitored_columns = args.monitored;
  options.on_demand_columns = args.on_demand;

  auto analysis = analyze::AnalyzeStack(input, options);
  if (!analysis.ok()) {
    std::fprintf(stderr, "%s\n", analysis.status().ToString().c_str());
    return 2;
  }
  return Report(*analysis, args, p4_source, dlog_name, p4_name);
}
