// Full-stack static analysis (the `nerpa_check` backend).
//
// Takes the same ingredients a deployment wires together — an OVSDB schema,
// a P4 pipeline, the hand-written control-plane rules, and the binding
// options — and checks the *whole stack* statically:
//
//   * dlog lints (NW1xx): unbound head variables, unused relations and
//     rules, duplicate rules, stratification violations, singleton
//     variables — reported at precise line:column spans.
//   * cross-plane consistency (NW2xx): declaration shapes vs. the generated
//     bindings, value-range proofs for casts and arithmetic flowing into
//     bit<w> table columns (seeded from OVSDB column constraints), LPM
//     prefix-length bounds, ternary/range priority ranges, permitted-action
//     coverage, outputs bound to no table, digests never read.
//   * P4 IR reachability (NW3xx): tables never applied, actions no table
//     permits, parser states unreachable from start.
//
// The paper's pitch is that the three planes type-check together; this
// module is the next step — they *lint* together, before anything runs.
#ifndef NERPA_ANALYZE_ANALYZE_H_
#define NERPA_ANALYZE_ANALYZE_H_

#include <map>
#include <string>
#include <vector>

#include "analyze/diag.h"
#include "common/status.h"
#include "nerpa/bindings.h"
#include "ovsdb/schema.h"
#include "p4/ir.h"

namespace nerpa::analyze {

struct AnalyzeOptions {
  /// `rules` is a complete program (relation declarations included), e.g. a
  /// file a user maintains; the generated declarations are checked against
  /// it (NW204) instead of being prepended.
  bool rules_include_decls = false;
  /// Monitor coverage audit (NW208).  Describes the deployment's monitor
  /// configuration: `monitored_columns[table]` lists the columns the
  /// controller's OVSDB monitor streams (an empty vector means every
  /// column), and `on_demand_columns[table]` the columns it fetches lazily.
  /// When either map is non-empty, every column a dlog input relation pulls
  /// from its OVSDB table must be covered by one of the two, or NW208
  /// fires — data the controller would silently never see.  With both maps
  /// empty the audit is off (the default monitor subscribes to everything).
  std::map<std::string, std::vector<std::string>> monitored_columns;
  std::map<std::string, std::vector<std::string>> on_demand_columns;
};

struct StackInput {
  const ovsdb::DatabaseSchema* schema = nullptr;  // optional
  const p4::P4Program* p4 = nullptr;              // optional (validated)
  std::string rules;                              // control-plane source
  BindingOptions binding_options;
};

struct Analysis {
  std::vector<Diagnostic> diagnostics;
  /// The control-plane source the spans refer to (generated declarations
  /// prepended unless rules_include_decls).
  std::string dlog_source;

  int errors() const;
  int warnings() const;
  bool clean() const { return diagnostics.empty(); }

  /// {"errors": N, "warnings": N, "diagnostics": [...]}.
  Json ToJson() const;
};

/// Analyzes a full stack.  Returns a Status error only on misuse (e.g. a
/// schema without a P4 program when bindings are required); everything the
/// analysis *finds* — including parse and compile failures in the inputs —
/// comes back as diagnostics.
Result<Analysis> AnalyzeStack(const StackInput& input,
                              const AnalyzeOptions& options = {});

/// Control-plane-only analysis of a complete dlog program (declarations
/// included).  Runs the NW0xx/NW1xx checks; also the fuzzing entry point.
Analysis AnalyzeDlog(std::string_view source,
                     const AnalyzeOptions& options = {});

}  // namespace nerpa::analyze

#endif  // NERPA_ANALYZE_ANALYZE_H_
