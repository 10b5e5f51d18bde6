// The example stacks as data: every demo in this directory (and the snvs
// reference program) boils down to the same four ingredients — an OVSDB
// schema, a P4 pipeline, hand-written control-plane rules, and binding
// options.  This library packages each example's ingredients so tools can
// consume them too: `nerpa_check --builtin <name>` analyzes exactly the
// stack the corresponding example runs, and the golden tests lint every
// stack we ship.
#ifndef NERPA_EXAMPLES_STACKS_H_
#define NERPA_EXAMPLES_STACKS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "nerpa/bindings.h"
#include "ovsdb/schema.h"
#include "p4/ir.h"

namespace nerpa::examples {

struct StackDef {
  std::string name;
  /// Management plane; nullopt for pure control-plane programs.
  std::optional<ovsdb::DatabaseSchema> schema;
  /// Data plane (validated); null for pure control-plane programs.
  std::shared_ptr<const p4::P4Program> p4;
  /// Textual P4 source when the pipeline was parsed from text ("" when the
  /// pipeline is built directly as IR — diagnostics then carry no P4 spans).
  std::string p4_source;
  /// Hand-written rules (generated declarations NOT included).
  std::string rules;
  BindingOptions options;
};

/// The packaged stacks: "snvs", "ip_fabric", "multi_device", "reachability".
Result<StackDef> GetStack(std::string_view name);

/// All packaged stack names, in a stable order.
std::vector<std::string> StackNames();

/// The stack's whole control-plane program: the relation declarations its
/// bindings generate (when it has both a schema and a pipeline), then its
/// rules.
Result<std::string> StackProgram(const StackDef& def);

// Ingredients of the ip_fabric and multi_device examples, shared with their
// demo binaries so example and analysis never drift apart.
ovsdb::DatabaseSchema FabricSchema();
std::string FabricP4Source();
std::string FabricRules();
ovsdb::DatabaseSchema MultiDeviceSchema();
std::shared_ptr<const p4::P4Program> MultiDevicePipeline();
std::string MultiDeviceRules();
std::string ReachabilityRules();

}  // namespace nerpa::examples

#endif  // NERPA_EXAMPLES_STACKS_H_
