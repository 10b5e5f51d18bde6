#include "stacks.h"

#include <cstdlib>
#include <utility>

#include "common/strings.h"
#include "p4/text.h"
#include "snvs/snvs.h"

namespace nerpa::examples {

// --- ip_fabric (see ip_fabric.cpp for the demo this stack drives) ---

std::string FabricP4Source() {
  return R"p4(
program router;
header ethernet {
  bit<48> dstAddr;
  bit<48> srcAddr;
  bit<16> etherType;
}
header ipv4 {
  bit<8> ttl;
  bit<32> src;
  bit<32> dst;
}
parser {
  state start {
    extract(ethernet);
    select (ethernet.etherType) {
      0x0800: parse_ipv4;
      default: accept;
    }
  }
  state parse_ipv4 {
    extract(ipv4);
    goto accept;
  }
}
action Discard() { drop(); }
action Route(bit<16> port) { output(port); }
table IpRoute {
  key = { ipv4.dst: lpm; }
  actions = { Route; }
  default_action = Discard;
  size = 4096;
}
ingress {
  if (valid(ipv4)) {
    apply(IpRoute);
  }
}
egress { }
deparser {
  emit(ethernet);
  emit(ipv4);
}
)p4";
}

// Hand-written control plane: hop-counted recursive reachability
// (shortest path within a 6-hop diameter) + deterministic tie-breaking.
std::string FabricRules() {
  return R"(
// Cast management-plane integers once, below the recursive stratum
// (recursive rule heads must stay plain variables or var+const for DRed).
relation SubnetB(router: string, prefix: bit<32>, plen: bigint, port: bigint)
SubnetB(r, pfx as bit<32>, plen, p) :- Subnet(_, r, pfx, plen, p).

// A router reaches a subnet directly (0 hops), or through any link to a
// router that reaches it (one more hop; diameter-bounded so route loops
// cannot count to infinity).
relation Reach(router: string, prefix: bit<32>, plen: bigint,
               port: bigint, hops: bigint)
Reach(r, pfx, plen, p, 0) :- SubnetB(r, pfx, plen, p).
Reach(src, pfx, plen, p, h + 1) :-
    Link(_, src, dst, p), Reach(dst, pfx, plen, _, h), h < 6.

// Shortest path wins; among equal-length paths the lowest egress port.
relation BestHops(router: string, prefix: bit<32>, plen: bigint, h: bigint)
BestHops(r, pfx, plen, h) :-
    Reach(r, pfx, plen, _, h0), var h = min(h0) group_by (r, pfx, plen).
relation BestPort(router: string, prefix: bit<32>, plen: bigint, m: bigint)
BestPort(r, pfx, plen, m) :-
    BestHops(r, pfx, plen, h), Reach(r, pfx, plen, p, h),
    var m = min(p) group_by (r, pfx, plen).

IpRoute(r, pfx, plen, "Route", m as bit<16>) :- BestPort(r, pfx, plen, m).
)";
}

ovsdb::DatabaseSchema FabricSchema() {
  using ovsdb::BaseType;
  using ovsdb::ColumnType;
  ovsdb::DatabaseSchema schema;
  schema.name = "fabric";
  ovsdb::TableSchema link;
  link.name = "Link";
  link.columns = {
      {"src", ColumnType::Scalar(BaseType::String()), false, true},
      {"dst", ColumnType::Scalar(BaseType::String()), false, true},
      {"out_port", ColumnType::Scalar(BaseType::Integer(0, 65535)), false,
       true},
  };
  schema.tables.emplace("Link", std::move(link));
  ovsdb::TableSchema subnet;
  subnet.name = "Subnet";
  subnet.columns = {
      {"router", ColumnType::Scalar(BaseType::String()), false, true},
      {"prefix", ColumnType::Scalar(BaseType::Integer(0, 4294967295LL)),
       false, true},
      {"plen", ColumnType::Scalar(BaseType::Integer(0, 32)), false, true},
      {"out_port", ColumnType::Scalar(BaseType::Integer(0, 65535)), false,
       true},
  };
  schema.tables.emplace("Subnet", std::move(subnet));
  return schema;
}

// --- multi_device (see multi_device.cpp) ---

ovsdb::DatabaseSchema MultiDeviceSchema() {
  ovsdb::DatabaseSchema schema;
  schema.name = "fabric";
  ovsdb::TableSchema assignment;
  assignment.name = "Assignment";
  assignment.columns = {
      {"device", ovsdb::ColumnType::Scalar(ovsdb::BaseType::String()), false,
       true},
      {"port",
       ovsdb::ColumnType::Scalar(ovsdb::BaseType::Integer(0, 65535)), false,
       true},
      {"vlan", ovsdb::ColumnType::Scalar(ovsdb::BaseType::Integer(0, 4095)),
       false, true},
  };
  schema.tables.emplace("Assignment", std::move(assignment));
  return schema;
}

std::shared_ptr<const p4::P4Program> MultiDevicePipeline() {
  auto program = std::make_shared<p4::P4Program>();
  program->name = "fabric";
  program->headers = {
      {"ethernet", {{"dstAddr", 48}, {"srcAddr", 48}, {"etherType", 16}}}};
  program->metadata = {{"vlan", 12}};
  p4::ParserState start;
  start.name = "start";
  start.extracts = "ethernet";
  start.transitions = {{std::nullopt, "accept"}};
  program->parser = {start};
  program->actions = {
      {"Assign",
       {{"vid", 12}},
       {p4::ActionOp::SetFieldFromParam("meta.vlan", "vid")}},
      {"Discard", {}, {p4::ActionOp::Drop()}},
  };
  p4::Table table;
  table.name = "VlanMap";
  table.keys = {{"standard.ingress_port", p4::MatchKind::kExact, 0}};
  table.actions = {"Assign"};
  table.default_action = "Discard";
  program->tables = {table};
  program->ingress = {p4::ControlNode::Apply("VlanMap")};
  program->deparser = {"ethernet"};
  Status validated = program->Validate();
  if (!validated.ok()) std::abort();
  return program;
}

std::string MultiDeviceRules() {
  return R"(
VlanMap(d, p as bit<16>, "Assign", v as bit<12>) :- Assignment(_, d, p, v).
)";
}

// --- reachability (see reachability.cpp; §1 of the paper) ---

std::string ReachabilityRules() {
  return R"(
input relation GivenLabel(n1: bigint, label: string)
input relation Edge(n1: bigint, n2: bigint)
output relation Label(n: bigint, label: string)
Label(n1, label) :- GivenLabel(n1, label).
Label(n2, label) :- Label(n1, label), Edge(n1, n2).
)";
}

// --- registry ---

std::vector<std::string> StackNames() {
  return {"snvs", "ip_fabric", "multi_device", "reachability"};
}

Result<StackDef> GetStack(std::string_view name) {
  StackDef def;
  def.name = std::string(name);
  if (name == "snvs") {
    def.schema = snvs::SnvsSchema();
    def.p4 = snvs::SnvsP4Program();
    def.p4_source = snvs::SnvsP4Source();
    def.rules = snvs::SnvsRules();
    return def;
  }
  if (name == "ip_fabric") {
    def.schema = FabricSchema();
    NERPA_ASSIGN_OR_RETURN(def.p4, p4::ParseP4Text(FabricP4Source()));
    def.p4_source = FabricP4Source();
    def.rules = FabricRules();
    def.options.with_device_column = true;
    return def;
  }
  if (name == "multi_device") {
    def.schema = MultiDeviceSchema();
    def.p4 = MultiDevicePipeline();
    def.rules = MultiDeviceRules();
    def.options.with_device_column = true;
    return def;
  }
  if (name == "reachability") {
    def.rules = ReachabilityRules();
    return def;
  }
  return NotFound(StrFormat("no builtin stack named '%.*s'",
                            static_cast<int>(name.size()), name.data()));
}

Result<std::string> StackProgram(const StackDef& def) {
  if (!def.schema || def.p4 == nullptr) return def.rules;
  NERPA_ASSIGN_OR_RETURN(Bindings bindings,
                         GenerateBindings(*def.schema, *def.p4, def.options));
  return bindings.DeclsText() + def.rules;
}

}  // namespace nerpa::examples
