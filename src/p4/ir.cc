#include "p4/ir.h"

#include "common/strings.h"

namespace nerpa::p4 {

namespace {

constexpr int kFirstMetadataSlot = kMcastGrpSlot + 1;

/// Index of the element called `name`, or -1.
template <typename T>
int IndexOf(const std::vector<T>& items, std::string_view name) {
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

template <typename T>
const T* Find(const std::vector<T>& items, std::string_view name) {
  int index = IndexOf(items, name);
  return index < 0 ? nullptr : &items[index];
}

}  // namespace

const char* MatchKindName(MatchKind kind) {
  switch (kind) {
    case MatchKind::kExact: return "exact";
    case MatchKind::kLpm: return "lpm";
    case MatchKind::kTernary: return "ternary";
    case MatchKind::kRange: return "range";
    case MatchKind::kOptional: return "optional";
  }
  return "?";
}

int HeaderType::FindField(std::string_view field) const {
  return IndexOf(fields, field);
}

int HeaderType::TotalBits() const {
  int total = 0;
  for (const P4Field& field : fields) total += field.width;
  return total;
}

ActionOp ActionOp::SetField(FieldRef dest, uint64_t value) {
  ActionOp op;
  op.kind = Kind::kSetFieldConst;
  op.dest = std::move(dest);
  op.immediate = value;
  return op;
}

ActionOp ActionOp::SetFieldFromParam(FieldRef dest, std::string param) {
  ActionOp op;
  op.kind = Kind::kSetFieldParam;
  op.dest = std::move(dest);
  op.param = std::move(param);
  return op;
}

ActionOp ActionOp::CopyField(FieldRef dest, FieldRef src) {
  ActionOp op;
  op.kind = Kind::kCopyField;
  op.dest = std::move(dest);
  op.src = std::move(src);
  return op;
}

ActionOp ActionOp::OutputPort(std::string param) {
  ActionOp op;
  op.kind = Kind::kOutput;
  op.param = std::move(param);
  return op;
}

ActionOp ActionOp::OutputConst(uint64_t port) {
  ActionOp op;
  op.kind = Kind::kOutput;
  op.immediate = port;
  return op;
}

ActionOp ActionOp::MulticastGroup(std::string param) {
  ActionOp op;
  op.kind = Kind::kMulticast;
  op.param = std::move(param);
  return op;
}

ActionOp ActionOp::MulticastConst(uint64_t group) {
  ActionOp op;
  op.kind = Kind::kMulticast;
  op.immediate = group;
  return op;
}

ActionOp ActionOp::Drop() {
  ActionOp op;
  op.kind = Kind::kDrop;
  return op;
}

ActionOp ActionOp::Digest(std::string name) {
  ActionOp op;
  op.kind = Kind::kDigest;
  op.digest_name = std::move(name);
  return op;
}

ActionOp ActionOp::ClonePort(std::string param) {
  ActionOp op;
  op.kind = Kind::kClone;
  op.param = std::move(param);
  return op;
}

ActionOp ActionOp::PushVlan(std::string vid_param) {
  ActionOp op;
  op.kind = Kind::kPushVlan;
  op.param = std::move(vid_param);
  return op;
}

ActionOp ActionOp::PopVlan() {
  ActionOp op;
  op.kind = Kind::kPopVlan;
  return op;
}

int Action::FindParam(std::string_view param) const {
  return IndexOf(params, param);
}

ControlNode ControlNode::Apply(std::string table) {
  ControlNode node;
  node.kind = Kind::kApply;
  node.table = std::move(table);
  return node;
}

ControlNode ControlNode::IfFieldEq(FieldRef field, uint64_t value,
                                   std::vector<ControlNode> then_branch,
                                   std::vector<ControlNode> else_branch) {
  ControlNode node;
  node.kind = Kind::kConditional;
  node.pred = Pred::kFieldEq;
  node.cond_field = std::move(field);
  node.cond_value = value;
  node.then_branch = std::move(then_branch);
  node.else_branch = std::move(else_branch);
  return node;
}

ControlNode ControlNode::IfHeaderValid(std::string header,
                                       std::vector<ControlNode> then_branch,
                                       std::vector<ControlNode> else_branch) {
  ControlNode node;
  node.kind = Kind::kConditional;
  node.pred = Pred::kHeaderValid;
  node.cond_header = std::move(header);
  node.then_branch = std::move(then_branch);
  node.else_branch = std::move(else_branch);
  return node;
}

const HeaderType* P4Program::FindHeader(std::string_view name) const {
  return Find(headers, name);
}

const Table* P4Program::FindTable(std::string_view name) const {
  return Find(tables, name);
}

const Action* P4Program::FindAction(std::string_view name) const {
  return Find(actions, name);
}

const Digest* P4Program::FindDigest(std::string_view name) const {
  return Find(digests, name);
}

const ParserState* P4Program::FindParserState(std::string_view name) const {
  return Find(parser, name);
}

Result<FieldSlot> P4Program::Resolve(const FieldRef& ref) const {
  size_t dot = ref.text.find('.');
  if (dot == std::string::npos) {
    return InvalidArgument("malformed field reference '" + ref.text + "'");
  }
  std::string_view space = std::string_view(ref.text).substr(0, dot);
  std::string_view field = std::string_view(ref.text).substr(dot + 1);
  if (space == "standard") {
    static constexpr std::string_view kStandard[] = {
        "ingress_port", "egress_port", "mcast_grp"};  // by slot
    for (int slot = 0; slot < kFirstMetadataSlot; ++slot) {
      if (field == kStandard[slot]) {
        return FieldSlot{slot, -1, kStandardFieldWidth};
      }
    }
  } else if (space == "meta") {
    int index = IndexOf(metadata, field);
    if (index >= 0) {
      return FieldSlot{kFirstMetadataSlot + index, -1, metadata[index].width};
    }
  } else if (int header = IndexOf(headers, space); header >= 0) {
    const HeaderType& type = headers[header];
    int index = type.FindField(field);
    if (index >= 0) {
      return FieldSlot{type.offset + index, header, type.fields[index].width};
    }
  }
  return NotFound("unknown field '" + ref.text + "'");
}

namespace {

/// Index of the element called `name`, or a NotFound naming `what`.
template <typename T>
Result<int> Require(const std::vector<T>& items, std::string_view name,
                   const char* what) {
  int index = IndexOf(items, name);
  if (index < 0) {
    return NotFound(StrFormat("unknown %s '%.*s'", what,
                              static_cast<int>(name.size()), name.data()));
  }
  return index;
}

Status ResolveControl(const P4Program& program,
                      std::vector<ControlNode>& nodes) {
  for (ControlNode& node : nodes) {
    if (node.kind == ControlNode::Kind::kApply) {
      NERPA_ASSIGN_OR_RETURN(node.table_index,
                             Require(program.tables, node.table, "table"));
      continue;
    }
    if (node.pred == ControlNode::Pred::kFieldEq ||
        node.pred == ControlNode::Pred::kFieldNe) {
      NERPA_ASSIGN_OR_RETURN(node.cond_field.slot,
                             program.Resolve(node.cond_field));
    } else {
      NERPA_ASSIGN_OR_RETURN(
          node.header_index,
          Require(program.headers, node.cond_header, "header"));
    }
    NERPA_RETURN_IF_ERROR(ResolveControl(program, node.then_branch));
    NERPA_RETURN_IF_ERROR(ResolveControl(program, node.else_branch));
  }
  return Status::Ok();
}

}  // namespace

Status P4Program::Validate() {
  slot_count = kFirstMetadataSlot + static_cast<int>(metadata.size());
  for (HeaderType& header : headers) {
    header.offset = slot_count;
    slot_count += static_cast<int>(header.fields.size());
    for (const P4Field& field : header.fields) {
      if (field.width < 1 || field.width > 64) {
        return ConstraintError(StrFormat("field %s.%s width %d out of range",
                                         header.name.c_str(),
                                         field.name.c_str(), field.width));
      }
    }
  }
  if (parser.empty()) return ConstraintError("parser has no states");
  for (ParserState& state : parser) {
    if (!state.extracts.empty()) {
      NERPA_ASSIGN_OR_RETURN(state.header,
                             Require(headers, state.extracts, "header"));
    }
    if (!state.select.text.empty()) {
      NERPA_ASSIGN_OR_RETURN(state.select.slot, Resolve(state.select));
    }
    for (ParserState::Transition& t : state.transitions) {
      if (t.next == "accept" || t.next == "reject") {
        t.target = t.next == "accept" ? ParserState::kAccept
                                      : ParserState::kReject;
      } else {
        NERPA_ASSIGN_OR_RETURN(t.target,
                               Require(parser, t.next, "parser state"));
      }
    }
  }
  for (Action& action : actions) {
    for (ActionOp& op : action.ops) {
      if (!op.param.empty()) {
        NERPA_ASSIGN_OR_RETURN(op.param_index,
                               Require(action.params, op.param, "parameter"));
      }
      using Kind = ActionOp::Kind;
      if (op.kind == Kind::kCopyField) {
        NERPA_ASSIGN_OR_RETURN(op.src.slot, Resolve(op.src));
      }
      if (op.kind == Kind::kSetFieldConst || op.kind == Kind::kSetFieldParam ||
          op.kind == Kind::kCopyField) {
        NERPA_ASSIGN_OR_RETURN(op.dest.slot, Resolve(op.dest));
        if (op.dest.slot.index == kIngressPortSlot) {
          return ConstraintError(
              StrFormat("action %s writes read-only field '%s'",
                        action.name.c_str(), op.dest.text.c_str()));
        }
      } else if (op.kind == Kind::kDigest) {
        NERPA_ASSIGN_OR_RETURN(op.digest,
                               Require(digests, op.digest_name, "digest"));
      } else if (op.kind == Kind::kPushVlan || op.kind == Kind::kPopVlan) {
        NERPA_ASSIGN_OR_RETURN(ethernet_type, Resolve("ethernet.etherType"));
        NERPA_ASSIGN_OR_RETURN(vlan_type, Resolve("vlan.etherType"));
        NERPA_ASSIGN_OR_RETURN(vlan_vid, Resolve("vlan.vid"));
      }
    }
  }
  for (Digest& digest : digests) {
    digest.slots.clear();
    for (const P4Field& field : digest.fields) {
      NERPA_ASSIGN_OR_RETURN(FieldSlot slot, Resolve(field.name));
      digest.slots.push_back(slot);
    }
  }
  for (Table& table : tables) {
    for (TableKey& key : table.keys) {
      NERPA_ASSIGN_OR_RETURN(key.field.slot, Resolve(key.field));
      key.width = key.field.slot.width;
    }
    table.action_indices.clear();
    for (const std::string& action : table.actions) {
      const Action* found = FindAction(action);
      if (found == nullptr) {
        return NotFound(StrFormat("table %s permits unknown action '%s'",
                                  table.name.c_str(), action.c_str()));
      }
      table.action_indices.push_back(static_cast<int>(found - actions.data()));
    }
    if (!table.default_action.empty()) {
      NERPA_ASSIGN_OR_RETURN(
          table.default_index,
          Require(actions, table.default_action, "default action"));
      const Action* action = &actions[table.default_index];
      if (table.default_action_args.size() != action->params.size()) {
        return ConstraintError(StrFormat(
            "default action %s of table %s needs %zu arguments, got %zu",
            action->name.c_str(), table.name.c_str(), action->params.size(),
            table.default_action_args.size()));
      }
    }
  }
  deparser_headers.clear();
  for (const std::string& header : deparser) {
    NERPA_ASSIGN_OR_RETURN(int index, Require(headers, header, "header"));
    deparser_headers.push_back(index);
  }
  NERPA_RETURN_IF_ERROR(ResolveControl(*this, ingress));
  NERPA_RETURN_IF_ERROR(ResolveControl(*this, egress));
  return Status::Ok();
}

std::string P4Program::ToString() const {
  std::string out = "// P4 program: " + name + "\n";
  for (const HeaderType& header : headers) {
    out += "header " + header.name + " {\n";
    for (const P4Field& field : header.fields) {
      out += StrFormat("  bit<%d> %s;\n", field.width, field.name.c_str());
    }
    out += "}\n";
  }
  if (!metadata.empty()) {
    out += "struct metadata {\n";
    for (const P4Field& field : metadata) {
      out += StrFormat("  bit<%d> %s;\n", field.width, field.name.c_str());
    }
    out += "}\n";
  }
  for (const Digest& digest : digests) {
    out += "digest " + digest.name + " {";
    for (size_t i = 0; i < digest.fields.size(); ++i) {
      if (i > 0) out += ", ";
      out += StrFormat("bit<%d> %s", digest.fields[i].width,
                       digest.fields[i].name.c_str());
    }
    out += "}\n";
  }
  for (const Table& table : tables) {
    out += "table " + table.name + " {\n  key = {";
    for (size_t i = 0; i < table.keys.size(); ++i) {
      if (i > 0) out += "; ";
      out += table.keys[i].field.text + ": " +
             MatchKindName(table.keys[i].kind);
    }
    out += "}\n  actions = {";
    for (size_t i = 0; i < table.actions.size(); ++i) {
      if (i > 0) out += ", ";
      out += table.actions[i];
    }
    out += "}\n";
    if (!table.default_action.empty()) {
      out += "  default_action = " + table.default_action + ";\n";
    }
    out += "}\n";
  }
  return out;
}

}  // namespace nerpa::p4
