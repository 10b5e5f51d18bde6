#include "ofp/p4c_of.h"

#include <algorithm>

#include "common/strings.h"

namespace nerpa::ofp {

namespace {

/// Walks a control block, assigning consecutive table ids and accumulating
/// guard matches.
Status WalkControl(const p4::P4Program& program,
                   const std::vector<p4::ControlNode>& nodes,
                   std::vector<OfMatch>& guards, int& next_id,
                   OfLayout& layout) {
  for (const p4::ControlNode& node : nodes) {
    if (node.kind == p4::ControlNode::Kind::kApply) {
      if (layout.table_ids.count(node.table) != 0) {
        return FailedPrecondition("table '" + node.table +
                                  "' applied more than once");
      }
      layout.table_ids[node.table] = next_id++;
      layout.table_guards[node.table] = guards;
      continue;
    }
    OfMatch guard;
    switch (node.pred) {
      case p4::ControlNode::Pred::kFieldEq:
        guard.field = node.cond_field.text;
        guard.value = node.cond_value;
        break;
      case p4::ControlNode::Pred::kHeaderValid:
        guard.field = node.cond_header + "._valid";
        guard.value = 1;
        guard.mask = 1;
        break;
      case p4::ControlNode::Pred::kHeaderInvalid:
        guard.field = node.cond_header + "._valid";
        guard.value = 0;
        guard.mask = 1;
        break;
      case p4::ControlNode::Pred::kFieldNe:
        return FailedPrecondition(
            "p4c-of cannot lower '!=' control conditions");
    }
    // The two branches are mutually exclusive in P4, but OpenFlow tables
    // chain unconditionally and a then-branch action may rewrite the very
    // field the guard tests (e.g. pop_vlan invalidating a vlan-validity
    // guard).  Lowering both branches onto the SAME table ids gives one
    // lookup per position with the guards selecting the branch — the
    // packet can never fall into the other branch afterwards.
    int branch_start = next_id;
    int then_end = branch_start;
    int else_end = branch_start;
    guards.push_back(guard);
    NERPA_RETURN_IF_ERROR(
        WalkControl(program, node.then_branch, guards, then_end, layout));
    guards.pop_back();
    if (!node.else_branch.empty()) {
      // Else guards: invert a validity guard; equality cannot be inverted.
      if (node.pred == p4::ControlNode::Pred::kHeaderValid ||
          node.pred == p4::ControlNode::Pred::kHeaderInvalid) {
        OfMatch inverse = guard;
        inverse.value ^= 1;
        guards.push_back(inverse);
        int branch_next = branch_start;
        NERPA_RETURN_IF_ERROR(
            WalkControl(program, node.else_branch, guards, branch_next,
                        layout));
        else_end = branch_next;
        guards.pop_back();
      } else {
        return FailedPrecondition(
            "p4c-of cannot lower else-branches of equality conditions");
      }
    }
    next_id = std::max(then_end, else_end);
  }
  return Status::Ok();
}

Result<std::vector<OfAction>> LowerActionOps(
    const p4::P4Program& /*program*/, const p4::Action& action,
    const std::vector<uint64_t>& args, std::vector<std::string>* warnings) {
  std::vector<OfAction> out;
  auto arg_value = [&](const p4::ActionOp& op) -> uint64_t {
    if (op.param.empty()) return op.immediate;
    int index = action.FindParam(op.param);
    return index >= 0 && static_cast<size_t>(index) < args.size()
               ? args[static_cast<size_t>(index)]
               : 0;
  };
  for (const p4::ActionOp& op : action.ops) {
    OfAction lowered;
    switch (op.kind) {
      case p4::ActionOp::Kind::kNoOp:
        continue;
      case p4::ActionOp::Kind::kSetFieldConst:
      case p4::ActionOp::Kind::kSetFieldParam:
        lowered.kind = OfAction::Kind::kSetField;
        lowered.field = op.dest.text;
        lowered.value = arg_value(op);
        break;
      case p4::ActionOp::Kind::kCopyField:
        return FailedPrecondition(
            "p4c-of cannot lower field-to-field copies");
      case p4::ActionOp::Kind::kOutput:
        lowered.kind = OfAction::Kind::kOutput;
        lowered.value = arg_value(op);
        break;
      case p4::ActionOp::Kind::kMulticast:
        lowered.kind = OfAction::Kind::kGroup;
        lowered.value = arg_value(op);
        break;
      case p4::ActionOp::Kind::kDrop:
        lowered.kind = OfAction::Kind::kDrop;
        break;
      case p4::ActionOp::Kind::kClone:
        lowered.kind = OfAction::Kind::kClone;
        lowered.value = arg_value(op);
        break;
      case p4::ActionOp::Kind::kDigest:
        if (warnings != nullptr) {
          warnings->push_back("digest '" + op.digest_name +
                              "' lowered to no-op (no OpenFlow equivalent)");
        }
        continue;
      case p4::ActionOp::Kind::kPushVlan:
        lowered.kind = OfAction::Kind::kPushVlan;
        lowered.value = arg_value(op);
        break;
      case p4::ActionOp::Kind::kPopVlan:
        lowered.kind = OfAction::Kind::kPopVlan;
        break;
    }
    out.push_back(std::move(lowered));
  }
  return out;
}

}  // namespace

Result<OfLayout> PlanLayout(const p4::P4Program& program) {
  OfLayout layout;
  int next_id = 0;
  std::vector<OfMatch> guards;
  NERPA_RETURN_IF_ERROR(
      WalkControl(program, program.ingress, guards, next_id, layout));
  layout.egress_boundary = next_id;
  guards.clear();
  NERPA_RETURN_IF_ERROR(
      WalkControl(program, program.egress, guards, next_id, layout));
  return layout;
}

Result<Flow> LowerEntry(const p4::P4Program& program, const OfLayout& layout,
                        const p4::TableEntry& entry,
                        std::vector<std::string>* warnings) {
  const p4::Table* table = program.FindTable(entry.table);
  if (table == nullptr) return NotFound("no table '" + entry.table + "'");
  auto id = layout.table_ids.find(entry.table);
  if (id == layout.table_ids.end()) {
    return NotFound("table '" + entry.table + "' is not applied anywhere");
  }
  Flow flow;
  flow.table_id = id->second;
  flow.cookie = "p4:" + entry.table;
  flow.match = layout.table_guards.at(entry.table);
  int prefix_sum = 0;
  for (size_t i = 0; i < table->keys.size(); ++i) {
    const p4::TableKey& key = table->keys[i];
    const p4::MatchField& m = entry.match[i];
    OfMatch lowered;
    lowered.field = key.field.text;
    switch (key.kind) {
      case p4::MatchKind::kExact:
        lowered.value = m.value;
        lowered.mask = p4::WidthMask(key.width);
        break;
      case p4::MatchKind::kLpm: {
        if (m.prefix_len == 0) continue;  // matches everything
        uint64_t mask = p4::WidthMask(key.width) ^
                        p4::WidthMask(key.width - m.prefix_len);
        lowered.value = m.value & mask;
        lowered.mask = mask;
        prefix_sum += m.prefix_len;
        break;
      }
      case p4::MatchKind::kTernary:
        if (m.mask == 0) continue;
        lowered.value = m.value;
        lowered.mask = m.mask;
        break;
      case p4::MatchKind::kOptional:
        if (m.wildcard) continue;
        lowered.value = m.value;
        lowered.mask = p4::WidthMask(key.width);
        break;
      case p4::MatchKind::kRange:
        return FailedPrecondition(
            "p4c-of cannot lower range matches (no OpenFlow equivalent)");
    }
    flow.match.push_back(std::move(lowered));
  }
  // LPM prefers longer prefixes; entries keep their relative priority above.
  flow.priority = 16 + entry.priority * 256 + prefix_sum;
  const p4::Action* action = program.FindAction(entry.action);
  if (action == nullptr) return NotFound("no action '" + entry.action + "'");
  NERPA_ASSIGN_OR_RETURN(
      flow.actions,
      LowerActionOps(program, *action, entry.action_args, warnings));
  return flow;
}

Result<FlowSwitch> CompileP4ToOf(const p4::Switch& sw, OfLayout* layout_out,
                                 std::vector<std::string>* warnings) {
  const p4::P4Program& program = sw.program();
  NERPA_ASSIGN_OR_RETURN(OfLayout layout, PlanLayout(program));
  FlowSwitch flows;
  flows.SetEgressBoundary(layout.egress_boundary);
  for (const p4::Table& table : program.tables) {
    auto id = layout.table_ids.find(table.name);
    if (id == layout.table_ids.end()) continue;  // never applied
    const p4::TableState* state = sw.GetTable(table.name);
    for (const p4::TableEntry* entry : state->Entries()) {
      NERPA_ASSIGN_OR_RETURN(Flow flow,
                             LowerEntry(program, layout, *entry, warnings));
      flows.AddFlow(std::move(flow));
    }
    // Default action => priority-0 catch-all flow under the same guards.
    if (!table.default_action.empty()) {
      const p4::Action* action = program.FindAction(table.default_action);
      Flow flow;
      flow.table_id = id->second;
      flow.priority = 0;
      flow.cookie = "p4:" + table.name + ":default";
      flow.match = layout.table_guards.at(table.name);
      NERPA_ASSIGN_OR_RETURN(
          flow.actions,
          LowerActionOps(program, *action, table.default_action_args,
                         warnings));
      flows.AddFlow(std::move(flow));
    }
  }
  // Multicast groups copy over unchanged.
  for (uint32_t group = 1; group < 1u << 12; ++group) {
    const std::vector<uint64_t>* ports = sw.GetMulticastGroup(group);
    if (ports != nullptr) flows.SetGroup(group, *ports);
  }
  if (layout_out != nullptr) *layout_out = layout;
  return flows;
}

Result<FieldMap> PacketToFields(const p4::P4Program& program,
                                const net::Packet& packet) {
  FieldMap fields;
  net::PacketReader reader(packet);
  const p4::ParserState* state = &program.parser[0];
  for (int hops = 0; hops < 64; ++hops) {
    if (!state->extracts.empty()) {
      const p4::HeaderType* header = program.FindHeader(state->extracts);
      fields[header->name + "._valid"] = 1;
      for (const p4::P4Field& field : header->fields) {
        auto value = reader.ReadBits(field.width);
        if (!value) return InvalidArgument("packet too short");
        fields[header->name + "." + field.name] = *value;
      }
    }
    const std::string* next = nullptr;
    if (state->select.text.empty()) {
      if (!state->transitions.empty()) next = &state->transitions[0].next;
    } else {
      uint64_t selector = 0;
      auto it = fields.find(state->select.text);
      if (it != fields.end()) selector = it->second;
      const std::string* fallback = nullptr;
      for (const p4::ParserState::Transition& t : state->transitions) {
        if (!t.match) {
          fallback = &t.next;
        } else if (*t.match == selector) {
          next = &t.next;
          break;
        }
      }
      if (next == nullptr) next = fallback;
    }
    if (next == nullptr || *next == "accept") {
      // Record the payload length so FieldsToPacket can zero-fill; the OF
      // layer is header-only, payload bytes are carried out of band.
      fields["_payload_bytes"] = packet.size() - reader.offset();
      return fields;
    }
    if (*next == "reject") return InvalidArgument("parser rejected packet");
    state = program.FindParserState(*next);
  }
  return Internal("parse loop");
}

net::Packet FieldsToPacket(const p4::P4Program& program,
                           const FieldMap& fields) {
  net::PacketWriter writer;
  for (const std::string& header_name : program.deparser) {
    auto valid = fields.find(header_name + "._valid");
    if (valid == fields.end() || valid->second == 0) continue;
    const p4::HeaderType* header = program.FindHeader(header_name);
    for (const p4::P4Field& field : header->fields) {
      auto it = fields.find(header_name + "." + field.name);
      writer.WriteBits(it == fields.end() ? 0 : it->second, field.width);
    }
  }
  return writer.Finish();
}

}  // namespace nerpa::ofp
