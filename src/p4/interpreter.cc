#include "p4/interpreter.h"

#include "common/log.h"
#include "common/strings.h"

namespace nerpa::p4 {

Switch::Switch(std::shared_ptr<const P4Program> program)
    : program_(std::move(program)) {
  for (const Table& table : program_->tables) {
    tables_.emplace(table.name, TableState(&table));
  }
}

TableState* Switch::GetTable(std::string_view name) {
  auto it = tables_.find(std::string(name));
  return it == tables_.end() ? nullptr : &it->second;
}

const TableState* Switch::GetTable(std::string_view name) const {
  auto it = tables_.find(std::string(name));
  return it == tables_.end() ? nullptr : &it->second;
}

Status Switch::CheckFence(uint64_t token) {
  if (token < fence_epoch_ || (token == 0 && fence_epoch_ != 0)) {
    ++stale_writes_;
    return PermissionDenied(StrFormat(
        "stale fencing token: epoch %llu < switch fence epoch %llu",
        static_cast<unsigned long long>(token),
        static_cast<unsigned long long>(fence_epoch_)));
  }
  if (token > fence_epoch_) fence_epoch_ = token;
  return Status::Ok();
}

void Switch::SetMulticastGroup(uint32_t group, std::vector<uint64_t> ports) {
  if (ports.empty()) {
    multicast_.erase(group);
  } else {
    multicast_[group] = std::move(ports);
  }
}

const std::vector<uint64_t>* Switch::GetMulticastGroup(uint32_t group) const {
  auto it = multicast_.find(group);
  return it == multicast_.end() ? nullptr : &it->second;
}

Result<uint64_t> Switch::ReadField(const Ctx& ctx, const FieldRef& ref) const {
  size_t dot = ref.text.find('.');
  std::string space = ref.text.substr(0, dot);
  std::string field = ref.text.substr(dot + 1);
  if (space == "standard") {
    if (field == "ingress_port") return ctx.ingress_port;
    if (field == "egress_port") return ctx.egress_port;
    if (field == "mcast_grp") return ctx.mcast_grp;
    return NotFound("unknown standard field '" + field + "'");
  }
  if (space == "meta") {
    auto it = ctx.metadata.find(field);
    return it == ctx.metadata.end() ? 0 : it->second;
  }
  auto it = ctx.headers.find(space);
  if (it == ctx.headers.end() || !it->second.valid) {
    // Reading an invalid header yields 0 (BMv2's permissive behaviour).
    return 0;
  }
  const HeaderType* header = program_->FindHeader(space);
  int index = header->FindField(field);
  if (index < 0) return NotFound("no field '" + ref.text + "'");
  return it->second.values[static_cast<size_t>(index)];
}

Status Switch::WriteField(Ctx& ctx, const FieldRef& ref, uint64_t value) {
  size_t dot = ref.text.find('.');
  std::string space = ref.text.substr(0, dot);
  std::string field = ref.text.substr(dot + 1);
  if (space == "standard") {
    if (field == "egress_port") {
      ctx.egress_port = value;
      ctx.unicast_set = true;
      return Status::Ok();
    }
    if (field == "mcast_grp") {
      ctx.mcast_grp = value;
      return Status::Ok();
    }
    return FailedPrecondition("cannot write standard field '" + field + "'");
  }
  if (space == "meta") {
    ctx.metadata[field] = value;
    return Status::Ok();
  }
  auto it = ctx.headers.find(space);
  if (it == ctx.headers.end() || !it->second.valid) {
    return FailedPrecondition("write to invalid header '" + space + "'");
  }
  const HeaderType* header = program_->FindHeader(space);
  int index = header->FindField(field);
  if (index < 0) return NotFound("no field '" + ref.text + "'");
  int width = header->fields[static_cast<size_t>(index)].width;
  it->second.values[static_cast<size_t>(index)] = value & WidthMask(width);
  return Status::Ok();
}

Status Switch::RunParser(Ctx& ctx, const net::Packet& packet) {
  net::PacketReader reader(packet);
  const ParserState* state = &program_->parser[0];
  for (int hops = 0; hops < 64; ++hops) {  // cycle guard
    if (!state->extracts.empty()) {
      const HeaderType* header = program_->FindHeader(state->extracts);
      HeaderInstance instance;
      instance.valid = true;
      for (const P4Field& field : header->fields) {
        auto value = reader.ReadBits(field.width);
        if (!value) {
          return InvalidArgument(StrFormat(
              "packet too short while extracting %s.%s",
              header->name.c_str(), field.name.c_str()));
        }
        instance.values.push_back(*value);
      }
      ctx.headers[header->name] = std::move(instance);
    }
    // Choose the transition.
    const std::string* next = nullptr;
    if (state->select.text.empty()) {
      if (!state->transitions.empty()) next = &state->transitions[0].next;
    } else {
      NERPA_ASSIGN_OR_RETURN(uint64_t selector,
                             ReadField(ctx, state->select));
      const std::string* fallback = nullptr;
      for (const ParserState::Transition& t : state->transitions) {
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
      // Remaining bytes are the payload.
      size_t offset = reader.offset();
      ctx.payload.assign(packet.begin() + static_cast<long>(offset),
                         packet.end());
      return Status::Ok();
    }
    if (*next == "reject") {
      return InvalidArgument("parser rejected packet");
    }
    state = program_->FindParserState(*next);
  }
  return Internal("parser exceeded hop limit (cycle?)");
}

Status Switch::ApplyTable(Ctx& ctx, const Table& table) {
  TableState& state = tables_.at(table.name);
  std::vector<uint64_t> key;
  key.reserve(table.keys.size());
  for (const TableKey& tk : table.keys) {
    NERPA_ASSIGN_OR_RETURN(uint64_t value, ReadField(ctx, tk.field));
    key.push_back(value);
  }
  const TableEntry* entry = state.Lookup(key);
  const Action* action = nullptr;
  const std::vector<uint64_t>* args = nullptr;
  if (entry != nullptr) {
    action = program_->FindAction(entry->action);
    args = &entry->action_args;
  } else if (!table.default_action.empty()) {
    action = program_->FindAction(table.default_action);
    args = &table.default_action_args;
  }
  if (action == nullptr) return Status::Ok();  // miss with no default
  return ExecAction(ctx, *action, *args);
}

Status Switch::ExecAction(Ctx& ctx, const Action& action,
                          const std::vector<uint64_t>& args) {
  auto arg_value = [&](const ActionOp& op) -> uint64_t {
    if (op.param.empty()) return op.immediate;
    int index = action.FindParam(op.param);
    return index >= 0 && static_cast<size_t>(index) < args.size()
               ? args[static_cast<size_t>(index)]
               : 0;
  };
  for (const ActionOp& op : action.ops) {
    switch (op.kind) {
      case ActionOp::Kind::kNoOp:
        break;
      case ActionOp::Kind::kSetFieldConst:
      case ActionOp::Kind::kSetFieldParam:
        NERPA_RETURN_IF_ERROR(WriteField(ctx, op.dest, arg_value(op)));
        break;
      case ActionOp::Kind::kCopyField: {
        NERPA_ASSIGN_OR_RETURN(uint64_t value, ReadField(ctx, op.src));
        NERPA_RETURN_IF_ERROR(WriteField(ctx, op.dest, value));
        break;
      }
      case ActionOp::Kind::kOutput:
        ctx.egress_port = arg_value(op);
        ctx.unicast_set = true;
        ctx.dropped = false;
        break;
      case ActionOp::Kind::kMulticast:
        ctx.mcast_grp = arg_value(op);
        break;
      case ActionOp::Kind::kDrop:
        ctx.dropped = true;
        ctx.unicast_set = false;
        ctx.mcast_grp = 0;
        break;
      case ActionOp::Kind::kClone:
        ctx.clone_ports.push_back(arg_value(op));
        break;
      case ActionOp::Kind::kDigest: {
        const Digest* digest = program_->FindDigest(op.digest_name);
        DigestMessage message;
        message.name = digest->name;
        for (const P4Field& field : digest->fields) {
          // Digest fields are named after metadata or header fields by
          // convention "space_field" mapping is avoided: the digest field
          // name IS a FieldRef text.
          NERPA_ASSIGN_OR_RETURN(uint64_t value,
                                 ReadField(ctx, FieldRef(field.name)));
          message.fields.push_back(value);
        }
        digests_.push_back(std::move(message));
        ++stats_.digests;
        break;
      }
      case ActionOp::Kind::kPushVlan: {
        // Conventional header names: "ethernet" and "vlan".
        const HeaderType* vlan = program_->FindHeader("vlan");
        const HeaderType* eth = program_->FindHeader("ethernet");
        if (vlan == nullptr || eth == nullptr) {
          return FailedPrecondition("push_vlan needs ethernet+vlan headers");
        }
        HeaderInstance& vi = ctx.headers["vlan"];
        if (!vi.valid) {
          vi.valid = true;
          vi.values.assign(vlan->fields.size(), 0);
          // vlan.etherType inherits the ethernet etherType; ethernet's
          // becomes 0x8100.
          NERPA_ASSIGN_OR_RETURN(
              uint64_t ether_type,
              ReadField(ctx, FieldRef("ethernet.etherType")));
          NERPA_RETURN_IF_ERROR(
              WriteField(ctx, FieldRef("vlan.etherType"), ether_type));
          NERPA_RETURN_IF_ERROR(
              WriteField(ctx, FieldRef("ethernet.etherType"), 0x8100));
        }
        NERPA_RETURN_IF_ERROR(
            WriteField(ctx, FieldRef("vlan.vid"), arg_value(op)));
        break;
      }
      case ActionOp::Kind::kPopVlan: {
        auto it = ctx.headers.find("vlan");
        if (it != ctx.headers.end() && it->second.valid) {
          NERPA_ASSIGN_OR_RETURN(
              uint64_t ether_type,
              ReadField(ctx, FieldRef("vlan.etherType")));
          it->second.valid = false;
          NERPA_RETURN_IF_ERROR(
              WriteField(ctx, FieldRef("ethernet.etherType"), ether_type));
        }
        break;
      }
    }
  }
  return Status::Ok();
}

Status Switch::RunControl(Ctx& ctx, const std::vector<ControlNode>& nodes) {
  for (const ControlNode& node : nodes) {
    if (ctx.dropped) return Status::Ok();
    if (node.kind == ControlNode::Kind::kApply) {
      NERPA_RETURN_IF_ERROR(ApplyTable(ctx, *program_->FindTable(node.table)));
      continue;
    }
    bool taken = false;
    switch (node.pred) {
      case ControlNode::Pred::kFieldEq:
      case ControlNode::Pred::kFieldNe: {
        NERPA_ASSIGN_OR_RETURN(uint64_t value,
                               ReadField(ctx, node.cond_field));
        taken = (value == node.cond_value) ==
                (node.pred == ControlNode::Pred::kFieldEq);
        break;
      }
      case ControlNode::Pred::kHeaderValid:
      case ControlNode::Pred::kHeaderInvalid: {
        auto it = ctx.headers.find(node.cond_header);
        bool valid = it != ctx.headers.end() && it->second.valid;
        taken = valid == (node.pred == ControlNode::Pred::kHeaderValid);
        break;
      }
    }
    NERPA_RETURN_IF_ERROR(
        RunControl(ctx, taken ? node.then_branch : node.else_branch));
  }
  return Status::Ok();
}

net::Packet Switch::Deparse(const Ctx& ctx) const {
  net::PacketWriter writer;
  for (const std::string& header_name : program_->deparser) {
    auto it = ctx.headers.find(header_name);
    if (it == ctx.headers.end() || !it->second.valid) continue;
    const HeaderType* header = program_->FindHeader(header_name);
    for (size_t f = 0; f < header->fields.size(); ++f) {
      writer.WriteBits(it->second.values[f], header->fields[f].width);
    }
  }
  writer.WriteBytes(ctx.payload.data(), ctx.payload.size());
  return writer.Finish();
}

Result<std::vector<PacketOut>> Switch::ProcessPacket(const PacketIn& in) {
  ++stats_.packets_in;
  Ctx ctx;
  ctx.ingress_port = in.port;
  Status parsed = RunParser(ctx, in.packet);
  if (!parsed.ok()) {
    ++stats_.parse_errors;
    return parsed;
  }
  NERPA_RETURN_IF_ERROR(RunControl(ctx, program_->ingress));

  std::vector<PacketOut> out;
  auto egress_one = [&](Ctx replica, uint64_t port) -> Status {
    replica.egress_port = port;
    replica.mcast_grp = 0;
    NERPA_RETURN_IF_ERROR(RunControl(replica, program_->egress));
    if (replica.dropped || replica.egress_port == kDropPort) {
      ++stats_.dropped;
      return Status::Ok();
    }
    out.push_back(PacketOut{replica.egress_port, Deparse(replica)});
    return Status::Ok();
  };

  if (ctx.dropped) {
    ++stats_.dropped;
  } else if (ctx.mcast_grp != 0) {
    const std::vector<uint64_t>* ports = GetMulticastGroup(
        static_cast<uint32_t>(ctx.mcast_grp));
    if (ports != nullptr) {
      for (uint64_t port : *ports) {
        if (port == ctx.ingress_port) continue;  // source pruning
        NERPA_RETURN_IF_ERROR(egress_one(ctx, port));
      }
    }
  } else if (ctx.unicast_set && ctx.egress_port != kDropPort) {
    NERPA_RETURN_IF_ERROR(egress_one(ctx, ctx.egress_port));
  } else {
    ++stats_.dropped;  // nobody claimed the packet
  }
  // SPAN clones carry the original frame, bypassing egress processing, and
  // are emitted even for packets the pipeline dropped (ingress mirroring).
  for (uint64_t port : ctx.clone_ports) {
    out.push_back(PacketOut{port, in.packet});
  }
  stats_.packets_out += out.size();
  return out;
}

std::vector<DigestMessage> Switch::TakeDigests() {
  std::vector<DigestMessage> out = std::move(digests_);
  digests_.clear();
  return out;
}

}  // namespace nerpa::p4
