#include "p4/interpreter.h"

#include <algorithm>
#include <utility>

#include "common/log.h"
#include "common/strings.h"

namespace nerpa::p4 {

Switch::Switch(std::shared_ptr<const P4Program> program)
    : program_(std::move(program)) {
  for (const Table& table : program_->tables) tables_.emplace_back(&table);
}

TableState* Switch::GetTable(std::string_view name) {
  return const_cast<TableState*>(std::as_const(*this).GetTable(name));
}

const TableState* Switch::GetTable(std::string_view name) const {
  const Table* table = program_->FindTable(name);
  if (table == nullptr) return nullptr;
  return &tables_[table - program_->tables.data()];
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

uint64_t Switch::ReadField(const Ctx& ctx, const FieldSlot& slot) const {
  // Reading an invalid header yields 0 (BMv2's permissive behaviour).
  if (slot.header >= 0 && !ctx.valid[slot.header]) return 0;
  return ctx.values[slot.index];
}

Status Switch::WriteField(Ctx& ctx, const FieldSlot& slot,
                          uint64_t value) const {
  if (slot.header >= 0 && !ctx.valid[slot.header]) {
    return FailedPrecondition("write to invalid header '" +
                              program_->headers[slot.header].name + "'");
  }
  // Every store keeps to the field's width, as a bit<w> field would.
  ctx.values[slot.index] = value & WidthMask(slot.width);
  if (slot.index == kEgressPortSlot) ctx.unicast_set = true;
  return Status::Ok();
}

Status Switch::RunParser(Ctx& ctx, const net::Packet& packet) {
  net::PacketReader reader(packet);
  const ParserState* state = &program_->parser[0];
  for (int hops = 0; hops < 64; ++hops) {  // cycle guard
    if (state->header >= 0) {
      const HeaderType& header = program_->headers[state->header];
      for (size_t f = 0; f < header.fields.size(); ++f) {
        auto value = reader.ReadBits(header.fields[f].width);
        if (!value) {
          return InvalidArgument(StrFormat(
              "packet too short while extracting %s.%s", header.name.c_str(),
              header.fields[f].name.c_str()));
        }
        ctx.values[header.offset + f] = *value;
      }
      ctx.valid[state->header] = true;
    }
    // Choose the transition: the first whose value matches the selector,
    // else the last default; accept when there is neither.
    int next = ParserState::kAccept;
    if (state->select.text.empty()) {
      if (!state->transitions.empty()) next = state->transitions[0].target;
    } else {
      uint64_t selector = ReadField(ctx, state->select.slot);
      for (const ParserState::Transition& t : state->transitions) {
        if (!t.match) {
          next = t.target;
        } else if (*t.match == selector) {
          next = t.target;
          break;
        }
      }
    }
    if (next == ParserState::kAccept) {
      ctx.payload = reader.offset();  // the remaining bytes
      return Status::Ok();
    }
    if (next == ParserState::kReject) {
      return InvalidArgument("parser rejected packet");
    }
    state = &program_->parser[next];
  }
  return Internal("parser exceeded hop limit (cycle?)");
}

Status Switch::ApplyTable(Ctx& ctx, int index) {
  const Table& table = program_->tables[index];
  key_.clear();
  for (const TableKey& tk : table.keys) {
    key_.push_back(ReadField(ctx, tk.field.slot));
  }
  const TableState& state = tables_[index];
  const TableEntry* entry = state.Lookup(key_);
  const Action* action = nullptr;
  const std::vector<uint64_t>* args = nullptr;
  if (entry != nullptr) {
    int action_index = state.ActionIndex(*entry);
    if (action_index >= 0) action = &program_->actions[action_index];
    args = &entry->action_args;
  } else if (table.default_index >= 0) {
    action = &program_->actions[table.default_index];
    args = &table.default_action_args;
  }
  if (action == nullptr) return Status::Ok();  // miss with no default
  return ExecAction(ctx, *action, *args);
}

Status Switch::ExecAction(Ctx& ctx, const Action& action,
                          const std::vector<uint64_t>& args) {
  auto arg_value = [&](const ActionOp& op) -> uint64_t {
    if (op.param_index < 0) return op.immediate;
    size_t index = static_cast<size_t>(op.param_index);
    return index < args.size() ? args[index] : 0;
  };
  for (const ActionOp& op : action.ops) {
    switch (op.kind) {
      case ActionOp::Kind::kNoOp:
        break;
      case ActionOp::Kind::kSetFieldConst:
      case ActionOp::Kind::kSetFieldParam:
        NERPA_RETURN_IF_ERROR(WriteField(ctx, op.dest.slot, arg_value(op)));
        break;
      case ActionOp::Kind::kCopyField:
        NERPA_RETURN_IF_ERROR(
            WriteField(ctx, op.dest.slot, ReadField(ctx, op.src.slot)));
        break;
      case ActionOp::Kind::kOutput:
        ctx.values[kEgressPortSlot] = arg_value(op);
        ctx.unicast_set = true;
        ctx.dropped = false;
        break;
      case ActionOp::Kind::kMulticast:
        ctx.values[kMcastGrpSlot] = arg_value(op);
        break;
      case ActionOp::Kind::kDrop:
        ctx.dropped = true;
        ctx.unicast_set = false;
        ctx.values[kMcastGrpSlot] = 0;
        break;
      case ActionOp::Kind::kClone:
        ctx.clone_ports.push_back(arg_value(op));
        break;
      case ActionOp::Kind::kDigest: {
        const Digest& digest = program_->digests[op.digest];
        std::vector<uint64_t> fields;
        fields.reserve(digest.slots.size());
        for (const FieldSlot& slot : digest.slots) {
          fields.push_back(ReadField(ctx, slot));
        }
        digests_.emplace_back(&digest, std::move(fields));
        ++stats_.digests;
        break;
      }
      case ActionOp::Kind::kPushVlan: {
        int vlan = program_->vlan_vid.header;
        if (!ctx.valid[vlan]) {
          const HeaderType& header = program_->headers[vlan];
          ctx.valid[vlan] = true;
          std::fill_n(ctx.values.begin() + header.offset, header.fields.size(),
                      0);
          // vlan.etherType inherits the ethernet etherType; ethernet's
          // becomes 0x8100.
          NERPA_RETURN_IF_ERROR(WriteField(
              ctx, program_->vlan_type,
              ReadField(ctx, program_->ethernet_type)));
          NERPA_RETURN_IF_ERROR(
              WriteField(ctx, program_->ethernet_type, 0x8100));
        }
        NERPA_RETURN_IF_ERROR(
            WriteField(ctx, program_->vlan_vid, arg_value(op)));
        break;
      }
      case ActionOp::Kind::kPopVlan: {
        int vlan = program_->vlan_vid.header;
        if (ctx.valid[vlan]) {
          uint64_t ether_type = ReadField(ctx, program_->vlan_type);
          ctx.valid[vlan] = false;
          NERPA_RETURN_IF_ERROR(
              WriteField(ctx, program_->ethernet_type, ether_type));
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
      NERPA_RETURN_IF_ERROR(ApplyTable(ctx, node.table_index));
      continue;
    }
    bool taken = false;
    switch (node.pred) {
      case ControlNode::Pred::kFieldEq:
      case ControlNode::Pred::kFieldNe:
        taken = (ReadField(ctx, node.cond_field.slot) == node.cond_value) ==
                (node.pred == ControlNode::Pred::kFieldEq);
        break;
      case ControlNode::Pred::kHeaderValid:
      case ControlNode::Pred::kHeaderInvalid:
        taken = ctx.valid[node.header_index] ==
                (node.pred == ControlNode::Pred::kHeaderValid);
        break;
    }
    NERPA_RETURN_IF_ERROR(
        RunControl(ctx, taken ? node.then_branch : node.else_branch));
  }
  return Status::Ok();
}

net::Packet Switch::Deparse(const Ctx& ctx, const net::Packet& in) const {
  net::PacketWriter writer(in.size() + 4);  // room for a pushed 802.1Q tag
  for (int index : program_->deparser_headers) {
    if (!ctx.valid[index]) continue;
    const HeaderType& header = program_->headers[index];
    for (size_t f = 0; f < header.fields.size(); ++f) {
      writer.WriteBits(ctx.values[header.offset + f], header.fields[f].width);
    }
  }
  writer.WriteBytes(in.data() + ctx.payload, in.size() - ctx.payload);
  return writer.Finish();
}

Result<std::vector<PacketOut>> Switch::ProcessPacket(const PacketIn& in) {
  ++stats_.packets_in;
  Ctx& ctx = ctx_;
  ctx.values.assign(program_->slot_count, 0);
  ctx.valid.assign(program_->headers.size(), false);
  ctx.unicast_set = ctx.dropped = false;
  ctx.clone_ports.clear();
  ctx.values[kIngressPortSlot] = in.port;
  Status parsed = RunParser(ctx, in.packet);
  if (!parsed.ok()) {
    ++stats_.parse_errors;
    return parsed;
  }
  NERPA_RETURN_IF_ERROR(RunControl(ctx, program_->ingress));

  std::vector<PacketOut> out;
  auto egress_one = [&](const Ctx& ingress, uint64_t port) -> Status {
    Ctx& replica = replica_ = ingress;
    replica.values[kEgressPortSlot] = port;
    replica.values[kMcastGrpSlot] = 0;
    NERPA_RETURN_IF_ERROR(RunControl(replica, program_->egress));
    port = replica.values[kEgressPortSlot];
    if (replica.dropped || port == kDropPort) {
      ++stats_.dropped;
      return Status::Ok();
    }
    out.push_back(PacketOut{port, Deparse(replica, in.packet)});
    return Status::Ok();
  };

  uint64_t egress_port = ctx.values[kEgressPortSlot];
  uint64_t mcast_grp = ctx.values[kMcastGrpSlot];
  if (ctx.dropped) {
    ++stats_.dropped;
  } else if (mcast_grp != 0) {
    const std::vector<uint64_t>* ports =
        GetMulticastGroup(static_cast<uint32_t>(mcast_grp));
    if (ports != nullptr) {
      for (uint64_t port : *ports) {
        if (port == in.port) continue;  // source pruning
        NERPA_RETURN_IF_ERROR(egress_one(ctx, port));
      }
    }
  } else if (ctx.unicast_set && egress_port != kDropPort) {
    NERPA_RETURN_IF_ERROR(egress_one(ctx, egress_port));
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
  std::vector<DigestMessage> out;
  out.reserve(digests_.size());
  for (auto& [digest, fields] : digests_) {
    out.push_back(DigestMessage{digest->name, std::move(fields)});
  }
  digests_.clear();
  return out;
}

}  // namespace nerpa::p4
