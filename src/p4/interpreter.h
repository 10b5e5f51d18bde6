// A behavioural interpreter for P4Program — the BMv2 stand-in.
//
// The switch parses real packet bytes into header fields, runs the ingress
// control (match-action tables + conditionals), replicates for multicast,
// runs egress per replica, and deparses back to bytes.  Digests raised by
// actions are queued for the controller, completing the data-plane side of
// the paper's feedback loop (§3, §4.2: MAC learning).
#ifndef NERPA_P4_INTERPRETER_H_
#define NERPA_P4_INTERPRETER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "net/packet.h"
#include "p4/entry.h"
#include "p4/ir.h"

namespace nerpa::p4 {

struct PacketIn {
  uint64_t port = 0;
  net::Packet packet;
};

struct PacketOut {
  uint64_t port = 0;
  net::Packet packet;
};

/// A digest record as delivered to the control plane: the declared fields,
/// in declaration order.
struct DigestMessage {
  std::string name;
  std::vector<uint64_t> fields;

  bool operator==(const DigestMessage& o) const {
    return name == o.name && fields == o.fields;
  }
};

class Switch {
 public:
  /// `program` must have passed Validate().
  explicit Switch(std::shared_ptr<const P4Program> program);

  const P4Program& program() const { return *program_; }

  /// Table state by name (written through the runtime API).
  TableState* GetTable(std::string_view name);
  const TableState* GetTable(std::string_view name) const;
  /// Table state of one of the program's own tables.
  TableState& table_state(const Table& table) {
    return tables_[&table - program_->tables.data()];
  }

  /// Replaces the port set of a multicast group (empty = delete).
  void SetMulticastGroup(uint32_t group, std::vector<uint64_t> ports);
  const std::vector<uint64_t>* GetMulticastGroup(uint32_t group) const;
  /// All programmed groups (read-back for controller resynchronization).
  const std::map<uint32_t, std::vector<uint64_t>>& multicast_groups() const {
    return multicast_;
  }

  /// Runs one packet through the full pipeline.  Returns the (possibly
  /// replicated, possibly empty) egress packets.
  Result<std::vector<PacketOut>> ProcessPacket(const PacketIn& in);

  /// Drains queued digests (FIFO).
  std::vector<DigestMessage> TakeDigests();

  // --- Fencing (controller replication) ---
  //
  // Writers present a fencing token (their leader-lease epoch); the switch
  // remembers the largest token it has ever accepted and rejects anything
  // older, so a deposed leader that wakes up mid-batch cannot mutate state
  // a newer leader already owns.  Token 0 marks an unfenced writer — legal
  // only while the switch has never seen a fenced write (single-controller
  // deployments keep working untouched).

  /// Validates `token` against the high-water mark, raising it on success.
  Status CheckFence(uint64_t token);

  /// Largest fencing token accepted so far (0 = never fenced).
  uint64_t fence_epoch() const { return fence_epoch_; }

  /// Writes rejected for carrying a stale token (split-brain near misses).
  uint64_t stale_writes() const { return stale_writes_; }

  struct Stats {
    uint64_t packets_in = 0;
    uint64_t packets_out = 0;
    uint64_t dropped = 0;
    uint64_t digests = 0;
    uint64_t parse_errors = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  /// Per-packet execution context, laid out by the program's resolved
  /// slots (FieldSlot).  The payload stays in the input packet.
  struct Ctx {
    std::vector<uint64_t> values;  // standard, metadata, header fields
    std::vector<bool> valid;       // per header
    bool unicast_set = false;
    bool dropped = false;
    std::vector<uint64_t> clone_ports;  // SPAN copies of the original frame
    size_t payload = 0;  // offset of the bytes beyond the parsed headers
  };

  Status RunParser(Ctx& ctx, const net::Packet& packet);
  Status RunControl(Ctx& ctx, const std::vector<ControlNode>& nodes);
  Status ApplyTable(Ctx& ctx, int table);
  Status ExecAction(Ctx& ctx, const Action& action,
                    const std::vector<uint64_t>& args);
  uint64_t ReadField(const Ctx& ctx, const FieldSlot& slot) const;
  Status WriteField(Ctx& ctx, const FieldSlot& slot, uint64_t value) const;
  net::Packet Deparse(const Ctx& ctx, const net::Packet& in) const;

  std::shared_ptr<const P4Program> program_;
  std::vector<TableState> tables_;  // parallel to program_->tables
  std::vector<uint64_t> key_;       // lookup key, reused across tables
  Ctx ctx_, replica_;  // a packet's context and an egress copy, reused
  std::map<uint32_t, std::vector<uint64_t>> multicast_;
  std::vector<std::pair<const Digest*, std::vector<uint64_t>>> digests_;
  Stats stats_;
  uint64_t fence_epoch_ = 0;
  uint64_t stale_writes_ = 0;
};

}  // namespace nerpa::p4

#endif  // NERPA_P4_INTERPRETER_H_
