// A P4-style pipeline IR: headers, a parse graph, match-action tables,
// actions over typed fields, digests, and ingress/egress controls.
//
// This is the "P4 program" of the Nerpa stack.  It plays two roles:
//   1. The behavioural interpreter (interpreter.h) executes it over real
//      packets, standing in for BMv2.
//   2. The binding generator (nerpa/bindings.h) turns each table into a
//      control-plane *output* relation and each digest into an *input*
//      relation, exactly as §4.2 of the paper describes.
#ifndef NERPA_P4_IR_H_
#define NERPA_P4_IR_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"

namespace nerpa::p4 {

/// One header field; widths are in bits (1..64).
struct P4Field {
  std::string name;
  int width = 0;
};

struct HeaderType {
  std::string name;
  std::vector<P4Field> fields;
  int offset = 0;  // slot of the first field (see FieldSlot)

  int FindField(std::string_view field) const;
  int TotalBits() const;
};

/// Where P4Program::Validate() placed a field in the interpreter's flat
/// per-packet value vector: the three standard fields, then the metadata,
/// then each header's fields from its `offset`.  `header` is the owning
/// header's index, or -1 for standard and metadata fields.
struct FieldSlot {
  int index = -1;
  int header = -1;
  int width = 0;
};
inline constexpr int kIngressPortSlot = 0;  // read-only
inline constexpr int kEgressPortSlot = 1;
inline constexpr int kMcastGrpSlot = 2;

/// A reference to a field: "ethernet.dstAddr", "meta.vlan", or
/// "standard.ingress_port" / "standard.egress_port" etc.
struct FieldRef {
  std::string text;
  FieldSlot slot;  // resolved by Validate()

  FieldRef() = default;
  FieldRef(std::string t) : text(std::move(t)) {}  // NOLINT(runtime/explicit)
  FieldRef(const char* t) : text(t) {}             // NOLINT(runtime/explicit)

  bool operator==(const FieldRef& o) const { return text == o.text; }
  bool operator<(const FieldRef& o) const { return text < o.text; }
};

/// Parser state: optionally extract one header, then branch on a field.
struct ParserState {
  static constexpr int kAccept = -1;
  static constexpr int kReject = -2;

  std::string name;
  std::string extracts;  // header type name to extract; "" = none
  int header = -1;       // index of `extracts`, resolved by Validate()
  int line = 0;  // source span of the state name (0 = built in code)
  int col = 0;

  struct Transition {
    std::optional<uint64_t> match;  // nullopt = default
    std::string next;               // state name, or "accept" / "reject"
    int target = kAccept;           // index of `next`, or kAccept / kReject
  };
  FieldRef select;                  // empty text = unconditional
  std::vector<Transition> transitions;
};

enum class MatchKind { kExact, kLpm, kTernary, kRange, kOptional };
const char* MatchKindName(MatchKind kind);

struct TableKey {
  FieldRef field;
  MatchKind kind = MatchKind::kExact;
  int width = 0;  // resolved during Validate()
};

/// Primitive operations available in actions.
struct ActionOp {
  enum class Kind {
    kSetFieldConst,  // dest = immediate
    kSetFieldParam,  // dest = action parameter `param`
    kCopyField,      // dest = src field
    kOutput,         // unicast to port (immediate or param)
    kMulticast,      // replicate to multicast group (immediate or param)
    kDrop,
    kDigest,         // send digest_name with digest_fields to the controller
    kClone,          // mirror the *original* frame to a port (SPAN-style)
    kPushVlan,       // insert an 802.1Q tag (vid from param/immediate)
    kPopVlan,
    kNoOp,
  };
  Kind kind = Kind::kNoOp;
  FieldRef dest;
  FieldRef src;
  uint64_t immediate = 0;
  std::string param;  // non-empty: take the value from this action parameter
  std::string digest_name;
  int param_index = -1;  // resolved by Validate()
  int digest = -1;       // index of `digest_name`, resolved by Validate()

  static ActionOp SetField(FieldRef dest, uint64_t value);
  static ActionOp SetFieldFromParam(FieldRef dest, std::string param);
  static ActionOp CopyField(FieldRef dest, FieldRef src);
  static ActionOp OutputPort(std::string param);
  static ActionOp OutputConst(uint64_t port);
  static ActionOp MulticastGroup(std::string param);
  static ActionOp MulticastConst(uint64_t group);
  static ActionOp Drop();
  static ActionOp Digest(std::string name);
  static ActionOp ClonePort(std::string param);
  static ActionOp PushVlan(std::string vid_param);
  static ActionOp PopVlan();
};

struct ActionParam {
  std::string name;
  int width = 0;
};

struct Action {
  std::string name;
  std::vector<ActionParam> params;
  std::vector<ActionOp> ops;
  int line = 0;  // source span of the action name (0 = built in code)
  int col = 0;

  int FindParam(std::string_view param) const;
};

struct Table {
  std::string name;
  int line = 0;  // source span of the table name (0 = built in code)
  int col = 0;
  std::vector<TableKey> keys;
  std::vector<std::string> actions;  // names of permitted actions
  std::vector<int> action_indices;   // of `actions`, resolved by Validate()
  std::string default_action;        // applied on miss ("" = no-op)
  std::vector<uint64_t> default_action_args;
  int default_index = -1;            // resolved by Validate()
  size_t size = 1024;
};

/// Digest declaration: the data-plane-to-control-plane notification type.
struct Digest {
  std::string name;
  std::vector<P4Field> fields;  // each named by the FieldRef text it reads
  std::vector<FieldSlot> slots;  // of `fields`, resolved by Validate()
  int line = 0;  // source span of the digest name (0 = built in code)
  int col = 0;
};

/// Control-flow node of a control block.
struct ControlNode {
  enum class Kind { kApply, kConditional };
  Kind kind = Kind::kApply;

  std::string table;  // kApply
  int table_index = -1;  // resolved by Validate()

  // kConditional:
  enum class Pred { kFieldEq, kFieldNe, kHeaderValid, kHeaderInvalid };
  Pred pred = Pred::kFieldEq;
  FieldRef cond_field;       // kFieldEq/kFieldNe
  uint64_t cond_value = 0;
  std::string cond_header;   // kHeaderValid/kHeaderInvalid
  int header_index = -1;     // resolved by Validate()
  std::vector<ControlNode> then_branch;
  std::vector<ControlNode> else_branch;

  static ControlNode Apply(std::string table);
  static ControlNode IfFieldEq(FieldRef field, uint64_t value,
                               std::vector<ControlNode> then_branch,
                               std::vector<ControlNode> else_branch = {});
  static ControlNode IfHeaderValid(std::string header,
                                   std::vector<ControlNode> then_branch,
                                   std::vector<ControlNode> else_branch = {});
};

/// A complete data-plane program.
struct P4Program {
  std::string name;
  std::vector<HeaderType> headers;
  std::vector<P4Field> metadata;      // user metadata fields
  std::vector<ParserState> parser;    // first state is the start state
  std::vector<Action> actions;
  std::vector<Table> tables;
  std::vector<Digest> digests;
  std::vector<ControlNode> ingress;
  std::vector<ControlNode> egress;
  std::vector<std::string> deparser;  // header emit order

  // Resolved by Validate(): the size of the per-packet value vector, the
  // deparser's header indices, and the conventional fields that push_vlan
  // and pop_vlan rewrite.
  int slot_count = 0;
  std::vector<int> deparser_headers;
  FieldSlot ethernet_type, vlan_type, vlan_vid;

  const HeaderType* FindHeader(std::string_view name) const;
  const Table* FindTable(std::string_view name) const;
  const Action* FindAction(std::string_view name) const;
  const Digest* FindDigest(std::string_view name) const;
  const ParserState* FindParserState(std::string_view name) const;

  /// The slot of a field reference; error if unresolvable.  Header offsets
  /// must already be laid out, as Validate() does first.
  Result<FieldSlot> Resolve(const FieldRef& ref) const;

  /// Checks internal consistency and resolves every name the pipeline uses
  /// (fields to slots, headers, states, tables, actions, parameters and
  /// digests to indices).  Must be called before the program is
  /// interpreted or bound, and again after any edit.
  Status Validate();

  /// Pretty P4-ish source listing (for docs and the LOC table).
  std::string ToString() const;
};

/// Well-known standard metadata fields (always present).
inline constexpr int kStandardFieldWidth = 16;
inline constexpr uint64_t kDropPort = 0x1FF;

/// The all-ones value of a bit<width> field.
inline uint64_t WidthMask(int width) {
  return width >= 64 ? ~uint64_t{0} : ((uint64_t{1} << width) - 1);
}

}  // namespace nerpa::p4

#endif  // NERPA_P4_IR_H_
