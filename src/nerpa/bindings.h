// Cross-plane binding generation — the heart of Nerpa's co-design story
// (§3, §4.2 of the paper):
//
//   * every OVSDB table        ->  a control-plane *input* relation
//   * every P4 packet digest   ->  a control-plane *input* relation
//   * every P4 match-action table -> a control-plane *output* relation
//
// plus the generated conversion functions between OVSDB datums, Datalog
// values, and P4Runtime table entries ("generated helper functions in Rust"
// in the prototype; plain C++ here).  TypeCheck() verifies a user-written
// control-plane program against the generated declarations, which is what
// makes the three planes type-check *together*.
//
// Generated relation shapes:
//   OVSDB table T(c1, .., cn)   =>  input relation T(_uuid: string, c1.., cn)
//     integer->bigint, boolean->bool, string->string, uuid->string,
//     set/optional columns -> Vec<elem>, map columns -> Vec<(key, value)>.
//     (OVSDB "real" columns are rejected: the Datalog dialect is float-free.)
//   P4 digest D{f1: bit<w1>, ...}  =>  input relation D([device: string,]
//     f1: bit<w1>, ...)
//   P4 table T with keys k1..kn =>  output relation T([device: string,]
//     per key: exact  -> <k>: bit<w>
//              lpm    -> <k>: bit<w>, <k>_plen: bigint
//              ternary-> <k>: bit<w>, <k>_mask: bit<w>
//              range  -> <k>_lo: bit<w>, <k>_hi: bit<w>
//              optional -> <k>: bit<w>, <k>_present: bool
//     [priority: bigint when any ternary/range/optional key exists]
//     action: string, then one column per distinct parameter name across
//     the table's permitted actions: <param>: bit<w>.
//   Key column names are the P4 field references with '.' -> '_'.
//   Any action that multicasts => output relation MulticastGroup(
//     [device: string,] group: bit<16>, port: bit<16>): group membership,
//     which the controller programs instead of a table.
#ifndef NERPA_NERPA_BINDINGS_H_
#define NERPA_NERPA_BINDINGS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "dlog/engine.h"
#include "dlog/program.h"
#include "ovsdb/database.h"
#include "p4/entry.h"
#include "p4/interpreter.h"
#include "p4/ir.h"

namespace nerpa {

struct BindingOptions {
  /// Prepend a `device: string` column to digest inputs and table outputs,
  /// enabling per-device routing (multi-switch deployments).
  bool with_device_column = false;
};

/// How one column of a generated table-output relation is consumed when
/// converting a Datalog row into a P4Runtime entry.
struct EntryColumn {
  enum class Role {
    kDevice,       // device name
    kKeyValue,     // match value of key `key_index`
    kKeyPlen,      // LPM prefix length
    kKeyMask,      // ternary mask
    kKeyLow,       // range low (kKeyValue doubles as exact/optional value)
    kKeyHigh,      // range high
    kKeyPresent,   // optional present flag
    kPriority,
    kActionName,
    kActionParam,  // parameter `param_name`
  };
  Role role = Role::kKeyValue;
  int key_index = -1;
  std::string param_name;
};

struct TableBinding {
  std::string relation;  // == P4 table name
  std::string p4_table;
  std::vector<EntryColumn> columns;  // parallel to the relation's columns
  bool has_priority = false;
};

struct DigestBinding {
  std::string relation;  // == digest name
  std::string digest;
  bool has_device = false;
};

struct OvsdbBinding {
  std::string relation;  // == OVSDB table name
  std::string table;
};

/// The full set of generated declarations plus conversion metadata.
struct Bindings {
  BindingOptions options;
  std::vector<dlog::RelationDecl> inputs;
  std::vector<dlog::RelationDecl> outputs;
  std::vector<OvsdbBinding> ovsdb_tables;
  std::vector<DigestBinding> digests;
  std::vector<TableBinding> tables;
  /// The generated multicast membership relation (also in `outputs`), or
  /// "" when no action of the program multicasts.
  std::string multicast_relation;

  const TableBinding* FindTable(std::string_view relation) const;
  const DigestBinding* FindDigest(std::string_view digest) const;
  const OvsdbBinding* FindOvsdbTable(std::string_view table) const;

  /// The generated declarations as Datalog-dialect source, ready to be
  /// prepended to a hand-written rules file.
  std::string DeclsText() const;
};

/// Generates the bindings for a management-plane schema and a data-plane
/// program (which must be validated).
Result<Bindings> GenerateBindings(const ovsdb::DatabaseSchema& schema,
                                  const p4::P4Program& program,
                                  const BindingOptions& options = {});

/// The cross-plane type check: every generated declaration must appear in
/// `program` with the same role, column names, and column types.
Status TypeCheck(const dlog::Program& program, const Bindings& bindings);

// --- Generated data-movement helpers ---

/// OVSDB row -> Datalog row for the generated input relation.
Result<dlog::Row> OvsdbRowToDlog(const ovsdb::TableSchema& schema,
                                 const ovsdb::Row& row);

/// Digest message -> Datalog row (device prepended per the binding).
/// `unused_seq` is ignored; it stays until perfbench stops passing it.
dlog::Row DigestToDlog(const DigestBinding& binding,
                       const p4::DigestMessage& message,
                       const std::string& device, int64_t unused_seq);

/// Datalog output row -> P4Runtime table entry (+ device name when the
/// bindings carry one; empty string otherwise).
Result<std::pair<std::string, p4::TableEntry>> DlogRowToEntry(
    const TableBinding& binding, const p4::P4Program& program,
    const dlog::Row& row);

}  // namespace nerpa

#endif  // NERPA_NERPA_BINDINGS_H_
