// A P4Runtime-style control API for the Switch.
//
// This is the wire between the control plane and the data plane: typed,
// validated table writes (insert/modify/delete), multicast group
// programming, and a digest subscription.  In the real Nerpa this is gRPC;
// here it is an in-process client with the same semantics.  Like
// P4Runtime's WriteRequest, one Write carries a batch of updates and is
// not atomic: the batch either fully validates or nothing applies, and
// then its updates apply in order up to the first one that fails.  The
// caller learns how many applied from write_count(), which moves by one
// per applied update, so it can resend just the rest.
#ifndef NERPA_P4_RUNTIME_H_
#define NERPA_P4_RUNTIME_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "p4/interpreter.h"

namespace nerpa::p4 {

enum class UpdateType { kInsert, kModify, kDelete };
const char* UpdateTypeName(UpdateType type);

struct Update {
  UpdateType type = UpdateType::kInsert;
  TableEntry entry;
};

/// The write/read contract the controller codes against.  Virtual so that
/// HA decorators (src/ha's FaultyRuntimeClient) can interpose on the write
/// path; the base class talks straight to an in-process Switch.
class RuntimeClient {
 public:
  explicit RuntimeClient(Switch* sw) : switch_(sw) {}
  virtual ~RuntimeClient() = default;

  const P4Program& program() const { return switch_->program(); }

  /// Validates and applies a batch of table updates.  Validation errors
  /// reject the whole batch before anything applies; application errors
  /// (e.g. duplicate insert) stop at the failing update — matching
  /// P4Runtime's sequential-apply semantics.  The updates before the
  /// failing one stay applied; their count is the write_count() delta
  /// around the call.  A decorator that fails the call before delegating
  /// here applies none.
  virtual Status Write(const std::vector<Update>& updates);

  /// Convenience single-entry forms (dispatch through Write()).
  Status Insert(TableEntry entry);
  Status Modify(TableEntry entry);
  Status Delete(TableEntry entry);

  /// All entries of `table`.  This is the read-back contract crash
  /// recovery depends on (src/ha): the returned entries carry everything
  /// needed to recompute their canonical identity (match, priority) plus
  /// the installed action, so a restarted controller can diff desired
  /// state against the device without any other metadata.
  virtual Result<std::vector<TableEntry>> ReadTable(
      std::string_view table) const;

  /// Direct counters: (entry, packets that hit it) for every entry.
  virtual Result<std::vector<std::pair<TableEntry, uint64_t>>> ReadCounters(
      std::string_view table) const;

  virtual Status SetMulticastGroup(uint32_t group,
                                   std::vector<uint64_t> ports);

  /// All multicast groups and their (sorted) member ports; the multicast
  /// half of the read-back contract.
  virtual Result<std::vector<std::pair<uint32_t, std::vector<uint64_t>>>>
  ReadMulticastGroups() const;

  /// Updates applied so far through Write()/SetMulticastGroup(), one per
  /// applied update or group — the applied prefix of a failed batch, and
  /// "zero writes when converged" for resynchronization tests.
  uint64_t write_count() const { return write_count_; }

  // --- Fencing (controller replication) ---
  //
  // The client stamps every Write/SetMulticastGroup with this token (its
  // controller's leader-lease epoch); the switch rejects stale tokens with
  // kPermissionDenied (Switch::CheckFence).  0 = unfenced legacy writer.
  // Decorators (ha::FaultyRuntimeClient) inherit the check by delegating
  // to the base implementation.

  void set_fence_token(uint64_t token) { fence_token_ = token; }
  uint64_t fence_token() const { return fence_token_; }

  /// Declares mastership to the switch (the P4Runtime arbitration analog):
  /// presents the fence token without writing anything, raising the
  /// switch's high-water mark so lower-epoch writers are locked out
  /// *immediately* — even when the new leader's resync turns out to be a
  /// zero-write diff.  Fails with kPermissionDenied when an even newer
  /// epoch already arbitrated.
  Status Arbitrate() { return switch_->CheckFence(fence_token_); }

  using DigestHandler = std::function<void(const DigestMessage&)>;

  /// Registers the digest stream handler (one per client, like the
  /// P4Runtime DigestList stream).
  void SubscribeDigests(DigestHandler handler) {
    digest_handler_ = std::move(handler);
  }

  /// Drains the switch's queued digests into the handler.  In a real
  /// deployment this is push; tests and the controller call it after
  /// injecting packets.
  virtual void PollDigests();

 protected:
  Switch* target() const { return switch_; }

 private:
  /// Validates a fully-formed entry against the program; returns its
  /// table.
  Result<const Table*> ValidateEntry(const TableEntry& entry,
                                     UpdateType type) const;

  Switch* switch_;
  std::vector<TableState*> resolved_;  // Write's per-update tables, reused
  DigestHandler digest_handler_;
  uint64_t write_count_ = 0;
  uint64_t fence_token_ = 0;
};

}  // namespace nerpa::p4

#endif  // NERPA_P4_RUNTIME_H_
