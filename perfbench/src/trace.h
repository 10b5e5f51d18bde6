// Spans recorded around calls into each layer's public functions, from the
// benchmark's own code (nothing inside the stack is instrumented).
//
// A unit of work (one management transaction, or one MAC re-learn) is a
// "change".  Its spans live in memory until the change ends; the tracer then
// computes each span's self time (duration minus the part of its interval
// that its direct children cover), folds the numbers into per-kind
// accumulators, and keeps the raw spans of the first changes for the trace
// file written once at exit.
//
// Two kinds of span meet here:
//   * live spans time the real stack: the change itself, P4Runtime calls
//     (through TimingClient), ProcessPacket and SyncDataPlaneNotifications;
//   * replayed spans time the layers that run inside the controller's
//     monitor callback, where no outside hook exists: the change is replayed
//     against a bare ovsdb::Database, OvsdbRowToDlog, a shadow dlog::Engine
//     and DlogRowToEntry (Shadow in fixture.h).
// The controller glue is what the live opaque spans leave unexplained once
// the replayed layers' self times are taken out.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include "p4/runtime.h"

namespace perfbench {

namespace p4 = nerpa::p4;

enum class Kind : uint8_t {
  kChange,          // live: TxnBuilder::Commit, or inject-to-synced learn
  kDigestSync,      // live: Controller::SyncDataPlaneNotifications
  kP4Packet,        // live: Switch::ProcessPacket
  kP4Write,         // live: RuntimeClient::Write
  kP4Multicast,     // live: RuntimeClient::SetMulticastGroup
  kOvsdbTxn,        // replayed: TxnBuilder::Commit on a bare database
  kOvsdbCapture,    // replayed: copying the monitor delivery (excluded)
  kRowConvert,      // replayed: OvsdbRowToDlog
  kDlogInsert,      // replayed: Engine Insert/Delete+Commit, adds rows only
  kDlogDelete,      // replayed: Engine Insert/Delete+Commit, retracts rows
  kEntryConvert,    // replayed: DlogRowToEntry
  kCount,
};
const char* KindName(Kind kind);

/// Where a span was taken.  Per-layer metrics come from the timed phase; a
/// layer the timed phase never calls is reported from the post-run
/// data-plane probe, and failing that from set-up.
enum class Phase : uint8_t { kSetup, kTimed, kProbe, kCount };

struct Span {
  Kind kind = Kind::kChange;
  int64_t start = 0;
  int64_t end = 0;
  int32_t parent = -1;  // index into the change's span list
  uint32_t change = 0;
  uint32_t thread = 0;  // 0 = the generator thread
};

/// Per-kind totals over every span of that kind in one phase.
struct KindTotals {
  uint64_t count = 0;
  double total_ns = 0;  // durations
  double self_ns = 0;   // durations minus covered child time
};

class Tracer;

/// A P4Runtime client that times every Write and SetMulticastGroup and
/// delegates to the base class, so validation, fencing and the write count
/// stay exactly as in the plain client.  While its tracer is off it is a
/// pass-through.
class TimingClient : public p4::RuntimeClient {
 public:
  TimingClient(p4::Switch* sw, Tracer* tracer, uint32_t thread_tag)
      : p4::RuntimeClient(sw), tracer_(tracer), thread_tag_(thread_tag) {}

  nerpa::Status Write(const std::vector<p4::Update>& updates) override;
  nerpa::Status SetMulticastGroup(uint32_t group,
                                  std::vector<uint64_t> ports) override;

  /// What this client wrote during the current change, as canonical
  /// strings ("D|entry", "I|entry", "M|group|ports"); sorted on read.
  std::vector<std::string> TakeWrites();
  std::vector<Span> TakeSpans();
  uint64_t write_calls() const { return write_calls_; }
  uint64_t updates() const { return updates_; }
  uint64_t multicast_calls() const { return multicast_calls_; }
  uint64_t offthread_calls() const { return offthread_calls_; }

 private:
  void Record(Kind kind, int64_t start, int64_t end);

  Tracer* tracer_;
  uint32_t thread_tag_;
  // Each device's batch runs on one thread at a time and the controller
  // joins its pool before Commit returns, so these need no lock.
  std::vector<Span> spans_;
  std::vector<std::string> writes_;
  uint64_t write_calls_ = 0;
  uint64_t updates_ = 0;
  uint64_t multicast_calls_ = 0;
  uint64_t offthread_calls_ = 0;
};

class Tracer {
 public:
  Tracer();

  /// Whether the current change is traced (clients time and record).
  bool on() const { return on_.load(std::memory_order_acquire); }
  int32_t current_parent() const {
    return parent_.load(std::memory_order_acquire);
  }
  std::thread::id generator() const { return generator_; }

  Phase phase() const { return phase_; }
  void set_phase(Phase phase) { phase_ = phase; }
  void AddClient(TimingClient* client) { clients_.push_back(client); }

  /// Opens a traced change: every span until EndChange belongs to it.
  void BeginChange();
  /// Closes the change: gathers client spans, computes self times and the
  /// glue remainder, and archives the spans of the first changes.
  void EndChange();
  /// True between BeginChange and EndChange; outside a traced change
  /// scopes record nothing and clients pass through.
  bool in_change() const { return in_change_; }

  /// Opens a span on the generator thread; returns its index.  Spans
  /// opened while another is open become its children; the others are
  /// children of the change's first (root) span.
  int32_t Open(Kind kind);
  void Close(int32_t index);
  /// A span measured by the caller, parented like Open's.
  void AddSpan(Kind kind, int64_t start, int64_t end);

  const KindTotals& totals(Phase phase, Kind kind) const {
    return totals_[static_cast<size_t>(phase)][static_cast<size_t>(kind)];
  }
  /// The first phase among timed, probe, set-up with spans of any of
  /// `kinds` (the timed phase when none has any).
  Phase BestPhase(std::initializer_list<Kind> kinds) const;
  uint64_t changes(Phase phase) const {
    return changes_[static_cast<size_t>(phase)];
  }
  /// Mean glue (µs) over the traced changes of `phase`.
  double GlueUs(Phase phase) const;
  /// Mean union of live child spans inside the change (µs).
  double LiveChildUs(Phase phase) const;

  /// Writes the archived spans as JSON lines; returns false on I/O error.
  bool WriteFile(const std::string& path) const;

 private:
  friend class TimingClient;

  int32_t Parent() const;

  std::atomic<bool> on_{false};
  std::atomic<int32_t> parent_{-1};
  std::thread::id generator_;
  Phase phase_ = Phase::kSetup;
  bool in_change_ = false;
  uint32_t change_id_ = 0;
  std::vector<Span> spans_;  // current change, generator thread
  std::vector<int32_t> open_;
  std::vector<TimingClient*> clients_;
  std::array<std::array<KindTotals, static_cast<size_t>(Kind::kCount)>,
             static_cast<size_t>(Phase::kCount)>
      totals_{};
  std::array<uint64_t, static_cast<size_t>(Phase::kCount)> changes_{};
  std::array<double, static_cast<size_t>(Phase::kCount)> glue_ns_{};
  std::array<double, static_cast<size_t>(Phase::kCount)> live_child_ns_{};
  std::vector<Span> archive_;
};

/// RAII span on the generator thread; a no-op while the tracer is off.
class Scope {
 public:
  Scope(Tracer* tracer, Kind kind)
      : tracer_(tracer != nullptr && tracer->in_change() ? tracer : nullptr),
        index_(tracer_ != nullptr ? tracer_->Open(kind) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
