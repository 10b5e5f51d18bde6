// A TCP OVSDB client for OvsdbServer: synchronous request/response plus an
// explicitly pumped update stream (no hidden threads — tests and the
// networked controller call Poll()/WaitForUpdate() deterministically).
//
// Self-healing sessions: when a HealPolicy is enabled and the transport
// drops mid-call or mid-poll, the client reconnects with bounded
// exponential backoff and re-establishes every registered monitor with a
// "monitor_since" request carrying the last txn-id it saw.  The server
// replays exactly the deltas committed during the outage (or answers
// found=false with a full dump when the gap has aged out of its history
// window, or when the server's instance epoch changed — a restarted
// server must not replay deltas from an unrelated history), so each
// handler's update stream stays gap-free across reconnects.  Replayed
// deltas count as delivered updates in Poll() / WaitForUpdate() return
// values.
//
// Heal-and-retried requests re-send the same session-scoped request id;
// the server dedupes "transact" on it, so a transaction it applied just
// before the transport died is not applied again (exactly-once).
#ifndef NERPA_OVSDB_CLIENT_H_
#define NERPA_OVSDB_CLIENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/retry.h"
#include "common/status.h"
#include "ovsdb/jsonrpc.h"
#include "ovsdb/schema.h"

namespace nerpa::ovsdb {

class OvsdbClient {
 public:
  OvsdbClient();
  ~OvsdbClient();

  OvsdbClient(const OvsdbClient&) = delete;
  OvsdbClient& operator=(const OvsdbClient&) = delete;

  Status Connect(const std::string& host, uint16_t port);
  void Disconnect();
  bool connected() const { return fd_ >= 0; }

  /// Session self-healing knobs.  Disabled by default: a dropped transport
  /// surfaces as an error, exactly as before.
  struct HealPolicy {
    bool enabled = false;
    int max_attempts = 5;    // reconnect attempts per heal
    int backoff_ms = 10;     // first retry delay, doubled per attempt
    int max_backoff_ms = 500;
  };
  void set_heal_policy(const HealPolicy& policy) { heal_ = policy; }
  const HealPolicy& heal_policy() const { return heal_; }

  struct SessionStats {
    uint64_t reconnects = 0;        // successful transport re-establishments
    uint64_t replayed_updates = 0;  // monitor deltas delivered during heals
    uint64_t full_redumps = 0;      // heals that fell back to a full dump
    uint64_t failed_heals = 0;      // heals that exhausted max_attempts
    /// Heals cut short because the session's retry budget ran dry (the
    /// backend has been failing faster than it succeeds — fail fast
    /// instead of hammering it).
    uint64_t heal_budget_exhausted = 0;
    uint64_t deadline_rejects = 0;  // calls refused on an expired deadline
  };
  /// Snapshot of the session counters.  Returned by value under a lock:
  /// a supervisor thread may sample stats while the owning thread is
  /// mid-heal (the one sanctioned cross-thread entry point — everything
  /// else on this class stays single-threaded).
  SessionStats session_stats() const {
    std::lock_guard<std::mutex> lock(stats_mu_);
    return stats_;
  }

  /// Chaos hook: kills the transport under the session (the next read or
  /// write fails) without telling the client, as a mid-flight network
  /// fault would.  Healing, if enabled, kicks in lazily.
  void InjectTransportFault();

  /// Chaos hook: kills only the receive half — requests still reach the
  /// server but responses are lost, the worst case for a non-idempotent
  /// call (the server applies it, the client cannot tell).  Exercises the
  /// request-id dedup that keeps a healed "transact" exactly-once.
  void InjectReceiveFault();

  /// Round-trip "echo" (liveness probe).
  Status Echo();

  /// Fetches and parses the database schema.
  Result<DatabaseSchema> GetSchema();

  /// Runs a transaction (array of operation objects, as Database::Transact
  /// takes); returns the per-op results.  `deadline` (default infinite)
  /// rides the request envelope: the server refuses to evaluate an
  /// already-expired transaction, and the response wait here is bounded by
  /// the remaining budget instead of the full response timeout.
  Result<Json> Transact(Json operations, Deadline deadline = Deadline());

  using UpdateHandler =
      std::function<void(const Json& monitor_id, const Json& updates)>;

  /// Registers a monitor on `tables` (empty = all); returns the initial
  /// contents.  Subsequent updates are queued and delivered to `handler`
  /// from Poll().  The registration survives transport heals.
  Result<Json> Monitor(Json monitor_id, const std::vector<std::string>& tables,
                       UpdateHandler handler);

  /// Column-scoped monitor (table -> columns; empty list = all columns of
  /// that table): rows arrive projected, and commits touching only
  /// unselected columns are invisible.  Pair with Fetch() for the columns
  /// deliberately left unmonitored.  Survives heals like Monitor().
  Result<Json> MonitorColumns(
      Json monitor_id, std::map<std::string, std::vector<std::string>> spec,
      UpdateHandler handler);

  /// On-demand read: rows of `table` matching the `where` clause array,
  /// projected onto `columns` (empty = all + _uuid).  Returns the "fetch"
  /// result object ({"rows": [...]}).  Deadline semantics as Transact().
  Result<Json> Fetch(const std::string& table, Json where,
                     std::vector<std::string> columns,
                     Deadline deadline = Deadline());

  /// Marks this session as a priority session (level > 0): the server
  /// services its input first each cycle and exempts it from the
  /// slow-consumer outbox cap.  Sticky across heals.
  Status SetPriority(int level);
  /// Cancels a monitor.  Cancelling over a dead session (heal disabled or
  /// exhausted) is a local no-op success — the server side died with the
  /// socket.
  Status MonitorCancel(const Json& monitor_id);

  /// Drains any queued update notifications into their handlers without
  /// blocking.  Returns the number of updates delivered.
  Result<int> Poll();

  /// Blocks (up to `timeout_ms`) until at least one update is delivered.
  Result<int> WaitForUpdate(int timeout_ms);

 private:
  struct MonitorReg {
    Json id;
    // table -> monitored columns (empty list = all columns; empty map =
    // all tables), preserved so heals re-register the same projection.
    std::map<std::string, std::vector<std::string>> spec;
    UpdateHandler handler;
    int64_t last_txn_id = -1;  // newest txn-id seen on this monitor
  };

  /// Shared body of Monitor / MonitorColumns.
  Result<Json> RegisterMonitor(
      Json monitor_id, std::map<std::string, std::vector<std::string>> spec,
      UpdateHandler handler);
  /// The "requests" wire object for a spec ({table: {"columns": [...]}}).
  static Json SpecToRequests(
      const std::map<std::string, std::vector<std::string>>& spec);

  /// Raw connect to host_/port_, resetting transport state but keeping
  /// monitor registrations.
  Status Dial();
  void CloseSocket();
  /// Reconnects (jittered bounded backoff, gated by the session retry
  /// budget) and replays each registration through "monitor_since";
  /// delivered deltas are counted in heal_delivered_.
  Status Heal();
  /// Next request id: a string namespaced by the per-client session token
  /// (unique across reconnects), so the server can deduplicate a
  /// heal-and-retried request that it already applied.
  Json NextId();
  /// Sends a request and blocks for its response, queueing any
  /// notifications that arrive in between.  No healing.  An expired
  /// deadline refuses before sending; the response wait is bounded by the
  /// remaining budget.
  Result<JsonRpcMessage> CallRaw(const std::string& method, Json params,
                                 const Json& id,
                                 Deadline deadline = Deadline());
  /// CallRaw, plus one heal-and-retry on transport failure when enabled.
  /// The retry re-sends the SAME request id: a "transact" the server
  /// applied before the transport died is answered from its response
  /// cache instead of being applied twice (exactly-once, not
  /// at-least-once).
  Result<JsonRpcMessage> Call(const std::string& method, Json params,
                              Deadline deadline = Deadline());
  Status ReadMore(int timeout_ms);  // feeds the splitter from the socket
  int DeliverQueued();

  int fd_ = -1;
  bool receive_fault_ = false;  // InjectReceiveFault: fail the next read
  std::string host_;
  uint16_t port_ = 0;
  std::string session_token_;  // request-id namespace, fixed per client
  int64_t next_id_ = 1;
  JsonStreamSplitter splitter_;
  std::deque<JsonRpcMessage> inbox_;  // parsed, undelivered messages
  std::map<std::string, MonitorReg> registrations_;  // monitor id dump -> reg
  std::string server_epoch_;  // server instance id from monitor_since replies
  HealPolicy heal_;
  /// Guards stats_ only: counters are written on the owning thread (during
  /// heals) and sampled from supervisor threads via session_stats().
  mutable std::mutex stats_mu_;
  SessionStats stats_;
  int heal_delivered_ = 0;  // updates handed to handlers by the last Heal()
  bool healing_ = false;    // re-entrancy guard
  int priority_level_ = 0;  // re-asserted on heal when > 0
  /// Reconnect attempts beyond the first withdraw from this budget;
  /// successful calls and heals deposit.  Caps retry amplification when
  /// the server is hard-down (see common/retry.h).
  RetryBudget heal_budget_{8.0, 0.1};
  uint64_t jitter_rng_ = 0;  // heal-backoff jitter state (seeded per client)
};

}  // namespace nerpa::ovsdb

#endif  // NERPA_OVSDB_CLIENT_H_
