#include "ovsdb/client.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/clock.h"
#include "common/strings.h"
#include "ovsdb/uuid.h"

namespace nerpa::ovsdb {

OvsdbClient::OvsdbClient()
    // The uuid stream is deterministic per process; folding in the clock
    // keeps tokens from colliding across processes talking to one server.
    : session_token_(StrFormat("%s/%llx", Uuid::Generate().ToString().c_str(),
                               static_cast<unsigned long long>(
                                   MonotonicNanos()))),
      jitter_rng_(static_cast<uint64_t>(MonotonicNanos()) ^
                  reinterpret_cast<uintptr_t>(this)) {}

OvsdbClient::~OvsdbClient() { Disconnect(); }

Status OvsdbClient::Dial() {
  CloseSocket();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return Internal("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    return InvalidArgument("bad host '" + host_ + "' (use a dotted quad)");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    fd_ = -1;
    return Internal(StrFormat(
        "connect(%s:%u) failed: %s", host_.c_str(), port_,
        std::strerror(errno)));  // NOLINT(concurrency-mt-unsafe)
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return Status::Ok();
}

Status OvsdbClient::Connect(const std::string& host, uint16_t port) {
  Disconnect();
  host_ = host;
  port_ = port;
  return Dial();
}

void OvsdbClient::CloseSocket() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  receive_fault_ = false;
  inbox_.clear();
  splitter_ = JsonStreamSplitter{};
}

void OvsdbClient::Disconnect() {
  CloseSocket();
  registrations_.clear();
}

void OvsdbClient::InjectTransportFault() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

void OvsdbClient::InjectReceiveFault() {
  if (fd_ < 0) return;
  ::shutdown(fd_, SHUT_RD);
  // Linux still hands out data that reached the socket before the read,
  // so a fast response would race the shutdown; the flag fails the next
  // read regardless.
  receive_fault_ = true;
}

Json OvsdbClient::SpecToRequests(
    const std::map<std::string, std::vector<std::string>>& spec) {
  Json::Object requests;
  for (const auto& [table, columns] : spec) {
    Json::Object table_spec;
    if (!columns.empty()) {
      Json::Array names;
      for (const std::string& column : columns) names.push_back(Json(column));
      table_spec["columns"] = Json(std::move(names));
    }
    requests[table] = Json(std::move(table_spec));
  }
  return Json(std::move(requests));
}

Status OvsdbClient::Heal() {
  if (!heal_.enabled) return FailedPrecondition("healing disabled");
  if (healing_) return Internal("transport died during a heal");
  healing_ = true;
  heal_delivered_ = 0;
  auto bump = [this](uint64_t SessionStats::* counter, uint64_t by = 1) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    stats_.*counter += by;
  };
  Status status = Internal("no reconnect attempts allowed");
  BackoffPolicy policy;
  policy.initial_nanos = int64_t{heal_.backoff_ms} * 1'000'000;
  policy.max_nanos = int64_t{heal_.max_backoff_ms} * 1'000'000;
  Backoff backoff(policy, ++jitter_rng_);
  for (int attempt = 0; attempt < heal_.max_attempts; ++attempt) {
    if (attempt > 0) {
      // Each retry beyond the first withdraws from the session budget:
      // against a hard-down server the budget drains and the heal fails
      // fast instead of joining a reconnect storm.
      if (!heal_budget_.TryWithdraw()) {
        bump(&SessionStats::heal_budget_exhausted);
        status = Internal("heal retry budget exhausted");
        break;
      }
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(backoff.NextDelayNanos()));
    }
    status = Dial();
    if (status.ok()) break;
  }
  if (!status.ok()) {
    bump(&SessionStats::failed_heals);
    healing_ = false;
    return status;
  }
  bump(&SessionStats::reconnects);
  // Priority is a per-session server-side mark; the fresh transport is a
  // fresh session, so re-assert it before anything else competes.
  if (priority_level_ > 0) {
    Result<JsonRpcMessage> response = CallRaw(
        "set_priority",
        Json(Json::Array{Json(static_cast<int64_t>(priority_level_))}),
        NextId());
    if (!response.ok()) {
      bump(&SessionStats::failed_heals);
      healing_ = false;
      return response.status();
    }
  }
  // Resume every monitor from its last seen txn-id; the server replays
  // exactly the missed deltas (or a full dump if the gap aged out).
  for (auto& [key, reg] : registrations_) {
    Json::Array params;
    params.push_back(Json("db"));
    params.push_back(reg.id);
    params.push_back(SpecToRequests(reg.spec));
    params.push_back(Json(reg.last_txn_id));
    // The epoch names the server incarnation the txn-id came from; a
    // restarted server answers found=false (full dump) instead of
    // replaying deltas from an unrelated history.
    params.push_back(Json(server_epoch_));
    Result<JsonRpcMessage> response =
        CallRaw("monitor_since", Json(std::move(params)), NextId());
    if (!response.ok()) {
      healing_ = false;
      bump(&SessionStats::failed_heals);
      return response.status();
    }
    if (!response->error.is_null()) {
      healing_ = false;
      bump(&SessionStats::failed_heals);
      return Internal("monitor_since error: " + response->error.Dump());
    }
    const Json& reply = response->result;
    if (!reply.is_array() || reply.as_array().size() < 3 ||
        !reply.as_array()[2].is_array()) {
      healing_ = false;
      bump(&SessionStats::failed_heals);
      return Internal("malformed monitor_since reply: " + reply.Dump());
    }
    bool found =
        reply.as_array()[0].is_bool() && reply.as_array()[0].as_bool();
    if (!found) bump(&SessionStats::full_redumps);
    for (const Json& payload : reply.as_array()[2].as_array()) {
      reg.handler(reg.id, payload);
      bump(&SessionStats::replayed_updates);
      ++heal_delivered_;
    }
    if (reply.as_array()[1].is_integer()) {
      reg.last_txn_id = reply.as_array()[1].as_integer();
    }
    if (reply.as_array().size() >= 4 && reply.as_array()[3].is_string()) {
      server_epoch_ = reply.as_array()[3].as_string();
    }
  }
  healing_ = false;
  heal_budget_.RecordSuccess();
  return Status::Ok();
}

Status OvsdbClient::ReadMore(int timeout_ms) {
  if (fd_ < 0) return FailedPrecondition("not connected");
  if (receive_fault_) {
    receive_fault_ = false;
    return FailedPrecondition("receive half shut down");
  }
  pollfd pfd{fd_, POLLIN, 0};
  int ready = ::poll(&pfd, 1, timeout_ms);
  if (ready < 0) return Internal("poll() failed");
  if (ready == 0) return Status::Ok();  // timeout; caller decides
  char buffer[4096];
  ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
  if (n == 0) return FailedPrecondition("server closed the connection");
  if (n < 0) return Internal("recv() failed");
  return splitter_.Feed(
      std::string_view(buffer, static_cast<size_t>(n)),
      [&](std::string_view text) -> Status {
        NERPA_ASSIGN_OR_RETURN(Json json, Json::Parse(text));
        NERPA_ASSIGN_OR_RETURN(JsonRpcMessage message,
                               JsonRpcMessage::FromJson(json));
        inbox_.push_back(std::move(message));
        return Status::Ok();
      });
}

int OvsdbClient::DeliverQueued() {
  int delivered = 0;
  for (auto it = inbox_.begin(); it != inbox_.end();) {
    // Plain "update" params are [id, updates]; monitor_since sessions get
    // [id, updates, txn-id] so the client can resume after a drop.
    bool is_update = it->kind == JsonRpcMessage::Kind::kNotification &&
                     it->method == "update" && it->params.is_array() &&
                     (it->params.as_array().size() == 2 ||
                      it->params.as_array().size() == 3);
    if (is_update) {
      const Json::Array& params = it->params.as_array();
      auto reg = registrations_.find(params[0].Dump());
      if (reg != registrations_.end()) {
        reg->second.handler(params[0], params[1]);
        if (params.size() == 3 && params[2].is_integer()) {
          reg->second.last_txn_id = params[2].as_integer();
        }
        ++delivered;
      }
      it = inbox_.erase(it);
    } else {
      ++it;
    }
  }
  return delivered;
}

Json OvsdbClient::NextId() {
  return Json(StrFormat("%s#%lld", session_token_.c_str(),
                        static_cast<long long>(next_id_++)));
}

Result<JsonRpcMessage> OvsdbClient::CallRaw(const std::string& method,
                                            Json params, const Json& id,
                                            Deadline deadline) {
  if (fd_ < 0) return FailedPrecondition("not connected");
  if (deadline.expired()) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.deadline_rejects;
    return DeadlineExceeded(method + ": deadline expired before send");
  }
  JsonRpcMessage request =
      JsonRpcMessage::Request(method, std::move(params), id);
  if (!deadline.infinite()) request.deadline_nanos = deadline.nanos();
  std::string wire = request.ToJson().Dump();
  size_t sent = 0;
  while (sent < wire.size()) {
    ssize_t n =
        ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return Internal("send() failed");
    sent += static_cast<size_t>(n);
  }
  // Wait for the matching response (no longer than the deadline allows);
  // queue notifications seen on the way.
  for (int spins = 0; spins < 10000; ++spins) {
    for (auto it = inbox_.begin(); it != inbox_.end(); ++it) {
      if (it->kind == JsonRpcMessage::Kind::kResponse && it->id == id) {
        JsonRpcMessage response = std::move(*it);
        inbox_.erase(it);
        return response;
      }
    }
    if (deadline.expired()) {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.deadline_rejects;
      return DeadlineExceeded(method + ": deadline expired awaiting response");
    }
    NERPA_RETURN_IF_ERROR(ReadMore(deadline.remaining_ms(/*ceiling_ms=*/1000)));
  }
  return Internal("no response to '" + method + "'");
}

Result<JsonRpcMessage> OvsdbClient::Call(const std::string& method,
                                         Json params, Deadline deadline) {
  // Keep a copy for the single heal-and-retry; skipped when healing is off
  // (or when already inside a heal, where CallRaw is used directly).
  Json retry_params = heal_.enabled ? params : Json();
  Json id = NextId();
  Result<JsonRpcMessage> result =
      CallRaw(method, std::move(params), id, deadline);
  if (result.ok()) {
    heal_budget_.RecordSuccess();
    return result;
  }
  if (!heal_.enabled || healing_ ||
      result.status().code() == StatusCode::kDeadlineExceeded) {
    return result;
  }
  // A heal is pointless work for a caller whose clock already ran out.
  NERPA_RETURN_IF_ERROR(CheckDeadline(deadline, method.c_str()));
  NERPA_RETURN_IF_ERROR(Heal());
  // Same id on the retry: if the server applied the request but the
  // response was lost in the fault, it answers from its transact cache
  // instead of applying the transaction a second time.
  return CallRaw(method, std::move(retry_params), id, deadline);
}

Status OvsdbClient::Echo() {
  NERPA_ASSIGN_OR_RETURN(
      JsonRpcMessage response,
      Call("echo", Json(Json::Array{Json("ping")})));
  if (!response.error.is_null()) {
    return Internal("echo error: " + response.error.Dump());
  }
  return Status::Ok();
}

Result<DatabaseSchema> OvsdbClient::GetSchema() {
  NERPA_ASSIGN_OR_RETURN(JsonRpcMessage response,
                         Call("get_schema", Json(Json::Array{})));
  if (!response.error.is_null()) {
    return Internal("get_schema error: " + response.error.Dump());
  }
  return DatabaseSchema::FromJson(response.result);
}

Result<Json> OvsdbClient::Transact(Json operations, Deadline deadline) {
  if (!operations.is_array()) {
    return InvalidArgument("transact takes an array of operations");
  }
  Json::Array params;
  params.push_back(Json("db"));
  for (Json& op : operations.as_array()) params.push_back(std::move(op));
  NERPA_ASSIGN_OR_RETURN(
      JsonRpcMessage response,
      Call("transact", Json(std::move(params)), deadline));
  if (!response.error.is_null()) {
    std::string error = response.error.Dump();
    if (error.find("deadline exceeded") != std::string::npos) {
      return DeadlineExceeded("transact: " + error);
    }
    return FailedPrecondition("transact error: " + error);
  }
  return response.result;
}

Result<Json> OvsdbClient::Monitor(Json monitor_id,
                                  const std::vector<std::string>& tables,
                                  UpdateHandler handler) {
  std::map<std::string, std::vector<std::string>> spec;
  for (const std::string& table : tables) spec[table];  // all columns
  return RegisterMonitor(std::move(monitor_id), std::move(spec),
                         std::move(handler));
}

Result<Json> OvsdbClient::MonitorColumns(
    Json monitor_id, std::map<std::string, std::vector<std::string>> spec,
    UpdateHandler handler) {
  return RegisterMonitor(std::move(monitor_id), std::move(spec),
                         std::move(handler));
}

Result<Json> OvsdbClient::RegisterMonitor(
    Json monitor_id, std::map<std::string, std::vector<std::string>> spec,
    UpdateHandler handler) {
  std::string key = monitor_id.Dump();
  if (registrations_.count(key) != 0) {
    return AlreadyExists("monitor id " + key + " already registered");
  }
  Json::Array params;
  params.push_back(Json("db"));
  params.push_back(monitor_id);
  params.push_back(SpecToRequests(spec));
  params.push_back(Json(static_cast<int64_t>(-1)));  // no prior session
  NERPA_ASSIGN_OR_RETURN(JsonRpcMessage response,
                         Call("monitor_since", Json(std::move(params))));
  if (!response.error.is_null()) {
    return FailedPrecondition("monitor error: " + response.error.Dump());
  }
  const Json& reply = response.result;
  if (!reply.is_array() || reply.as_array().size() < 3 ||
      !reply.as_array()[2].is_array()) {
    return Internal("malformed monitor_since reply: " + reply.Dump());
  }
  MonitorReg reg;
  reg.id = monitor_id;
  reg.spec = std::move(spec);
  reg.handler = std::move(handler);
  if (reply.as_array()[1].is_integer()) {
    reg.last_txn_id = reply.as_array()[1].as_integer();
  }
  if (reply.as_array().size() >= 4 && reply.as_array()[3].is_string()) {
    server_epoch_ = reply.as_array()[3].as_string();
  }
  // With last=-1 the server always answers found=false: one full dump,
  // which is exactly the initial contents.
  Json initial = reply.as_array()[2].as_array().empty()
                     ? Json(Json::Object{})
                     : reply.as_array()[2].as_array()[0];
  registrations_[key] = std::move(reg);
  return initial;
}

Result<Json> OvsdbClient::Fetch(const std::string& table, Json where,
                                std::vector<std::string> columns,
                                Deadline deadline) {
  Json::Array columns_json;
  for (std::string& column : columns) {
    columns_json.push_back(Json(std::move(column)));
  }
  NERPA_ASSIGN_OR_RETURN(
      JsonRpcMessage response,
      Call("fetch",
           Json(Json::Array{Json("db"), Json(table), std::move(where),
                            Json(std::move(columns_json))}),
           deadline));
  if (!response.error.is_null()) {
    std::string error = response.error.Dump();
    if (error.find("deadline exceeded") != std::string::npos) {
      return DeadlineExceeded("fetch: " + error);
    }
    return FailedPrecondition("fetch error: " + error);
  }
  return response.result;
}

Status OvsdbClient::SetPriority(int level) {
  NERPA_ASSIGN_OR_RETURN(
      JsonRpcMessage response,
      Call("set_priority",
           Json(Json::Array{Json(static_cast<int64_t>(level))})));
  if (!response.error.is_null()) {
    return FailedPrecondition("set_priority error: " + response.error.Dump());
  }
  priority_level_ = level;  // re-asserted by future heals
  return Status::Ok();
}

Status OvsdbClient::MonitorCancel(const Json& monitor_id) {
  std::string key = monitor_id.Dump();
  bool known = registrations_.erase(key) > 0;
  Result<JsonRpcMessage> response =
      Call("monitor_cancel", Json(Json::Array{monitor_id}));
  if (!response.ok()) {
    // Dead transport with healing off or exhausted: a dead session's
    // server half died with the socket, so cancelling a monitor we held
    // is a no-op success.  An id we never knew is still an error.
    return known ? Status::Ok() : response.status();
  }
  if (!response->error.is_null()) {
    // A heal mid-cancel re-registers only the surviving monitors, so the
    // retried cancel finds nothing server-side; that is success too.
    std::string error = response->error.Dump();
    if (known && error.find("no monitor") != std::string::npos) {
      return Status::Ok();
    }
    return FailedPrecondition("monitor_cancel error: " + error);
  }
  return Status::Ok();
}

Result<int> OvsdbClient::Poll() {
  Status status =
      fd_ < 0 ? FailedPrecondition("not connected") : ReadMore(/*timeout_ms=*/0);
  int healed = 0;
  if (!status.ok()) {
    if (!heal_.enabled) return status;
    NERPA_RETURN_IF_ERROR(Heal());
    healed = heal_delivered_;
  }
  return DeliverQueued() + healed;
}

Result<int> OvsdbClient::WaitForUpdate(int timeout_ms) {
  int waited = 0;
  while (true) {
    int delivered = DeliverQueued();
    if (delivered > 0) return delivered;
    if (waited >= timeout_ms) return 0;
    Status status =
        fd_ < 0 ? FailedPrecondition("not connected") : ReadMore(50);
    if (!status.ok()) {
      if (!heal_.enabled) return status;
      NERPA_RETURN_IF_ERROR(Heal());
      if (heal_delivered_ > 0) return heal_delivered_;
    }
    waited += 50;
  }
}

}  // namespace nerpa::ovsdb
