#include "gateway/gateway.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

#include "common/clock.h"
#include "common/retry.h"
#include "common/strings.h"

namespace nerpa::gateway {

namespace {

constexpr uint64_t kListenId = 0;
constexpr uint64_t kWakeId = 1;

int SetNonBlocking(int fd) {
  int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0) return -1;
  return fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Maps a backend Status onto an HTTP response.  Callers that can reach
/// 503 use Gateway::BackendError, which adds the computed Retry-After.
HttpResponse StatusResponse(const Status& status) {
  int http = 500;
  switch (status.code()) {
    case StatusCode::kNotFound:
      http = 404;
      break;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kTypeError:
    case StatusCode::kConstraintError:
      http = 400;
      break;
    case StatusCode::kAlreadyExists:
      http = 409;
      break;
    case StatusCode::kDeadlineExceeded:
      http = 504;
      break;
    case StatusCode::kFailedPrecondition:
      // The client wraps both per-op failures ("transact error: ...") and a
      // dead transport in this code; only the latter is the server's fault.
      http = StartsWith(status.message(), "transact error") ? 400 : 503;
      break;
    default:
      http = 500;
      break;
  }
  return JsonResponse(
      http, Json(Json::Object{
                {"error", Json(status.message())},
                {"code", Json(std::string(StatusCodeName(status.code())))}}));
}

HttpResponse ShedResponse(int retry_after_seconds) {
  HttpResponse response = ErrorResponse(503, "overloaded, retry later");
  response.headers["Retry-After"] = std::to_string(retry_after_seconds);
  return response;
}

HttpResponse DeadlineResponse(const char* where) {
  return ErrorResponse(
      504, StrFormat("deadline exceeded (%s)", where));
}

/// The request's deadline: X-Nerpa-Deadline-Ms (a positive millisecond
/// budget) when present and parseable, else the configured default, else
/// infinite.
Deadline RequestDeadline(const HttpRequest& request,
                         int64_t default_deadline_nanos) {
  const std::string& header = request.Header("x-nerpa-deadline-ms");
  if (!header.empty()) {
    errno = 0;
    char* end = nullptr;
    long long ms = std::strtoll(header.c_str(), &end, 10);
    if (errno == 0 && end != header.c_str() && *end == '\0') {
      // A non-positive budget is a budget already spent, not a parse
      // error: the client said "don't bother" and gets an honest 504.
      return Deadline::AfterNanos(ms * 1'000'000);
    }
  }
  if (default_deadline_nanos > 0) {
    return Deadline::AfterNanos(default_deadline_nanos);
  }
  return Deadline();
}

/// Types a query-parameter string as an OVSDB wire atom of `type`.
Result<Json> TypeQueryValue(ovsdb::AtomicType type, const std::string& text) {
  switch (type) {
    case ovsdb::AtomicType::kInteger: {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(text.c_str(), &end, 10);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        return InvalidArgument(StrFormat("bad integer %s",
                                         QuoteString(text).c_str()));
      }
      return Json(static_cast<int64_t>(v));
    }
    case ovsdb::AtomicType::kReal: {
      errno = 0;
      char* end = nullptr;
      double v = std::strtod(text.c_str(), &end);
      if (errno != 0 || end == text.c_str() || *end != '\0') {
        return InvalidArgument(StrFormat("bad real %s",
                                         QuoteString(text).c_str()));
      }
      return Json(v);
    }
    case ovsdb::AtomicType::kBoolean:
      if (text == "true") return Json(true);
      if (text == "false") return Json(false);
      return InvalidArgument(StrFormat("bad boolean %s",
                                       QuoteString(text).c_str()));
    case ovsdb::AtomicType::kUuid:
      return Json(Json::Array{Json("uuid"), Json(text)});
    case ovsdb::AtomicType::kString:
      return Json(text);
  }
  return InvalidArgument("unknown atom type");
}

}  // namespace

Gateway::Gateway(Options options)
    : options_(options),
      cache_(options.cache_entries),
      admission_(options.admit_rate_per_sec, options.admit_burst,
                 options.max_inflight) {}

Gateway::~Gateway() { Stop(); }

Status Gateway::Start() {
  if (options_.backend_port == 0) {
    return InvalidArgument("gateway: backend_port is required");
  }
  if (options_.workers < 1) options_.workers = 1;

  // Backend sessions: one client per worker plus the monitor pump, all
  // self-healing so a backend restart degrades to errors, not a dead
  // gateway.
  ovsdb::OvsdbClient::HealPolicy heal;
  heal.enabled = true;
  pump_client_ = std::make_unique<ovsdb::OvsdbClient>();
  pump_client_->set_heal_policy(heal);
  NERPA_RETURN_IF_ERROR(
      pump_client_->Connect(options_.backend_host, options_.backend_port));
  NERPA_ASSIGN_OR_RETURN(schema_, pump_client_->GetSchema());

  // The invalidation monitor must be live before the first cached read, or
  // an update could slip between a fetch and its Insert unnoticed.
  auto on_update = [this](const Json&, const Json& updates) {
    if (!updates.is_object()) return;
    for (const auto& [table, delta] : updates.as_object()) {
      (void)delta;
      cache_.Bump(table);
      std::lock_guard<std::mutex> lock(changes_mu_);
      changes_.push_back(Change{++change_seq_, table});
      while (changes_.size() > options_.changes_ring_capacity) {
        changes_.pop_front();
      }
    }
  };
  {
    auto initial = pump_client_->Monitor(Json("gateway-pump"), {}, on_update);
    if (!initial.ok()) return initial.status();
  }

  for (int i = 0; i < options_.workers; ++i) {
    auto client = std::make_unique<ovsdb::OvsdbClient>();
    client->set_heal_policy(heal);
    NERPA_RETURN_IF_ERROR(
        client->Connect(options_.backend_host, options_.backend_port));
    clients_.push_back(std::move(client));
    free_clients_.push_back(static_cast<size_t>(i));
  }

  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Internal("gateway: socket() failed");
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.http_port);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    return Internal(StrFormat("gateway: bind(%u) failed: %s",
                              options_.http_port, std::strerror(errno)));
  }
  if (listen(listen_fd_, 128) < 0) {
    return Internal("gateway: listen() failed");
  }
  socklen_t len = sizeof(addr);
  getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  http_port_ = ntohs(addr.sin_port);
  SetNonBlocking(listen_fd_);

  if (pipe(wake_pipe_) < 0) return Internal("gateway: pipe() failed");
  SetNonBlocking(wake_pipe_[0]);
  SetNonBlocking(wake_pipe_[1]);

  epoll_fd_ = epoll_create1(0);
  if (epoll_fd_ < 0) return Internal("gateway: epoll_create1() failed");
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kListenId;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.u64 = kWakeId;
  epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_pipe_[0], &ev);

  pool_ = std::make_unique<ThreadPool>(static_cast<size_t>(options_.workers));
  running_ = true;
  stopping_ = false;
  event_thread_ = std::thread([this] { EventLoop(); });
  pump_thread_ = std::thread([this] { PumpThread(); });
  return Status::Ok();
}

void Gateway::Stop() {
  if (!running_.exchange(false)) {
    // Start() may have failed partway: release what exists.
    stopping_ = true;
    if (pump_thread_.joinable()) pump_thread_.join();
    if (event_thread_.joinable()) event_thread_.join();
  } else {
    stopping_ = true;
    char byte = 1;
    (void)!write(wake_pipe_[1], &byte, 1);
    if (event_thread_.joinable()) event_thread_.join();
    if (pool_) pool_->WaitIdle();
    if (pump_thread_.joinable()) pump_thread_.join();
  }
  pool_.reset();
  for (auto& client : clients_) {
    if (client) client->Disconnect();
  }
  clients_.clear();
  free_clients_.clear();
  if (pump_client_) pump_client_->Disconnect();
  pump_client_.reset();
  if (epoll_fd_ >= 0) close(epoll_fd_);
  epoll_fd_ = -1;
  for (int i = 0; i < 2; ++i) {
    if (wake_pipe_[i] >= 0) close(wake_pipe_[i]);
    wake_pipe_[i] = -1;
  }
  if (listen_fd_ >= 0) close(listen_fd_);
  listen_fd_ = -1;
}

void Gateway::PumpThread() {
  // Jittered backoff between pump recovery attempts: many gateways losing
  // one backend must not re-dial it in lockstep.
  BackoffPolicy policy;
  policy.initial_nanos = 10'000'000;   // 10 ms
  policy.max_nanos = 500'000'000;      // 500 ms
  Backoff backoff(policy, reinterpret_cast<uintptr_t>(this) ^
                              static_cast<uint64_t>(MonotonicNanos()));
  while (!stopping_.load(std::memory_order_relaxed)) {
    if (options_.watchdog != nullptr) options_.watchdog->Beat("gateway.pump");
    auto delivered = pump_client_->WaitForUpdate(50);
    if (delivered.ok()) {
      backoff.Reset();
      continue;
    }
    // Transport down and the heal budget exhausted for this attempt; back
    // off and keep trying — the backend may come back.  Sleep in small
    // slices so Stop() stays responsive.
    int64_t remaining = backoff.NextDelayNanos();
    while (remaining > 0 && !stopping_.load(std::memory_order_relaxed)) {
      int64_t slice = std::min<int64_t>(remaining, 10'000'000);
      std::this_thread::sleep_for(std::chrono::nanoseconds(slice));
      remaining -= slice;
    }
  }
}

void Gateway::EventLoop() {
  std::vector<epoll_event> events(64);
  int64_t stop_deadline_ns = -1;
  while (true) {
    if (stopping_.load(std::memory_order_relaxed)) {
      if (stop_deadline_ns < 0) {
        stop_deadline_ns =
            MonotonicNanos() + int64_t{kDrainDeadlineMs} * 1000000;
        if (listen_fd_ >= 0) {
          // A client whose handshake completed before Stop() sits in the
          // accept backlog, possibly with its request already sent; take
          // it in so the drain below answers it instead of resetting it.
          AcceptClients();
          epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, listen_fd_, nullptr);
          close(listen_fd_);
          listen_fd_ = -1;
        }
      }
      // Requests already sitting in a socket buffer count as accepted:
      // ingest them before deciding who is idle, or a client that sent
      // just before Stop() gets cut off instead of answered.
      std::vector<uint64_t> open;
      for (const auto& [id, conn] : conns_) open.push_back(id);
      for (uint64_t id : open) {
        if (conns_.count(id) != 0) ReadConn(id);
      }
      // Close connections with nothing left to say; leave draining ones.
      std::vector<uint64_t> idle;
      bool busy = false;
      for (const auto& [id, conn] : conns_) {
        if (!conn.inflight && conn.pending.empty() && conn.outbox.empty()) {
          idle.push_back(id);
        } else {
          busy = true;
        }
      }
      for (uint64_t id : idle) CloseConn(id);
      {
        std::lock_guard<std::mutex> lock(completions_mu_);
        busy = busy || !completions_.empty();
      }
      if (!busy || MonotonicNanos() > stop_deadline_ns) break;
    }

    int n = epoll_wait(epoll_fd_, events.data(),
                       static_cast<int>(events.size()), 50);
    for (int i = 0; i < n; ++i) {
      uint64_t id = events[i].data.u64;
      uint32_t mask = events[i].events;
      if (id == kListenId) {
        AcceptClients();
      } else if (id == kWakeId) {
        char buf[256];
        while (read(wake_pipe_[0], buf, sizeof(buf)) > 0) {
        }
      } else {
        if (mask & (EPOLLIN | EPOLLHUP | EPOLLERR)) ReadConn(id);
        if (conns_.count(id) && (mask & EPOLLOUT)) WriteConn(id);
      }
    }
    DrainCompletions();
  }
  // Deadline hit or fully drained: everything left closes hard.
  std::vector<uint64_t> remaining;
  for (const auto& [id, conn] : conns_) remaining.push_back(id);
  for (uint64_t id : remaining) CloseConn(id);
}

void Gateway::AcceptClients() {
  while (true) {
    int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or error — nothing more to accept
    SetNonBlocking(fd);
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    uint64_t id = next_conn_id_++;
    Conn& conn = conns_[id];
    conn.fd = fd;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = id;
    epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void Gateway::UpdateInterest(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  epoll_event ev{};
  ev.events = 0;
  if (!conn.reading_paused) ev.events |= EPOLLIN;
  if (!conn.outbox.empty()) ev.events |= EPOLLOUT;
  ev.data.u64 = id;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
}

void Gateway::CloseConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, it->second.fd, nullptr);
  close(it->second.fd);
  conns_.erase(it);
}

void Gateway::ReadConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (conn.reading_paused) return;
  char buf[64 * 1024];
  while (true) {
    ssize_t got = recv(conn.fd, buf, sizeof(buf), 0);
    if (got == 0) {
      CloseConn(id);
      return;
    }
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      CloseConn(id);
      return;
    }
    Status fed = conn.parser.Feed(std::string_view(buf, got));
    while (conn.parser.HasRequest()) {
      conn.pending.push_back(conn.parser.PopRequest());
    }
    if (!fed.ok()) {
      // Framing is unrecoverable: answer what we can, then close.
      conn.outbox += ErrorResponse(400, fed.message()).Serialize(false);
      conn.close_after_flush = true;
      conn.reading_paused = true;
      break;
    }
    if (static_cast<ssize_t>(sizeof(buf)) != got) break;  // likely drained
  }
  auto again = conns_.find(id);
  if (again == conns_.end()) return;
  if (again->second.pending.size() >= options_.max_pending_per_conn) {
    again->second.reading_paused = true;  // TCP backpressure
  }
  ServeConn(id);
  if (conns_.count(id)) {
    UpdateInterest(id);
    WriteConn(id);
  }
}

void Gateway::WriteConn(uint64_t id) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  while (!conn.outbox.empty()) {
    ssize_t sent = send(conn.fd, conn.outbox.data(), conn.outbox.size(),
                        MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
      CloseConn(id);
      return;
    }
    conn.outbox.erase(0, static_cast<size_t>(sent));
  }
  if (conn.outbox.empty() && conn.close_after_flush && !conn.inflight) {
    CloseConn(id);
    return;
  }
  UpdateInterest(id);
}

void Gateway::QueueResponse(uint64_t id, const HttpResponse& response,
                            bool keep_alive) {
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  conn.outbox += response.Serialize(keep_alive);
  if (!keep_alive) conn.close_after_flush = true;
  if (conn.outbox.size() > options_.max_outbox_bytes) {
    // The peer stopped reading while responses kept accumulating.
    slow_client_drops_.fetch_add(1, std::memory_order_relaxed);
    CloseConn(id);
  }
}

void Gateway::ServeConn(uint64_t id) {
  while (true) {
    auto it = conns_.find(id);
    if (it == conns_.end()) return;
    Conn& conn = it->second;
    if (conn.inflight || conn.pending.empty()) break;
    HttpRequest request = std::move(conn.pending.front());
    conn.pending.pop_front();
    Dispatch(id, conn, std::move(request));
  }
  auto it = conns_.find(id);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  if (conn.reading_paused && !conn.close_after_flush &&
      conn.pending.size() < options_.max_pending_per_conn) {
    conn.reading_paused = false;
    UpdateInterest(id);
  }
}

void Gateway::DrainCompletions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(completions_mu_);
    batch.swap(completions_);
  }
  for (auto& done : batch) {
    auto it = conns_.find(done.conn_id);
    if (it == conns_.end()) continue;  // connection died while we worked
    it->second.inflight = false;
    QueueResponse(done.conn_id, done.response, done.keep_alive);
    ServeConn(done.conn_id);
    if (conns_.count(done.conn_id)) {
      WriteConn(done.conn_id);
    }
  }
}

size_t Gateway::AcquireClient() {
  std::unique_lock<std::mutex> lock(clients_mu_);
  clients_cv_.wait(lock, [this] { return !free_clients_.empty(); });
  size_t index = free_clients_.back();
  free_clients_.pop_back();
  return index;
}

void Gateway::ReleaseClient(size_t index) {
  {
    std::lock_guard<std::mutex> lock(clients_mu_);
    free_clients_.push_back(index);
  }
  clients_cv_.notify_one();
}

HttpResponse Gateway::BackendError(const Status& status) const {
  HttpResponse response = StatusResponse(status);
  if (response.status == 503) {
    response.headers["Retry-After"] =
        std::to_string(admission_.RetryAfterSeconds(MonotonicNanos()));
  }
  return response;
}

void Gateway::SubmitBackend(
    uint64_t id, bool keep_alive, bool admitted, Deadline deadline,
    std::function<HttpResponse(ovsdb::OvsdbClient&, const Deadline&)> work) {
  pool_->Submit([this, id, keep_alive, admitted, deadline,
                 work = std::move(work)] {
    int64_t start = MonotonicNanos();
    HttpResponse response;
    if (deadline.expired(start)) {
      // The request aged out while queued: drop it here, before it costs
      // a backend client, a fetch, or a transact evaluation.
      deadline_drops_.fetch_add(1, std::memory_order_relaxed);
      if (admitted) admission_.Release();
      response = DeadlineResponse("queued at gateway");
    } else {
      size_t index = AcquireClient();
      response = work(*clients_[index], deadline);
      ReleaseClient(index);
      if (admitted) {
        // Feed the adaptive limit: 5xx (including 504) and shed-worthy
        // latencies shrink it, healthy round-trips grow it.
        admission_.OnOutcome(MonotonicNanos(), MonotonicNanos() - start,
                             response.status < 500);
      }
    }
    {
      std::lock_guard<std::mutex> lock(completions_mu_);
      completions_.push_back(Completion{id, std::move(response), keep_alive});
    }
    char byte = 1;
    (void)!write(wake_pipe_[1], &byte, 1);
  });
}

HttpResponse Gateway::HandleStats() const {
  int64_t now = MonotonicNanos();
  Json::Object cache{{"hits", Json(static_cast<int64_t>(cache_.hits()))},
                     {"misses", Json(static_cast<int64_t>(cache_.misses()))},
                     {"evictions",
                      Json(static_cast<int64_t>(cache_.evictions()))},
                     {"stale_hits",
                      Json(static_cast<int64_t>(cache_.stale_hits()))},
                     {"entries", Json(static_cast<int64_t>(cache_.size()))}};
  Json::Object shed_by_priority;
  for (size_t i = 0; i < kPriorityClasses; ++i) {
    Priority priority = static_cast<Priority>(i);
    shed_by_priority[PriorityName(priority)] =
        Json(static_cast<int64_t>(admission_.shed_by_priority(priority)));
  }
  Json::Object admission{
      {"admitted", Json(static_cast<int64_t>(admission_.admitted()))},
      {"shed", Json(static_cast<int64_t>(admission_.shed()))},
      {"shed_by_priority", Json(std::move(shed_by_priority))},
      {"inflight", Json(static_cast<int64_t>(admission_.inflight()))},
      {"limit", Json(admission_.limit())},
      {"limit_decreases",
       Json(static_cast<int64_t>(admission_.limit_decreases()))},
      {"ewma_latency_nanos", Json(admission_.ewma_latency_nanos())},
      {"brownout", Json(admission_.InBrownout(now))}};
  Json::Object health;
  if (options_.watchdog != nullptr) {
    for (const auto& [name, state] : options_.watchdog->Snapshot(now)) {
      health[name] = Json(Json::Object{
          {"beats", Json(static_cast<int64_t>(state.beats))},
          {"stuck", Json(state.stuck)},
          {"last_beat_age_nanos",
           Json(state.last_beat_nanos == 0 ? int64_t{-1}
                                           : now - state.last_beat_nanos)}});
    }
  }
  uint64_t latest;
  {
    std::lock_guard<std::mutex> lock(changes_mu_);
    latest = change_seq_;
  }
  return JsonResponse(
      200,
      Json(Json::Object{
          {"requests", Json(static_cast<int64_t>(requests_served()))},
          {"active_connections", Json(static_cast<int64_t>(conns_.size()))},
          {"slow_client_drops",
           Json(static_cast<int64_t>(slow_client_drops()))},
          {"deadline_drops", Json(static_cast<int64_t>(deadline_drops()))},
          {"stale_served", Json(static_cast<int64_t>(stale_served()))},
          {"cache", Json(std::move(cache))},
          {"admission", Json(std::move(admission))},
          {"health", Json(std::move(health))},
          {"changes_seq", Json(static_cast<int64_t>(latest))}}));
}

HttpResponse Gateway::HandleChanges(const HttpRequest& request) const {
  uint64_t since = 0;
  auto it = request.query.find("since");
  if (it != request.query.end()) {
    errno = 0;
    char* end = nullptr;
    unsigned long long v = std::strtoull(it->second.c_str(), &end, 10);
    if (errno != 0 || end == it->second.c_str() || *end != '\0') {
      return ErrorResponse(400, "bad since parameter");
    }
    since = v;
  }
  Json::Array out;
  uint64_t latest = 0;
  uint64_t oldest = 0;
  {
    std::lock_guard<std::mutex> lock(changes_mu_);
    latest = change_seq_;
    if (!changes_.empty()) oldest = changes_.front().seq;
    for (const Change& change : changes_) {
      if (change.seq <= since) continue;
      out.push_back(Json(Json::Object{
          {"seq", Json(static_cast<int64_t>(change.seq))},
          {"table", Json(change.table)}}));
    }
  }
  // A `since` older than the ring means deltas were lost: the caller must
  // re-read the tables it cares about, so say so explicitly.
  bool gap = since + 1 < oldest;
  return JsonResponse(200,
                      Json(Json::Object{
                          {"latest", Json(static_cast<int64_t>(latest))},
                          {"gap", Json(gap)},
                          {"changes", Json(std::move(out))}}));
}

Result<Json> Gateway::WhereFromQuery(
    const ovsdb::TableSchema& table,
    const std::map<std::string, std::string>& query) const {
  Json::Array clauses;
  for (const auto& [name, text] : query) {
    if (name == "columns") continue;
    ovsdb::AtomicType type;
    if (name == "_uuid") {
      type = ovsdb::AtomicType::kUuid;
    } else {
      const ovsdb::ColumnSchema* column = table.FindColumn(name);
      if (column == nullptr) {
        return InvalidArgument(StrFormat("no column %s in table %s",
                                         QuoteString(name).c_str(),
                                         QuoteString(table.name).c_str()));
      }
      type = column->type.key.type;
    }
    NERPA_ASSIGN_OR_RETURN(Json value, TypeQueryValue(type, text));
    clauses.push_back(
        Json(Json::Array{Json(name), Json("=="), std::move(value)}));
  }
  return Json(std::move(clauses));
}

HttpResponse Gateway::DoTableRead(ovsdb::OvsdbClient& client,
                                  std::string table, Json where,
                                  std::vector<std::string> columns,
                                  std::string cache_key, bool cacheable,
                                  bool single, uint64_t generation,
                                  const Deadline& deadline) {
  auto fetched =
      client.Fetch(table, std::move(where), std::move(columns), deadline);
  if (!fetched.ok()) return BackendError(fetched.status());
  if (single) {
    const Json* rows = fetched.value().Find("rows");
    if (rows != nullptr && rows->is_array() && rows->as_array().empty()) {
      return ErrorResponse(404, "row not found");
    }
  }
  HttpResponse response = JsonResponse(200, fetched.value());
  response.headers["X-Cache"] = "miss";
  if (cacheable) {
    cache_.Insert(cache_key, table, generation, response.body);
  }
  return response;
}

HttpResponse Gateway::DoTransact(ovsdb::OvsdbClient& client, std::string body,
                                 const Deadline& deadline) {
  auto parsed = Json::Parse(body);
  if (!parsed.ok()) return BackendError(parsed.status());
  if (!parsed.value().is_array()) {
    return ErrorResponse(400, "transact body must be an array of operations");
  }
  auto results = client.Transact(std::move(parsed).value(), deadline);
  if (!results.ok()) return BackendError(results.status());
  return JsonResponse(
      200, Json(Json::Object{{"results", std::move(results).value()}}));
}

HttpResponse Gateway::DoJsonRpc(ovsdb::OvsdbClient& client, std::string body,
                                const Deadline& deadline) {
  auto parsed = Json::Parse(body);
  if (!parsed.ok()) return BackendError(parsed.status());
  const Json& doc = parsed.value();
  const Json* method = doc.Find("method");
  if (method == nullptr || !method->is_string()) {
    return ErrorResponse(400, "jsonrpc body needs a string \"method\"");
  }
  const Json* params_field = doc.Find("params");
  Json params = params_field == nullptr ? Json(Json::Array{}) : *params_field;
  const Json* id_field = doc.Find("id");
  Json id = id_field == nullptr ? Json(nullptr) : *id_field;

  auto reply = [&id](Json result) {
    return JsonResponse(200, Json(Json::Object{{"id", id},
                                               {"result", std::move(result)},
                                               {"error", Json(nullptr)}}));
  };
  auto rpc_error = [&id](const std::string& message) {
    return JsonResponse(200,
                        Json(Json::Object{{"id", id},
                                          {"result", Json(nullptr)},
                                          {"error", Json(message)}}));
  };

  const std::string& name = method->as_string();
  if (name == "echo") return reply(std::move(params));
  if (name == "get_schema") return reply(schema_.ToJson());
  if (name == "transact") {
    if (!params.is_array()) return rpc_error("transact params must be array");
    auto results = client.Transact(std::move(params), deadline);
    if (!results.ok()) return rpc_error(results.status().ToString());
    return reply(std::move(results).value());
  }
  if (name == "fetch") {
    if (!params.is_array() || params.as_array().empty() ||
        !params.as_array()[0].is_string()) {
      return rpc_error("fetch params: [table, where?, columns?]");
    }
    const Json::Array& args = params.as_array();
    Json where = args.size() > 1 ? args[1] : Json(Json::Array{});
    std::vector<std::string> columns;
    if (args.size() > 2 && args[2].is_array()) {
      for (const Json& c : args[2].as_array()) {
        if (c.is_string()) columns.push_back(c.as_string());
      }
    }
    auto fetched =
        client.Fetch(args[0].as_string(), std::move(where), columns, deadline);
    if (!fetched.ok()) return rpc_error(fetched.status().ToString());
    return reply(std::move(fetched).value());
  }
  return rpc_error(StrFormat("unknown method %s", QuoteString(name).c_str()));
}

void Gateway::Dispatch(uint64_t id, Conn& conn, HttpRequest request) {
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  const bool keep_alive = request.keep_alive();
  const Deadline deadline =
      RequestDeadline(request, options_.default_deadline_nanos);

  if (request.method == "GET") {
    if (request.path == "/healthz") {
      QueueResponse(id, JsonResponse(200, Json(Json::Object{
                                              {"ok", Json(true)}})),
                    keep_alive);
      return;
    }
    if (request.path == "/readyz") {
      // Liveness vs. readiness: /healthz answers 200 as long as the
      // process serves; /readyz answers 503 on a standby so traffic
      // drains to the leader (hinted in X-Nerpa-Leader).
      Readiness state;
      if (options_.readiness) state = options_.readiness();
      // A stuck subsystem (an armed watchdog operation past its bound —
      // e.g. a hung WAL fsync or a dead monitor pump) also drains traffic
      // away, even while leadership says "ready".
      Json::Array stuck_names;
      if (options_.watchdog != nullptr) {
        for (const std::string& name :
             options_.watchdog->StuckSubsystems(MonotonicNanos())) {
          stuck_names.push_back(Json(name));
        }
      }
      const bool ready = state.ready && stuck_names.empty();
      HttpResponse response = JsonResponse(
          ready ? 200 : 503,
          Json(Json::Object{{"ready", Json(ready)},
                            {"stuck", Json(std::move(stuck_names))}}));
      if (!ready) {
        response.headers["Retry-After"] = std::to_string(
            admission_.RetryAfterSeconds(MonotonicNanos()));
        if (!state.leader_hint.empty()) {
          response.headers["X-Nerpa-Leader"] = state.leader_hint;
        }
      }
      QueueResponse(id, std::move(response), keep_alive);
      return;
    }
    if (request.path == "/v1/stats") {
      QueueResponse(id, HandleStats(), keep_alive);
      return;
    }
    if (request.path == "/v1/tables") {
      Json::Array names;
      for (const auto& [name, table] : schema_.tables) {
        (void)table;
        names.push_back(Json(name));
      }
      QueueResponse(id,
                    JsonResponse(200, Json(Json::Object{
                                          {"tables", Json(std::move(names))}})),
                    keep_alive);
      return;
    }
    if (request.path == "/v1/changes") {
      QueueResponse(id, HandleChanges(request), keep_alive);
      return;
    }
    if (StartsWith(request.path, "/v1/table/")) {
      std::string rest = request.path.substr(std::strlen("/v1/table/"));
      std::string table_name = rest;
      std::string row_uuid;
      size_t slash = rest.find('/');
      bool single = false;
      if (slash != std::string::npos) {
        table_name = rest.substr(0, slash);
        row_uuid = rest.substr(slash + 1);
        single = true;
        if (row_uuid.empty() || row_uuid.find('/') != std::string::npos) {
          QueueResponse(id, ErrorResponse(404, "bad row path"), keep_alive);
          return;
        }
      }
      const ovsdb::TableSchema* table = schema_.FindTable(table_name);
      if (table == nullptr) {
        QueueResponse(id,
                      ErrorResponse(404, StrFormat("no table %s",
                                                   QuoteString(table_name)
                                                       .c_str())),
                      keep_alive);
        return;
      }
      Json where;
      if (single) {
        where = Json(Json::Array{Json(Json::Array{
            Json("_uuid"), Json("=="),
            Json(Json::Array{Json("uuid"), Json(row_uuid)})})});
      } else {
        auto built = WhereFromQuery(*table, request.query);
        if (!built.ok()) {
          QueueResponse(id, StatusResponse(built.status()), keep_alive);
          return;
        }
        where = std::move(built).value();
      }
      std::vector<std::string> columns;
      auto columns_it = request.query.find("columns");
      if (columns_it != request.query.end()) {
        for (const std::string& c : Split(columns_it->second, ',')) {
          if (!c.empty()) columns.push_back(c);
        }
      }
      const bool cacheable =
          request.Header("cache-control").find("no-cache") ==
          std::string::npos;
      if (cacheable) {
        auto hit = cache_.Lookup(request.target);
        if (hit.has_value()) {
          HttpResponse response;
          response.status = 200;
          response.body = std::move(*hit);
          response.headers["X-Cache"] = "hit";
          QueueResponse(id, response, keep_alive);
          return;
        }
      }
      int64_t now = MonotonicNanos();
      if (!admission_.TryAdmit(now, Priority::kRead)) {
        // Brownout: the backend pool is saturated, so a possibly-stale
        // cached body (marked for the client) beats another 503 — the
        // paper's read-mostly northbound keeps answering while writes
        // shed.
        if (cacheable && admission_.InBrownout(now)) {
          bool fresh = false;
          auto stale = cache_.LookupStale(request.target, &fresh);
          if (stale.has_value()) {
            stale_served_.fetch_add(1, std::memory_order_relaxed);
            HttpResponse response;
            response.status = 200;
            response.body = std::move(*stale);
            response.headers["X-Cache"] = fresh ? "hit" : "stale";
            response.headers["X-Nerpa-Stale"] = fresh ? "0" : "1";
            QueueResponse(id, response, keep_alive);
            return;
          }
        }
        QueueResponse(id, ShedResponse(admission_.RetryAfterSeconds(now)),
                      keep_alive);
        return;
      }
      // Generation captured before the read: an invalidation racing the
      // fetch lands on a smaller generation and the entry misses later.
      uint64_t generation = cache_.Generation(table_name);
      conn.inflight = true;
      SubmitBackend(id, keep_alive, /*admitted=*/true, deadline,
                    [this, table_name, where = std::move(where),
                     columns = std::move(columns),
                     cache_key = request.target, cacheable, single,
                     generation](ovsdb::OvsdbClient& client,
                                 const Deadline& remaining) mutable {
                      return DoTableRead(client, table_name, std::move(where),
                                         std::move(columns),
                                         std::move(cache_key), cacheable,
                                         single, generation, remaining);
                    });
      return;
    }
    QueueResponse(id, ErrorResponse(404, "no such route"), keep_alive);
    return;
  }

  if (request.method == "POST") {
    if (request.path == "/v1/transact") {
      int64_t now = MonotonicNanos();
      if (!admission_.TryAdmit(now, Priority::kTransact)) {
        QueueResponse(id, ShedResponse(admission_.RetryAfterSeconds(now)),
                      keep_alive);
        return;
      }
      conn.inflight = true;
      SubmitBackend(id, keep_alive, /*admitted=*/true, deadline,
                    [this, body = std::move(request.body)](
                        ovsdb::OvsdbClient& client,
                        const Deadline& remaining) mutable {
                      return DoTransact(client, std::move(body), remaining);
                    });
      return;
    }
    if (request.path == "/jsonrpc") {
      // JSON-RPC bodies may carry a transact, so the whole route takes the
      // write-priority class: at saturation it sheds before plain reads.
      int64_t now = MonotonicNanos();
      if (!admission_.TryAdmit(now, Priority::kTransact)) {
        QueueResponse(id, ShedResponse(admission_.RetryAfterSeconds(now)),
                      keep_alive);
        return;
      }
      conn.inflight = true;
      SubmitBackend(id, keep_alive, /*admitted=*/true, deadline,
                    [this, body = std::move(request.body)](
                        ovsdb::OvsdbClient& client,
                        const Deadline& remaining) mutable {
                      return DoJsonRpc(client, std::move(body), remaining);
                    });
      return;
    }
    QueueResponse(id, ErrorResponse(404, "no such route"), keep_alive);
    return;
  }

  QueueResponse(id, ErrorResponse(405, "method not allowed"), keep_alive);
}

}  // namespace nerpa::gateway
