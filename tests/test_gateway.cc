// Northbound gateway tests: routes, read-through cache coherence,
// admission control and load shedding, JSON-RPC bridging, connection
// lifecycle (keep-alive, pipelining, malformed streams), chaos clients
// (slow readers, abrupt disconnects), and graceful shutdown.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "chaos/chaos.h"
#include "common/clock.h"
#include "common/json.h"
#include "common/strings.h"
#include "gateway/gateway.h"
#include "ovsdb/database.h"
#include "ovsdb/server.h"
#include "snvs/snvs.h"

namespace nerpa::gateway {
namespace {

/// A blocking HTTP/1.1 test client over one TCP connection.
class HttpConn {
 public:
  explicit HttpConn(uint16_t port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd_);
      fd_ = -1;
    }
    int one = 1;
    if (fd_ >= 0) setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~HttpConn() {
    if (fd_ >= 0) close(fd_);
  }

  bool ok() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  bool SendRaw(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      ssize_t sent = send(fd_, data.data() + off, data.size() - off,
                          MSG_NOSIGNAL);
      if (sent <= 0) return false;
      off += static_cast<size_t>(sent);
    }
    return true;
  }

  bool SendRequest(const std::string& method, const std::string& target,
                   const std::string& body = "",
                   const std::map<std::string, std::string>& headers = {}) {
    std::string out = method + " " + target + " HTTP/1.1\r\n";
    out += "Host: localhost\r\n";
    for (const auto& [name, value] : headers) {
      out += name + ": " + value + "\r\n";
    }
    if (!body.empty() || method == "POST") {
      out += StrFormat("Content-Length: %zu\r\n", body.size());
    }
    out += "\r\n";
    out += body;
    return SendRaw(out);
  }

  struct Reply {
    int status = 0;
    std::map<std::string, std::string> headers;  // lower-cased names
    std::string body;
    Json json;  // parsed body (null when unparseable)

    const std::string& Header(const std::string& name) const {
      static const std::string kEmpty;
      auto it = headers.find(name);
      return it == headers.end() ? kEmpty : it->second;
    }
  };

  /// Reads one full response (headers + Content-Length body).
  bool ReadReply(Reply* reply) {
    *reply = Reply{};
    // Accumulate until the blank line.
    size_t head_end;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return false;
    }
    std::string head = buffer_.substr(0, head_end);
    buffer_.erase(0, head_end + 4);
    std::vector<std::string> lines = Split(head, '\n');
    if (lines.empty() || !StartsWith(lines[0], "HTTP/1.1 ")) return false;
    reply->status = std::atoi(lines[0].c_str() + std::strlen("HTTP/1.1 "));
    for (size_t i = 1; i < lines.size(); ++i) {
      std::string line(Trim(lines[i]));
      size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      std::string name = line.substr(0, colon);
      for (char& c : name) c = static_cast<char>(std::tolower(c));
      reply->headers[name] = std::string(Trim(line.substr(colon + 1)));
    }
    size_t length =
        static_cast<size_t>(std::atol(reply->Header("content-length").c_str()));
    while (buffer_.size() < length) {
      if (!Fill()) return false;
    }
    reply->body = buffer_.substr(0, length);
    buffer_.erase(0, length);
    auto parsed = Json::Parse(reply->body);
    if (parsed.ok()) reply->json = std::move(parsed).value();
    return true;
  }

  /// One-shot request + response.
  bool RoundTrip(const std::string& method, const std::string& target,
                 Reply* reply, const std::string& body = "",
                 const std::map<std::string, std::string>& headers = {}) {
    return SendRequest(method, target, body, headers) && ReadReply(reply);
  }

 private:
  bool Fill() {
    char chunk[16 * 1024];
    ssize_t got = recv(fd_, chunk, sizeof(chunk), 0);
    if (got <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(got));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

class GatewayTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server_ = std::make_unique<ovsdb::OvsdbServer>(
        std::make_unique<ovsdb::Database>(snvs::SnvsSchema()));
    ASSERT_TRUE(server_->Start(0).ok());
    options_.backend_port = server_->port();
    options_.workers = 2;
  }

  void StartGateway() {
    gateway_ = std::make_unique<Gateway>(options_);
    ASSERT_TRUE(gateway_->Start().ok());
  }

  void TearDown() override {
    if (gateway_) gateway_->Stop();
    if (server_) server_->Stop();
  }

  HttpConn::Reply Get(const std::string& target,
                      const std::map<std::string, std::string>& headers = {}) {
    HttpConn conn(gateway_->http_port());
    HttpConn::Reply reply;
    EXPECT_TRUE(conn.RoundTrip("GET", target, &reply, "", headers));
    return reply;
  }

  HttpConn::Reply Post(const std::string& target, const std::string& body) {
    HttpConn conn(gateway_->http_port());
    HttpConn::Reply reply;
    EXPECT_TRUE(conn.RoundTrip("POST", target, &reply, body));
    return reply;
  }

  /// Inserts a Port row through the gateway; returns its uuid.
  std::string InsertPort(const std::string& name, int port, int tag) {
    HttpConn::Reply reply = Post(
        "/v1/transact",
        StrFormat(R"([{"op":"insert","table":"Port","row":)"
                  R"({"name":%s,"port":%d,"vlan_mode":"access","tag":%d}}])",
                  QuoteString(name).c_str(), port, tag));
    EXPECT_EQ(reply.status, 200);
    const Json* results = reply.json.Find("results");
    if (results == nullptr || !results->is_array() ||
        results->as_array().empty()) {
      return "";
    }
    const Json* uuid = results->as_array()[0].Find("uuid");
    if (uuid == nullptr || !uuid->is_array() || uuid->as_array().size() != 2) {
      return "";
    }
    return uuid->as_array()[1].as_string();
  }

  /// Polls `target` until its X-Cache: miss body satisfies `want` (the
  /// monitor pump invalidates asynchronously after a write).
  HttpConn::Reply GetFreshUntil(
      const std::string& target,
      const std::function<bool(const HttpConn::Reply&)>& want,
      int timeout_ms = 3000) {
    int64_t deadline = MonotonicNanos() + int64_t{timeout_ms} * 1000000;
    HttpConn::Reply reply;
    while (MonotonicNanos() < deadline) {
      reply = Get(target);
      if (want(reply)) return reply;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return reply;
  }

  std::unique_ptr<ovsdb::OvsdbServer> server_;
  std::unique_ptr<Gateway> gateway_;
  Gateway::Options options_;
};

TEST_F(GatewayTest, LocalRoutes) {
  StartGateway();
  HttpConn::Reply reply = Get("/healthz");
  EXPECT_EQ(reply.status, 200);
  ASSERT_NE(reply.json.Find("ok"), nullptr);
  EXPECT_TRUE(reply.json.Find("ok")->as_bool());

  reply = Get("/v1/tables");
  EXPECT_EQ(reply.status, 200);
  const Json* tables = reply.json.Find("tables");
  ASSERT_NE(tables, nullptr);
  EXPECT_EQ(tables->as_array().size(), 3u);  // AclRule, Mirror, Port

  reply = Get("/v1/stats");
  EXPECT_EQ(reply.status, 200);
  EXPECT_NE(reply.json.Find("cache"), nullptr);
  EXPECT_NE(reply.json.Find("admission"), nullptr);

  EXPECT_EQ(Get("/nope").status, 404);
  HttpConn conn(gateway_->http_port());
  HttpConn::Reply deleted;
  ASSERT_TRUE(conn.RoundTrip("DELETE", "/healthz", &deleted));
  EXPECT_EQ(deleted.status, 405);
}

TEST_F(GatewayTest, ReadyzTracksLeadershipWhileHealthzStaysLive) {
  // A follower's gateway: alive but not ready, redirecting via the hint.
  std::atomic<bool> leading{false};
  options_.readiness = [&leading] {
    Gateway::Readiness state;
    state.ready = leading.load();
    state.leader_hint = "ctl1.example:8080";
    return state;
  };
  StartGateway();

  // Liveness is unconditional — a standby must not be restarted by its
  // supervisor just because it is not leading.
  EXPECT_EQ(Get("/healthz").status, 200);

  HttpConn::Reply reply = Get("/readyz");
  EXPECT_EQ(reply.status, 503);
  ASSERT_NE(reply.json.Find("ready"), nullptr);
  EXPECT_FALSE(reply.json.Find("ready")->as_bool());
  EXPECT_EQ(reply.Header("x-nerpa-leader"), "ctl1.example:8080");
  // Retry-After is computed from admission state, not a constant; it must
  // be a positive integer number of seconds.
  EXPECT_GE(std::atoi(reply.Header("retry-after").c_str()), 1);

  // Promotion flips readiness without a restart.
  leading.store(true);
  reply = Get("/readyz");
  EXPECT_EQ(reply.status, 200);
  EXPECT_TRUE(reply.json.Find("ready")->as_bool());
  EXPECT_EQ(reply.Header("x-nerpa-leader"), "");
}

TEST_F(GatewayTest, TableReadsFilterProjectAndSingleRow) {
  StartGateway();
  std::string uuid_a = InsertPort("a", 1, 10);
  InsertPort("b", 2, 20);
  ASSERT_FALSE(uuid_a.empty());

  HttpConn::Reply reply = Get("/v1/table/Port");
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.json.Find("rows")->as_array().size(), 2u);

  reply = Get("/v1/table/Port?tag=20");
  ASSERT_EQ(reply.status, 200);
  ASSERT_EQ(reply.json.Find("rows")->as_array().size(), 1u);
  EXPECT_EQ(reply.json.Find("rows")->as_array()[0].Find("name")->as_string(),
            "b");

  // Projection: only requested columns (plus _uuid) come back.
  reply = Get("/v1/table/Port?name=a&columns=name,tag");
  ASSERT_EQ(reply.status, 200);
  const Json& row = reply.json.Find("rows")->as_array()[0];
  EXPECT_NE(row.Find("name"), nullptr);
  EXPECT_NE(row.Find("tag"), nullptr);
  EXPECT_EQ(row.Find("port"), nullptr);

  // Single-row route by uuid.
  reply = Get("/v1/table/Port/" + uuid_a);
  ASSERT_EQ(reply.status, 200);
  EXPECT_EQ(reply.json.Find("rows")->as_array().size(), 1u);
  EXPECT_EQ(
      Get("/v1/table/Port/00000000-0000-0000-0000-00000000beef").status, 404);

  EXPECT_EQ(Get("/v1/table/NoSuchTable").status, 404);
  EXPECT_EQ(Get("/v1/table/Port?bogus_column=1").status, 400);
  EXPECT_EQ(Get("/v1/table/Port?tag=notanint").status, 400);
}

TEST_F(GatewayTest, CacheReadThroughAndInvalidation) {
  StartGateway();
  InsertPort("p", 1, 7);
  // Let the monitor pump see the insert first: its invalidation landing
  // between the two reads below would turn the hit into a miss.
  int64_t give_up = MonotonicNanos() + 3'000'000'000;
  while (gateway_->cache().Generation("Port") == 0 &&
         MonotonicNanos() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // First read misses and populates; second hits.
  HttpConn::Reply first = GetFreshUntil(
      "/v1/table/Port?name=p", [](const HttpConn::Reply& r) {
        return r.status == 200 &&
               !r.json.Find("rows")->as_array().empty();
      });
  ASSERT_EQ(first.status, 200);
  HttpConn::Reply second = Get("/v1/table/Port?name=p");
  EXPECT_EQ(second.Header("x-cache"), "hit");
  EXPECT_EQ(second.body, first.body);
  EXPECT_GE(gateway_->cache().hits(), 1u);

  // A write invalidates (via the monitor pump): the next read re-fetches
  // and sees the new value.
  ASSERT_EQ(Post("/v1/transact",
                 R"([{"op":"update","table":"Port",)"
                 R"("where":[["name","==","p"]],"row":{"tag":9}}])")
                .status,
            200);
  HttpConn::Reply fresh = GetFreshUntil(
      "/v1/table/Port?name=p", [](const HttpConn::Reply& r) {
        const Json* rows = r.json.Find("rows");
        return rows != nullptr && !rows->as_array().empty() &&
               rows->as_array()[0].Find("tag")->as_integer() == 9;
      });
  ASSERT_EQ(fresh.json.Find("rows")->as_array()[0].Find("tag")->as_integer(),
            9);
}

TEST_F(GatewayTest, NoCacheBypassesLookupAndInsert) {
  StartGateway();
  InsertPort("p", 1, 7);
  uint64_t misses_before = gateway_->cache().misses();
  for (int i = 0; i < 3; ++i) {
    HttpConn::Reply reply =
        Get("/v1/table/Port?name=p", {{"Cache-Control", "no-cache"}});
    EXPECT_EQ(reply.status, 200);
    EXPECT_EQ(reply.Header("x-cache"), "miss");
  }
  // Bypassed reads never consult the cache, so the miss counter is flat
  // and nothing was inserted for this key.
  EXPECT_EQ(gateway_->cache().misses(), misses_before);
}

TEST_F(GatewayTest, JsonRpcBridge) {
  StartGateway();
  HttpConn::Reply reply =
      Post("/jsonrpc", R"({"method":"echo","params":[1,"x"],"id":42})");
  ASSERT_EQ(reply.status, 200);
  EXPECT_EQ(reply.json.Find("id")->as_integer(), 42);
  EXPECT_EQ(reply.json.Find("result")->as_array().size(), 2u);
  EXPECT_TRUE(reply.json.Find("error")->is_null());

  reply = Post("/jsonrpc",
               R"({"method":"transact","params":[{"op":"insert",)"
               R"("table":"Mirror","row":{"name":"m","src_port":1,)"
               R"("out_port":2}}],"id":1})");
  ASSERT_EQ(reply.status, 200);
  EXPECT_TRUE(reply.json.Find("error")->is_null());

  reply = Post("/jsonrpc", R"({"method":"fetch","params":["Mirror",[],)"
                           R"(["name"]],"id":2})");
  ASSERT_EQ(reply.status, 200);
  const Json* rows = reply.json.Find("result")->Find("rows");
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->as_array().size(), 1u);

  reply = Post("/jsonrpc", R"({"method":"get_schema","params":[],"id":3})");
  ASSERT_EQ(reply.status, 200);
  EXPECT_NE(reply.json.Find("result")->Find("tables"), nullptr);

  reply = Post("/jsonrpc", R"({"method":"levitate","id":4})");
  ASSERT_EQ(reply.status, 200);
  EXPECT_FALSE(reply.json.Find("error")->is_null());

  EXPECT_EQ(Post("/jsonrpc", "not json at all{{{").status, 400);
}

TEST_F(GatewayTest, AdmissionShedsWith503AndRetryAfter) {
  options_.admit_rate_per_sec = 1;  // one backend op, then dry
  options_.admit_burst = 1;
  StartGateway();
  InsertPort("p", 1, 7);  // spends the lone token
  std::this_thread::sleep_for(std::chrono::milliseconds(1100));  // refill 1

  // Backend-bound (no-cache) reads: the first is admitted, the following
  // burst mostly sheds.
  int shed = 0;
  int okay = 0;
  for (int i = 0; i < 6; ++i) {
    HttpConn::Reply reply =
        Get("/v1/table/Port?name=p", {{"Cache-Control", "no-cache"}});
    if (reply.status == 503) {
      ++shed;
      // Computed from token-bucket deficit and inflight drain estimate —
      // any positive integer is honest; zero or garbage is not.
      EXPECT_GE(std::atoi(reply.Header("retry-after").c_str()), 1);
    } else {
      EXPECT_EQ(reply.status, 200);
      ++okay;
    }
  }
  EXPECT_GE(okay, 1);
  EXPECT_GE(shed, 3);
  EXPECT_GE(gateway_->admission().shed(), static_cast<uint64_t>(shed));

  // Cache hits bypass admission entirely: prime once (may take a retry as
  // tokens trickle back), then hits flow despite the empty bucket.
  HttpConn::Reply primed = GetFreshUntil(
      "/v1/table/Port?name=p",
      [](const HttpConn::Reply& r) { return r.status == 200; });
  ASSERT_EQ(primed.status, 200);
  for (int i = 0; i < 5; ++i) {
    HttpConn::Reply reply = Get("/v1/table/Port?name=p");
    EXPECT_EQ(reply.status, 200);
    EXPECT_EQ(reply.Header("x-cache"), "hit");
  }
}

TEST_F(GatewayTest, ExpiredDeadlineAnswers504WithoutBackendWork) {
  // A 1ns default budget expires every backend-bound request before a
  // worker can dequeue it — the gateway must answer 504 at dequeue, not
  // evaluate the read.  Local routes carry no deadline and stay up.
  options_.default_deadline_nanos = 1;
  StartGateway();
  EXPECT_EQ(Get("/healthz").status, 200);

  HttpConn::Reply reply =
      Get("/v1/table/Port", {{"Cache-Control", "no-cache"}});
  EXPECT_EQ(reply.status, 504);
  EXPECT_GE(gateway_->deadline_drops(), 1u);

  // A client-supplied X-Nerpa-Deadline-Ms budget overrides the default.
  reply = Get("/v1/table/Port", {{"Cache-Control", "no-cache"},
                                 {"X-Nerpa-Deadline-Ms", "5000"}});
  EXPECT_EQ(reply.status, 200);
}

TEST_F(GatewayTest, BrownoutServesStaleCachedReads) {
  // Exactly three tokens, negligible refill: insert + priming read +
  // invalidating update spend them all, so every later backend-bound
  // read sheds.  Enough sheds trip brownout, and brownout answers
  // cacheable reads from the stale-but-resident cache entry instead of
  // a bare 503.
  options_.admit_rate_per_sec = 0.01;
  options_.admit_burst = 3;
  StartGateway();
  ASSERT_FALSE(InsertPort("p", 1, 7).empty());  // token 1

  HttpConn::Reply primed = GetFreshUntil(       // token 2 (one miss)
      "/v1/table/Port?name=p", [](const HttpConn::Reply& r) {
        return r.status == 200 && !r.json.Find("rows")->as_array().empty();
      });
  ASSERT_EQ(primed.status, 200);

  ASSERT_EQ(Post("/v1/transact",                // token 3; goes stale
                 R"([{"op":"update","table":"Port",)"
                 R"("where":[["name","==","p"]],"row":{"tag":9}}])")
                .status,
            200);

  // Until the pump bumps the generation these are plain cache hits; after
  // the bump they shed, and once brownout engages the stale body comes
  // back with the honesty header.
  bool served_stale = false;
  for (int i = 0; i < 100 && !served_stale; ++i) {
    HttpConn::Reply reply = Get("/v1/table/Port?name=p");
    if (reply.status == 200 && reply.Header("x-nerpa-stale") == "1") {
      served_stale = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(served_stale);
  EXPECT_GE(gateway_->stale_served(), 1u);
  EXPECT_GE(gateway_->cache().stale_hits(), 1u);
  EXPECT_TRUE(gateway_->admission().InBrownout(MonotonicNanos()));
}

TEST_F(GatewayTest, ReadyzReportsStuckSubsystems) {
  Watchdog watchdog;
  options_.watchdog = &watchdog;
  StartGateway();
  EXPECT_EQ(Get("/readyz").status, 200);

  // An armed operation one nanosecond over budget: instantly stuck.
  watchdog.Arm("ha.wal", 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  HttpConn::Reply reply = Get("/readyz");
  EXPECT_EQ(reply.status, 503);
  const Json* stuck = reply.json.Find("stuck");
  ASSERT_NE(stuck, nullptr);
  ASSERT_EQ(stuck->as_array().size(), 1u);
  EXPECT_EQ(stuck->as_array()[0].as_string(), "ha.wal");

  // Disarm clears the condition without a restart.
  watchdog.Disarm("ha.wal");
  EXPECT_EQ(Get("/readyz").status, 200);

  // The pump heartbeat surfaces in /v1/stats alongside the cleared arm,
  // once the pump thread has beaten for the first time.
  int64_t give_up = MonotonicNanos() + 5'000'000'000;
  while (watchdog.Snapshot(MonotonicNanos()).count("gateway.pump") == 0 &&
         MonotonicNanos() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  reply = Get("/v1/stats");
  ASSERT_EQ(reply.status, 200);
  const Json* health = reply.json.Find("health");
  ASSERT_NE(health, nullptr);
  EXPECT_NE(health->Find("gateway.pump"), nullptr);
  EXPECT_NE(health->Find("ha.wal"), nullptr);
}

TEST_F(GatewayTest, KeepAliveAndPipeliningPreserveOrder) {
  StartGateway();
  InsertPort("p", 1, 7);
  HttpConn conn(gateway_->http_port());
  ASSERT_TRUE(conn.ok());

  // Several requests on one connection, written before any response is
  // read; responses must come back complete and in order.
  ASSERT_TRUE(conn.SendRequest("GET", "/healthz"));
  ASSERT_TRUE(conn.SendRequest("GET", "/v1/table/Port?name=p"));
  ASSERT_TRUE(conn.SendRequest("GET", "/v1/tables"));
  ASSERT_TRUE(conn.SendRequest("GET", "/v1/table/Port?name=p"));

  HttpConn::Reply reply;
  ASSERT_TRUE(conn.ReadReply(&reply));
  EXPECT_NE(reply.json.Find("ok"), nullptr);
  ASSERT_TRUE(conn.ReadReply(&reply));
  EXPECT_NE(reply.json.Find("rows"), nullptr);
  ASSERT_TRUE(conn.ReadReply(&reply));
  EXPECT_NE(reply.json.Find("tables"), nullptr);
  ASSERT_TRUE(conn.ReadReply(&reply));
  EXPECT_NE(reply.json.Find("rows"), nullptr);

  // Connection: close is honored.
  ASSERT_TRUE(conn.SendRequest("GET", "/healthz", "",
                               {{"Connection", "close"}}));
  ASSERT_TRUE(conn.ReadReply(&reply));
  EXPECT_EQ(reply.Header("connection"), "close");
  char byte;
  EXPECT_EQ(recv(conn.fd(), &byte, 1, 0), 0);  // server closed
}

TEST_F(GatewayTest, MalformedRequestGets400AndClose) {
  StartGateway();
  HttpConn conn(gateway_->http_port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.SendRaw("THIS IS NOT HTTP\r\n\r\n"));
  HttpConn::Reply reply;
  ASSERT_TRUE(conn.ReadReply(&reply));
  EXPECT_EQ(reply.status, 400);
  EXPECT_EQ(reply.Header("connection"), "close");

  // Oversized head: poisoned stream, bounded memory.
  HttpConn big(gateway_->http_port());
  ASSERT_TRUE(big.ok());
  std::string huge = "GET /healthz HTTP/1.1\r\n";
  huge += "X-Filler: " + std::string(HttpParser::kMaxHeadBytes, 'x');
  ASSERT_TRUE(big.SendRaw(huge));
  ASSERT_TRUE(big.ReadReply(&reply));
  EXPECT_EQ(reply.status, 400);
}

TEST_F(GatewayTest, ChangesFeedTracksWrites) {
  StartGateway();
  HttpConn::Reply reply = Get("/v1/changes");
  ASSERT_EQ(reply.status, 200);
  int64_t start = reply.json.Find("latest")->as_integer();

  InsertPort("p", 1, 7);
  HttpConn::Reply acl =
      Post("/v1/transact", R"([{"op":"insert","table":"AclRule",)"
                           R"("row":{"mac":42,"vlan":1,"allow":true}}])");
  ASSERT_EQ(acl.status, 200);

  // The pump delivers asynchronously; poll until both tables show up.
  int64_t deadline = MonotonicNanos() + int64_t{3000} * 1000000;
  bool saw_port = false;
  bool saw_acl = false;
  while (MonotonicNanos() < deadline && !(saw_port && saw_acl)) {
    reply = Get(StrFormat("/v1/changes?since=%lld",
                          static_cast<long long>(start)));
    ASSERT_EQ(reply.status, 200);
    for (const Json& change : reply.json.Find("changes")->as_array()) {
      const std::string& table = change.Find("table")->as_string();
      saw_port = saw_port || table == "Port";
      saw_acl = saw_acl || table == "AclRule";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(saw_port);
  EXPECT_TRUE(saw_acl);
  EXPECT_EQ(Get("/v1/changes?since=borked").status, 400);
}

TEST_F(GatewayTest, ChaosSlowClientIsDroppedOthersUnaffected) {
  options_.max_outbox_bytes = 2 * 1024;  // tiny cap: force the shed path
  StartGateway();

  // The slow client pipelines far more responses than its outbox cap and
  // never reads one byte.
  HttpConn slow(gateway_->http_port());
  ASSERT_TRUE(slow.ok());
  std::string burst;
  for (int i = 0; i < 200; ++i) {
    burst += "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  }
  ASSERT_TRUE(slow.SendRaw(burst));

  // Gateway drops it once the outbox blows the cap.
  int64_t deadline = MonotonicNanos() + int64_t{3000} * 1000000;
  while (gateway_->slow_client_drops() == 0 && MonotonicNanos() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(gateway_->slow_client_drops(), 1u);

  // A well-behaved client is unaffected.
  HttpConn::Reply reply = Get("/healthz");
  EXPECT_EQ(reply.status, 200);
}

TEST_F(GatewayTest, ChaosAbruptDisconnectsDoNotWedgeTheGateway) {
  StartGateway();
  InsertPort("p", 1, 7);
  chaos::ChaosSchedule schedule(0xFEEDu);

  for (int i = 0; i < 40; ++i) {
    HttpConn conn(gateway_->http_port());
    if (!conn.ok()) continue;
    switch (schedule.Pick(4)) {
      case 0:
        // Half a request line, then vanish.
        conn.SendRaw("GET /v1/tab");
        break;
      case 1:
        // Full request, vanish before reading the response.
        conn.SendRequest("GET", "/v1/table/Port?name=p",
                         "", {{"Cache-Control", "no-cache"}});
        break;
      case 2:
        // Headers promise a body that never comes.
        conn.SendRaw("POST /v1/transact HTTP/1.1\r\n"
                     "Content-Length: 500\r\n\r\n[{\"op\":");
        break;
      case 3:
        // Immediate close.
        break;
    }
    // HttpConn destructor closes abruptly.
  }

  // The gateway still answers and its backend path still works.
  HttpConn::Reply reply = Get("/healthz");
  EXPECT_EQ(reply.status, 200);
  reply = Get("/v1/table/Port?name=p", {{"Cache-Control", "no-cache"}});
  EXPECT_EQ(reply.status, 200);
  EXPECT_EQ(reply.json.Find("rows")->as_array().size(), 1u);
}

TEST_F(GatewayTest, GracefulStopFinishesInflightAndRefusesNew) {
  StartGateway();
  InsertPort("p", 1, 7);

  HttpConn conn(gateway_->http_port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.SendRequest("GET", "/v1/table/Port?name=p", "",
                               {{"Cache-Control", "no-cache"}}));
  uint16_t port = gateway_->http_port();
  gateway_->Stop();

  // The in-flight request was answered before the teardown closed us.
  HttpConn::Reply reply;
  EXPECT_TRUE(conn.ReadReply(&reply));
  EXPECT_EQ(reply.status, 200);

  // New connections are refused (or immediately closed) after Stop.
  HttpConn late(port);
  if (late.ok()) {
    HttpConn::Reply ignored;
    EXPECT_FALSE(late.RoundTrip("GET", "/healthz", &ignored));
  }

  gateway_->Stop();  // idempotent
}

}  // namespace
}  // namespace nerpa::gateway
