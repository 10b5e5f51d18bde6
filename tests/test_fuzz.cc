// Robustness drills for every parser in the repository, for the engine
// checkpoint decoder trusted at restart, and for the P4 packet path: random
// truncations and byte mutations of valid inputs must produce a clean
// Status (or parse to something valid) — never a crash, hang, or UB.
// Run under the normal test harness; any sanitizer finding here is a bug.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "analyze/analyze.h"
#include "common/json.h"
#include "dlog/engine.h"
#include "dlog/program.h"
#include "gateway/http.h"
#include "ovsdb/database.h"
#include "ovsdb/jsonrpc.h"
#include "net/packet.h"
#include "p4/runtime.h"
#include "p4/text.h"
#include "snvs/snvs.h"
#include "stacks.h"

namespace nerpa {
namespace {

constexpr int kTruncations = 120;
constexpr int kMutations = 400;

/// Runs `parse` over truncations and random single-byte mutations of
/// `seed`.  The parser's only obligation is not to crash.
template <typename ParseFn>
void Drill(const std::string& seed, ParseFn&& parse, uint64_t rng_seed) {
  std::mt19937_64 rng(rng_seed);
  for (int i = 0; i < kTruncations; ++i) {
    size_t cut = rng() % (seed.size() + 1);
    parse(seed.substr(0, cut));
  }
  for (int i = 0; i < kMutations; ++i) {
    std::string mutated = seed;
    int edits = 1 + static_cast<int>(rng() % 4);
    for (int e = 0; e < edits; ++e) {
      size_t at = rng() % mutated.size();
      switch (rng() % 3) {
        case 0:
          mutated[at] = static_cast<char>(rng() % 127 + 1);
          break;
        case 1:
          mutated.erase(at, 1 + rng() % 3);
          break;
        case 2:
          mutated.insert(at, 1, static_cast<char>(rng() % 127 + 1));
          break;
      }
      if (mutated.empty()) break;
    }
    parse(mutated);
  }
}

TEST(Fuzz, JsonParser) {
  Drill(R"({"a": [1, 2.5e3, "str\n", {"b": [true, null]}], "c": -7})",
        [](const std::string& text) { (void)Json::Parse(text); }, 1);
}

TEST(Fuzz, DlogFrontend) {
  Drill(snvs::SnvsRules() + R"(
          input relation Port(a: bigint, m: string, t: bigint,
                              trunks: Vec<bigint>)
        )",
        [](const std::string& text) { (void)dlog::Program::Parse(text); }, 2);
}

TEST(Fuzz, StaticAnalyzer) {
  // The analyzer must survive (and keep producing a diagnostic list for)
  // arbitrarily mangled programs — it runs lints over whatever parses, so
  // it exercises strictly more code than the frontend alone.
  Drill("input relation E(a: bigint, b: Vec<bigint>)\n"
        "relation Mid(x: bigint)\n"
        "output relation O(x: bigint, y: bit<16>)\n"
        "Mid(x) :- E(x, v), var t in v, t < 9, not O(t, _).\n"
        "O(n, n as bit<16>) :- Mid(m), var n = m + 1.\n"
        "O(c, 0) :- E(_, v), var c = count(v) group_by (v).\n",
        [](const std::string& text) { (void)analyze::AnalyzeDlog(text); }, 7);
}

TEST(Fuzz, P4TextFrontend) {
  Drill(snvs::SnvsP4Source(),
        [](const std::string& text) { (void)p4::ParseP4Text(text); }, 3);
}

TEST(Fuzz, OvsdbSchemaFromJson) {
  std::string seed = snvs::SnvsSchema().ToJson().Dump();
  Drill(seed,
        [](const std::string& text) {
          (void)ovsdb::DatabaseSchema::FromJsonText(text);
        },
        4);
}

TEST(Fuzz, OvsdbTransact) {
  ovsdb::Database db(snvs::SnvsSchema());
  std::string seed = R"([
    {"op": "insert", "table": "Port",
     "row": {"name": "p", "port": 1, "vlan_mode": "access", "tag": 3}},
    {"op": "mutate", "table": "Port", "where": [["tag", "<", 10]],
     "mutations": [["tag", "+=", 1]]},
    {"op": "select", "table": "Port", "where": []},
    {"op": "delete", "table": "Port", "where": [["name", "==", "p"]]}
  ])";
  Drill(seed,
        [&](const std::string& text) { (void)db.TransactText(text); }, 5);
  // The database must still be consistent enough to use.
  EXPECT_TRUE(db.TransactText(R"([
    {"op": "insert", "table": "Mirror",
     "row": {"name": "m", "src_port": 1, "out_port": 2}}
  ])").ok());
}

// Shape-aware transact drill: start from valid transacts that use every op
// and field, and replace each JSON value in turn with a value of every
// other JSON type and with the int64 extremes.  Byte flips rarely keep a
// request well-formed enough to reach the per-op fields; this reaches each.
ovsdb::DatabaseSchema ShapesSchema() {
  using ovsdb::BaseType;
  using ovsdb::ColumnType;
  ovsdb::TableSchema t;
  t.name = "T";
  t.columns = {
      {"name", ColumnType::Scalar(BaseType::String()), false, true},
      {"n", ColumnType::Scalar(BaseType::Integer()), false, true},
      {"r", ColumnType::Optional(BaseType::Real()), false, true},
      {"tags", ColumnType::Set(BaseType::Integer()), false, true},
      {"opts", ColumnType::Map(BaseType::String(), BaseType::Integer()),
       false, true},
      {"peer", ColumnType::Optional(BaseType::Ref("T", /*weak=*/true)), false,
       true},
      {"owner", ColumnType::Set(BaseType::Ref("T")), false, false},
  };
  t.indexes = {{"name"}};
  ovsdb::DatabaseSchema schema;
  schema.name = "shapes";
  schema.tables.emplace("T", std::move(t));
  return ovsdb::WithLeaderLease(std::move(schema));
}

/// Every value node of `json`, in a fixed preorder.
void CollectValues(Json& json, std::vector<Json*>& out) {
  out.push_back(&json);
  if (json.is_array()) {
    for (Json& item : json.as_array()) CollectValues(item, out);
  } else if (json.is_object()) {
    for (auto& [key, value] : json.as_object()) CollectValues(value, out);
  }
}

std::map<std::string, std::vector<ovsdb::Row>> AllRows(
    const ovsdb::Database& db) {
  std::map<std::string, std::vector<ovsdb::Row>> out;
  for (const auto& [table, schema] : db.schema().tables) {
    for (const ovsdb::Row* row : db.GetRows(table)) out[table].push_back(*row);
    std::sort(out[table].begin(), out[table].end(),
              [](const auto& a, const auto& b) { return a.uuid < b.uuid; });
  }
  return out;
}

TEST(Fuzz, OvsdbTransactShapes) {
  const char* const kBase = R"([
    {"op": "insert", "table": "T", "uuid-name": "c",
     "row": {"name": "c", "n": 7, "tags": ["set", [1, 2]],
             "opts": ["map", [["x", 1], ["y", 2]]]}},
    {"op": "insert", "table": "Leader_Lease", "row": {"epoch": 3}}
  ])";
  const std::vector<std::string> seeds = {
      R"([
    {"op": "insert", "table": "T", "uuid-name": "a",
     "row": {"name": "a", "n": 5, "r": 1.5, "tags": ["set", [1, 2]],
             "opts": ["map", [["x", 1]]]}},
    {"op": "insert", "table": "T", "uuid-name": "b",
     "uuid": "01234567-89ab-cdef-0123-456789abcdef",
     "row": {"name": "b", "peer": ["named-uuid", "a"],
             "owner": ["set", [["named-uuid", "a"]]]}},
    {"op": "select", "table": "T", "where": [["n", ">=", 5]],
     "columns": ["_uuid", "name", "n"]},
    {"op": "wait", "table": "T", "where": [["name", "==", "a"]],
     "columns": ["name", "n"], "until": "==",
     "rows": [{"name": "a", "n": 5}]},
    {"op": "mutate", "table": "T", "where": [["name", "==", "a"]],
     "mutations": [["n", "+=", 4], ["n", "-=", 1], ["n", "*=", 3],
                   ["n", "/=", 2], ["n", "%=", 5], ["r", "*=", 2],
                   ["tags", "insert", ["set", [3]]],
                   ["tags", "delete", ["set", [1]]],
                   ["opts", "setkey", ["map", [["y", 2]]]],
                   ["opts", "delkey", ["set", ["x"]]],
                   ["opts", "insert", ["map", [["z", 3]]]],
                   ["opts", "delete", ["map", [["z", 3]]]]]},
    {"op": "update", "table": "T", "where": [["tags", "includes", 2]],
     "row": {"r": 2.5, "tags": ["set", [4]]}},
    {"op": "assert_fence", "epoch": 3},
    {"op": "comment", "comment": "shapes"},
    {"op": "delete", "table": "T", "where": [["name", "!=", "a"]]}
  ])",
      R"([
    {"op": "update", "table": "T", "where": [["name", "==", "c"]],
     "row": {"n": 1}},
    {"op": "abort"}
  ])"};
  const std::vector<Json> replacements = {
      Json(),     Json(true),         Json(int64_t{0}),
      Json(2.5),  Json("s"),          Json(Json::Array{}),
      Json(Json::Object{}),
      Json(std::numeric_limits<int64_t>::min()),
      Json(std::numeric_limits<int64_t>::max())};
  int accepted = 0, rejected = 0;
  for (const std::string& seed : seeds) {
    const Json original = Json::Parse(seed).value();
    {  // Unmodified, the first seed commits and the second aborts.
      ovsdb::Database db(ShapesSchema());
      ASSERT_TRUE(db.TransactText(kBase).ok());
      Result<Json> result = db.Transact(original);
      EXPECT_EQ(result.ok(), seed == seeds.front())
          << result.status().ToString();
    }
    std::vector<Json*> nodes;
    Json probe = original;
    CollectValues(probe, nodes);
    for (size_t at = 0; at < nodes.size(); ++at) {
      for (const Json& replacement : replacements) {
        Json request = original;
        std::vector<Json*> paths;
        CollectValues(request, paths);
        *paths[at] = replacement;
        ovsdb::Database db(ShapesSchema());
        ASSERT_TRUE(db.TransactText(kBase).ok());
        const auto before = AllRows(db);
        const uint64_t commits = db.commit_count();
        Result<Json> result = db.Transact(request);
        if (result.ok()) {
          ++accepted;
          continue;
        }
        ++rejected;
        EXPECT_EQ(AllRows(db), before) << request.Dump();
        EXPECT_EQ(db.commit_count(), commits) << request.Dump();
      }
    }
  }
  // Both outcomes occur: the drill reaches past the first parse error.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(Fuzz, JsonRpcStream) {
  ovsdb::JsonStreamSplitter splitter;
  std::string seed =
      R"({"method":"transact","params":["db"],"id":1}{"method":"echo","params":[],"id":2})";
  std::mt19937_64 rng(6);
  for (int i = 0; i < kMutations; ++i) {
    std::string mutated = seed;
    mutated[rng() % mutated.size()] = static_cast<char>(rng() % 127 + 1);
    ovsdb::JsonStreamSplitter fresh;
    (void)fresh.Feed(mutated, [](std::string_view text) {
      (void)Json::Parse(text);
      return Status::Ok();
    });
  }
  // Chunked feeding of the clean stream still yields both documents.
  int documents = 0;
  for (size_t i = 0; i < seed.size(); i += 7) {
    ASSERT_TRUE(splitter
                    .Feed(seed.substr(i, 7),
                          [&](std::string_view) {
                            ++documents;
                            return Status::Ok();
                          })
                    .ok());
  }
  EXPECT_EQ(documents, 2);
}

TEST(Fuzz, HttpRequestStream) {
  // A pipelined pair: POST with a Content-Length body, then a GET.  The
  // gateway feeds raw socket bytes straight into this parser, so arbitrary
  // mangling must come back as a Status, never a crash or hang.
  std::string seed =
      "POST /v1/table/Port?tag=7&columns=name,tag HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Content-Length: 17\r\n"
      "Cache-Control: no-cache\r\n"
      "\r\n"
      "{\"rows\":[1,2,3]}X"
      "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
  Drill(seed,
        [](const std::string& text) {
          gateway::HttpParser parser;
          (void)parser.Feed(text);
          while (parser.HasRequest()) (void)parser.PopRequest();
        },
        8);
  // Byte-at-a-time feeding of the clean stream still yields both requests
  // with the body intact.
  gateway::HttpParser parser;
  int requests = 0;
  std::string body;
  for (size_t i = 0; i < seed.size(); ++i) {
    ASSERT_TRUE(parser.Feed(seed.substr(i, 1)).ok());
    while (parser.HasRequest()) {
      gateway::HttpRequest request = parser.PopRequest();
      if (requests == 0) body = request.body;
      ++requests;
    }
  }
  EXPECT_EQ(requests, 2);
  EXPECT_EQ(body, "{\"rows\":[1,2,3]}X");
}

TEST(Fuzz, GatewayJsonRpcBody) {
  // The /jsonrpc route parses a body and pulls method/params/id out of it;
  // mangled bodies must yield a parse error or a well-formed document —
  // field extraction on whatever parses must be total.
  Drill(R"({"method":"transact","params":[{"op":"select","table":"Port",)"
        R"("where":[["tag","==",7]]}],"id":"req-1"})",
        [](const std::string& text) {
          auto parsed = Json::Parse(text);
          if (!parsed.ok()) return;
          const Json& doc = parsed.value();
          const Json* method = doc.Find("method");
          if (method != nullptr && method->is_string()) {
            (void)method->as_string();
          }
          (void)doc.Find("params");
          (void)doc.Find("id");
        },
        9);
}

// A program whose checkpoint holds strings, tuples, vectors, recursive
// state and three kinds of aggregate group.
constexpr const char* kCheckpointProgram = R"(
input relation Port(name: string, vlan: bigint, peer: (string, bigint),
                    tags: Vec<bigint>)
input relation Link(a: string, b: string)
relation Reach(a: string, b: string)
output relation PerVlan(vlan: bigint, n: bigint)
output relation PeerMin(peer: (string, bigint), v: bigint)
output relation Tag(name: string, t: bigint)
output relation TagSum(name: string, s: bigint)
output relation Lonely(name: string)
Reach(a, b) :- Link(a, b).
Reach(a, c) :- Reach(a, b), Link(b, c).
PerVlan(v, n) :- Port(p, v, _, _), var n = count(p) group_by (v).
PeerMin(t, m) :- Port(_, v, t, _), var m = min(v) group_by (t).
Tag(p, t) :- Port(p, _, _, ts), var t in ts.
TagSum(p, s) :- Tag(p, t), var s = sum(t) group_by (p).
Lonely(p) :- Port(p, _, _, _), not Reach(p, _).
)";

dlog::Row PortRow(int i) {
  using dlog::Value;
  std::string name = "port-" + std::to_string(i);
  return dlog::Row{Value::String(name), Value::Int(i % 3),
                   Value::Tuple({Value::String("sw-" + std::to_string(i % 2)),
                                 Value::Int(i)}),
                   Value::Tuple({Value::Int(i), Value::Int(i + 1)})};
}

dlog::Row LinkRow(int a, int b) {
  return dlog::Row{dlog::Value::String("port-" + std::to_string(a)),
                   dlog::Value::String("port-" + std::to_string(b))};
}

/// Offsets and widths of a checkpoint blob's count fields (section, row,
/// group and binding counts, value lengths, derivation counts), found by
/// walking the layout engine.cc documents over a valid blob.
class CountFields {
 public:
  explicit CountFields(const std::string& blob) : blob_(blob) {
    pos_ = 4 + 4 + 8;  // magic, version, fingerprint
    for (uint64_t rels = Field(4); rels > 0; --rels) {
      pos_ += Field(4);  // name
      for (uint64_t rows = Field(8); rows > 0; --rows) {
        SkipRow();
        Field(8);
      }
    }
    for (uint64_t aggs = Field(4); aggs > 0; --aggs) {
      for (uint64_t groups = Field(8); groups > 0; --groups) {
        SkipRow();
        for (uint64_t bindings = Field(8); bindings > 0; --bindings) {
          SkipRow();
          Field(8);
        }
      }
    }
  }
  const std::vector<std::pair<size_t, size_t>>& fields() const {
    return fields_;
  }

 private:
  uint64_t Field(size_t width) {
    uint64_t value = 0;
    std::memcpy(&value, blob_.data() + pos_, width);
    fields_.emplace_back(pos_, width);
    pos_ += width;
    return value;
  }
  void SkipValue() {
    switch (blob_[pos_++]) {
      case 1:  // bool
        pos_ += 1;
        break;
      case 2:  // bigint
      case 3:  // bit
        pos_ += 8;
        break;
      case 4:  // string
        pos_ += Field(4);
        break;
      default:  // tuple
        for (uint64_t n = Field(4); n > 0; --n) SkipValue();
    }
  }
  void SkipRow() {
    for (uint64_t n = Field(4); n > 0; --n) SkipValue();
  }

  const std::string& blob_;
  size_t pos_ = 0;
  std::vector<std::pair<size_t, size_t>> fields_;
};

/// Restores kMutations mutants of `blob`: bit flips, truncations, count
/// field edits and splices.  Each must be rejected, or restore to an engine
/// that `drill` can commit on (its commits come back as a Status).  Returns
/// how many mutants restored.
template <typename DrillFn>
int DrillCheckpointMutants(const std::shared_ptr<const dlog::Program>& program,
                           const std::string& blob, DrillFn&& drill) {
  const std::vector<std::pair<size_t, size_t>> fields =
      CountFields(blob).fields();
  int accepted = 0;
  std::mt19937_64 rng(10);
  for (int i = 0; i < kMutations; ++i) {
    std::string mutant = blob;
    switch (i % 4) {
      case 0:  // bit flips
        for (int flips = 1 + static_cast<int>(rng() % 3); flips > 0;
             --flips) {
          mutant[rng() % mutant.size()] ^= static_cast<char>(1 << (rng() % 8));
        }
        break;
      case 1:  // truncation
        mutant.resize(rng() % blob.size());
        break;
      case 2: {  // count-field edit
        auto [at, width] = fields[rng() % fields.size()];
        uint64_t old = 0;
        std::memcpy(&old, blob.data() + at, width);
        const uint64_t edits[] = {0,          1,          old - 1,
                                  old + 1,    old * 2,    0x7fffffff,
                                  0xffffffff, 1ULL << 62, ~0ULL >> 1,
                                  ~0ULL,      rng()};
        uint64_t value = edits[rng() % std::size(edits)];
        std::memcpy(mutant.data() + at, &value, width);
        break;
      }
      case 3: {  // splice: a slice of the blob pasted over another spot
        size_t from = rng() % blob.size();
        size_t len = 1 + rng() % 48;
        size_t to = rng() % blob.size();
        mutant.replace(to, rng() % 48, blob.substr(from, len));
        break;
      }
    }
    auto restored = dlog::Engine::Restore(program, mutant);
    if (!restored.ok()) continue;
    ++accepted;
    drill(**restored);
  }
  return accepted;
}

/// Reads every relation back; a damaged engine must answer, not crash.
void DumpAll(const dlog::Engine& engine) {
  for (const auto& decl : engine.program().relations()) {
    (void)engine.Dump(decl.name);
  }
}

TEST(Fuzz, DlogCheckpointRestore) {
  auto program = dlog::Program::Parse(kCheckpointProgram);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  dlog::Engine engine(*program);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(engine.Insert("Port", PortRow(i)).ok());
    ASSERT_TRUE(engine.Insert("Link", LinkRow(i, (i + 1) % 5)).ok());
  }
  ASSERT_TRUE(engine.Commit().ok());
  // Deletes too, so counts and groups have been decremented.
  ASSERT_TRUE(engine.Delete("Port", PortRow(3)).ok());
  ASSERT_TRUE(engine.Delete("Link", LinkRow(6, 1)).ok());
  ASSERT_TRUE(engine.Commit().ok());
  const std::string blob = engine.SerializeState();
  ASSERT_TRUE(dlog::Engine::Restore(*program, blob).ok());

  int accepted = DrillCheckpointMutants(*program, blob, [](dlog::Engine& e) {
    (void)e.Insert("Port", PortRow(9));
    (void)e.Delete("Port", PortRow(1));
    (void)e.Delete("Link", LinkRow(2, 3));
    (void)e.Insert("Link", LinkRow(9, 2));
    (void)e.Commit();
    DumpAll(e);
    (void)e.Insert("Port", PortRow(1));
    (void)e.Delete("Port", PortRow(0));
    (void)e.Insert("Link", LinkRow(2, 3));
    (void)e.Commit();
  });
  // Some mutants (a flipped payload bit, a count off by one) still decode,
  // so the drill reaches Commit() on damaged state.
  EXPECT_GT(accepted, 0);
}

// A keyed input (the first relation, so its rows open the blob) and an
// aggregate over it.
constexpr const char* kKeyedCheckpointProgram = R"(
input relation Learn(port: bit<16>, vlan: bit<12>, mac: bit<48>)
key Learn(vlan, mac)
output relation Fwd(vlan: bit<12>, mac: bit<48>, port: bit<16>)
output relation PerPort(port: bit<16>, n: bigint)
Fwd(v, m, p) :- Learn(p, v, m).
PerPort(p, n) :- Learn(p, _, m), var n = count(m) group_by (p).
)";

dlog::Row LearnRow(uint64_t port, uint64_t vlan, uint64_t mac) {
  return dlog::Row{dlog::Value::Bit(port), dlog::Value::Bit(vlan),
                   dlog::Value::Bit(mac)};
}

TEST(Fuzz, DlogCheckpointRestoreKeyed) {
  auto program = dlog::Program::Parse(kKeyedCheckpointProgram);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  dlog::Engine engine(*program);
  for (uint64_t mac = 0; mac < 8; ++mac) {
    ASSERT_TRUE(engine.Insert("Learn", LearnRow(1 + mac % 3, 1, mac)).ok());
  }
  ASSERT_TRUE(engine.Commit().ok());
  // Host moves: each insert replaces the row under its key.
  ASSERT_TRUE(engine.Insert("Learn", LearnRow(4, 1, 2)).ok());
  ASSERT_TRUE(engine.Insert("Learn", LearnRow(5, 1, 6)).ok());
  ASSERT_TRUE(engine.Commit().ok());
  ASSERT_EQ(engine.Size("Learn"), 8u);
  const std::string blob = engine.SerializeState();
  ASSERT_TRUE(dlog::Engine::Restore(*program, blob).ok());
  // The fingerprint covers the key.
  std::string unkeyed = kKeyedCheckpointProgram;
  unkeyed.erase(unkeyed.find("key Learn"), std::strlen("key Learn(vlan, mac)"));
  auto unkeyed_program = dlog::Program::Parse(unkeyed);
  ASSERT_TRUE(unkeyed_program.ok()) << unkeyed_program.status().ToString();
  EXPECT_FALSE(dlog::Engine::Restore(*unkeyed_program, blob).ok());

  // The splice the key forbids: Learn's first row again on another port,
  // with the relation's row count raised to match.
  const size_t nrows_at = 4 + 4 + 8 + 4 + 4 + std::strlen("Learn");
  const size_t row_at = nrows_at + 8;
  const size_t row_len = 4 + 3 * (1 + 8) + 8;  // three bit<w>, then count
  std::string second = blob.substr(row_at, row_len);
  second[4 + 1] ^= 0x40;  // low byte of the port
  std::string mutant = blob;
  mutant.insert(row_at, second);
  uint64_t nrows = 0;
  std::memcpy(&nrows, blob.data() + nrows_at, 8);
  ++nrows;
  std::memcpy(mutant.data() + nrows_at, &nrows, 8);
  auto rejected = dlog::Engine::Restore(*program, mutant);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("two rows under one key"),
            std::string::npos)
      << rejected.status().ToString();

  int accepted = DrillCheckpointMutants(*program, blob, [](dlog::Engine& e) {
    (void)e.Insert("Learn", LearnRow(9, 1, 0));
    (void)e.Insert("Learn", LearnRow(2, 1, 0));
    (void)e.Delete("Learn", LearnRow(3, 1, 2));
    (void)e.Commit();
    DumpAll(e);
    (void)e.Insert("Learn", LearnRow(1, 1, 3));
    (void)e.Delete("Learn", LearnRow(1, 1, 3));
    (void)e.Commit();
  });
  EXPECT_GT(accepted, 0);
}

// --- Packet path ----------------------------------------------------------

p4::TableEntry Exact(std::string table, std::vector<uint64_t> keys,
                     std::string action, std::vector<uint64_t> args) {
  p4::TableEntry entry;
  entry.table = std::move(table);
  for (uint64_t key : keys) entry.match.push_back(p4::MatchField::Exact(key));
  entry.action = std::move(action);
  entry.action_args = std::move(args);
  return entry;
}

TEST(Fuzz, P4ProcessPacket) {
  // A populated snvs switch: access ports 1-3 on VLAN 10, trunk 4 on VLANs
  // 10 and 20, flooding, a mirror of port 2 to port 5, and learned hosts.
  p4::Switch snvs_switch(snvs::SnvsP4Program());
  p4::RuntimeClient snvs_client(&snvs_switch);
  std::vector<p4::Update> updates;
  auto add = [&](p4::TableEntry entry) {
    updates.push_back({p4::UpdateType::kInsert, std::move(entry)});
  };
  for (uint64_t port = 1; port <= 3; ++port) {
    add(Exact("InVlanUntagged", {port}, "SetAccessVlan", {10}));
    add(Exact("OutVlan", {port, 10}, "EmitUntagged", {}));
    add(Exact("SMac", {10, port, port}, "NoAction", {}));
    add(Exact("Dmac", {10, port}, "Forward", {port}));
  }
  for (uint64_t vlan : {10, 20}) {
    add(Exact("InVlanTagged", {4, vlan}, "UseTaggedVlan", {vlan}));
    add(Exact("OutVlan", {4, vlan}, "EmitTagged", {vlan}));
    add(Exact("FloodVlan", {vlan}, "Flood", {vlan + 1}));
  }
  add(Exact("PortMirror", {2}, "MirrorTo", {5}));
  ASSERT_TRUE(snvs_client.Write(updates).ok());
  ASSERT_TRUE(snvs_client.SetMulticastGroup(11, {1, 2, 3, 4}).ok());
  ASSERT_TRUE(snvs_client.SetMulticastGroup(21, {4}).ok());

  // An ip_fabric switch with a default route and a /16.
  auto fabric = p4::ParseP4Text(examples::FabricP4Source());
  ASSERT_TRUE(fabric.ok()) << fabric.status().ToString();
  p4::Switch fabric_switch(*fabric);
  p4::RuntimeClient fabric_client(&fabric_switch);
  updates.clear();
  for (auto [prefix, plen] : {std::pair{0u, 0}, std::pair{0x0A010000u, 16}}) {
    p4::TableEntry route;
    route.table = "IpRoute";
    route.match = {p4::MatchField::Lpm(prefix, plen)};
    route.action = "Route";
    route.action_args = {static_cast<uint64_t>(plen) + 1};
    updates.push_back({p4::UpdateType::kInsert, std::move(route)});
  }
  ASSERT_TRUE(fabric_client.Write(updates).ok());

  // Valid seeds, untagged and tagged: unicast IPv4 (for the fabric: ttl,
  // src 10.1.0.1, dst 10.1.2.3) between learned hosts, and broadcasts,
  // one of them minimum-size.
  const std::vector<uint8_t> ipv4 = {64, 10, 1, 0, 1, 10, 1, 2, 3, 0xAB};
  const std::vector<net::Packet> seeds = {
      net::MakeEthernetFrame(net::Mac(2), net::Mac(1), 0x0800, ipv4),
      net::MakeEthernetFrame(net::Mac::Broadcast(), net::Mac(3), 0x0806,
                             std::vector<uint8_t>(46, 0x5A)),
      net::MakeEthernetFrame(net::Mac(1), net::Mac(7), 0x0800, ipv4, 10),
      net::MakeEthernetFrame(net::Mac::Broadcast(), net::Mac(8), 0x86DD,
                             std::vector<uint8_t>(200, 0x11), 20),
  };
  std::mt19937_64 rng(11);
  auto check = [&](const net::Packet& frame) {
    for (p4::Switch* sw : {&snvs_switch, &fabric_switch}) {
      auto out = sw->ProcessPacket(p4::PacketIn{rng() % 7, frame});
      EXPECT_TRUE(out.ok() ||
                  out.status().code() == StatusCode::kInvalidArgument)
          << out.status().ToString() << " for " << net::HexDump(frame);
      (void)sw->TakeDigests();
    }
  };
  for (int i = 0; i < 2000; ++i) {
    net::Packet frame = seeds[rng() % seeds.size()];
    switch (rng() % 3) {
      case 0: {  // bit flips, mostly in the headers
        for (int flips = 1 + static_cast<int>(rng() % 8); flips > 0; --flips) {
          size_t bits = rng() % 2 == 0 ? 8 * std::min<size_t>(frame.size(), 24)
                                       : 8 * frame.size();
          size_t bit = rng() % bits;
          frame[bit / 8] ^= static_cast<uint8_t>(0x80 >> (bit % 8));
        }
        break;
      }
      case 1:  // truncation
        frame.resize(rng() % (frame.size() + 1));
        break;
      case 2: {  // splice: this frame's head onto another seed's tail
        const net::Packet& other = seeds[rng() % seeds.size()];
        frame.resize(rng() % (frame.size() + 1));
        frame.insert(frame.end(),
                     other.begin() + static_cast<long>(rng() % other.size()),
                     other.end());
        break;
      }
    }
    check(frame);
  }
  for (int i = 0; i < 500; ++i) {  // random byte strings
    net::Packet frame(rng() % 2 == 0 ? rng() % 40 : rng() % 1600);
    for (uint8_t& byte : frame) byte = static_cast<uint8_t>(rng());
    check(frame);
  }
  EXPECT_GT(snvs_switch.stats().packets_out, 0u);
  EXPECT_GT(fabric_switch.stats().packets_out, 0u);
}

}  // namespace
}  // namespace nerpa
