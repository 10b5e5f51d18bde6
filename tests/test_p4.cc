// Unit tests for the P4 subsystem: IR validation, match-kind semantics,
// the behavioural interpreter (parsing, pipeline, multicast, digests,
// VLAN push/pop, clones), the P4Runtime-style API validation, a
// differential oracle for the table store, and a golden corpus pinning
// every shipped program's packet-path behaviour.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include "common/strings.h"
#include "net/packet.h"
#include "p4/interpreter.h"
#include "p4/runtime.h"
#include "p4/text.h"
#include "snvs/snvs.h"
#include "stacks.h"

namespace nerpa::p4 {
namespace {

using net::Mac;

TEST(MatchField, ExactLpmTernaryRangeOptional) {
  EXPECT_TRUE(MatchField::Exact(5).Matches(MatchKind::kExact, 16, 5));
  EXPECT_FALSE(MatchField::Exact(5).Matches(MatchKind::kExact, 16, 6));

  // LPM: 10.1.0.0/16 over a 32-bit field.
  MatchField lpm = MatchField::Lpm(0x0A010000, 16);
  EXPECT_TRUE(lpm.Matches(MatchKind::kLpm, 32, 0x0A01FFFF));
  EXPECT_FALSE(lpm.Matches(MatchKind::kLpm, 32, 0x0A020000));
  EXPECT_TRUE(MatchField::Lpm(0, 0).Matches(MatchKind::kLpm, 32, 0xFFFFFFFF));

  MatchField ternary = MatchField::Ternary(0x0100, 0x0F00);
  EXPECT_TRUE(ternary.Matches(MatchKind::kTernary, 16, 0xA1FF));
  EXPECT_FALSE(ternary.Matches(MatchKind::kTernary, 16, 0xA2FF));

  MatchField range = MatchField::Range(10, 20);
  EXPECT_TRUE(range.Matches(MatchKind::kRange, 16, 10));
  EXPECT_TRUE(range.Matches(MatchKind::kRange, 16, 20));
  EXPECT_FALSE(range.Matches(MatchKind::kRange, 16, 21));

  EXPECT_TRUE(MatchField::Optional(std::nullopt)
                  .Matches(MatchKind::kOptional, 16, 1234));
  EXPECT_TRUE(MatchField::Optional(7).Matches(MatchKind::kOptional, 16, 7));
  EXPECT_FALSE(MatchField::Optional(7).Matches(MatchKind::kOptional, 16, 8));
}

/// A small LPM routing table exercised through TableState.
TEST(TableState, LongestPrefixWins) {
  Table schema;
  schema.name = "route";
  schema.keys = {{"meta.dst", MatchKind::kLpm, 32}};
  schema.actions = {"fwd"};
  TableState state(&schema);
  auto entry = [&](uint64_t value, int plen, uint64_t port) {
    TableEntry e;
    e.table = "route";
    e.match = {MatchField::Lpm(value, plen)};
    e.action = "fwd";
    e.action_args = {port};
    return e;
  };
  ASSERT_TRUE(state.Insert(entry(0x0A000000, 8, 1)).ok());
  ASSERT_TRUE(state.Insert(entry(0x0A010000, 16, 2)).ok());
  ASSERT_TRUE(state.Insert(entry(0x0A010200, 24, 3)).ok());
  EXPECT_EQ(state.Lookup({0x0A010203})->action_args[0], 3u);
  EXPECT_EQ(state.Lookup({0x0A01FF00})->action_args[0], 2u);
  EXPECT_EQ(state.Lookup({0x0AFF0000})->action_args[0], 1u);
  EXPECT_EQ(state.Lookup({0x0B000000}), nullptr);
  EXPECT_EQ(state.hits(), 3u);
  EXPECT_EQ(state.misses(), 1u);
}

TEST(TableState, TernaryPriority) {
  Table schema;
  schema.name = "acl";
  schema.keys = {{"meta.x", MatchKind::kTernary, 16}};
  schema.actions = {"a"};
  TableState state(&schema);
  TableEntry broad;
  broad.table = "acl";
  broad.match = {MatchField::Ternary(0, 0)};  // matches all
  broad.priority = 1;
  broad.action = "a";
  broad.action_args = {};
  TableEntry narrow = broad;
  narrow.match = {MatchField::Ternary(0x00FF, 0x00FF)};
  narrow.priority = 10;
  ASSERT_TRUE(state.Insert(broad).ok());
  ASSERT_TRUE(state.Insert(narrow).ok());
  EXPECT_EQ(state.Lookup({0x12FF})->priority, 10);
  EXPECT_EQ(state.Lookup({0x1200})->priority, 1);
}

TEST(TableState, DuplicateInsertAndModifyDelete) {
  Table schema;
  schema.name = "t";
  schema.keys = {{"meta.x", MatchKind::kExact, 16}};
  schema.actions = {"a", "b"};
  schema.size = 2;
  TableState state(&schema);
  TableEntry e;
  e.table = "t";
  e.match = {MatchField::Exact(1)};
  e.action = "a";
  ASSERT_TRUE(state.Insert(e).ok());
  EXPECT_FALSE(state.Insert(e).ok());  // duplicate
  e.action = "b";
  ASSERT_TRUE(state.Modify(e).ok());
  EXPECT_EQ(state.Lookup({1})->action, "b");
  ASSERT_TRUE(state.Remove(e).ok());
  EXPECT_FALSE(state.Remove(e).ok());  // already gone
  EXPECT_EQ(state.Lookup({1}), nullptr);

  // Capacity enforced.
  TableEntry e1 = e, e2 = e, e3 = e;
  e1.match = {MatchField::Exact(1)};
  e2.match = {MatchField::Exact(2)};
  e3.match = {MatchField::Exact(3)};
  ASSERT_TRUE(state.Insert(e1).ok());
  ASSERT_TRUE(state.Insert(e2).ok());
  EXPECT_FALSE(state.Insert(e3).ok());
}

TEST(P4Program, ValidateCatchesMistakes) {
  auto program = *snvs::SnvsP4Program();  // copy a known-good program
  program.tables[0].actions.push_back("NoSuchAction");
  EXPECT_FALSE(program.Validate().ok());

  auto program2 = *snvs::SnvsP4Program();
  program2.ingress.push_back(ControlNode::Apply("NoSuchTable"));
  EXPECT_FALSE(program2.Validate().ok());

  auto program3 = *snvs::SnvsP4Program();
  program3.parser[0].select = FieldRef("ethernet.nope");
  EXPECT_FALSE(program3.Validate().ok());

  auto program4 = *snvs::SnvsP4Program();
  program4.headers[0].fields[0].width = 100;
  EXPECT_FALSE(program4.Validate().ok());
}

TEST(RuntimeClient, ValidatesWrites) {
  auto program = snvs::SnvsP4Program();
  Switch device(program);
  RuntimeClient client(&device);

  TableEntry entry;
  entry.table = "Dmac";
  entry.match = {MatchField::Exact(10), MatchField::Exact(0xAABBCCDDEEFF)};
  entry.action = "Forward";
  entry.action_args = {3};
  EXPECT_TRUE(client.Insert(entry).ok());

  TableEntry bad = entry;
  bad.table = "NoTable";
  EXPECT_FALSE(client.Insert(bad).ok());

  bad = entry;
  bad.match.pop_back();
  EXPECT_FALSE(client.Insert(bad).ok());  // arity

  bad = entry;
  bad.match[0] = MatchField::Exact(0x1FFF);  // exceeds bit<12>
  EXPECT_FALSE(client.Insert(bad).ok());

  bad = entry;
  bad.action = "Flood";  // not permitted in Dmac
  EXPECT_FALSE(client.Insert(bad).ok());

  bad = entry;
  bad.action_args = {};  // wrong arity
  EXPECT_FALSE(client.Insert(bad).ok());

  bad = entry;
  bad.action_args = {0x1FFFF};  // exceeds bit<16> parameter
  EXPECT_FALSE(client.Insert(bad).ok());
}

TEST(RuntimeClient, BatchValidatesBeforeApplying) {
  auto program = snvs::SnvsP4Program();
  Switch device(program);
  RuntimeClient client(&device);
  TableEntry good;
  good.table = "FloodVlan";
  good.match = {MatchField::Exact(10)};
  good.action = "Flood";
  good.action_args = {11};
  TableEntry bad = good;
  bad.action = "NoSuchAction";
  Status result = client.Write({{UpdateType::kInsert, good},
                                {UpdateType::kInsert, bad}});
  EXPECT_FALSE(result.ok());
  // Validation failed before anything applied.
  EXPECT_EQ(device.GetTable("FloodVlan")->size(), 0u);
}

class InterpreterTest : public ::testing::Test {
 protected:
  InterpreterTest()
      : program_(snvs::SnvsP4Program()),
        device_(program_),
        client_(&device_) {}

  void ConfigureAccessPort(uint64_t port, uint64_t vlan) {
    TableEntry admit;
    admit.table = "InVlanUntagged";
    admit.match = {MatchField::Exact(port)};
    admit.action = "SetAccessVlan";
    admit.action_args = {vlan};
    ASSERT_TRUE(client_.Insert(admit).ok());
    TableEntry egress;
    egress.table = "OutVlan";
    egress.match = {MatchField::Exact(port), MatchField::Exact(vlan)};
    egress.action = "EmitUntagged";
    egress.action_args = {};
    ASSERT_TRUE(client_.Insert(egress).ok());
  }

  std::shared_ptr<const P4Program> program_;
  Switch device_;
  RuntimeClient client_;
};

TEST_F(InterpreterTest, ParserRejectsTruncatedPacket) {
  auto out = device_.ProcessPacket(PacketIn{1, {0xAA, 0xBB}});
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(device_.stats().parse_errors, 1u);
}

TEST_F(InterpreterTest, UnconfiguredPortDrops) {
  net::Packet frame = net::MakeEthernetFrame(
      Mac(0, 0, 0, 0, 0, 2), Mac(0, 0, 0, 0, 0, 1), 0x0800, {});
  auto out = device_.ProcessPacket(PacketIn{5, frame});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  EXPECT_EQ(device_.stats().dropped, 1u);
}

TEST_F(InterpreterTest, UnicastForwardAfterManualEntries) {
  ConfigureAccessPort(1, 10);
  ConfigureAccessPort(2, 10);
  TableEntry fwd;
  fwd.table = "Dmac";
  fwd.match = {MatchField::Exact(10), MatchField::Exact(0x02)};
  fwd.action = "Forward";
  fwd.action_args = {2};
  ASSERT_TRUE(client_.Insert(fwd).ok());

  net::Packet frame = net::MakeEthernetFrame(
      Mac(0, 0, 0, 0, 0, 2), Mac(0, 0, 0, 0, 0, 1), 0x0800, {0x55});
  auto out = device_.ProcessPacket(PacketIn{1, frame});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].port, 2u);
  EXPECT_EQ((*out)[0].packet, frame);  // untagged in, untagged out
}

TEST_F(InterpreterTest, DigestRaisedOnSMacMiss) {
  ConfigureAccessPort(1, 10);
  net::Packet frame = net::MakeEthernetFrame(
      Mac(0, 0, 0, 0, 0, 9), Mac(0, 0, 0, 0, 0, 7), 0x0800, {});
  ASSERT_TRUE(device_.ProcessPacket(PacketIn{1, frame}).ok());
  auto digests = device_.TakeDigests();
  ASSERT_EQ(digests.size(), 1u);
  EXPECT_EQ(digests[0].name, "MacLearn");
  ASSERT_EQ(digests[0].fields.size(), 3u);
  EXPECT_EQ(digests[0].fields[0], 1u);    // ingress port
  EXPECT_EQ(digests[0].fields[1], 10u);   // vlan
  EXPECT_EQ(digests[0].fields[2], 7u);    // src mac
  EXPECT_TRUE(device_.TakeDigests().empty());  // drained
}

TEST_F(InterpreterTest, MulticastReplicatesExceptSource) {
  ConfigureAccessPort(1, 10);
  ConfigureAccessPort(2, 10);
  ConfigureAccessPort(3, 10);
  TableEntry flood;
  flood.table = "FloodVlan";
  flood.match = {MatchField::Exact(10)};
  flood.action = "Flood";
  flood.action_args = {11};
  ASSERT_TRUE(client_.Insert(flood).ok());
  ASSERT_TRUE(client_.SetMulticastGroup(11, {1, 2, 3}).ok());

  net::Packet frame = net::MakeEthernetFrame(
      Mac::Broadcast(), Mac(0, 0, 0, 0, 0, 1), 0x0800, {});
  auto out = device_.ProcessPacket(PacketIn{1, frame});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 2u);  // 2 and 3; source 1 pruned
}

TEST_F(InterpreterTest, VlanPushPopRoundTrip) {
  // Trunk ingress (tagged) to access egress (untagged) and vice versa is
  // covered by the snvs integration tests; here, exercise push/pop at the
  // header level directly.
  ConfigureAccessPort(1, 42);
  TableEntry trunk_egress;
  trunk_egress.table = "OutVlan";
  trunk_egress.match = {MatchField::Exact(7), MatchField::Exact(42)};
  trunk_egress.action = "EmitTagged";
  trunk_egress.action_args = {42};
  ASSERT_TRUE(client_.Insert(trunk_egress).ok());
  TableEntry fwd;
  fwd.table = "Dmac";
  fwd.match = {MatchField::Exact(42), MatchField::Exact(0x02)};
  fwd.action = "Forward";
  fwd.action_args = {7};
  ASSERT_TRUE(client_.Insert(fwd).ok());

  net::Packet untagged = net::MakeEthernetFrame(
      Mac(0, 0, 0, 0, 0, 2), Mac(0, 0, 0, 0, 0, 1), 0x0800, {0xAB});
  auto out = device_.ProcessPacket(PacketIn{1, untagged});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  // The output must carry an 802.1Q tag with vid 42.
  net::PacketReader reader((*out)[0].packet);
  reader.Skip(12);
  EXPECT_EQ(*reader.ReadU16(), 0x8100u);
  EXPECT_EQ(*reader.ReadBits(4), 0u);
  EXPECT_EQ(*reader.ReadBits(12), 42u);
  EXPECT_EQ(*reader.ReadU16(), 0x0800u);
  EXPECT_EQ(*reader.ReadU8(), 0xABu);
}


TEST_F(InterpreterTest, PerEntryCounters) {
  ConfigureAccessPort(1, 10);
  ConfigureAccessPort(2, 10);
  TableEntry fwd;
  fwd.table = "Dmac";
  fwd.match = {MatchField::Exact(10), MatchField::Exact(0x02)};
  fwd.action = "Forward";
  fwd.action_args = {2};
  ASSERT_TRUE(client_.Insert(fwd).ok());
  net::Packet frame = net::MakeEthernetFrame(
      Mac(0, 0, 0, 0, 0, 2), Mac(0, 0, 0, 0, 0, 1), 0x0800, {});
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(device_.ProcessPacket(PacketIn{1, frame}).ok());
  }
  auto counters = client_.ReadCounters("Dmac");
  ASSERT_TRUE(counters.ok());
  ASSERT_EQ(counters->size(), 1u);
  EXPECT_EQ((*counters)[0].second, 3u);
}

TEST_F(InterpreterTest, StatsCountPackets) {
  ConfigureAccessPort(1, 10);
  net::Packet frame = net::MakeEthernetFrame(
      Mac(0, 0, 0, 0, 0, 2), Mac(0, 0, 0, 0, 0, 1), 0x0800, {});
  (void)device_.ProcessPacket(PacketIn{1, frame});
  (void)device_.ProcessPacket(PacketIn{9, frame});  // unconfigured: drop
  EXPECT_EQ(device_.stats().packets_in, 2u);
  EXPECT_GE(device_.stats().dropped, 1u);
}

// --- Table-store oracle ---------------------------------------------------
//
// Seeded random insert/modify/delete/lookup streams go through
// RuntimeClient over one table per match kind.  After every op the device
// must agree with a list model of P4Runtime's entry semantics: an entry is
// named by the words its keys' match kinds compare plus its priority, and
// a lookup takes the longest prefix sum, then the highest priority.

constexpr const char* kMatchKinds = R"p4(
program kinds;
header h { bit<8> a; bit<8> b; }
parser { state start { extract(h); goto accept; } }
action Set(bit<8> v) { h.b = v; }
table Exact { key = { h.a: exact; } actions = { Set; } size = 12; }
table Exact2 { key = { h.a: exact; h.b: exact; } actions = { Set; } size = 12; }
table Lpm { key = { h.a: lpm; } actions = { Set; } size = 12; }
table Ternary { key = { h.a: ternary; } actions = { Set; } size = 12; }
table Range { key = { h.a: range; } actions = { Set; } size = 12; }
table Opt { key = { h.a: optional; } actions = { Set; } size = 12; }
ingress {
  apply(Exact); apply(Exact2); apply(Lpm);
  apply(Ternary); apply(Range); apply(Opt);
}
egress { }
deparser { emit(h); }
)p4";

/// The reference store for one table: a plain list.
class ListModel {
 public:
  enum class Outcome { kOk, kExists, kMissing, kFull };

  explicit ListModel(const Table& schema) : schema_(schema) {}

  std::vector<uint64_t> Identity(const TableEntry& e) const {
    std::vector<uint64_t> id;
    for (size_t i = 0; i < schema_.keys.size(); ++i) {
      const MatchField& f = e.match[i];
      switch (schema_.keys[i].kind) {
        case MatchKind::kExact: id.push_back(f.value); break;
        case MatchKind::kLpm:
          id.insert(id.end(), {f.value, static_cast<uint64_t>(f.prefix_len)});
          break;
        case MatchKind::kTernary: id.insert(id.end(), {f.value, f.mask}); break;
        case MatchKind::kRange: id.insert(id.end(), {f.value, f.high}); break;
        case MatchKind::kOptional:
          id.insert(id.end(), {uint64_t{f.wildcard}, f.wildcard ? 0 : f.value});
          break;
      }
    }
    id.push_back(static_cast<uint64_t>(e.priority));
    return id;
  }

  Outcome Apply(UpdateType type, const TableEntry& e) {
    std::vector<uint64_t> id = Identity(e);
    size_t at = std::find(ids_.begin(), ids_.end(), id) - ids_.begin();
    if (type == UpdateType::kInsert) {
      if (list_.size() >= schema_.size) return Outcome::kFull;
      if (at != ids_.size()) return Outcome::kExists;
      list_.push_back(e);
      ids_.push_back(std::move(id));
      return Outcome::kOk;
    }
    if (at == ids_.size()) return Outcome::kMissing;
    if (type == UpdateType::kDelete) {
      list_.erase(list_.begin() + at);
      ids_.erase(ids_.begin() + at);
    } else {
      list_[at].action = e.action;
      list_[at].action_args = e.action_args;
    }
    return Outcome::kOk;
  }

  /// The best match for `key` (nullptr on a miss); `*unique` turns false
  /// when another entry ranks equal to it.
  const TableEntry* Lookup(const std::vector<uint64_t>& key,
                           bool* unique) const {
    const TableEntry* best = nullptr;
    std::pair<int, int32_t> best_rank;
    *unique = true;
    for (const TableEntry& e : list_) {
      int prefix = 0;
      bool hit = true;
      for (size_t i = 0; i < schema_.keys.size(); ++i) {
        const TableKey& k = schema_.keys[i];
        hit = hit && e.match[i].Matches(k.kind, k.width, key[i]);
        if (k.kind == MatchKind::kLpm) prefix += e.match[i].prefix_len;
      }
      if (!hit) continue;
      std::pair<int, int32_t> rank{prefix, e.priority};
      if (best == nullptr || rank > best_rank) {
        best = &e;
        best_rank = rank;
        *unique = true;
      } else if (rank == best_rank) {
        *unique = false;
      }
    }
    return best;
  }

  std::string Describe(const TableEntry& e) const {
    std::string out;
    for (uint64_t word : Identity(e)) {
      out += StrFormat("%llx.", static_cast<unsigned long long>(word));
    }
    return out + "->" + e.action + StrFormat("(%llx)",
        static_cast<unsigned long long>(e.action_args.at(0)));
  }

  std::vector<std::string> Dump() const {
    std::vector<std::string> out;
    for (const TableEntry& e : list_) out.push_back(Describe(e));
    std::sort(out.begin(), out.end());
    return out;
  }

  const std::vector<TableEntry>& list() const { return list_; }

 private:
  const Table& schema_;
  std::vector<TableEntry> list_;
  std::vector<std::vector<uint64_t>> ids_;  // Identity() of each list_ entry
};

ListModel::Outcome Classify(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return ListModel::Outcome::kOk;
    case StatusCode::kAlreadyExists: return ListModel::Outcome::kExists;
    case StatusCode::kNotFound: return ListModel::Outcome::kMissing;
    case StatusCode::kConstraintError: return ListModel::Outcome::kFull;
    default:
      ADD_FAILURE() << "unexpected status " << status.ToString();
      return ListModel::Outcome::kOk;
  }
}

/// A random match field of `kind`, drawn from a small domain so that
/// duplicates, misses and overlaps are common.
MatchField RandomField(MatchKind kind, std::mt19937_64& rng) {
  switch (kind) {
    case MatchKind::kExact:
      return MatchField::Exact(rng() % 16);
    case MatchKind::kLpm: {
      int plen = static_cast<int>(rng() % 9);
      uint64_t value = (rng() % 4) << 6;
      if (rng() % 4 == 0) value |= rng() % 64;  // bits below the prefix
      return MatchField::Lpm(value, plen);
    }
    case MatchKind::kTernary: {
      static constexpr uint64_t kMasks[] = {0x00, 0xC0, 0xF0, 0x0F, 0xFF};
      static constexpr uint64_t kValues[] = {0x00, 0x11, 0x5A, 0xF0, 0xFF};
      return MatchField::Ternary(kValues[rng() % 5], kMasks[rng() % 5]);
    }
    case MatchKind::kRange: {
      uint64_t low = rng() % 16;
      return MatchField::Range(low, low + rng() % 8);
    }
    case MatchKind::kOptional:
      return rng() % 4 == 0 ? MatchField::Optional(std::nullopt)
                            : MatchField::Optional(rng() % 8);
  }
  return {};
}

uint64_t RandomProbe(MatchKind kind, std::mt19937_64& rng) {
  switch (kind) {
    case MatchKind::kExact: return rng() % 16;
    case MatchKind::kLpm: return ((rng() % 4) << 6) | (rng() % 64);
    case MatchKind::kTernary: return rng() % 256;
    case MatchKind::kRange: return rng() % 28;
    case MatchKind::kOptional: return rng() % 10;
  }
  return 0;
}

TEST(TableStoreOracle, RandomStreamsMatchListModel) {
  auto program = ParseP4Text(kMatchKinds);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  int compared_lookups = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed);
    Switch device(*program);
    RuntimeClient client(&device);
    std::vector<ListModel> models;
    for (const Table& table : (*program)->tables) models.emplace_back(table);
    for (int step = 0; step < 600; ++step) {
      size_t t = rng() % models.size();
      const Table& schema = (*program)->tables[t];
      ListModel& model = models[t];
      TableState& state = *device.GetTable(schema.name);
      SCOPED_TRACE(StrFormat("seed %llu step %d table %s",
                             static_cast<unsigned long long>(seed), step,
                             schema.name.c_str()));
      uint64_t roll = rng() % 100;
      if (roll < 20) {
        std::vector<uint64_t> probe;
        for (const TableKey& key : schema.keys) {
          probe.push_back(RandomProbe(key.kind, rng));
        }
        bool unique = false;
        const TableEntry* want = model.Lookup(probe, &unique);
        const TableEntry* got = state.Lookup(probe);
        if (!unique) continue;  // overlapping equal ranks: undefined
        ++compared_lookups;
        ASSERT_EQ(got == nullptr, want == nullptr);
        if (want != nullptr) {
          EXPECT_EQ(model.Describe(*got), model.Describe(*want));
        }
        continue;
      }
      UpdateType type = roll < 60   ? UpdateType::kInsert
                        : roll < 75 ? UpdateType::kModify
                                    : UpdateType::kDelete;
      TableEntry entry;
      if (type != UpdateType::kInsert && !model.list().empty() &&
          rng() % 4 != 0) {
        entry = model.list()[rng() % model.list().size()];
      } else {
        entry.table = schema.name;
        bool ranked = false;
        for (const TableKey& key : schema.keys) {
          entry.match.push_back(RandomField(key.kind, rng));
          ranked = ranked || key.kind == MatchKind::kTernary ||
                   key.kind == MatchKind::kRange ||
                   key.kind == MatchKind::kOptional;
        }
        entry.priority = ranked ? static_cast<int32_t>(rng() % 3) : 0;
      }
      entry.action = "Set";
      entry.action_args = {rng() % 256};
      ListModel::Outcome want = model.Apply(type, entry);
      ASSERT_EQ(Classify(client.Write({Update{type, entry}})), want)
          << UpdateTypeName(type) << " " << model.Describe(entry);
      std::vector<std::string> held;
      for (const TableEntry* e : state.Entries()) {
        held.push_back(model.Describe(*e));
      }
      std::sort(held.begin(), held.end());
      ASSERT_EQ(held, model.Dump());
      ASSERT_EQ(state.size(), model.list().size());
    }
  }
  EXPECT_GT(compared_lookups, 1000);
}

/// Every entry `state` holds, as the model describes it, sorted.
std::vector<std::string> Held(const ListModel& model, const TableState& state) {
  std::vector<std::string> held;
  for (const TableEntry* e : state.Entries()) held.push_back(model.Describe(*e));
  std::sort(held.begin(), held.end());
  return held;
}

// Two exact tables sized for thousands of live entries, over a domain of
// about 10^4 keys: bursts that grow and shrink them regrow the store's
// index several times and leave long probe chains, some of which wrap past
// the end of the index.  After each burst every live key and a sample of
// absent keys are looked up.
constexpr const char* kLargeExact = R"p4(
program large;
header h { bit<16> a; bit<16> b; }
parser { state start { extract(h); goto accept; } }
action Set(bit<8> v) { }
table Exact { key = { h.a: exact; } actions = { Set; } size = 8192; }
table Exact2 { key = { h.a: exact; h.b: exact; } actions = { Set; } size = 8192; }
ingress { apply(Exact); apply(Exact2); }
egress { }
deparser { emit(h); }
)p4";

TEST(TableStoreOracle, GrowingExactTablesMatchListModel) {
  auto program = ParseP4Text(kLargeExact);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  std::mt19937_64 rng(7);
  Switch device(*program);
  RuntimeClient client(&device);
  for (const Table& schema : (*program)->tables) {
    ListModel model(schema);
    TableState& state = *device.GetTable(schema.name);
    // One key field per match key: 10^4 values for Exact, 100 x 100 for
    // Exact2.
    auto random_key = [&] {
      if (schema.keys.size() == 1) return std::vector<uint64_t>{rng() % 10000};
      return std::vector<uint64_t>{rng() % 100, rng() % 100};
    };
    size_t peak = 0;
    for (int burst = 0; burst < 7; ++burst) {
      SCOPED_TRACE(StrFormat("table %s burst %d", schema.name.c_str(), burst));
      bool grow = burst % 2 == 0;
      int ops = grow ? 2500 : 600;
      uint64_t insert_share = grow ? 90 : 20;
      for (int op = 0; op < ops; ++op) {
        UpdateType type = rng() % 100 < insert_share ? UpdateType::kInsert
                                                     : UpdateType::kDelete;
        TableEntry entry;
        if (type == UpdateType::kDelete && !model.list().empty() &&
            rng() % 4 != 0) {
          entry = model.list()[rng() % model.list().size()];
        } else {
          entry.table = schema.name;
          for (uint64_t value : random_key()) {
            entry.match.push_back(MatchField::Exact(value));
          }
        }
        entry.action = "Set";
        entry.action_args = {rng() % 256};
        ListModel::Outcome want = model.Apply(type, entry);
        ASSERT_EQ(Classify(client.Write({Update{type, entry}})), want)
            << UpdateTypeName(type) << " " << model.Describe(entry);
      }
      peak = std::max(peak, model.list().size());
      ASSERT_EQ(state.size(), model.list().size());
      ASSERT_EQ(Held(model, state), model.Dump());
      std::set<std::vector<uint64_t>> live;
      for (const TableEntry& e : model.list()) {
        std::vector<uint64_t> key;
        for (const MatchField& f : e.match) key.push_back(f.value);
        const TableEntry* got = state.Lookup(key);
        ASSERT_NE(got, nullptr) << model.Describe(e);
        ASSERT_EQ(model.Describe(*got), model.Describe(e));
        live.insert(std::move(key));
      }
      for (int probe = 0; probe < 500; ++probe) {
        std::vector<uint64_t> key = random_key();
        if (live.count(key) != 0) continue;
        ASSERT_EQ(state.Lookup(key), nullptr);
      }
    }
    EXPECT_GT(peak, 4000u) << "the stream never grew the table";
  }
}

// Batched writes of 1-8 updates over every match kind.  About a third of
// the batches carry a planted failure: a validation error, which must
// leave every table untouched, or an application error at position k,
// before which exactly k updates apply (the client's write_count() delta).
TEST(TableStoreOracle, BatchedWritesApplyTheirPrefix) {
  auto program = ParseP4Text(kMatchKinds);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  int prefixes = 0, invalid = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed);
    Switch device(*program);
    RuntimeClient client(&device);
    std::vector<ListModel> models;
    for (const Table& table : (*program)->tables) models.emplace_back(table);
    auto random_entry = [&](const Table& schema) {
      TableEntry entry;
      entry.table = schema.name;
      for (const TableKey& key : schema.keys) {
        entry.match.push_back(RandomField(key.kind, rng));
      }
      entry.priority =
          TakesPriority(schema) ? static_cast<int32_t>(rng() % 3) : 0;
      entry.action = "Set";
      entry.action_args = {rng() % 256};
      return entry;
    };
    for (int step = 0; step < 300; ++step) {
      SCOPED_TRACE(StrFormat("seed %llu batch %d",
                             static_cast<unsigned long long>(seed), step));
      std::vector<Update> batch(1 + rng() % 8);
      for (Update& update : batch) {
        size_t t = rng() % models.size();
        const ListModel& model = models[t];
        uint64_t roll = rng() % 100;
        update.type = roll < 60   ? UpdateType::kInsert
                      : roll < 75 ? UpdateType::kModify
                                  : UpdateType::kDelete;
        if (update.type != UpdateType::kInsert && !model.list().empty()) {
          update.entry = model.list()[rng() % model.list().size()];
          update.entry.action_args = {rng() % 256};
        } else {
          update.entry = random_entry((*program)->tables[t]);
        }
      }
      bool planted_invalid = false;
      if (rng() % 3 == 0) {
        Update& victim = batch[rng() % batch.size()];
        if (rng() % 2 == 0) {
          victim.entry.action_args = {0x1FF};  // exceeds bit<8> v
          victim.type = UpdateType::kInsert;
          planted_invalid = true;
        } else {
          // Insert an entry the table holds (or delete one it lacks).
          const ListModel& model =
              models[(*program)->FindTable(victim.entry.table) -
                     (*program)->tables.data()];
          if (!model.list().empty()) {
            victim.type = UpdateType::kInsert;
            victim.entry = model.list()[rng() % model.list().size()];
          } else {
            victim.type = UpdateType::kDelete;
          }
        }
      }
      uint64_t before = client.write_count();
      Status status = client.Write(batch);
      uint64_t applied = client.write_count() - before;
      if (planted_invalid) {
        ++invalid;
        EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(applied, 0u);
      } else {
        size_t k = 0;
        ListModel::Outcome first = ListModel::Outcome::kOk;
        for (; k < batch.size(); ++k) {
          size_t t = (*program)->FindTable(batch[k].entry.table) -
                     (*program)->tables.data();
          first = models[t].Apply(batch[k].type, batch[k].entry);
          if (first != ListModel::Outcome::kOk) break;
        }
        if (k > 0 && k < batch.size()) ++prefixes;
        ASSERT_EQ(Classify(status), first) << status.ToString();
        ASSERT_EQ(applied, k);
      }
      for (size_t t = 0; t < models.size(); ++t) {
        ASSERT_EQ(Held(models[t], *device.GetTable((*program)->tables[t].name)),
                  models[t].Dump());
      }
    }
  }
  // Both kinds of failure were exercised, and so were partial prefixes.
  EXPECT_GT(invalid, 300);
  EXPECT_GT(prefixes, 500);
}

TEST(RuntimeClient, PriorityOnlyOnTablesThatRankEntries) {
  // P4Runtime: priority orders overlapping entries, so only a table with a
  // ternary, range or optional key takes one.  Elsewhere a non-zero
  // priority would name a second entry for the same match, one that a
  // lookup could never reach.
  auto program = snvs::SnvsP4Program();
  Switch device(program);
  RuntimeClient client(&device);
  TableEntry flood;
  flood.table = "FloodVlan";
  flood.match = {MatchField::Exact(7)};
  flood.action = "Flood";
  flood.action_args = {11};
  ASSERT_TRUE(client.Insert(flood).ok());
  TableEntry ranked = flood;
  ranked.priority = 5;
  EXPECT_EQ(client.Insert(ranked).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(client.Delete(ranked).code(), StatusCode::kInvalidArgument);
  TableState* table = device.GetTable("FloodVlan");
  EXPECT_NE(table->Lookup({7}), nullptr);
  TableEntry other = flood;
  other.match = {MatchField::Exact(8)};
  EXPECT_EQ(client.Write({{UpdateType::kInsert, other},
                          {UpdateType::kInsert, ranked}})
                .code(),
            StatusCode::kInvalidArgument);
  // Nothing of the rejected batch applied, and the priority-0 entry is
  // still installed and reachable.
  EXPECT_EQ(table->size(), 1u);
  EXPECT_NE(table->Lookup({7}), nullptr);
  // The store itself refuses an entry that its lookup cannot reach.
  EXPECT_EQ(table->Insert(ranked).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(table->size(), 1u);

  // LPM ranks by prefix length, not priority; ternary takes a priority.
  auto kinds = ParseP4Text(kMatchKinds);
  ASSERT_TRUE(kinds.ok());
  Switch kinds_device(*kinds);
  RuntimeClient kinds_client(&kinds_device);
  TableEntry route;
  route.table = "Lpm";
  route.match = {MatchField::Lpm(0x80, 1)};
  route.priority = 1;
  route.action = "Set";
  route.action_args = {1};
  EXPECT_EQ(kinds_client.Insert(route).code(), StatusCode::kInvalidArgument);
  TableEntry acl = route;
  acl.table = "Ternary";
  acl.match = {MatchField::Ternary(0x80, 0x80)};
  EXPECT_TRUE(kinds_client.Insert(acl).ok());
}

// --- Data-plane golden corpus ---------------------------------------------
//
// A seeded corpus of frames runs through every shipped P4 program, with
// entries installed through RuntimeClient.  Every observable result is
// folded into one FNV-1a fingerprint: status code, output ports and bytes,
// digests, Switch::Stats and per-table hits and misses.  The pinned value
// records the packet path's behaviour; a rewrite of the interpreter or the
// packet codecs must reproduce it bit for bit.

constexpr uint64_t kGoldenFingerprint = 0x47f339638271cdf0ULL;

class Fnv1a {
 public:
  void Add(uint64_t word) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<uint8_t>(word >> (8 * i)));
  }
  void Add(const std::vector<uint8_t>& bytes) {
    Add(bytes.size());
    for (uint8_t byte : bytes) Byte(byte);
  }
  void Add(const std::string& text) {
    Add(text.size());
    for (char c : text) Byte(static_cast<uint8_t>(c));
  }
  uint64_t value() const { return hash_; }

 private:
  void Byte(uint8_t byte) { hash_ = (hash_ ^ byte) * 0x100000001b3ULL; }
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

TableEntry ExactEntry(std::string table, std::vector<uint64_t> keys,
                      std::string action, std::vector<uint64_t> args) {
  TableEntry entry;
  entry.table = std::move(table);
  for (uint64_t key : keys) entry.match.push_back(MatchField::Exact(key));
  entry.action = std::move(action);
  entry.action_args = std::move(args);
  return entry;
}

constexpr uint64_t kHostBase = 0x020000000000ULL;

/// snvs: access ports 1-4 on VLAN 10 and 5-8 on VLAN 20, trunks 9 and 10
/// on VLANs 10, 20 and 30, a mirror of port 3 to port 11, one ACL drop and
/// one allow, and hosts 0-23 learned on their ports (hosts 24-31 are not).
void InstallSnvs(RuntimeClient& client) {
  std::vector<Update> updates;
  auto add = [&](TableEntry entry) {
    updates.push_back({UpdateType::kInsert, std::move(entry)});
  };
  std::map<uint64_t, std::vector<uint64_t>> members;  // vlan -> ports
  for (uint64_t port = 1; port <= 8; ++port) {
    uint64_t vlan = port <= 4 ? 10 : 20;
    add(ExactEntry("InVlanUntagged", {port}, "SetAccessVlan", {vlan}));
    add(ExactEntry("OutVlan", {port, vlan}, "EmitUntagged", {}));
    members[vlan].push_back(port);
  }
  for (uint64_t port : {9, 10}) {
    for (uint64_t vlan : {10, 20, 30}) {
      add(ExactEntry("InVlanTagged", {port, vlan}, "UseTaggedVlan", {vlan}));
      add(ExactEntry("OutVlan", {port, vlan}, "EmitTagged", {vlan}));
      members[vlan].push_back(port);
    }
  }
  for (const auto& [vlan, ports] : members) {
    add(ExactEntry("FloodVlan", {vlan}, "Flood", {vlan + 1}));
    ASSERT_TRUE(client
                    .SetMulticastGroup(static_cast<uint32_t>(vlan + 1),
                                       ports)
                    .ok());
  }
  add(ExactEntry("PortMirror", {3}, "MirrorTo", {11}));
  add(ExactEntry("Acl", {10, kHostBase + 5}, "AclDrop", {}));
  add(ExactEntry("Acl", {20, kHostBase + 6}, "AclAllow", {}));
  for (uint64_t host = 0; host < 24; ++host) {
    uint64_t port = 1 + host % 10;
    uint64_t vlan = port <= 4 ? 10 : port <= 8 ? 20 : 30;
    add(ExactEntry("SMac", {vlan, kHostBase + host, port}, "NoAction", {}));
    add(ExactEntry("Dmac", {vlan, kHostBase + host}, "Forward", {port}));
  }
  ASSERT_TRUE(client.Write(updates).ok());
}

/// ip_fabric: nested routes under 10/8 and one under 192.168/16.
void InstallFabric(RuntimeClient& client) {
  std::vector<Update> updates;
  auto route = [&](uint64_t prefix, int plen, uint64_t port) {
    TableEntry entry;
    entry.table = "IpRoute";
    entry.match = {MatchField::Lpm(prefix, plen)};
    entry.action = "Route";
    entry.action_args = {port};
    updates.push_back({UpdateType::kInsert, std::move(entry)});
  };
  route(0x0A000000, 8, 1);
  route(0x0A010000, 16, 2);
  route(0x0A010200, 24, 3);
  route(0xC0A80000, 16, 4);
  ASSERT_TRUE(client.Write(updates).ok());
}

/// multi_device: ports 1-6 assigned to VLANs.
void InstallMultiDevice(RuntimeClient& client) {
  std::vector<Update> updates;
  for (uint64_t port = 1; port <= 6; ++port) {
    updates.push_back({UpdateType::kInsert,
                       ExactEntry("VlanMap", {port}, "Assign", {port * 7})});
  }
  ASSERT_TRUE(client.Write(updates).ok());
}

/// One corpus frame: 0-1,600 bytes, tagged or untagged, to a learned host,
/// an unknown host or broadcast, with known and unknown EtherTypes and an
/// IPv4-shaped payload head; one in eight is cut inside its headers.  Half
/// the frames from a host arrive on its own port.
PacketIn CorpusFrame(std::mt19937_64& rng) {
  static constexpr uint64_t kEtherTypes[] = {0x0800, 0x0800, 0x86DD, 0x0806,
                                             0x8100};
  static constexpr uint64_t kDsts[] = {0x0A010203, 0x0A01FF00, 0x0AFF0001,
                                       0xC0A80101, 0x0B000001};
  uint64_t roll = rng() % 10;
  uint64_t dst = roll < 2   ? 0xFFFFFFFFFFFFULL
                 : roll < 8 ? kHostBase + rng() % 32
                            : rng() & 0xFFFFFFFFFFFFULL;
  uint64_t host = rng() % 32;
  uint64_t src = rng() % 8 != 0 ? kHostBase + host
                                : rng() & 0xFFFFFFFFFFFFULL;
  uint64_t port = rng() % 13;
  if (src == kHostBase + host && rng() % 2 == 0) port = 1 + host % 10;
  net::PacketWriter writer;
  writer.WriteBits(dst, 48);
  writer.WriteBits(src, 48);
  if (rng() % 3 == 0) {
    static constexpr uint64_t kVids[] = {10, 20, 30, 99};
    writer.WriteU16(0x8100);
    writer.WriteBits(rng(), 3);  // pcp
    writer.WriteBits(rng(), 1);  // dei
    writer.WriteBits(rng() % 5 == 0 ? rng() : kVids[rng() % 4], 12);
  }
  writer.WriteU16(static_cast<uint16_t>(
      rng() % 6 == 0 ? rng() : kEtherTypes[rng() % 5]));
  writer.WriteU8(static_cast<uint8_t>(rng()));                 // ttl
  writer.WriteU32(static_cast<uint32_t>(rng()));               // src
  uint64_t ip_dst = rng();
  if (rng() % 4 != 0) ip_dst = kDsts[rng() % 5] + ip_dst % 4;
  writer.WriteU32(static_cast<uint32_t>(ip_dst));              // dst
  net::Packet frame = writer.Finish();
  size_t length = rng() % 8 == 0   ? rng() % 27
                  : rng() % 2 == 0 ? 60 + rng() % 5
                                   : 27 + rng() % 1574;
  size_t head = frame.size();
  frame.resize(length);
  for (size_t i = head; i < length; ++i) {
    frame[i] = static_cast<uint8_t>(rng());
  }
  return PacketIn{port, std::move(frame)};
}

TEST(Interpreter, GoldenCorpus) {
  Fnv1a fingerprint;
  int programs = 0;
  for (const std::string& name : examples::StackNames()) {
    auto stack = examples::GetStack(name);
    ASSERT_TRUE(stack.ok()) << stack.status().ToString();
    if (stack->p4 == nullptr) continue;
    SCOPED_TRACE(name);
    ++programs;
    Switch device(stack->p4);
    RuntimeClient client(&device);
    if (name == "snvs") {
      ASSERT_NO_FATAL_FAILURE(InstallSnvs(client));
    } else if (name == "ip_fabric") {
      ASSERT_NO_FATAL_FAILURE(InstallFabric(client));
    } else if (name == "multi_device") {
      ASSERT_NO_FATAL_FAILURE(InstallMultiDevice(client));
    }
    std::mt19937_64 rng(programs);
    for (int i = 0; i < 5000; ++i) {
      auto out = device.ProcessPacket(CorpusFrame(rng));
      fingerprint.Add(static_cast<uint64_t>(out.status().code()));
      if (out.ok()) {
        fingerprint.Add(out->size());
        for (const PacketOut& packet : *out) {
          fingerprint.Add(packet.port);
          fingerprint.Add(packet.packet);
        }
      }
      for (const DigestMessage& digest : device.TakeDigests()) {
        fingerprint.Add(digest.name);
        for (uint64_t field : digest.fields) fingerprint.Add(field);
      }
    }
    const Switch::Stats& stats = device.stats();
    for (uint64_t count : {stats.packets_in, stats.packets_out, stats.dropped,
                           stats.digests, stats.parse_errors}) {
      fingerprint.Add(count);
    }
    for (const Table& table : stack->p4->tables) {
      fingerprint.Add(device.GetTable(table.name)->hits());
      fingerprint.Add(device.GetTable(table.name)->misses());
    }
  }
  EXPECT_EQ(programs, 3);
  EXPECT_EQ(fingerprint.value(), kGoldenFingerprint)
      << StrFormat("0x%016llx",
                   static_cast<unsigned long long>(fingerprint.value()));
}

}  // namespace
}  // namespace nerpa::p4
