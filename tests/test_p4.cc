// Unit tests for the P4 subsystem: IR validation, match-kind semantics,
// the behavioural interpreter (parsing, pipeline, multicast, digests,
// VLAN push/pop, clones), the P4Runtime-style API validation, and a
// differential oracle for the table store.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "common/strings.h"
#include "net/packet.h"
#include "p4/interpreter.h"
#include "p4/runtime.h"
#include "p4/text.h"
#include "snvs/snvs.h"

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
    auto it = std::find_if(list_.begin(), list_.end(), [&](const auto& held) {
      return Identity(held) == Identity(e);
    });
    if (type == UpdateType::kInsert) {
      if (list_.size() >= schema_.size) return Outcome::kFull;
      if (it != list_.end()) return Outcome::kExists;
      list_.push_back(e);
      return Outcome::kOk;
    }
    if (it == list_.end()) return Outcome::kMissing;
    if (type == UpdateType::kDelete) {
      list_.erase(it);
    } else {
      it->action = e.action;
      it->action_args = e.action_args;
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

}  // namespace
}  // namespace nerpa::p4
