// Tests for the textual P4 frontend: parsing, diagnostics, round-trip
// through ToP4Text, and semantic equivalence of the parsed snvs pipeline.
#include <gtest/gtest.h>

#include <string>

#include "common/strings.h"
#include "p4/interpreter.h"
#include "p4/text.h"
#include "snvs/snvs.h"

namespace nerpa::p4 {
namespace {

constexpr const char* kMinimal = R"p4(
program mini;
header ethernet {
  bit<48> dstAddr;
  bit<48> srcAddr;
  bit<16> etherType;
}
metadata { bit<4> color; }
parser {
  state start {
    extract(ethernet);
    goto accept;
  }
}
action Out(bit<16> port) { output(port); meta.color = 2; }
action Toss() { drop(); }
table Fwd {
  key = { ethernet.dstAddr: exact; }
  actions = { Out; }
  default_action = Toss;
  size = 128;
}
ingress { apply(Fwd); }
egress { }
deparser { emit(ethernet); }
)p4";

TEST(P4Text, ParsesMinimalProgram) {
  auto program = ParseP4Text(kMinimal);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ((*program)->name, "mini");
  ASSERT_EQ((*program)->tables.size(), 1u);
  EXPECT_EQ((*program)->tables[0].size, 128u);
  EXPECT_EQ((*program)->tables[0].default_action, "Toss");
  const Action* out = (*program)->FindAction("Out");
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(out->ops.size(), 2u);
  EXPECT_EQ(out->ops[0].kind, ActionOp::Kind::kOutput);
  EXPECT_EQ(out->ops[0].param, "port");
  EXPECT_EQ(out->ops[1].kind, ActionOp::Kind::kSetFieldConst);
  EXPECT_EQ(out->ops[1].immediate, 2u);
}

TEST(P4Text, ParsedMinimalProgramForwards) {
  auto program = ParseP4Text(kMinimal);
  ASSERT_TRUE(program.ok());
  Switch device(*program);
  TableEntry entry;
  entry.table = "Fwd";
  entry.match = {MatchField::Exact(0xBB)};
  entry.action = "Out";
  entry.action_args = {7};
  ASSERT_TRUE(device.GetTable("Fwd")->Insert(entry).ok());
  net::Packet frame = net::MakeEthernetFrame(
      net::Mac(0, 0, 0, 0, 0, 0xBB), net::Mac(0, 0, 0, 0, 0, 0xAA), 0x0800,
      {1, 2});
  auto out = device.ProcessPacket(PacketIn{1, frame});
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].port, 7u);
  // Unknown destination hits the Toss default.
  frame = net::MakeEthernetFrame(net::Mac(0, 0, 0, 0, 0, 0xCC),
                                 net::Mac(0, 0, 0, 0, 0, 0xAA), 0x0800, {});
  out = device.ProcessPacket(PacketIn{1, frame});
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
}

TEST(P4Text, SnvsSourceParses) {
  auto program = ParseP4Text(snvs::SnvsP4Source());
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ((*program)->tables.size(), 8u);
  EXPECT_EQ((*program)->digests.size(), 1u);
  EXPECT_EQ((*program)->actions.size(), 12u);
}

TEST(P4Text, RoundTripThroughPrinter) {
  for (const char* source : {kMinimal}) {
    auto first = ParseP4Text(source);
    ASSERT_TRUE(first.ok());
    std::string printed = ToP4Text(**first);
    auto second = ParseP4Text(printed);
    ASSERT_TRUE(second.ok()) << second.status().ToString() << "\n" << printed;
    EXPECT_EQ(printed, ToP4Text(**second));
  }
  // And the real program.
  auto first = ParseP4Text(snvs::SnvsP4Source());
  ASSERT_TRUE(first.ok());
  std::string printed = ToP4Text(**first);
  auto second = ParseP4Text(printed);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(printed, ToP4Text(**second));
}

TEST(P4Text, Diagnostics) {
  // Unknown table in control.
  EXPECT_FALSE(ParseP4Text(R"p4(
    header h { bit<8> x; }
    parser { state start { extract(h); goto accept; } }
    ingress { apply(Nope); }
    deparser { }
  )p4").ok());
  // Action uses a parameter it does not declare.
  EXPECT_FALSE(ParseP4Text(R"p4(
    header h { bit<8> x; }
    parser { state start { goto accept; } }
    action A() { output(port); }
    deparser { }
  )p4").ok());
  // Bad match kind.
  EXPECT_FALSE(ParseP4Text(R"p4(
    header h { bit<8> x; }
    parser { state start { extract(h); goto accept; } }
    action A() { }
    table T { key = { h.x: fuzzy; } actions = { A; } }
    ingress { apply(T); }
    deparser { }
  )p4").ok());
  // Width out of range.
  EXPECT_FALSE(ParseP4Text("header h { bit<99> x; }").ok());
  // Digest that does not exist.
  EXPECT_FALSE(ParseP4Text(R"p4(
    header h { bit<8> x; }
    parser { state start { extract(h); goto accept; } }
    action A() { digest(Nothing); }
    deparser { }
  )p4").ok());
  // Two programs that would misbehave on every packet are rejected at
  // load, naming the field: a digest over a field that does not exist
  // (it would carry 0), and a write to the read-only ingress port (every
  // packet would fail).  The first case is the valid control.
  struct Case {
    const char* digest_field;
    const char* statement;
    const char* named;  // nullptr: the program is valid
  };
  for (const Case& c :
       {Case{"meta.m", "digest(D);", nullptr},
        Case{"meta.nosuch", "digest(D);", "meta.nosuch"},
        Case{"meta.m", "standard.ingress_port = 3;",
             "standard.ingress_port"}}) {
    std::string source = StrFormat(R"p4(
      header h { bit<8> x; }
      metadata { bit<4> m; }
      digest D { %s: bit<4>; }
      parser { state start { extract(h); goto accept; } }
      action A() { %s }
      table T { key = { h.x: exact; } actions = { A; } }
      ingress { apply(T); }
      deparser { emit(h); }
    )p4", c.digest_field, c.statement);
    auto program = ParseP4Text(source);
    EXPECT_EQ(program.ok(), c.named == nullptr) << source;
    if (!program.ok() && c.named != nullptr) {
      EXPECT_NE(program.status().message().find(c.named), std::string::npos)
          << program.status().ToString();
    }
  }
}

TEST(P4Text, WritesKeepToTheFieldWidth) {
  // Every store into a bit<w> field keeps its low w bits: a header field,
  // a metadata field and the standard egress port alike.
  auto program = ParseP4Text(R"p4(
    header ethernet { bit<48> dstAddr; bit<48> srcAddr; bit<16> etherType; }
    metadata { bit<4> m; }
    parser { state start { extract(ethernet); goto accept; } }
    action Mark() { meta.m = 0x1f; ethernet.etherType = 0x1ffff; }
    action Send() { standard.egress_port = 0x10007; }
    action Stray() { output(9); }
    table Classify { key = { ethernet.srcAddr: exact; } actions = { Mark; }
                     default_action = Mark; }
    table Fwd { key = { meta.m: exact; } actions = { Send; }
                default_action = Stray; }
    ingress { apply(Classify); apply(Fwd); }
    egress { }
    deparser { emit(ethernet); }
  )p4");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Switch device(*program);
  TableEntry send;
  send.table = "Fwd";
  send.match = {MatchField::Exact(0xF)};
  send.action = "Send";
  ASSERT_TRUE(device.GetTable("Fwd")->Insert(send).ok());
  net::Packet frame = net::MakeEthernetFrame(
      net::Mac(0, 0, 0, 0, 0, 0xBB), net::Mac(0, 0, 0, 0, 0, 0xAA), 0x0800,
      {1, 2});
  auto out = device.ProcessPacket(PacketIn{1, frame});
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->size(), 1u);
  EXPECT_EQ((*out)[0].port, 7u);  // meta.m == 0xf hit Fwd; 0x10007 -> 7
  net::PacketReader reader((*out)[0].packet);
  ASSERT_TRUE(reader.Skip(12));
  EXPECT_EQ(*reader.ReadU16(), 0xFFFFu);
}

TEST(P4Text, NegatedValidAndFieldConditions) {
  auto program = ParseP4Text(R"p4(
    header h { bit<8> x; }
    header g { bit<8> y; }
    metadata { bit<2> m; }
    parser { state start { extract(h); goto accept; } }
    action A() { }
    table T { key = { h.x: exact; } actions = { A; } }
    table U { key = { h.x: exact; } actions = { A; } }
    ingress {
      if (!valid(g)) { apply(T); }
      if (meta.m != 1) { apply(U); }
    }
    deparser { emit(h); }
  )p4");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ASSERT_EQ((*program)->ingress.size(), 2u);
  EXPECT_EQ((*program)->ingress[0].pred, ControlNode::Pred::kHeaderInvalid);
  EXPECT_EQ((*program)->ingress[1].pred, ControlNode::Pred::kFieldNe);
}

}  // namespace
}  // namespace nerpa::p4
