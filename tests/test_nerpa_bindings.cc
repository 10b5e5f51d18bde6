// Unit tests for the Nerpa core: binding generation shapes, the
// cross-plane type checker, and the generated data-movement helpers
// (OVSDB row -> dlog row, dlog row -> P4Runtime entry, digest -> dlog row).
#include <gtest/gtest.h>

#include <fstream>

#include "nerpa/bindings.h"
#include "nerpa/controller.h"
#include "snvs/snvs.h"

namespace nerpa {
namespace {

class BindingsTest : public ::testing::Test {
 protected:
  BindingsTest() : schema_(snvs::SnvsSchema()), p4_(snvs::SnvsP4Program()) {
    auto bindings = GenerateBindings(schema_, *p4_);
    EXPECT_TRUE(bindings.ok()) << bindings.status().ToString();
    bindings_ = std::move(bindings).value();
  }

  const dlog::RelationDecl* FindDecl(const std::string& name) const {
    for (const auto& decl : bindings_.inputs) {
      if (decl.name == name) return &decl;
    }
    for (const auto& decl : bindings_.outputs) {
      if (decl.name == name) return &decl;
    }
    return nullptr;
  }

  ovsdb::DatabaseSchema schema_;
  std::shared_ptr<const p4::P4Program> p4_;
  Bindings bindings_;
};

TEST_F(BindingsTest, OvsdbTableShape) {
  const dlog::RelationDecl* port = FindDecl("Port");
  ASSERT_NE(port, nullptr);
  EXPECT_EQ(port->role, dlog::RelationRole::kInput);
  ASSERT_EQ(port->columns.size(), 6u);  // _uuid + 5 schema columns
  EXPECT_EQ(port->columns[0].name, "_uuid");
  EXPECT_EQ(port->columns[0].type, dlog::Type::String());
  EXPECT_EQ(port->columns[2].name, "port");
  EXPECT_EQ(port->columns[2].type, dlog::Type::Int());
  EXPECT_EQ(port->columns[5].name, "trunks");
  EXPECT_EQ(port->columns[5].type, dlog::Type::Vec(dlog::Type::Int()));
}

TEST_F(BindingsTest, DigestShape) {
  const dlog::RelationDecl* learn = FindDecl("MacLearn");
  ASSERT_NE(learn, nullptr);
  EXPECT_EQ(learn->role, dlog::RelationRole::kInput);
  ASSERT_EQ(learn->columns.size(), 3u);
  EXPECT_EQ(learn->columns[0].name, "standard_ingress_port");
  EXPECT_EQ(learn->columns[0].type, dlog::Type::Bit(16));
  EXPECT_EQ(learn->columns[2].type, dlog::Type::Bit(48));
}

TEST_F(BindingsTest, MulticastRelationGeneratedIffProgramMulticasts) {
  // snvs floods through `multicast(group)`.
  EXPECT_EQ(bindings_.multicast_relation, "MulticastGroup");
  const dlog::RelationDecl* group = FindDecl("MulticastGroup");
  ASSERT_NE(group, nullptr);
  EXPECT_EQ(group->ToString(),
            "output relation MulticastGroup(group: bit<16>, port: bit<16>)");
  BindingOptions routed;
  routed.with_device_column = true;
  auto with_device = GenerateBindings(schema_, *p4_, routed);
  ASSERT_TRUE(with_device.ok()) << with_device.status().ToString();
  EXPECT_EQ(with_device->outputs.back().ToString(),
            "output relation MulticastGroup(device: string, group: bit<16>, "
            "port: bit<16>)");

  // Without a multicast op nothing is generated.
  p4::P4Program program = *p4_;
  for (p4::Action& action : program.actions) {
    if (action.name == "Flood") action.ops = {p4::ActionOp::Drop()};
  }
  ASSERT_TRUE(program.Validate().ok());
  auto unicast = GenerateBindings(schema_, program);
  ASSERT_TRUE(unicast.ok()) << unicast.status().ToString();
  EXPECT_EQ(unicast->multicast_relation, "");
  for (const dlog::RelationDecl& decl : unicast->outputs) {
    EXPECT_NE(decl.name, "MulticastGroup");
  }
  EXPECT_EQ(unicast->outputs.size(), bindings_.outputs.size() - 1);
}

TEST_F(BindingsTest, TableOutputShape) {
  const dlog::RelationDecl* dmac = FindDecl("Dmac");
  ASSERT_NE(dmac, nullptr);
  EXPECT_EQ(dmac->role, dlog::RelationRole::kOutput);
  ASSERT_EQ(dmac->columns.size(), 4u);
  EXPECT_EQ(dmac->columns[0].name, "meta_vlan");
  EXPECT_EQ(dmac->columns[1].name, "ethernet_dstAddr");
  EXPECT_EQ(dmac->columns[2].name, "action");
  EXPECT_EQ(dmac->columns[3].name, "port");  // Forward's parameter
}

TEST_F(BindingsTest, MatchKindColumnsGenerated) {
  // A synthetic table exercising every match kind.
  p4::P4Program program = *p4_;
  p4::Table fancy;
  fancy.name = "Fancy";
  fancy.keys = {
      {"ethernet.dstAddr", p4::MatchKind::kLpm, 0},
      {"meta.vlan", p4::MatchKind::kTernary, 0},
      {"standard.ingress_port", p4::MatchKind::kRange, 0},
      {"ethernet.etherType", p4::MatchKind::kOptional, 0},
  };
  fancy.actions = {"NoAction"};
  program.tables.push_back(fancy);
  program.ingress.push_back(p4::ControlNode::Apply("Fancy"));
  ASSERT_TRUE(program.Validate().ok());

  auto bindings = GenerateBindings(schema_, program, {});
  ASSERT_TRUE(bindings.ok()) << bindings.status().ToString();
  const dlog::RelationDecl* decl = nullptr;
  for (const auto& candidate : bindings->outputs) {
    if (candidate.name == "Fancy") decl = &candidate;
  }
  ASSERT_NE(decl, nullptr);
  std::vector<std::string> names;
  for (const auto& column : decl->columns) names.push_back(column.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{
                "ethernet_dstAddr", "ethernet_dstAddr_plen", "meta_vlan",
                "meta_vlan_mask", "standard_ingress_port_lo",
                "standard_ingress_port_hi", "ethernet_etherType",
                "ethernet_etherType_present", "priority", "action"}));
}

TEST_F(BindingsTest, TypeCheckAcceptsGeneratedProgram) {
  std::string source = bindings_.DeclsText() + snvs::SnvsRules();
  auto program = dlog::Program::Parse(source);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_TRUE(TypeCheck(**program, bindings_).ok());
}

TEST_F(BindingsTest, TypeCheckRejectsMissingRelation) {
  auto program = dlog::Program::Parse("relation Lonely(x: bigint)");
  ASSERT_TRUE(program.ok());
  Status check = TypeCheck(**program, bindings_);
  EXPECT_FALSE(check.ok());
  // Diagnostic carries the expected shape.
  EXPECT_NE(check.message().find("relation"), std::string::npos);
}

TEST_F(BindingsTest, TypeCheckRejectsWrongRoleAndColumns) {
  // Declare Dmac as input with wrong columns.
  std::string source = bindings_.DeclsText() + snvs::SnvsRules();
  size_t pos = source.find("output relation Dmac");
  ASSERT_NE(pos, std::string::npos);
  std::string sabotaged = source;
  sabotaged.replace(pos, 21, "input relation Dmac(");
  // This breaks parsing of the rules that write Dmac; either parse or
  // type-check must fail.
  auto program = dlog::Program::Parse(sabotaged);
  if (program.ok()) {
    EXPECT_FALSE(TypeCheck(**program, bindings_).ok());
  }
}

TEST_F(BindingsTest, OvsdbRowConversion) {
  const ovsdb::TableSchema* port = schema_.FindTable("Port");
  ovsdb::Row row;
  row.uuid = ovsdb::Uuid::Generate();
  row.columns["name"] = ovsdb::Datum::String("p1");
  row.columns["port"] = ovsdb::Datum::Integer(4);
  row.columns["vlan_mode"] = ovsdb::Datum::String("trunk");
  row.columns["tag"] = ovsdb::Datum::Integer(0);
  row.columns["trunks"] = ovsdb::Datum::Set(
      {ovsdb::Atom(int64_t{20}), ovsdb::Atom(int64_t{10})});
  auto converted = OvsdbRowToDlog(*port, row);
  ASSERT_TRUE(converted.ok()) << converted.status().ToString();
  ASSERT_EQ(converted->size(), 6u);
  EXPECT_EQ((*converted)[0],
            dlog::Value::String(row.uuid.ToString()));
  EXPECT_EQ((*converted)[2], dlog::Value::Int(4));
  // Sets arrive sorted.
  EXPECT_EQ((*converted)[5],
            dlog::Value::Tuple({dlog::Value::Int(10), dlog::Value::Int(20)}));
}

TEST_F(BindingsTest, MissingColumnsUseDefaults) {
  const ovsdb::TableSchema* port = schema_.FindTable("Port");
  ovsdb::Row row;
  row.uuid = ovsdb::Uuid::Generate();
  auto converted = OvsdbRowToDlog(*port, row);
  ASSERT_TRUE(converted.ok());
  EXPECT_EQ((*converted)[1], dlog::Value::String(""));
  EXPECT_EQ((*converted)[2], dlog::Value::Int(0));
}

TEST_F(BindingsTest, EntryConversionRoundTrip) {
  const TableBinding* binding = bindings_.FindTable("Dmac");
  ASSERT_NE(binding, nullptr);
  dlog::Row row{dlog::Value::Bit(10), dlog::Value::Bit(0xAABB),
                dlog::Value::String("Forward"), dlog::Value::Bit(3)};
  auto converted = DlogRowToEntry(*binding, *p4_, row);
  ASSERT_TRUE(converted.ok()) << converted.status().ToString();
  EXPECT_EQ(converted->first, "");  // no device column
  const p4::TableEntry& entry = converted->second;
  EXPECT_EQ(entry.table, "Dmac");
  EXPECT_EQ(entry.match[0].value, 10u);
  EXPECT_EQ(entry.match[1].value, 0xAABBu);
  EXPECT_EQ(entry.action, "Forward");
  EXPECT_EQ(entry.action_args, std::vector<uint64_t>{3});
}

TEST_F(BindingsTest, EntryConversionRejectsUnknownAction) {
  const TableBinding* binding = bindings_.FindTable("Dmac");
  dlog::Row row{dlog::Value::Bit(10), dlog::Value::Bit(0xAABB),
                dlog::Value::String("Bogus"), dlog::Value::Bit(3)};
  EXPECT_FALSE(DlogRowToEntry(*binding, *p4_, row).ok());
}

TEST_F(BindingsTest, DigestConversionCopiesFields) {
  const DigestBinding* binding = bindings_.FindDigest("MacLearn");
  ASSERT_NE(binding, nullptr);
  p4::DigestMessage message{"MacLearn", {1, 10, 0xFF}};
  dlog::Row row = DigestToDlog(*binding, message, "sw0", 42);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], dlog::Value::Bit(1));
  EXPECT_EQ(row[2], dlog::Value::Bit(0xFF));
}

TEST_F(BindingsTest, RealColumnsRejected) {
  ovsdb::DatabaseSchema schema;
  schema.name = "bad";
  ovsdb::TableSchema table;
  table.name = "T";
  table.columns = {{"load",
                    ovsdb::ColumnType::Scalar(ovsdb::BaseType::Real()),
                    false, true}};
  schema.tables.emplace("T", std::move(table));
  auto bindings = GenerateBindings(schema, *p4_, {});
  EXPECT_FALSE(bindings.ok());
  EXPECT_EQ(bindings.status().code(), StatusCode::kTypeError);
}

TEST_F(BindingsTest, ConflictingParamWidthsRejected) {
  p4::P4Program program = *p4_;
  // Two actions with a parameter `vid` of different widths in one table.
  program.actions.push_back(
      {"OtherVid", {{"vid", 8}}, {p4::ActionOp::Drop()}});
  for (p4::Table& table : program.tables) {
    if (table.name == "OutVlan") table.actions.push_back("OtherVid");
  }
  ASSERT_TRUE(program.Validate().ok());
  auto bindings = GenerateBindings(schema_, program, {});
  EXPECT_FALSE(bindings.ok());
}

TEST(ControllerGuards, StartRequiresTypeCheck) {
  ovsdb::Database db(snvs::SnvsSchema());
  auto p4 = snvs::SnvsP4Program();
  auto bindings = GenerateBindings(db.schema(), *p4);
  ASSERT_TRUE(bindings.ok());
  // A program missing all generated relations.
  auto program = dlog::Program::Parse("relation X(a: bigint)");
  ASSERT_TRUE(program.ok());
  Controller controller(&db, *program, p4, *bindings);
  p4::Switch device(p4);
  p4::RuntimeClient client(&device);
  ASSERT_TRUE(controller.AddDevice("sw0", &client).ok());
  EXPECT_FALSE(controller.Start().ok());
}

}  // namespace
}  // namespace nerpa
