// Unit tests for address types and packet codecs.
#include <gtest/gtest.h>

#include <optional>
#include <random>
#include <string>
#include <vector>

#include "net/ip.h"
#include "net/mac.h"
#include "net/packet.h"

namespace nerpa::net {
namespace {

TEST(Mac, ParseAndPrint) {
  auto mac = Mac::Parse("00:1b:44:11:3a:b7");
  ASSERT_TRUE(mac.has_value());
  EXPECT_EQ(mac->ToString(), "00:1b:44:11:3a:b7");
  EXPECT_EQ(mac->bits(), 0x001B44113AB7ULL);
  EXPECT_TRUE(Mac::Parse("AA-BB-CC-DD-EE-FF").has_value());
  EXPECT_FALSE(Mac::Parse("00:1b:44:11:3a").has_value());
  EXPECT_FALSE(Mac::Parse("00:1b:44:11:3a:b7:99").has_value());
  EXPECT_FALSE(Mac::Parse("zz:1b:44:11:3a:b7").has_value());
}

TEST(Mac, Properties) {
  EXPECT_TRUE(Mac::Broadcast().IsBroadcast());
  EXPECT_TRUE(Mac::Broadcast().IsMulticast());
  EXPECT_TRUE(Mac(0x01, 0, 0x5E, 0, 0, 1).IsMulticast());
  EXPECT_TRUE(Mac(0x02, 0, 0, 0, 0, 1).IsUnicast());
  EXPECT_TRUE(Mac().IsZero());
}

TEST(Mac, BytesRoundTrip) {
  Mac mac(0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01);
  auto bytes = mac.Bytes();
  EXPECT_EQ(Mac::FromBytes(bytes.data()), mac);
}

TEST(Ipv4, ParseAndPrint) {
  auto ip = Ipv4::Parse("192.168.1.200");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->ToString(), "192.168.1.200");
  EXPECT_FALSE(Ipv4::Parse("256.0.0.1").has_value());
  EXPECT_FALSE(Ipv4::Parse("1.2.3").has_value());
  EXPECT_FALSE(Ipv4::Parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(Ipv4::Parse("").has_value());
}

TEST(Ipv4Prefix, ContainsAndNormalizes) {
  auto prefix = Ipv4Prefix::Parse("10.1.0.0/16");
  ASSERT_TRUE(prefix.has_value());
  EXPECT_TRUE(prefix->Contains(*Ipv4::Parse("10.1.200.3")));
  EXPECT_FALSE(prefix->Contains(*Ipv4::Parse("10.2.0.1")));
  // Host bits are cleared.
  auto messy = Ipv4Prefix::Parse("10.1.2.3/16");
  EXPECT_EQ(messy->ToString(), "10.1.0.0/16");
  // /0 matches everything.
  auto all = Ipv4Prefix::Parse("0.0.0.0/0");
  EXPECT_TRUE(all->Contains(*Ipv4::Parse("255.255.255.255")));
  EXPECT_FALSE(Ipv4Prefix::Parse("10.0.0.0/33").has_value());
}

TEST(PacketCodec, BitLevelRoundTrip) {
  PacketWriter writer;
  writer.WriteBits(0b101, 3);   // VLAN PCP-style sub-byte field
  writer.WriteBits(0, 1);
  writer.WriteBits(0xABC, 12);
  writer.WriteU16(0x0800);
  Packet packet = writer.Finish();
  ASSERT_EQ(packet.size(), 4u);

  PacketReader reader(packet);
  EXPECT_EQ(*reader.ReadBits(3), 0b101u);
  EXPECT_EQ(*reader.ReadBits(1), 0u);
  EXPECT_EQ(*reader.ReadBits(12), 0xABCu);
  EXPECT_EQ(*reader.ReadU16(), 0x0800u);
  EXPECT_FALSE(reader.ReadU8().has_value());  // past the end
}

TEST(PacketCodec, EthernetFrame) {
  Mac dst(0, 1, 2, 3, 4, 5), src(6, 7, 8, 9, 10, 11);
  Packet frame = MakeEthernetFrame(dst, src, 0x0800, {0xAA, 0xBB});
  ASSERT_EQ(frame.size(), 16u);  // 14 header + 2 payload
  PacketReader reader(frame);
  EXPECT_EQ(*reader.ReadMac(), dst);
  EXPECT_EQ(*reader.ReadMac(), src);
  EXPECT_EQ(*reader.ReadU16(), 0x0800u);
  EXPECT_EQ(*reader.ReadU8(), 0xAAu);
}

TEST(PacketCodec, VlanTaggedFrame) {
  Mac dst(0, 1, 2, 3, 4, 5), src(6, 7, 8, 9, 10, 11);
  Packet frame = MakeEthernetFrame(dst, src, 0x0800, {}, 0x123);
  ASSERT_EQ(frame.size(), 18u);
  PacketReader reader(frame);
  reader.Skip(12);
  EXPECT_EQ(*reader.ReadU16(), 0x8100u);       // TPID
  EXPECT_EQ(*reader.ReadBits(4), 0u);           // pcp+dei
  EXPECT_EQ(*reader.ReadBits(12), 0x123u);      // vid
  EXPECT_EQ(*reader.ReadU16(), 0x0800u);        // inner etherType
}

TEST(PacketCodec, HexDump) {
  EXPECT_EQ(HexDump({0xDE, 0xAD, 0xBE, 0xEF}), "dead beef");
}

// --- Codec oracle ---------------------------------------------------------
//
// Seeded streams of fields (width 1-64) and byte runs, at every bit
// alignment, go through PacketWriter and back through PacketReader, and
// must agree with a reference that moves one bit at a time.

/// The reference codec: one bool per bit, most significant first.
struct BitModel {
  std::vector<bool> bits;

  void Write(uint64_t value, int width) {
    for (int i = width - 1; i >= 0; --i) bits.push_back((value >> i) & 1);
  }
  /// The bits packed into bytes, the last one padded with zeros.
  Packet Bytes() const {
    Packet out((bits.size() + 7) / 8, 0);
    for (size_t i = 0; i < bits.size(); ++i) {
      if (bits[i]) out[i / 8] |= static_cast<uint8_t>(0x80 >> (i % 8));
    }
    return out;
  }
  /// Reads `width` bits of `packet` at bit `*pos`; nullopt past its end.
  static std::optional<uint64_t> Read(const Packet& packet, size_t* pos,
                                      int width) {
    if (*pos + static_cast<size_t>(width) > packet.size() * 8) {
      return std::nullopt;
    }
    uint64_t value = 0;
    for (int i = 0; i < width; ++i, ++*pos) {
      value = (value << 1) | ((packet[*pos / 8] >> (7 - *pos % 8)) & 1);
    }
    return value;
  }
};

/// One stream item: a field of `width` bits, or (width 0) a byte run.
struct StreamItem {
  int width = 0;
  uint64_t value = 0;
  std::vector<uint8_t> run;
};

TEST(PacketCodec, RandomStreamsMatchBitModel) {
  bool covered[8][2] = {};  // [bit alignment][field, byte run]
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    std::vector<StreamItem> items;
    PacketWriter writer;
    BitModel model;
    for (int n = static_cast<int>(rng() % 24); n >= 0; --n) {
      StreamItem item;
      bool run = rng() % 3 == 0;
      covered[model.bits.size() % 8][run ? 1 : 0] = true;
      if (run) {
        item.run.resize(rng() % 32);
        for (uint8_t& byte : item.run) byte = static_cast<uint8_t>(rng());
        writer.WriteBytes(item.run.data(), item.run.size());
        for (uint8_t byte : item.run) model.Write(byte, 8);
      } else {
        // A whole number of bytes half the time, so that aligned fields
        // are common; the value's bits above the width must be ignored.
        item.width = rng() % 2 == 0 ? 8 * (1 + static_cast<int>(rng() % 8))
                                    : 1 + static_cast<int>(rng() % 64);
        item.value = rng();
        writer.WriteBits(item.value, item.width);
        model.Write(item.value, item.width);
      }
      items.push_back(std::move(item));
    }
    Packet packet = writer.Finish();
    ASSERT_EQ(packet, model.Bytes());

    // Read back the whole buffer and random prefixes of it: the reader
    // must agree with the model up to the first read past the end, and
    // fail on exactly that read.
    std::vector<size_t> cuts = {packet.size()};
    for (int i = 0; i < 16; ++i) cuts.push_back(rng() % (packet.size() + 1));
    for (size_t cut : cuts) {
      Packet prefix(packet.begin(), packet.begin() + static_cast<long>(cut));
      PacketReader reader(prefix);
      size_t pos = 0;
      bool failed = false;
      for (size_t i = 0; i < items.size() && !failed; ++i) {
        const StreamItem& item = items[i];
        std::vector<int> widths(item.run.size(), 8);
        if (item.width != 0) widths = {item.width};
        for (size_t w = 0; w < widths.size() && !failed; ++w) {
          std::optional<uint64_t> want = BitModel::Read(prefix, &pos,
                                                        widths[w]);
          std::optional<uint64_t> got =
              widths[w] == 8 && item.width == 0
                  ? std::optional<uint64_t>(reader.ReadU8())
                  : reader.ReadBits(widths[w]);
          ASSERT_EQ(got.has_value(), want.has_value())
              << "cut " << cut << " item " << i << " part " << w;
          failed = !want.has_value();
          if (!failed) {
            ASSERT_EQ(*got, *want) << "cut " << cut << " item " << i;
          }
        }
      }
    }
  }
  for (int align = 0; align < 8; ++align) {
    EXPECT_TRUE(covered[align][0]) << "no field at bit " << align;
    EXPECT_TRUE(covered[align][1]) << "no byte run at bit " << align;
  }
}

}  // namespace
}  // namespace nerpa::net
