// Raw packet representation plus big-endian cursor codecs.
//
// The P4 interpreter (src/p4) parses and deparses real byte buffers through
// these readers/writers, the same way BMv2 operates on wire-format packets.
#ifndef NERPA_NET_PACKET_H_
#define NERPA_NET_PACKET_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/ip.h"
#include "net/mac.h"

namespace nerpa::net {

/// EtherType values used by the bundled pipelines.
enum class EtherType : uint16_t {
  kIpv4 = 0x0800,
  kArp = 0x0806,
  kVlan = 0x8100,
  kIpv6 = 0x86DD,
};

/// A packet as a byte vector; metadata (ingress port etc.) travels beside it
/// in the interpreter, never inside the buffer.
using Packet = std::vector<uint8_t>;

/// Big-endian reader over a packet.  All Read* return nullopt, and consume
/// nothing, when the packet ends before the value does.
class PacketReader {
 public:
  explicit PacketReader(const Packet& packet) : data_(packet) {}

  size_t offset() const { return offset_; }
  size_t remaining() const { return data_.size() - offset_; }

  std::optional<uint8_t> ReadU8();
  std::optional<uint16_t> ReadU16();
  std::optional<uint32_t> ReadU32();
  /// Reads `bits` (1..64) most-significant-first from the current bit
  /// position: whole bytes when byte-aligned, else one bit at a time (the
  /// sub-byte P4 fields, e.g. VLAN PCP/VID).
  std::optional<uint64_t> ReadBits(int bits);
  std::optional<Mac> ReadMac();
  std::optional<Ipv4> ReadIpv4();
  bool Skip(size_t bytes);

 private:
  const Packet& data_;
  size_t offset_ = 0;
  int bit_offset_ = 0;  // 0..7 within data_[offset_]
};

/// Big-endian writer building a packet.
class PacketWriter {
 public:
  PacketWriter() = default;
  /// Starts with room for `capacity` bytes.
  explicit PacketWriter(size_t capacity) { data_.reserve(capacity); }

  void WriteU8(uint8_t v);
  void WriteU16(uint16_t v);
  void WriteU32(uint32_t v);
  /// Writes the low `bits` of `v` most-significant-first (whole bytes when
  /// byte-aligned, else one bit at a time).
  void WriteBits(uint64_t v, int bits);
  void WriteMac(Mac mac);
  void WriteIpv4(Ipv4 ip);
  void WriteBytes(const uint8_t* data, size_t size);

  /// Pads any partial byte with zeros and returns the buffer.
  Packet Finish();

 private:
  Packet data_;
  uint8_t pending_ = 0;
  int pending_bits_ = 0;
};

/// Builds a minimal Ethernet frame (optionally 802.1Q tagged) with an
/// arbitrary payload; convenient for tests and examples.
Packet MakeEthernetFrame(Mac dst, Mac src, uint16_t ether_type,
                         const std::vector<uint8_t>& payload,
                         std::optional<uint16_t> vlan = std::nullopt);

/// Hex dump ("0011 2233 ..."), for diagnostics.
std::string HexDump(const Packet& packet);

}  // namespace nerpa::net

#endif  // NERPA_NET_PACKET_H_
