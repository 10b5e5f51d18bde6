#include "net/packet.h"

#include "common/strings.h"

namespace nerpa::net {

std::optional<uint8_t> PacketReader::ReadU8() {
  auto v = ReadBits(8);
  if (!v) return std::nullopt;
  return static_cast<uint8_t>(*v);
}

std::optional<uint16_t> PacketReader::ReadU16() {
  auto v = ReadBits(16);
  if (!v) return std::nullopt;
  return static_cast<uint16_t>(*v);
}

std::optional<uint32_t> PacketReader::ReadU32() {
  auto v = ReadBits(32);
  if (!v) return std::nullopt;
  return static_cast<uint32_t>(*v);
}

std::optional<uint64_t> PacketReader::ReadBits(int bits) {
  if (static_cast<size_t>(bit_offset_ + bits) > 8 * remaining()) {
    return std::nullopt;  // a short read consumes nothing
  }
  uint64_t value = 0;
  if (bit_offset_ == 0 && bits % 8 == 0) {
    for (int i = 0; i < bits; i += 8) value = (value << 8) | data_[offset_++];
    return value;
  }
  for (int i = 0; i < bits; ++i) {
    int bit = (data_[offset_] >> (7 - bit_offset_)) & 1;
    value = (value << 1) | static_cast<unsigned>(bit);
    if (++bit_offset_ == 8) {
      bit_offset_ = 0;
      ++offset_;
    }
  }
  return value;
}

std::optional<Mac> PacketReader::ReadMac() {
  auto v = ReadBits(48);
  if (!v) return std::nullopt;
  return Mac(*v);
}

std::optional<Ipv4> PacketReader::ReadIpv4() {
  auto v = ReadU32();
  if (!v) return std::nullopt;
  return Ipv4(*v);
}

bool PacketReader::Skip(size_t bytes) {
  if (bit_offset_ != 0) return false;  // only byte-aligned skips
  if (offset_ + bytes > data_.size()) return false;
  offset_ += bytes;
  return true;
}

void PacketWriter::WriteU8(uint8_t v) { WriteBits(v, 8); }
void PacketWriter::WriteU16(uint16_t v) { WriteBits(v, 16); }
void PacketWriter::WriteU32(uint32_t v) { WriteBits(v, 32); }

void PacketWriter::WriteBits(uint64_t v, int bits) {
  if (pending_bits_ == 0 && bits % 8 == 0) {
    for (int i = bits - 8; i >= 0; i -= 8) {
      data_.push_back(static_cast<uint8_t>(v >> i));
    }
    return;
  }
  for (int i = bits - 1; i >= 0; --i) {
    int bit = static_cast<int>((v >> i) & 1);
    pending_ = static_cast<uint8_t>((pending_ << 1) | bit);
    if (++pending_bits_ == 8) {
      data_.push_back(pending_);
      pending_ = 0;
      pending_bits_ = 0;
    }
  }
}

void PacketWriter::WriteMac(Mac mac) { WriteBits(mac.bits(), 48); }
void PacketWriter::WriteIpv4(Ipv4 ip) { WriteU32(ip.bits()); }

void PacketWriter::WriteBytes(const uint8_t* data, size_t size) {
  if (pending_bits_ == 0) {
    data_.insert(data_.end(), data, data + size);
  } else {
    for (size_t i = 0; i < size; ++i) WriteU8(data[i]);
  }
}

Packet PacketWriter::Finish() {
  if (pending_bits_ != 0) {
    pending_ = static_cast<uint8_t>(pending_ << (8 - pending_bits_));
    data_.push_back(pending_);
    pending_ = 0;
    pending_bits_ = 0;
  }
  return std::move(data_);
}

Packet MakeEthernetFrame(Mac dst, Mac src, uint16_t ether_type,
                         const std::vector<uint8_t>& payload,
                         std::optional<uint16_t> vlan) {
  PacketWriter w;
  w.WriteMac(dst);
  w.WriteMac(src);
  if (vlan) {
    w.WriteU16(static_cast<uint16_t>(EtherType::kVlan));
    w.WriteU16(static_cast<uint16_t>(*vlan & 0x0FFF));  // PCP/DEI zero
  }
  w.WriteU16(ether_type);
  w.WriteBytes(payload.data(), payload.size());
  return w.Finish();
}

std::string HexDump(const Packet& packet) {
  std::string out;
  for (size_t i = 0; i < packet.size(); ++i) {
    if (i > 0 && i % 2 == 0) out += ' ';
    out += StrFormat("%02x", packet[i]);
  }
  return out;
}

}  // namespace nerpa::net
