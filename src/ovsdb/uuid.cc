#include "ovsdb/uuid.h"

#include <atomic>
#include <cctype>

namespace nerpa::ovsdb {

namespace {
// splitmix64: a tiny, high-quality mixer; seeded counter gives a
// deterministic but well-distributed UUID stream.
uint64_t Splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

Uuid Uuid::Generate() {
  static std::atomic<uint64_t> counter{0x5eed5eed5eed5eedULL};
  uint64_t n = counter.fetch_add(1, std::memory_order_relaxed);
  Uuid u{Splitmix64(n), Splitmix64(n ^ 0xabcdef0123456789ULL)};
  if (u.IsZero()) u.lo = 1;
  return u;
}

std::optional<Uuid> Uuid::Parse(std::string_view text) {
  // Layout: 8-4-4-4-12 hex digits.
  static const int kGroups[] = {8, 4, 4, 4, 12};
  uint64_t parts[2] = {0, 0};
  size_t i = 0;
  int nibble_index = 0;
  for (int g = 0; g < 5; ++g) {
    if (g > 0) {
      if (i >= text.size() || text[i] != '-') return std::nullopt;
      ++i;
    }
    for (int d = 0; d < kGroups[g]; ++d) {
      if (i >= text.size() ||
          !std::isxdigit(static_cast<unsigned char>(text[i]))) {
        return std::nullopt;
      }
      char c = text[i++];
      int v = (c >= '0' && c <= '9') ? c - '0'
              : (c >= 'a' && c <= 'f') ? c - 'a' + 10
                                       : c - 'A' + 10;
      parts[nibble_index / 16] =
          (parts[nibble_index / 16] << 4) | static_cast<unsigned>(v);
      ++nibble_index;
    }
  }
  if (i != text.size()) return std::nullopt;
  return Uuid{parts[0], parts[1]};
}

std::string Uuid::ToString() const {
  // hi's then lo's 16 lowercase hex digits, most significant first, with
  // dashes after the 8th, 12th, 16th and 20th.
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out(36, '-');
  size_t pos = 0;
  for (int nibble = 0; nibble < 32; ++nibble) {
    if (pos == 8 || pos == 13 || pos == 18 || pos == 23) ++pos;
    uint64_t word = nibble < 16 ? hi : lo;
    out[pos++] = kHex[(word >> (60 - 4 * (nibble % 16))) & 0xF];
  }
  return out;
}

}  // namespace nerpa::ovsdb
