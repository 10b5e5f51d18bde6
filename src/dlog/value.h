// Runtime values for the incremental Datalog engine.
//
// DDlog's value universe (booleans, integers, bit-vectors, strings, and
// structured data) is mirrored here.  Strings and tuples are hash-consed
// into a process-wide intern pool, so a Value is a 16-byte tagged word:
// copies are trivial, equality is a pointer compare, and the hash of any
// payload is computed once at intern time.  Rows memoize
// their hash so arrangement probes never re-walk payloads.
#ifndef NERPA_DLOG_VALUE_H_
#define NERPA_DLOG_VALUE_H_

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/hash.h"

namespace nerpa::dlog {

class Value;

/// A tuple/vector payload.
using ValueVec = std::vector<Value>;

namespace internal {

/// A hash-consed string payload: the text plus its content hash, computed
/// once when the node is interned.
struct InternedString {
  std::string text;
  size_t hash;
};

/// A hash-consed tuple payload.
struct InternedTuple {
  ValueVec elems;
  size_t hash;
};

constexpr uint64_t kHashGolden = 0x9e3779b97f4a7c15ULL;

/// boost-style combine over a raw, already-computed hash.
inline void MixRawHash(size_t& seed, size_t h) {
  seed ^= h + kHashGolden + (seed << 6) + (seed >> 2);
}

/// splitmix64 finalizer: a strong 64-bit mix in a handful of ALU ops,
/// much cheaper than byte-wise FNV for fixed-width scalar payloads.
inline uint64_t MixBits(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace internal

/// Intern pool introspection (sizes feed Engine::Stats and the benches).
struct InternPoolStats {
  size_t strings = 0;       // distinct interned strings
  size_t tuples = 0;        // distinct interned tuples
  size_t string_bytes = 0;  // sum of interned string payload bytes
  size_t tuple_bytes = 0;   // sum of interned tuple payload bytes
  uint64_t hits = 0;        // constructions served by an existing node
  uint64_t misses = 0;      // constructions that allocated a node
};
InternPoolStats GetInternPoolStats();

/// One Datalog runtime value: bool, signed 64-bit int, bit<N> (stored
/// zero-extended in a u64), string, or a vector/tuple of values.  Trivially
/// copyable; string/tuple payloads live in the intern pool for the life of
/// the process (hash-consing never evicts).
class Value {
 public:
  Value() : tag_(Tag::kBool), bits_(0) {}
  static Value Bool(bool v) { return Value(Tag::kBool, v ? 1 : 0); }
  static Value Int(int64_t v) {
    return Value(Tag::kInt, static_cast<uint64_t>(v));
  }
  static Value Bit(uint64_t v) { return Value(Tag::kBit, v); }
  static Value String(std::string v);
  static Value Tuple(ValueVec elems);

  bool is_bool() const { return tag_ == Tag::kBool; }
  bool is_int() const { return tag_ == Tag::kInt; }
  bool is_bit() const { return tag_ == Tag::kBit; }
  bool is_string() const { return tag_ == Tag::kString; }
  bool is_tuple() const { return tag_ == Tag::kTuple; }

  bool as_bool() const { return bits_ != 0; }
  int64_t as_int() const { return static_cast<int64_t>(bits_); }
  uint64_t as_bit() const { return bits_; }
  const std::string& as_string() const { return str_->text; }
  const ValueVec& as_tuple() const { return tup_->elems; }

  /// Numeric view: int value or bit value as signed (for mixed arithmetic
  /// the type checker has already unified the operand types).
  int64_t NumericAsInt() const {
    return is_int() ? as_int() : static_cast<int64_t>(bits_);
  }

  /// O(1): scalars mix tag and payload; strings/tuples return the hash
  /// cached in their interned node.  Inline because arrangement probes and
  /// z-set folds hash millions of values per commit.
  size_t Hash() const {
    switch (tag_) {
      case Tag::kString:
        return str_->hash;
      case Tag::kTuple:
        return tup_->hash;
      default:
        return internal::MixBits(
            bits_ ^ (static_cast<uint8_t>(tag_) * internal::kHashGolden));
    }
  }
  bool operator==(const Value& o) const {
    if (tag_ != o.tag_) return false;
    switch (tag_) {
      case Tag::kString:
        // Interned: equal payloads share one node.
        return str_ == o.str_;
      case Tag::kTuple:
        return tup_ == o.tup_;
      default:
        return bits_ == o.bits_;
    }
  }
  bool operator!=(const Value& o) const { return !(*this == o); }
  bool operator<(const Value& o) const { return Compare(o) < 0; }
  /// Three-way comparison (<0, 0, >0) in the same total order as
  /// operator<; lets sorts pay one comparison per element instead of two.
  /// Scalar cases stay inline (the output sort is compare-bound); payload
  /// comparisons go out of line.
  int Compare(const Value& o) const {
    if (tag_ != o.tag_) {
      return static_cast<int>(tag_) < static_cast<int>(o.tag_) ? -1 : 1;
    }
    switch (tag_) {
      case Tag::kBool:
      case Tag::kBit:
        return bits_ < o.bits_ ? -1 : (o.bits_ < bits_ ? 1 : 0);
      case Tag::kInt:
        return as_int() < o.as_int() ? -1 : (o.as_int() < as_int() ? 1 : 0);
      default:
        return ComparePayloadSlow(o);
    }
  }

  /// Debug form: true, 42, "s", (a, b).
  std::string ToString() const;

 private:
  enum class Tag : uint8_t { kBool = 0, kInt, kBit, kString, kTuple };

  int ComparePayloadSlow(const Value& o) const;

  Value(Tag tag, uint64_t bits) : tag_(tag), bits_(bits) {}
  Value(Tag tag, const internal::InternedString* s) : tag_(tag), str_(s) {}
  Value(Tag tag, const internal::InternedTuple* t) : tag_(tag), tup_(t) {}

  Tag tag_;
  union {
    uint64_t bits_;
    const internal::InternedString* str_;
    const internal::InternedTuple* tup_;
  };
};

static_assert(sizeof(Value) == 16, "Value must stay a small tagged word");
static_assert(std::is_trivially_copyable_v<Value>,
              "Value copies must be memcpy-able");

/// Content hash over a value range; identical to Row::Hash() for the same
/// values (the transparent-lookup contract).
inline size_t HashValueRange(const Value* data, size_t size) {
  size_t seed = internal::kHashGolden ^ size;
  for (size_t i = 0; i < size; ++i) internal::MixRawHash(seed, data[i].Hash());
  return seed == 0 ? 1 : seed;  // 0 is Row's "not yet computed" sentinel
}

/// A relation row: a flat run of values with a memoized content hash, so
/// probes hash each row at most once per mutation.
/// Values are trivially copyable, so Row keeps up to kInline of them in a
/// small inline buffer: typical rows copy by memcpy with no heap traffic.
/// The engine's z-sets and commit logs hold values flat by arity instead
/// (engine.h), so Rows remain at its API and in arrangement buckets.
class Row {
 public:
  using const_iterator = const Value*;
  static constexpr uint32_t kInline = 3;

  Row() = default;
  Row(std::initializer_list<Value> elems) {
    Assign(elems.begin(), elems.size());
  }
  explicit Row(const ValueVec& elems) { Assign(elems.data(), elems.size()); }
  explicit Row(std::span<const Value> values) {
    Assign(values.data(), values.size());
  }
  Row(const Value* data, size_t n) { Assign(data, n); }

  Row(const Row& o) {
    Assign(o.data_, o.size_);
    hash_ = o.hash_;
  }
  Row(Row&& o) noexcept { MoveFrom(o); }
  Row& operator=(const Row& o) {
    if (this != &o) {
      Assign(o.data_, o.size_);
      hash_ = o.hash_;
    }
    return *this;
  }
  Row& operator=(Row&& o) noexcept {
    if (this != &o) {
      ReleaseHeap();
      MoveFrom(o);
    }
    return *this;
  }
  ~Row() { ReleaseHeap(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Value& operator[](size_t i) const { return data_[i]; }
  const Value& back() const { return data_[size_ - 1]; }
  const_iterator begin() const { return data_; }
  const_iterator end() const { return data_ + size_; }
  std::span<const Value> span() const { return {data_, size_}; }

  void reserve(size_t n) {
    if (n > capacity_) Grow(n);
  }
  void push_back(Value v) {
    if (size_ == capacity_) Grow(size_ + 1);
    data_[size_++] = v;
    hash_ = 0;
  }
  void clear() {
    size_ = 0;
    hash_ = 0;
  }

  /// Memoized content hash (computed on first use, invalidated by
  /// mutation).
  size_t Hash() const {
    if (hash_ == 0) hash_ = HashValueRange(data_, size_);
    return hash_;
  }

  bool operator==(const Row& o) const {
    if (size_ != o.size_) return false;
    if (hash_ != 0 && o.hash_ != 0 && hash_ != o.hash_) return false;
    for (size_t i = 0; i < size_; ++i) {
      if (!(data_[i] == o.data_[i])) return false;
    }
    return true;
  }
  bool operator!=(const Row& o) const { return !(*this == o); }
  bool operator<(const Row& o) const {
    size_t n = size_ < o.size_ ? size_ : o.size_;
    for (size_t i = 0; i < n; ++i) {
      int c = data_[i].Compare(o.data_[i]);
      if (c != 0) return c < 0;
    }
    return size_ < o.size_;
  }

 private:
  void Assign(const Value* src, size_t n) {
    if (n > capacity_) Grow(n);
    if (n != 0) std::memcpy(data_, src, n * sizeof(Value));
    size_ = static_cast<uint32_t>(n);
    hash_ = 0;
  }
  void MoveFrom(Row& o) noexcept {
    if (o.data_ != o.inline_) {
      data_ = o.data_;
      capacity_ = o.capacity_;
      o.data_ = o.inline_;
      o.capacity_ = kInline;
    } else if (o.size_ != 0) {
      std::memcpy(inline_, o.inline_, o.size_ * sizeof(Value));
    }
    size_ = o.size_;
    hash_ = o.hash_;
    o.size_ = 0;
    o.hash_ = 0;
  }
  void ReleaseHeap() {
    if (data_ != inline_) {
      ::operator delete(data_);
      data_ = inline_;
      capacity_ = kInline;
    }
  }
  void Grow(size_t need);

  Value* data_ = inline_;
  uint32_t size_ = 0;
  uint32_t capacity_ = kInline;
  mutable size_t hash_ = 0;  // 0 = not yet computed (never a valid hash)
  Value inline_[kInline];
};

/// A borrowed key: a contiguous run of values (e.g. a probe key assembled
/// in a scratch buffer) hash/equality-compatible with Row.
using RowView = std::span<const Value>;

/// Transparent hash/equality so arrangement maps can be probed with a
/// RowView without materializing a key Row per lookup.
struct RowHash {
  using is_transparent = void;
  size_t operator()(const Row& row) const { return row.Hash(); }
  size_t operator()(RowView view) const {
    return HashValueRange(view.data(), view.size());
  }
};

struct RowEq {
  using is_transparent = void;
  bool operator()(const Row& a, const Row& b) const { return a == b; }
  bool operator()(const Row& a, RowView b) const {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  bool operator()(RowView a, const Row& b) const {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  bool operator()(RowView a, RowView b) const {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
};

std::string RowToString(const Row& row);

}  // namespace nerpa::dlog

template <>
struct std::hash<nerpa::dlog::Value> {
  size_t operator()(const nerpa::dlog::Value& v) const noexcept {
    return v.Hash();
  }
};

template <>
struct std::hash<nerpa::dlog::Row> {
  size_t operator()(const nerpa::dlog::Row& r) const noexcept {
    return r.Hash();
  }
};

#endif  // NERPA_DLOG_VALUE_H_
