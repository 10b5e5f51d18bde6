#include "dlog/value.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <mutex>
#include <string_view>
#include <unordered_set>

#include "common/strings.h"

namespace nerpa::dlog {

namespace {

using internal::kHashGolden;
constexpr uint64_t kGolden = kHashGolden;

/// boost-style combine over a raw, already-computed hash.
inline void MixHash(size_t& seed, size_t h) {
  internal::MixRawHash(seed, h);
}

inline size_t HashStringContent(std::string_view text) {
  size_t seed = 3 * kGolden;  // Tag::kString
  MixHash(seed, Fnv1a(text));
  return seed;
}

inline size_t HashTupleContent(const Value* data, size_t size) {
  size_t seed = 4 * kGolden;  // Tag::kTuple
  MixHash(seed, size);
  for (size_t i = 0; i < size; ++i) MixHash(seed, data[i].Hash());
  return seed;
}

using internal::InternedString;
using internal::InternedTuple;

struct StringKeyView {
  std::string_view text;
  size_t hash;
};

struct StringNodeHash {
  using is_transparent = void;
  size_t operator()(const InternedString* n) const noexcept { return n->hash; }
  size_t operator()(const StringKeyView& k) const noexcept { return k.hash; }
};

struct StringNodeEq {
  using is_transparent = void;
  bool operator()(const InternedString* a, const InternedString* b) const {
    return a == b || a->text == b->text;
  }
  bool operator()(const InternedString* a, const StringKeyView& k) const {
    return a->text == k.text;
  }
  bool operator()(const StringKeyView& k, const InternedString* a) const {
    return a->text == k.text;
  }
};

struct TupleKeyView {
  const Value* data;
  size_t size;
  size_t hash;
};

struct TupleNodeHash {
  using is_transparent = void;
  size_t operator()(const InternedTuple* n) const noexcept { return n->hash; }
  size_t operator()(const TupleKeyView& k) const noexcept { return k.hash; }
};

struct TupleNodeEq {
  using is_transparent = void;
  static bool Equal(const ValueVec& elems, const Value* data, size_t size) {
    if (elems.size() != size) return false;
    for (size_t i = 0; i < size; ++i) {
      if (!(elems[i] == data[i])) return false;
    }
    return true;
  }
  bool operator()(const InternedTuple* a, const InternedTuple* b) const {
    return a == b || Equal(a->elems, b->elems.data(), b->elems.size());
  }
  bool operator()(const InternedTuple* a, const TupleKeyView& k) const {
    return Equal(a->elems, k.data, k.size);
  }
  bool operator()(const TupleKeyView& k, const InternedTuple* a) const {
    return Equal(a->elems, k.data, k.size);
  }
};

/// The process-wide hash-consing pool.  Nodes are owned by deques (stable
/// addresses) and never evicted; a dedup set makes repeated payloads share
/// one node.  Heap-allocated and intentionally leaked so Values in
/// static-storage objects stay valid at shutdown.
class Pool {
 public:
  static Pool& Instance() {
    static Pool* pool = new Pool;
    return *pool;
  }

  const InternedString* String(std::string&& text) {
    size_t hash = HashStringContent(text);
    std::lock_guard<std::mutex> lock(string_mu_);
    auto it = string_dedup_.find(StringKeyView{text, hash});
    if (it != string_dedup_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *it;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    string_bytes_ += text.size();
    const InternedString* node =
        &string_storage_.emplace_back(InternedString{std::move(text), hash});
    string_dedup_.insert(node);
    return node;
  }

  const InternedTuple* Tuple(ValueVec&& elems) {
    size_t hash = HashTupleContent(elems.data(), elems.size());
    std::lock_guard<std::mutex> lock(tuple_mu_);
    auto it = tuple_dedup_.find(TupleKeyView{elems.data(), elems.size(), hash});
    if (it != tuple_dedup_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *it;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    tuple_bytes_ += elems.size() * sizeof(Value);
    const InternedTuple* node =
        &tuple_storage_.emplace_back(InternedTuple{std::move(elems), hash});
    tuple_dedup_.insert(node);
    return node;
  }

  InternPoolStats Stats() {
    std::scoped_lock lock(string_mu_, tuple_mu_);
    InternPoolStats stats;
    stats.strings = string_storage_.size();
    stats.tuples = tuple_storage_.size();
    stats.string_bytes = string_bytes_;
    stats.tuple_bytes = tuple_bytes_;
    stats.hits = hits_.load(std::memory_order_relaxed);
    stats.misses = misses_.load(std::memory_order_relaxed);
    return stats;
  }

 private:
  std::mutex string_mu_;
  std::deque<InternedString> string_storage_;
  std::unordered_set<const InternedString*, StringNodeHash, StringNodeEq>
      string_dedup_;
  size_t string_bytes_ = 0;

  std::mutex tuple_mu_;
  std::deque<InternedTuple> tuple_storage_;
  std::unordered_set<const InternedTuple*, TupleNodeHash, TupleNodeEq>
      tuple_dedup_;
  size_t tuple_bytes_ = 0;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
};

}  // namespace

InternPoolStats GetInternPoolStats() { return Pool::Instance().Stats(); }

Value Value::String(std::string v) {
  return Value(Tag::kString, Pool::Instance().String(std::move(v)));
}

Value Value::Tuple(ValueVec elems) {
  return Value(Tag::kTuple, Pool::Instance().Tuple(std::move(elems)));
}

namespace {
template <typename T>
int ThreeWay(T a, T b) {
  return a < b ? -1 : (b < a ? 1 : 0);
}
}  // namespace

int Value::ComparePayloadSlow(const Value& o) const {
  switch (tag_) {
    case Tag::kString:
      if (str_ == o.str_) return 0;
      return str_->text.compare(o.str_->text);
    case Tag::kTuple: {
      if (tup_ == o.tup_) return 0;
      const ValueVec& a = tup_->elems;
      const ValueVec& b = o.tup_->elems;
      size_t n = std::min(a.size(), b.size());
      for (size_t i = 0; i < n; ++i) {
        int c = a[i].Compare(b[i]);
        if (c != 0) return c;
      }
      return ThreeWay(a.size(), b.size());
    }
    default:
      return 0;
  }
}

std::string Value::ToString() const {
  switch (tag_) {
    case Tag::kBool:
      return as_bool() ? "true" : "false";
    case Tag::kInt:
      return std::to_string(as_int());
    case Tag::kBit:
      return std::to_string(as_bit());
    case Tag::kString:
      return QuoteString(as_string());
    case Tag::kTuple: {
      std::string out = "(";
      const ValueVec& elems = as_tuple();
      for (size_t i = 0; i < elems.size(); ++i) {
        if (i > 0) out += ", ";
        out += elems[i].ToString();
      }
      return out + ")";
    }
  }
  return "<bad>";
}

void Row::Grow(size_t need) {
  size_t cap = std::max<size_t>(need, 2 * size_t{capacity_});
  // Value is trivially copyable, so raw storage plus memcpy is enough; the
  // inline buffer spills to the heap only for wide rows (> kInline values).
  Value* fresh = static_cast<Value*>(::operator new(cap * sizeof(Value)));
  if (size_ != 0) std::memcpy(fresh, data_, size_ * sizeof(Value));
  if (data_ != inline_) ::operator delete(data_);
  data_ = fresh;
  capacity_ = static_cast<uint32_t>(cap);
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].ToString();
  }
  return out + ")";
}

}  // namespace nerpa::dlog
