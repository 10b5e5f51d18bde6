// An open-addressing hash index over a dense array that its owner keeps.
//
// Each slot holds an element's position + 1 (0 = empty), the slot count is
// a power of two at least twice the element count, collisions probe
// linearly, and a removal shifts the rest of its probe run back, so there
// are no tombstones.  The owner keeps its elements dense: a removed
// element's place takes the last element, whose slot Remove() repoints.
// The index stores neither keys nor hashes.  A probe takes the hash and an
// equality test by position; operations that move slots take each
// element's hash by position.  Used by p4::TableState and dlog::ZSet.
#ifndef NERPA_COMMON_FLAT_INDEX_H_
#define NERPA_COMMON_FLAT_INDEX_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace nerpa {

class FlatIndex {
 public:
  /// Zero until the first Reserve().
  size_t slot_count() const { return slots_.size(); }

  /// The slot holding the element for which `eq(position)` holds, probing
  /// from `hash`, or the empty slot where it would go.  Needs a slot.
  template <typename Eq>
  size_t Probe(uint64_t hash, Eq&& eq) const {
    const size_t mask = slots_.size() - 1;
    for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
      if (slots_[slot] == 0 || eq(size_t{slots_[slot] - 1})) return slot;
    }
  }

  /// The position held at `slot`, or -1 when the slot is empty.
  int64_t At(size_t slot) const {
    return static_cast<int64_t>(slots_[slot]) - 1;
  }

  /// Points the empty `slot` that Probe() returned at `position`.
  void Set(size_t slot, size_t position) {
    slots_[slot] = static_cast<uint32_t>(position + 1);
  }

  /// Makes room for `count` elements, doubling as needed (at least 8
  /// slots); `hash_of` gives the hashes of the `size` elements held.  A
  /// rehash invalidates the slots Probe() returned.
  template <typename HashOf>
  void Reserve(size_t count, size_t size, HashOf&& hash_of) {
    if (2 * count <= slots_.size() && !slots_.empty()) return;
    size_t want = std::max<size_t>(slots_.size(), 8);
    while (want < 2 * count) want *= 2;
    std::vector<uint32_t> slots(want, 0);
    for (size_t at = 0; at < size; ++at) {
      size_t slot = hash_of(at) & (want - 1);
      while (slots[slot] != 0) slot = (slot + 1) & (want - 1);
      slots[slot] = static_cast<uint32_t>(at + 1);
    }
    slots_.swap(slots);
  }

  /// Removes the element at `slot`, one of `size`, before its owner moves
  /// the last element into its position.  Backward-shift deletion pulls
  /// each later element of the probe run into the hole unless its home
  /// slot lies after the hole; then the last element's slot is repointed.
  template <typename HashOf>
  void Remove(size_t slot, size_t size, HashOf&& hash_of) {
    const size_t mask = slots_.size() - 1;
    const uint32_t removed = slots_[slot];
    size_t hole = slot;
    for (size_t next = (hole + 1) & mask; slots_[next] != 0;
         next = (next + 1) & mask) {
      size_t home = hash_of(size_t{slots_[next] - 1}) & mask;
      if (((next - home) & mask) >= ((next - hole) & mask)) {
        slots_[hole] = slots_[next];
        hole = next;
      }
    }
    slots_[hole] = 0;
    if (removed != size) {
      size_t last = hash_of(size - 1) & mask;
      while (slots_[last] != size) last = (last + 1) & mask;
      slots_[last] = removed;
    }
  }

  /// Empties every slot and keeps them.
  void Clear() { std::fill(slots_.begin(), slots_.end(), 0); }

 private:
  std::vector<uint32_t> slots_;
};

}  // namespace nerpa

#endif  // NERPA_COMMON_FLAT_INDEX_H_
