// Pooled arena allocation for hashtable nodes on the evaluator hot path.
//
// Every delta pass builds and tears down ZSets (row -> weight maps); with
// the default allocator each node is one malloc/free round trip, which
// dominates small-transaction latency.  This allocator serves fixed-size
// node allocations from per-thread slab pools:
//
//   * Allocation: pop the thread-local free list for the size class, or
//     bump-carve from the thread's current 64 KiB slab.
//   * Deallocation: push onto the *current* thread's free list — no
//     atomics, no locks, no cross-thread contention on the hot path.
//   * Slabs are owned by a global registry and released only at process
//     exit: a node allocated on one thread may be freed on another long
//     after the first exited (engines move between threads with their
//     owners), so slab lifetime cannot be tied to any one thread.  A dying thread abandons whatever is on
//     its free lists; the memory stays valid in the registry and the
//     waste is bounded by (threads x partial slabs).
//
// Only single-object allocations are pooled; array allocations (the
// hashtable's bucket vectors) pass through to operator new — they are
// amortized by the container already.
#ifndef NERPA_DLOG_ARENA_H_
#define NERPA_DLOG_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <new>

namespace nerpa::dlog::arena {

/// Pops a pooled block of at least `bytes` (<= kMaxPooledBytes) for the
/// current thread, carving a fresh slab when the free list is empty.
void* Allocate(std::size_t bytes);

/// Returns a pooled block to the current thread's free list.
void Deallocate(void* ptr, std::size_t bytes) noexcept;

/// Largest request served from the pools; bigger goes to operator new.
inline constexpr std::size_t kMaxPooledBytes = 256;

/// Cold introspection (global registry mutex): total slab bytes ever
/// carved.  Nonzero proves the pool is actually on the allocation path.
std::uint64_t TotalSlabBytes();

/// A C++17 allocator serving single objects from the thread-local pools.
/// Stateless: all instances compare equal, so containers move/swap freely.
template <typename T>
class NodePoolAllocator {
 public:
  using value_type = T;

  NodePoolAllocator() noexcept = default;
  template <typename U>
  NodePoolAllocator(const NodePoolAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n == 1 && sizeof(T) <= kMaxPooledBytes) {
      return static_cast<T*>(Allocate(sizeof(T)));
    }
    return static_cast<T*>(::operator new(n * sizeof(T)));
  }

  void deallocate(T* ptr, std::size_t n) noexcept {
    if (n == 1 && sizeof(T) <= kMaxPooledBytes) {
      Deallocate(ptr, sizeof(T));
      return;
    }
    ::operator delete(ptr);
  }

  template <typename U>
  bool operator==(const NodePoolAllocator<U>&) const noexcept {
    return true;
  }
  template <typename U>
  bool operator!=(const NodePoolAllocator<U>&) const noexcept {
    return false;
  }
};

}  // namespace nerpa::dlog::arena

#endif  // NERPA_DLOG_ARENA_H_
