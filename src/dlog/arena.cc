#include "dlog/arena.h"

#include <cstdlib>
#include <mutex>
#include <vector>

namespace nerpa::dlog::arena {

namespace {

constexpr std::size_t kGranularity = 16;  // size-class width (and alignment)
constexpr std::size_t kNumClasses = kMaxPooledBytes / kGranularity;
constexpr std::size_t kSlabBytes = 64 * 1024;

std::size_t ClassIndex(std::size_t bytes) {
  return (bytes + kGranularity - 1) / kGranularity - 1;
}

/// Slabs outlive every thread (nodes migrate across threads via the
/// containers that own them), so ownership sits in a process-wide
/// registry.  Touched only on the slab-carve slow path.
class SlabRegistry {
 public:
  char* NewSlab() {
    char* slab = static_cast<char*>(::operator new(kSlabBytes));
    std::lock_guard<std::mutex> lock(mu_);
    slabs_.push_back(slab);
    total_bytes_ += kSlabBytes;
    return slab;
  }

  std::uint64_t total_bytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return total_bytes_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<char*> slabs_;
  std::uint64_t total_bytes_ = 0;
};

SlabRegistry& Registry() {
  // Leaked on purpose, as the intern pool is.  A container with static
  // storage that is filled after it is constructed (an engine in a
  // function-local static built on first use) is destroyed after a
  // registry constructed later, and its nodes live in these slabs.  The
  // slabs stay reachable from here, so leak checkers stay quiet.
  static SlabRegistry* registry = new SlabRegistry;
  return *registry;
}

struct FreeNode {
  FreeNode* next;
};

/// Per-thread pool: one free list per size class plus the current slab's
/// bump cursor.  No locks anywhere on the hot path.
struct ThreadPool {
  FreeNode* free_lists[kNumClasses] = {};
  char* cursor = nullptr;
  std::size_t remaining = 0;
};

thread_local ThreadPool tls_pool;

}  // namespace

void* Allocate(std::size_t bytes) {
  std::size_t cls = ClassIndex(bytes);
  ThreadPool& pool = tls_pool;
  if (FreeNode* node = pool.free_lists[cls]) {
    pool.free_lists[cls] = node->next;
    return node;
  }
  std::size_t size = (cls + 1) * kGranularity;
  if (pool.remaining < size) {
    pool.cursor = Registry().NewSlab();
    pool.remaining = kSlabBytes;
  }
  void* block = pool.cursor;
  pool.cursor += size;
  pool.remaining -= size;
  return block;
}

void Deallocate(void* ptr, std::size_t bytes) noexcept {
  std::size_t cls = ClassIndex(bytes);
  FreeNode* node = static_cast<FreeNode*>(ptr);
  node->next = tls_pool.free_lists[cls];
  tls_pool.free_lists[cls] = node;
}

std::uint64_t TotalSlabBytes() { return Registry().total_bytes(); }

}  // namespace nerpa::dlog::arena
