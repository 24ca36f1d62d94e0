// Type-stable pool allocator for reclamation-managed nodes.
//
// Properties the reclamation schemes rely on:
//  * Memory handed out comes from 2 MiB-aligned slabs that are NEVER unmapped, so a
//    speculative (doomed) reader inside a software-HTM segment can dereference a stale
//    node pointer without faulting — the same safety HTM isolation provides on silicon.
//  * An object never spans a 2 MiB boundary.
//  * Freed objects are poisoned with kPoisonByte so tests and assertions can detect
//    use-after-free values deterministically.
//  * Every block carries a header (size class + magic word) just below its user base,
//    so the scan path's OwnsLive/UsableSize are one header load each, latch-free. The
//    scan resolves interior pointers by range containment against UsableSize, so it
//    only ever asks about block bases the pool handed out.
//
// Scalability structure (front to back):
//  * Per-thread magazines: each thread caches a small LIFO of free blocks per size
//    class, so the alloc/free fast path touches only thread-local state. Magazines
//    refill/drain in batches under the class latch and are flushed by the thread-exit
//    hook chain plus the TLS destructor, so a departing thread never strands blocks.
//  * Latched per-class free lists + bump slabs: the shared middle layer, touched once
//    per batch instead of once per operation.
//  * Per-thread allocation tallies: live/alloc/free counts accumulate in the magazine
//    cache and are folded on GetStats() (registry of live caches + retired totals),
//    mirroring core::StatsRegistry — the hot path never touches a shared counter.
#ifndef STACKTRACK_RUNTIME_POOL_ALLOC_H_
#define STACKTRACK_RUNTIME_POOL_ALLOC_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "runtime/barrier.h"
#include "runtime/cacheline.h"

namespace stacktrack::runtime {

inline constexpr uint8_t kPoisonByte = 0xDD;

struct PoolStats {
  std::size_t bytes_mapped = 0;
  std::size_t live_objects = 0;
  std::size_t total_allocs = 0;
  std::size_t total_frees = 0;
};

struct PoolThreadCache;  // per-thread magazine cache; defined in pool_alloc.cc

class PoolAllocator {
 public:
  static PoolAllocator& Instance();

  PoolAllocator(const PoolAllocator&) = delete;
  PoolAllocator& operator=(const PoolAllocator&) = delete;

  // Allocates at least `size` bytes (16-byte aligned). Never returns nullptr: it
  // aborts on OOM — benchmark processes have no sensible recovery.
  void* Alloc(std::size_t size);

  // Returns the block to the calling thread's magazine (overflow drains to the
  // size-class free list) after poisoning the user area. The pages stay mapped
  // forever (type stability).
  void Free(void* ptr);

  // Usable size of a block returned by Alloc. Latch-free.
  std::size_t UsableSize(const void* ptr) const;

  // True while the block at `ptr` is allocated. `ptr` must be a block base that Alloc
  // returned (live or since freed): the answer is one acquire load of its header's
  // magic word. Latch-free.
  bool OwnsLive(const void* ptr) const;

  // Drains the calling thread's magazines back to the shared free lists. Runs
  // automatically at thread exit (registry exit-hook chain + TLS destructor); public
  // so tests can force the handoff.
  void FlushThreadCache();

  // Folds per-thread tallies (live caches + retired totals) into one racy snapshot.
  PoolStats GetStats() const;

  // True when the first `length` bytes at `ptr` all carry the poison pattern.
  static bool IsPoisoned(const void* ptr, std::size_t length);

 private:
  friend struct PoolThreadCache;

  PoolAllocator() = default;

  // Size classes: 32, 64, ..., 4096 bytes of user data.
  static constexpr std::size_t kClassCount = 8;
  static constexpr std::size_t kMinClassBytes = 32;
  static constexpr std::size_t kSlabBytes = std::size_t{2} << 20;
  static constexpr uint32_t kLiveMagic = 0x51ac7ac;
  static constexpr uint32_t kFreeMagic = 0xdeadbeef;

  // Per-thread magazine geometry: a full magazine drains half, an empty one refills
  // half, so a thread alternating alloc/free at the boundary still batches.
  static constexpr std::size_t kMagazineCapacity = 32;
  static constexpr std::size_t kMagazineBatch = kMagazineCapacity / 2;

  struct BlockHeader {
    uint32_t class_index;        // written once when the block is first carved
    std::atomic<uint32_t> magic; // kLiveMagic / kFreeMagic; scanners read latch-free
    void* next_free;             // intrusive free-list link; valid only while free
  };
  static constexpr std::size_t kHeaderBytes = 32;  // keeps user data 16-byte aligned
  static_assert(sizeof(BlockHeader) <= kHeaderBytes);

  struct SizeClass {
    SpinLatch latch;
    void* free_head = nullptr;        // intrusive list of free blocks
    char* bump_cursor = nullptr;      // current slab bump pointer
    char* bump_limit = nullptr;
    std::size_t block_bytes = 0;      // header + user bytes
    std::size_t free_count = 0;
  };

  static std::size_t ClassIndexFor(std::size_t size);
  static std::size_t ClassUserBytes(std::size_t index) { return kMinClassBytes << index; }
  static BlockHeader* HeaderOf(const void* user_ptr) {
    return reinterpret_cast<BlockHeader*>(reinterpret_cast<uintptr_t>(user_ptr) - kHeaderBytes);
  }

  // Maps a fresh 2 MiB-aligned slab as the class's bump region. Called with the class
  // latch held.
  void RefillClass(SizeClass& size_class);

  // Shared-layer batch transfer, both under the class latch: Refill pops up to `want`
  // free (or freshly carved) blocks into `out`; Flush pushes `count` blocks back.
  std::size_t RefillBatch(std::size_t class_index, void** out, std::size_t want);
  void FlushBatch(std::size_t class_index, void* const* items, std::size_t count);

  CacheAligned<SizeClass> classes_[kClassCount];
  std::atomic<std::size_t> bytes_mapped_{0};
};

}  // namespace stacktrack::runtime

#endif  // STACKTRACK_RUNTIME_POOL_ALLOC_H_
