// Type-stable pool allocator for reclamation-managed nodes.
//
// Properties the reclamation schemes rely on:
//  * Memory handed out comes from 2 MiB-aligned slabs that are NEVER unmapped, so a
//    speculative (doomed) reader inside a software-HTM segment can dereference a stale
//    node pointer without faulting — the same safety HTM isolation provides on silicon.
//  * An object never spans a 2 MiB boundary (keeps slab-directory queries
//    single-region).
//  * Freed objects are poisoned with kPoisonByte so tests and assertions can detect
//    use-after-free values deterministically.
//  * A slab serves exactly ONE size class forever, so any interior pointer resolves to
//    its block base with pure arithmetic: directory[addr >> 21] yields the class, the
//    block index is a division, and a magic-word check answers liveness — no latch, no
//    tree walk (the scan path's OwnsLive/UsableSize run latch-free; the scan resolves
//    interior pointers by range containment against UsableSize).
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
  // Allocations that hit an injected fault (fault::Site::kAllocFail) and retried.
  std::size_t alloc_fault_retries = 0;
};

struct PoolThreadCache;  // per-thread magazine cache; defined in pool_alloc.cc

class PoolAllocator {
 public:
  static PoolAllocator& Instance();

  PoolAllocator(const PoolAllocator&) = delete;
  PoolAllocator& operator=(const PoolAllocator&) = delete;

  // Allocates at least `size` bytes (16-byte aligned). Aborts on OOM — benchmark
  // processes have no sensible recovery. Injected allocation faults
  // (fault::Site::kAllocFail) are absorbed by bounded retry with backoff, so the
  // non-null contract holds for existing callers even under injection.
  void* Alloc(std::size_t size);

  // Like Alloc, but surfaces injected allocation faults as nullptr instead of
  // retrying. For callers (and tests) that handle allocation failure themselves.
  void* AllocOrNull(std::size_t size);

  // Returns the block to the calling thread's magazine (overflow drains to the
  // size-class free list) after poisoning the user area. The pages stay mapped
  // forever (type stability).
  void Free(void* ptr);

  // Usable size of a block returned by Alloc. Latch-free.
  std::size_t UsableSize(const void* ptr) const;

  // True if `ptr` was produced by this allocator and is currently live. Latch-free:
  // slab-directory arithmetic plus an acquire load of the block's magic word.
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

  // Open-addressed slab directory: maps addr >> 21 to the slab's size class. Entries
  // pack (slab_base | class_index + 1) into one word — slab bases are 2 MiB aligned,
  // so the low 21 bits are free. Insert-only (slabs are never unmapped), hence a CAS
  // publish and latch-free probes suffice. 8192 slots bound the pool at ~4096 slabs
  // (8 GiB) before the load factor degrades; exceeding that aborts loudly.
  static constexpr std::size_t kDirectorySlots = 8192;

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

  // Maps a fresh 2 MiB-aligned slab for `class_index` and publishes it in the slab
  // directory. Called with the class latch held.
  void RefillClass(SizeClass& size_class, std::size_t class_index);

  // Home probe slot for a slab base address.
  static std::size_t DirectorySlotOf(uintptr_t slab) {
    return (slab >> 21) * 0x9e3779b97f4a7c15ULL >> 51 & (kDirectorySlots - 1);
  }
  // Publishes slab -> class_index in the directory (CAS probe; aborts when full).
  void DirectoryInsert(uintptr_t slab, std::size_t class_index);
  // Returns class_index for the slab containing addr, or kClassCount on miss.
  std::size_t DirectoryLookup(uintptr_t addr) const;
  // Latch-free interior-pointer resolution (OwnsLive's arithmetic). Returns false when
  // `addr` does not fall inside pool slab memory. Returns true with *base set to the
  // owning live block's user base, or to 0 when the address hits a dead block, a
  // block header, or a slab tail remnant.
  bool ResolvePoolAddress(uintptr_t addr, uintptr_t* base) const;

  // Shared-layer batch transfer, both under the class latch: Refill pops up to `want`
  // free (or freshly carved) blocks into `out`; Flush pushes `count` blocks back.
  std::size_t RefillBatch(std::size_t class_index, void** out, std::size_t want);
  void FlushBatch(std::size_t class_index, void* const* items, std::size_t count);

  void* AllocImpl(std::size_t size);

  CacheAligned<SizeClass> classes_[kClassCount];
  std::atomic<uintptr_t> directory_[kDirectorySlots] = {};
  std::atomic<std::size_t> bytes_mapped_{0};
  std::atomic<std::size_t> alloc_fault_retries_{0};
};

}  // namespace stacktrack::runtime

#endif  // STACKTRACK_RUNTIME_POOL_ALLOC_H_
