#include "runtime/pool_alloc.h"

#include <execinfo.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "runtime/thread_registry.h"

namespace stacktrack::runtime {
namespace {

// Reserves `bytes` of anonymous memory aligned to `bytes` (power of two) by
// over-mapping and trimming the misaligned head/tail.
void* MapAligned(std::size_t bytes) {
  const std::size_t span = bytes * 2;
  void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) {
    return nullptr;
  }
  const uintptr_t base = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t aligned = (base + bytes - 1) & ~(bytes - 1);
  const std::size_t head = aligned - base;
  if (head != 0) {
    munmap(raw, head);
  }
  const std::size_t tail = span - head - bytes;
  if (tail != 0) {
    munmap(reinterpret_cast<void*>(aligned + bytes), tail);
  }
  return reinterpret_cast<void*>(aligned);
}

}  // namespace

// ---- Per-thread magazine cache -----------------------------------------------------

// One per thread that touches the pool. Magazines hold FREE blocks (poisoned, magic
// != live) so the alloc/free fast path is a thread-local array push/pop; the tallies
// make GetStats fold-on-read instead of hot-path shared counters (same discipline as
// core::StatsRegistry: register at birth, fold into retired totals at death).
struct PoolThreadCache {
  struct Magazine {
    void* items[PoolAllocator::kMagazineCapacity];
    std::size_t count = 0;
  };

  Magazine magazines[PoolAllocator::kClassCount];
  // Written only by the owning thread (plain load+store, no RMW); GetStats reads
  // them racily under the cache-registry latch while folding a snapshot.
  std::atomic<uint64_t> allocs{0};
  std::atomic<uint64_t> frees{0};

  void BumpAllocs() {
    allocs.store(allocs.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  void BumpFrees() {
    frees.store(frees.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }

  // Hands every cached block back to the shared free lists (one latched batch per
  // non-empty class). Tallies stay put — they are folded, not transferred.
  void FlushMagazines(PoolAllocator& pool) {
    for (std::size_t c = 0; c < PoolAllocator::kClassCount; ++c) {
      Magazine& mag = magazines[c];
      if (mag.count != 0) {
        pool.FlushBatch(c, mag.items, mag.count);
        mag.count = 0;
      }
    }
  }
};

namespace {

// Registry of live caches plus totals folded out of dead ones. Leaked on purpose:
// late-exiting threads run their TLS destructors after static teardown begins.
struct CacheRegistry {
  SpinLatch latch;
  std::vector<PoolThreadCache*> live;
  uint64_t retired_allocs = 0;
  uint64_t retired_frees = 0;
};

CacheRegistry& Caches() {
  static CacheRegistry* registry = new CacheRegistry;
  return *registry;
}

void FlushCacheOnThreadExit(uint32_t /*tid*/) {
  PoolAllocator::Instance().FlushThreadCache();
}

thread_local PoolThreadCache* tls_cache = nullptr;
thread_local bool tls_cache_dead = false;

// Owns the cache for TLS lifetime management. The destructor drains the magazines
// (the exit-hook chain usually already did, but threads that never registered with
// ThreadRegistry — or that free pool blocks after Deregister — end here) and folds
// the tallies into the retired totals.
struct CacheTls {
  PoolThreadCache cache;

  CacheTls() {
    {
      CacheRegistry& reg = Caches();
      LatchGuard guard(reg.latch);
      reg.live.push_back(&cache);
    }
    // The flush leg of the thread-exit hook chain (idempotent to install).
    ThreadRegistry::Instance().AddExitHook(&FlushCacheOnThreadExit);
    tls_cache = &cache;
  }

  ~CacheTls() {
    cache.FlushMagazines(PoolAllocator::Instance());
    CacheRegistry& reg = Caches();
    LatchGuard guard(reg.latch);
    auto it = std::find(reg.live.begin(), reg.live.end(), &cache);
    if (it != reg.live.end()) {
      *it = reg.live.back();
      reg.live.pop_back();
    }
    reg.retired_allocs += cache.allocs.load(std::memory_order_relaxed);
    reg.retired_frees += cache.frees.load(std::memory_order_relaxed);
    tls_cache = nullptr;
    tls_cache_dead = true;
  }
};

// The calling thread's cache, constructed on first use. Returns nullptr once the TLS
// destructor has run (a thread freeing pool blocks from a later TLS destructor falls
// back to the shared layer) — the dead flag keeps us from resurrecting the object.
PoolThreadCache* GetCache() {
  if (tls_cache != nullptr) [[likely]] {
    return tls_cache;
  }
  if (tls_cache_dead) {
    return nullptr;
  }
  thread_local CacheTls holder;
  return tls_cache;
}

}  // namespace

// ---- PoolAllocator ------------------------------------------------------------------

PoolAllocator& PoolAllocator::Instance() {
  static PoolAllocator allocator;
  return allocator;
}

std::size_t PoolAllocator::ClassIndexFor(std::size_t size) {
  std::size_t index = 0;
  std::size_t bytes = kMinClassBytes;
  while (bytes < size) {
    bytes <<= 1;
    ++index;
  }
  if (index >= kClassCount) {
    std::fprintf(stderr, "stacktrack: pool allocation of %zu bytes exceeds the largest class\n",
                 size);
    std::abort();
  }
  return index;
}

void PoolAllocator::RefillClass(SizeClass& size_class) {
  // Transient mmap failure (address-space fragmentation, momentary commit pressure)
  // gets a few retries before the process gives up for good.
  char* slab = nullptr;
  for (uint32_t attempt = 0; attempt < 4 && slab == nullptr; ++attempt) {
    if (attempt != 0) {
      usleep(1000u << attempt);
    }
    slab = static_cast<char*>(MapAligned(kSlabBytes));
  }
  if (slab == nullptr) {
    std::fprintf(stderr, "stacktrack: pool slab mmap failed\n");
    std::abort();
  }
  bytes_mapped_.fetch_add(kSlabBytes, std::memory_order_relaxed);
  size_class.bump_cursor = slab;
  size_class.bump_limit = slab + kSlabBytes;
}

std::size_t PoolAllocator::RefillBatch(std::size_t class_index, void** out, std::size_t want) {
  SizeClass& size_class = classes_[class_index].value;
  LatchGuard guard(size_class.latch);
  if (size_class.block_bytes == 0) {
    size_class.block_bytes = kHeaderBytes + ClassUserBytes(class_index);
  }
  std::size_t n = 0;
  while (n < want && size_class.free_head != nullptr) {
    BlockHeader* header = static_cast<BlockHeader*>(size_class.free_head);
    size_class.free_head = header->next_free;
    --size_class.free_count;
    out[n++] = reinterpret_cast<char*>(header) + kHeaderBytes;
  }
  while (n < want) {
    if (size_class.bump_cursor == nullptr ||
        size_class.bump_cursor + size_class.block_bytes > size_class.bump_limit) {
      RefillClass(size_class);
    }
    BlockHeader* header = reinterpret_cast<BlockHeader*>(size_class.bump_cursor);
    size_class.bump_cursor += size_class.block_bytes;
    header->class_index = static_cast<uint32_t>(class_index);
    // Fresh slab memory is zero-filled: magic stays 0 (dead) until first allocation.
    out[n++] = reinterpret_cast<char*>(header) + kHeaderBytes;
  }
  return n;
}

void PoolAllocator::FlushBatch(std::size_t class_index, void* const* items, std::size_t count) {
  SizeClass& size_class = classes_[class_index].value;
  LatchGuard guard(size_class.latch);
  for (std::size_t i = 0; i < count; ++i) {
    BlockHeader* header = HeaderOf(items[i]);
    header->next_free = size_class.free_head;
    size_class.free_head = header;
  }
  size_class.free_count += count;
}

void* PoolAllocator::Alloc(std::size_t size) {
  const std::size_t index = ClassIndexFor(size);
  void* user;
  PoolThreadCache* cache = GetCache();
  if (cache != nullptr) [[likely]] {
    PoolThreadCache::Magazine& mag = cache->magazines[index];
    if (mag.count == 0) [[unlikely]] {
      mag.count = RefillBatch(index, mag.items, kMagazineBatch);
    }
    user = mag.items[--mag.count];
    cache->BumpAllocs();
  } else {
    // TLS cache already destroyed (late free/alloc from another TLS destructor):
    // take one block straight from the shared layer and account it as retired.
    RefillBatch(index, &user, 1);
    CacheRegistry& reg = Caches();
    LatchGuard guard(reg.latch);
    ++reg.retired_allocs;
  }
  BlockHeader* header = HeaderOf(user);
  header->next_free = nullptr;
  header->magic.store(kLiveMagic, std::memory_order_release);
  return user;
}

void PoolAllocator::Free(void* ptr) {
  BlockHeader* header = HeaderOf(ptr);
  if (header->magic.load(std::memory_order_relaxed) != kLiveMagic) {
    std::fprintf(stderr, "stacktrack: pool free of invalid or double-freed block %p (magic %x)\n",
                 ptr, header->magic.load(std::memory_order_relaxed));
    void* frames[32];
    backtrace_symbols_fd(frames, backtrace(frames, 32), 2);
    std::abort();
  }
  const std::size_t index = header->class_index;
  // Poison with word-atomic stores, NOT memset: a speculative (zombie) reader racing
  // with the free must observe either the old word or the full poison word. A torn
  // mix could masquerade as an unmarked pointer and send the zombie off the pool
  // before its commit-time validation aborts it (see htm/soft_backend.h).
  uint64_t poison_word;
  std::memset(&poison_word, kPoisonByte, sizeof(poison_word));
  auto* words = reinterpret_cast<std::atomic<uint64_t>*>(ptr);
  for (std::size_t w = 0; w < ClassUserBytes(index) / sizeof(uint64_t); ++w) {
    words[w].store(poison_word, std::memory_order_relaxed);
  }
  header->magic.store(kFreeMagic, std::memory_order_release);
  PoolThreadCache* cache = GetCache();
  if (cache != nullptr) [[likely]] {
    PoolThreadCache::Magazine& mag = cache->magazines[index];
    if (mag.count == kMagazineCapacity) [[unlikely]] {
      // Drain the OLDEST half so the magazine keeps its most recently freed (and
      // hence cache-warmest) blocks for the next allocations.
      FlushBatch(index, mag.items, kMagazineBatch);
      std::memmove(mag.items, mag.items + kMagazineBatch,
                   (kMagazineCapacity - kMagazineBatch) * sizeof(void*));
      mag.count -= kMagazineBatch;
    }
    mag.items[mag.count++] = ptr;
    cache->BumpFrees();
  } else {
    FlushBatch(index, &ptr, 1);
    CacheRegistry& reg = Caches();
    LatchGuard guard(reg.latch);
    ++reg.retired_frees;
  }
}

void PoolAllocator::FlushThreadCache() {
  if (tls_cache != nullptr) {  // never constructs a cache just to flush it
    tls_cache->FlushMagazines(*this);
  }
}

std::size_t PoolAllocator::UsableSize(const void* ptr) const {
  return ClassUserBytes(HeaderOf(ptr)->class_index);
}

bool PoolAllocator::OwnsLive(const void* ptr) const {
  return HeaderOf(ptr)->magic.load(std::memory_order_acquire) == kLiveMagic;
}

PoolStats PoolAllocator::GetStats() const {
  PoolStats stats;
  stats.bytes_mapped = bytes_mapped_.load(std::memory_order_relaxed);
  uint64_t allocs;
  uint64_t frees;
  {
    CacheRegistry& reg = Caches();
    LatchGuard guard(reg.latch);
    allocs = reg.retired_allocs;
    frees = reg.retired_frees;
    for (const PoolThreadCache* cache : reg.live) {
      allocs += cache->allocs.load(std::memory_order_relaxed);
      frees += cache->frees.load(std::memory_order_relaxed);
    }
  }
  stats.total_allocs = allocs;
  stats.total_frees = frees;
  // Mid-run snapshots can momentarily observe a free before its alloc; clamp.
  stats.live_objects = allocs >= frees ? allocs - frees : 0;
  return stats;
}

bool PoolAllocator::IsPoisoned(const void* ptr, std::size_t length) {
  const auto* bytes = static_cast<const uint8_t*>(ptr);
  for (std::size_t i = 0; i < length; ++i) {
    if (bytes[i] != kPoisonByte) {
      return false;
    }
  }
  return true;
}

}  // namespace stacktrack::runtime
