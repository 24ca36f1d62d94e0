// Process-wide registry of worker threads.
//
// Every thread that touches a reclamation-managed data structure registers here first.
// Registration hands out a small dense thread id (reused after deregistration) that all
// other modules use to index per-thread slots: the StackTrack activity array, hazard
// pointer rows, epoch timestamps, pool caches.
#ifndef STACKTRACK_RUNTIME_THREAD_REGISTRY_H_
#define STACKTRACK_RUNTIME_THREAD_REGISTRY_H_

#include <atomic>
#include <cstdint>

#include "runtime/barrier.h"
#include "runtime/cacheline.h"

namespace stacktrack::runtime {

// Hard cap on simultaneously registered threads. 64 covers the paper's 1-16 range with
// room for oversubscription experiments; slots are statically allocated so lookups are
// a single indexed load.
inline constexpr uint32_t kMaxThreads = 64;
inline constexpr uint32_t kInvalidThreadId = ~0u;

class ThreadRegistry {
 public:
  // Runs on the exiting thread inside Deregister, before the slot is released for
  // reuse. Higher layers install hooks to reap per-thread reclamation state: the
  // free-set handoff (an exiting thread hands its unreclaimed free_set to the global
  // deferred list rather than stranding it behind a dead thread id) and the pool
  // allocator's magazine flush both ride this chain.
  using ExitHook = void (*)(uint32_t tid);

  // Fixed capacity of the exit-hook chain; installing more aborts (a hook leak).
  static constexpr uint32_t kMaxExitHooks = 8;

  static ThreadRegistry& Instance();

  ThreadRegistry(const ThreadRegistry&) = delete;
  ThreadRegistry& operator=(const ThreadRegistry&) = delete;

  // Claims a free slot and returns the thread id.
  // Aborts the process if more than kMaxThreads threads register at once.
  uint32_t RegisterCurrentThread();

  // Releases the slot (running the exit hook first, on the calling thread). The id
  // may be handed to another thread afterwards.
  void Deregister(uint32_t tid);

  // Appends `hook` to the exit-hook chain unless it is already installed
  // (idempotent per hook). Hooks run in installation order on every deregistering
  // thread. Replaces the old single-slot SetExitHook, whose last-writer-wins
  // semantics silently dropped earlier hooks.
  void AddExitHook(ExitHook hook);

  // Number of currently registered threads (racy snapshot; used by the machine model).
  uint32_t active_count() const { return active_count_.load(std::memory_order_acquire); }

  // Highest slot index ever claimed + 1; scan loops iterate [0, high_watermark()).
  uint32_t high_watermark() const { return high_watermark_.load(std::memory_order_acquire); }

 private:
  ThreadRegistry() = default;

  CacheAligned<std::atomic<bool>> in_use_[kMaxThreads];
  std::atomic<uint32_t> active_count_{0};
  std::atomic<uint32_t> high_watermark_{0};
  // Exit-hook chain: append-only, so a lock-free reader can walk [0, count) —
  // every slot below a count it observed was fully published before the count.
  std::atomic<ExitHook> exit_hooks_[kMaxExitHooks] = {};
  std::atomic<uint32_t> exit_hook_count_{0};
  SpinLatch exit_hook_latch_;  // serializes writers only
};

// Dense id of the calling thread, or kInvalidThreadId when unregistered.
uint32_t CurrentThreadId();

// RAII registration for the calling thread. Nested scopes share one registration.
class ThreadScope {
 public:
  ThreadScope();
  ~ThreadScope();
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

  uint32_t tid() const { return tid_; }

 private:
  uint32_t tid_;
  bool owner_;
};

}  // namespace stacktrack::runtime

#endif  // STACKTRACK_RUNTIME_THREAD_REGISTRY_H_
