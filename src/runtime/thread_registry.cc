#include "runtime/thread_registry.h"

#include <cstdio>
#include <cstdlib>

namespace stacktrack::runtime {
namespace {

thread_local uint32_t tls_thread_id = kInvalidThreadId;
thread_local uint32_t tls_scope_depth = 0;

}  // namespace

ThreadRegistry& ThreadRegistry::Instance() {
  static ThreadRegistry registry;
  return registry;
}

uint32_t ThreadRegistry::RegisterCurrentThread() {
  for (uint32_t tid = 0; tid < kMaxThreads; ++tid) {
    bool expected = false;
    if (in_use_[tid].value.compare_exchange_strong(expected, true,
                                                   std::memory_order_acq_rel)) {
      active_count_.fetch_add(1, std::memory_order_acq_rel);
      uint32_t watermark = high_watermark_.load(std::memory_order_relaxed);
      while (watermark < tid + 1 &&
             !high_watermark_.compare_exchange_weak(watermark, tid + 1, std::memory_order_acq_rel)) {
      }
      return tid;
    }
  }
  std::fprintf(stderr, "stacktrack: more than %u concurrent threads registered\n", kMaxThreads);
  std::abort();
}

void ThreadRegistry::AddExitHook(ExitHook hook) {
  LatchGuard guard(exit_hook_latch_);
  const uint32_t count = exit_hook_count_.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < count; ++i) {
    if (exit_hooks_[i].load(std::memory_order_relaxed) == hook) {
      return;  // already installed; keep its original chain position
    }
  }
  if (count >= kMaxExitHooks) {
    std::fprintf(stderr, "stacktrack: exit-hook chain capacity (%u) exceeded\n", kMaxExitHooks);
    std::abort();
  }
  exit_hooks_[count].store(hook, std::memory_order_relaxed);
  exit_hook_count_.store(count + 1, std::memory_order_release);
}

void ThreadRegistry::Deregister(uint32_t tid) {
  // Installation order, on the exiting thread, while tid is still valid. The chain is
  // append-only, so the acquire-load of the count makes every hook below it visible.
  const uint32_t hook_count = exit_hook_count_.load(std::memory_order_acquire);
  for (uint32_t i = 0; i < hook_count; ++i) {
    exit_hooks_[i].load(std::memory_order_relaxed)(tid);
  }
  active_count_.fetch_sub(1, std::memory_order_acq_rel);
  in_use_[tid].value.store(false, std::memory_order_release);
}

uint32_t CurrentThreadId() { return tls_thread_id; }

ThreadScope::ThreadScope() {
  if (tls_scope_depth++ == 0) {
    tls_thread_id = ThreadRegistry::Instance().RegisterCurrentThread();
    owner_ = true;
  } else {
    owner_ = false;
  }
  tid_ = tls_thread_id;
}

ThreadScope::~ThreadScope() {
  if (--tls_scope_depth == 0 && owner_) {
    ThreadRegistry::Instance().Deregister(tid_);
    tls_thread_id = kInvalidThreadId;
  }
}

}  // namespace stacktrack::runtime
