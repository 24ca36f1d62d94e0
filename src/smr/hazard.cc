#include "smr/hazard.h"

#include "runtime/pool_alloc.h"
#include "runtime/trace.h"

namespace stacktrack::smr {

namespace trace = runtime::trace;

uint32_t HazardSmr::Handle::OverflowSlot(uint32_t slot) {
  domain_->slot_overflows_.fetch_add(1, std::memory_order_relaxed);
  trace::Emit(trace::Event::kGuardSlotOverflow, slot);
  return 0;
}

void HazardSmr::Handle::OpEnd() {
  for (std::atomic<uintptr_t>& guard : guards_) {
    guard.store(0, std::memory_order_release);
  }
}

void HazardSmr::Handle::Retire(void* ptr, uint64_t) {
  retired_.push_back(ptr);
  domain_->total_retired_.fetch_add(1, std::memory_order_relaxed);
  trace::Emit(trace::Event::kRetire, 1);
  if (retired_.size() >= domain_->config_.scan_threshold) {
    domain_->Scan(retired_);
  }
}

HazardSmr::Handle& HazardSmr::Domain::AcquireHandle() {
  Handle& handle = handles_[runtime::CurrentThreadId()];
  handle.domain_ = this;
  return handle;
}

void HazardSmr::Domain::Scan(std::vector<void*>& retired) {
  total_scans_.fetch_add(1, std::memory_order_relaxed);
  trace::Emit(trace::Event::kScanBegin, retired.size());
  // Stage 1: snapshot every published hazard below the registry's high watermark.
  std::vector<uintptr_t> hazards;
  hazards.reserve(runtime::kMaxThreads * kSlotsPerThread);
  const uint32_t watermark = runtime::ThreadRegistry::Instance().high_watermark();
  for (uint32_t tid = 0; tid < watermark; ++tid) {
    for (const std::atomic<uintptr_t>& guard : handles_[tid].guards_) {
      const uintptr_t value = guard.load(std::memory_order_acquire);
      if (value != 0) {
        hazards.push_back(value);
      }
    }
  }

  // Stage 2: free retired nodes no hazard points into.
  auto& pool = runtime::PoolAllocator::Instance();
  std::size_t kept = 0;
  uint64_t freed = 0;
  for (void* node : retired) {
    const uintptr_t base = reinterpret_cast<uintptr_t>(node);
    const std::size_t length = pool.UsableSize(node);
    bool live = false;
    for (const uintptr_t hazard : hazards) {
      if (hazard - base < length) {
        live = true;
        break;
      }
    }
    if (live) {
      retired[kept++] = node;
    } else {
      pool.Free(node);
      ++freed;
    }
  }
  retired.resize(kept);
  total_freed_.fetch_add(freed, std::memory_order_relaxed);
  if (freed != 0) {
    trace::Emit(trace::Event::kFree, freed);
  }
  trace::Emit(trace::Event::kScanEnd, freed);
}

HazardSmr::Domain::~Domain() {
  // Operations have completed by contract; any hazard left published is stale.
  auto& pool = runtime::PoolAllocator::Instance();
  for (Handle& handle : handles_) {
    handle.OpEnd();
    for (void* node : handle.retired_) {
      pool.Free(node);
    }
    handle.retired_.clear();
  }
}

}  // namespace stacktrack::smr
