#include "smr/hyaline.h"

#include "runtime/pool_alloc.h"
#include "runtime/trace.h"

namespace stacktrack::smr {

namespace trace = runtime::trace;

void HyalineSmr::Handle::OpBegin(uint32_t) {
  // One fetch_add yields the count bump AND the era at the same instant: every batch
  // inserted from here on sees the incremented count (its refs hold a slot for this
  // thread) and carries a later era; everything born at or before entry_era_
  // predates us and is excluded from our leave-time walk.
  const uint64_t prev =
      domain_->word_.fetch_add(Domain::kRefUnit, std::memory_order_acq_rel);
  entry_era_ = prev & Domain::kEraMask;
}

void HyalineSmr::Handle::OpEnd() {
  const uint64_t prev =
      domain_->word_.fetch_sub(Domain::kRefUnit, std::memory_order_acq_rel);
  const uint64_t leave_era = prev & Domain::kEraMask;
  domain_->ops_[tid_].value.fetch_add(1, std::memory_order_release);
  if (leave_era != entry_era_) {
    domain_->LeaveWalk(entry_era_, leave_era);
  }
}

void HyalineSmr::Handle::Retire(void* ptr, uint64_t) {
  pending_.push_back(ptr);
  domain_->total_retired_.fetch_add(1, std::memory_order_relaxed);
  trace::Emit(trace::Event::kRetire, 1);
  if (pending_.size() < kBatchSize) {
    return;
  }
  auto* batch = new Domain::Batch;
  batch->nodes.swap(pending_);
  domain_->Insert(batch);
}

HyalineSmr::Handle& HyalineSmr::Domain::AcquireHandle() {
  const uint32_t tid = runtime::CurrentThreadId();
  Handle& handle = handles_[tid];
  handle.domain_ = this;
  handle.tid_ = tid;
  return handle;
}

void HyalineSmr::Domain::Insert(Batch* batch) {
  int64_t active = 0;
  {
    // Era assignment and registry linkage must agree on order (the walk relies on
    // the registry being born-descending), so both happen under the latch. The
    // count bits of the same fetch_add tell us how many leavers will owe this batch
    // a decrement.
    runtime::LatchGuard guard(latch_);
    const uint64_t prev = word_.fetch_add(1, std::memory_order_acq_rel);
    batch->born = (prev & kEraMask) + 1;
    active = static_cast<int64_t>(prev >> kRefShift);
    batch->next = registry_head_;
    if (registry_head_ != nullptr) {
      registry_head_->prev = batch;
    }
    registry_head_ = batch;
  }
  if (active == 0) {
    // Nobody was inside an operation at the insertion instant: no leaver will ever
    // owe this batch a reference, so its nodes are dead right now.
    FreeBatch(batch);
    return;
  }
  // Seed the count the `active` in-window threads will drain. Leavers may race
  // ahead of this add (refs dips negative); the zero crossing — and the free —
  // happens exactly once, after both the seed and every owed decrement landed.
  if (batch->refs.fetch_add(active, std::memory_order_acq_rel) + active == 0) {
    FreeBatch(batch);
  }
}

void HyalineSmr::Domain::LeaveWalk(uint64_t entry_era, uint64_t leave_era) {
  trace::Emit(trace::Event::kScanBegin, 0);
  uint64_t visited = 0;
  Batch* to_free = nullptr;  // zero crossers, chained through their next links
  {
    runtime::LatchGuard guard(latch_);
    Batch* batch = registry_head_;
    while (batch != nullptr && batch->born > entry_era) {
      Batch* older = batch->next;
      if (batch->born <= leave_era) {
        ++visited;
        if (batch->refs.fetch_sub(1, std::memory_order_acq_rel) - 1 == 0) {
          // Last reference: unlink while the latch is held, free after release.
          if (batch->prev != nullptr) {
            batch->prev->next = batch->next;
          } else {
            registry_head_ = batch->next;
          }
          if (batch->next != nullptr) {
            batch->next->prev = batch->prev;
          }
          batch->next = to_free;
          to_free = batch;
        }
      }
      batch = older;
    }
  }
  while (to_free != nullptr) {
    Batch* next = to_free->next;
    ReleaseBatch(to_free);
    to_free = next;
  }
  trace::Emit(trace::Event::kScanEnd, visited);
}

void HyalineSmr::Domain::FreeBatch(Batch* batch) {
  {
    runtime::LatchGuard guard(latch_);
    if (batch->prev != nullptr) {
      batch->prev->next = batch->next;
    } else {
      registry_head_ = batch->next;
    }
    if (batch->next != nullptr) {
      batch->next->prev = batch->prev;
    }
  }
  ReleaseBatch(batch);
}

void HyalineSmr::Domain::ReleaseBatch(Batch* batch) {
  auto& pool = runtime::PoolAllocator::Instance();
  for (void* node : batch->nodes) {
    pool.Free(node);
  }
  total_freed_.fetch_add(batch->nodes.size(), std::memory_order_relaxed);
  trace::Emit(trace::Event::kFree, batch->nodes.size());
  delete batch;
}

HyalineSmr::Domain::~Domain() {
  // The domain outlives every operation by contract: no thread is active, so both
  // the sub-threshold pending buffers and the remaining registry entries (batches
  // still owed decrements by threads that died mid-operation) can be freed
  // unconditionally.
  auto& pool = runtime::PoolAllocator::Instance();
  for (Handle& handle : handles_) {
    for (void* node : handle.pending_) {
      pool.Free(node);
    }
    total_freed_.fetch_add(handle.pending_.size(), std::memory_order_relaxed);
    handle.pending_.clear();
  }
  while (registry_head_ != nullptr) {
    Batch* next = registry_head_->next;
    ReleaseBatch(registry_head_);
    registry_head_ = next;
  }
}

}  // namespace stacktrack::smr
