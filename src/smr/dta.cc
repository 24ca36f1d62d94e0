#include "smr/dta.h"

#include "runtime/pool_alloc.h"
#include "runtime/trace.h"

namespace stacktrack::smr {

namespace trace = runtime::trace;

void DtaSmr::Handle::OpBegin(uint32_t) {
  auto& mine = domain_->announcements_[tid_].value;
  const uint64_t now = domain_->clock_.fetch_add(1, std::memory_order_acq_rel);
  mine.anchor_key.store(0, std::memory_order_relaxed);  // anchored at the head
  mine.stamp.store(now, std::memory_order_seq_cst);
  hops_ = 0;
}

void DtaSmr::Handle::OpEnd() {
  auto& mine = domain_->announcements_[tid_].value;
  mine.stamp.store(Domain::kIdle, std::memory_order_release);
}

void DtaSmr::Handle::AnchorHop(uint64_t key) {
  if (++hops_ < domain_->config_.anchor_interval) {
    return;
  }
  hops_ = 0;
  auto& mine = domain_->announcements_[tid_].value;
  // The published anchor must lower-bound every key this thread still holds; list
  // traversals only move forward, so the key just visited qualifies. The seq_cst
  // store is the scheme's only fence, paid once per anchor_interval hops.
  mine.anchor_key.store(key, std::memory_order_seq_cst);
}

void DtaSmr::Handle::Retire(void* ptr, uint64_t key) {
  retired_.push_back(Retired{ptr, key, domain_->clock_.fetch_add(1, std::memory_order_acq_rel),
                             /*pinned_since_ns=*/0});
  domain_->total_retired_.fetch_add(1, std::memory_order_relaxed);
  trace::Emit(trace::Event::kRetire, 1);
  if (retired_.size() >= domain_->config_.batch_size) {
    domain_->Scan(*this);
  }
}

DtaSmr::Handle& DtaSmr::Domain::AcquireHandle() {
  const uint32_t tid = runtime::CurrentThreadId();
  Handle& handle = handles_[tid];
  handle.domain_ = this;
  handle.tid_ = tid;
  return handle;
}

void DtaSmr::Domain::Scan(Handle& handle) {
  trace::Emit(trace::Event::kScanBegin, handle.retired_.size());
  auto& pool = runtime::PoolAllocator::Instance();
  const uint32_t watermark = runtime::ThreadRegistry::Instance().high_watermark();
  std::size_t kept = 0;
  uint64_t freed = 0;
  uint64_t quarantined = 0;
  uint64_t now = 0;  // read once, at the first pinned node
  for (Handle::Retired& node : handle.retired_) {
    bool pinned = false;
    for (uint32_t tid = 0; tid < watermark && !pinned; ++tid) {
      if (tid == handle.tid_) {
        continue;  // the retiring thread's own op no longer needs the node
      }
      const Announcement& other = announcements_[tid].value;
      const uint64_t stamp = other.stamp.load(std::memory_order_acquire);
      if (stamp == kIdle || stamp > node.stamp) {
        // Idle, or the op started after the node was unreachable: cannot hold it.
        continue;
      }
      // Same-op overlap: the thread may hold the node unless it anchored past it.
      if (node.key >= other.anchor_key.load(std::memory_order_acquire)) {
        pinned = true;
      }
    }
    if (!pinned) {
      pool.Free(node.ptr);
      ++freed;
      continue;
    }
    if (now == 0) {
      now = trace::NowNanos();
    }
    if (node.pinned_since_ns == 0) {
      node.pinned_since_ns = now;
    } else if (now - node.pinned_since_ns >= config_.stall_deadline_ns) {
      // Freezing substitute: an operation has pinned this node past the deadline;
      // park it until teardown so reclamation stays non-blocking.
      handle.quarantine_.push_back(node.ptr);
      ++quarantined;
      continue;
    }
    handle.retired_[kept++] = node;
  }
  handle.retired_.resize(kept);
  total_freed_.fetch_add(freed, std::memory_order_relaxed);
  total_quarantined_.fetch_add(quarantined, std::memory_order_relaxed);
  if (freed != 0) {
    trace::Emit(trace::Event::kFree, freed);
  }
  trace::Emit(trace::Event::kScanEnd, freed);
}

DtaSmr::Domain::~Domain() {
  auto& pool = runtime::PoolAllocator::Instance();
  for (Handle& handle : handles_) {
    for (const Handle::Retired& node : handle.retired_) {
      pool.Free(node.ptr);
    }
    handle.retired_.clear();
    for (void* node : handle.quarantine_) {
      pool.Free(node);
    }
    handle.quarantine_.clear();
  }
}

}  // namespace stacktrack::smr
