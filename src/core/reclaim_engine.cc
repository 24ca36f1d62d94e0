#include "core/reclaim_engine.h"

#include <sched.h>

#include <algorithm>

#include "core/free_proc.h"
#include "htm/htm.h"
#include "runtime/backoff.h"
#include "runtime/fault.h"
#include "runtime/pool_alloc.h"
#include "runtime/trace.h"

namespace stacktrack::core {

namespace trace = runtime::trace;

namespace {

// Verdict shards: dead candidates are quarantined and released in batches of this
// size, bounding the stack-side scratch while keeping the two loops tight.
constexpr std::size_t kVerdictShard = 64;

// How long a reclaimer that lost the collector latch waits for the winner's
// publication before collecting privately. Bounded: the winner may be stalled inside
// an injected fault, and a private collection is always available.
constexpr uint32_t kPublishWaitSpins = 64;

// Stage: ingest. Pulls a batch of previously spilled / handed-off candidates into the
// reclaimer's free set so they go through the normal verdict stage. Skipped while the
// local set is already at or above the scan trigger — adopting then would only deepen
// the backlog the spill was relieving.
void AdoptDeferred(StContext& reclaimer) {
  std::vector<void*>& free_set = reclaimer.MutableFreeSet();
  const uint32_t max_free = reclaimer.config().max_free;
  if (free_set.size() >= max_free) {
    return;
  }
  void* batch[64];
  const std::size_t want =
      std::min<std::size_t>(64, max_free - static_cast<uint32_t>(free_set.size()));
  const std::size_t n = DeferredFreeList::Instance().PopBatch(batch, want);
  if (n == 0) {
    return;
  }
  free_set.insert(free_set.end(), batch, batch + n);
  reclaimer.stats.deferred_adopted += n;
  reclaimer.NoteFreeSetSize();
}

// Stage: relieve. When survivors exceed the high-water mark (threads repeatedly
// answering "live", e.g. one of them is stalled mid-exposure), spill the tail beyond
// max_free to the global deferred list and raise the scan trigger so the owner stops
// paying for futile rescans. Decays back once the backlog drains.
void ApplyBackPressure(StContext& reclaimer) {
  std::vector<void*>& free_set = reclaimer.MutableFreeSet();
  const uint32_t max_free = reclaimer.config().max_free;
  if (free_set.size() > reclaimer.high_water()) {
    const std::size_t excess = free_set.size() - max_free;
    const std::size_t accepted =
        DeferredFreeList::Instance().Push(free_set.data() + max_free, excess);
    if (accepted != 0) {
      free_set.erase(free_set.begin() + max_free,
                     free_set.begin() + static_cast<std::ptrdiff_t>(max_free + accepted));
      reclaimer.stats.backpressure_spills += accepted;
      trace::Emit(trace::Event::kBackpressureSpill, accepted);
    }
    reclaimer.RaiseScanThreshold();
  } else if (free_set.size() <= max_free) {
    reclaimer.DecayScanThreshold();
  }
  reclaimer.NoteFreeSetSize();
}

// Stage: verdict + release. Walks the free set in shards: `live` answers per
// candidate; each shard's dead entries are quarantined together (so in-flight
// transactional readers abort before the memory is poisoned) and then returned to
// the pool together. Survivors compact in place.
template <typename LiveProbe>
void VerdictShards(StContext& reclaimer, bool count_hits, LiveProbe&& live) {
  std::vector<void*>& free_set = reclaimer.MutableFreeSet();
  auto& pool = runtime::PoolAllocator::Instance();
  std::size_t kept = 0;
  std::size_t next = 0;
  while (next < free_set.size()) {
    const std::size_t shard_end = std::min(free_set.size(), next + kVerdictShard);
    void* dead[kVerdictShard];
    std::size_t dead_bytes[kVerdictShard];
    std::size_t n_dead = 0;
    for (; next < shard_end; ++next) {
      void* ptr = free_set[next];
      if (!pool.OwnsLive(ptr)) {
        // Defensive: the block was already reclaimed through another path (see the
        // known-issue note in DESIGN.md §5); dropping it keeps frees idempotent.
        ++reclaimer.stats.stale_free_drops;
        continue;
      }
      const std::size_t length = pool.UsableSize(ptr);
      if (live(reinterpret_cast<uintptr_t>(ptr), length)) {
        if (count_hits) {
          ++reclaimer.stats.scan_hits;
        }
        free_set[kept++] = ptr;  // still referenced; retry next scan
        continue;
      }
      dead[n_dead] = ptr;
      dead_bytes[n_dead] = length;
      ++n_dead;
    }
    for (std::size_t i = 0; i < n_dead; ++i) {
      htm::QuarantineRange(dead[i], dead_bytes[i]);
    }
    for (std::size_t i = 0; i < n_dead; ++i) {
      pool.Free(dead[i]);
    }
    reclaimer.stats.frees += n_dead;
    if (n_dead != 0) {
      trace::Emit(trace::Event::kFree, n_dead);
    }
  }
  free_set.resize(kept);
}

// Appends one thread's roots (exposed registers + tracked frame words + reference-set
// entries when requested) to the snapshot under the splits/oper consistency protocol,
// and records the generation the words were read at. Retries on ANY movement — there
// is deliberately no oper-counter shortcut here (see the header note) — and clears
// snap.complete on retry exhaustion or an overflowed (unenumerable) reference set.
void CollectOneThread(StContext& reclaimer, const StContext& target, uint32_t tid,
                      bool check_refset, RootSnapshot& snap) {
  ++reclaimer.stats.scan_thread_inspects;
  RootSnapshot::ThreadGen& gen = snap.gens[tid];
  gen.ctx = &target;
  const uint32_t retry_cap = reclaimer.config().inspect_retry_cap;
  runtime::ExponentialBackoff backoff(16, 4096);
  uint32_t retries = 0;
  // As in the per-candidate scan, scan_words accumulates locally (across retries) and
  // is flushed once on exit.
  uint64_t scanned = 0;
  while (true) {
    const std::size_t mark = snap.roots.size();
    const uint64_t seq_pre = target.splits_seq.load(std::memory_order_acquire);
    const uint64_t oper_pre = target.oper_counter.load(std::memory_order_acquire);
    if ((seq_pre & 1) != 0) {
      ++reclaimer.stats.scan_restarts;
      if (++retries > retry_cap) {
        ++reclaimer.stats.scan_retry_capped;
        snap.complete = false;
        break;
      }
      backoff.Pause();
      sched_yield();
      continue;
    }
    if (check_refset && target.ref_set.overflowed()) {
      snap.complete = false;
      break;
    }
    const uint32_t refset_count = check_refset ? target.ref_set.size() : 0;
    runtime::fault::MaybeStall(runtime::fault::Site::kInspectStall);
    for (uint32_t i = 0; i < kRegisterSlots; ++i) {
      const uintptr_t word = target.exposed_regs[i].load(std::memory_order_acquire);
      ++scanned;
      if (word != 0) {
        snap.roots.push_back({word, tid});
      }
    }
    const uint32_t frames = target.frame_count.load(std::memory_order_acquire);
    for (uint32_t f = 0; f < frames && f < kMaxFrames; ++f) {
      const uintptr_t lo = target.frames[f].lo.load(std::memory_order_acquire);
      const uintptr_t hi = target.frames[f].hi.load(std::memory_order_acquire);
      if (lo == 0 || hi <= lo) {
        continue;
      }
      for (uintptr_t addr = lo; addr + sizeof(uintptr_t) <= hi; addr += sizeof(uintptr_t)) {
        const uintptr_t word = LoadFrameWord(addr);
        ++scanned;
        if (word != 0) {
          snap.roots.push_back({word, tid});
        }
      }
    }
    for (uint32_t i = 0; i < refset_count; ++i) {
      const uintptr_t word = target.ref_set.slot(i);
      if (word != 0) {
        snap.roots.push_back({word, tid});
      }
    }
    const uint64_t seq_post = target.splits_seq.load(std::memory_order_acquire);
    const uint64_t oper_post = target.oper_counter.load(std::memory_order_acquire);
    if (seq_pre != seq_post || oper_pre != oper_post ||
        runtime::fault::ShouldFire(runtime::fault::Site::kSplitsBump)) {
      snap.roots.resize(mark);
      ++reclaimer.stats.scan_restarts;
      if (++retries > retry_cap) {
        ++reclaimer.stats.scan_retry_capped;
        snap.complete = false;
        break;
      }
      backoff.Pause();
      continue;
    }
    gen.splits_seq = seq_pre;
    gen.oper = oper_pre;
    gen.refset_count = refset_count;
    break;
  }
  reclaimer.stats.scan_words += scanned;
}

}  // namespace

// ---- RootSnapshot ------------------------------------------------------------------

bool RootSnapshot::Blocks(uint32_t reclaimer_tid, uintptr_t base,
                          std::size_t length) const {
  auto it = std::lower_bound(
      roots.begin(), roots.end(), base,
      [](const TaggedRoot& entry, uintptr_t b) { return entry.word < b; });
  for (; it != roots.end() && it->word - base < length; ++it) {
    if (it->tid != reclaimer_tid) {
      return true;
    }
  }
  return false;
}

// ---- RootSnapshotService -----------------------------------------------------------

RootSnapshotService& RootSnapshotService::Instance() {
  static RootSnapshotService service;
  return service;
}

bool RootSnapshotService::Validate(const RootSnapshot& snap, const StContext& reclaimer,
                                   bool needs_refsets) {
  if (!snap.complete) {
    return false;
  }
  if (needs_refsets && !snap.refsets_included) {
    return false;
  }
  if (ActivityArray::Instance().epoch() != snap.epoch) {
    return false;
  }
  if (runtime::ThreadRegistry::Instance().high_watermark() != snap.watermark) {
    return false;
  }
  for (uint32_t tid = 0; tid < snap.watermark; ++tid) {
    if (tid == reclaimer.tid()) {
      // The reclaimer's own generation moves freely: its roots are excluded from
      // every probe it makes (dead by contract once its operation ended).
      continue;
    }
    const RootSnapshot::ThreadGen& gen = snap.gens[tid];
    const StContext* ctx = ActivityArray::Instance().Get(tid);
    if (ctx != gen.ctx) {
      return false;
    }
    if (ctx == nullptr) {
      continue;
    }
    if (ctx->splits_seq.load(std::memory_order_acquire) != gen.splits_seq ||
        ctx->oper_counter.load(std::memory_order_acquire) != gen.oper) {
      return false;
    }
    if (snap.refsets_included &&
        (ctx->ref_set.overflowed() || ctx->ref_set.size() != gen.refset_count)) {
      return false;
    }
  }
  return true;
}

std::shared_ptr<const RootSnapshot> RootSnapshotService::TryReuse(StContext& reclaimer,
                                                                  bool needs_refsets) {
  std::shared_ptr<const RootSnapshot> pub;
  {
    runtime::LatchGuard guard(publish_latch_);
    pub = published_;
  }
  if (pub == nullptr || pub->publisher_tid == reclaimer.tid()) {
    // Nothing published, or this reclaimer published it: own tables are never
    // reused, so back-to-back scans by one thread always re-observe the roots
    // (tracked-frame words can change without any generation movement).
    return nullptr;
  }
  if (!Validate(*pub, reclaimer, needs_refsets)) {
    ++reclaimer.stats.snapshot_stale;
    trace::Emit(trace::Event::kSnapshotStale, pub->version);
    return nullptr;
  }
  ++reclaimer.stats.snapshot_reuses;
  trace::Emit(trace::Event::kSnapshotReuse, pub->roots.size());
  return pub;
}

std::shared_ptr<RootSnapshot> RootSnapshotService::Collect(StContext& reclaimer,
                                                           bool refsets) const {
  auto snap = std::make_shared<RootSnapshot>();
  snap->refsets_included = refsets;
  snap->epoch = ActivityArray::Instance().epoch();
  snap->watermark = runtime::ThreadRegistry::Instance().high_watermark();
  snap->gens.resize(snap->watermark);
  snap->roots.reserve(256);
  for (uint32_t tid = 0; tid < snap->watermark; ++tid) {
    const StContext* target = ActivityArray::Instance().Get(tid);
    snap->gens[tid].ctx = target;
    if (target == nullptr) {
      continue;
    }
    // The collector's own roots are included too (tagged): unlike a private table, a
    // published one must answer for every other reclaimer.
    CollectOneThread(reclaimer, *target, tid, refsets, *snap);
    if (!snap->complete) {
      break;  // the round cannot free anything; no point finishing the sweep
    }
  }
  std::sort(snap->roots.begin(), snap->roots.end(),
            [](const TaggedRoot& a, const TaggedRoot& b) { return a.word < b.word; });
  return snap;
}

void RootSnapshotService::Publish(const std::shared_ptr<RootSnapshot>& snap) {
  runtime::LatchGuard guard(publish_latch_);
  snap->version = version_.load(std::memory_order_relaxed) + 1;
  published_ = snap;
  version_.store(snap->version, std::memory_order_release);
}

std::shared_ptr<const RootSnapshot> RootSnapshotService::Acquire(StContext& reclaimer,
                                                                 bool allow_reuse) {
  const bool needs_refsets =
      reclaimer.config().scan_refsets_always ||
      GlobalSlowPathCount().load(std::memory_order_acquire) != 0;
  if (allow_reuse) {
    if (auto snap = TryReuse(reclaimer, needs_refsets)) {
      return snap;
    }
  }
  if (collector_latch_.TryLock()) {
    auto snap = Collect(reclaimer, needs_refsets);
    if (snap->complete) {
      snap->publisher_tid = reclaimer.tid();
      Publish(snap);
      ++reclaimer.stats.snapshot_publishes;
      trace::Emit(trace::Event::kSnapshotPublish, snap->roots.size());
    } else {
      ++reclaimer.stats.snapshot_incomplete;
    }
    collector_latch_.Unlock();
    return snap;
  }
  // Another reclaimer is collecting. Wait (bounded) for its publication and reuse it
  // rather than doubling the collection work; fall back to a private table if the
  // collector is slow (possibly parked in an injected stall) or its result fails
  // validation.
  if (allow_reuse) {
    const uint64_t seen = version_.load(std::memory_order_acquire);
    runtime::ExponentialBackoff backoff(16, 4096);
    for (uint32_t spin = 0; spin < kPublishWaitSpins; ++spin) {
      if (version_.load(std::memory_order_acquire) != seen) {
        if (auto snap = TryReuse(reclaimer, needs_refsets)) {
          return snap;
        }
        break;
      }
      backoff.Pause();
      sched_yield();
    }
  }
  auto snap = Collect(reclaimer, needs_refsets);
  if (!snap->complete) {
    ++reclaimer.stats.snapshot_incomplete;
  }
  return snap;
}

// ---- ReclaimEngine -----------------------------------------------------------------

void ReclaimEngine::Run(StContext& reclaimer, ScanMode mode) {
  ++reclaimer.stats.scan_calls;
  AdoptDeferred(reclaimer);
  trace::Emit(trace::Event::kScanBegin, reclaimer.MutableFreeSet().size());
  const uint64_t frees_before = reclaimer.stats.frees;
  if (!reclaimer.MutableFreeSet().empty()) {
    if (mode == ScanMode::kPerCandidate) {
      // CandidateIsLive counts scan_hits itself (one per live verdict), so the shard
      // loop must not double-count.
      VerdictShards(reclaimer, /*count_hits=*/false,
                    [&reclaimer](uintptr_t base, std::size_t length) {
                      return CandidateIsLive(reclaimer, base, length);
                    });
    } else {
      const std::shared_ptr<const RootSnapshot> snap =
          RootSnapshotService::Instance().Acquire(reclaimer,
                                                  mode == ScanMode::kSnapshot);
      const uint32_t self = reclaimer.tid();
      VerdictShards(reclaimer, /*count_hits=*/true,
                    [&snap, self](uintptr_t base, std::size_t length) {
                      // An incomplete table cannot prove absence; keep everything.
                      return !snap->complete || snap->Blocks(self, base, length);
                    });
    }
  }
  ApplyBackPressure(reclaimer);
  WatchdogTick(reclaimer);
  trace::Emit(trace::Event::kScanEnd, reclaimer.stats.frees - frees_before);
}

void ReclaimEngine::DrainOnExit(StContext& ctx) {
  // Drain the global deferred list as well as the local set: during domain teardown
  // the last-destroyed context is the only reclaimer left, and with an empty local
  // set FlushFrees alone would never scan, stranding deferred candidates forever.
  // Each pass adopts a batch and rescans; stop when the list is empty or no longer
  // shrinking (survivors ping-pong back via back-pressure when a thread is stalled).
  auto& deferred = DeferredFreeList::Instance();
  std::vector<void*>& free_set = ctx.MutableFreeSet();
  std::size_t deferred_prev = static_cast<std::size_t>(-1);
  while (true) {
    ctx.FlushFrees();
    const std::size_t remaining = deferred.Size();
    if (remaining == 0 || remaining >= deferred_prev) {
      break;
    }
    deferred_prev = remaining;
    void* batch[64];
    const std::size_t n = deferred.PopBatch(batch, 64);
    free_set.insert(free_set.end(), batch, batch + n);
    ctx.stats.deferred_adopted += n;
  }
  if (free_set.empty()) {
    return;
  }
  const std::size_t accepted = deferred.Push(free_set.data(), free_set.size());
  if (accepted > 0) {
    // Push consumed a prefix; shift the (rare) unaccepted tail down. Whatever the
    // bounded deferred list cannot take is leaked, exactly as before.
    free_set.erase(free_set.begin(), free_set.begin() + accepted);
    ctx.stats.exit_handoffs += accepted;
  }
}

}  // namespace stacktrack::core
