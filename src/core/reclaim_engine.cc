#include "core/reclaim_engine.h"

#include <algorithm>
#include <vector>

#include "core/free_proc.h"
#include "htm/htm.h"
#include "runtime/pool_alloc.h"
#include "runtime/trace.h"

namespace stacktrack::core {

namespace trace = runtime::trace;

namespace {

// Verdict shards: dead candidates are quarantined and released in batches of this
// size, bounding the stack-side scratch while keeping the two loops tight.
constexpr std::size_t kVerdictShard = 64;

// Stage: ingest. Pulls previously spilled / handed-off candidates into the room this
// round's release made: at most as many as it freed, and never past max_free. A round
// that frees nothing adopts nothing, and adoption never lifts the set toward the
// back-pressure high-water mark, so spilled survivors cannot ping-pong. The adopted
// candidates wait for the next round's verdict: this round's root table was
// collected before they were handed over, so it cannot decide them.
void AdoptDeferred(StContext& reclaimer, uint64_t freed) {
  std::vector<void*>& free_set = reclaimer.MutableFreeSet();
  const uint32_t max_free = reclaimer.config().max_free;
  if (freed == 0 || free_set.size() >= max_free) {
    return;
  }
  void* batch[64];
  const std::size_t want = std::min<std::size_t>(
      {64, freed, max_free - static_cast<uint32_t>(free_set.size())});
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
        // known-issue note in DESIGN.md §9); dropping it keeps frees idempotent.
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

}  // namespace

// ---- ReclaimEngine -----------------------------------------------------------------

void ReclaimEngine::Run(StContext& reclaimer, ScanMode mode) {
  ++reclaimer.stats.scan_calls;
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
      std::vector<uintptr_t> roots;
      roots.reserve(256);
      const bool complete = CollectRootTable(reclaimer, roots);
      if (!complete) {
        ++reclaimer.stats.snapshot_incomplete;
      }
      VerdictShards(reclaimer, /*count_hits=*/true,
                    [&roots, complete](uintptr_t base, std::size_t length) {
                      if (!complete) {
                        return true;  // an incomplete table cannot prove absence
                      }
                      const auto it = std::lower_bound(roots.begin(), roots.end(), base);
                      return it != roots.end() && *it - base < length;
                    });
    }
  }
  const uint64_t freed = reclaimer.stats.frees - frees_before;
  AdoptDeferred(reclaimer, freed);
  ApplyBackPressure(reclaimer);
  WatchdogTick(reclaimer);
  trace::Emit(trace::Event::kScanEnd, freed);
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
