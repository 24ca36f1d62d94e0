#include "core/free_proc.h"

#include <sched.h>

#include <algorithm>
#include <cstring>

#include "core/reclaim_engine.h"
#include "runtime/backoff.h"
#include "runtime/cacheline.h"
#include "runtime/fault.h"
#include "runtime/trace.h"

namespace stacktrack::core {

namespace trace = runtime::trace;

DeferredFreeList& DeferredFreeList::Instance() {
  static DeferredFreeList list;
  return list;
}

std::size_t DeferredFreeList::Push(void* const* ptrs, std::size_t count) {
  runtime::LatchGuard guard(latch_);
  const std::size_t used = size_.load(std::memory_order_relaxed);
  const std::size_t accepted = std::min(count, kCapacity - used);
  if (accepted != 0) {
    std::memcpy(&slots_[used], ptrs, accepted * sizeof(void*));
    size_.store(used + accepted, std::memory_order_release);
    if (used + accepted > peak_.load(std::memory_order_relaxed)) {
      peak_.store(used + accepted, std::memory_order_release);
    }
  }
  return accepted;
}

std::size_t DeferredFreeList::PopBatch(void** out, std::size_t max) {
  if (size_.load(std::memory_order_acquire) == 0) {
    return 0;  // common case: no spillover anywhere, skip the latch
  }
  runtime::LatchGuard guard(latch_);
  const std::size_t used = size_.load(std::memory_order_relaxed);
  const std::size_t popped = std::min(max, used);
  if (popped != 0) {
    std::memcpy(out, &slots_[used - popped], popped * sizeof(void*));
    size_.store(used - popped, std::memory_order_release);
  }
  return popped;
}

namespace {

// Watchdog bookkeeping shared by all reclaimers. Each reclamation round is one tick; a
// thread that stays inside one operation (op_active set, oper_counter unchanged) for
// watchdog_deadline_ns, timed from the first tick that saw it there, is flagged as
// stalled. oper_counter alone cannot distinguish "stalled" from "idle", hence
// op_active. The deadline is a time, not a round count: every thread runs a round per
// max_free retires, so an ordinary operation can span many rounds.
// Every reclamation round writes the latch and the per-thread stamps, so the block gets
// cache lines of its own: placed by the linker next to read-mostly flags that every
// transaction or trace site loads (trace arming, fault arming), it made
// each round a coherence miss for every other thread.
struct alignas(runtime::kCacheLineSize) Watchdog {
  runtime::SpinLatch latch;
  uint64_t last_oper[runtime::kMaxThreads] = {};
  uint64_t op_seen_ns[runtime::kMaxThreads] = {};  // when a tick first saw the
                                                   // operation in flight; 0 = none
  std::atomic<uint64_t> stalled_mask{0};
};

Watchdog& TheWatchdog() {
  static Watchdog wd;
  return wd;
}

// The one reader of another thread's root words: one unsynchronized pass over the
// target's exposed registers, tracked frames and their replay snapshots, handing each
// word to `visit`, which returns true to end the pass early (a per-candidate probe
// found its reference). Returns whether the pass ended early. Forced inline, like the
// protocol below, so the per-candidate probe stays an early-return loop with no call
// per word. scan_words accumulates locally and is flushed once at the end — a per-word
// store to the (cross-thread-summed) stats block is a hot-loop write the scan can skip.
template <typename Visit>
[[gnu::always_inline]] inline bool SweepRoots(StContext& reclaimer, const StContext& target,
                                              Visit&& visit) {
  uint64_t scanned = 0;
  auto sweep_words = [&scanned, &visit](uintptr_t lo, uintptr_t hi) {
    for (uintptr_t addr = lo; addr + sizeof(uintptr_t) <= hi; addr += sizeof(uintptr_t)) {
      ++scanned;
      if (visit(LoadFrameWord(addr))) {
        return true;
      }
    }
    return false;
  };
  bool found = false;
  for (uint32_t i = 0; i < kRegisterSlots && !found; ++i) {
    ++scanned;
    found = visit(target.exposed_regs[i].load(std::memory_order_acquire));
  }
  const uint32_t frames = target.frame_count.load(std::memory_order_acquire);
  for (uint32_t f = 0; f < frames && f < kMaxFrames && !found; ++f) {
    const uintptr_t lo = target.frames[f].lo.load(std::memory_order_acquire);
    const uintptr_t hi = target.frames[f].hi.load(std::memory_order_acquire);
    if (lo == 0 || hi <= lo) {
      continue;
    }
    // A segment that overwrote a frame word and then aborts restores the committed
    // word from the snapshot, so the snapshot holds roots too (HTM buffers the store
    // and needs no second pass; it is only conservative there). It is read after the
    // frame: a word the frame pass saw overwritten was snapshotted before the
    // overwrite, and the snapshot changes only at an arm, which re-saves the same
    // committed words until a commit moves splits_seq.
    const uintptr_t snapshot = reinterpret_cast<uintptr_t>(target.replay_frame(f));
    found = sweep_words(lo, hi) ||
            sweep_words(snapshot,
                        snapshot + std::min<uintptr_t>(hi - lo, sizeof(uintptr_t) *
                                                                    kMaxFrameWords));
  }
  reclaimer.stats.scan_words += scanned;
  return found;
}

// How one thread inspection ended.
enum class Inspection {
  kConsistent,     // the last sweep saw one even, unchanged splits_seq: its result stands
  kOperationDone,  // the operation in flight when the inspection began has completed
  kRetryCapped,    // no consistent sweep within inspect_retry_cap
};

// Algorithm 1 lines 12-30, the only copy of the consistency protocol: runs `sweep`
// over the target's roots until one run is bracketed by the same even splits_seq.
// The oper-counter shortcut ends the inspection as soon as the operation that was
// running at its start completes: its roots are gone, and every candidate the caller
// is deciding was retired before the inspection began, so no later operation can
// have picked one up. Algorithm 1's restart argument assumes the exposing thread
// always finishes its commit; a thread preempted (or killed) mid-exposure would
// otherwise spin this loop forever and wedge every reclaimer behind it, so retries
// are capped and the caller must treat kRetryCapped as "may reference anything".
template <typename Sweep>
[[gnu::always_inline]] inline Inspection InspectConsistently(StContext& reclaimer,
                                                             const StContext& target,
                                                             Sweep&& sweep) {
  ++reclaimer.stats.scan_thread_inspects;
  const uint32_t retry_cap = reclaimer.config().inspect_retry_cap;
  runtime::ExponentialBackoff backoff(16, 4096);
  uint32_t retries = 0;
  const uint64_t oper_pre = target.oper_counter.load(std::memory_order_acquire);
  while (true) {
    const uint64_t seq_pre = target.splits_seq.load(std::memory_order_acquire);
    // Odd: register exposure in flight. Normally the exposing thread is committing,
    // i.e. making progress — wait it out.
    const bool exposing = (seq_pre & 1) != 0;
    if (!exposing) {
      runtime::fault::MaybeStall(runtime::fault::Site::kInspectStall);
      sweep();
      const uint64_t seq_post = target.splits_seq.load(std::memory_order_acquire);
      if (target.oper_counter.load(std::memory_order_acquire) != oper_pre) {
        return Inspection::kOperationDone;
      }
      // A segment committed mid-sweep (or the injector pretends one did): rescan.
      if (seq_pre == seq_post &&
          !runtime::fault::ShouldFire(runtime::fault::Site::kSplitsBump)) {
        return Inspection::kConsistent;
      }
    }
    ++reclaimer.stats.scan_restarts;
    if (++retries > retry_cap) {
      ++reclaimer.stats.scan_retry_capped;
      return Inspection::kRetryCapped;
    }
    backoff.Pause();
    if (exposing) {
      sched_yield();
      if (target.oper_counter.load(std::memory_order_acquire) != oper_pre) {
        return Inspection::kOperationDone;
      }
    }
  }
}

}  // namespace

void WatchdogTick(StContext& reclaimer) {
  Watchdog& wd = TheWatchdog();
  if (!wd.latch.TryLock()) {
    return;  // another reclaimer is ticking; the watchdog is global, not per thread
  }
  // One clock read per tick: rounds run outside transactions.
  const uint64_t now = trace::NowNanos();
  const uint64_t deadline = reclaimer.config().watchdog_deadline_ns;
  uint64_t mask = wd.stalled_mask.load(std::memory_order_relaxed);
  const uint32_t watermark = runtime::ThreadRegistry::Instance().high_watermark();
  for (uint32_t tid = 0; tid < watermark && tid < runtime::kMaxThreads; ++tid) {
    const uint64_t bit = uint64_t{1} << tid;
    StContext* target = ActivityArray::Instance().Get(tid);
    const uint64_t oper =
        target == nullptr ? 0 : target->oper_counter.load(std::memory_order_acquire);
    const bool mid_op =
        target != nullptr && target->op_active.load(std::memory_order_acquire) != 0;
    if (!mid_op || oper != wd.last_oper[tid]) {
      // Idle, gone, or inside a newer operation than the last tick saw: progress.
      wd.last_oper[tid] = oper;
      wd.op_seen_ns[tid] = mid_op ? now : 0;
      mask &= ~bit;
    } else if (wd.op_seen_ns[tid] == 0) {
      wd.op_seen_ns[tid] = now;  // first tick to see this operation in flight
    } else if ((mask & bit) == 0 && now - wd.op_seen_ns[tid] >= deadline) {
      mask |= bit;
      ++reclaimer.stats.watchdog_reports;
      trace::Emit(trace::Event::kWatchdogReport, tid);
    }
  }
  wd.stalled_mask.store(mask, std::memory_order_release);
  wd.latch.Unlock();
}

// Cache-line aligned so the frame-word loop always sits at the same offset within a
// 64-byte fetch window, whatever code precedes it in a binary: linked where the loop
// straddled two windows, micro_scan's per-candidate case ran ~0.9x on a 4-vCPU Xeon.
[[gnu::aligned(runtime::kCacheLineSize)]] bool InspectThread(
    StContext& reclaimer, StContext& target, uintptr_t base, std::size_t length,
    bool check_refset) {
  // Pointer matching is range containment, which subsumes exact matches, interior
  // pointers (array elements, member addresses) and mark/freeze tag bits folded into
  // low pointer bits by the data structures.
  bool found = false;
  const Inspection outcome = InspectConsistently(reclaimer, target, [&] {
    found = SweepRoots(reclaimer, target,
                       [base, length](uintptr_t word) { return word - base < length; }) ||
            (check_refset && target.ref_set.ContainsRange(base, length));
  });
  // A capped inspection answers "live": conservatively delaying the free is always
  // safe, the candidate just stays buffered and back-pressure takes over.
  return outcome == Inspection::kRetryCapped ||
         (outcome == Inspection::kConsistent && found);
}

bool CandidateIsLive(StContext& reclaimer, uintptr_t base, std::size_t length) {
  const bool check_refsets = reclaimer.config().scan_refsets_always ||
                             GlobalSlowPathCount().load(std::memory_order_acquire) != 0;
  const uint32_t watermark = runtime::ThreadRegistry::Instance().high_watermark();
  for (uint32_t tid = 0; tid < watermark; ++tid) {
    StContext* target = ActivityArray::Instance().Get(tid);
    if (target == nullptr || target == &reclaimer) {
      // Skip self: a scan runs after the reclaimer's final segment committed, so
      // roots still sitting in its own frames are dead by contract.
      continue;
    }
    if (InspectThread(reclaimer, *target, base, length, check_refsets)) {
      ++reclaimer.stats.scan_hits;
      return true;
    }
  }
  return false;
}

bool CollectRootTable(StContext& reclaimer, std::vector<uintptr_t>& roots) {
  const bool check_refsets = reclaimer.config().scan_refsets_always ||
                             GlobalSlowPathCount().load(std::memory_order_acquire) != 0;
  const uint32_t watermark = runtime::ThreadRegistry::Instance().high_watermark();
  for (uint32_t tid = 0; tid < watermark; ++tid) {
    const StContext* target = ActivityArray::Instance().Get(tid);
    if (target == nullptr || target == &reclaimer) {
      continue;  // as in CandidateIsLive, the reclaimer's own roots are dead by contract
    }
    const std::size_t mark = roots.size();
    bool refset_overflowed = false;
    const Inspection outcome = InspectConsistently(reclaimer, *target, [&] {
      roots.resize(mark);  // drop a previous, inconsistent sweep's words
      SweepRoots(reclaimer, *target, [&roots](uintptr_t word) {
        if (word != 0) {
          roots.push_back(word);
        }
        return false;
      });
      if (check_refsets) {
        refset_overflowed = target->ref_set.overflowed();
        const uint32_t used = std::min(target->ref_set.size(), RefSet::kSlots);
        for (uint32_t i = 0; i < used; ++i) {
          const uintptr_t word = target->ref_set.slot(i);
          if (word != 0) {
            roots.push_back(word);
          }
        }
      }
    });
    if (outcome == Inspection::kRetryCapped ||
        (outcome == Inspection::kConsistent && refset_overflowed)) {
      return false;  // the round cannot free anything; no point finishing the sweep
    }
    if (outcome == Inspection::kOperationDone) {
      roots.resize(mark);
    }
  }
  std::sort(roots.begin(), roots.end());
  return true;
}

void ScanAndFree(StContext& reclaimer) {
  ReclaimEngine::Run(reclaimer, ScanMode::kPerCandidate);
}

void ScanAndFreeHashed(StContext& reclaimer) {
  ReclaimEngine::Run(reclaimer, ScanMode::kHashed);
}

uint64_t StalledThreadMask() {
  return TheWatchdog().stalled_mask.load(std::memory_order_acquire);
}

}  // namespace stacktrack::core
