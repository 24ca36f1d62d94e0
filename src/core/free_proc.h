// The StackTrack free procedure (Algorithm 1): SCAN_AND_FREE plus the per-thread
// inspection protocol (IS_IN_STACK / IS_IN_REGISTERS with the splits-counter retry and
// the oper-counter shortcut). Both scan strategies — the §5.2 root table (the default
// round: one sweep of each other thread per round) and Algorithm 1's per-candidate
// rescan (StConfig::hashed_scan = false) — read other threads' roots through the one
// protocol loop in free_proc.cc.
#ifndef STACKTRACK_CORE_FREE_PROC_H_
#define STACKTRACK_CORE_FREE_PROC_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/thread_context.h"
#include "runtime/barrier.h"

namespace stacktrack::core {

// Bounded global spillway for free-set candidates that cannot be reclaimed promptly:
// back-pressured survivors (a stalled thread keeps answering "live") and the
// unreclaimed buffers of exiting threads. Any thread's later round adopts a batch
// into the room its release made and decides it in its next round, so candidates
// stranded behind a stall or a dead thread are reclaimed as soon as the stall clears
// — and the hard capacity keeps total deferred memory bounded even if it never does.
class DeferredFreeList {
 public:
  static constexpr std::size_t kCapacity = 4096;

  static DeferredFreeList& Instance();

  DeferredFreeList(const DeferredFreeList&) = delete;
  DeferredFreeList& operator=(const DeferredFreeList&) = delete;

  // Appends up to `count` candidates, consuming a prefix of `ptrs`. Returns how many
  // were accepted (the list is full beyond that).
  std::size_t Push(void* const* ptrs, std::size_t count);

  // Removes up to `max` candidates into `out`; returns the number popped.
  std::size_t PopBatch(void** out, std::size_t max);

  std::size_t Size() const { return size_.load(std::memory_order_acquire); }
  std::size_t peak() const { return peak_.load(std::memory_order_acquire); }

 private:
  DeferredFreeList() = default;

  runtime::SpinLatch latch_;
  std::atomic<std::size_t> size_{0};
  std::atomic<std::size_t> peak_{0};
  void* slots_[kCapacity];
};

// Bit `tid` is set while the watchdog considers that thread stalled: inside one
// operation for at least StConfig::watchdog_deadline_ns, as seen by reclamation rounds.
// Bits clear when the thread advances. Updated opportunistically by every round.
uint64_t StalledThreadMask();

// One global watchdog tick: walks registered threads and updates StalledThreadMask,
// counting each newly flagged thread in stats.watchdog_reports (and a kWatchdogReport
// trace event), which are the watchdog's output.
// Runs as the final stage of every ReclaimEngine round; a tick that loses the
// watchdog latch is skipped (rounds are global, not per thread).
void WatchdogTick(StContext& reclaimer);

// Algorithm 1's round (what threshold rounds run with StConfig::hashed_scan false):
// scans every registered thread's roots once per candidate in the reclaimer's free set
// and returns the memory of unreferenced candidates to the pool (after quarantining the
// range so in-flight transactional readers abort). Survivors stay buffered for the
// next call. Runs non-transactionally; multiple reclaimers may scan concurrently.
// Forwards to ReclaimEngine::Run(kPerCandidate) — see core/reclaim_engine.h.
void ScanAndFree(StContext& reclaimer);

// One candidate inspection across all threads: true when some thread (other than the
// reclaimer) may still hold a reference into [base, base + length). Exposed for tests
// and the scan-behaviour benchmark.
bool CandidateIsLive(StContext& reclaimer, uintptr_t base, std::size_t length);

// Inspection of one thread's roots with the consistency protocol of Algorithm 1
// (lines 12-30). `check_refset` additionally consults the slow-path reference set.
bool InspectThread(StContext& reclaimer, StContext& target, uintptr_t base,
                   std::size_t length, bool check_refset);

// The paper's §5.2 optimization, StackTrack's default round (StConfig::hashed_scan):
// instead of rescanning every thread per candidate, collect every other thread's root
// words once into a private sorted table, then answer each candidate with a range
// probe — average O(1) work per freed pointer. Compared with ScanAndFree by
// bench/ablation_scan and bench/micro_scan. Forwards to ReclaimEngine::Run(kHashed).
void ScanAndFreeHashed(StContext& reclaimer);

// Fills `roots` with the root words of every registered thread except the reclaimer
// (exposed registers, tracked frames, and reference sets when slow-path segments are
// running), each thread read under InspectThread's consistency protocol, and sorts
// it. A thread whose operation completes mid-read contributes nothing: every
// candidate of the round was retired before the collection began, so that
// operation's roots cannot reach one. Returns false when the table is incomplete — a
// thread hit the retry cap or its overflowed reference set cannot be enumerated —
// and so cannot prove any candidate unreferenced.
bool CollectRootTable(StContext& reclaimer, std::vector<uintptr_t>& roots);

}  // namespace stacktrack::core

#endif  // STACKTRACK_CORE_FREE_PROC_H_
