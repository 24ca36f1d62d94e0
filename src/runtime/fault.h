// Deterministic, seeded fault-injection subsystem.
//
// StackTrack's robustness claim — reclamation stays non-blocking and memory stays
// bounded while threads are preempted, stalled, or killed mid-operation — can only be
// tested adversarially if those failures can be produced on demand and reproduced
// exactly. This module provides named injection sites threaded through the hot layers
// (transaction begin, the scan validation window, register exposure, allocation,
// traversal preemption points). Each site is independently armed in one of three
// modes:
//
//   * probability  — site fires on visit N iff hash(seed, site, N) < p. The decision
//                    is a pure function of (seed, site, per-site visit index), so a
//                    single-threaded run replays bit-identically from the seed, and a
//                    multi-threaded run is deterministic per visit index (the global
//                    interleaving of visits is the only nondeterminism).
//   * Nth-visit    — site fires exactly on visit `first` and every `period` visits
//                    after (period 0 = fire once). Fully deterministic schedules.
//   * gate         — site fires on every visit while armed; stall-capable sites block
//                    the visiting thread until the gate is released. This is how tests
//                    deterministically park a victim thread mid-operation.
//
// Sites can be targeted at one thread id so a test stalls a chosen victim while the
// rest of the workload runs normally.
//
// Disarmed cost: one relaxed load of a process-wide armed counter per visit — the
// same budget as runtime::PreemptPoint. Sites count visits and fires only while
// armed, so the counters double as assertions ("the abort we recovered from really
// was injected").
#ifndef STACKTRACK_RUNTIME_FAULT_H_
#define STACKTRACK_RUNTIME_FAULT_H_

#include <atomic>
#include <cstdint>

namespace stacktrack::runtime::fault {

enum class Site : uint8_t {
  kSoftTxAbort = 0,  // forced abort at soft-HTM segment begin (htm/soft_backend.cc)
  kSplitsBump,       // scanner observes a phantom splits-counter change (both scans)
  kInspectStall,     // reclaimer stalls inside the inspection window (both scans)
  kExposeStall,      // owner stalls mid register exposure (splits seqlock held odd)
  kAllocFail,        // transient pool allocation failure (runtime/pool_alloc.cc)
  kThreadStall,      // thread stalls at PreemptPoint (bounded sleep or gate)
  kThreadDeath,      // requests that the thread abandon its workload loop
  kCount
};

inline constexpr uint32_t kSiteCount = static_cast<uint32_t>(Site::kCount);
inline constexpr uint32_t kAnyThread = ~0u;

namespace internal {

inline constexpr uint32_t kModeOff = 0;
inline constexpr uint32_t kModeProbability = 1;
inline constexpr uint32_t kModeNthVisit = 2;
inline constexpr uint32_t kModeGate = 3;

struct SiteState {
  std::atomic<uint32_t> mode{kModeOff};
  std::atomic<uint32_t> threshold{0};  // probability as a 32-bit fixed-point fraction
  std::atomic<uint64_t> first{0};      // Nth-visit: 1-based visit index of first fire
  std::atomic<uint64_t> period{0};     // Nth-visit: repeat period (0 = fire once)
  std::atomic<uint64_t> seed{0};
  std::atomic<uint32_t> target_tid{kAnyThread};
  std::atomic<uint32_t> payload{0};  // site-specific: abort cause code, stall micros
  std::atomic<uint64_t> visits{0};
  std::atomic<uint64_t> fires{0};
};

// Number of currently armed sites; the per-visit fast path checks only this.
inline std::atomic<uint32_t> g_armed_count{0};
inline SiteState g_sites[kSiteCount];

inline SiteState& StateOf(Site site) { return g_sites[static_cast<uint32_t>(site)]; }

// Cold path: the per-site decision. Defined in fault.cc.
bool ShouldFireSlow(Site site);
void MaybeStallSlow(Site site);
void ThreadFaultPointSlow();

}  // namespace internal

// True when at least one site is armed.
inline bool AnyArmed() {
  return internal::g_armed_count.load(std::memory_order_relaxed) != 0;
}

// Counts a visit to `site` and reports whether the armed schedule fires. False when
// nothing is armed (one relaxed load).
inline bool ShouldFire(Site site) {
  if (!AnyArmed()) [[likely]] {
    return false;
  }
  return internal::ShouldFireSlow(site);
}

// Visit + fire + stall in one call, for stall-capable sites (kInspectStall,
// kExposeStall, kThreadStall). Gate mode blocks until the gate is released; schedule
// modes sleep for the site's payload (microseconds, 0 = no sleep).
inline void MaybeStall(Site site) {
  if (!AnyArmed()) [[likely]] {
    return;
  }
  internal::MaybeStallSlow(site);
}

// The PreemptPoint() hook: evaluates kThreadStall and kThreadDeath for the calling
// thread. Callers guard with AnyArmed().
inline void ThreadFaultPoint() { internal::ThreadFaultPointSlow(); }

// ---- Arming -------------------------------------------------------------------

// Fires each visit with probability `prob`; the decision for visit N is a pure
// function of (seed, site, N). `payload` is site-specific (abort cause for the
// kTxAbort sites, stall microseconds for the stall sites). `tid` restricts firing to
// one registered thread id.
void ArmProbability(Site site, double prob, uint64_t seed, uint32_t payload = 0,
                    uint32_t tid = kAnyThread);

// Fires on visit `first` (1-based) and every `period` visits after; period 0 fires
// exactly once.
void ArmNthVisit(Site site, uint64_t first, uint64_t period = 0, uint32_t payload = 0,
                 uint32_t tid = kAnyThread);

// Fires on every visit while armed. Stall-capable sites park the visiting thread
// until ReleaseGate/Disarm.
void ArmGate(Site site, uint32_t tid = kAnyThread);
void ReleaseGate(Site site);  // synonym for Disarm, for gate-armed sites

void Disarm(Site site);
void DisarmAll();

// ---- Observability -------------------------------------------------------------

uint64_t Visits(Site site);
uint64_t Fires(Site site);
uint32_t Payload(Site site);

// Bit `tid` is set while that thread is parked in a stall gate.
uint64_t StalledMask();
bool IsStalled(uint32_t tid);

// kThreadDeath support: once the site fires for a thread, DeathRequested() stays true
// for it until ClearDeathRequests(). Workload loops poll it and exit, which exercises
// the thread-exit reclamation handoff.
bool DeathRequested();
uint64_t DeathMask();
void ClearDeathRequests();

}  // namespace stacktrack::runtime::fault

#endif  // STACKTRACK_RUNTIME_FAULT_H_
