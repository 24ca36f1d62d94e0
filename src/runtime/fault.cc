#include "runtime/fault.h"

#include <unistd.h>

#include "runtime/rand.h"
#include "runtime/thread_registry.h"

namespace stacktrack::runtime::fault {
namespace {

using internal::kModeGate;
using internal::kModeNthVisit;
using internal::kModeOff;
using internal::kModeProbability;
using internal::SiteState;
using internal::StateOf;

std::atomic<uint64_t> g_stalled_mask{0};

// The calling thread's visits to one site, valid for the arm generation they were
// counted under: a re-armed site restarts every thread's count at its next visit.
// Probability mode draws once per visit from a private stream seeded with (seed,
// site, tid) at that restart, so the Nth draw is a pure function of those and N, and
// no RNG state is shared between threads.
struct ThreadVisits {
  uint64_t generation = 0;
  uint64_t count = 0;
  Xorshift128 stream;
};
constinit thread_local ThreadVisits tls_visits[kSiteCount];

void Arm(Site site, uint32_t mode, uint32_t threshold, uint64_t first, uint64_t period,
         uint64_t seed, uint32_t payload, uint32_t tid) {
  SiteState& s = StateOf(site);
  const bool was_armed = s.mode.load(std::memory_order_relaxed) != kModeOff;
  s.threshold.store(threshold, std::memory_order_relaxed);
  s.first.store(first, std::memory_order_relaxed);
  s.period.store(period, std::memory_order_relaxed);
  s.seed.store(seed, std::memory_order_relaxed);
  s.payload.store(payload, std::memory_order_relaxed);
  s.target_tid.store(tid, std::memory_order_relaxed);
  s.generation.fetch_add(1, std::memory_order_relaxed);
  s.fires.store(0, std::memory_order_relaxed);
  s.mode.store(mode, std::memory_order_release);
  if (!was_armed) {
    internal::g_armed_count.fetch_add(1, std::memory_order_acq_rel);
  }
}

}  // namespace

namespace internal {

bool ShouldFireSlow(Site site) {
  SiteState& s = StateOf(site);
  const uint32_t mode = s.mode.load(std::memory_order_acquire);
  if (mode == kModeOff) {
    return false;
  }
  const uint32_t target = s.target_tid.load(std::memory_order_relaxed);
  if (target != kAnyThread && target != CurrentThreadId()) {
    return false;
  }
  const uint32_t index = static_cast<uint32_t>(site);
  ThreadVisits& mine = tls_visits[index];
  const uint64_t generation = s.generation.load(std::memory_order_relaxed);
  if (mine.generation != generation) {
    mine.generation = generation;
    mine.count = 0;
    mine.stream.Seed(s.seed.load(std::memory_order_relaxed) ^ (uint64_t{index} << 56) ^
                     CurrentThreadId());
  }
  const uint64_t visit = ++mine.count;
  bool fire = false;
  switch (mode) {
    case kModeProbability:
      fire = static_cast<uint32_t>(mine.stream.Next() >> 32) <
             s.threshold.load(std::memory_order_relaxed);
      break;
    case kModeNthVisit: {
      const uint64_t first = s.first.load(std::memory_order_relaxed);
      const uint64_t period = s.period.load(std::memory_order_relaxed);
      fire = visit == first ||
             (period != 0 && visit > first && (visit - first) % period == 0);
      break;
    }
    case kModeGate:
      fire = true;
      break;
    default:
      break;
  }
  if (fire) {
    s.fires.fetch_add(1, std::memory_order_relaxed);
  }
  return fire;
}

void MaybeStallSlow(Site site) {
  if (!ShouldFireSlow(site)) {
    return;
  }
  SiteState& s = StateOf(site);
  if (s.mode.load(std::memory_order_acquire) == kModeGate) {
    const uint32_t tid = CurrentThreadId();
    const uint64_t bit = tid < 64 ? uint64_t{1} << tid : 0;
    g_stalled_mask.fetch_or(bit, std::memory_order_acq_rel);
    // Park until the gate is released or retargeted away from this thread.
    while (s.mode.load(std::memory_order_acquire) == kModeGate) {
      const uint32_t target = s.target_tid.load(std::memory_order_relaxed);
      if (target != kAnyThread && target != tid) {
        break;
      }
      usleep(50);
    }
    g_stalled_mask.fetch_and(~bit, std::memory_order_acq_rel);
    return;
  }
  const uint32_t stall_us = s.payload.load(std::memory_order_relaxed);
  if (stall_us != 0) {
    usleep(stall_us);
  }
}

}  // namespace internal

void ArmProbability(Site site, double prob, uint64_t seed, uint32_t payload, uint32_t tid) {
  if (prob < 0.0) {
    prob = 0.0;
  }
  const uint32_t threshold =
      prob >= 1.0 ? ~0u : static_cast<uint32_t>(prob * 4294967296.0);
  Arm(site, internal::kModeProbability, threshold, 0, 0, seed, payload, tid);
}

void ArmNthVisit(Site site, uint64_t first, uint64_t period, uint32_t payload,
                 uint32_t tid) {
  Arm(site, internal::kModeNthVisit, 0, first, period, 0, payload, tid);
}

void ArmGate(Site site, uint32_t tid) {
  Arm(site, internal::kModeGate, 0, 0, 0, 0, 0, tid);
}

void ReleaseGate(Site site) { Disarm(site); }

void Disarm(Site site) {
  SiteState& s = StateOf(site);
  if (s.mode.exchange(internal::kModeOff, std::memory_order_acq_rel) !=
      internal::kModeOff) {
    internal::g_armed_count.fetch_sub(1, std::memory_order_acq_rel);
  }
}

void DisarmAll() {
  for (uint32_t i = 0; i < kSiteCount; ++i) {
    Disarm(static_cast<Site>(i));
  }
}

uint64_t Fires(Site site) {
  return StateOf(site).fires.load(std::memory_order_acquire);
}

uint32_t Payload(Site site) {
  return StateOf(site).payload.load(std::memory_order_relaxed);
}

uint64_t StalledMask() { return g_stalled_mask.load(std::memory_order_acquire); }

bool IsStalled(uint32_t tid) {
  return tid < 64 && (StalledMask() & (uint64_t{1} << tid)) != 0;
}

}  // namespace stacktrack::runtime::fault
