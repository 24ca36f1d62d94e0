#include "runtime/fault.h"

#include <unistd.h>

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
std::atomic<uint64_t> g_death_mask{0};

// SplitMix64 finalizer: the per-visit fire decision is Mix(seed ^ site ^ visit), so a
// schedule replays exactly from its seed without any RNG state to synchronize.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

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
  s.visits.store(0, std::memory_order_relaxed);
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
  const uint64_t visit = s.visits.fetch_add(1, std::memory_order_relaxed) + 1;
  bool fire = false;
  switch (mode) {
    case kModeProbability: {
      const uint64_t hash = Mix(s.seed.load(std::memory_order_relaxed) ^
                                (uint64_t{static_cast<uint32_t>(site)} << 56) ^ visit);
      fire = static_cast<uint32_t>(hash >> 32) < s.threshold.load(std::memory_order_relaxed);
      break;
    }
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

void ThreadFaultPointSlow() {
  MaybeStallSlow(Site::kThreadStall);
  if (ShouldFireSlow(Site::kThreadDeath)) {
    const uint32_t tid = CurrentThreadId();
    if (tid < 64) {
      g_death_mask.fetch_or(uint64_t{1} << tid, std::memory_order_acq_rel);
    }
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

uint64_t Visits(Site site) {
  return StateOf(site).visits.load(std::memory_order_acquire);
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

bool DeathRequested() {
  const uint32_t tid = CurrentThreadId();
  return tid < 64 &&
         (g_death_mask.load(std::memory_order_acquire) & (uint64_t{1} << tid)) != 0;
}

uint64_t DeathMask() { return g_death_mask.load(std::memory_order_acquire); }

void ClearDeathRequests() { g_death_mask.store(0, std::memory_order_release); }

}  // namespace stacktrack::runtime::fault
