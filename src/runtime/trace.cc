#include "runtime/trace.h"

#if defined(STACKTRACK_TRACE_ENABLED)

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace stacktrack::runtime::trace {

namespace {
// Set once by the HTM layer at static-init time (see SetInTxProbe in trace.h);
// constinit so it is valid whenever that initializer runs.
using InTxProbe = bool (*)();
constinit InTxProbe g_in_tx_probe = nullptr;
}  // namespace

namespace internal {

namespace {
// Statically allocated so emits never touch the allocator (an emit site may sit
// inside the pool allocator's own free path). ~6 MiB with 64 threads x 4096 records.
Ring g_rings[kMaxThreads];
}  // namespace

Ring& RingForThread(uint32_t tid) { return g_rings[tid]; }

std::atomic<uint64_t>& UnattributedDrops() {
  static std::atomic<uint64_t> drops{0};
  return drops;
}

}  // namespace internal

void Arm(bool on) { ArmedFlag().store(on, std::memory_order_release); }

void SetInTxProbe(bool (*probe)()) { g_in_tx_probe = probe; }

void EmitSlow(Event event, uint64_t arg) {
  if (g_in_tx_probe != nullptr && g_in_tx_probe()) {
    // On real HTM this site would abort deterministically (clock_gettime below
    // reads the vvar page) and silently push every operation onto the slow path.
    // The soft engine reaches this branch instead of aborting, so fail loudly.
    std::fprintf(stderr,
                 "stacktrack: armed trace emit (%s) inside a transaction; emit sites "
                 "must not be reachable between a begin point and its commit\n",
                 EventName(event));
    std::abort();
  }
  const uint32_t tid = CurrentThreadId();
  if (tid >= kMaxThreads) {
    // Unregistered thread (domain teardown on main, external samplers): nowhere to
    // attribute the record. Count it so "no drops" claims stay honest.
    internal::UnattributedDrops().fetch_add(1, std::memory_order_relaxed);
    return;
  }
  internal::RingForThread(tid).Emit(event, arg);
}

uint64_t TotalDropped() {
  uint64_t total = internal::UnattributedDrops().load(std::memory_order_acquire);
  for (uint32_t tid = 0; tid < kMaxThreads; ++tid) {
    total += internal::RingForThread(tid).dropped();
  }
  return total;
}

std::vector<MergedRecord> CollectMerged() {
  std::vector<MergedRecord> merged;
  for (uint32_t tid = 0; tid < kMaxThreads; ++tid) {
    const Ring& ring = internal::RingForThread(tid);
    const uint64_t head = ring.head();
    const uint64_t first = head > Ring::kCapacity ? head - Ring::kCapacity : 0;
    merged.reserve(merged.size() + static_cast<std::size_t>(head - first));
    for (uint64_t i = first; i < head; ++i) {
      // Seqlock order: copy the slot first, then re-check the head. If the writer
      // lapped slot i while we copied, the copy may be torn — discard it. Checking
      // before the copy would leave a window for the overwrite to land mid-copy.
      const Record r = ring.at(i);
      if (ring.head() - i > Ring::kCapacity) {
        continue;
      }
      MergedRecord out;
      out.ns = r.ns;
      out.arg = r.arg;
      out.tid = tid;
      out.event = r.event < static_cast<uint16_t>(Event::kCount)
                      ? static_cast<Event>(r.event)
                      : Event::kCount;
      merged.push_back(out);
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const MergedRecord& a, const MergedRecord& b) { return a.ns < b.ns; });
  return merged;
}

void ResetAll() {
  for (uint32_t tid = 0; tid < kMaxThreads; ++tid) {
    internal::RingForThread(tid).Reset();
  }
  internal::UnattributedDrops().store(0, std::memory_order_release);
}

}  // namespace stacktrack::runtime::trace

#endif  // STACKTRACK_TRACE_ENABLED
