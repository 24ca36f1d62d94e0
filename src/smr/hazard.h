// Hazard pointers (Michael 2004), the paper's main non-blocking baseline.
//
// Protect(field, slot) implements the publish-validate protocol: load, publish into
// the per-thread hazard row, memory fence, re-load, retry until stable. The fence per
// protected hop is the overhead the paper measures against. Scanning compares retired
// blocks against all published hazards by range containment, so tag bits (mark/freeze
// bits folded into pointer LSBs) and interior pointers are handled uniformly.
//
// Each Handle owns its thread's guard row: only the owner stores, scanners read it
// racily (acquire). Slot-index discipline: a traversal that runs past
// kSlotsPerThread (a data structure outgrowing the slot budget, e.g. a deeper skip
// list) is a protocol break. Debug builds assert; release builds fail loudly instead
// of scribbling past the row — the index clamps to slot 0 (still a published guard,
// conservatively pinning the wrong node), the sticky Stats::guard_slot_overflows
// counter records it and a kGuardSlotOverflow trace event fires.
#ifndef STACKTRACK_SMR_HAZARD_H_
#define STACKTRACK_SMR_HAZARD_H_

#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "core/stats.h"
#include "runtime/cacheline.h"
#include "runtime/thread_registry.h"
#include "smr/smr.h"

namespace stacktrack::smr {

struct HazardSmr {
  static constexpr uint32_t kSlotsPerThread = 40;  // skip-list: 2 per level + traversal

  struct Config {
    uint32_t scan_threshold = 64;  // retired nodes buffered per thread before a scan
  };

  class Domain;

  class Handle : public PlainHandle {
   public:
    void OpEnd();  // clears the hazard row so idle threads pin nothing

    // Publish-validate: load the source, publish the hazard, fence, re-load; retry
    // until the source is stable across the publication. Returns the raw loaded word
    // (tag bits preserved); the hazard protects the node the word points into.
    template <typename T>
    T Protect(const std::atomic<T>& src, uint32_t slot) {
      static_assert(sizeof(T) == 8);
      std::atomic<uintptr_t>& guard = Guard(slot);
      while (true) {
        const T value = src.load(std::memory_order_acquire);
        guard.store(std::bit_cast<uintptr_t>(value), std::memory_order_release);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        if (src.load(std::memory_order_acquire) == value) {
          return value;
        }
      }
    }

    // Publishes an *already protected* value into another slot (hand-over-hand
    // advance). No fence or validation: the value stays covered by its original slot
    // until that slot is overwritten, so the scanner can never miss it.
    template <typename T>
    void ProtectRaw(uint32_t slot, T value) {
      static_assert(sizeof(T) == 8);
      Guard(slot).store(std::bit_cast<uintptr_t>(value), std::memory_order_release);
    }

    void Retire(void* ptr, uint64_t key = 0);

   private:
    friend class Domain;

    std::atomic<uintptr_t>& Guard(uint32_t slot) {
      assert(slot < kSlotsPerThread && "hazard slot index out of range");
      if (slot >= kSlotsPerThread) [[unlikely]] {
        slot = OverflowSlot(slot);
      }
      return guards_[slot];
    }
    uint32_t OverflowSlot(uint32_t slot);  // cold: counts, traces, returns slot 0

    Domain* domain_ = nullptr;
    std::vector<void*> retired_;
    // Whole cache lines of their own: scanners read them while the owner runs.
    alignas(runtime::kCacheLineSize) std::atomic<uintptr_t> guards_[kSlotsPerThread] = {};
  };

  template <uint32_t N>
  using Frame = PlainFrame<N>;

  class Domain {
   public:
    Domain() : Domain(Config{}) {}
    explicit Domain(const Config& config) : config_(config) {}
    ~Domain();

    Handle& AcquireHandle();

    core::Stats Snapshot() const {
      core::Stats s{};
      s.retires = total_retired_.load(std::memory_order_relaxed);
      s.frees = total_freed_.load(std::memory_order_relaxed);
      s.scan_calls = total_scans_.load(std::memory_order_relaxed);
      s.guard_slot_overflows = slot_overflows_.load(std::memory_order_relaxed);
      return s;
    }

   private:
    friend class Handle;

    // Frees every node in `retired` not covered by a published hazard; survivors are
    // compacted back into `retired`.
    void Scan(std::vector<void*>& retired);

    const Config config_;
    Handle handles_[runtime::kMaxThreads];
    std::atomic<uint64_t> total_retired_{0};
    std::atomic<uint64_t> total_freed_{0};
    std::atomic<uint64_t> total_scans_{0};
    std::atomic<uint64_t> slot_overflows_{0};
  };
};

}  // namespace stacktrack::smr

#endif  // STACKTRACK_SMR_HAZARD_H_
