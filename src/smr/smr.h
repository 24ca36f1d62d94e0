// Scheme-generic safe-memory-reclamation (SMR) policy API.
//
// Every reclamation scheme in the comparison (Leaky/"Original", Epoch, Hazard
// pointers, Drop-the-Anchor, Hyaline, StackTrack) exposes the same per-thread Handle
// surface so each data structure in src/ds/ is written once and instantiated per
// scheme, exactly as the paper instruments one implementation per scheme:
//
//   struct Smr {
//     using Handle = ...;                        // per-thread accessor
//     template <uint32_t N> using Frame = ...;   // root storage (tracked for ST)
//     class Domain {                             // per-scheme shared state
//       Handle& AcquireHandle();                 //   per-thread handle (current tid)
//       core::Stats Snapshot() const;            //   counters; zeroes where a scheme
//                                                //   keeps none (racy, for reporting)
//     };
//   };
//
// A Domain is built with its defaults or from its scheme's own Config (StConfig for
// StackTrack). Snapshot() maps whatever the scheme counts onto core::Stats so
// cross-scheme reports (reclamation lag = retires − frees) come from one shape. The
// event trace is global per thread and the same for every scheme:
// runtime::trace::CollectMerged().
//
// Handle operations:
//   kSplits                  true only for StackTrack (core::StContext)
//   OpBegin/OpEnd            operation brackets (epoch announce, split init/commit...)
//   Load/Store/Cas           instrumented shared-memory access
//   Protect(field, slot)     hazard-pointer publish-validate; plain Load elsewhere
//   ProtectRaw(slot, value)  hazard hand-over-hand publish; no-op elsewhere
//   Retire(ptr, key)         hand a detached node to the scheme
//   AnchorHop(key)           drop-the-anchor traversal hook; no-op elsewhere
//
// The baselines derive their handles from PlainHandle and declare only what their
// scheme changes; StackTrack's handle is core::StContext.
//
// Operation bracket. The SMR_* macros at the end of this file are the one way to
// bracket an operation. They are the program points the paper's compiler pass
// injects (Algorithms 2 and 3): an init/arm at operation start, one checkpoint per
// basic block, and a final commit at every exit. They are macros because the
// transaction begin point (a setjmp, standing in for the hardware's xbegin) must be
// expanded lexically inside a stack frame that outlives the whole segment — the
// operation function's frame. The paper's pass runs post-inlining and has the same
// property. Usage (see src/ds/ and examples/rbtree_search.cc):
//
//   template <typename Smr>
//   void Op(typename Smr::Handle& h, ...) {
//     typename Smr::template Frame<2> frame(h);  // roots, registered before the op
//     auto node = frame.template ptr<Node*>(0);
//     SMR_OP_BEGIN(h, kOpId);                    // split_init + arm first segment
//     while (...) {
//       SMR_CHECKPOINT(h);                       // one per basic block
//       ...
//       if (...) { SMR_OP_END(h); return; }      // final commit at every exit
//     }
//     SMR_OP_END(h);
//   }
//
// For a non-splitting scheme the macros reduce to OpBegin/OpEnd: their StackTrack
// branch is `if constexpr` on the handle's kSplits, and a discarded branch goes
// uncompiled only inside a template, which every class in src/ds/ is. Non-template
// code that holds a baseline handle calls OpBegin/OpEnd directly.
//
// Observability (runtime/trace.h, DESIGN.md §6): every transition these macros drive
// is traced when armed — each fast-path arm attempt yields segment_begin (emitted in
// PrepareSegment, *before* the begin point: on real HTM an armed emit inside a segment
// is a guaranteed abort, so aborted attempts show begin/abort pairs), the abort edge
// is recorded at the engine's resume point with its AbortCause, slow segments yield
// slow_path_entry, SMR_CHECKPOINT's commit yields checkpoint_split plus any
// predictor_grow/shrink (whose packed arg carries the new limit and the cell
// coordinates — core/predictor.h), and SMR_OP_END yields segment_commit. The macros
// themselves contain no emit calls; the events fire inside StContext and the engine so
// the expansion stays minimal. The per-segment length budget the macros consume comes
// from the §5.3 streak predictor, which CommitSegment and SegmentAborted update
// (DESIGN.md §5e).
#ifndef STACKTRACK_SMR_SMR_H_
#define STACKTRACK_SMR_SMR_H_

#include <atomic>
#include <cstdint>
#include <type_traits>

#include "core/thread_context.h"
#include "htm/htm.h"

namespace stacktrack::smr {

// Plain access for every scheme but StackTrack: acquire/release atomics, no-op
// brackets and hooks. A baseline handle derives from it and declares only what its
// scheme changes; a derived declaration hides the base one, so calls still resolve
// statically.
struct PlainHandle {
  static constexpr bool kSplits = false;

  void OpBegin(uint32_t) {}
  void OpEnd() {}

  template <typename T>
  T Load(const std::atomic<T>& src) {
    return src.load(std::memory_order_acquire);
  }
  template <typename T>
  void Store(std::atomic<T>& dst, T value) {
    dst.store(value, std::memory_order_release);
  }
  template <typename T>
  bool Cas(std::atomic<T>& dst, T expected, T desired) {
    return dst.compare_exchange_strong(expected, desired, std::memory_order_acq_rel);
  }
  template <typename T>
  T Protect(const std::atomic<T>& src, uint32_t) {
    return Load(src);
  }
  template <typename T>
  void ProtectRaw(uint32_t, T) {}
  void AnchorHop(uint64_t) {}
};

// Untracked root frame for non-StackTrack schemes: same shape as core::TrackedFrame,
// zero registration cost.
template <uint32_t N>
struct PlainFrame {
  template <typename Handle>
  explicit PlainFrame(Handle&) {}
  uintptr_t words[N] = {};

  template <typename T>
  core::RootRef<T> ptr(uint32_t index) {
    return core::RootRef<T>(&words[index]);
  }
};

}  // namespace stacktrack::smr

// Arms and starts the next StackTrack segment: retries fast-path transactions until
// one starts, falling back to a slow-path segment when the context says so. Expands
// to nothing for non-splitting schemes (the branch is constant-false).
#define SMR_SEGMENT_ARM(h_)                                \
  do {                                                     \
    if constexpr (std::decay_t<decltype(h_)>::kSplits) {   \
      auto& st_ctx_ = (h_);                                \
      while (true) {                                       \
        if (st_ctx_.PrepareSegment()) {                    \
          const int st_rc_ = ST_HTM_BEGIN_POINT();         \
          if (st_rc_ == ::stacktrack::htm::kTxStarted) {   \
            st_ctx_.SegmentStarted();                      \
            break;                                         \
          }                                                \
          st_ctx_.SegmentAborted(st_rc_);                  \
        } else {                                           \
          st_ctx_.SlowSegmentStarted();                    \
          break;                                           \
        }                                                  \
      }                                                    \
    }                                                      \
  } while (0)

// SPLIT_INIT + first SPLIT_START.
#define SMR_OP_BEGIN(h_, op_id_) \
  do {                           \
    (h_).OpBegin(op_id_);        \
    SMR_SEGMENT_ARM(h_);         \
  } while (0)

// SPLIT_CHECKPOINT: count one basic block; when the segment's budget is exhausted,
// commit it (exposing the registers) and arm the next one.
#define SMR_CHECKPOINT(h_)                                 \
  do {                                                     \
    if constexpr (std::decay_t<decltype(h_)>::kSplits) {   \
      if ((h_).CheckpointHit()) {                          \
        (h_).CommitSegment();                              \
        SMR_SEGMENT_ARM(h_);                               \
      }                                                    \
    }                                                      \
  } while (0)

// Final SPLIT_COMMIT + operation housekeeping (register clear, oper_counter bump,
// batched frees). Must appear before every return of the instrumented operation.
#define SMR_OP_END(h_) (h_).OpEnd()

// Helper-call protocol. A non-inlined helper may contain checkpoints only if the
// caller closes its segment before the call (SMR_PRE_CALL), the helper opens its own
// segments (SMR_HELPER_BEGIN / SMR_HELPER_END around its body, before every return),
// and the caller re-arms afterwards (SMR_POST_CALL). This keeps every transaction
// begin point inside a frame that outlives its segment. With real HTM a transaction
// could span the call; the forced boundary costs one extra (cheap) commit.
#define SMR_PRE_CALL(h_)                                   \
  do {                                                     \
    if constexpr (std::decay_t<decltype(h_)>::kSplits) {   \
      (h_).CommitSegment();                                \
    }                                                      \
  } while (0)

#define SMR_POST_CALL(h_) SMR_SEGMENT_ARM(h_)

#define SMR_HELPER_BEGIN(h_) SMR_SEGMENT_ARM(h_)

#define SMR_HELPER_END(h_)                                 \
  do {                                                     \
    if constexpr (std::decay_t<decltype(h_)>::kSplits) {   \
      (h_).CommitSegment();                                \
    }                                                      \
  } while (0)

#endif  // STACKTRACK_SMR_SMR_H_
