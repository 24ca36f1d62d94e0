// Split-checkpoint macros (Algorithms 2 and 3).
//
// These are the program points the paper's compiler pass injects: one checkpoint per
// basic block, an init/arm at operation start, and a final commit at every exit.
// They are macros because the transaction begin point (setjmp with the software
// backend, xbegin with RTM) must be expanded lexically inside a stack frame that
// outlives the whole segment — the operation function's frame. The paper's pass runs
// post-inlining and has the same property.
//
// Usage inside an instrumented operation (see src/ds/ and examples/rbtree_search.cc):
//
//   void Op(StContext& ctx, ...) {
//     TrackedFrame<2> frame(ctx);            // roots, registered before the op starts
//     auto node = frame.ptr<Node*>(0);
//     ST_OP_BEGIN(ctx, kOpId);               // split_init + arm first segment
//     while (...) {
//       ST_CHECKPOINT(ctx);                  // one per basic block
//       ...
//       if (...) { ST_OP_END(ctx); return; } // final commit at every exit
//     }
//     ST_OP_END(ctx);
//   }
//
// Observability (runtime/trace.h, DESIGN.md §6): every transition these macros drive
// is traced when armed — each fast-path arm attempt yields segment_begin (emitted in
// PrepareSegment, *before* the begin point: an armed emit between xbegin and xend is
// a guaranteed RTM abort, so aborted attempts show begin/abort pairs), the abort edge
// is recorded at the backend's resume point with its AbortCause, slow segments yield
// slow_path_entry, ST_CHECKPOINT's commit yields checkpoint_split plus any
// predictor_grow/shrink (whose packed arg carries the new limit and the cell
// coordinates — core/predictor.h), and ST_OP_END yields segment_commit. The macros
// themselves contain no emit calls; the events fire inside the StContext/backends so
// the expansion stays minimal.
//
// The per-segment length budget these macros consume comes from the §5.3 streak
// predictor, which CommitSegment and SegmentAborted update (DESIGN.md §5e).
#ifndef STACKTRACK_CORE_SPLIT_ENGINE_H_
#define STACKTRACK_CORE_SPLIT_ENGINE_H_

#include "core/thread_context.h"
#include "htm/htm.h"

// Arms and starts the next segment: retries fast-path transactions until one starts,
// falling back to a slow-path segment when the context says so. Internal helper for
// ST_OP_BEGIN / ST_CHECKPOINT.
#define ST_SEGMENT_ARM(ctx_ref)                        \
  do {                                                 \
    auto& st_ctx_ = (ctx_ref);                         \
    while (true) {                                     \
      if (st_ctx_.PrepareSegment()) {                  \
        const int st_rc_ = ST_HTM_BEGIN_POINT();       \
        if (st_rc_ == ::stacktrack::htm::kTxStarted) { \
          st_ctx_.SegmentStarted();                    \
          break;                                       \
        }                                              \
        st_ctx_.SegmentAborted(st_rc_);                \
      } else {                                         \
        st_ctx_.SlowSegmentStarted();                  \
        break;                                         \
      }                                                \
    }                                                  \
  } while (0)

// SPLIT_INIT + first SPLIT_START.
#define ST_OP_BEGIN(ctx_ref, op_id_)  \
  do {                                \
    (ctx_ref).OpBegin(op_id_);        \
    ST_SEGMENT_ARM(ctx_ref);          \
  } while (0)

// SPLIT_CHECKPOINT: count one basic block; when the segment's budget is exhausted,
// commit it (exposing the registers) and arm the next one.
#define ST_CHECKPOINT(ctx_ref)        \
  do {                                \
    if ((ctx_ref).CheckpointHit()) {  \
      (ctx_ref).CommitSegment();      \
      ST_SEGMENT_ARM(ctx_ref);        \
    }                                 \
  } while (0)

// Final SPLIT_COMMIT + operation housekeeping (register clear, oper_counter bump,
// batched frees). Must appear before every return of the instrumented operation.
#define ST_OP_END(ctx_ref) (ctx_ref).OpEnd()

#endif  // STACKTRACK_CORE_SPLIT_ENGINE_H_
