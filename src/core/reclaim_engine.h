// Staged reclamation pipeline.
//
// Every reclamation entry point (threshold scans from OpEnd/Free, FlushFrees drains,
// deferred-list adoption, exit handoff) funnels through one engine with fixed stages:
//
//   verdict   decide live/dead for each candidate, in shards, against one source:
//               - a private root table collected once per round (the paper's §5.2
//                 hashed scan; the default, StConfig::hashed_scan), or
//               - per-candidate rescan of every thread (Algorithm 1)
//   release   batch-quarantine the dead shard, then batch-return it to the pool
//   ingest    adopt globally deferred candidates into the room the release made
//             (never past max_free); the next round decides them
//   relieve   back-pressure: spill survivors past the high-water mark, adapt the
//             scan trigger
//   observe   watchdog tick (stalled-thread detection)
//
// Both verdict sources read roots through the same consistency protocol
// (core/free_proc.cc). An INCOMPLETE root table (a thread hit the retry cap, or an
// overflowed reference set could not be enumerated) frees NOTHING: the table is a
// proof of absence, and a table missing even one thread's roots cannot prove any
// candidate unreferenced.
#ifndef STACKTRACK_CORE_RECLAIM_ENGINE_H_
#define STACKTRACK_CORE_RECLAIM_ENGINE_H_

#include "core/thread_context.h"

namespace stacktrack::core {

// How the verdict stage decides liveness.
enum class ScanMode {
  kPerCandidate,  // rescan every thread per candidate (Algorithm 1); no table
  kHashed,        // one private root table per round, probed per candidate (§5.2)
};

// The pipeline driver. Stateless: all per-reclaimer state lives on the StContext.
class ReclaimEngine {
 public:
  // One reclamation round over the reclaimer's free set (see stage list above).
  // Owner-thread only; distinct reclaimers may run concurrently.
  static void Run(StContext& reclaimer, ScanMode mode);

  // One round in the mode the reclaimer's StConfig::hashed_scan selects: what every
  // threshold round, FlushFrees drain and exit handoff runs.
  static void Run(StContext& reclaimer) {
    Run(reclaimer, reclaimer.config().hashed_scan ? ScanMode::kHashed
                                                  : ScanMode::kPerCandidate);
  }

  // Exit handoff: drain the local set and the global deferred list as far as
  // liveness allows, then hand survivors to the deferred list. Called from the
  // thread-registry exit hook and ~StContext.
  static void DrainOnExit(StContext& ctx);
};

}  // namespace stacktrack::core

#endif  // STACKTRACK_CORE_RECLAIM_ENGINE_H_
