// Umbrella header: the library's public surface in one include.
//
//   #include "stacktrack.h"
//
//   stacktrack::smr::StackTrackSmr::Domain domain;   // or any scheme in smr/registry.h
//   stacktrack::runtime::ThreadScope scope;          // register the calling thread
//   auto& handle = domain.AcquireHandle();
//   SMR_OP_BEGIN(handle, kOpId);                     // operation bracket (smr/smr.h)
//   ... handle.Load / handle.Store / handle.Retire ...
//   SMR_CHECKPOINT(handle);                          // one per basic block
//   SMR_OP_END(handle);                              // before every return
//   auto stats = domain.Snapshot();                  // cumulative core::Stats view
//   auto trace = stacktrack::runtime::trace::CollectMerged();  // event trace (if armed)
//
// Every Domain exposes the same surface — AcquireHandle() / Snapshot() — so schemes
// are interchangeable as template parameters to the structures in ds/. The SMR_*
// macros are the one operation bracket; smr/smr.h documents where they may appear.
#ifndef STACKTRACK_STACKTRACK_H_
#define STACKTRACK_STACKTRACK_H_

// Reclamation schemes (each pulls in its core/runtime dependencies).
#include "smr/dta.h"
#include "smr/epoch.h"
#include "smr/hazard.h"
#include "smr/hyaline.h"
#include "smr/leaky.h"
#include "smr/smr.h"
#include "smr/stacktrack_smr.h"

// StackTrack per-thread context.
#include "core/thread_context.h"

// Observability: counters, periodic snapshots, exporters, event tracing.
#include "core/stats.h"
#include "core/stats_export.h"
#include "runtime/trace.h"

// Scheme-parameterized lock-free data structures.
#include "ds/hashtable.h"
#include "ds/list.h"
#include "ds/queue.h"
#include "ds/skiplist.h"

// Runtime services examples and applications typically touch directly.
#include "runtime/pool_alloc.h"
#include "runtime/thread_registry.h"

#endif  // STACKTRACK_STACKTRACK_H_
