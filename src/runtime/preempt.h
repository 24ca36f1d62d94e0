// Mid-operation preemption point (software-multiplexing regime).
//
// The paper's 9-16-thread regime is defined by threads losing the CPU *inside* data
// structure operations: a preempted reader stalls epoch-based reclamation, while
// non-blocking schemes (hazard pointers, drop-the-anchor, StackTrack) only pin a
// bounded set of nodes. On this 1-core host the OS deschedules threads constantly, but
// scheduler latency is too small and noisy to reproduce the effect deterministically,
// so the data structures call PreemptPoint() once per traversal step and the fault
// injector's kThreadStall site decides what happens there: the benchmark runner arms
// it as a seeded probability schedule of sleeps (a simulated timer interrupt), tests
// arm it as a gate or an Nth-visit schedule to park a chosen thread mid-operation.
//
// Disarmed cost: one relaxed load and a predictable branch.
#ifndef STACKTRACK_RUNTIME_PREEMPT_H_
#define STACKTRACK_RUNTIME_PREEMPT_H_

#include "runtime/fault.h"

namespace stacktrack::runtime {

// Called by the data structures once per traversal step.
inline void PreemptPoint() { fault::MaybeStall(fault::Site::kThreadStall); }

}  // namespace stacktrack::runtime

#endif  // STACKTRACK_RUNTIME_PREEMPT_H_
