// Simulated machine geometry for reproducing the paper's hardware regimes.
//
// The paper's evaluation ran on a 4-core / 8-hyperthread Haswell. Three regimes drive
// every figure: parallel (threads <= cores), hardware multiplexing (cores < threads <=
// hardware contexts, where SMT pairs share an L1 and capacity aborts explode), and
// software multiplexing (threads > hardware contexts, where preemption stalls threads
// and epoch-based reclamation collapses). This host is a 1-core VM, so those regimes
// cannot come from silicon; MachineModel reproduces them deterministically:
//  * the software HTM asks for the per-transaction footprint budget here, which shrinks
//    when the registered thread count exceeds the modeled core count (shared L1), and
//  * once threads exceed the modeled hardware-context count, the benchmark runner arms
//    the fault injector's kThreadStall site with this model's preemption probability
//    and sleep, seeded from the scenario, so ST_BENCH_SEED replays each thread's
//    preemption schedule.
#ifndef STACKTRACK_RUNTIME_MACHINE_MODEL_H_
#define STACKTRACK_RUNTIME_MACHINE_MODEL_H_

#include <cstdint>

namespace stacktrack::runtime {

struct MachineConfig {
  uint32_t physical_cores = 4;
  uint32_t smt_ways = 2;
  // Footprint budget (in cache lines) of one transaction when the thread owns its L1.
  uint32_t base_capacity_lines = 420;
  // Budget once hyperthread pairs share an L1 (threads > physical cores). Calibrated
  // against the soft backend's access-log footprint (reads, not distinct lines) so the
  // capacity-abort cliff appears past 4 threads while throughput degrades ~25%,
  // matching Fig. 1/3.
  uint32_t smt_capacity_lines = 140;
  // Probability per transactional access of a spurious "other" abort (timer interrupts,
  // TLB shootdowns) once the machine is oversubscribed.
  double oversubscribed_abort_prob = 2e-4;
  // Preemption injection for threads > hardware contexts: probability per traversal
  // step of losing the CPU mid-operation, and the length of the simulated
  // descheduling. Few-but-long stalls mirror real timeslice loss: non-blocking schemes
  // only pin a bounded set of nodes, while epoch reclamation serializes behind every
  // sleeper.
  double preempt_prob = 5e-6;
  uint32_t preempt_delay_us = 20000;

  uint32_t hardware_contexts() const { return physical_cores * smt_ways; }
};

class MachineModel {
 public:
  static MachineModel& Instance();

  MachineModel(const MachineModel&) = delete;
  MachineModel& operator=(const MachineModel&) = delete;

  // Quiescent only: call between phases, never while another thread may begin a
  // transaction or run a scenario. Readers take no lock.
  void Configure(const MachineConfig& config) { config_ = config; }
  const MachineConfig& config() const { return config_; }

  // Footprint budget in cache lines for a transaction started now, given the number of
  // currently registered threads.
  uint32_t CapacityLinesNow() const;

  // Probability of a spurious abort per transactional access right now.
  double SpuriousAbortProbNow() const;

 private:
  MachineModel() = default;

  MachineConfig config_{};
};

}  // namespace stacktrack::runtime

#endif  // STACKTRACK_RUNTIME_MACHINE_MODEL_H_
