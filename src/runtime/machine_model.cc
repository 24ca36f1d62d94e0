#include "runtime/machine_model.h"

#include "runtime/thread_registry.h"

namespace stacktrack::runtime {

MachineModel& MachineModel::Instance() {
  static MachineModel model;
  return model;
}

void MachineModel::Configure(const MachineConfig& config) {
  // Benchmarks configure the model before spawning workers; the odd/even version guard
  // only defends against a misuse race, it is not a hot path.
  version_.fetch_add(1, std::memory_order_acq_rel);
  config_ = config;
  version_.fetch_add(1, std::memory_order_acq_rel);
}

MachineConfig MachineModel::config() const {
  while (true) {
    const uint64_t v1 = version_.load(std::memory_order_acquire);
    MachineConfig snapshot = config_;
    const uint64_t v2 = version_.load(std::memory_order_acquire);
    if (v1 == v2 && (v1 & 1) == 0) {
      return snapshot;
    }
  }
}

uint32_t MachineModel::CapacityLinesNow() const {
  const MachineConfig c = config();
  const uint32_t active = ThreadRegistry::Instance().active_count();
  return active <= c.physical_cores ? c.base_capacity_lines : c.smt_capacity_lines;
}

double MachineModel::SpuriousAbortProbNow() const {
  const MachineConfig c = config();
  const uint32_t active = ThreadRegistry::Instance().active_count();
  return active > c.hardware_contexts() ? c.oversubscribed_abort_prob : 0.0;
}

}  // namespace stacktrack::runtime
