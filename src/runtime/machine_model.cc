#include "runtime/machine_model.h"

#include "runtime/thread_registry.h"

namespace stacktrack::runtime {

MachineModel& MachineModel::Instance() {
  static MachineModel model;
  return model;
}

uint32_t MachineModel::CapacityLinesNow() const {
  const uint32_t active = ThreadRegistry::Instance().active_count();
  return active <= config_.physical_cores ? config_.base_capacity_lines
                                          : config_.smt_capacity_lines;
}

double MachineModel::SpuriousAbortProbNow() const {
  const uint32_t active = ThreadRegistry::Instance().active_count();
  return active > config_.hardware_contexts() ? config_.oversubscribed_abort_prob : 0.0;
}

}  // namespace stacktrack::runtime
