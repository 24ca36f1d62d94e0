// Residue of the asynchronous reclamation service, which was measured and deleted
// (DESIGN.md §5c): every reclamation round now runs inline on the retiring thread.
// The repository benchmark refuses to run while a service is active and is changed
// only on its own, so this header keeps the one query it makes, which always answers
// that no service runs.
#ifndef STACKTRACK_CORE_RECLAIM_SERVICE_H_
#define STACKTRACK_CORE_RECLAIM_SERVICE_H_

namespace stacktrack::core {

class ReclaimService {
 public:
  static ReclaimService* Active() { return nullptr; }
};

}  // namespace stacktrack::core

#endif  // STACKTRACK_CORE_RECLAIM_SERVICE_H_
