#include "exec/distinct.h"

namespace bypass {

Status DistinctPhysOp::Consume(int, RowBatch batch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (seen_.empty()) seen_.Reserve(reserve_);
    seen_.InsertBatch(&batch);
  }
  // Emit outside the lock so downstream work does not serialize.
  return Emit(kPortOut, std::move(batch));
}

}  // namespace bypass
