#include "exec/distinct.h"

#include <numeric>

namespace bypass {

Status DistinctPhysOp::Consume(int, RowBatch batch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (seen_.empty()) seen_.Reserve(reserve_);
    if (slots_.size() != batch.width()) {
      slots_.resize(batch.width());
      std::iota(slots_.begin(), slots_.end(), 0);
    }
    uint32_t next = static_cast<uint32_t>(seen_.size());
    ids_.resize(batch.size());
    seen_.FindOrInsertBatch(batch, slots_, ids_.data());
    // A row is new exactly when its id is the next one handed out; the
    // selection narrows to those rows, in order.
    std::vector<uint32_t>& sel = batch.selection();
    size_t kept = 0;
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (ids_[i] == next) {
        sel[kept++] = sel[i];
        ++next;
      }
    }
    sel.resize(kept);
  }
  // Emit outside the lock so downstream work does not serialize.
  return Emit(kPortOut, std::move(batch));
}

}  // namespace bypass
