#include "exec/distinct.h"

#include <numeric>

#include "common/string_util.h"

namespace bypass {

const Table* DistinctPhysOp::DuplicateBearingTable() const {
  for (const Table* t : gate_.tables) {
    if (!t->duplicate_free()) return t;
  }
  return nullptr;
}

Status DistinctPhysOp::Prepare(ExecContext* ctx) {
  BYPASS_RETURN_IF_ERROR(UnaryPhysOp::Prepare(ctx));
  skip_ = gate_.proven && DuplicateBearingTable() == nullptr;
  return Status::OK();
}

std::string DistinctPhysOp::Label() const {
  if (!gate_.proven) {
    return gate_.text.empty() ? "Distinct"
                              : "Distinct [kept: " + gate_.text + "]";
  }
  if (const Table* t = DuplicateBearingTable()) {
    return "Distinct [kept: " + t->name() + " holds duplicate rows]";
  }
  std::vector<std::string> names;
  for (const Table* t : gate_.tables) names.push_back(t->name());
  std::vector<std::string> parts;
  if (!names.empty()) parts.push_back(Join(names, ", ") + " duplicate-free");
  if (!gate_.text.empty()) parts.push_back(gate_.text);
  return "Distinct [skipped: " + Join(parts, "; ") + "]";
}

Status DistinctPhysOp::Consume(int, RowBatch batch) {
  if (skip_) return Emit(kPortOut, std::move(batch));
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
