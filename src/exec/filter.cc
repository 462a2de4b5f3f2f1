#include "exec/filter.h"

namespace bypass {

Status FilterOp::Prepare(ExecContext* ctx) {
  BYPASS_RETURN_IF_ERROR(UnaryPhysOp::Prepare(ctx));
  scratch_.resize(static_cast<size_t>(ctx->run().num_worker_slots()));
  return Status::OK();
}

Status FilterOp::Consume(int, RowBatch batch) {
  Scratch& scratch = scratch_[static_cast<size_t>(CurrentWorkerId())];
  scratch.sel_true.clear();
  scratch.sel_true.reserve(batch.size());
  BYPASS_RETURN_IF_ERROR(predicate_->PartitionBatch(
      batch, ctx_->outer_row(), &scratch.sel_true, nullptr, nullptr));
  if (scratch.sel_true.size() == batch.size()) {
    // Nothing dropped: the selection is unchanged, so keep the batch
    // (and its dense flag) as-is instead of swapping in an equal vector.
    return Emit(kPortOut, std::move(batch));
  }
  const bool was_dense = batch.dense();
  batch.selection().swap(scratch.sel_true);
  // A partition of a dense run stays sorted but is only still dense when
  // it kept a contiguous prefix-to-suffix run; cheap to detect, big win
  // for downstream storage-indexed loops.
  if (was_dense && !batch.empty() &&
      batch.selection().back() - batch.selection().front() + 1 ==
          batch.size()) {
    batch.MarkDense();
  }
  return Emit(kPortOut, std::move(batch));
}

Status BypassFilterOp::Prepare(ExecContext* ctx) {
  BYPASS_RETURN_IF_ERROR(UnaryPhysOp::Prepare(ctx));
  scratch_.resize(static_cast<size_t>(ctx->run().num_worker_slots()));
  return Status::OK();
}

Status BypassFilterOp::Consume(int, RowBatch batch) {
  // One predicate pass partitions the selection vector: positive stream
  // keeps the batch (selection replaced), the negative stream gets a view
  // over the same storage. False and unknown both route negative
  // (two-valued on NULL-free data, SQL-correct beyond), in input order.
  Scratch& scratch = scratch_[static_cast<size_t>(CurrentWorkerId())];
  scratch.sel_true.clear();
  scratch.sel_true.reserve(batch.size());
  scratch.sel_other.clear();
  BYPASS_RETURN_IF_ERROR(predicate_->PartitionBatch(
      batch, ctx_->outer_row(), &scratch.sel_true, &scratch.sel_other,
      &scratch.sel_other));
  const bool was_dense = batch.dense();
  RowBatch negative =
      batch.ShareWithSelection(std::move(scratch.sel_other));
  scratch.sel_other.clear();
  if (scratch.sel_true.size() != batch.size()) {
    batch.selection().swap(scratch.sel_true);
    if (was_dense && !batch.empty() &&
        batch.selection().back() - batch.selection().front() + 1 ==
            batch.size()) {
      batch.MarkDense();
    }
  }
  if (was_dense && !negative.empty() &&
      negative.selection().back() - negative.selection().front() + 1 ==
          negative.size()) {
    negative.MarkDense();
  }
  BYPASS_RETURN_IF_ERROR(Emit(kPortOut, std::move(batch)));
  return Emit(kPortNegative, std::move(negative));
}

}  // namespace bypass
