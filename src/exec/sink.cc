#include "exec/sink.h"

namespace bypass {

Status CollectorSink::Prepare(ExecContext* ctx) {
  BYPASS_RETURN_IF_ERROR(PhysOp::Prepare(ctx));
  partials_.resize(static_cast<size_t>(ctx->run().num_worker_slots()));
  return Status::OK();
}

void CollectorSink::Reset() {
  for (Partial& p : partials_) p.rows.clear();
  rows_.clear();
  finished_ = false;
  witness_taken_ = false;
}

Status CollectorSink::Consume(int, RowBatch batch) {
  if (ctx_->limit_one()) {
    // One witness row is enough; the first worker to arrive takes it and
    // every later batch is dropped.
    std::lock_guard<std::mutex> lock(limit_mu_);
    if (witness_taken_) return Status::OK();
    witness_taken_ = true;
    batch.selection().resize(1);
    batch.ConsumeRowsInto(
        &partials_[static_cast<size_t>(CurrentWorkerId())].rows);
    ctx_->set_cancelled(true);
    return Status::OK();
  }
  // The collector retains every result row until the client takes them —
  // the main place an unbudgeted query grows without bound.
  BYPASS_RETURN_IF_ERROR(ctx_->run().ChargeMemory(ApproxRowsBytes(
      batch.size(), batch.width())));
  batch.ConsumeRowsInto(
      &partials_[static_cast<size_t>(CurrentWorkerId())].rows);
  return Status::OK();
}

Status CollectorSink::FinishPort(int) {
  // Merge the workers' partials in worker order; a single worker's
  // partial moves wholesale, so serial runs keep today's result order.
  for (Partial& p : partials_) {
    if (rows_.empty()) {
      rows_ = std::move(p.rows);
    } else {
      rows_.insert(rows_.end(),
                   std::make_move_iterator(p.rows.begin()),
                   std::make_move_iterator(p.rows.end()));
    }
    p.rows.clear();
  }
  finished_ = true;
  return Status::OK();
}

Status ExistsSink::Consume(int, RowBatch) {
  found_.store(true, std::memory_order_relaxed);
  ctx_->set_cancelled(true);  // producers stop as soon as they notice
  return Status::OK();
}

}  // namespace bypass
