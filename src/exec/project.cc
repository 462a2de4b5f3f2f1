#include "exec/project.h"

#include "common/string_util.h"

namespace bypass {

Status ProjectPhysOp::Prepare(ExecContext* ctx) {
  BYPASS_RETURN_IF_ERROR(UnaryPhysOp::Prepare(ctx));
  scratch_.resize(static_cast<size_t>(ctx->run().num_worker_slots()));
  return Status::OK();
}

Status ProjectPhysOp::Consume(int, RowBatch batch) {
  if (identity_) return Emit(kPortOut, std::move(batch));
  const size_t n = batch.size();
  std::vector<std::vector<Value>>& columns =
      scratch_[static_cast<size_t>(CurrentWorkerId())].columns;
  columns.resize(exprs_.size());
  for (size_t c = 0; c < exprs_.size(); ++c) {
    columns[c].clear();
    columns[c].reserve(n);
    BYPASS_RETURN_IF_ERROR(
        exprs_[c]->EvalBatch(batch, ctx_->outer_row(), &columns[c]));
  }
  std::vector<Row> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i].reserve(exprs_.size());
    for (size_t c = 0; c < exprs_.size(); ++c) {
      rows[i].push_back(std::move(columns[c][i]));
    }
  }
  return Emit(kPortOut, RowBatch::FromRows(std::move(rows)));
}

std::string ProjectPhysOp::Label() const {
  std::vector<std::string> parts;
  parts.reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) parts.push_back(e->ToString());
  return "Project [" + Join(parts, ", ") + "]";
}

Status MapPhysOp::Prepare(ExecContext* ctx) {
  BYPASS_RETURN_IF_ERROR(UnaryPhysOp::Prepare(ctx));
  scratch_.resize(static_cast<size_t>(ctx->run().num_worker_slots()));
  return Status::OK();
}

Status MapPhysOp::Consume(int, RowBatch batch) {
  const size_t n = batch.size();
  std::vector<std::vector<Value>>& columns =
      scratch_[static_cast<size_t>(CurrentWorkerId())].columns;
  columns.resize(exprs_.size());
  for (size_t c = 0; c < exprs_.size(); ++c) {
    columns[c].clear();
    columns[c].reserve(n);
    BYPASS_RETURN_IF_ERROR(
        exprs_[c]->EvalBatch(batch, ctx_->outer_row(), &columns[c]));
  }
  if (batch.ExclusivelyOwned()) {
    for (size_t i = 0; i < n; ++i) {
      Row& row = batch.MutableRow(i);
      for (size_t c = 0; c < exprs_.size(); ++c) {
        row.push_back(std::move(columns[c][i]));
      }
    }
    return Emit(kPortOut, std::move(batch));
  }
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Row& src = batch.row(i);
    // Build the widened row in one allocation; copy-then-reserve would
    // allocate twice per row.
    Row row;
    row.reserve(src.size() + exprs_.size());
    row.insert(row.end(), src.begin(), src.end());
    for (size_t c = 0; c < exprs_.size(); ++c) {
      row.push_back(std::move(columns[c][i]));
    }
    rows.push_back(std::move(row));
  }
  return Emit(kPortOut, RowBatch::FromRows(std::move(rows)));
}

std::string MapPhysOp::Label() const {
  std::vector<std::string> parts;
  parts.reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) parts.push_back(e->ToString());
  return "Map χ[" + Join(parts, ", ") + "]";
}

Status NumberingPhysOp::Consume(int, RowBatch batch) {
  const size_t n = batch.size();
  // One reservation per batch keeps ids dense; rows within the batch get
  // consecutive ids, batches get scheduling-dependent ranges.
  const int64_t base = next_id_.fetch_add(static_cast<int64_t>(n),
                                          std::memory_order_relaxed);
  if (batch.ExclusivelyOwned()) {
    for (size_t i = 0; i < n; ++i) {
      batch.MutableRow(i).push_back(
          Value::Int64(base + static_cast<int64_t>(i)));
    }
    return Emit(kPortOut, std::move(batch));
  }
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Row& src = batch.row(i);
    Row row;
    row.reserve(src.size() + 1);
    row.insert(row.end(), src.begin(), src.end());
    row.push_back(Value::Int64(base + static_cast<int64_t>(i)));
    rows.push_back(std::move(row));
  }
  return Emit(kPortOut, RowBatch::FromRows(std::move(rows)));
}

Status LimitPhysOp::Consume(int, RowBatch batch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (seen_ >= count_) return Status::OK();
    const int64_t remaining = count_ - seen_;
    if (static_cast<int64_t>(batch.size()) > remaining) {
      batch.selection().resize(static_cast<size_t>(remaining));
    }
    seen_ += static_cast<int64_t>(batch.size());
    if (seen_ >= count_) ctx_->set_cancelled(true);
  }
  // Emit outside the lock: the quota is already claimed, and holding the
  // mutex across downstream Consume chains would serialize the pipeline.
  return Emit(kPortOut, std::move(batch));
}

}  // namespace bypass
