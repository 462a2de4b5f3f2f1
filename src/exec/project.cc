#include "exec/project.h"

#include <algorithm>

#include "common/string_util.h"

namespace bypass {

namespace {

/// The input slot a Π expression copies, or -1 when it computes a value.
int InputSlot(const Expr& e) {
  if (e.kind() != ExprKind::kColumnRef) return -1;
  const auto& ref = static_cast<const ColumnRefExpr&>(e);
  return ref.is_outer() ? -1 : ref.slot();
}

}  // namespace

Status ProjectPhysOp::Prepare(ExecContext* ctx) {
  BYPASS_RETURN_IF_ERROR(UnaryPhysOp::Prepare(ctx));
  slots_.clear();
  for (const ExprPtr& e : exprs_) slots_.push_back(InputSlot(*e));
  scratch_.resize(static_cast<size_t>(ctx->run().num_worker_slots()));
  return Status::OK();
}

Status ProjectPhysOp::Consume(int, RowBatch batch) {
  if (identity_) return Emit(kPortOut, std::move(batch));
  // Column references select input columns — taken when the batch owns
  // all of its columns, gathered at the selection otherwise; every other
  // expression is evaluated over the batch into a new column.
  std::vector<std::vector<Value>>& computed =
      scratch_[static_cast<size_t>(CurrentWorkerId())].columns;
  computed.resize(exprs_.size());
  std::vector<int> refs;
  for (size_t c = 0; c < exprs_.size(); ++c) {
    computed[c].clear();
    if (slots_[c] >= 0) {
      refs.push_back(slots_[c]);
    } else {
      BYPASS_RETURN_IF_ERROR(
          exprs_[c]->EvalBatch(batch, ctx_->outer_row(), &computed[c]));
    }
  }
  std::sort(refs.begin(), refs.end());
  refs.erase(std::unique(refs.begin(), refs.end()), refs.end());
  const size_t n = batch.size();
  const bool take = batch.OwnsAllColumns();
  ColumnStore in = take ? batch.TakeColumns() : batch.GatherColumns(&refs);
  // A column referenced more than once is copied for all but its last
  // reference, which moves it.
  std::vector<size_t> uses(in.columns.size(), 0);
  auto pos = [&](int slot) {
    return take ? static_cast<size_t>(slot)
                : static_cast<size_t>(
                      std::lower_bound(refs.begin(), refs.end(), slot) -
                      refs.begin());
  };
  for (int slot : slots_) {
    if (slot >= 0) ++uses[pos(slot)];
  }
  ColumnStore out;
  out.num_rows = n;
  out.columns.reserve(exprs_.size());
  for (size_t c = 0; c < exprs_.size(); ++c) {
    if (slots_[c] < 0) {
      out.columns.push_back(ColumnFromValues(computed[c]));
      continue;
    }
    const size_t p = pos(slots_[c]);
    if (--uses[p] == 0) {
      out.columns.push_back(std::move(in.columns[p]));
    } else {
      out.columns.push_back(in.columns[p]);
    }
  }
  return Emit(kPortOut, RowBatch::FromColumns(std::move(out)));
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
  std::vector<std::vector<Value>>& computed =
      scratch_[static_cast<size_t>(CurrentWorkerId())].columns;
  computed.resize(exprs_.size());
  for (size_t c = 0; c < exprs_.size(); ++c) {
    computed[c].clear();
    BYPASS_RETURN_IF_ERROR(
        exprs_[c]->EvalBatch(batch, ctx_->outer_row(), &computed[c]));
  }
  ColumnStore out = batch.ConsumeColumns();
  for (const std::vector<Value>& values : computed) {
    out.columns.push_back(ColumnFromValues(values));
  }
  return Emit(kPortOut, RowBatch::FromColumns(std::move(out)));
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
  ColumnStore out = batch.ConsumeColumns();
  ColumnVector ids(DataType::kInt64);
  ids.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ids.Append(Value::Int64(base + static_cast<int64_t>(i)));
  }
  out.columns.push_back(std::move(ids));
  return Emit(kPortOut, RowBatch::FromColumns(std::move(out)));
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
