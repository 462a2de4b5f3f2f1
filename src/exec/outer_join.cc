#include "exec/outer_join.h"

namespace bypass {

Status HashLeftOuterJoinOp::Prepare(ExecContext* ctx) {
  BYPASS_RETURN_IF_ERROR(BinaryPhysOp::Prepare(ctx));
  scratch_.resize(static_cast<size_t>(ctx->run().num_worker_slots()));
  return Status::OK();
}

void HashLeftOuterJoinOp::Reset() {
  BinaryPhysOp::Reset();
  table_.Clear();
}

Status HashLeftOuterJoinOp::BuildFromRight() {
  table_.Build(right_rows(), right_key_slots_, ctx_->pool());
  // The index arrays scale with the build side like the buffered rows
  // (charged on arrival) do; this operator has no spill path, so an
  // overrun surfaces as ResourceExhausted.
  return ctx_->run().ChargeMemory(table_.RetainedBytes());
}

Status HashLeftOuterJoinOp::EmitPadded(const Row& row,
                                       JoinMatches matches) {
  if (matches.empty()) {
    return EmitRow(kPortOut, gather().Gather(row, unmatched_right_));
  }
  for (uint32_t idx : matches) {
    BYPASS_RETURN_IF_ERROR(
        EmitRow(kPortOut, gather().Gather(row, right_rows()[idx])));
  }
  return Status::OK();
}

Status HashLeftOuterJoinOp::ProcessLeftBatch(RowBatch batch) {
  JoinProbeScratch& scratch =
      scratch_[static_cast<size_t>(CurrentWorkerId())];
  table_.ProbeBatch(batch, left_key_slots_, &scratch);
  const size_t n = batch.size();
  for (size_t i = 0; i < n; ++i) {
    BYPASS_RETURN_IF_ERROR(EmitPadded(batch.row(i), scratch.matches[i]));
  }
  return Status::OK();
}

Status NLLeftOuterJoinOp::JoinOrPad(const Row& row) {
  bool matched = false;
  int64_t since_check = 0;
  for (const Row& right : right_rows()) {
    if (++since_check >= 4096) {
      since_check = 0;
      BYPASS_RETURN_IF_ERROR(ctx_->run().CheckBudget());
    }
    Row joined = gather().Gather(row, right);
    EvalContext ectx{&joined, ctx_->outer_row()};
    BYPASS_ASSIGN_OR_RETURN(Value v, predicate_->Eval(ectx));
    if (ValueToTriBool(v) != TriBool::kTrue) continue;
    matched = true;
    gather().Trim(&joined);
    BYPASS_RETURN_IF_ERROR(EmitRow(kPortOut, std::move(joined)));
  }
  if (!matched) {
    Row padded = gather().Gather(row, unmatched_right_);
    gather().Trim(&padded);
    return EmitRow(kPortOut, std::move(padded));
  }
  return Status::OK();
}

Status NLLeftOuterJoinOp::ProcessLeftBatch(RowBatch batch) {
  const size_t n = batch.size();
  for (size_t i = 0; i < n; ++i) {
    BYPASS_RETURN_IF_ERROR(JoinOrPad(batch.row(i)));
  }
  return Status::OK();
}

}  // namespace bypass
