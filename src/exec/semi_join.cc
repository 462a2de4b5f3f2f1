#include "exec/semi_join.h"

namespace bypass {

Status HashExistenceJoinOp::Prepare(ExecContext* ctx) {
  BYPASS_RETURN_IF_ERROR(BinaryPhysOp::Prepare(ctx));
  scratch_.resize(static_cast<size_t>(ctx->run().num_worker_slots()));
  return Status::OK();
}

void HashExistenceJoinOp::Reset() {
  BinaryPhysOp::Reset();
  table_.Clear();
}

Status HashExistenceJoinOp::BuildFromRight() {
  table_.Build(right_rows(), right_key_slots_, ctx_->pool());
  // The index arrays scale with the build side like the buffered rows
  // (charged on arrival) do; this operator has no spill path, so an
  // overrun surfaces as ResourceExhausted.
  return ctx_->run().ChargeMemory(table_.RetainedBytes());
}

std::string HashExistenceJoinOp::Label() const {
  std::string out = anti_ ? "HashAntiJoin [keys " : "HashSemiJoin [keys ";
  for (size_t i = 0; i < left_key_slots_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "l" + std::to_string(left_key_slots_[i]) + "=r" +
           std::to_string(right_key_slots_[i]);
  }
  return out + "]";
}

// Batch-probes in place; the left row is only copied out of the batch
// when it actually passes the existence test.
Status HashExistenceJoinOp::ProcessLeftBatch(RowBatch batch) {
  JoinProbeScratch& scratch =
      scratch_[static_cast<size_t>(CurrentWorkerId())];
  table_.ProbeBatch(batch, left_key_slots_, &scratch);
  const size_t n = batch.size();
  for (size_t i = 0; i < n; ++i) {
    if (!scratch.matches[i].empty() != anti_) {
      BYPASS_RETURN_IF_ERROR(EmitRow(kPortOut, batch.TakeRow(i)));
    }
  }
  return Status::OK();
}

Result<bool> NLExistenceJoinOp::Matches(const Row& row) const {
  int64_t since_check = 0;
  for (const Row& right : right_rows()) {
    if (++since_check >= 4096) {
      since_check = 0;
      BYPASS_RETURN_IF_ERROR(ctx_->run().CheckBudget());
    }
    const Row joined = gather().Gather(row, right);
    EvalContext ectx{&joined, ctx_->outer_row()};
    BYPASS_ASSIGN_OR_RETURN(Value v, predicate_->Eval(ectx));
    if (ValueToTriBool(v) == TriBool::kTrue) return true;
  }
  return false;
}

Status NLExistenceJoinOp::ProcessLeftBatch(RowBatch batch) {
  const size_t n = batch.size();
  for (size_t i = 0; i < n; ++i) {
    BYPASS_ASSIGN_OR_RETURN(bool has_match, Matches(batch.row(i)));
    if (has_match != anti_) {
      BYPASS_RETURN_IF_ERROR(EmitRow(kPortOut, batch.TakeRow(i)));
    }
  }
  return Status::OK();
}

}  // namespace bypass
