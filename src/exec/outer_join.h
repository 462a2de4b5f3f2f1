// Left outer joins with default function: unmatched left tuples are padded
// with a precomputed right-side row (NULLs except the aggregate columns'
// f(∅) defaults) — the paper's count-bug-safe outer join.
#ifndef BYPASSDB_EXEC_OUTER_JOIN_H_
#define BYPASSDB_EXEC_OUTER_JOIN_H_

#include <string>
#include <vector>

#include "exec/join.h"
#include "exec/phys_op.h"
#include "expr/expr.h"

namespace bypass {

/// Equi left outer join (right = build side).
class HashLeftOuterJoinOp : public BinaryPhysOp {
 public:
  /// `unmatched_right` must have the buffered right row's arity; it is
  /// gathered with left tuples that have no join partner.
  HashLeftOuterJoinOp(std::vector<int> left_key_slots,
                      std::vector<int> right_key_slots,
                      Row unmatched_right)
      : left_key_slots_(std::move(left_key_slots)),
        right_key_slots_(std::move(right_key_slots)),
        unmatched_right_(std::move(unmatched_right)) {}

  Status Prepare(ExecContext* ctx) override;
  void Reset() override;
  std::string Label() const override {
    return "HashLeftOuterJoin" + gather().LabelSuffix();
  }

 protected:
  Status BuildFromRight() override;
  Status ProcessLeftBatch(RowBatch batch) override;
  Status FinishBoth() override { return EmitFinish(kPortOut); }

 private:
  Status EmitPadded(const Row& row, JoinMatches matches);

  std::vector<int> left_key_slots_;
  std::vector<int> right_key_slots_;
  Row unmatched_right_;
  JoinHashTable table_;
  std::vector<JoinProbeScratch> scratch_;  // per worker
};

/// Nested-loop left outer join for arbitrary predicates.
class NLLeftOuterJoinOp : public BinaryPhysOp {
 public:
  NLLeftOuterJoinOp(ExprPtr predicate, Row unmatched_right)
      : predicate_(std::move(predicate)),
        unmatched_right_(std::move(unmatched_right)) {}

  std::string Label() const override {
    return "NLLeftOuterJoin " + predicate_->ToString() +
           gather().LabelSuffix();
  }

 protected:
  Status ProcessLeftBatch(RowBatch batch) override;
  Status FinishBoth() override { return EmitFinish(kPortOut); }

 private:
  Status JoinOrPad(const Row& row);

  ExprPtr predicate_;
  Row unmatched_right_;
};

}  // namespace bypass

#endif  // BYPASSDB_EXEC_OUTER_JOIN_H_
