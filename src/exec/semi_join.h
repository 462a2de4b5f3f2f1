// Semijoin ⋉ and antijoin ▷, hash and nested-loop variants. Targets of the
// quantified-subquery unnesting extension (EXISTS / NOT EXISTS / IN /
// NOT IN in disjunctions, cf. the paper's technical report).
#ifndef BYPASSDB_EXEC_SEMI_JOIN_H_
#define BYPASSDB_EXEC_SEMI_JOIN_H_

#include <string>
#include <vector>

#include "exec/join.h"
#include "exec/phys_op.h"
#include "expr/expr.h"

namespace bypass {

/// Equi semi/anti join: emits left rows with (semi) or without (anti) a
/// matching right row. Match = key equality is *true* (NULL keys never
/// match).
class HashExistenceJoinOp : public BinaryPhysOp {
 public:
  HashExistenceJoinOp(bool anti, std::vector<int> left_key_slots,
                      std::vector<int> right_key_slots)
      : anti_(anti),
        left_key_slots_(std::move(left_key_slots)),
        right_key_slots_(std::move(right_key_slots)) {}

  Status Prepare(ExecContext* ctx) override;
  void Reset() override;
  /// "HashSemiJoin [keys l0=r1, ...]": probe (left) = build (right) slots.
  std::string Label() const override;

 protected:
  Status BuildFromRight() override;
  Status ProcessLeftBatch(RowBatch batch) override;
  Status FinishBoth() override { return EmitFinish(kPortOut); }

 private:
  bool anti_;
  std::vector<int> left_key_slots_;
  std::vector<int> right_key_slots_;
  JoinHashTable table_;
  std::vector<JoinProbeScratch> scratch_;  // per worker
};

/// Nested-loop semi/anti join for arbitrary predicates, evaluated over
/// each pair's gathered row (BinaryPhysOp::gather(); the planner gathers
/// just the predicate's columns). Emits left rows unchanged.
class NLExistenceJoinOp : public BinaryPhysOp {
 public:
  NLExistenceJoinOp(bool anti, ExprPtr predicate)
      : anti_(anti), predicate_(std::move(predicate)) {}

  std::string Label() const override {
    return std::string(anti_ ? "NLAntiJoin " : "NLSemiJoin ") +
           predicate_->ToString();
  }

 protected:
  Status ProcessLeftBatch(RowBatch batch) override;
  Status FinishBoth() override { return EmitFinish(kPortOut); }

 private:
  Result<bool> Matches(const Row& row) const;

  bool anti_;
  ExprPtr predicate_;
};

}  // namespace bypass

#endif  // BYPASSDB_EXEC_SEMI_JOIN_H_
