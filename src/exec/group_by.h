// Grouping operators: unary grouping Γ_{g;=A;f} (hash aggregation, with a
// scalar mode for aggregate-without-GROUP-BY blocks) and binary grouping
// Γ_{g;A1θA2;f} (Cluet/Moerkotte; main-memory implementations follow
// May/Moerkotte [21]: hash-based for θ = '=', nested-loop otherwise).
//
// Parallelism: HashGroupByOp accumulates into per-worker partial hash
// tables (no shared mutable state during Consume) merged via
// AggregatorSet::Merge at finish, which runs single-threaded on the
// driver. The binary groupings buffer their right input as columns
// (BinaryPhysOp), build from it at right finish and append aggregate
// columns to each left batch's gathered columns, as χ does.
#ifndef BYPASSDB_EXEC_GROUP_BY_H_
#define BYPASSDB_EXEC_GROUP_BY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/flat_table.h"
#include "exec/phys_op.h"
#include "expr/agg.h"
#include "expr/expr.h"

namespace bypass {

/// Hash aggregation. Output = group-key values ++ aggregate values. In
/// scalar mode (no keys) exactly one row is emitted even on empty input.
class HashGroupByOp : public UnaryPhysOp {
 public:
  HashGroupByOp(std::vector<int> key_slots,
                std::vector<AggregateSpec> aggregates, bool scalar);

  Status Prepare(ExecContext* ctx) override;
  void Reset() override;
  Status Consume(int in_port, RowBatch batch) override;
  Status FinishPort(int in_port) override;
  std::string Label() const override {
    return scalar_ ? "ScalarAgg" : "HashGroupBy";
  }

  // Per worker: group ids from one KeyIndex, an AggregatorSet per id.
  using GroupMap = FlatRowMap<std::unique_ptr<AggregatorSet>>;

  /// Worker `w`'s partial group map: a compiled pipeline that fused this
  /// operator's accumulate loop folds straight into it (DESIGN.md §12).
  GroupMap* worker_groups(size_t w) { return &partials_[w].groups; }
  size_t num_partials() const { return partials_.size(); }
  /// Spec list backing every AggregatorSet of this operator — phase-B
  /// inserts must construct their sets against this exact vector.
  const std::vector<AggregateSpec>* aggregates() const {
    return &aggregates_;
  }
  const std::vector<int>& key_slots() const { return key_slots_; }
  bool scalar() const { return scalar_; }

 private:
  /// One worker's partial aggregation state, padded to its own cache line.
  struct alignas(64) Partial {
    GroupMap groups;
    std::unique_ptr<AggregatorSet> scalar;
    std::vector<uint32_t> ids;         // Consume: each row's group id
    std::vector<AggregatorSet*> sets;  // Consume: each row's group
  };

  std::vector<int> key_slots_;
  std::vector<AggregateSpec> aggregates_;
  bool scalar_;
  std::vector<Partial> partials_;  // indexed by CurrentWorkerId()
};

/// Binary grouping, hash variant (θ = '='): every left tuple is extended
/// with the aggregates over its group of right tuples; empty groups yield
/// f(∅). The right columns fold as HashGroupByOp::Consume folds its
/// input, a window at a time; a left batch probes with FindBatch.
class BinaryGroupByHashOp : public BinaryPhysOp {
 public:
  BinaryGroupByHashOp(int left_key_slot, int right_key_slot,
                      std::vector<AggregateSpec> aggregates);

  void Reset() override;
  std::string Label() const override { return "BinaryGroupBy(hash)"; }

 protected:
  Status BuildFromRight() override;
  Status ProcessLeftBatch(RowBatch batch) override;
  Status FinishBoth() override { return EmitFinish(kPortOut); }

 private:
  using GroupMap = FlatRowMap<std::unique_ptr<AggregatorSet>>;

  // Single-element slot vectors: the key of a right window and of a
  // left batch's probe.
  std::vector<int> left_key_slots_;
  std::vector<int> right_key_slots_;
  std::vector<AggregateSpec> aggregates_;
  KeyIndex group_keys_;
  /// One column per aggregate: row `id` holds group id's values, and the
  /// last row f(∅), which a left row without a group reads.
  ColumnStore group_values_;
};

/// Binary grouping, nested-loop variant for arbitrary θ. Each left tuple
/// selects the right rows whose key satisfies θ and folds them with
/// AccumulateBatch. The right keys are read out of their column once,
/// when the right side finishes.
class BinaryGroupByNLOp : public BinaryPhysOp {
 public:
  BinaryGroupByNLOp(int left_key_slot, CompareOp op, int right_key_slot,
                    std::vector<AggregateSpec> aggregates);

  std::string Label() const override { return "BinaryGroupBy(nl)"; }

 protected:
  Status BuildFromRight() override;
  Status ProcessLeftBatch(RowBatch batch) override;
  Status FinishBoth() override { return EmitFinish(kPortOut); }

 private:
  int left_key_slot_;
  CompareOp op_;
  int right_key_slot_;
  std::vector<AggregateSpec> aggregates_;
  std::vector<Value> right_keys_;  // right row r's key, read by every probe
};

}  // namespace bypass

#endif  // BYPASSDB_EXEC_GROUP_BY_H_
