// Streaming row-shaping operators: projection Π, map χ (append computed
// columns), and numbering ν (append a unique tuple id). Π, χ and ν emit
// owned-column batches (RowBatch::FromColumns). All are
// morsel-parallel: Π/χ use per-worker scratch, ν draws ids from one
// atomic counter (ids stay unique and dense overall, but their
// assignment to rows is scheduling-dependent — only equality matters to
// the plans that use them), and LIMIT serializes on a mutex (rare and
// cheap: one short critical section per batch).
#ifndef BYPASSDB_EXEC_PROJECT_H_
#define BYPASSDB_EXEC_PROJECT_H_

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "exec/phys_op.h"
#include "expr/expr.h"

namespace bypass {

/// Π: output = one column per expression. Column references select
/// input columns; other expressions are evaluated into new columns. When
/// the planner detects that the projection is the identity over its
/// input schema it sets `identity` and batches flow through untouched.
class ProjectPhysOp : public UnaryPhysOp {
 public:
  explicit ProjectPhysOp(std::vector<ExprPtr> exprs, bool identity = false)
      : exprs_(std::move(exprs)), identity_(identity) {}

  Status Prepare(ExecContext* ctx) override;
  Status Consume(int in_port, RowBatch batch) override;
  std::string Label() const override;

  /// Expression list / identity flag, read by the codegen install pass
  /// to recognize pure column-copy layers it can fold into a compiled
  /// pipeline's slot remapping (DESIGN.md §12).
  const std::vector<ExprPtr>& exprs() const { return exprs_; }
  bool identity() const { return identity_; }

 private:
  struct alignas(64) Scratch {
    std::vector<std::vector<Value>> columns;
  };

  std::vector<ExprPtr> exprs_;
  bool identity_;
  std::vector<int> slots_;  // per expression: the input slot it copies, or -1
  std::vector<Scratch> scratch_;  // per-worker per-batch scratch
};

/// χ: output = input columns ++ one column per expression.
class MapPhysOp : public UnaryPhysOp {
 public:
  explicit MapPhysOp(std::vector<ExprPtr> exprs)
      : exprs_(std::move(exprs)) {}

  Status Prepare(ExecContext* ctx) override;
  Status Consume(int in_port, RowBatch batch) override;
  std::string Label() const override;

 private:
  struct alignas(64) Scratch {
    std::vector<std::vector<Value>> columns;
  };

  std::vector<ExprPtr> exprs_;
  std::vector<Scratch> scratch_;  // per-worker per-batch scratch
};

/// ν: output = input columns ++ [unique int64 id starting at 0].
class NumberingPhysOp : public UnaryPhysOp {
 public:
  NumberingPhysOp() = default;

  void Reset() override {
    next_id_.store(0, std::memory_order_relaxed);
  }
  Status Consume(int in_port, RowBatch batch) override;
  std::string Label() const override { return "Numbering ν"; }

 private:
  std::atomic<int64_t> next_id_{0};
};

/// LIMIT n: forwards the first n rows, then drops the rest (and asks the
/// context to cancel the producers when possible).
class LimitPhysOp : public UnaryPhysOp {
 public:
  explicit LimitPhysOp(int64_t count) : count_(count) {}

  void Reset() override { seen_ = 0; }
  Status Consume(int in_port, RowBatch batch) override;
  std::string Label() const override {
    return "Limit " + std::to_string(count_);
  }

 private:
  int64_t count_;
  std::mutex mu_;  // guards seen_ against concurrent morsel workers
  int64_t seen_ = 0;
};

}  // namespace bypass

#endif  // BYPASSDB_EXEC_PROJECT_H_
