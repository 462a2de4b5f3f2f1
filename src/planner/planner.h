// Physical planning: binds name-based expressions to row slots and lowers
// the logical DAG onto executable operators — hash-based implementations
// for equality predicates, nested loops otherwise. Nested blocks are
// lowered into re-executable correlated subplans.
#ifndef BYPASSDB_PLANNER_PLANNER_H_
#define BYPASSDB_PLANNER_PLANNER_H_

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "algebra/logical_op.h"
#include "catalog/catalog.h"
#include "common/result.h"
#include "exec/executor.h"
#include "exec/subplan_impl.h"
#include "planner/cost_model.h"
#include "planner/required_columns.h"
#include "planner/uniqueness.h"

namespace bypass {

struct PlannerOptions {
  /// Memoize correlated subquery results by correlation values (the
  /// "canonical-memo" comparator strategy). Uncorrelated (type A) blocks
  /// are always materialized once regardless.
  bool memoize_subqueries = false;
};

class Planner {
 public:
  Planner(const Catalog* catalog, PlannerOptions options)
      : catalog_(catalog), options_(options) {}

  /// Lowers a logical plan into an executable physical plan (with a
  /// CollectorSink at the root).
  Result<PhysicalPlan> Lower(const LogicalOpPtr& root);

 private:
  /// One lowered node: its physical operator and output layout — the
  /// ascending logical column indices it materializes (joins and
  /// projections drop the columns no consumer reads) and their schema,
  /// which parents bind against by name. `schema` is the logical node's
  /// own schema when every column is materialized, else it lives in the
  /// lowering context.
  struct Lowered {
    PhysOp* op = nullptr;
    std::vector<int> cols;
    const Schema* schema = nullptr;
  };
  using LoweredMap = std::unordered_map<const LogicalOp*, Lowered>;

  struct LoweringCtx {
    PhysicalPlan* plan;
    const Schema* outer_schema;  // enclosing block's schema, or nullptr
    /// Filter-over-scan pairs found while lowering this plan; the
    /// post-wiring pass installs the predicate as the scan's zone filter
    /// when the scan ended up with that filter as its only consumer.
    std::vector<std::pair<TableScanOp*, ExprPtr>>* zone_candidates;
    const RequiredColumns* required;
    /// Cardinality estimates: pick hash-join build sides, then annotate
    /// the physical operators.
    const std::unordered_map<const LogicalOp*, PlanEstimate>* estimates;
    /// Narrowed layout schemas (stable addresses for Lowered::schema).
    std::deque<Schema>* layouts;
    /// Per δ: whether its input is duplicate-free, and on which tables.
    const std::unordered_map<const LogicalOp*, DistinctGate>* distinct_gates;
  };

  /// The schema of `node`'s layout `cols`: its own schema when `cols`
  /// covers every column, else a narrowed copy kept in `ctx`.
  static const Schema* LayoutSchema(const LogicalOp& node,
                                    const std::vector<int>& cols,
                                    LoweringCtx* ctx);

  Result<PhysicalPlan> LowerPlan(const LogicalOpPtr& root,
                                 const Schema* outer_schema);

  Result<const Lowered*> LowerNode(const LogicalOpPtr& node,
                                   LoweringCtx* ctx, LoweredMap* memo);

  /// Physical operator (and layout) of an inner, outer, bypass or
  /// existence join over the lowered inputs: one gather spec for the
  /// output, build rows buffered narrowed to keys and gathered columns.
  /// `swap` asks an inner equi join to build on its logical left input;
  /// `*build_left` reports whether it does (the caller wires the ports).
  Result<Lowered> LowerJoin(const LogicalOp& node, const Lowered& left,
                            const Lowered& right, bool swap,
                            bool* build_left, LoweringCtx* ctx);

  /// Returns a bound deep copy of `expr`: column refs get slots (against
  /// `input`, or the enclosing schema for correlated refs) and nested
  /// blocks become executable subplans.
  Result<ExprPtr> BindExpr(const ExprPtr& expr, const Schema& input,
                           LoweringCtx* ctx);
  Status BindExprInPlace(Expr* expr, const Schema& input,
                         LoweringCtx* ctx);

  /// Registers `op` in the plan and returns the raw pointer.
  template <typename T>
  T* Register(LoweringCtx* ctx, std::unique_ptr<T> op) {
    T* raw = op.get();
    ctx->plan->ops.push_back(std::move(op));
    return raw;
  }

  const Catalog* catalog_;
  PlannerOptions options_;
};

}  // namespace bypass

#endif  // BYPASSDB_PLANNER_PLANNER_H_
