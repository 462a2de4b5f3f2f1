// Helpers for traversing logical plans and their embedded expressions,
// used by the classifier and the unnesting rewriter.
#ifndef BYPASSDB_ALGEBRA_PLAN_UTIL_H_
#define BYPASSDB_ALGEBRA_PLAN_UTIL_H_

#include <functional>
#include <vector>

#include "algebra/logical_op.h"

namespace bypass {

/// All top-level expressions attached to one node (predicates, projection
/// and map items, aggregate arguments, sort keys). Shared pointers: the
/// pointees may be mutated through them.
std::vector<ExprPtr> NodeExpressions(const LogicalOp& node);

/// Visits every node reachable from root (each node once).
void VisitPlan(const LogicalOpPtr& root,
               const std::function<void(const LogicalOpPtr&)>& fn);

/// All correlated (is_outer) column references in the plan's expressions.
/// Does NOT descend into nested subquery plans: their outer references
/// point at *their* enclosing block, not at ours (direct correlation).
std::vector<ColumnRefExpr*> CollectPlanOuterRefs(const LogicalOp& root);

/// True if the plan references its enclosing block, i.e. the block is
/// correlated (Kim types J/JA vs. N/A).
bool PlanIsCorrelated(const LogicalOp& root);

/// True if any expression in the plan (again not descending into nested
/// blocks) contains a subquery expression, i.e. the block has further
/// nesting below it.
bool PlanHasNestedSubquery(const LogicalOp& root);

/// Builds Π over `input` that keeps exactly the columns of `columns`
/// (matched by qualifier+name against the input schema), preserving their
/// qualifiers — the paper's Π_{A(R)}.
LogicalOpPtr ProjectToColumns(LogicalInput input, const Schema& columns);

/// Π over `input` keeping its first `width` columns by position, so two
/// of them may share a name (ColumnRefExpr::AtPosition).
LogicalOpPtr ProjectToPrefix(LogicalInput input, int width);

/// The input column an uncorrelated `ref` names: its position when it is
/// an AtPosition reference, else the one column its qualifier and name
/// match in `input`.
Result<int> InputColumnOf(const ColumnRefExpr& ref, const Schema& input);

}  // namespace bypass

#endif  // BYPASSDB_ALGEBRA_PLAN_UTIL_H_
