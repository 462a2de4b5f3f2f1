// Generic expression traversal helpers used by the binder and the
// unnesting rewriter.
#ifndef BYPASSDB_EXPR_EXPR_UTIL_H_
#define BYPASSDB_EXPR_EXPR_UTIL_H_

#include <functional>
#include <vector>

#include "expr/expr.h"

namespace bypass {

/// Pre-order visit of an expression tree (does not descend into nested
/// subquery plans).
void VisitExpr(const ExprPtr& expr,
               const std::function<void(const ExprPtr&)>& fn);

/// Mutable pre-order visit.
void VisitExprMutable(Expr* expr, const std::function<void(Expr*)>& fn);

/// True if the tree contains a SubqueryExpr (any kind).
bool ContainsSubquery(const ExprPtr& expr);

/// All SubqueryExpr nodes in the tree, pre-order.
std::vector<SubqueryExpr*> FindSubqueries(Expr* expr);

/// All column references in the tree (not descending into subquery plans).
std::vector<ColumnRefExpr*> CollectColumnRefs(Expr* expr);

/// True if the tree contains a column reference with is_outer() set, i.e.
/// the expression is correlated with the enclosing block.
bool ContainsOuterRef(const ExprPtr& expr);

/// Splits a predicate into its top-level conjuncts (flattening nested
/// ANDs). A non-AND predicate yields a single conjunct.
std::vector<ExprPtr> SplitConjuncts(const ExprPtr& pred);

/// True when `conjunct` equates two uncorrelated columns: the one
/// conjunct shape a join hashes on. The planner takes such conjuncts as
/// join keys (other conjuncts stay a residual) and the cost model prices
/// a join with one as a hash join.
bool IsHashKeyConjunct(const Expr& conjunct);

/// Splits a predicate into its top-level disjuncts (flattening nested
/// ORs). A non-OR predicate yields a single disjunct.
std::vector<ExprPtr> SplitDisjuncts(const ExprPtr& pred);

}  // namespace bypass

#endif  // BYPASSDB_EXPR_EXPR_UTIL_H_
