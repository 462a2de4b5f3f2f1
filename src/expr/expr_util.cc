#include "expr/expr_util.h"

namespace bypass {

void VisitExpr(const ExprPtr& expr,
               const std::function<void(const ExprPtr&)>& fn) {
  if (expr == nullptr) return;
  fn(expr);
  for (const ExprPtr& c : expr->children()) VisitExpr(c, fn);
}

namespace {

void VisitMutableImpl(Expr* expr, const std::function<void(Expr*)>& fn) {
  if (expr == nullptr) return;
  fn(expr);
  for (const ExprPtr& c : expr->children()) VisitMutableImpl(c.get(), fn);
}

}  // namespace

void VisitExprMutable(Expr* expr, const std::function<void(Expr*)>& fn) {
  VisitMutableImpl(expr, fn);
}

bool ContainsSubquery(const ExprPtr& expr) {
  bool found = false;
  VisitExpr(expr, [&](const ExprPtr& e) {
    if (e->kind() == ExprKind::kSubquery) found = true;
  });
  return found;
}

std::vector<SubqueryExpr*> FindSubqueries(Expr* expr) {
  std::vector<SubqueryExpr*> out;
  VisitExprMutable(expr, [&](Expr* e) {
    if (e->kind() == ExprKind::kSubquery) {
      out.push_back(static_cast<SubqueryExpr*>(e));
    }
  });
  return out;
}

std::vector<ColumnRefExpr*> CollectColumnRefs(Expr* expr) {
  std::vector<ColumnRefExpr*> out;
  VisitExprMutable(expr, [&](Expr* e) {
    if (e->kind() == ExprKind::kColumnRef) {
      out.push_back(static_cast<ColumnRefExpr*>(e));
    }
  });
  return out;
}

bool ContainsOuterRef(const ExprPtr& expr) {
  bool found = false;
  VisitExpr(expr, [&](const ExprPtr& e) {
    if (e->kind() == ExprKind::kColumnRef &&
        static_cast<const ColumnRefExpr*>(e.get())->is_outer()) {
      found = true;
    }
  });
  return found;
}

std::vector<ExprPtr> SplitConjuncts(const ExprPtr& pred) {
  std::vector<ExprPtr> out;
  if (pred == nullptr) return out;
  if (pred->kind() == ExprKind::kAnd) {
    for (const ExprPtr& t :
         static_cast<const AndExpr*>(pred.get())->terms()) {
      auto sub = SplitConjuncts(t);
      out.insert(out.end(), sub.begin(), sub.end());
    }
  } else {
    out.push_back(pred);
  }
  return out;
}

bool IsHashKeyConjunct(const Expr& conjunct) {
  if (conjunct.kind() != ExprKind::kComparison) return false;
  const auto& cmp = static_cast<const ComparisonExpr&>(conjunct);
  if (cmp.op() != CompareOp::kEq) return false;
  for (const Expr* side : {cmp.left().get(), cmp.right().get()}) {
    if (side->kind() != ExprKind::kColumnRef ||
        static_cast<const ColumnRefExpr*>(side)->is_outer()) {
      return false;
    }
  }
  return true;
}

std::vector<ExprPtr> SplitDisjuncts(const ExprPtr& pred) {
  std::vector<ExprPtr> out;
  if (pred == nullptr) return out;
  if (pred->kind() == ExprKind::kOr) {
    for (const ExprPtr& t :
         static_cast<const OrExpr*>(pred.get())->terms()) {
      auto sub = SplitDisjuncts(t);
      out.insert(out.end(), sub.begin(), sub.end());
    }
  } else {
    out.push_back(pred);
  }
  return out;
}

}  // namespace bypass
