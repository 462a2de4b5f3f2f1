#include "algebra/plan_util.h"

#include <unordered_set>

#include "expr/expr_util.h"

namespace bypass {

std::vector<ExprPtr> NodeExpressions(const LogicalOp& node) {
  std::vector<ExprPtr> out;
  switch (node.kind()) {
    case LogicalOpKind::kGet:
    case LogicalOpKind::kDistinct:
    case LogicalOpKind::kUnion:
    case LogicalOpKind::kNumbering:
    case LogicalOpKind::kLimit:
      break;
    case LogicalOpKind::kSelect:
      out.push_back(static_cast<const SelectOp&>(node).predicate());
      break;
    case LogicalOpKind::kBypassSelect:
      out.push_back(static_cast<const BypassSelectOp&>(node).predicate());
      break;
    case LogicalOpKind::kProject:
      for (const NamedExpr& it :
           static_cast<const ProjectOp&>(node).items()) {
        out.push_back(it.expr);
      }
      break;
    case LogicalOpKind::kMap:
      for (const NamedExpr& it : static_cast<const MapOp&>(node).items()) {
        out.push_back(it.expr);
      }
      break;
    case LogicalOpKind::kJoin: {
      const auto& j = static_cast<const JoinOp&>(node);
      if (j.predicate()) out.push_back(j.predicate());
      break;
    }
    case LogicalOpKind::kLeftOuterJoin:
      out.push_back(
          static_cast<const LeftOuterJoinOp&>(node).predicate());
      break;
    case LogicalOpKind::kSemiJoin:
      out.push_back(static_cast<const SemiJoinOp&>(node).predicate());
      break;
    case LogicalOpKind::kAntiJoin:
      out.push_back(static_cast<const AntiJoinOp&>(node).predicate());
      break;
    case LogicalOpKind::kGroupBy:
      for (const AggregateSpec& a :
           static_cast<const GroupByOp&>(node).aggregates()) {
        if (a.arg) out.push_back(a.arg);
      }
      break;
    case LogicalOpKind::kBinaryGroupBy:
      for (const AggregateSpec& a :
           static_cast<const BinaryGroupByOp&>(node).aggregates()) {
        if (a.arg) out.push_back(a.arg);
      }
      break;
    case LogicalOpKind::kSort:
      for (const SortKey& k : static_cast<const SortOp&>(node).keys()) {
        out.push_back(k.expr);
      }
      break;
  }
  return out;
}

namespace {

void VisitPlanImpl(const LogicalOpPtr& node,
                   std::unordered_set<const LogicalOp*>* seen,
                   const std::function<void(const LogicalOpPtr&)>& fn) {
  if (node == nullptr || !seen->insert(node.get()).second) return;
  fn(node);
  for (const LogicalInput& in : node->inputs()) {
    VisitPlanImpl(in.op, seen, fn);
  }
}

}  // namespace

void VisitPlan(const LogicalOpPtr& root,
               const std::function<void(const LogicalOpPtr&)>& fn) {
  std::unordered_set<const LogicalOp*> seen;
  VisitPlanImpl(root, &seen, fn);
}

std::vector<ColumnRefExpr*> CollectPlanOuterRefs(const LogicalOp& root) {
  std::vector<ColumnRefExpr*> out;
  for (const LogicalOp* node : TopologicalNodes(root)) {
    for (const ExprPtr& e : NodeExpressions(*node)) {
      for (ColumnRefExpr* ref : CollectColumnRefs(e.get())) {
        if (ref->is_outer()) out.push_back(ref);
      }
    }
  }
  return out;
}

bool PlanIsCorrelated(const LogicalOp& root) {
  return !CollectPlanOuterRefs(root).empty();
}

bool PlanHasNestedSubquery(const LogicalOp& root) {
  for (const LogicalOp* node : TopologicalNodes(root)) {
    for (const ExprPtr& e : NodeExpressions(*node)) {
      if (ContainsSubquery(e)) return true;
    }
  }
  return false;
}

LogicalOpPtr ProjectToColumns(LogicalInput input, const Schema& columns) {
  std::vector<NamedExpr> items;
  items.reserve(static_cast<size_t>(columns.num_columns()));
  for (const ColumnDef& c : columns.columns()) {
    items.push_back(NamedExpr{MakeColumnRef(c.qualifier, c.name),
                              c.name, c.qualifier});
  }
  return std::make_shared<ProjectOp>(std::move(input), std::move(items));
}

}  // namespace bypass
