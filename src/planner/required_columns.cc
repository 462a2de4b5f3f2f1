#include "planner/required_columns.h"

#include <algorithm>

#include "algebra/plan_util.h"
#include "common/check.h"

namespace bypass {

namespace {

bool CollectRef(const std::string& qualifier, const std::string& name,
                const Schema& schema, std::vector<int>* out) {
  Result<int> slot = schema.FindColumn(qualifier, name);
  if (!slot.ok()) return false;
  out->push_back(*slot);
  return true;
}

/// Marks need flags, visiting consumers before the nodes they read.
class RequiredPass {
 public:
  RequiredPass(const std::unordered_map<const LogicalOp*, size_t>* offset,
               char* flags)
      : offset_(offset), flags_(flags) {}

  char* Flags(const LogicalOp* node) {
    return flags_ + offset_->find(node)->second;
  }

  void MarkAll(const LogicalOp* node) {
    std::fill_n(Flags(node), node->schema().num_columns(), char{1});
  }

  /// Marks what `expr` reads from a schema made of `left`'s columns
  /// followed (for binary nodes) by `right`'s.
  void MarkExpr(const Expr& expr, const Schema& schema, const LogicalOp* left,
                const LogicalOp* right = nullptr) {
    cols_.clear();
    if (!CollectExprColumns(expr, schema, &cols_)) {
      MarkAll(left);
      if (right != nullptr) MarkAll(right);
      return;
    }
    MarkSlots(cols_, left, right);
  }

  void MarkRef(const std::string& qualifier, const std::string& name,
               const Schema& schema, const LogicalOp* input) {
    cols_.clear();
    if (!CollectRef(qualifier, name, schema, &cols_)) {
      MarkAll(input);
      return;
    }
    MarkSlots(cols_, input, nullptr);
  }

  /// Passes the node's own needs through to `input`, whose columns sit
  /// at `offset` in the node's schema (forwarded columns).
  void Forward(const char* own, const LogicalOp* input, int offset = 0) {
    char* in = Flags(input);
    const int width = input->schema().num_columns();
    for (int i = 0; i < width; ++i) in[i] |= own[offset + i];
  }

  void MarkAggregates(const std::vector<AggregateSpec>& aggs,
                      const LogicalOp* input) {
    for (const AggregateSpec& a : aggs) {
      if (a.arg != nullptr) {
        MarkExpr(*a.arg, input->schema(), input);
      } else if (a.distinct) {
        MarkAll(input);  // COUNT(DISTINCT *) compares whole rows
      }
    }
  }

  void Visit(const LogicalOp& node);

 private:
  void MarkSlots(const std::vector<int>& slots, const LogicalOp* left,
                 const LogicalOp* right) {
    const int left_width = left->schema().num_columns();
    for (int s : slots) {
      if (s < left_width) {
        Flags(left)[s] = 1;
      } else if (right != nullptr) {
        Flags(right)[s - left_width] = 1;
      }
    }
  }

  const std::unordered_map<const LogicalOp*, size_t>* offset_;
  char* flags_;
  std::vector<int> cols_;  // scratch
};

void RequiredPass::Visit(const LogicalOp& node) {
  const char* own = Flags(&node);
  const int width = node.schema().num_columns();
  const auto& inputs = node.inputs();
  const LogicalOp* in0 = inputs.empty() ? nullptr : inputs[0].op.get();
  const LogicalOp* in1 = inputs.size() > 1 ? inputs[1].op.get() : nullptr;
  // A forwarding node whose whole row is needed needs its inputs' whole
  // rows; its own expressions cannot add to that.
  const bool all = std::find(own, own + width, char{0}) == own + width;
  switch (node.kind()) {
    case LogicalOpKind::kSelect:
    case LogicalOpKind::kBypassSelect:
    case LogicalOpKind::kSort:
    case LogicalOpKind::kMap:
    case LogicalOpKind::kJoin:
    case LogicalOpKind::kLeftOuterJoin:
      if (all) {
        for (const LogicalInput& in : inputs) MarkAll(in.op.get());
        return;
      }
      break;
    default:
      break;
  }
  switch (node.kind()) {
    case LogicalOpKind::kGet:
      break;
    case LogicalOpKind::kSelect:
      Forward(own, in0);
      MarkExpr(*static_cast<const SelectOp&>(node).predicate(),
               in0->schema(), in0);
      break;
    case LogicalOpKind::kBypassSelect:
      Forward(own, in0);
      MarkExpr(*static_cast<const BypassSelectOp&>(node).predicate(),
               in0->schema(), in0);
      break;
    case LogicalOpKind::kLimit:
    case LogicalOpKind::kNumbering:  // the appended id is not an input
      Forward(own, in0);
      break;
    case LogicalOpKind::kSort:
      Forward(own, in0);
      for (const SortKey& k : static_cast<const SortOp&>(node).keys()) {
        MarkExpr(*k.expr, in0->schema(), in0);
      }
      break;
    case LogicalOpKind::kDistinct:
      MarkAll(in0);  // duplicates are decided on whole rows
      break;
    case LogicalOpKind::kProject: {
      const auto& items = static_cast<const ProjectOp&>(node).items();
      for (size_t i = 0; i < items.size(); ++i) {
        if (own[i]) MarkExpr(*items[i].expr, in0->schema(), in0);
      }
      break;
    }
    case LogicalOpKind::kMap:
      // Every item is computed (the physical χ appends all of them).
      Forward(own, in0);
      for (const NamedExpr& item : static_cast<const MapOp&>(node).items()) {
        MarkExpr(*item.expr, in0->schema(), in0);
      }
      break;
    case LogicalOpKind::kJoin:
    case LogicalOpKind::kLeftOuterJoin: {
      Forward(own, in0);
      Forward(own, in1, in0->schema().num_columns());
      const ExprPtr& pred =
          node.kind() == LogicalOpKind::kJoin
              ? static_cast<const JoinOp&>(node).predicate()
              : static_cast<const LeftOuterJoinOp&>(node).predicate();
      // The join's schema is the concatenation its predicate binds to.
      if (pred != nullptr) MarkExpr(*pred, node.schema(), in0, in1);
      break;
    }
    case LogicalOpKind::kSemiJoin:
    case LogicalOpKind::kAntiJoin: {
      Forward(own, in0);
      const ExprPtr& pred =
          node.kind() == LogicalOpKind::kSemiJoin
              ? static_cast<const SemiJoinOp&>(node).predicate()
              : static_cast<const AntiJoinOp&>(node).predicate();
      MarkExpr(*pred, Schema::Concat(in0->schema(), in1->schema()), in0,
               in1);
      break;
    }
    case LogicalOpKind::kGroupBy: {
      const auto& gb = static_cast<const GroupByOp&>(node);
      for (const GroupKey& k : gb.keys()) {
        MarkRef(k.qualifier, k.name, in0->schema(), in0);
      }
      MarkAggregates(gb.aggregates(), in0);
      break;
    }
    case LogicalOpKind::kBinaryGroupBy: {
      const auto& gb = static_cast<const BinaryGroupByOp&>(node);
      Forward(own, in0);
      MarkRef(gb.left_key().qualifier, gb.left_key().name, in0->schema(),
              in0);
      MarkRef(gb.right_key().qualifier, gb.right_key().name,
              in1->schema(), in1);
      MarkAggregates(gb.aggregates(), in1);
      break;
    }
    case LogicalOpKind::kUnion:
      for (const LogicalInput& in : inputs) Forward(own, in.op.get());
      break;
  }
}

}  // namespace

bool CollectExprColumns(const Expr& expr, const Schema& schema,
                        std::vector<int>* out) {
  switch (expr.kind()) {
    case ExprKind::kColumnRef: {
      const auto& ref = static_cast<const ColumnRefExpr&>(expr);
      // Correlated references read the enclosing block, not this input.
      if (ref.is_outer()) return true;
      return CollectRef(ref.qualifier(), ref.name(), schema, out);
    }
    case ExprKind::kSubquery: {
      const auto& sq = static_cast<const SubqueryExpr&>(expr);
      if (sq.plan() != nullptr) {
        for (const ColumnRefExpr* ref : CollectPlanOuterRefs(*sq.plan())) {
          if (!CollectRef(ref->qualifier(), ref->name(), schema, out)) {
            return false;
          }
        }
      }
      break;
    }
    default:
      break;
  }
  for (const ExprPtr& child : expr.children()) {
    if (!CollectExprColumns(*child, schema, out)) return false;
  }
  return true;
}

std::vector<int> RequiredColumns::Of(const LogicalOp* node) const {
  const auto it = offset_.find(node);
  BYPASS_CHECK_MSG(it != offset_.end(), "node outside the required pass");
  std::vector<int> cols;
  const char* flags = flags_.data() + it->second;
  for (int i = 0; i < node->schema().num_columns(); ++i) {
    if (flags[i]) cols.push_back(i);
  }
  return cols;
}

namespace {

/// Post-order DFS that also lays out each node's flags.
void CollectNodes(const LogicalOp* node,
                  std::unordered_map<const LogicalOp*, size_t>* offset,
                  size_t* width, std::vector<const LogicalOp*>* order) {
  if (!offset->emplace(node, *width).second) return;
  *width += static_cast<size_t>(node->schema().num_columns());
  for (const LogicalInput& in : node->inputs()) {
    CollectNodes(in.op.get(), offset, width, order);
  }
  order->push_back(node);
}

}  // namespace

RequiredColumns ComputeRequiredColumns(const LogicalOp& root) {
  RequiredColumns out;
  std::vector<const LogicalOp*> order;
  size_t width = 0;
  CollectNodes(&root, &out.offset_, &width, &order);
  out.flags_.assign(width, char{0});
  RequiredPass pass(&out.offset_, out.flags_.data());
  pass.MarkAll(&root);
  // Post-order reversed: every consumer of a node is visited before the
  // node itself, so its needs are complete when it propagates.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    pass.Visit(**it);
  }
  return out;
}

}  // namespace bypass
