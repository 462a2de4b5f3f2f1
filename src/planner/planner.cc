#include "planner/planner.h"

#include <algorithm>
#include <numeric>

#include "algebra/plan_util.h"
#include "common/check.h"
#include "planner/cost_model.h"
#include "exec/distinct.h"
#include "exec/filter.h"
#include "exec/group_by.h"
#include "exec/join.h"
#include "exec/project.h"
#include "exec/sort.h"
#include "exec/union_op.h"
#include "expr/expr_util.h"

namespace bypass {

namespace {

/// Equi-join decomposition: conjuncts of the form left_col = right_col
/// become hash keys; everything else is a residual predicate evaluated on
/// the join's gathered row.
struct EquiSplit {
  std::vector<int> left_slots;
  std::vector<int> right_slots;
  std::vector<ExprPtr> residual_conjuncts;  // unbound
};

EquiSplit SplitEquiPred(const ExprPtr& pred, const Schema& left,
                        const Schema& right) {
  EquiSplit split;
  for (const ExprPtr& c : SplitConjuncts(pred)) {
    bool handled = false;
    if (IsHashKeyConjunct(*c)) {
      const auto* cmp = static_cast<const ComparisonExpr*>(c.get());
      const auto* a = static_cast<const ColumnRefExpr*>(cmp->left().get());
      const auto* b =
          static_cast<const ColumnRefExpr*>(cmp->right().get());
      auto la = left.FindColumn(a->qualifier(), a->name());
      auto rb = right.FindColumn(b->qualifier(), b->name());
      if (la.ok() && rb.ok()) {
        split.left_slots.push_back(*la);
        split.right_slots.push_back(*rb);
        handled = true;
      } else {
        auto lb = left.FindColumn(b->qualifier(), b->name());
        auto ra = right.FindColumn(a->qualifier(), a->name());
        if (lb.ok() && ra.ok()) {
          split.left_slots.push_back(*lb);
          split.right_slots.push_back(*ra);
          handled = true;
        }
      }
    }
    if (!handled) split.residual_conjuncts.push_back(c);
  }
  return split;
}

std::vector<int> AllColumns(int width) {
  std::vector<int> cols(static_cast<size_t>(width));
  std::iota(cols.begin(), cols.end(), 0);
  return cols;
}

/// Position of `col` in the ascending layout `cols`, -1 when absent.
int PosOf(const std::vector<int>& cols, int col) {
  const auto it = std::lower_bound(cols.begin(), cols.end(), col);
  if (it == cols.end() || *it != col) return -1;
  return static_cast<int>(it - cols.begin());
}

/// The right-input columns binary grouping reads — its key and the
/// aggregate arguments — as ascending logical indices. False when the
/// whole row is needed (COUNT(DISTINCT *)) or a reference does not
/// resolve.
bool BinaryGroupByReads(const BinaryGroupByOp& gb, const Schema& right,
                        std::vector<int>* read) {
  Result<int> key =
      right.FindColumn(gb.right_key().qualifier, gb.right_key().name);
  if (!key.ok()) return false;
  read->push_back(*key);
  for (const AggregateSpec& a : gb.aggregates()) {
    const bool known = a.arg != nullptr
                           ? CollectExprColumns(*a.arg, right, read)
                           : !a.distinct;
    if (!known) return false;
  }
  std::sort(read->begin(), read->end());
  read->erase(std::unique(read->begin(), read->end()), read->end());
  return true;
}

/// Estimated cardinality of the stream feeding `in`.
double EstimatedInputRows(
    const std::unordered_map<const LogicalOp*, PlanEstimate>& estimates,
    const LogicalInput& in) {
  const auto it = estimates.find(in.op.get());
  if (it == estimates.end()) return 0;
  const PlanEstimate& est = it->second;
  return in.port == StreamPort::kNegative ? est.neg_rows : est.rows;
}

}  // namespace

Result<PhysicalPlan> Planner::Lower(const LogicalOpPtr& root) {
  return LowerPlan(root, /*outer_schema=*/nullptr);
}

Result<PhysicalPlan> Planner::LowerPlan(const LogicalOpPtr& root,
                                        const Schema* outer_schema) {
  PhysicalPlan plan;
  std::vector<std::pair<TableScanOp*, ExprPtr>> zone_candidates;
  const RequiredColumns required = ComputeRequiredColumns(*root);
  const auto estimates = EstimateAllNodes(*root, catalog_);
  const auto distinct_gates = ProveDistinctInputs(*root, *catalog_);
  std::deque<Schema> layouts;
  LoweringCtx ctx{&plan,      outer_schema, &zone_candidates, &required,
                  &estimates, &layouts,     &distinct_gates};
  LoweredMap memo;
  BYPASS_ASSIGN_OR_RETURN(const Lowered* top, LowerNode(root, &ctx, &memo));
  if (top->cols.size() != static_cast<size_t>(root->schema().num_columns())) {
    return Status::Internal("plan root lost output columns");
  }
  auto sink = std::make_unique<CollectorSink>();
  plan.sink = sink.get();
  top->op->AddConsumer(kPortOut, sink.get(), 0);
  plan.ops.push_back(std::move(sink));
  // Zone-map pruning is only sound when every consumer of the scan sees
  // just the predicate's TRUE rows; with all wiring done, that is exactly
  // the scans whose sole consumer is the candidate filter. (A bypass
  // filter never qualifies — its negative port needs the failing rows.)
  for (auto& [scan, pred] : zone_candidates) {
    if (scan->num_consumers(kPortOut) == 1) {
      scan->set_zone_filter(std::move(pred));
    }
  }
  plan.output_schema = root->schema();
  // Annotate each physical operator with its logical node's estimated
  // cardinality so the runtime can report per-operator q-errors.
  for (const auto& [logical, lowered] : memo) {
    PhysOp* phys = lowered.op;
    const auto it = estimates.find(logical);
    if (it == estimates.end()) continue;
    const PlanEstimate& est = it->second;
    phys->set_estimated_rows(kPortOut, est.rows);
    if (phys->num_out_ports() > 1) {
      phys->set_estimated_rows(kPortNegative, est.neg_rows);
    }
  }
  return plan;
}

const Schema* Planner::LayoutSchema(const LogicalOp& node,
                                    const std::vector<int>& cols,
                                    LoweringCtx* ctx) {
  if (static_cast<int>(cols.size()) == node.schema().num_columns()) {
    return &node.schema();
  }
  return &ctx->layouts->emplace_back(node.schema().Select(cols));
}

Status Planner::BindExprInPlace(Expr* expr, const Schema& input,
                                LoweringCtx* ctx) {
  switch (expr->kind()) {
    case ExprKind::kColumnRef: {
      auto* ref = static_cast<ColumnRefExpr*>(expr);
      if (ref->is_outer()) {
        if (ctx->outer_schema == nullptr) {
          return Status::BindError(
              "correlated reference without an enclosing block: " +
              ref->ToString());
        }
        BYPASS_ASSIGN_OR_RETURN(
            int slot,
            ctx->outer_schema->FindColumn(ref->qualifier(), ref->name()));
        ref->set_slot(slot);
      } else {
        BYPASS_ASSIGN_OR_RETURN(
            int slot, input.FindColumn(ref->qualifier(), ref->name()));
        ref->set_slot(slot);
      }
      return Status::OK();
    }
    case ExprKind::kSubquery: {
      auto* sq = static_cast<SubqueryExpr*>(expr);
      if (sq->probe() != nullptr) {
        BYPASS_RETURN_IF_ERROR(
            BindExprInPlace(sq->probe().get(), input, ctx));
      }
      if (sq->plan() == nullptr) {
        return Status::Internal("subquery without a logical plan");
      }
      // The block's free attributes index into *this* operator's input
      // row — that row becomes the subplan's outer row at runtime.
      std::vector<int> free_slots;
      for (const ColumnRefExpr* ref : CollectPlanOuterRefs(*sq->plan())) {
        BYPASS_ASSIGN_OR_RETURN(
            int slot, input.FindColumn(ref->qualifier(), ref->name()));
        free_slots.push_back(slot);
      }
      std::sort(free_slots.begin(), free_slots.end());
      free_slots.erase(
          std::unique(free_slots.begin(), free_slots.end()),
          free_slots.end());
      BYPASS_ASSIGN_OR_RETURN(PhysicalPlan inner_plan,
                              LowerPlan(sq->plan(), &input));
      auto subplan = std::make_shared<ExecSubplan>(
          std::move(inner_plan), std::move(free_slots),
          options_.memoize_subqueries);
      ctx->plan->subplans.push_back(subplan.get());
      sq->set_subplan(std::move(subplan));
      return Status::OK();
    }
    default: {
      for (const ExprPtr& c : expr->children()) {
        BYPASS_RETURN_IF_ERROR(BindExprInPlace(c.get(), input, ctx));
      }
      return Status::OK();
    }
  }
}

Result<ExprPtr> Planner::BindExpr(const ExprPtr& expr, const Schema& input,
                                  LoweringCtx* ctx) {
  ExprPtr bound = expr->Clone();
  BYPASS_RETURN_IF_ERROR(BindExprInPlace(bound.get(), input, ctx));
  return bound;
}

Result<const Planner::Lowered*> Planner::LowerNode(const LogicalOpPtr& node,
                                                   LoweringCtx* ctx,
                                                   LoweredMap* memo) {
  const auto it = memo->find(node.get());
  if (it != memo->end()) return &it->second;

  const auto& inputs = node->inputs();
  // Build rule: an inner equi join builds on its input with the smaller
  // estimated cardinality (ties keep the right input).
  bool swap = false;
  if (node->kind() == LogicalOpKind::kJoin) {
    const ExprPtr& pred = static_cast<const JoinOp&>(*node).predicate();
    for (const ExprPtr& c : SplitConjuncts(pred)) {
      swap = swap || IsHashKeyConjunct(*c);
    }
    swap = swap && EstimatedInputRows(*ctx->estimates, inputs[0]) <
                       EstimatedInputRows(*ctx->estimates, inputs[1]);
  }
  // Lower build sides before probe sides so their source pipelines run
  // first: right-to-left, or left-to-right for a swapped join.
  std::vector<const Lowered*> kids(inputs.size(), nullptr);
  for (size_t k = 0; k < inputs.size(); ++k) {
    const size_t i = swap ? k : inputs.size() - 1 - k;
    BYPASS_ASSIGN_OR_RETURN(kids[i], LowerNode(inputs[i].op, ctx, memo));
  }
  auto wire = [&](PhysOp* op, int in_port, size_t child_index) {
    kids[child_index]->op->AddConsumer(
        static_cast<int>(inputs[child_index].port), op, in_port);
  };
  // Most operators forward their input's layout unchanged.
  auto forward = [&](PhysOp* op) {
    return Lowered{op, kids[0]->cols, kids[0]->schema};
  };

  Lowered result;
  switch (node->kind()) {
    case LogicalOpKind::kGet: {
      const auto& get = static_cast<const GetOp&>(*node);
      BYPASS_ASSIGN_OR_RETURN(Table * table,
                              catalog_->GetTable(get.table_name()));
      if (table->schema().num_columns() != get.schema().num_columns()) {
        return Status::Internal("table schema changed under the plan: " +
                                get.table_name());
      }
      auto scan = std::make_unique<TableScanOp>(table);
      TableScanOp* raw = scan.get();
      ctx->plan->ops.push_back(std::move(scan));
      ctx->plan->sources.push_back(raw);
      result = Lowered{raw, AllColumns(get.schema().num_columns()),
                       &get.schema()};
      break;
    }
    case LogicalOpKind::kSelect: {
      const auto& sel = static_cast<const SelectOp&>(*node);
      BYPASS_ASSIGN_OR_RETURN(
          ExprPtr pred, BindExpr(sel.predicate(), *kids[0]->schema, ctx));
      // A filter directly over a scan is bound against the table schema,
      // making it a zone-map pruning candidate (installed by the
      // post-wiring pass if the scan gets no other consumer).
      if (auto* scan = dynamic_cast<TableScanOp*>(kids[0]->op)) {
        ctx->zone_candidates->emplace_back(scan, pred);
      }
      result = forward(
          Register(ctx, std::make_unique<FilterOp>(std::move(pred))));
      wire(result.op, 0, 0);
      break;
    }
    case LogicalOpKind::kBypassSelect: {
      const auto& sel = static_cast<const BypassSelectOp&>(*node);
      BYPASS_ASSIGN_OR_RETURN(
          ExprPtr pred, BindExpr(sel.predicate(), *kids[0]->schema, ctx));
      result = forward(Register(
          ctx, std::make_unique<BypassFilterOp>(std::move(pred))));
      wire(result.op, 0, 0);
      break;
    }
    case LogicalOpKind::kProject: {
      // Only the items some consumer reads are computed.
      const auto& proj = static_cast<const ProjectOp&>(*node);
      std::vector<int> required = ctx->required->Of(node.get());
      std::vector<ExprPtr> exprs;
      for (int i : required) {
        const ExprPtr& item = proj.items()[static_cast<size_t>(i)].expr;
        const auto* at = item->kind() == ExprKind::kColumnRef
                             ? static_cast<const ColumnRefExpr*>(item.get())
                             : nullptr;
        if (at != nullptr && at->position() >= 0) {
          // A reference by position names a logical input column; find
          // it in the input's layout.
          const int slot = PosOf(kids[0]->cols, at->position());
          if (slot < 0) {
            return Status::Internal("projection input lost column " +
                                    at->ToString());
          }
          ExprPtr e = item->Clone();
          static_cast<ColumnRefExpr*>(e.get())->set_slot(slot);
          exprs.push_back(std::move(e));
          continue;
        }
        BYPASS_ASSIGN_OR_RETURN(ExprPtr e,
                                BindExpr(item, *kids[0]->schema, ctx));
        exprs.push_back(std::move(e));
      }
      // Identity projections (every input column, in order) forward
      // batches untouched at execution time.
      bool identity = static_cast<int>(exprs.size()) ==
                      kids[0]->schema->num_columns();
      for (size_t i = 0; identity && i < exprs.size(); ++i) {
        const auto* ref = exprs[i]->kind() == ExprKind::kColumnRef
                              ? static_cast<const ColumnRefExpr*>(
                                    exprs[i].get())
                              : nullptr;
        identity = ref != nullptr && !ref->is_outer() &&
                   ref->slot() == static_cast<int>(i);
      }
      const Schema* schema = LayoutSchema(*node, required, ctx);
      result = Lowered{Register(ctx, std::make_unique<ProjectPhysOp>(
                                         std::move(exprs), identity)),
                       std::move(required), schema};
      wire(result.op, 0, 0);
      break;
    }
    case LogicalOpKind::kMap: {
      const auto& map = static_cast<const MapOp&>(*node);
      std::vector<ExprPtr> exprs;
      for (const NamedExpr& item : map.items()) {
        BYPASS_ASSIGN_OR_RETURN(ExprPtr e,
                                BindExpr(item.expr, *kids[0]->schema, ctx));
        exprs.push_back(std::move(e));
      }
      // The input's layout plus every appended item.
      std::vector<int> cols = kids[0]->cols;
      const int in_width = inputs[0].op->schema().num_columns();
      for (int i = in_width; i < node->schema().num_columns(); ++i) {
        cols.push_back(i);
      }
      result = Lowered{
          Register(ctx, std::make_unique<MapPhysOp>(std::move(exprs))),
          cols, LayoutSchema(*node, cols, ctx)};
      wire(result.op, 0, 0);
      break;
    }
    case LogicalOpKind::kDistinct: {
      // The gate's tables are checked when the δ is prepared, so a plan
      // cached before an append still deduplicates.
      result = forward(Register(
          ctx, std::make_unique<DistinctPhysOp>(
                   EstimatedInputRows(*ctx->estimates, inputs[0]),
                   ctx->distinct_gates->at(node.get()))));
      wire(result.op, 0, 0);
      break;
    }
    case LogicalOpKind::kNumbering: {
      std::vector<int> cols = kids[0]->cols;
      cols.push_back(node->schema().num_columns() - 1);
      result = Lowered{Register(ctx, std::make_unique<NumberingPhysOp>()),
                       cols, LayoutSchema(*node, cols, ctx)};
      wire(result.op, 0, 0);
      break;
    }
    case LogicalOpKind::kSort: {
      const auto& sort = static_cast<const SortOp&>(*node);
      std::vector<PhysSortKey> keys;
      // The translator computes every other key into a column below the
      // sort, so each key is a column of the input layout.
      for (const SortKey& k : sort.keys()) {
        BYPASS_ASSIGN_OR_RETURN(ExprPtr e,
                                BindExpr(k.expr, *kids[0]->schema, ctx));
        const auto* ref = e->kind() == ExprKind::kColumnRef
                              ? static_cast<const ColumnRefExpr*>(e.get())
                              : nullptr;
        if (ref == nullptr || ref->is_outer()) {
          return Status::Internal("sort key is not an input column: " +
                                  e->ToString());
        }
        keys.push_back(PhysSortKey{ref->slot(), k.descending});
      }
      result = forward(
          Register(ctx, std::make_unique<SortPhysOp>(std::move(keys))));
      wire(result.op, 0, 0);
      break;
    }
    case LogicalOpKind::kJoin:
    case LogicalOpKind::kLeftOuterJoin:
    case LogicalOpKind::kSemiJoin:
    case LogicalOpKind::kAntiJoin: {
      bool build_left = false;
      BYPASS_ASSIGN_OR_RETURN(
          result, LowerJoin(*node, *kids[0], *kids[1], swap, &build_left,
                            ctx));
      wire(result.op, build_left ? BinaryPhysOp::kRight : BinaryPhysOp::kLeft,
           0);
      wire(result.op, build_left ? BinaryPhysOp::kLeft : BinaryPhysOp::kRight,
           1);
      break;
    }
    case LogicalOpKind::kGroupBy: {
      const auto& gb = static_cast<const GroupByOp&>(*node);
      const Schema& input = *kids[0]->schema;
      std::vector<int> key_slots;
      for (const GroupKey& k : gb.keys()) {
        BYPASS_ASSIGN_OR_RETURN(int slot,
                                input.FindColumn(k.qualifier, k.name));
        key_slots.push_back(slot);
      }
      std::vector<AggregateSpec> aggs;
      for (const AggregateSpec& a : gb.aggregates()) {
        AggregateSpec bound = a.Clone();
        if (bound.arg != nullptr) {
          BYPASS_ASSIGN_OR_RETURN(bound.arg,
                                  BindExpr(bound.arg, input, ctx));
        }
        aggs.push_back(std::move(bound));
      }
      result = Lowered{Register(ctx, std::make_unique<HashGroupByOp>(
                                         std::move(key_slots),
                                         std::move(aggs), gb.scalar())),
                       AllColumns(node->schema().num_columns()),
                       &node->schema()};
      wire(result.op, 0, 0);
      break;
    }
    case LogicalOpKind::kBinaryGroupBy: {
      const auto& gb = static_cast<const BinaryGroupByOp&>(*node);
      const Lowered& left = *kids[0];
      const Lowered& right = *kids[1];
      BYPASS_ASSIGN_OR_RETURN(
          int left_slot,
          left.schema->FindColumn(gb.left_key().qualifier,
                                 gb.left_key().name));
      // The right side is buffered narrowed to its key and the aggregate
      // arguments.
      const Schema& right_logical = inputs[1].op->schema();
      std::vector<int> read;
      std::vector<int> keep;
      bool narrow = BinaryGroupByReads(gb, right_logical, &read);
      for (int c : read) {
        const int pos = PosOf(right.cols, c);
        narrow = narrow && pos >= 0;
        keep.push_back(pos);
      }
      narrow = narrow && keep.size() < right.cols.size();
      Schema narrowed;
      if (narrow) narrowed = right_logical.Select(read);
      const Schema& right_schema = narrow ? narrowed : *right.schema;
      BYPASS_ASSIGN_OR_RETURN(
          int right_slot,
          right_schema.FindColumn(gb.right_key().qualifier,
                                  gb.right_key().name));
      std::vector<AggregateSpec> aggs;
      for (const AggregateSpec& a : gb.aggregates()) {
        AggregateSpec bound = a.Clone();
        if (bound.arg != nullptr) {
          BYPASS_ASSIGN_OR_RETURN(bound.arg,
                                  BindExpr(bound.arg, right_schema, ctx));
        }
        aggs.push_back(std::move(bound));
      }
      BinaryPhysOp* op = nullptr;
      if (gb.compare_op() == CompareOp::kEq) {
        op = Register(ctx, std::make_unique<BinaryGroupByHashOp>(
                               left_slot, right_slot, std::move(aggs)));
      } else {
        op = Register(ctx, std::make_unique<BinaryGroupByNLOp>(
                               left_slot, gb.compare_op(), right_slot,
                               std::move(aggs)));
      }
      if (narrow) op->set_right_keep(std::move(keep));
      // The left layout plus the appended aggregates.
      std::vector<int> cols = left.cols;
      for (int i = inputs[0].op->schema().num_columns();
           i < node->schema().num_columns(); ++i) {
        cols.push_back(i);
      }
      result = Lowered{op, cols, LayoutSchema(*node, cols, ctx)};
      wire(op, BinaryPhysOp::kLeft, 0);
      wire(op, BinaryPhysOp::kRight, 1);
      break;
    }
    case LogicalOpKind::kLimit: {
      const auto& limit = static_cast<const LimitOp&>(*node);
      result = forward(
          Register(ctx, std::make_unique<LimitPhysOp>(limit.count())));
      wire(result.op, 0, 0);
      break;
    }
    case LogicalOpKind::kUnion: {
      // Inputs must arrive in one layout: the union's required columns.
      std::vector<int> required = ctx->required->Of(node.get());
      // An input that materializes more (a shared σ± branch whose other
      // stream reads extra columns) is narrowed by a column-copy Π.
      PhysOp* op = Register(ctx, std::make_unique<UnionAllOp>(
                                     static_cast<int>(inputs.size())));
      for (size_t i = 0; i < inputs.size(); ++i) {
        const Lowered& in = *kids[i];
        if (in.cols == required) {
          wire(op, static_cast<int>(i), i);
          continue;
        }
        std::vector<ExprPtr> exprs;
        for (int c : required) {
          const int pos = PosOf(in.cols, c);
          if (pos < 0) {
            return Status::Internal("union input lost a required column");
          }
          const ColumnDef& def = in.schema->column(pos);
          auto ref = std::make_shared<ColumnRefExpr>(def.qualifier,
                                                     def.name, false);
          ref->set_slot(pos);
          exprs.push_back(std::move(ref));
        }
        PhysOp* narrow =
            Register(ctx, std::make_unique<ProjectPhysOp>(std::move(exprs)));
        in.op->AddConsumer(static_cast<int>(inputs[i].port), narrow, 0);
        narrow->AddConsumer(kPortOut, op, static_cast<int>(i));
      }
      const Schema* schema = LayoutSchema(*node, required, ctx);
      result = Lowered{op, std::move(required), schema};
      break;
    }
  }
  BYPASS_CHECK(result.op != nullptr);
  return &memo->emplace(node.get(), std::move(result)).first->second;
}

Result<Planner::Lowered> Planner::LowerJoin(const LogicalOp& node,
                                            const Lowered& left,
                                            const Lowered& right, bool swap,
                                            bool* build_left,
                                            LoweringCtx* ctx) {
  const LogicalOpKind kind = node.kind();
  const Schema& left_logical = node.inputs()[0].op->schema();
  const Schema& right_logical = node.inputs()[1].op->schema();
  const int lw = left_logical.num_columns();
  const bool existence =
      kind == LogicalOpKind::kSemiJoin || kind == LogicalOpKind::kAntiJoin;
  ExprPtr pred;
  JoinKind join_kind;
  switch (kind) {
    case LogicalOpKind::kJoin:
      pred = static_cast<const JoinOp&>(node).predicate();
      join_kind = JoinKind::kInner;
      break;
    case LogicalOpKind::kLeftOuterJoin:
      pred = static_cast<const LeftOuterJoinOp&>(node).predicate();
      join_kind = JoinKind::kLeftOuter;
      break;
    case LogicalOpKind::kSemiJoin:
      pred = static_cast<const SemiJoinOp&>(node).predicate();
      join_kind = JoinKind::kSemi;
      break;
    default:
      pred = static_cast<const AntiJoinOp&>(node).predicate();
      join_kind = JoinKind::kAnti;
      break;
  }

  // Keys are the predicate's column equalities and everything else is
  // the residual, for every kind; only an inner join may build left.
  EquiSplit split = SplitEquiPred(pred, *left.schema, *right.schema);
  const bool keyed = !split.left_slots.empty();
  const ExprPtr evaluated =
      !keyed ? pred
      : split.residual_conjuncts.empty() ? nullptr
                                         : MakeAnd(split.residual_conjuncts);
  *build_left = keyed && swap;

  // The logical schema the join's columns are numbered in, the columns
  // it emits (in logical left-then-right order) and the predicate-only
  // tail. Existence joins emit their left rows unchanged.
  const Schema concat = existence
                            ? Schema::Concat(left_logical, right_logical)
                            : Schema();
  const Schema& logical = existence ? concat : node.schema();
  std::vector<int> gathered =
      existence ? std::vector<int>{} : ctx->required->Of(&node);
  const size_t out_width = gathered.size();
  if (evaluated != nullptr) {
    // An unresolvable reference surfaces when the predicate is bound.
    std::vector<int> read;
    CollectExprColumns(*evaluated, logical, &read);
    std::sort(read.begin(), read.end());
    read.erase(std::unique(read.begin(), read.end()), read.end());
    for (int c : read) {
      if (!std::binary_search(gathered.begin(),
                              gathered.begin() +
                                  static_cast<ptrdiff_t>(out_width),
                              c)) {
        gathered.push_back(c);
      }
    }
  }

  // Locate each gathered column in its input's layout; the build input
  // keeps exactly those plus its keys.
  std::vector<int>& probe_keys =
      *build_left ? split.right_slots : split.left_slots;
  std::vector<int>& build_keys =
      *build_left ? split.left_slots : split.right_slots;
  const Lowered& build_in = *build_left ? left : right;
  std::vector<GatherCol> cols;
  cols.reserve(gathered.size());
  std::vector<int> build_keep = build_keys;
  for (int c : gathered) {
    const bool from_left = c < lw;
    const int pos =
        PosOf(from_left ? left.cols : right.cols, from_left ? c : c - lw);
    if (pos < 0) {
      return Status::Internal("join input lost column " +
                              logical.column(c).name);
    }
    const JoinSide side =
        from_left == *build_left ? JoinSide::kBuild : JoinSide::kProbe;
    cols.push_back(GatherCol{side, pos});
    if (side == JoinSide::kBuild) build_keep.push_back(pos);
  }
  std::sort(build_keep.begin(), build_keep.end());
  build_keep.erase(std::unique(build_keep.begin(), build_keep.end()),
                   build_keep.end());
  for (GatherCol& c : cols) {
    if (c.side == JoinSide::kBuild) c.slot = PosOf(build_keep, c.slot);
  }
  for (int& k : build_keys) k = PosOf(build_keep, k);

  const Schema gathered_schema = logical.Select(gathered);
  ExprPtr bound;
  if (evaluated != nullptr) {
    BYPASS_ASSIGN_OR_RETURN(bound,
                            BindExpr(evaluated, gathered_schema, ctx));
  }

  // The left outer join's padding row in the buffered build layout:
  // NULLs except the kept aggregate columns' f(∅) defaults.
  Row unmatched;
  if (join_kind == JoinKind::kLeftOuter) {
    const auto& loj = static_cast<const LeftOuterJoinOp&>(node);
    unmatched = Row(build_keep.size(), Value::Null());
    for (const auto& [name, value] : loj.unmatched_defaults()) {
      BYPASS_ASSIGN_OR_RETURN(int c, right_logical.FindColumn("", name));
      const int k = PosOf(build_keep, PosOf(right.cols, c));
      if (k >= 0) unmatched[static_cast<size_t>(k)] = value;
    }
  }
  auto op = std::make_unique<HashJoinOp>(
      join_kind, std::move(probe_keys), std::move(build_keys),
      std::move(bound), std::move(unmatched));
  if (build_keep.size() < build_in.cols.size()) {
    op->set_right_keep(build_keep);
  }
  op->set_gather(JoinGather(std::move(cols), out_width,
                            existence ? 0 : logical.num_columns(),
                            *build_left));
  BinaryPhysOp* raw = Register(ctx, std::move(op));
  if (existence) return Lowered{raw, left.cols, left.schema};
  gathered.resize(out_width);
  const Schema* out_schema = LayoutSchema(node, gathered, ctx);
  return Lowered{raw, std::move(gathered), out_schema};
}

}  // namespace bypass
