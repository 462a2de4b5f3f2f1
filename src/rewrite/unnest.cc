#include "rewrite/unnest.h"

#include <algorithm>
#include <functional>
#include <iomanip>
#include <memory>
#include <optional>
#include <sstream>

#include "algebra/plan_util.h"
#include "common/check.h"
#include "expr/expr_util.h"
#include "planner/cost_model.h"
#include "rewrite/rank.h"
#include "stats/plan_stats.h"

namespace bypass {

namespace {

LogicalInput Out(LogicalOpPtr op) {
  return LogicalInput{std::move(op), StreamPort::kOut};
}

LogicalInput Neg(LogicalOpPtr op) {
  return LogicalInput{std::move(op), StreamPort::kNegative};
}

/// Clone with every correlated reference turned into a local one (used
/// when an expression moves from a nested block into a context where the
/// outer block's columns are locally available). Does not descend into
/// nested subquery plans: their outer references target a different block.
ExprPtr LocalizeOuterRefs(const ExprPtr& e) {
  ExprPtr copy = e->Clone();
  VisitExprMutable(copy.get(), [](Expr* node) {
    if (node->kind() == ExprKind::kColumnRef) {
      static_cast<ColumnRefExpr*>(node)->set_is_outer(false);
    }
  });
  return copy;
}

/// All column refs are outer and there is no subquery: the expression can
/// be evaluated against the enclosing block alone.
bool IsPureOuter(const ExprPtr& e) {
  if (ContainsSubquery(e)) return false;
  bool any = false, all = true;
  VisitExpr(e, [&](const ExprPtr& n) {
    if (n->kind() == ExprKind::kColumnRef) {
      any = true;
      if (!static_cast<const ColumnRefExpr*>(n.get())->is_outer()) {
        all = false;
      }
    }
  });
  return any && all;
}

/// No outer refs and no subquery: evaluable against the block itself.
bool IsPureInner(const ExprPtr& e) {
  return !ContainsSubquery(e) && !ContainsOuterRef(e);
}

/// A disjunct of the form `other θ (scalar subquery)` (either side).
struct ScalarLinking {
  ExprPtr other;                      // the non-subquery side
  std::shared_ptr<SubqueryExpr> sq;   // the scalar block
  CompareOp op;                       // oriented as other θ sq
};

std::optional<ScalarLinking> MatchScalarLinking(const ExprPtr& d) {
  if (d->kind() != ExprKind::kComparison) return std::nullopt;
  const auto* cmp = static_cast<const ComparisonExpr*>(d.get());
  auto is_scalar_sq = [](const ExprPtr& e) {
    return e->kind() == ExprKind::kSubquery &&
           static_cast<const SubqueryExpr*>(e.get())->subquery_kind() ==
               SubqueryKind::kScalar;
  };
  if (is_scalar_sq(cmp->right()) && !ContainsSubquery(cmp->left())) {
    return ScalarLinking{
        cmp->left(),
        std::static_pointer_cast<SubqueryExpr>(cmp->right()), cmp->op()};
  }
  if (is_scalar_sq(cmp->left()) && !ContainsSubquery(cmp->right())) {
    return ScalarLinking{
        cmp->right(),
        std::static_pointer_cast<SubqueryExpr>(cmp->left()),
        FlipCompareOp(cmp->op())};
  }
  return std::nullopt;
}

/// The aggregate shape of a translated scalar block:
/// [Project(one column)] over GroupBy(scalar, one aggregate) over inner.
struct BlockShape {
  AggregateSpec agg;      // the top-level aggregate f
  LogicalOpPtr inner;     // the block's relation below the aggregation
};

std::optional<BlockShape> MatchAggregateBlock(const LogicalOpPtr& block) {
  const LogicalOp* node = block.get();
  if (node->kind() == LogicalOpKind::kProject) {
    const auto* proj = static_cast<const ProjectOp*>(node);
    if (proj->items().size() != 1) return std::nullopt;
    if (proj->items()[0].expr->kind() != ExprKind::kColumnRef) {
      return std::nullopt;
    }
    node = proj->inputs()[0].op.get();
  }
  if (node->kind() != LogicalOpKind::kGroupBy) return std::nullopt;
  const auto* gb = static_cast<const GroupByOp*>(node);
  if (!gb->scalar() || gb->aggregates().size() != 1) return std::nullopt;
  return BlockShape{gb->aggregates()[0].Clone(), gb->inputs()[0].op};
}

/// Correlation spine analysis of a block's relation: merges the Select
/// operators above the first non-Select node, separating correlated
/// conjuncts (the correlation predicates the equivalences act on) from
/// local ones.
struct CorrelationAnalysis {
  bool ok = false;
  LogicalOpPtr stripped;                 // relation with correlation removed
  std::vector<ExprPtr> corr_conjuncts;   // conjunctive correlated comparisons
  ExprPtr disjunctive;                   // OR conjunct containing correlation
};

CorrelationAnalysis AnalyzeCorrelation(const LogicalOpPtr& inner) {
  CorrelationAnalysis out;
  std::vector<ExprPtr> kept;
  LogicalOpPtr node = inner;
  while (node->kind() == LogicalOpKind::kSelect) {
    const auto* sel = static_cast<const SelectOp*>(node.get());
    for (const ExprPtr& c : SplitConjuncts(sel->predicate())) {
      if (!ContainsOuterRef(c)) {
        kept.push_back(c);
        continue;
      }
      if (c->kind() == ExprKind::kComparison && !ContainsSubquery(c)) {
        out.corr_conjuncts.push_back(c);
        continue;
      }
      if (c->kind() == ExprKind::kOr) {
        if (out.disjunctive != nullptr) return out;  // only one supported
        out.disjunctive = c;
        continue;
      }
      return out;  // correlated non-comparison conjunct: unsupported
    }
    node = sel->inputs()[0].op;
  }
  // Correlation below the select spine (inside joins/groupings) is beyond
  // the supported shapes.
  if (PlanIsCorrelated(*node)) return out;
  if (!kept.empty()) {
    node = std::make_shared<SelectOp>(Out(node), MakeAnd(std::move(kept)));
  }
  out.stripped = std::move(node);
  out.ok = true;
  return out;
}

/// An oriented correlation comparison: outer_side θ inner_side.
struct OrientedCorrelation {
  ExprPtr outer_side;  // still carrying is_outer flags
  CompareOp op;
  ExprPtr inner_side;
};

std::optional<OrientedCorrelation> OrientCorrelation(const ExprPtr& c) {
  if (c->kind() != ExprKind::kComparison) return std::nullopt;
  const auto* cmp = static_cast<const ComparisonExpr*>(c.get());
  if (IsPureOuter(cmp->left()) && IsPureInner(cmp->right())) {
    return OrientedCorrelation{cmp->left(), cmp->op(), cmp->right()};
  }
  if (IsPureOuter(cmp->right()) && IsPureInner(cmp->left())) {
    return OrientedCorrelation{cmp->right(), FlipCompareOp(cmp->op()),
                               cmp->left()};
  }
  return std::nullopt;
}

/// fI of the paper's decomposition (Sec. 3.3): the partial aggregates
/// computed on each disjoint subset. avg needs (sum, count); the rest map
/// to themselves.
std::vector<AggregateSpec> MakePartialSpecs(const AggregateSpec& f) {
  std::vector<AggregateSpec> out;
  if (f.func == AggFunc::kAvg) {
    AggregateSpec sum;
    sum.func = AggFunc::kSum;
    sum.arg = f.arg ? f.arg->Clone() : nullptr;
    AggregateSpec count;
    count.func = AggFunc::kCount;
    count.arg = f.arg ? f.arg->Clone() : nullptr;
    out.push_back(std::move(sum));
    out.push_back(std::move(count));
  } else {
    AggregateSpec partial;
    partial.func = f.func;
    partial.arg = f.arg ? f.arg->Clone() : nullptr;
    out.push_back(std::move(partial));
  }
  return out;
}

/// fO: recombines the partial columns into the total aggregate. NULL-aware
/// (sum(∅) is NULL, empty sides contribute nothing).
ExprPtr CombinePartials(const AggregateSpec& f,
                        const std::vector<std::string>& g1,
                        const std::vector<std::string>& g2) {
  auto ref = [](const std::string& name) { return MakeColumnRef("", name); };
  auto func = [](BuiltinFunc fn, std::vector<ExprPtr> args) {
    return ExprPtr(std::make_shared<FunctionExpr>(fn, std::move(args)));
  };
  switch (f.func) {
    case AggFunc::kCount:
    case AggFunc::kSum:
      return func(BuiltinFunc::kAddIgnoreNull, {ref(g1[0]), ref(g2[0])});
    case AggFunc::kMin:
      return func(BuiltinFunc::kLeastIgnoreNull, {ref(g1[0]), ref(g2[0])});
    case AggFunc::kMax:
      return func(BuiltinFunc::kGreatestIgnoreNull,
                  {ref(g1[0]), ref(g2[0])});
    case AggFunc::kAvg:
      return func(
          BuiltinFunc::kDivOrNullIfZero,
          {func(BuiltinFunc::kAddIgnoreNull, {ref(g1[0]), ref(g2[0])}),
           func(BuiltinFunc::kAddIgnoreNull, {ref(g1[1]), ref(g2[1])})});
  }
  BYPASS_UNREACHABLE("bad AggFunc");
}

/// Same (qualifier, name) column list?
bool SameColumns(const Schema& a, const Schema& b) {
  if (a.num_columns() != b.num_columns()) return false;
  for (int i = 0; i < a.num_columns(); ++i) {
    if (a.column(i).name != b.column(i).name ||
        a.column(i).qualifier != b.column(i).qualifier) {
      return false;
    }
  }
  return true;
}

/// Applies `wrap` to the input of `rel` that owns every column of `cols`,
/// descending through inner joins. Any other node kind, or columns
/// spanning both inputs of a join, take it at `rel` itself.
LogicalInput WrapOwningInput(
    const LogicalInput& rel, const std::vector<const ColumnRefExpr*>& cols,
    const std::function<LogicalOpPtr(LogicalInput)>& wrap) {
  if (rel.op->kind() == LogicalOpKind::kJoin) {
    std::vector<LogicalInput> inputs = rel.op->inputs();
    for (LogicalInput& in : inputs) {
      const Schema& schema = in.op->schema();
      const bool owns = std::all_of(
          cols.begin(), cols.end(), [&schema](const ColumnRefExpr* c) {
            return schema.HasColumn(c->qualifier(), c->name());
          });
      if (owns) {
        in = WrapOwningInput(in, cols, wrap);
        return Out(rel.op->WithNewInputs(std::move(inputs)));
      }
    }
  }
  return Out(wrap(rel));
}

}  // namespace

std::string UnnestingRewriter::FreshName(const char* prefix) {
  return std::string("$") + prefix + std::to_string(name_counter_++);
}

Result<LogicalOpPtr> UnnestingRewriter::Rewrite(LogicalOpPtr plan) {
  if (!options_.enable_unnesting) return plan;
  for (int pass = 0; pass < options_.max_passes; ++pass) {
    changed_ = false;
    std::unordered_map<const LogicalOp*, LogicalOpPtr> memo;
    BYPASS_ASSIGN_OR_RETURN(plan, RewriteNode(plan, &memo));
    if (!changed_) break;
  }
  return plan;
}

Result<LogicalOpPtr> UnnestingRewriter::RewriteNode(
    const LogicalOpPtr& node,
    std::unordered_map<const LogicalOp*, LogicalOpPtr>* memo) {
  const auto it = memo->find(node.get());
  if (it != memo->end()) return it->second;

  std::vector<LogicalInput> new_inputs;
  bool inputs_changed = false;
  for (const LogicalInput& in : node->inputs()) {
    BYPASS_ASSIGN_OR_RETURN(LogicalOpPtr child, RewriteNode(in.op, memo));
    if (child != in.op) inputs_changed = true;
    new_inputs.push_back(LogicalInput{std::move(child), in.port});
  }

  LogicalOpPtr result;
  if (node->kind() == LogicalOpKind::kSelect) {
    const auto& select = static_cast<const SelectOp&>(*node);
    if (ContainsSubquery(select.predicate())) {
      BYPASS_ASSIGN_OR_RETURN(
          LogicalOpPtr rewritten,
          TryRewriteSelect(select, new_inputs[0]));
      if (rewritten != nullptr) {
        changed_ = true;
        memo->emplace(node.get(), rewritten);
        return rewritten;
      }
    }
  } else if (node->kind() == LogicalOpKind::kProject) {
    const auto& project = static_cast<const ProjectOp&>(*node);
    bool has_subquery = false;
    for (const NamedExpr& item : project.items()) {
      if (ContainsSubquery(item.expr)) has_subquery = true;
    }
    if (has_subquery) {
      BYPASS_ASSIGN_OR_RETURN(
          LogicalOpPtr rewritten,
          TryRewriteProject(project, new_inputs[0]));
      if (rewritten != nullptr) {
        changed_ = true;
        memo->emplace(node.get(), rewritten);
        return rewritten;
      }
    }
  }
  if (inputs_changed) {
    result = node->WithNewInputs(std::move(new_inputs));
  } else {
    result = node;
  }
  memo->emplace(node.get(), result);
  return result;
}

Result<LogicalOpPtr> UnnestingRewriter::TryRewriteSelect(
    const SelectOp& select, LogicalInput input) {
  std::vector<ExprPtr> plain;
  std::vector<ExprPtr> nested;
  for (const ExprPtr& c : SplitConjuncts(select.predicate())) {
    (ContainsSubquery(c) ? nested : plain).push_back(c);
  }
  if (nested.empty()) return LogicalOpPtr(nullptr);

  LogicalInput stream = input;
  if (!plain.empty()) {
    // Cheap subquery-free conjuncts filter the stream first.
    stream = Out(std::make_shared<SelectOp>(stream, MakeAnd(plain)));
  }

  // Unnest the first conjunct that matches a supported shape; the rest
  // are re-attached and handled by subsequent fixpoint passes.
  for (size_t i = 0; i < nested.size(); ++i) {
    BYPASS_ASSIGN_OR_RETURN(LogicalOpPtr cascade,
                            RewriteConjunct(stream, nested[i]));
    if (cascade == nullptr) continue;
    std::vector<ExprPtr> rest;
    for (size_t j = 0; j < nested.size(); ++j) {
      if (j != i) rest.push_back(nested[j]);
    }
    if (rest.empty()) return cascade;
    return LogicalOpPtr(std::make_shared<SelectOp>(Out(std::move(cascade)),
                                                   MakeAnd(std::move(rest))));
  }
  return LogicalOpPtr(nullptr);
}

Result<ExprPtr> UnnestingRewriter::RewriteItemExpr(const ExprPtr& expr,
                                                   LogicalInput* current) {
  switch (expr->kind()) {
    case ExprKind::kSubquery: {
      const auto* sq = static_cast<const SubqueryExpr*>(expr.get());
      if (sq->subquery_kind() != SubqueryKind::kScalar) {
        return ExprPtr(nullptr);  // EXISTS/IN as a value: keep canonical
      }
      BYPASS_ASSIGN_OR_RETURN(ExtendedValue ext,
                              UnnestScalarBlock(*current, *sq));
      if (ext.stream == nullptr) return ExprPtr(nullptr);
      *current = Out(ext.stream);
      return ext.value;
    }
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
      return expr->Clone();
    default: {
      if (!ContainsSubquery(expr)) return expr->Clone();
      // Rebuild the node around recursively rewritten children.
      std::vector<ExprPtr> children;
      for (const ExprPtr& c : expr->children()) {
        BYPASS_ASSIGN_OR_RETURN(ExprPtr rewritten,
                                RewriteItemExpr(c, current));
        if (rewritten == nullptr) return ExprPtr(nullptr);
        children.push_back(std::move(rewritten));
      }
      switch (expr->kind()) {
        case ExprKind::kComparison: {
          const auto* cmp = static_cast<const ComparisonExpr*>(expr.get());
          return MakeComparison(cmp->op(), std::move(children[0]),
                                std::move(children[1]));
        }
        case ExprKind::kAnd:
          return MakeAnd(std::move(children));
        case ExprKind::kOr:
          return MakeOr(std::move(children));
        case ExprKind::kNot:
          return MakeNot(std::move(children[0]));
        case ExprKind::kArithmetic: {
          const auto* a = static_cast<const ArithmeticExpr*>(expr.get());
          return ExprPtr(std::make_shared<ArithmeticExpr>(
              a->op(), std::move(children[0]), std::move(children[1])));
        }
        case ExprKind::kLike: {
          const auto* like = static_cast<const LikeExpr*>(expr.get());
          return ExprPtr(std::make_shared<LikeExpr>(
              std::move(children[0]), like->pattern(), like->negated()));
        }
        case ExprKind::kIsNull: {
          const auto* isnull = static_cast<const IsNullExpr*>(expr.get());
          return ExprPtr(std::make_shared<IsNullExpr>(
              std::move(children[0]), isnull->negated()));
        }
        case ExprKind::kFunction: {
          const auto* fn = static_cast<const FunctionExpr*>(expr.get());
          return ExprPtr(std::make_shared<FunctionExpr>(
              fn->func(), std::move(children)));
        }
        default:
          return ExprPtr(nullptr);
      }
    }
  }
}

Result<LogicalOpPtr> UnnestingRewriter::TryRewriteProject(
    const ProjectOp& project, LogicalInput input) {
  const LogMark log_mark = Mark();
  LogicalInput current = input;
  std::vector<NamedExpr> items;
  for (const NamedExpr& item : project.items()) {
    BYPASS_ASSIGN_OR_RETURN(ExprPtr rewritten,
                            RewriteItemExpr(item.expr, &current));
    if (rewritten == nullptr) {
      Rollback(log_mark);
      return LogicalOpPtr(nullptr);
    }
    items.push_back(NamedExpr{std::move(rewritten), item.name,
                              item.qualifier});
  }
  if (current.op == input.op) {
    // No block was actually unnested.
    Rollback(log_mark);
    return LogicalOpPtr(nullptr);
  }
  // The projection naturally drops the helper ($g, ...) columns.
  return LogicalOpPtr(
      std::make_shared<ProjectOp>(current, std::move(items)));
}

Result<LogicalOpPtr> UnnestingRewriter::RewriteConjunct(
    LogicalInput stream, const ExprPtr& conjunct) {
  struct CascadeItem {
    enum Kind { kSimple, kScalar, kQuantified } kind;
    ExprPtr pred;  // simple predicate / linking comparison / SubqueryExpr
    double rank = 0;
  };

  // With a catalog wired in, ranks are data-driven: selectivities come
  // from the outer stream's base-table statistics and each nested block
  // is charged its own estimated plan cost instead of the textbook
  // per-tuple constant.
  std::unique_ptr<PlanStatsProvider> stats;
  if (options_.catalog != nullptr) {
    stats = std::make_unique<PlanStatsProvider>(options_.catalog,
                                                stream.op);
  }

  std::vector<CascadeItem> items;
  for (const ExprPtr& d : SplitDisjuncts(conjunct)) {
    CascadeItem item;
    item.pred = d;
    if (!ContainsSubquery(d)) {
      item.kind = CascadeItem::kSimple;
    } else if (MatchScalarLinking(d).has_value()) {
      item.kind = CascadeItem::kScalar;
    } else if (d->kind() == ExprKind::kSubquery &&
               static_cast<const SubqueryExpr*>(d.get())
                       ->subquery_kind() != SubqueryKind::kScalar) {
      if (!options_.enable_quantified) return LogicalOpPtr(nullptr);
      item.kind = CascadeItem::kQuantified;
    } else {
      return LogicalOpPtr(nullptr);  // unsupported disjunct shape
    }
    double sub_cost = options_.subquery_cost;
    if (options_.catalog != nullptr && item.kind != CascadeItem::kSimple) {
      // Average the blocks' estimated costs (almost always one block per
      // disjunct) since EstimateCost charges `sub_cost` per occurrence.
      double block_cost = 0;
      int blocks = 0;
      VisitExpr(d, [&](const ExprPtr& e) {
        if (e->kind() != ExprKind::kSubquery) return;
        const auto* sq = static_cast<const SubqueryExpr*>(e.get());
        if (sq->plan() == nullptr) return;
        block_cost += EstimatePlan(*sq->plan(), options_.catalog).cost;
        ++blocks;
      });
      if (blocks > 0) sub_cost = std::max(block_cost / blocks, 1.0);
    }
    item.rank = PredicateRank(*d, sub_cost, stats.get());
    items.push_back(std::move(item));
  }

  switch (options_.disjunct_order) {
    case DisjunctOrder::kByRank:
      std::stable_sort(items.begin(), items.end(),
                       [](const CascadeItem& a, const CascadeItem& b) {
                         return a.rank < b.rank;
                       });
      break;
    case DisjunctOrder::kSimpleFirst:
      std::stable_partition(items.begin(), items.end(),
                            [](const CascadeItem& item) {
                              return item.kind == CascadeItem::kSimple;
                            });
      break;
    case DisjunctOrder::kSubqueryFirst:
      std::stable_partition(items.begin(), items.end(),
                            [](const CascadeItem& item) {
                              return item.kind != CascadeItem::kSimple;
                            });
      break;
  }

  const LogMark log_mark = Mark();
  if (items.size() > 1) {
    LogRule(items[0].kind == CascadeItem::kSimple ? "Eqv.2" : "Eqv.3");
  }

  const Schema base = stream.op->schema();
  std::vector<LogicalInput> branches;
  LogicalInput current = stream;

  auto align = [&base](LogicalInput in) -> LogicalInput {
    if (SameColumns(in.op->schema(), base)) return in;
    return Out(ProjectToColumns(std::move(in), base));
  };

  for (size_t i = 0; i < items.size(); ++i) {
    const CascadeItem& item = items[i];
    const bool last = (i + 1 == items.size());
    switch (item.kind) {
      case CascadeItem::kSimple: {
        if (last) {
          branches.push_back(align(
              Out(std::make_shared<SelectOp>(current, item.pred))));
        } else {
          auto bp = std::make_shared<BypassSelectOp>(current, item.pred);
          branches.push_back(align(Out(bp)));
          current = Neg(bp);
        }
        break;
      }
      case CascadeItem::kScalar: {
        BYPASS_ASSIGN_OR_RETURN(Extended ext,
                                ExtendWithAggregate(current, item.pred));
        if (ext.stream == nullptr) {
          // Unsupported inner shape: roll back this conjunct entirely.
          Rollback(log_mark);
          return LogicalOpPtr(nullptr);
        }
        if (last) {
          branches.push_back(align(Out(std::make_shared<SelectOp>(
              Out(ext.stream), ext.link_pred))));
        } else {
          auto bp = std::make_shared<BypassSelectOp>(Out(ext.stream),
                                                     ext.link_pred);
          branches.push_back(align(Out(bp)));
          // The negative stream still carries the helper columns ($g,
          // $t, ...); project them away before the next cascade stage.
          current = Out(ProjectToColumns(Neg(bp), base));
        }
        break;
      }
      case CascadeItem::kQuantified: {
        const auto* sq = static_cast<const SubqueryExpr*>(item.pred.get());
        BYPASS_ASSIGN_OR_RETURN(QuantifiedSplit split,
                                SplitQuantified(current, *sq));
        if (split.positive == nullptr) {
          Rollback(log_mark);
          return LogicalOpPtr(nullptr);
        }
        branches.push_back(align(Out(split.positive)));
        // The remainder (complementary existence join) feeds the next
        // stage; when this disjunct is last it is simply unused.
        if (!last) current = Out(split.remainder);
        break;
      }
    }
  }

  if (branches.size() == 1) {
    return branches[0].port == StreamPort::kOut
               ? branches[0].op
               : ProjectToColumns(branches[0], base);
  }
  LogicalOpPtr result = branches[0].op;
  for (size_t i = 1; i < branches.size(); ++i) {
    result = std::make_shared<UnionOp>(Out(result), branches[i]);
  }
  return result;
}

Result<UnnestingRewriter::Extended> UnnestingRewriter::ExtendWithAggregate(
    LogicalInput stream, const ExprPtr& comparison) {
  auto linking = MatchScalarLinking(comparison);
  BYPASS_CHECK(linking.has_value());
  BYPASS_ASSIGN_OR_RETURN(ExtendedValue ext,
                          UnnestScalarBlock(stream, *linking->sq));
  if (ext.stream == nullptr) return Extended{nullptr, nullptr};
  return Extended{ext.stream,
                  MakeComparison(linking->op, linking->other->Clone(),
                                 ext.value)};
}

Result<UnnestingRewriter::ExtendedValue>
UnnestingRewriter::UnnestScalarBlock(LogicalInput stream,
                                     const SubqueryExpr& subquery) {
  const ExtendedValue kUnsupported{nullptr, nullptr};

  // Work on a private copy of the block plan; bail-outs must leave the
  // original untouched.
  LogicalOpPtr block = CloneLogicalPlan(subquery.plan());
  if (block == nullptr) return kUnsupported;

  auto shape = MatchAggregateBlock(block);
  if (!shape.has_value()) return kUnsupported;  // non-aggregate scalar
  const AggregateSpec& f = shape->agg;
  if (f.arg != nullptr && ContainsOuterRef(f.arg)) return kUnsupported;

  // ---- Type A: uncorrelated block — materialize once, cross join. ----
  if (!PlanIsCorrelated(*block)) {
    LogRule("TypeA");
    const std::string g = block->schema().column(0).name;
    auto joined = std::make_shared<JoinOp>(stream, Out(block), nullptr);
    return ExtendedValue{joined, MakeColumnRef("", g)};
  }

  CorrelationAnalysis analysis = AnalyzeCorrelation(shape->inner);
  if (!analysis.ok) return kUnsupported;

  const std::string g = FreshName("g");

  // ---- Conjunctive correlation: Eqv. 1 (or binary grouping for θ2≠=).
  if (analysis.disjunctive == nullptr) {
    if (analysis.corr_conjuncts.empty()) return kUnsupported;
    std::vector<OrientedCorrelation> oriented;
    for (const ExprPtr& c : analysis.corr_conjuncts) {
      auto o = OrientCorrelation(c);
      if (!o.has_value()) return kUnsupported;
      oriented.push_back(std::move(*o));
    }
    bool all_eq = true;
    for (const auto& o : oriented) {
      if (o.op != CompareOp::kEq) all_eq = false;
    }

    if (all_eq) {
      // Eqv. 1: Γ on the inner correlation columns + left outer join
      // with default g := f(∅). The keys always surface under fresh
      // names so the grouped relation never re-exposes inner column
      // names (the block may scan the same tables as the outer one,
      // e.g. Query 2d): bare column keys via the group key's output
      // alias, computed keys via a χ materializing them.
      LogicalOpPtr inner_rel = analysis.stripped;
      std::vector<GroupKey> keys;
      std::vector<NamedExpr> key_maps;
      std::vector<ExprPtr> inner_keys;
      std::vector<ExprPtr> outer_keys;
      for (const auto& o : oriented) {
        const std::string k = FreshName("k");
        const auto* ref =
            o.inner_side->kind() == ExprKind::kColumnRef
                ? static_cast<const ColumnRefExpr*>(o.inner_side.get())
                : nullptr;
        if (ref != nullptr && !ref->is_outer()) {
          keys.push_back(GroupKey{ref->qualifier(), ref->name(), k});
          inner_keys.push_back(o.inner_side->Clone());
        } else {
          key_maps.push_back(NamedExpr{o.inner_side->Clone(), k, ""});
          keys.push_back(GroupKey{"", k, ""});
          inner_keys.push_back(MakeColumnRef("", k));
        }
        outer_keys.push_back(LocalizeOuterRefs(o.outer_side));
      }
      if (!key_maps.empty()) {
        inner_rel =
            std::make_shared<MapOp>(Out(inner_rel), std::move(key_maps));
      }
      AggregateSpec agg = f.Clone();
      agg.output_name = g;
      LogicalOpPtr loj = GroupAndJoin(stream, std::move(inner_rel), keys,
                                      inner_keys, outer_keys, agg);
      LogRule("Eqv.1");
      return ExtendedValue{loj, MakeColumnRef("", g)};
    }

    // General non-equality correlation: binary grouping Γ.
    if (oriented.size() != 1) return kUnsupported;
    const OrientedCorrelation& o = oriented[0];
    LogicalOpPtr left = stream.op;
    LogicalInput left_in = stream;
    GroupKey left_key;
    ExprPtr outer_local = LocalizeOuterRefs(o.outer_side);
    if (outer_local->kind() == ExprKind::kColumnRef) {
      const auto* ref =
          static_cast<const ColumnRefExpr*>(outer_local.get());
      left_key = GroupKey{ref->qualifier(), ref->name(), ""};
    } else {
      const std::string k = FreshName("k");
      left_in = Out(std::make_shared<MapOp>(
          left_in,
          std::vector<NamedExpr>{NamedExpr{outer_local, k, ""}}));
      left_key = GroupKey{"", k, ""};
    }
    LogicalOpPtr inner_rel = analysis.stripped;
    GroupKey right_key;
    if (o.inner_side->kind() == ExprKind::kColumnRef) {
      const auto* ref =
          static_cast<const ColumnRefExpr*>(o.inner_side.get());
      right_key = GroupKey{ref->qualifier(), ref->name(), ""};
    } else {
      const std::string k = FreshName("k");
      inner_rel = std::make_shared<MapOp>(
          Out(inner_rel),
          std::vector<NamedExpr>{NamedExpr{o.inner_side->Clone(), k, ""}});
      right_key = GroupKey{"", k, ""};
    }
    AggregateSpec agg = f.Clone();
    agg.output_name = g;
    auto bgb = std::make_shared<BinaryGroupByOp>(
        left_in, Out(inner_rel), left_key, o.op, right_key,
        std::vector<AggregateSpec>{std::move(agg)});
    LogRule("BinaryGamma");
    return ExtendedValue{bgb, MakeColumnRef("", g)};
  }

  // ---- Disjunctive correlation: Eqv. 4 / Eqv. 5. ----
  if (!analysis.corr_conjuncts.empty()) return kUnsupported;

  std::vector<ExprPtr> p_terms;
  std::optional<OrientedCorrelation> corr;
  for (const ExprPtr& d : SplitDisjuncts(analysis.disjunctive)) {
    if (!ContainsOuterRef(d)) {
      p_terms.push_back(d);
      continue;
    }
    if (corr.has_value()) return kUnsupported;  // one correlated disjunct
    auto o = OrientCorrelation(d);
    if (!o.has_value()) return kUnsupported;
    corr = std::move(*o);
  }
  if (!corr.has_value() || p_terms.empty()) return kUnsupported;

  bool p_has_subquery = false;
  for (const ExprPtr& p : p_terms) {
    if (ContainsSubquery(p)) p_has_subquery = true;
  }

  const bool eqv4_applicable = IsAggDecomposable(f) &&
                               corr->op == CompareOp::kEq &&
                               !p_has_subquery;

  if (eqv4_applicable) {
    // Eqv. 4: split S by p with a bypass selection, aggregate both parts
    // with fI, recombine with fO in a map.
    LogicalOpPtr s_rel = analysis.stripped;
    ExprPtr p = MakeOr(p_terms);  // all disjuncts are uncorrelated here
    auto bp = std::make_shared<BypassSelectOp>(Out(s_rel), p->Clone());

    const std::vector<AggregateSpec> partial_protos = MakePartialSpecs(f);
    std::vector<std::string> g1_names, g2_names;
    std::vector<AggregateSpec> neg_partials, pos_partials;
    for (const AggregateSpec& proto : partial_protos) {
      AggregateSpec a = proto.Clone();
      a.output_name = FreshName("g1_");
      g1_names.push_back(a.output_name);
      neg_partials.push_back(std::move(a));
      AggregateSpec b = proto.Clone();
      b.output_name = FreshName("g2_");
      g2_names.push_back(b.output_name);
      pos_partials.push_back(std::move(b));
    }

    // Negative stream: group by the correlation column (materialized
    // under a fresh name, see Eqv. 1), partial fI.
    const std::string k = FreshName("k");
    LogicalInput neg_stream = Out(std::make_shared<MapOp>(
        Neg(bp), std::vector<NamedExpr>{
                     NamedExpr{corr->inner_side->Clone(), k, ""}}));
    const GroupKey key{"", k, ""};
    auto neg_group = std::make_shared<GroupByOp>(
        neg_stream, std::vector<GroupKey>{key}, std::move(neg_partials),
        /*scalar=*/false);

    // Positive stream: one scalar row of partial fI over σ+_p(S).
    auto pos_agg = std::make_shared<GroupByOp>(
        Out(bp), std::vector<GroupKey>{}, std::move(pos_partials),
        /*scalar=*/true);

    std::vector<std::pair<std::string, Value>> defaults;
    for (size_t i = 0; i < g1_names.size(); ++i) {
      defaults.emplace_back(
          g1_names[i], AggEmptyValue(partial_protos[i].func));
    }
    auto loj = std::make_shared<LeftOuterJoinOp>(
        stream, Out(neg_group),
        MakeComparison(CompareOp::kEq, LocalizeOuterRefs(corr->outer_side),
                       MakeColumnRef(key.qualifier, key.name)),
        std::move(defaults));
    auto crossed =
        std::make_shared<JoinOp>(Out(loj), Out(pos_agg), nullptr);
    auto mapped = std::make_shared<MapOp>(
        Out(crossed),
        std::vector<NamedExpr>{
            NamedExpr{CombinePartials(f, g1_names, g2_names), g, ""}});
    LogRule("Eqv.4");
    return ExtendedValue{mapped, MakeColumnRef("", g)};
  }

  // Eqv. 5: numbering + the pairs satisfying θ ∨ p + binary grouping.
  // Fully general: arbitrary θ2, non-decomposable (DISTINCT) aggregates,
  // and p may contain nested subqueries (linear queries). The paper
  // filters ⋈±'s negative pairs by p; p is local to S (direct correlation
  // only), so σp(R ⋈⁻θ S) = R ⋈(θ not TRUE) σp(S) and the |R|·|S| pair
  // stream never materializes. One restriction of our name-based algebra:
  // the pair schema concatenates both blocks, so the blocks must not
  // range over the same table aliases.
  {
    std::unordered_map<std::string, bool> outer_quals;
    for (const ColumnDef& c : stream.op->schema().columns()) {
      if (!c.qualifier.empty()) outer_quals[c.qualifier] = true;
    }
    for (const ColumnDef& c : analysis.stripped->schema().columns()) {
      if (!c.qualifier.empty() && outer_quals.count(c.qualifier) > 0) {
        return kUnsupported;
      }
    }
  }
  const std::string t = FreshName("t");
  auto numbered = std::make_shared<NumberingOp>(stream, t);
  ExprPtr theta =
      MakeComparison(corr->op, LocalizeOuterRefs(corr->outer_side),
                     corr->inner_side->Clone());
  // Pairs where θ holds: a hash join when θ is '='.
  auto matched = std::make_shared<JoinOp>(
      Out(numbered), Out(analysis.stripped), theta->Clone());
  // Pairs where θ is FALSE or UNKNOWN and p holds: a nested-loop join
  // over σp(S). A subquery in p is unnested on S by the next pass.
  auto p_rows = std::make_shared<SelectOp>(Out(analysis.stripped),
                                           MakeOr(p_terms)->Clone());
  auto unmatched = std::make_shared<JoinOp>(
      Out(numbered), Out(p_rows),
      MakeNot(ExprPtr(std::make_shared<FunctionExpr>(
          BuiltinFunc::kCoalesce,
          std::vector<ExprPtr>{std::move(theta),
                               MakeLiteral(Value::Bool(false))}))));
  auto uni = std::make_shared<UnionOp>(Out(matched), Out(unmatched));
  AggregateSpec agg = f.Clone();
  agg.output_name = g;
  auto bgb = std::make_shared<BinaryGroupByOp>(
      Out(numbered), Out(uni), GroupKey{"", t, ""}, CompareOp::kEq,
      GroupKey{"", t, ""}, std::vector<AggregateSpec>{std::move(agg)});
  LogRule("Eqv.5");
  return ExtendedValue{bgb, MakeColumnRef("", g)};
}

LogicalOpPtr UnnestingRewriter::GroupAndJoin(
    LogicalInput stream, LogicalOpPtr inner_rel,
    const std::vector<GroupKey>& keys, const std::vector<ExprPtr>& inner_keys,
    const std::vector<ExprPtr>& outer_keys, const AggregateSpec& agg) {
  auto group_and_join = [&](LogicalOpPtr rel) -> LogicalOpPtr {
    std::vector<ExprPtr> conjuncts;
    for (size_t i = 0; i < keys.size(); ++i) {
      const std::string& k = keys[i].output_alias.empty()
                                 ? keys[i].name
                                 : keys[i].output_alias;
      conjuncts.push_back(MakeComparison(
          CompareOp::kEq, outer_keys[i]->Clone(), MakeColumnRef("", k)));
    }
    auto grouped = std::make_shared<GroupByOp>(
        Out(std::move(rel)), keys, std::vector<AggregateSpec>{agg.Clone()},
        /*scalar=*/false);
    return std::make_shared<LeftOuterJoinOp>(
        stream, Out(grouped), MakeAnd(std::move(conjuncts)),
        std::vector<std::pair<std::string, Value>>{
            {agg.output_name, AggEmptyValue(agg.func)}});
  };
  LogicalOpPtr plain = group_and_join(inner_rel);

  // The ⟕ only probes Γ with the stream's correlation values, so Γ needs
  // only the rows of S whose keys are among them: K = Π[$m_i := outer
  // key_i](stream) shares the stream (a DAG node), and S ⋉ K keeps every
  // row of every group the ⟕ can reach. Keys absent from S still get
  // f(∅); NULL keys match neither join.
  std::vector<NamedExpr> probe_items;
  std::vector<ExprPtr> semi_conjuncts;
  for (size_t i = 0; i < keys.size(); ++i) {
    const std::string m = "$m" + std::to_string(probe_counter_++);
    probe_items.push_back(NamedExpr{outer_keys[i]->Clone(), m, ""});
    semi_conjuncts.push_back(MakeComparison(
        CompareOp::kEq, inner_keys[i]->Clone(), MakeColumnRef("", m)));
  }
  auto probed = std::make_shared<ProjectOp>(stream, std::move(probe_items));
  const ExprPtr semi_pred = MakeAnd(std::move(semi_conjuncts));
  auto semijoin = [&](LogicalInput leaf) -> LogicalOpPtr {
    return std::make_shared<SemiJoinOp>(std::move(leaf), Out(probed),
                                        semi_pred->Clone());
  };
  std::vector<const ColumnRefExpr*> cols;
  for (const ExprPtr& k : inner_keys) {
    cols.push_back(static_cast<const ColumnRefExpr*>(k.get()));
  }
  // χ-made keys leave a Map on top of S, which takes the semijoin.
  LogicalOpPtr reduced =
      group_and_join(WrapOwningInput(Out(inner_rel), cols, semijoin).op);

  // The gate: one estimation pass over both alternatives. The estimate
  // reaches the stream a second time through K; the plan shares it.
  PlanEstimator estimator(options_.catalog);
  const double plain_cost = estimator.Input(Out(plain)).cost;
  const double reduced_cost =
      estimator.Input(Out(reduced)).cost - estimator.Input(stream).cost;
  const double k_rows = estimator.Input(Out(probed)).rows;
  double ndv = 1;
  for (const ColumnRefExpr* c : cols) {
    ndv *= static_cast<double>(estimator.DistinctCount(*c));
  }
  ndv = std::min(ndv, estimator.Input(Out(inner_rel)).rows);
  const bool apply = reduced_cost < plain_cost;

  std::ostringstream line;
  line << std::fixed << std::setprecision(0) << "Eqv.1 key reduction "
       << (apply ? "applied" : "declined") << ": est. |K| " << k_rows
       << ", NDV(B2) ";
  if (ndv > 0) {
    line << ndv;
  } else {
    line << "unknown";
  }
  line << ", cost " << reduced_cost << " with S ⋉ K vs " << plain_cost
       << " without";
  key_reductions_.push_back(line.str());
  return apply ? reduced : plain;
}

Result<UnnestingRewriter::QuantifiedSplit>
UnnestingRewriter::SplitQuantified(LogicalInput stream,
                                   const SubqueryExpr& subquery) {
  const QuantifiedSplit kUnsupported{nullptr, nullptr};
  LogicalOpPtr block = CloneLogicalPlan(subquery.plan());
  if (block == nullptr) return kUnsupported;

  // Peel Distinct/Project above the block's relation; for IN remember the
  // produced column's expression as the membership probe target.
  ExprPtr in_column;
  while (true) {
    if (block->kind() == LogicalOpKind::kDistinct) {
      block = block->inputs()[0].op;
      continue;
    }
    if (block->kind() == LogicalOpKind::kProject) {
      const auto* proj = static_cast<const ProjectOp*>(block.get());
      if (proj->items().size() == 1) {
        in_column = proj->items()[0].expr->Clone();
      }
      block = block->inputs()[0].op;
      continue;
    }
    break;
  }
  if (subquery.subquery_kind() == SubqueryKind::kIn &&
      in_column == nullptr) {
    // SELECT * single-column table would also work, but keep it simple.
    if (block->schema().num_columns() == 1) {
      const ColumnDef& c = block->schema().column(0);
      in_column = MakeColumnRef(c.qualifier, c.name);
    } else {
      return kUnsupported;
    }
  }

  CorrelationAnalysis analysis = AnalyzeCorrelation(block);
  if (!analysis.ok || analysis.disjunctive != nullptr) return kUnsupported;

  std::vector<ExprPtr> pred_conjuncts;
  for (const ExprPtr& c : analysis.corr_conjuncts) {
    if (ContainsSubquery(c)) return kUnsupported;
    pred_conjuncts.push_back(LocalizeOuterRefs(c));
  }
  if (subquery.subquery_kind() == SubqueryKind::kIn) {
    if (ContainsOuterRef(in_column) || ContainsSubquery(in_column)) {
      return kUnsupported;
    }
    ExprPtr member = MakeComparison(
        CompareOp::kEq, subquery.probe()->Clone(), in_column->Clone());
    if (subquery.negated()) {
      // 3VL: x NOT IN S is TRUE exactly when no qualifying y makes
      // x = y OR x IS NULL OR y IS NULL TRUE (empty S included), so the
      // anti join on this two-valued predicate is the TRUE stream and
      // the semi join the FALSE ∪ UNKNOWN one.
      member = MakeOr({std::move(member),
                       std::make_shared<IsNullExpr>(
                           subquery.probe()->Clone(), /*negated=*/false),
                       std::make_shared<IsNullExpr>(std::move(in_column),
                                                    /*negated=*/false)});
    }
    pred_conjuncts.push_back(std::move(member));
  }
  ExprPtr pred = pred_conjuncts.empty()
                     ? MakeLiteral(Value::Bool(true))
                     : MakeAnd(std::move(pred_conjuncts));

  // Same alias-overlap restriction as Eqv. 5: the join predicate binds
  // against the concatenated schema.
  for (const ColumnDef& outer_col : stream.op->schema().columns()) {
    if (outer_col.qualifier.empty()) continue;
    for (const ColumnDef& inner_col :
         analysis.stripped->schema().columns()) {
      if (inner_col.qualifier == outer_col.qualifier) return kUnsupported;
    }
  }

  const bool anti = subquery.negated();
  LogicalOpPtr right = analysis.stripped;  // shared by both joins (DAG)
  QuantifiedSplit split;
  if (anti) {
    split.positive = std::make_shared<AntiJoinOp>(stream, Out(right),
                                                  pred->Clone());
    split.remainder =
        std::make_shared<SemiJoinOp>(stream, Out(right), pred->Clone());
  } else {
    split.positive = std::make_shared<SemiJoinOp>(stream, Out(right),
                                                  pred->Clone());
    split.remainder =
        std::make_shared<AntiJoinOp>(stream, Out(right), pred->Clone());
  }
  LogRule(anti ? "AntiJoin" : "SemiJoin");
  return split;
}

}  // namespace bypass
