#include "planner/cost_model.h"

#include <algorithm>
#include <unordered_map>

#include "expr/expr_util.h"
#include "algebra/plan_util.h"
#include "rewrite/rank.h"
#include "stats/selectivity.h"

namespace bypass {

namespace {

constexpr double kDefaultTableRows = 1000;
constexpr double kGroupCompression = 0.1;  // ndv(keys) / rows heuristic
constexpr double kExistenceFraction = 0.5;  // semijoin with unknown NDVs

/// Appends the conjuncts of `pred` (itself when it is no AND) without
/// cloning them.
void CollectConjuncts(const Expr& pred, std::vector<const Expr*>* out) {
  if (pred.kind() != ExprKind::kAnd) {
    out->push_back(&pred);
    return;
  }
  for (const ExprPtr& t : static_cast<const AndExpr&>(pred).terms()) {
    CollectConjuncts(*t, out);
  }
}

}  // namespace

class Estimator : public StatsProvider {
 public:
  explicit Estimator(const Catalog* catalog,
                     std::vector<std::string>* notes = nullptr)
      : catalog_(catalog), notes_(notes) {}

  /// StatsProvider over the base tables seen so far (children are
  /// estimated before their parents' predicates, so a selection's scans
  /// are registered by the time its selectivity is computed).
  const ColumnStatistics* GetColumnStats(const std::string& qualifier,
                                         const std::string& name,
                                         int64_t* rows) const override {
    const auto it = alias_tables_.find(qualifier);
    if (it == alias_tables_.end()) return Derived(qualifier, name, rows);
    const Table* table = it->second;
    auto slot = table->schema().FindColumn("", name);
    if (!slot.ok()) return Derived(qualifier, name, rows);
    *rows = table->num_rows();
    return &table->stats()[static_cast<size_t>(*slot)];
  }

  /// Rich ANALYZE statistics for aliases whose table has them.
  const ColumnStatistics* GetColumnStatistics(
      const std::string& qualifier, const std::string& name,
      int64_t* rows) const override {
    const auto it = alias_stats_.find(qualifier);
    const auto table_it = alias_tables_.find(qualifier);
    if (it == alias_stats_.end() || table_it == alias_tables_.end()) {
      return Derived(qualifier, name, rows, /*rich_only=*/true);
    }
    auto slot = table_it->second->schema().FindColumn("", name);
    if (!slot.ok() ||
        static_cast<size_t>(*slot) >= it->second->columns.size()) {
      return nullptr;
    }
    *rows = it->second->row_count;
    return &it->second->columns[static_cast<size_t>(*slot)];
  }

  const Table* GetTableForAlias(
      const std::string& qualifier) const override {
    const auto it = alias_tables_.find(qualifier);
    return it == alias_tables_.end() ? nullptr : it->second;
  }

  int64_t DistinctCount(const ColumnRefExpr& ref) const {
    return ColumnDistinctCount(ref, *this);
  }

  const std::unordered_map<const LogicalOp*, PlanEstimate>& memo() const {
    return memo_;
  }

  PlanEstimate Node(const LogicalOp& node) {
    const auto it = memo_.find(&node);
    if (it != memo_.end()) return it->second;
    PlanEstimate est = Compute(node);
    est.rows = std::max(est.rows, 1.0);
    memo_.emplace(&node, est);
    return est;
  }

  PlanEstimate Input(const LogicalInput& input) {
    PlanEstimate est = Node(*input.op);
    if (input.port == StreamPort::kNegative) {
      // The producer's estimate describes its positive stream; the
      // negative stream carries the complement cardinality (neg_rows).
      // The producer's cost is attributed to the positive-stream edge
      // only, so consumers of both streams do not double-count it.
      est.rows = std::max(est.neg_rows, 1.0);
      est.cost = 0;
    }
    return est;
  }

 private:
  /// Per-row evaluation cost of a predicate, charging nested blocks their
  /// full estimated plan cost (correlated: per row; uncorrelated blocks
  /// are added to `*upfront` once instead).
  double PredicateRowCost(const ExprPtr& pred, double* upfront) {
    double row_cost = EstimateCost(*pred, /*subquery_cost=*/0);
    VisitExpr(pred, [&](const ExprPtr& e) {
      if (e->kind() != ExprKind::kSubquery) return;
      const auto* sq = static_cast<const SubqueryExpr*>(e.get());
      if (sq->plan() == nullptr) return;
      const PlanEstimate block = Node(*sq->plan());
      if (PlanIsCorrelated(*sq->plan())) {
        row_cost += block.cost;
      } else {
        *upfront += block.cost;
      }
    });
    return row_cost;
  }

  PlanEstimate Compute(const LogicalOp& node) {
    switch (node.kind()) {
      case LogicalOpKind::kGet: {
        const auto& get = static_cast<const GetOp&>(node);
        double rows = kDefaultTableRows;
        if (catalog_ == nullptr) {
          Note("no catalog: '" + get.table_name() + "' assumed " +
               std::to_string(static_cast<int64_t>(kDefaultTableRows)) +
               " rows");
        } else {
          auto table = catalog_->GetTable(get.table_name());
          if (!table.ok()) {
            Note("no table: '" + get.table_name() + "' assumed " +
                 std::to_string(static_cast<int64_t>(kDefaultTableRows)) +
                 " rows");
          } else {
            alias_tables_.emplace(get.alias(), *table);
            auto analyzed =
                catalog_->GetTableStatistics(get.table_name());
            if (analyzed != nullptr) {
              rows = static_cast<double>(analyzed->row_count);
              alias_stats_.emplace(get.alias(), std::move(analyzed));
            } else {
              // Never invent a constant when the table is at hand: its
              // actual row count is the honest fallback.
              rows = static_cast<double>((*table)->num_rows());
              Note("no stats: '" + get.table_name() +
                   "' (using actual row count)");
            }
          }
        }
        return {rows, rows};
      }
      case LogicalOpKind::kSelect: {
        const auto& sel = static_cast<const SelectOp&>(node);
        const PlanEstimate in = Input(node.inputs()[0]);
        double upfront = 0;
        const double row_cost = PredicateRowCost(sel.predicate(),
                                                 &upfront);
        return {in.rows * EstimateSelectivity(*sel.predicate(), this),
                in.cost + upfront + in.rows * (1.0 + row_cost)};
      }
      case LogicalOpKind::kBypassSelect: {
        const auto& sel = static_cast<const BypassSelectOp&>(node);
        const PlanEstimate in = Input(node.inputs()[0]);
        double upfront = 0;
        const double row_cost = PredicateRowCost(sel.predicate(),
                                                 &upfront);
        const double out =
            in.rows * EstimateSelectivity(*sel.predicate(), this);
        return {out, in.cost + upfront + in.rows * (1.0 + row_cost),
                std::max(in.rows - out, 0.0)};
      }
      case LogicalOpKind::kProject:
      case LogicalOpKind::kMap:
      case LogicalOpKind::kNumbering: {
        const PlanEstimate in = Input(node.inputs()[0]);
        if (node.kind() != LogicalOpKind::kNumbering) {
          const auto& items =
              node.kind() == LogicalOpKind::kProject
                  ? static_cast<const ProjectOp&>(node).items()
                  : static_cast<const MapOp&>(node).items();
          for (const NamedExpr& item : items) {
            InheritColumnStats(item, in.rows);
          }
        }
        return {in.rows, in.cost + in.rows};
      }
      case LogicalOpKind::kDistinct: {
        const PlanEstimate in = Input(node.inputs()[0]);
        return {in.rows * 0.9, in.cost + in.rows};
      }
      case LogicalOpKind::kSort: {
        const PlanEstimate in = Input(node.inputs()[0]);
        return {in.rows, in.cost + 2.0 * in.rows};
      }
      case LogicalOpKind::kJoin: {
        const auto& join = static_cast<const JoinOp&>(node);
        const PlanEstimate l = Input(node.inputs()[0]);
        const PlanEstimate r = Input(node.inputs()[1]);
        if (join.predicate() == nullptr) {
          return {l.rows * r.rows, l.cost + r.cost + l.rows * r.rows};
        }
        const double sel = EstimateSelectivity(*join.predicate(), this);
        if (HasEquiConjunct(*join.predicate())) {
          return {l.rows * r.rows * sel, l.cost + r.cost + l.rows + r.rows};
        }
        // A nested-loop join evaluates the predicate on every pair.
        double upfront = 0;
        const double row_cost = PredicateRowCost(join.predicate(),
                                                 &upfront);
        const double pairs = l.rows * r.rows;
        return {pairs * sel,
                l.cost + r.cost + upfront + pairs * (1.0 + row_cost)};
      }
      case LogicalOpKind::kLeftOuterJoin: {
        const auto& join = static_cast<const LeftOuterJoinOp&>(node);
        const PlanEstimate l = Input(node.inputs()[0]);
        const PlanEstimate r = Input(node.inputs()[1]);
        const bool hashable = HasEquiConjunct(*join.predicate());
        const double work =
            hashable ? l.rows + r.rows : l.rows * r.rows;
        // Grouped build sides have unique keys → cardinality of the left.
        return {l.rows, l.cost + r.cost + work};
      }
      case LogicalOpKind::kSemiJoin:
      case LogicalOpKind::kAntiJoin: {
        const ExprPtr& pred =
            node.kind() == LogicalOpKind::kSemiJoin
                ? static_cast<const SemiJoinOp&>(node).predicate()
                : static_cast<const AntiJoinOp&>(node).predicate();
        const PlanEstimate l = Input(node.inputs()[0]);
        const PlanEstimate r = Input(node.inputs()[1]);
        const bool hashable = HasEquiConjunct(*pred);
        const double work =
            hashable ? l.rows + r.rows : l.rows * r.rows;
        const double kept = ContainedFraction(node, *pred, l.rows, r.rows);
        return {l.rows * (node.kind() == LogicalOpKind::kSemiJoin
                              ? kept
                              : 1.0 - kept),
                l.cost + r.cost + work};
      }
      case LogicalOpKind::kGroupBy: {
        const auto& gb = static_cast<const GroupByOp&>(node);
        const PlanEstimate in = Input(node.inputs()[0]);
        const double rows =
            gb.scalar() ? 1.0
                        : std::max(1.0, in.rows * kGroupCompression);
        return {rows, in.cost + in.rows};
      }
      case LogicalOpKind::kBinaryGroupBy: {
        const auto& gb = static_cast<const BinaryGroupByOp&>(node);
        const PlanEstimate l = Input(node.inputs()[0]);
        const PlanEstimate r = Input(node.inputs()[1]);
        const double work = gb.compare_op() == CompareOp::kEq
                                ? l.rows + r.rows
                                : l.rows * r.rows;
        return {l.rows, l.cost + r.cost + work};
      }
      case LogicalOpKind::kLimit: {
        const auto& limit = static_cast<const LimitOp&>(node);
        const PlanEstimate in = Input(node.inputs()[0]);
        return {std::min<double>(in.rows,
                                 static_cast<double>(limit.count())),
                in.cost};
      }
      case LogicalOpKind::kUnion: {
        PlanEstimate est;
        for (const LogicalInput& in : node.inputs()) {
          const PlanEstimate e = Input(in);
          est.rows += e.rows;
          est.cost += e.cost;
        }
        return est;
      }
    }
    return {1, 1};
  }

  /// Fraction of the left rows with a partner under `pred`, by
  /// containment: each `l.a = r.b` conjunct keeps min(1, ndv(b) / ndv(a))
  /// of the left rows (every right value is assumed to occur on the
  /// left), conjuncts multiply, and each NDV is capped by its input's
  /// rows. kExistenceFraction when no conjunct has both NDVs.
  double ContainedFraction(const LogicalOp& node, const Expr& pred,
                           double l_rows, double r_rows) const {
    const Schema& left = node.inputs()[0].op->schema();
    const Schema& right = node.inputs()[1].op->schema();
    double kept = 1.0;
    bool priced = false;
    std::vector<const Expr*> conjuncts;
    CollectConjuncts(pred, &conjuncts);
    for (const Expr* c : conjuncts) {
      if (c->kind() != ExprKind::kComparison) continue;
      const auto& cmp = static_cast<const ComparisonExpr&>(*c);
      if (cmp.op() != CompareOp::kEq ||
          cmp.left()->kind() != ExprKind::kColumnRef ||
          cmp.right()->kind() != ExprKind::kColumnRef) {
        continue;
      }
      const auto* a = static_cast<const ColumnRefExpr*>(cmp.left().get());
      const auto* b = static_cast<const ColumnRefExpr*>(cmp.right().get());
      if (!left.HasColumn(a->qualifier(), a->name())) std::swap(a, b);
      if (!left.HasColumn(a->qualifier(), a->name()) ||
          !right.HasColumn(b->qualifier(), b->name())) {
        continue;
      }
      const double ndv_l = std::min(
          static_cast<double>(ColumnDistinctCount(*a, *this)), l_rows);
      const double ndv_r = std::min(
          static_cast<double>(ColumnDistinctCount(*b, *this)), r_rows);
      if (ndv_l <= 0 || ndv_r <= 0) continue;
      kept *= std::min(1.0, ndv_r / ndv_l);
      priced = true;
    }
    return priced ? kept : kExistenceFraction;
  }

  /// A Project/Map item computed from one column carries that column's
  /// NDV under its own name, capped by the input rows. A rename keeps
  /// all of the column's statistics; arithmetic over the column and
  /// literals (at most as many values, as many when injective) keeps its
  /// NDV and NULL count only.
  void InheritColumnStats(const NamedExpr& item, double in_rows) {
    const ColumnRefExpr* ref = SoleColumn(*item.expr);
    if (ref == nullptr || ref->is_outer() ||
        (ref->qualifier() == item.qualifier && ref->name() == item.name)) {
      return;
    }
    DerivedColumn derived;
    const ColumnStatistics* source = GetColumnStatistics(
        ref->qualifier(), ref->name(), &derived.rows);
    derived.rich = source != nullptr && source->distinct_count > 0;
    if (!derived.rich) {
      derived.rows = 0;
      source = GetColumnStats(ref->qualifier(), ref->name(), &derived.rows);
    }
    if (source == nullptr || source->distinct_count <= 0) return;
    if (item.expr->kind() == ExprKind::kColumnRef) {
      derived.stats = *source;
    } else {
      derived.rich = false;
      derived.stats.null_count = source->null_count;
    }
    derived.stats.distinct_count = std::min<int64_t>(
        source->distinct_count,
        std::max<int64_t>(1, static_cast<int64_t>(in_rows)));
    derived_[DerivedKey(item.qualifier, item.name)] = std::move(derived);
  }

  /// The one column `e` reads when it is that column or arithmetic over
  /// it and literals; nullptr otherwise.
  static const ColumnRefExpr* SoleColumn(const Expr& e) {
    switch (e.kind()) {
      case ExprKind::kColumnRef:
        return static_cast<const ColumnRefExpr*>(&e);
      case ExprKind::kArithmetic: {
        const auto& a = static_cast<const ArithmeticExpr&>(e);
        const bool left_literal = a.left()->kind() == ExprKind::kLiteral;
        const bool right_literal = a.right()->kind() == ExprKind::kLiteral;
        if (left_literal == right_literal) return nullptr;
        return SoleColumn(left_literal ? *a.right() : *a.left());
      }
      default:
        return nullptr;
    }
  }

  /// A derived column's statistics; with `rich_only`, only those copied
  /// from ANALYZE statistics (the rich tier).
  const ColumnStatistics* Derived(const std::string& qualifier,
                                  const std::string& name, int64_t* rows,
                                  bool rich_only = false) const {
    const auto it = derived_.find(DerivedKey(qualifier, name));
    if (it == derived_.end() || (rich_only && !it->second.rich)) {
      return nullptr;
    }
    *rows = it->second.rows;
    return &it->second.stats;
  }

  static std::string DerivedKey(const std::string& qualifier,
                                const std::string& name) {
    return qualifier + '.' + name;
  }

  /// Records a cardinality-source caveat once (deduplicated).
  void Note(std::string note) {
    if (notes_ == nullptr) return;
    if (std::find(notes_->begin(), notes_->end(), note) != notes_->end()) {
      return;
    }
    notes_->push_back(std::move(note));
  }

  static bool HasEquiConjunct(const Expr& pred) {
    std::vector<const Expr*> conjuncts;
    CollectConjuncts(pred, &conjuncts);
    for (const Expr* c : conjuncts) {
      if (c->kind() == ExprKind::kComparison &&
          static_cast<const ComparisonExpr*>(c)->op() == CompareOp::kEq) {
        return true;
      }
    }
    return false;
  }

  const Catalog* catalog_;
  std::vector<std::string>* notes_;
  std::unordered_map<const LogicalOp*, PlanEstimate> memo_;
  mutable std::unordered_map<std::string, const Table*> alias_tables_;
  mutable std::unordered_map<std::string,
                             std::shared_ptr<const TableStatistics>>
      alias_stats_;
  /// Statistics of derived columns (InheritColumnStats), keyed by
  /// DerivedKey; `rich` when copied from ANALYZE statistics.
  struct DerivedColumn {
    ColumnStatistics stats;
    int64_t rows = 0;
    bool rich = false;
  };
  std::unordered_map<std::string, DerivedColumn> derived_;
};

PlanEstimator::PlanEstimator(const Catalog* catalog)
    : impl_(std::make_unique<Estimator>(catalog)) {}

PlanEstimator::~PlanEstimator() = default;

PlanEstimate PlanEstimator::Input(const LogicalInput& input) {
  return impl_->Input(input);
}

int64_t PlanEstimator::DistinctCount(const ColumnRefExpr& ref) const {
  return impl_->DistinctCount(ref);
}

PlanEstimate EstimatePlan(const LogicalOp& root, const Catalog* catalog,
                          std::vector<std::string>* notes) {
  Estimator estimator(catalog, notes);
  return estimator.Node(root);
}

std::unordered_map<const LogicalOp*, PlanEstimate> EstimateAllNodes(
    const LogicalOp& root, const Catalog* catalog) {
  Estimator estimator(catalog);
  estimator.Node(root);
  return estimator.memo();
}

}  // namespace bypass
