#include "stats/selectivity.h"

#include <algorithm>
#include <optional>

#include "expr/expr_util.h"
#include "storage/zone_map.h"

namespace bypass {

namespace {

/// Decomposed `col θ literal` comparison (operator flipped when the
/// literal is on the left).
struct ColumnLiteral {
  const ColumnRefExpr* column;
  const Value* value;
  CompareOp op;
};

std::optional<ColumnLiteral> MatchColumnLiteral(const ComparisonExpr& cmp) {
  const Expr* col = nullptr;
  const Expr* lit = nullptr;
  CompareOp op = cmp.op();
  if (cmp.left()->kind() == ExprKind::kColumnRef &&
      cmp.right()->kind() == ExprKind::kLiteral) {
    col = cmp.left().get();
    lit = cmp.right().get();
  } else if (cmp.right()->kind() == ExprKind::kColumnRef &&
             cmp.left()->kind() == ExprKind::kLiteral) {
    col = cmp.right().get();
    lit = cmp.left().get();
    op = FlipCompareOp(op);
  } else {
    return std::nullopt;
  }
  const auto* ref = static_cast<const ColumnRefExpr*>(col);
  if (ref->is_outer()) return std::nullopt;
  return ColumnLiteral{ref,
                       &static_cast<const LiteralExpr*>(lit)->value(), op};
}

/// Histogram-backed estimate over ANALYZE statistics; nullopt when the
/// column has no histogram or the literal is non-numeric.
std::optional<double> HistogramSelectivity(const ColumnStatistics& column,
                                           int64_t rows, CompareOp op,
                                           const Value& value) {
  if (rows <= 0) return 0.0;  // empty table: nothing qualifies
  const double non_null = 1.0 - column.NullFraction(rows);
  if (op == CompareOp::kEq || op == CompareOp::kNe) {
    double eq;
    if (!column.histogram.empty() && value.is_numeric()) {
      eq = column.histogram.FractionEq(value.AsDouble()) * non_null;
    } else if (column.distinct_count > 0) {
      eq = non_null / static_cast<double>(column.distinct_count);
    } else {
      return 0.0;  // all-NULL column: equality never holds
    }
    return op == CompareOp::kEq ? eq : std::max(0.0, non_null - eq);
  }
  if (column.histogram.empty() || !value.is_numeric()) {
    return std::nullopt;
  }
  const double v = value.AsDouble();
  switch (op) {
    case CompareOp::kLt:
      return column.histogram.FractionLT(v) * non_null;
    case CompareOp::kLe:
      return column.histogram.FractionLE(v) * non_null;
    case CompareOp::kGt:
      return (1.0 - column.histogram.FractionLE(v)) * non_null;
    case CompareOp::kGe:
      return (1.0 - column.histogram.FractionLT(v)) * non_null;
    default:
      return std::nullopt;
  }
}

/// Lazy-tier estimate (min/max interpolation + NDV); the pre-ANALYZE
/// behaviour.
std::optional<double> LazySelectivity(const ColumnStatistics& column,
                                      int64_t rows, CompareOp op,
                                      const Value& value) {
  if (rows <= 0) return 0.0;
  const double non_null =
      1.0 -
      static_cast<double>(column.null_count) / static_cast<double>(rows);
  if (op == CompareOp::kEq || op == CompareOp::kNe) {
    if (column.distinct_count <= 0) return std::nullopt;
    const double eq =
        non_null / static_cast<double>(column.distinct_count);
    return op == CompareOp::kEq ? eq : std::max(0.0, non_null - eq);
  }
  if (column.min.is_null() || !column.min.is_numeric() ||
      !value.is_numeric()) {
    return std::nullopt;
  }
  const double lo = column.min.AsDouble();
  const double hi = column.max.AsDouble();
  if (!(hi > lo)) return std::nullopt;  // also a NaN bound: no range
  const double below =
      std::clamp((value.AsDouble() - lo) / (hi - lo), 0.0, 1.0);
  switch (op) {
    case CompareOp::kLt:
    case CompareOp::kLe:
      return below * non_null;
    case CompareOp::kGt:
    case CompareOp::kGe:
      return (1.0 - below) * non_null;
    default:
      return std::nullopt;
  }
}

/// Bounds on a comparison's selectivity derived from the table's segment
/// zone maps: the fraction of rows in segments where the predicate
/// provably holds for every row (lower) and where it may hold for some
/// row (upper). Exact per segment — a histogram interpolates inside a
/// bucket, a zone verdict does not — so clamping an estimate into these
/// bounds can only tighten it. Only consulted when the segment index is
/// already built (has_segments): estimation never pays the build cost.
struct ZoneBounds {
  double lo = 0.0;
  double hi = 1.0;
};

std::optional<ZoneBounds> ZoneComparisonBounds(const ColumnLiteral& match,
                                               const StatsProvider& stats) {
  const Table* table =
      stats.GetTableForAlias(match.column->qualifier());
  if (table == nullptr || !table->has_segments()) return std::nullopt;
  auto slot = table->schema().FindColumn("", match.column->name());
  if (!slot.ok()) return std::nullopt;
  const TableSegments& segs = table->segments();
  if (segs.num_rows == 0 || segs.segments.empty()) return std::nullopt;
  int64_t all_rows = 0;
  int64_t may_rows = 0;
  for (const SegmentMeta& meta : segs.segments) {
    if (static_cast<size_t>(*slot) >= meta.zones.size()) {
      return std::nullopt;
    }
    const ColumnZone& zone = meta.zones[static_cast<size_t>(*slot)];
    switch (ClassifyZone(zone, meta.row_count, match.op, *match.value)) {
      case ZoneMatch::kAll:
        all_rows += static_cast<int64_t>(meta.row_count);
        [[fallthrough]];
      case ZoneMatch::kSome:
        may_rows += static_cast<int64_t>(meta.row_count);
        break;
      case ZoneMatch::kNone:
        break;
    }
  }
  const double total = static_cast<double>(segs.num_rows);
  return ZoneBounds{static_cast<double>(all_rows) / total,
                    static_cast<double>(may_rows) / total};
}

/// `a = b` over two columns (an equi-join key): 1 / max(ndv(a), ndv(b)),
/// the textbook containment estimate; nullopt unless both sides are
/// uncorrelated columns with known distinct counts.
std::optional<double> ColumnEqualitySelectivity(const ComparisonExpr& cmp,
                                                const StatsProvider& stats) {
  if (cmp.op() != CompareOp::kEq ||
      cmp.left()->kind() != ExprKind::kColumnRef ||
      cmp.right()->kind() != ExprKind::kColumnRef) {
    return std::nullopt;
  }
  const auto& a = static_cast<const ColumnRefExpr&>(*cmp.left());
  const auto& b = static_cast<const ColumnRefExpr&>(*cmp.right());
  if (a.is_outer() || b.is_outer()) return std::nullopt;
  const int64_t ndv_a = ColumnDistinctCount(a, stats);
  const int64_t ndv_b = ColumnDistinctCount(b, stats);
  if (ndv_a <= 0 || ndv_b <= 0) return std::nullopt;
  return 1.0 / static_cast<double>(std::max(ndv_a, ndv_b));
}

std::optional<double> StatsComparisonSelectivity(
    const ComparisonExpr& cmp, const StatsProvider& stats) {
  if (auto join = ColumnEqualitySelectivity(cmp, stats)) return join;
  const auto match = MatchColumnLiteral(cmp);
  if (!match.has_value()) return std::nullopt;
  if (match->value->is_null()) return 0.0;  // θ NULL never holds

  const auto bounds = ZoneComparisonBounds(*match, stats);
  const auto clamp = [&bounds](double est) {
    return bounds.has_value() ? std::clamp(est, bounds->lo, bounds->hi)
                              : est;
  };

  int64_t rows = 0;
  if (const ColumnStatistics* rich = stats.GetColumnStatistics(
          match->column->qualifier(), match->column->name(), &rows)) {
    if (auto est = HistogramSelectivity(*rich, rows, match->op,
                                        *match->value)) {
      return clamp(*est);
    }
  }
  rows = 0;
  const ColumnStatistics* lazy = stats.GetColumnStats(
      match->column->qualifier(), match->column->name(), &rows);
  if (lazy != nullptr) {
    if (auto est =
            LazySelectivity(*lazy, rows, match->op, *match->value)) {
      return clamp(*est);
    }
  }
  // No per-column statistics could price the comparison; the zone bounds
  // alone still beat a textbook constant — take their midpoint.
  if (bounds.has_value()) return (bounds->lo + bounds->hi) / 2.0;
  return std::nullopt;
}

/// NULL fraction of a plain column reference, when known.
std::optional<double> StatsNullFraction(const Expr& input,
                                        const StatsProvider& stats) {
  if (input.kind() != ExprKind::kColumnRef) return std::nullopt;
  const auto& ref = static_cast<const ColumnRefExpr&>(input);
  if (ref.is_outer()) return std::nullopt;
  int64_t rows = 0;
  if (const ColumnStatistics* rich =
          stats.GetColumnStatistics(ref.qualifier(), ref.name(), &rows)) {
    return rich->NullFraction(rows);
  }
  rows = 0;
  if (const ColumnStatistics* lazy =
          stats.GetColumnStats(ref.qualifier(), ref.name(), &rows)) {
    if (rows <= 0) return 0.0;
    return static_cast<double>(lazy->null_count) /
           static_cast<double>(rows);
  }
  return std::nullopt;
}

}  // namespace

int64_t ColumnDistinctCount(const ColumnRefExpr& ref,
                            const StatsProvider& stats) {
  int64_t rows = 0;
  if (const ColumnStatistics* rich =
          stats.GetColumnStatistics(ref.qualifier(), ref.name(), &rows)) {
    if (rich->distinct_count > 0) return rich->distinct_count;
  }
  if (const ColumnStatistics* lazy =
          stats.GetColumnStats(ref.qualifier(), ref.name(), &rows)) {
    return lazy->distinct_count;
  }
  return 0;
}

double EstimateSelectivity(const Expr& pred, const StatsProvider* stats) {
  switch (pred.kind()) {
    case ExprKind::kComparison: {
      const auto& cmp = static_cast<const ComparisonExpr&>(pred);
      if (stats != nullptr) {
        if (auto estimate = StatsComparisonSelectivity(cmp, *stats)) {
          return *estimate;
        }
      }
      switch (cmp.op()) {
        case CompareOp::kEq:
          return 0.1;
        case CompareOp::kNe:
          return 0.9;
        default:
          return 1.0 / 3.0;
      }
    }
    case ExprKind::kAnd: {
      double s = 1.0;
      for (const ExprPtr& t :
           static_cast<const AndExpr&>(pred).terms()) {
        s *= EstimateSelectivity(*t, stats);
      }
      return s;
    }
    case ExprKind::kOr: {
      // Inclusion–exclusion under independence, clamped to the
      // always-valid disjunction bounds (per-disjunct estimates come
      // from heterogeneous sources, so the closed form alone can stray).
      double pass_none = 1.0;
      double sum = 0.0;
      double best = 0.0;
      for (const ExprPtr& t : static_cast<const OrExpr&>(pred).terms()) {
        const double s = EstimateSelectivity(*t, stats);
        pass_none *= 1.0 - s;
        sum += s;
        best = std::max(best, s);
      }
      return std::clamp(1.0 - pass_none, best, std::min(1.0, sum));
    }
    case ExprKind::kNot:
      return std::clamp(
          1.0 - EstimateSelectivity(
                    *static_cast<const NotExpr&>(pred).input(), stats),
          0.0, 1.0);
    case ExprKind::kLike:
      return 0.25;
    case ExprKind::kIsNull: {
      const auto& is_null = static_cast<const IsNullExpr&>(pred);
      double fraction = 0.1;
      if (stats != nullptr) {
        if (auto known = StatsNullFraction(*is_null.input(), *stats)) {
          fraction = *known;
        }
      }
      return is_null.negated() ? 1.0 - fraction : fraction;
    }
    case ExprKind::kLiteral: {
      const auto& lit = static_cast<const LiteralExpr&>(pred);
      if (lit.value().is_bool()) {
        return lit.value().bool_value() ? 1.0 : 0.0;
      }
      return 0.5;
    }
    case ExprKind::kSubquery: {
      const auto& sq = static_cast<const SubqueryExpr&>(pred);
      if (sq.subquery_kind() == SubqueryKind::kExists) return 0.5;
      return 0.25;  // θ SOME|ALL, IN and NOT IN included
    }
    case ExprKind::kFunction: {
      // COALESCE(x, <literal>) passes where x does; the literal only
      // decides x's NULL rows, which the estimate ignores. This makes
      // "θ not TRUE", NOT COALESCE(θ, FALSE), come out as 1 − sel(θ).
      const auto& fn = static_cast<const FunctionExpr&>(pred);
      if (fn.func() == BuiltinFunc::kCoalesce && fn.args().size() == 2 &&
          fn.args()[1]->kind() == ExprKind::kLiteral) {
        return EstimateSelectivity(*fn.args()[0], stats);
      }
      return 0.5;
    }
    default:
      return 0.5;
  }
}

std::vector<double> EstimateDisjunctSelectivities(
    const Expr& pred, const StatsProvider* stats) {
  std::vector<double> out;
  if (pred.kind() == ExprKind::kOr) {
    for (const ExprPtr& t : static_cast<const OrExpr&>(pred).terms()) {
      out.push_back(EstimateSelectivity(*t, stats));
    }
  } else {
    out.push_back(EstimateSelectivity(pred, stats));
  }
  return out;
}

double EstimateCost(const Expr& pred, double subquery_cost) {
  double children_cost = 0;
  for (const ExprPtr& c : pred.children()) {
    children_cost += EstimateCost(*c, subquery_cost);
  }
  switch (pred.kind()) {
    case ExprKind::kLiteral:
    case ExprKind::kColumnRef:
      return 0.2;
    case ExprKind::kComparison:
    case ExprKind::kIsNull:
      return children_cost + 1.0;
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot:
      return children_cost + 0.1;
    case ExprKind::kArithmetic:
    case ExprKind::kFunction:
      return children_cost + 2.0;
    case ExprKind::kLike:
      return children_cost + 10.0;
    case ExprKind::kSubquery:
      return children_cost + subquery_cost;
  }
  return children_cost + 1.0;
}

double PredicateRank(const Expr& pred, double subquery_cost,
                     const StatsProvider* stats) {
  const double cost = EstimateCost(pred, subquery_cost);
  return (EstimateSelectivity(pred, stats) - 1.0) /
         (cost > 0 ? cost : 1e-9);
}

}  // namespace bypass
