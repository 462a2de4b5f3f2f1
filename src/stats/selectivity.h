// Selectivity and predicate-cost estimation (grown out of rewrite/rank):
// comparison predicates consult ANALYZE histograms when available, fall
// back to lazy min/max interpolation and 1/NDV, then to textbook
// constants; conjunctions multiply under independence; disjunctions use
// inclusion–exclusion with sanity clamps to
// [max(disjuncts), min(1, sum(disjuncts))]. Per-disjunct estimates are
// exposed so the unnesting rewriter can rank a bypass cascade's branches
// (the paper's Eqv. 2 vs Eqv. 3 choice) on data instead of constants.
#ifndef BYPASSDB_STATS_SELECTIVITY_H_
#define BYPASSDB_STATS_SELECTIVITY_H_

#include <cstdint>
#include <vector>

#include "expr/expr.h"
#include "stats/stats_provider.h"

namespace bypass {

/// Selectivity of `pred` in [0, 1]. With `stats`, equality against a
/// literal uses histograms/NDV, column = column uses 1/max(NDV) of the
/// two sides, and ranges use histogram fractions (or min/max
/// interpolation); otherwise textbook defaults apply ('=' 0.1,
/// ranges 1/3, LIKE 0.25).
double EstimateSelectivity(const Expr& pred,
                           const StatsProvider* stats = nullptr);

/// Distinct count of an uncorrelated column: ANALYZE's when present,
/// else the lazy tier's; 0 when unknown.
int64_t ColumnDistinctCount(const ColumnRefExpr& ref,
                            const StatsProvider& stats);

/// Selectivity of each top-level disjunct of `pred` (one entry for a
/// non-OR predicate), in disjunct order.
std::vector<double> EstimateDisjunctSelectivities(
    const Expr& pred, const StatsProvider* stats = nullptr);

/// Per-tuple evaluation cost in abstract units; LIKE and arithmetic are
/// charged more, nested subqueries cost `subquery_cost`.
double EstimateCost(const Expr& pred, double subquery_cost);

/// rank(p) = (selectivity - 1) / cost (Slagle); lower ranks evaluate
/// first. With `stats`, the selectivity term is data-driven.
double PredicateRank(const Expr& pred, double subquery_cost,
                     const StatsProvider* stats = nullptr);

}  // namespace bypass

#endif  // BYPASSDB_STATS_SELECTIVITY_H_
