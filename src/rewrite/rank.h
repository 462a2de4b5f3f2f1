// Rank-based predicate ordering (Slagle [26], as used by the paper's
// Sec. 3.1 remark): for a predicate p with selectivity s and per-tuple
// cost c, rank(p) = (s - 1) / c. Predicates are evaluated in ascending
// rank order; this decides between Eqv. 2 (cheap simple predicate first)
// and Eqv. 3 (unnested subquery first).
//
// The implementation moved into the statistics subsystem so ranks can be
// computed against ANALYZE histograms: see stats/selectivity.h
// (EstimateSelectivity / EstimateCost / PredicateRank) and
// stats/stats_provider.h (StatsProvider). This header remains as the
// rewriter-facing include point.
#ifndef BYPASSDB_REWRITE_RANK_H_
#define BYPASSDB_REWRITE_RANK_H_

#include "stats/selectivity.h"    // IWYU pragma: export
#include "stats/stats_provider.h" // IWYU pragma: export

#endif  // BYPASSDB_REWRITE_RANK_H_
