// Post-unnesting pass: COUNT(DISTINCT *) as COUNT(*) over one shared δ.
//
//   Γ_{B; COUNT(DISTINCT *), ...}(E)  ⇒  Γ_{B; COUNT(*), ...}(δ(E))
//
// when every aggregate of the grouping is COUNT(DISTINCT *); a binary
// grouping's right input gets the same treatment. Sound because B (or
// the binary grouping's right key) is read from E's row: equal rows fall
// into the same group, so counting one copy of each row of δ(E) per
// group is counting the group's distinct rows. δ's structural NULL
// equality is the one COUNT(DISTINCT *)'s per-group set used. One δ
// replaces a row set per group.
//
// The pass runs on the chosen plan, after the unnesting equivalences
// (whose Eqv. 4 vs 5 choice still sees the DISTINCT aggregate, paper
// footnote 1), so the required-columns pass and the estimator see δ.
#ifndef BYPASSDB_REWRITE_COUNT_DISTINCT_H_
#define BYPASSDB_REWRITE_COUNT_DISTINCT_H_

#include <string>
#include <vector>

#include "algebra/logical_op.h"

namespace bypass {

/// Returns `plan` with every qualifying grouping rewritten (the same
/// pointer when none qualifies). Appends one line per rewritten grouping
/// to `notes`, e.g. "COUNT(DISTINCT *) as COUNT(*) over δ: Γ[$k1 := s.b2]".
/// Nested subquery blocks left in expressions are not entered.
LogicalOpPtr CountDistinctOverDelta(const LogicalOpPtr& plan,
                                    std::vector<std::string>* notes);

}  // namespace bypass

#endif  // BYPASSDB_REWRITE_COUNT_DISTINCT_H_
