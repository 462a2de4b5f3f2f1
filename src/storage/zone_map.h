// Zone maps: per-segment, per-column min/max/null-count summaries used to
// prove a scan predicate FALSE-or-UNKNOWN over a whole segment before a
// single row is touched. A filter keeps only rows where the predicate is
// TRUE (SQL 3VL), so a segment is skippable exactly when the zone test
// proves the predicate cannot be TRUE for any of its rows; UNKNOWN rows
// need no special casing. Disjunctions compose per disjunct: the OR may
// be true iff some disjunct may be, which is how the bypass plans
// inherit data skipping over each cheap disjunct (cf. Kim et al., arXiv
// 2002.00540).
#ifndef BYPASSDB_STORAGE_ZONE_MAP_H_
#define BYPASSDB_STORAGE_ZONE_MAP_H_

#include <cstdint>
#include <vector>

#include "types/value.h"

namespace bypass {

class Expr;

/// Zone of one column over one segment. `min`/`max` summarize the
/// non-NULL values (NULL Values when the segment has none). `untracked`
/// marks columns the builder makes no claims about (mixed-mode storage);
/// every zone test treats an untracked column as "may be anything". The
/// bounds are in Value::Compare's order, so a NaN is a double segment's
/// max.
struct ColumnZone {
  Value min;
  Value max;
  int64_t null_count = 0;
  bool untracked = false;
};

/// Zone-map metadata for one segment: its row range in the table plus one
/// ColumnZone per table column.
struct SegmentMeta {
  size_t row_begin = 0;
  size_t row_count = 0;
  std::vector<ColumnZone> zones;
};

/// Three-way verdict of a zone test for one predicate over one segment.
enum class ZoneMatch {
  kNone,  ///< no row of the segment can satisfy the predicate
  kSome,  ///< some rows may satisfy it
  kAll,   ///< every row provably satisfies it (no NULLs, range inside)
};

/// Zone test for a single `column op literal` comparison. `rows` is the
/// segment's row count. Sound for typed columns because every non-NULL
/// row shares min/max's dynamic type, so an untyped-comparable literal
/// (Compare == Unknown against min) is Unknown against every row.
ZoneMatch ClassifyZone(const ColumnZone& zone, size_t rows, CompareOp op,
                       const Value& literal);

/// True when `pred` might evaluate to TRUE for some row of the segment;
/// false only when the zones prove no row can satisfy it. `pred` must be
/// bound against the scanned table's schema, so ColumnRef slots index
/// `meta.zones`. Unsupported expression shapes are conservatively "may".
bool ZoneMayBeTrue(const Expr& pred, const SegmentMeta& meta);

/// Zone test for `pred` returning the three-way verdict; kAll
/// additionally requires every row (NULLs included) to satisfy the
/// predicate, which the selectivity refinement uses as a lower bound.
ZoneMatch ZoneTest(const Expr& pred, const SegmentMeta& meta);

}  // namespace bypass

#endif  // BYPASSDB_STORAGE_ZONE_MAP_H_
