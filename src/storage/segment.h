// Segment index: a table's ColumnStore is partitioned into fixed-size row
// ranges (~64K rows by default), and each range carries one zone map per
// column (null count, min/max over the non-NULL values). Scans consult
// the zones to skip segments their pushed-down predicate cannot match,
// and the selectivity estimator reads them as cardinality bounds. The
// index holds no copy of the data: every scan reads the table's flat
// in-memory columns.
#ifndef BYPASSDB_STORAGE_SEGMENT_H_
#define BYPASSDB_STORAGE_SEGMENT_H_

#include <cstddef>
#include <vector>

#include "storage/zone_map.h"
#include "types/column_vector.h"

namespace bypass {

/// Default segment granularity (rows). Tests shrink it to exercise many
/// segments over small tables.
inline constexpr size_t kDefaultRowsPerSegment = 64 * 1024;

/// The segment index of one table: zone-map metadata per segment.
struct TableSegments {
  size_t rows_per_segment = kDefaultRowsPerSegment;
  size_t num_rows = 0;
  std::vector<SegmentMeta> segments;

  size_t num_segments() const { return segments.size(); }
};

/// Builds the zone maps of every `rows_per_segment`-row range of `store`.
/// Zones of mixed-mode columns are `untracked`: they carry a null count
/// but no min/max.
TableSegments BuildTableSegments(const ColumnStore& store,
                                 size_t rows_per_segment);

}  // namespace bypass

#endif  // BYPASSDB_STORAGE_SEGMENT_H_
