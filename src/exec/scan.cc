#include "exec/scan.h"

#include <algorithm>

#include "storage/segment.h"
#include "storage/zone_map.h"

namespace bypass {

Status TableScanOp::EmitFlatRange(size_t begin, size_t end) {
  // Columnar scans borrow windows of the table's columns; the row oracle
  // copies each window into untyped columns, which every typed kernel
  // declines.
  const bool columnar = ctx_->run().columnar_enabled;
  for (size_t b = begin; b < end; b += batch_size()) {
    if (ctx_->cancelled()) break;
    BYPASS_RETURN_IF_ERROR(ctx_->run().CheckBudget());
    const size_t batch_end = std::min(b + batch_size(), end);
    ExecStats& stats = ctx_->run().stats();
    stats.rows_scanned += static_cast<int64_t>(batch_end - b);
    RowBatch batch =
        RowBatch::BorrowedColumns(&table_->columns(), b, batch_end);
    if (columnar) {
      ++stats.columnar_batches;
    } else {
      ColumnStore copy;
      copy.columns.assign(batch.width(), ColumnVector::Untyped());
      copy.AppendGather(*batch.columns(), batch.selection().data(),
                        batch.size(), nullptr);
      batch = RowBatch::FromColumns(std::move(copy));
    }
    BYPASS_RETURN_IF_ERROR(Emit(kPortOut, std::move(batch)));
  }
  return Status::OK();
}

Status TableScanOp::RunMorsel(size_t begin, size_t end) {
  if (zone_filter_ == nullptr || !ctx_->run().zone_maps_enabled) {
    return EmitFlatRange(begin, end);
  }

  const TableSegments& segs = table_->segments();
  if (segs.num_segments() == 0) return EmitFlatRange(begin, end);
  for (size_t seg = begin / segs.rows_per_segment;
       seg < segs.num_segments(); ++seg) {
    const SegmentMeta& meta = segs.segments[seg];
    if (meta.row_begin >= end) break;
    const size_t lo = std::max(begin, meta.row_begin);
    const size_t hi = std::min(end, meta.row_begin + meta.row_count);
    if (lo >= hi) continue;
    ExecStats& stats = ctx_->run().stats();
    // Segment counters attribute to the morsel holding the segment's
    // first row, so they stay exact under any morsel alignment.
    const bool counts_here = lo == meta.row_begin;
    if (counts_here) ++stats.segments_scanned;
    if (!ZoneMayBeTrue(*zone_filter_, meta)) {
      if (counts_here) ++stats.segments_skipped;
      stats.zone_skip_rows += static_cast<int64_t>(hi - lo);
      continue;
    }
    BYPASS_RETURN_IF_ERROR(EmitFlatRange(lo, hi));
  }
  return Status::OK();
}

Status TableScanOp::Run() {
  BYPASS_RETURN_IF_ERROR(RunMorsel(0, num_rows()));
  return FinishSource();
}

}  // namespace bypass
