// In-memory base table, column-major, with per-column statistics for
// cost estimation.
#ifndef BYPASSDB_CATALOG_TABLE_H_
#define BYPASSDB_CATALOG_TABLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "stats/column_stats.h"
#include "storage/segment.h"
#include "types/column_vector.h"
#include "types/row.h"
#include "types/schema.h"

namespace bypass {

/// A columnar heap with a schema. The ColumnStore (typed contiguous
/// columns + null bitmaps) is the table's only copy of its values; scans
/// borrow windows of it. Row mutation is not thread-safe (loads never
/// race queries by contract), but the lazily computed statistics,
/// segment index and duplicate-freeness proof may be demanded by
/// concurrent planning / execution threads, so their initialization is
/// guarded.
class Table {
 public:
  Table(std::string name, Schema schema);

  // Movable (the guard mutexes stay fresh; moves never race readers by
  // contract), not copyable.
  Table(Table&& other) noexcept
      : name_(std::move(other.name_)),
        schema_(std::move(other.schema_)),
        columns_(std::move(other.columns_)),
        stats_(std::move(other.stats_)),
        stats_valid_(other.stats_valid_.load(std::memory_order_relaxed)),
        segment_rows_(other.segment_rows_),
        segments_(std::move(other.segments_)),
        segments_valid_(
            other.segments_valid_.load(std::memory_order_relaxed)),
        duplicate_free_(other.duplicate_free_),
        duplicate_free_valid_(
            other.duplicate_free_valid_.load(std::memory_order_relaxed)) {}
  Table& operator=(Table&& other) noexcept {
    name_ = std::move(other.name_);
    schema_ = std::move(other.schema_);
    columns_ = std::move(other.columns_);
    stats_ = std::move(other.stats_);
    stats_valid_.store(other.stats_valid_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    segment_rows_ = other.segment_rows_;
    segments_ = std::move(other.segments_);
    segments_valid_.store(
        other.segments_valid_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    duplicate_free_ = other.duplicate_free_;
    duplicate_free_valid_.store(
        other.duplicate_free_valid_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    return *this;
  }
  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// The table's values, column-major.
  const ColumnStore& columns() const { return columns_; }

  int64_t num_rows() const {
    return static_cast<int64_t>(columns_.num_rows);
  }

  /// True when no two rows are equal under DISTINCT's equality (NULL =
  /// NULL, -0.0 = 0.0, NaN = NaN, 5 = 5.0). Proved on first use after a
  /// modification by one KeyIndex pass over every row, which stops at the
  /// first repeat; Append, AppendUnchecked and Clear forget it, ANALYZE
  /// does not. Safe to call from concurrent readers.
  bool duplicate_free() const;

  /// Appends one row after checking arity and types (NULL always allowed).
  Status Append(Row row);

  /// Bulk-append without per-row type checks (generators produce typed
  /// data); still validates arity.
  Status AppendUnchecked(std::vector<Row> rows);

  /// Drops all rows and statistics.
  void Clear();

  /// Recomputes column statistics; invoked lazily by stats().
  void AnalyzeStats() const;

  /// Per-column statistics (computed on first use after modification) in
  /// the stats subsystem's ColumnStatistics shape — the lazy tier fills
  /// null_count/min/max plus an exact distinct_count and leaves the
  /// histogram empty (ANALYZE builds the rich tier). Safe to call from
  /// concurrent readers; the first caller computes.
  const std::vector<ColumnStatistics>& stats() const;

  /// Segment granularity for the zone-map index; invalidates any built
  /// index. Tests shrink it to get many segments over small tables.
  void set_segment_rows(size_t rows);
  size_t segment_rows() const { return segment_rows_; }

  /// The segment index (per-segment zone maps), built on first use after
  /// a modification. Safe to call from concurrent readers.
  const TableSegments& segments() const;

  /// True when the index is already built and current — a non-building
  /// probe for planner-side consumers that must not pay the build cost.
  bool has_segments() const {
    return segments_valid_.load(std::memory_order_acquire);
  }

 private:
  void AnalyzeStatsLocked() const;
  void Invalidate();

  std::string name_;
  Schema schema_;
  ColumnStore columns_;
  mutable std::mutex stats_mutex_;
  mutable std::vector<ColumnStatistics> stats_;
  mutable std::atomic<bool> stats_valid_{false};
  size_t segment_rows_ = kDefaultRowsPerSegment;
  mutable std::mutex segments_mutex_;
  mutable TableSegments segments_;
  mutable std::atomic<bool> segments_valid_{false};
  mutable std::mutex duplicate_free_mutex_;
  mutable bool duplicate_free_ = false;
  mutable std::atomic<bool> duplicate_free_valid_{false};
};

}  // namespace bypass

#endif  // BYPASSDB_CATALOG_TABLE_H_
