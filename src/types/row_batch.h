// RowBatch: the unit of data flow between physical operators. A batch is
// exactly three things: a column store, a selection vector over it and a
// dense flag. Selections narrow and bypass operators split streams
// without touching the data itself — the paper's σ± stream partition is
// a partition of the selection vector. The store takes one of two forms:
//   - a window [begin, end) of a longer-lived store such as a catalog
//     table's (BorrowedColumns) — zero-copy scans and build-side windows;
//   - owned columns (FromColumns), shared among the views produced by a
//     bypass split / fan-out edge: the output of joins, groupings, χ and
//     Π, and of the sort (FromRows transposes its rows).
// A column is typed (raw arrays) or untyped (a Value per entry, the row
// oracle's form, which every typed kernel declines). Every reader reads
// the columns; rows are built only for the consumers that keep them (the
// collector sink, the sort's buffer) by ConsumeRowsInto.
#ifndef BYPASSDB_TYPES_ROW_BATCH_H_
#define BYPASSDB_TYPES_ROW_BATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "types/column_vector.h"
#include "types/row.h"

namespace bypass {

/// Default number of rows per batch (QueryOptions::batch_size).
inline constexpr size_t kDefaultBatchSize = 1024;

class RowBatch {
 public:
  RowBatch() = default;

  /// Owning batch over `rows` transposed into columns, every row
  /// selected: typed by each column's first non-NULL value, or untyped
  /// (a Value per entry) when `typed` is false.
  static RowBatch FromRows(std::vector<Row> rows, bool typed = true);

  /// Zero-copy view of rows [begin, end) of `columns`, which outlive the
  /// execution (a table's column store); selection entries index
  /// `columns`.
  static RowBatch BorrowedColumns(const ColumnStore* columns, size_t begin,
                                  size_t end);

  /// Owning column batch. The first form selects every row of the
  /// store (dense); the second selects `sel` (storage indices).
  static RowBatch FromColumns(ColumnStore columns);
  static RowBatch FromColumns(ColumnStore columns,
                              std::vector<uint32_t> sel);

  /// The columns backing this batch; never null. Selection-vector
  /// entries index them.
  const ColumnStore* columns() const { return columns_; }

  /// Number of selected rows.
  size_t size() const { return sel_.size(); }
  bool empty() const { return sel_.empty(); }

  /// Values per row: the column count.
  size_t width() const { return columns_->columns.size(); }

  /// The selection vector: indices into the shared storage. Operators
  /// that only drop rows (filter, limit, distinct) narrow it in place.
  /// Mutable access conservatively drops the dense flag.
  std::vector<uint32_t>& selection() {
    dense_ = false;
    return sel_;
  }
  const std::vector<uint32_t>& selection() const { return sel_; }

  /// True when the selection is a contiguous run over storage
  /// (sel[i] == sel[0] + i), as produced by scans and fresh
  /// materializations. Hot loops use it to index storage directly.
  bool dense() const { return dense_; }

  /// Re-asserts density after a mutation that provably kept the selection
  /// a contiguous run (e.g. a filter that dropped no rows). The non-const
  /// selection() accessor conservatively clears the flag; callers that
  /// preserved contiguity restore the fast path with this.
  void MarkDense() { dense_ = true; }

  /// True when this batch owns its columns, no other live view shares
  /// them and its selection is every storage row in order: the columns
  /// can then be taken (TakeColumns) instead of gathered.
  bool OwnsAllColumns() const;

  /// Moves the owned columns out; requires OwnsAllColumns(). The batch
  /// is empty afterwards.
  ColumnStore TakeColumns();

  /// The selected rows as a dense column store: the batch's own columns
  /// when it owns all of them (TakeColumns), a gather otherwise. The
  /// batch is consumed.
  ColumnStore ConsumeColumns();

  /// The selected rows as a dense column store, one column per entry of
  /// `slots` (every column when null), gathered from the batch's columns.
  ColumnStore GatherColumns(const std::vector<int>* slots) const;

  /// A new view over the same storage with its own selection vector —
  /// the zero-copy output of a bypass split.
  RowBatch ShareWithSelection(std::vector<uint32_t> sel) const;

  /// Appends all selected rows to `out`, built column by column. The
  /// batch is empty afterwards.
  void ConsumeRowsInto(std::vector<Row>* out);

  /// The selected rows, built column by column (convenience for tests).
  std::vector<Row> ToRows() const;

 private:
  /// A store with no columns and no rows: the default batch's.
  static const ColumnStore* EmptyColumns();

  /// The owned columns, shared by a batch and its views; null on a
  /// borrowed window.
  std::shared_ptr<ColumnStore> owned_;
  const ColumnStore* columns_ = EmptyColumns();
  std::vector<uint32_t> sel_;
  bool dense_ = false;
};

}  // namespace bypass

#endif  // BYPASSDB_TYPES_ROW_BATCH_H_
