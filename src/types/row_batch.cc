#include "types/row_batch.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace bypass {

const ColumnStore* RowBatch::EmptyColumns() {
  static const ColumnStore empty;
  return &empty;
}

RowBatch RowBatch::FromRows(std::vector<Row> rows, bool typed) {
  ColumnStore store;
  store.num_rows = rows.size();
  const size_t width = rows.empty() ? 0 : rows[0].size();
  store.columns.reserve(width);
  for (size_t c = 0; c < width; ++c) {
    // A typed column's placeholder type gives way to its first non-NULL
    // value's.
    ColumnVector col =
        typed ? ColumnVector(DataType::kInt64) : ColumnVector::Untyped();
    col.Reserve(rows.size());
    for (Row& row : rows) col.Append(std::move(row[c]));
    store.columns.push_back(std::move(col));
  }
  return FromColumns(std::move(store));
}

RowBatch RowBatch::BorrowedColumns(const ColumnStore* columns,
                                   size_t begin, size_t end) {
  RowBatch batch;
  batch.columns_ = columns;
  batch.sel_.resize(end - begin);
  std::iota(batch.sel_.begin(), batch.sel_.end(),
            static_cast<uint32_t>(begin));
  batch.dense_ = true;
  return batch;
}

RowBatch RowBatch::FromColumns(ColumnStore columns) {
  std::vector<uint32_t> sel(columns.num_rows);
  std::iota(sel.begin(), sel.end(), 0);
  RowBatch batch = FromColumns(std::move(columns), std::move(sel));
  batch.dense_ = true;
  return batch;
}

RowBatch RowBatch::FromColumns(ColumnStore columns,
                               std::vector<uint32_t> sel) {
  RowBatch batch;
  batch.owned_ = std::make_shared<ColumnStore>(std::move(columns));
  batch.columns_ = batch.owned_.get();
  batch.sel_ = std::move(sel);
  return batch;
}

bool RowBatch::OwnsAllColumns() const {
  if (owned_ == nullptr || owned_.use_count() != 1 ||
      sel_.size() != columns_->num_rows) {
    return false;
  }
  if (dense_) return sel_.empty() || sel_[0] == 0;
  for (size_t i = 0; i < sel_.size(); ++i) {
    if (sel_[i] != i) return false;
  }
  return true;
}

ColumnStore RowBatch::TakeColumns() {
  ColumnStore out = std::move(*owned_);
  *this = RowBatch();
  return out;
}

ColumnStore RowBatch::ConsumeColumns() {
  if (OwnsAllColumns()) return TakeColumns();
  return GatherColumns(nullptr);
}

ColumnStore RowBatch::GatherColumns(const std::vector<int>* slots) const {
  ColumnStore out;
  out.AppendGather(*columns_, sel_.data(), sel_.size(), slots);
  return out;
}

RowBatch RowBatch::ShareWithSelection(std::vector<uint32_t> sel) const {
  RowBatch view;
  view.owned_ = owned_;
  view.columns_ = columns_;
  view.sel_ = std::move(sel);
  return view;
}

void RowBatch::ConsumeRowsInto(std::vector<Row>* out) {
  // Grow geometrically: an exact reserve per batch would reallocate (and
  // move every accumulated row) once per appended batch.
  const size_t need = out->size() + sel_.size();
  if (out->capacity() < need) {
    out->reserve(std::max(need, out->capacity() * 2));
  }
  columns_->MaterializeRows(sel_.data(), sel_.size(), out);
  sel_.clear();
}

std::vector<Row> RowBatch::ToRows() const {
  std::vector<Row> rows;
  columns_->MaterializeRows(sel_.data(), sel_.size(), &rows);
  return rows;
}

}  // namespace bypass
