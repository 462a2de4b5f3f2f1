#include "types/row_batch.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace bypass {

RowBatch RowBatch::FromRows(std::vector<Row> rows) {
  RowBatch batch;
  batch.owned_ = std::make_shared<std::vector<Row>>(std::move(rows));
  batch.storage_ = batch.owned_.get();
  batch.sel_.resize(batch.storage_->size());
  std::iota(batch.sel_.begin(), batch.sel_.end(), 0);
  batch.dense_ = true;
  return batch;
}

RowBatch RowBatch::Borrowed(const std::vector<Row>* storage, size_t begin,
                            size_t end) {
  RowBatch batch;
  batch.storage_ = storage;
  batch.sel_.resize(end - begin);
  std::iota(batch.sel_.begin(), batch.sel_.end(),
            static_cast<uint32_t>(begin));
  batch.dense_ = true;
  return batch;
}

RowBatch RowBatch::BorrowedColumns(const ColumnStore* columns,
                                   size_t begin, size_t end) {
  RowBatch batch;
  batch.col_data_ = std::make_shared<ColumnData>();
  batch.col_data_->rows_begin = begin;
  batch.col_data_->rows_end = end;
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
  batch.col_data_ = std::make_shared<ColumnData>();
  batch.col_data_->columns = std::move(columns);
  batch.col_data_->rows_end = batch.col_data_->columns.num_rows;
  batch.columns_ = &batch.col_data_->columns;
  batch.sel_ = std::move(sel);
  return batch;
}

size_t RowBatch::width() const {
  if (columns_ != nullptr) return columns_->columns.size();
  return sel_.empty() ? 0 : row(0).size();
}

void RowBatch::MaterializeRows() const {
  ColumnData& data = *col_data_;
  const ColumnStore& columns = *columns_;
  std::call_once(data.rows_once, [&data, &columns] {
    std::vector<uint32_t> window(data.rows_end - data.rows_begin);
    std::iota(window.begin(), window.end(),
              static_cast<uint32_t>(data.rows_begin));
    columns.MaterializeRows(window.data(), window.size(), nullptr,
                            &data.rows);
    data.rows_ready.store(true, std::memory_order_release);
  });
  row_base_ = static_cast<uint32_t>(data.rows_begin);
  storage_ = &data.rows;
}

bool RowBatch::OwnsAllColumns() const {
  if (col_data_ == nullptr || columns_ != &col_data_->columns ||
      col_data_.use_count() != 1 || sel_.size() != columns_->num_rows) {
    return false;
  }
  if (dense_) return sel_.empty() || sel_[0] == 0;
  for (size_t i = 0; i < sel_.size(); ++i) {
    if (sel_[i] != i) return false;
  }
  return true;
}

ColumnStore RowBatch::TakeColumns() {
  ColumnStore out = std::move(col_data_->columns);
  *this = RowBatch();
  return out;
}

ColumnStore RowBatch::GatherColumns(const std::vector<int>* slots) const {
  const size_t n = sel_.size();
  const size_t width = slots != nullptr ? slots->size() : this->width();
  ColumnStore out;
  out.num_rows = n;
  out.columns.reserve(width);
  std::vector<Value> values;
  for (size_t c = 0; c < width; ++c) {
    const size_t slot =
        slots != nullptr ? static_cast<size_t>((*slots)[c]) : c;
    if (columns_ != nullptr) {
      const ColumnVector& src = columns_->columns[slot];
      ColumnVector col(src.type());
      col.AppendGather(src, sel_.data(), n);
      out.columns.push_back(std::move(col));
      continue;
    }
    values.clear();
    values.reserve(n);
    for (size_t i = 0; i < n; ++i) values.push_back(row(i)[slot]);
    out.columns.push_back(ColumnFromValues(values));
  }
  return out;
}

RowBatch RowBatch::ShareWithSelection(std::vector<uint32_t> sel) const {
  RowBatch view;
  view.owned_ = owned_;
  view.col_data_ = col_data_;
  view.storage_ = storage_;
  view.row_base_ = row_base_;
  view.columns_ = columns_;
  view.sel_ = std::move(sel);
  return view;
}

Row RowBatch::TakeRow(size_t i) {
  if (columns_ != nullptr) return columns_->MaterializeRow(sel_[i]);
  if (ExclusivelyOwned()) return std::move((*owned_)[sel_[i]]);
  return (*storage_)[sel_[i]];
}

void RowBatch::ReserveFor(std::vector<Row>* out) const {
  // Grow geometrically: an exact reserve per batch would reallocate (and
  // move every accumulated row) once per appended batch.
  const size_t need = out->size() + sel_.size();
  if (out->capacity() < need) {
    out->reserve(std::max(need, out->capacity() * 2));
  }
}

void RowBatch::ConsumeRowsInto(std::vector<Row>* out) {
  ReserveFor(out);
  if (columns_ != nullptr) {
    columns_->MaterializeRows(sel_.data(), sel_.size(), nullptr, out);
  } else if (ExclusivelyOwned()) {
    for (uint32_t idx : sel_) out->push_back(std::move((*owned_)[idx]));
  } else {
    for (uint32_t idx : sel_) out->push_back((*storage_)[idx]);
  }
  sel_.clear();
}

void RowBatch::ConsumeRowsInto(std::vector<Row>* out,
                               const std::vector<int>& slots) {
  ReserveFor(out);
  if (columns_ != nullptr) {
    columns_->MaterializeRows(sel_.data(), sel_.size(), &slots, out);
    sel_.clear();
    return;
  }
  const bool owned = ExclusivelyOwned();
  for (uint32_t idx : sel_) {
    Row narrowed;
    narrowed.reserve(slots.size());
    if (owned) {
      Row& src = (*owned_)[idx];
      for (int s : slots) {
        narrowed.push_back(std::move(src[static_cast<size_t>(s)]));
      }
    } else {
      const Row& src = (*storage_)[idx];
      for (int s : slots) narrowed.push_back(src[static_cast<size_t>(s)]);
    }
    out->push_back(std::move(narrowed));
  }
  sel_.clear();
}

std::vector<Row> RowBatch::ToRows() {
  std::vector<Row> rows;
  ConsumeRowsInto(&rows);
  return rows;
}

}  // namespace bypass
