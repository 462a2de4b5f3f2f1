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

RowBatch RowBatch::BorrowedColumnar(const ColumnStore* columns,
                                    const std::vector<Row>* storage,
                                    size_t begin, size_t end) {
  RowBatch batch = Borrowed(storage, begin, end);
  batch.columns_ = columns;
  return batch;
}

RowBatch RowBatch::ShareWithSelection(std::vector<uint32_t> sel) const {
  RowBatch view;
  view.owned_ = owned_;
  view.storage_ = storage_;
  view.columns_ = columns_;
  view.sel_ = std::move(sel);
  return view;
}

Row RowBatch::TakeRow(size_t i) {
  if (ExclusivelyOwned()) return std::move((*owned_)[sel_[i]]);
  return (*storage_)[sel_[i]];
}

void RowBatch::ConsumeRowsInto(std::vector<Row>* out) {
  // Grow geometrically: an exact reserve per batch would reallocate (and
  // move every accumulated row) once per appended batch.
  const size_t need = out->size() + sel_.size();
  if (out->capacity() < need) {
    out->reserve(std::max(need, out->capacity() * 2));
  }
  if (ExclusivelyOwned()) {
    for (uint32_t idx : sel_) out->push_back(std::move((*owned_)[idx]));
  } else {
    for (uint32_t idx : sel_) out->push_back((*storage_)[idx]);
  }
  sel_.clear();
}

void RowBatch::ConsumeRowsInto(std::vector<Row>* out,
                               const std::vector<int>& slots) {
  const size_t need = out->size() + sel_.size();
  if (out->capacity() < need) {
    out->reserve(std::max(need, out->capacity() * 2));
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
