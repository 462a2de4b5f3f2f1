#include "catalog/table.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <string_view>
#include <unordered_set>

#include "common/key_index.h"

namespace bypass {

namespace {

// Lazy-tier stats for one typed column without materializing Values:
// null count from the bitmap, min/max folded over raw data in the order
// Value::OrderCompare induces for a single-typed column (CompareNumeric
// for numbers), and an exact NDV over raw values.
ColumnStatistics TypedColumnStats(const ColumnVector& col) {
  ColumnStatistics st;
  const size_t n = col.size();
  switch (col.type()) {
    case DataType::kInt64: {
      const int64_t* data = col.i64_data();
      std::unordered_set<int64_t> seen;
      bool have = false;
      int64_t lo = 0, hi = 0;
      for (size_t i = 0; i < n; ++i) {
        if (col.IsNull(i)) {
          ++st.null_count;
          continue;
        }
        seen.insert(data[i]);
        if (!have) {
          lo = hi = data[i];
          have = true;
        } else {
          if (CompareNumeric(data[i], lo) < 0) lo = data[i];
          if (CompareNumeric(data[i], hi) > 0) hi = data[i];
        }
      }
      if (have) {
        st.min = Value::Int64(lo);
        st.max = Value::Int64(hi);
      }
      st.distinct_count = static_cast<int64_t>(seen.size());
      break;
    }
    case DataType::kDouble: {
      const double* data = col.f64_data();
      // Hash-identity NDV (HashNumeric, as Value::Hash: ±0.0 and every
      // NaN are one value each).
      std::unordered_set<size_t> seen;
      bool have = false;
      double lo = 0, hi = 0;
      for (size_t i = 0; i < n; ++i) {
        if (col.IsNull(i)) {
          ++st.null_count;
          continue;
        }
        seen.insert(HashNumeric(data[i]));
        if (!have) {
          lo = hi = data[i];
          have = true;
        } else {
          if (CompareNumeric(data[i], lo) < 0) lo = data[i];
          if (CompareNumeric(data[i], hi) > 0) hi = data[i];
        }
      }
      if (have) {
        st.min = Value::Double(lo);
        st.max = Value::Double(hi);
      }
      st.distinct_count = static_cast<int64_t>(seen.size());
      break;
    }
    case DataType::kBool: {
      const uint8_t* data = col.bool_data();
      bool saw_false = false, saw_true = false;
      for (size_t i = 0; i < n; ++i) {
        if (col.IsNull(i)) {
          ++st.null_count;
          continue;
        }
        (data[i] != 0 ? saw_true : saw_false) = true;
      }
      if (saw_false || saw_true) {
        st.min = Value::Bool(saw_false ? false : true);
        st.max = Value::Bool(saw_true ? true : false);
      }
      st.distinct_count = (saw_false ? 1 : 0) + (saw_true ? 1 : 0);
      break;
    }
    case DataType::kString: {
      std::unordered_set<std::string_view> seen;
      bool have = false;
      std::string_view lo, hi;
      for (size_t i = 0; i < n; ++i) {
        if (col.IsNull(i)) {
          ++st.null_count;
          continue;
        }
        const std::string_view s = col.string_at(i);
        seen.insert(s);
        if (!have) {
          lo = hi = s;
          have = true;
        } else {
          if (s.compare(lo) < 0) lo = s;
          if (s.compare(hi) > 0) hi = s;
        }
      }
      if (have) {
        st.min = Value::String(std::string(lo));
        st.max = Value::String(std::string(hi));
      }
      st.distinct_count = static_cast<int64_t>(seen.size());
      break;
    }
  }
  return st;
}

// Mixed-mode fallback: the pre-columnar per-Value loop (NDV via value
// hashes, min/max via OrderCompare, which also handles cross-typed
// numerics the way the old row path did).
ColumnStatistics MixedColumnStats(const ColumnVector& col) {
  ColumnStatistics st;
  std::unordered_set<size_t> seen_hashes;
  bool have_minmax = false;
  for (size_t i = 0; i < col.size(); ++i) {
    const Value v = col.GetValue(i);
    if (v.is_null()) {
      ++st.null_count;
      continue;
    }
    seen_hashes.insert(v.Hash());
    if (!have_minmax) {
      st.min = v;
      st.max = v;
      have_minmax = true;
    } else {
      if (v.OrderCompare(st.min) < 0) st.min = v;
      if (v.OrderCompare(st.max) > 0) st.max = v;
    }
  }
  st.distinct_count = static_cast<int64_t>(seen_hashes.size());
  return st;
}

/// Rows per FindOrInsertBatch call of the duplicate-freeness proof.
constexpr size_t kProofBatchRows = 4096;

/// True when no row of `store` repeats an earlier one under DISTINCT's
/// equality: the KeyIndex δ keys on, fed borrowed windows of every column
/// as a scan would, so a new row is exactly one that gets the next id.
bool ProveDuplicateFree(const ColumnStore& store) {
  if (store.columns.empty()) return store.num_rows <= 1;
  KeyIndex seen;
  seen.Reserve(store.num_rows);
  std::vector<int> slots(store.columns.size());
  std::iota(slots.begin(), slots.end(), 0);
  std::vector<uint32_t> ids;
  for (size_t begin = 0; begin < store.num_rows; begin += kProofBatchRows) {
    const RowBatch batch = RowBatch::BorrowedColumns(
        &store, begin, std::min(store.num_rows, begin + kProofBatchRows));
    const uint32_t first = static_cast<uint32_t>(seen.size());
    ids.resize(batch.size());
    seen.FindOrInsertBatch(batch, slots, ids.data());
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] != first + i) return false;
    }
  }
  return true;
}

}  // namespace

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  columns_.columns.reserve(static_cast<size_t>(schema_.num_columns()));
  for (int c = 0; c < schema_.num_columns(); ++c) {
    columns_.columns.emplace_back(schema_.column(c).type);
  }
}

void Table::Invalidate() {
  stats_valid_.store(false, std::memory_order_release);
  segments_valid_.store(false, std::memory_order_release);
  duplicate_free_valid_.store(false, std::memory_order_release);
}

Status Table::Append(Row row) {
  if (static_cast<int>(row.size()) != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) +
        " does not match table '" + name_ + "' with " +
        std::to_string(schema_.num_columns()) + " columns");
  }
  for (int i = 0; i < schema_.num_columns(); ++i) {
    const Value& v = row[static_cast<size_t>(i)];
    if (v.is_null()) continue;
    const DataType expected = schema_.column(i).type;
    const bool ok =
        (v.type() == expected) ||
        (v.is_int64() && expected == DataType::kDouble) ||
        (v.is_double() && expected == DataType::kInt64);
    if (!ok) {
      return Status::InvalidArgument(
          "type mismatch in column '" + schema_.column(i).name +
          "' of table '" + name_ + "': expected " +
          DataTypeToString(expected) + ", got " + v.ToString());
    }
  }
  columns_.AppendRow(row);
  Invalidate();
  return Status::OK();
}

Status Table::AppendUnchecked(std::vector<Row> rows) {
  for (const Row& r : rows) {
    if (static_cast<int>(r.size()) != schema_.num_columns()) {
      return Status::InvalidArgument("row arity mismatch in bulk append to '" +
                                     name_ + "'");
    }
  }
  columns_.Reserve(columns_.num_rows + rows.size());
  for (const Row& r : rows) columns_.AppendRow(r);
  Invalidate();
  return Status::OK();
}

void Table::Clear() {
  columns_.Clear();
  stats_.clear();
  Invalidate();
}

void Table::AnalyzeStats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  AnalyzeStatsLocked();
}

void Table::AnalyzeStatsLocked() const {
  stats_.clear();
  stats_.reserve(columns_.columns.size());
  for (const ColumnVector& col : columns_.columns) {
    stats_.push_back(col.typed() ? TypedColumnStats(col)
                                 : MixedColumnStats(col));
  }
  stats_valid_.store(true, std::memory_order_release);
}

void Table::set_segment_rows(size_t rows) {
  std::lock_guard<std::mutex> lock(segments_mutex_);
  segment_rows_ = rows == 0 ? kDefaultRowsPerSegment : rows;
  segments_valid_.store(false, std::memory_order_release);
}

const TableSegments& Table::segments() const {
  // Double-checked init, same discipline as stats().
  if (!segments_valid_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(segments_mutex_);
    if (!segments_valid_.load(std::memory_order_relaxed)) {
      segments_ = BuildTableSegments(columns_, segment_rows_);
      segments_valid_.store(true, std::memory_order_release);
    }
  }
  return segments_;
}

bool Table::duplicate_free() const {
  // Double-checked init, same discipline as stats().
  if (!duplicate_free_valid_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(duplicate_free_mutex_);
    if (!duplicate_free_valid_.load(std::memory_order_relaxed)) {
      duplicate_free_ = ProveDuplicateFree(columns_);
      duplicate_free_valid_.store(true, std::memory_order_release);
    }
  }
  return duplicate_free_;
}

const std::vector<ColumnStatistics>& Table::stats() const {
  // Double-checked init so concurrent planners never race the compute;
  // the release store above pairs with this acquire load.
  if (!stats_valid_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    if (!stats_valid_.load(std::memory_order_relaxed)) {
      AnalyzeStatsLocked();
    }
  }
  return stats_;
}

}  // namespace bypass
