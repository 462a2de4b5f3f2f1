#include "storage/segment.h"

#include <algorithm>
#include <string>
#include <string_view>

namespace bypass {

namespace {

/// Value::OrderCompare within one dynamic type: native `<` (for int64 it
/// is the numeric order), and the numeric order for doubles.
template <typename T>
bool Below(T a, T b) {
  return a < b;
}
bool Below(double a, double b) { return CompareNumeric(a, b) < 0; }

/// Folds the non-NULL values of rows [begin, end) into `zone`'s min/max.
/// The first of equal values is kept (so -0.0 and 0.0 stay as stored); a
/// NaN, the largest number, is the max of any segment holding one.
template <typename T, typename At, typename Make>
void TrackRange(const ColumnVector& col, size_t begin, size_t end, At at,
                Make make, ColumnZone* zone) {
  bool any = false;
  T lo{}, hi{};
  for (size_t i = begin; i < end; ++i) {
    if (col.IsNull(i)) continue;
    const T v = at(i);
    if (!any) {
      lo = hi = v;
      any = true;
    } else if (Below(v, lo)) {
      lo = v;
    } else if (Below(hi, v)) {
      hi = v;
    }
  }
  if (any) {
    zone->min = make(lo);
    zone->max = make(hi);
  }
}

ColumnZone BuildZone(const ColumnVector& col, size_t begin, size_t end) {
  ColumnZone zone;
  if (col.has_nulls()) {
    for (size_t i = begin; i < end; ++i) {
      if (col.IsNull(i)) ++zone.null_count;
    }
  }
  if (!col.typed()) {
    zone.untracked = true;  // mixed dynamic types: no range claims
    return zone;
  }
  switch (col.type()) {
    case DataType::kInt64:
      TrackRange<int64_t>(
          col, begin, end, [&](size_t i) { return col.i64_data()[i]; },
          Value::Int64, &zone);
      break;
    case DataType::kDouble:
      TrackRange<double>(
          col, begin, end, [&](size_t i) { return col.f64_data()[i]; },
          Value::Double, &zone);
      break;
    case DataType::kBool:
      TrackRange<bool>(
          col, begin, end, [&](size_t i) { return col.bool_data()[i] != 0; },
          Value::Bool, &zone);
      break;
    case DataType::kString:
      TrackRange<std::string_view>(
          col, begin, end, [&](size_t i) { return col.string_at(i); },
          [](std::string_view s) { return Value::String(std::string(s)); },
          &zone);
      break;
  }
  return zone;
}

}  // namespace

TableSegments BuildTableSegments(const ColumnStore& store,
                                 size_t rows_per_segment) {
  TableSegments out;
  out.rows_per_segment = std::max<size_t>(1, rows_per_segment);
  out.num_rows = store.num_rows;
  for (size_t begin = 0; begin < store.num_rows;
       begin += out.rows_per_segment) {
    const size_t end = std::min(begin + out.rows_per_segment, store.num_rows);
    SegmentMeta meta;
    meta.row_begin = begin;
    meta.row_count = end - begin;
    meta.zones.reserve(store.columns.size());
    for (const ColumnVector& col : store.columns) {
      meta.zones.push_back(BuildZone(col, begin, end));
    }
    out.segments.push_back(std::move(meta));
  }
  return out;
}

}  // namespace bypass
