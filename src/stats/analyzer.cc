#include "stats/analyzer.h"

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "stats/hyperloglog.h"
#include "types/column_vector.h"

namespace bypass {

namespace {

// One-pass statistics over a typed column: raw data + null bitmap, no Row
// or Value materialization. Numbers hash with HashNumeric, as Value::Hash
// does, so the HLL estimates are identical to a row-based pass, and the
// min/max folds use the numeric order, as OrderCompare does (a NaN is the
// max).
void AnalyzeTypedColumn(const ColumnVector& col, HyperLogLog* sketch,
                        std::vector<double>* numeric_values,
                        ColumnStatistics* out) {
  const size_t n = col.size();
  switch (col.type()) {
    case DataType::kInt64: {
      const int64_t* data = col.i64_data();
      bool has = false;
      int64_t mn = 0, mx = 0;
      for (size_t i = 0; i < n; ++i) {
        if (col.IsNull(i)) {
          ++out->null_count;
          continue;
        }
        const int64_t v = data[i];
        sketch->Add(static_cast<uint64_t>(HashNumeric(v)));
        if (!has) {
          has = true;
          mn = mx = v;
        } else {
          if (CompareNumeric(v, mn) < 0) mn = v;
          if (CompareNumeric(v, mx) > 0) mx = v;
        }
        numeric_values->push_back(static_cast<double>(v));
      }
      if (has) {
        out->min = Value::Int64(mn);
        out->max = Value::Int64(mx);
      }
      return;
    }
    case DataType::kDouble: {
      const double* data = col.f64_data();
      bool has = false;
      double mn = 0, mx = 0;
      for (size_t i = 0; i < n; ++i) {
        if (col.IsNull(i)) {
          ++out->null_count;
          continue;
        }
        const double v = data[i];
        sketch->Add(static_cast<uint64_t>(HashNumeric(v)));
        if (!has) {
          has = true;
          mn = mx = v;
        } else {
          if (CompareNumeric(v, mn) < 0) mn = v;
          if (CompareNumeric(v, mx) > 0) mx = v;
        }
        numeric_values->push_back(v);
      }
      if (has) {
        out->min = Value::Double(mn);
        out->max = Value::Double(mx);
      }
      return;
    }
    case DataType::kBool: {
      const uint8_t* data = col.bool_data();
      bool saw_false = false, saw_true = false;
      for (size_t i = 0; i < n; ++i) {
        if (col.IsNull(i)) {
          ++out->null_count;
          continue;
        }
        const bool b = data[i] != 0;
        sketch->Add(b ? uint64_t{0x1234567} : uint64_t{0x7654321});
        if (b) {
          saw_true = true;
        } else {
          saw_false = true;
        }
      }
      if (saw_false || saw_true) {
        out->min = Value::Bool(saw_false ? false : true);
        out->max = Value::Bool(saw_true ? true : false);
      }
      return;
    }
    case DataType::kString: {
      bool has = false;
      std::string_view mn, mx;
      for (size_t i = 0; i < n; ++i) {
        if (col.IsNull(i)) {
          ++out->null_count;
          continue;
        }
        const std::string_view v = col.string_at(i);
        sketch->Add(
            static_cast<uint64_t>(std::hash<std::string_view>()(v)));
        if (!has) {
          has = true;
          mn = mx = v;
        } else {
          if (v.compare(mn) < 0) mn = v;
          if (v.compare(mx) > 0) mx = v;
        }
      }
      if (has) {
        out->min = Value::String(std::string(mn));
        out->max = Value::String(std::string(mx));
      }
      return;
    }
  }
}

// Mixed-representation columns (cross-typed numeric loads) keep the
// original per-Value pass. Loaded rows may carry int64 payloads in double
// columns (and vice versa), so histogram eligibility follows the value,
// not only the declared type.
void AnalyzeMixedColumn(const ColumnVector& col, bool numeric_col,
                        HyperLogLog* sketch,
                        std::vector<double>* numeric_values,
                        ColumnStatistics* out) {
  const size_t n = col.size();
  for (size_t i = 0; i < n; ++i) {
    const Value v = col.GetValue(i);
    if (v.is_null()) {
      ++out->null_count;
      continue;
    }
    sketch->Add(static_cast<uint64_t>(v.Hash()));
    if (out->min.is_null()) {
      out->min = v;
      out->max = v;
    } else {
      if (v.OrderCompare(out->min) < 0) out->min = v;
      if (v.OrderCompare(out->max) > 0) out->max = v;
    }
    if (numeric_col && v.is_numeric()) {
      numeric_values->push_back(v.AsDouble());
    }
  }
}

}  // namespace

TableStatistics AnalyzeTable(const Table& table,
                             const AnalyzeOptions& options) {
  const int num_columns = table.schema().num_columns();
  TableStatistics stats;
  stats.row_count = table.num_rows();
  stats.columns.resize(static_cast<size_t>(num_columns));

  const ColumnStore& store = table.columns();
  for (int c = 0; c < num_columns; ++c) {
    const size_t ci = static_cast<size_t>(c);
    const ColumnVector& col = store.columns[ci];
    HyperLogLog sketch(options.hll_precision);
    const DataType type = table.schema().column(c).type;
    const bool numeric_col =
        type == DataType::kInt64 || type == DataType::kDouble;
    std::vector<double> numeric_values;
    if (numeric_col) numeric_values.reserve(col.size());
    if (col.typed()) {
      AnalyzeTypedColumn(col, &sketch, &numeric_values,
                         &stats.columns[ci]);
    } else {
      AnalyzeMixedColumn(col, numeric_col, &sketch, &numeric_values,
                         &stats.columns[ci]);
    }
    stats.columns[ci].distinct_count = sketch.Estimate();
    if (!numeric_values.empty()) {
      stats.columns[ci].histogram = EquiDepthHistogram::Build(
          std::move(numeric_values), options.histogram_buckets);
    }
  }
  return stats;
}

}  // namespace bypass
