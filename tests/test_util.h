// Shared helpers for the test suite: tiny-table builders, randomized RST
// instances, and canonical-vs-unnested comparison harnesses.
#ifndef BYPASSDB_TESTS_TEST_UTIL_H_
#define BYPASSDB_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "engine/database.h"
#include "exec/phys_op.h"
#include "workload/rst.h"

namespace bypass {
namespace testing_util {

/// Builds an int64 schema from column names.
inline Schema IntSchema(const std::vector<std::string>& names) {
  Schema schema;
  for (const std::string& n : names) {
    schema.AddColumn({n, DataType::kInt64, ""});
  }
  return schema;
}

/// Convenience int row.
inline Row IntRow(std::initializer_list<int64_t> values) {
  Row row;
  for (int64_t v : values) row.push_back(Value::Int64(v));
  return row;
}

/// Records what each batch reaching it carries, then collects its rows
/// (built from the columns).
class BatchRecorder : public PhysOp {
 public:
  Status Consume(int, RowBatch batch) override {
    std::lock_guard<std::mutex> lock(mu_);
    ++batches;
    max_batch = std::max(max_batch, batch.size());
    for (const ColumnVector& col : batch.columns()->columns) {
      if (!col.typed()) {
        ++untyped;
        break;
      }
    }
    batch.ConsumeRowsInto(&rows);
    return Status::OK();
  }
  Status FinishPort(int) override { return Status::OK(); }
  std::string Label() const override { return "BatchRecorder"; }

  int batches = 0;
  int untyped = 0;        // batches with an untyped column
  size_t max_batch = 0;   // rows in the largest batch
  std::vector<Row> rows;

 private:
  std::mutex mu_;
};

/// `rows` transposed into a column store (each column typed by its first
/// non-NULL value), e.g. a join build side.
inline ColumnStore ToColumns(const std::vector<Row>& rows) {
  return RowBatch::FromRows(rows).TakeColumns();
}

/// The table's rows, built from its columns.
inline std::vector<Row> TableRows(const Table& table) {
  const ColumnStore& columns = table.columns();
  return RowBatch::BorrowedColumns(&columns, 0, columns.num_rows).ToRows();
}

/// Loads small random R/S/T tables with duplicates and tight domains so
/// that empty groups, multi-row groups, and duplicate outer rows all
/// occur. `null_fraction` is the chance that any one value, in any of the
/// four columns, is NULL. Values are drawn from [0, max_value]; `suffix`
/// renames the tables (r<suffix>, s<suffix>, t<suffix>). With
/// `special_doubles`, column 2 (a2, b2, c2, the correlation keys) is a
/// DOUBLE column drawn from NaN, -0.0, 0.0, ±inf and the integral doubles
/// of the domain. With `duplicate_free`, a drawn row equal to an earlier
/// one of its table under DISTINCT's equality is drawn again, so no
/// table holds a duplicate row (the domain must have room for them).
inline void LoadSmallRst(Database* db, uint64_t seed, int rows_r,
                         int rows_s, int rows_t,
                         double null_fraction = 0.0,
                         int64_t max_value = 6,
                         const std::string& suffix = "",
                         bool special_doubles = false,
                         bool duplicate_free = false) {
  Rng rng(seed);
  const double kSpecials[] = {std::numeric_limits<double>::quiet_NaN(),
                              -0.0, 0.0,
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()};
  auto load = [&](const std::string& name, char prefix, int rows) {
    if (db->catalog()->HasTable(name)) {
      ASSERT_TRUE(db->catalog()->DropTable(name).ok());
    }
    Schema schema = RstTableSchema(prefix);
    if (special_doubles) {
      Schema with_double;
      for (int c = 0; c < schema.num_columns(); ++c) {
        ColumnDef def = schema.column(c);
        if (c == 1) def.type = DataType::kDouble;
        with_double.AddColumn(def);
      }
      schema = std::move(with_double);
    }
    auto table = db->CreateTable(name, std::move(schema));
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    std::vector<Row> data;
    auto less = [](const Row& a, const Row& b) {
      for (size_t i = 0; i < a.size(); ++i) {
        const int cmp = a[i].OrderCompare(b[i]);
        if (cmp != 0) return cmp < 0;
      }
      return false;
    };
    std::set<Row, decltype(less)> seen(less);
    for (int i = 0; i < rows; ++i) {
      Row row;
      for (int c = 1; c <= 4; ++c) {
        if (null_fraction > 0 && rng.Bernoulli(null_fraction)) {
          row.push_back(Value::Null());
        } else if (special_doubles && c == 2) {
          const int64_t pick = rng.UniformInt(0, max_value + 5);
          row.push_back(Value::Double(
              pick <= max_value ? static_cast<double>(pick)
                                : kSpecials[pick - max_value - 1]));
        } else {
          // Tight domains by default: lots of duplicates and group
          // collisions.
          row.push_back(Value::Int64(rng.UniformInt(0, max_value)));
        }
      }
      if (duplicate_free && !seen.insert(row).second) {
        --i;  // draw this row again
        continue;
      }
      data.push_back(std::move(row));
    }
    ASSERT_TRUE((*table)->AppendUnchecked(std::move(data)).ok());
  };
  load("r" + suffix, 'a', rows_r);
  load("s" + suffix, 'b', rows_s);
  load("t" + suffix, 'c', rows_t);
}

/// Appends copies of three seeded picks among the existing rows to each
/// of r, s and t, so every table holds a duplicate row and a δ over any
/// of them must run.
inline void AddDuplicateRows(Database* db, uint64_t seed) {
  Rng rng(seed);
  for (const char* name : {"r", "s", "t"}) {
    auto table = db->catalog()->GetTable(name);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    const std::vector<Row> rows = TableRows(**table);
    ASSERT_FALSE(rows.empty());
    std::vector<Row> again;
    for (int i = 0; i < 3; ++i) {
      again.push_back(rows[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(rows.size()) - 1))]);
    }
    ASSERT_TRUE((*table)->AppendUnchecked(std::move(again)).ok());
    ASSERT_FALSE((*table)->duplicate_free()) << name;
  }
}

/// Runs `sql` canonically and unnested and asserts multiset-equal results.
/// Returns the unnested result for further inspection.
inline QueryResult ExpectCanonicalEqualsUnnested(Database* db,
                                                 const std::string& sql) {
  QueryOptions canonical;
  canonical.unnest = false;
  auto base = db->Query(sql, canonical);
  EXPECT_TRUE(base.ok()) << base.status().ToString() << "\nsql: " << sql;

  QueryOptions unnested;
  unnested.unnest = true;
  auto opt = db->Query(sql, unnested);
  EXPECT_TRUE(opt.ok()) << opt.status().ToString() << "\nsql: " << sql;
  if (!base.ok() || !opt.ok()) return QueryResult{};

  EXPECT_TRUE(RowMultisetsEqual(base->rows, opt->rows))
      << "canonical and unnested plans disagree\nsql: " << sql
      << "\ncanonical rows: " << base->rows.size()
      << "\nunnested rows: " << opt->rows.size() << "\nunnested plan:\n"
      << opt->optimized_plan;
  return std::move(*opt);
}

/// The execution matrix the duplicate-free property runs sweep: batch
/// {1, 7, 1024} × threads {1, 4}.
inline std::vector<QueryOptions> BatchThreadMatrix() {
  std::vector<QueryOptions> matrix;
  for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
    for (int threads : {1, 4}) {
      QueryOptions o;
      o.batch_size = batch;
      o.num_threads = threads;
      matrix.push_back(o);
    }
  }
  return matrix;
}

/// True when a physical plan skips some δ (planner/uniqueness.h).
inline bool SkipsDistinct(const QueryResult& result) {
  return result.physical_plan.find("Distinct [skipped") != std::string::npos;
}

/// Runs `sql` canonically once and unnested at every point of `matrix`
/// (unnest forced on), asserting multiset-equal results. Returns true
/// when some unnested plan skips a δ.
inline bool ExpectCanonicalEqualsUnnestedAcross(
    Database* db, const std::string& sql,
    const std::vector<QueryOptions>& matrix) {
  QueryOptions canonical;
  canonical.unnest = false;
  auto base = db->Query(sql, canonical);
  EXPECT_TRUE(base.ok()) << base.status().ToString() << "\nsql: " << sql;
  if (!base.ok()) return false;
  bool skipped = false;
  for (QueryOptions options : matrix) {
    options.unnest = true;
    auto opt = db->Query(sql, options);
    EXPECT_TRUE(opt.ok()) << opt.status().ToString() << "\nsql: " << sql;
    if (!opt.ok()) continue;
    skipped = skipped || SkipsDistinct(*opt);
    EXPECT_TRUE(RowMultisetsEqual(base->rows, opt->rows))
        << "canonical and unnested plans disagree at batch "
        << options.batch_size << ", " << options.num_threads
        << " threads\nsql: " << sql << "\ncanonical rows: "
        << base->rows.size() << "\nunnested rows: " << opt->rows.size()
        << "\nunnested plan:\n" << opt->physical_plan;
  }
  return skipped;
}

}  // namespace testing_util
}  // namespace bypass

#endif  // BYPASSDB_TESTS_TEST_UTIL_H_
