// Columnar execution tests: ColumnVector unit coverage, fused
// bypass-partition kernel vs the row-at-a-time oracle at the expression
// level, and engine-level differential fuzzing of columnar execution
// (enable_columnar = true, the default) against the row-oracle mode
// (enable_columnar = false) across batch sizes, data types, NULL-heavy
// data, and thread counts. Suites named ColumnarParallel* land in the
// TSan `-L parallel` sweep via the parallel-columnar ctest label; the
// rest carry the columnar label (ASan/UBSan sweeps).
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/database.h"
#include "expr/expr.h"
#include "query_corpus.h"
#include "test_util.h"
#include "types/column_vector.h"
#include "types/row_batch.h"

namespace bypass {
namespace {

using testing_util::FixedBypassQueries;
using testing_util::LoadSmallRst;
using testing_util::QueryGenerator;

// ------------------------------------------------------- ColumnVector

TEST(ColumnarVector, Int64RoundTripWithNulls) {
  ColumnVector col(DataType::kInt64);
  for (int64_t i = 0; i < 100; ++i) {
    col.Append(i % 7 == 0 ? Value::Null() : Value::Int64(i));
  }
  ASSERT_TRUE(col.typed());
  ASSERT_EQ(col.size(), 100u);
  EXPECT_TRUE(col.has_nulls());
  EXPECT_EQ(col.null_count(), 15u);  // 0, 7, ..., 98
  for (int64_t i = 0; i < 100; ++i) {
    const size_t idx = static_cast<size_t>(i);
    if (i % 7 == 0) {
      EXPECT_TRUE(col.IsNull(idx)) << i;
      EXPECT_TRUE(col.GetValue(idx).is_null()) << i;
    } else {
      EXPECT_FALSE(col.IsNull(idx)) << i;
      EXPECT_EQ(col.GetValue(idx), Value::Int64(i)) << i;
      EXPECT_EQ(col.i64_data()[idx], i) << i;
    }
  }
}

TEST(ColumnarVector, DoubleRoundTripPreservesSpecials) {
  ColumnVector col(DataType::kDouble);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  col.Append(Value::Double(1.5));
  col.Append(Value::Double(-0.0));
  col.Append(Value::Double(nan));
  col.Append(Value::Double(inf));
  col.Append(Value::Null());
  ASSERT_TRUE(col.typed());
  EXPECT_EQ(col.GetValue(0), Value::Double(1.5));
  EXPECT_TRUE(std::signbit(col.f64_data()[1]));
  EXPECT_TRUE(std::isnan(col.f64_data()[2]));
  EXPECT_TRUE(std::isinf(col.f64_data()[3]));
  EXPECT_TRUE(col.IsNull(4));
}

TEST(ColumnarVector, StringArenaRoundTrip) {
  ColumnVector col(DataType::kString);
  col.Append(Value::String("alpha"));
  col.Append(Value::String(""));
  col.Append(Value::Null());
  col.Append(Value::String("a longer string that will not be inlined"));
  ASSERT_TRUE(col.typed());
  EXPECT_EQ(col.string_at(0), "alpha");
  EXPECT_EQ(col.string_at(1), "");
  EXPECT_TRUE(col.IsNull(2));
  EXPECT_EQ(col.GetValue(3),
            Value::String("a longer string that will not be inlined"));
}

TEST(ColumnarVector, BoolRoundTrip) {
  ColumnVector col(DataType::kBool);
  col.Append(Value::Bool(true));
  col.Append(Value::Bool(false));
  col.Append(Value::Null());
  EXPECT_EQ(col.GetValue(0), Value::Bool(true));
  EXPECT_EQ(col.GetValue(1), Value::Bool(false));
  EXPECT_TRUE(col.GetValue(2).is_null());
}

// A cross-typed append (the engine allows int64 payloads in double
// columns and vice versa) demotes the column to the mixed Value
// representation without losing earlier data or the dynamic value types.
TEST(ColumnarVector, CrossTypedAppendDemotesToMixed) {
  ColumnVector col(DataType::kDouble);
  col.Append(Value::Double(1.5));
  col.Append(Value::Null());
  ASSERT_TRUE(col.typed());
  col.Append(Value::Int64(7));  // mismatched payload
  EXPECT_FALSE(col.typed());
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.GetValue(0), Value::Double(1.5));
  EXPECT_TRUE(col.GetValue(0).is_double());
  EXPECT_TRUE(col.GetValue(1).is_null());
  EXPECT_TRUE(col.GetValue(2).is_int64());  // not coerced
  EXPECT_EQ(col.GetValue(2), Value::Int64(7));
  EXPECT_EQ(col.null_count(), 1u);
}

TEST(ColumnarVector, ColumnStoreMaterializesRows) {
  ColumnStore store;
  store.columns.emplace_back(DataType::kInt64);
  store.columns.emplace_back(DataType::kString);
  store.AppendRow(Row{Value::Int64(1), Value::String("x")});
  store.AppendRow(Row{Value::Null(), Value::String("y")});
  ASSERT_EQ(store.num_rows, 2u);
  const Row r1 = store.MaterializeRow(1);
  ASSERT_EQ(r1.size(), 2u);
  EXPECT_TRUE(r1[0].is_null());
  EXPECT_EQ(r1[1], Value::String("y"));
}

// ---------------------------------------------- fused partition kernel
// The columnar PartitionBatch must agree with the row-oracle partition
// (same expression over the same batch without columns) for every
// operand/type combination, including NaN and NULL-heavy columns.

struct KernelFixture {
  ColumnStore store;
  std::vector<Row> rows;

  explicit KernelFixture(const std::vector<DataType>& types) {
    for (DataType t : types) store.columns.emplace_back(t);
  }

  void Add(Row row) {
    store.AppendRow(row);
    rows.push_back(std::move(row));
  }

  RowBatch Columnar() const {
    return RowBatch::BorrowedColumnar(&store, &rows, 0, rows.size());
  }
  RowBatch RowOnly() const {
    return RowBatch::Borrowed(&rows, 0, rows.size());
  }
};

ExprPtr ColRef(int slot) {
  auto ref = std::make_unique<ColumnRefExpr>("", "c", /*is_outer=*/false);
  ref->set_slot(slot);
  return ref;
}

ExprPtr Lit(Value v) { return std::make_unique<LiteralExpr>(std::move(v)); }

void ExpectPartitionsAgree(const Expr& pred, const KernelFixture& fix) {
  std::vector<uint32_t> ct, cf, cn, rt, rf, rn;
  const RowBatch columnar = fix.Columnar();
  const RowBatch rowonly = fix.RowOnly();
  ASSERT_TRUE(pred.PartitionBatch(columnar, nullptr, &ct, &cf, &cn).ok());
  ASSERT_TRUE(pred.PartitionBatch(rowonly, nullptr, &rt, &rf, &rn).ok());
  EXPECT_EQ(ct, rt) << pred.ToString();
  EXPECT_EQ(cf, rf) << pred.ToString();
  EXPECT_EQ(cn, rn) << pred.ToString();

  // Sparse selection: every other row, via the shared-storage view.
  std::vector<uint32_t> odd;
  for (uint32_t i = 1; i < fix.rows.size(); i += 2) odd.push_back(i);
  ct.clear(), cf.clear(), cn.clear(), rt.clear(), rf.clear(), rn.clear();
  ASSERT_TRUE(pred.PartitionBatch(columnar.ShareWithSelection(odd), nullptr,
                                  &ct, &cf, &cn)
                  .ok());
  ASSERT_TRUE(pred.PartitionBatch(rowonly.ShareWithSelection(odd), nullptr,
                                  &rt, &rf, &rn)
                  .ok());
  EXPECT_EQ(ct, rt) << pred.ToString() << " (sparse)";
  EXPECT_EQ(cf, rf) << pred.ToString() << " (sparse)";
  EXPECT_EQ(cn, rn) << pred.ToString() << " (sparse)";
}

constexpr CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kNe,
                                 CompareOp::kLt, CompareOp::kLe,
                                 CompareOp::kGt, CompareOp::kGe};

TEST(ColumnarKernel, Int64ColumnVsConstant) {
  KernelFixture fix({DataType::kInt64});
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    fix.Add(Row{rng.Bernoulli(0.3) ? Value::Null()
                                   : Value::Int64(rng.UniformInt(-5, 5))});
  }
  for (CompareOp op : kAllOps) {
    ExpectPartitionsAgree(ComparisonExpr(op, ColRef(0), Lit(Value::Int64(0))),
                          fix);
    // Cross-typed constant: int column against a double literal.
    ExpectPartitionsAgree(
        ComparisonExpr(op, ColRef(0), Lit(Value::Double(0.5))), fix);
    // NULL constant: every row must route to the unknown stream.
    ExpectPartitionsAgree(ComparisonExpr(op, ColRef(0), Lit(Value::Null())),
                          fix);
  }
}

TEST(ColumnarKernel, DoubleColumnsWithNaN) {
  KernelFixture fix({DataType::kDouble, DataType::kDouble});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(23);
  for (int i = 0; i < 200; ++i) {
    auto cell = [&]() {
      if (rng.Bernoulli(0.2)) return Value::Null();
      if (rng.Bernoulli(0.15)) return Value::Double(nan);
      if (rng.Bernoulli(0.1)) return Value::Double(-0.0);
      return Value::Double(static_cast<double>(rng.UniformInt(-4, 4)) / 2);
    };
    fix.Add(Row{cell(), cell()});
  }
  for (CompareOp op : kAllOps) {
    ExpectPartitionsAgree(ComparisonExpr(op, ColRef(0), ColRef(1)), fix);
    ExpectPartitionsAgree(
        ComparisonExpr(op, ColRef(0), Lit(Value::Double(0.0))), fix);
  }
}

TEST(ColumnarKernel, StringAndBoolColumns) {
  KernelFixture fix({DataType::kString, DataType::kBool});
  Rng rng(31);
  const char* words[] = {"", "a", "ab", "b", "ba"};
  for (int i = 0; i < 150; ++i) {
    fix.Add(Row{rng.Bernoulli(0.25)
                    ? Value::Null()
                    : Value::String(words[rng.UniformInt(0, 4)]),
                rng.Bernoulli(0.25) ? Value::Null()
                                    : Value::Bool(rng.Bernoulli(0.5))});
  }
  for (CompareOp op : kAllOps) {
    ExpectPartitionsAgree(
        ComparisonExpr(op, ColRef(0), Lit(Value::String("ab"))), fix);
    ExpectPartitionsAgree(
        ComparisonExpr(op, ColRef(1), Lit(Value::Bool(true))), fix);
    // Type-mismatched comparison: Unknown for every row.
    ExpectPartitionsAgree(
        ComparisonExpr(op, ColRef(0), Lit(Value::Int64(1))), fix);
  }
}

TEST(ColumnarKernel, MixedModeColumnFallsBackToRows) {
  KernelFixture fix({DataType::kDouble});
  fix.Add(Row{Value::Double(1.0)});
  fix.Add(Row{Value::Int64(2)});  // demotes the column
  fix.Add(Row{Value::Double(3.0)});
  ASSERT_FALSE(fix.store.columns[0].typed());
  for (CompareOp op : kAllOps) {
    ExpectPartitionsAgree(
        ComparisonExpr(op, ColRef(0), Lit(Value::Double(2.0))), fix);
  }
}

// ------------------------------------------- engine-level differential
// Row-oracle execution (enable_columnar = false) must be multiset-equal
// to columnar execution for every query, batch size, and data shape.

constexpr size_t kBatchSizes[] = {1, 2, 7, 1024};

void ExpectColumnarMatchesRowOracle(Database* db, const std::string& sql,
                                    bool unnest, int num_threads = 1) {
  QueryOptions oracle_opts;
  oracle_opts.unnest = unnest;
  oracle_opts.enable_columnar = false;
  oracle_opts.num_threads = num_threads;
  auto oracle = db->Query(sql, oracle_opts);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString() << "\nsql: " << sql;
  EXPECT_EQ(oracle->stats.columnar_batches, 0)
      << "row-oracle mode emitted columnar batches\nsql: " << sql;

  for (size_t batch_size : kBatchSizes) {
    QueryOptions opts;
    opts.unnest = unnest;
    opts.enable_columnar = true;
    opts.batch_size = batch_size;
    opts.num_threads = num_threads;
    if (num_threads > 1) opts.morsel_size = 5;
    auto got = db->Query(sql, opts);
    ASSERT_TRUE(got.ok()) << got.status().ToString() << "\nsql: " << sql
                          << "\nbatch_size: " << batch_size;
    EXPECT_GT(got->stats.columnar_batches, 0)
        << "columnar mode never engaged\nsql: " << sql;
    EXPECT_TRUE(RowMultisetsEqual(oracle->rows, got->rows))
        << "columnar execution changed the result\nsql: " << sql
        << "\nunnest: " << unnest << "\nbatch_size: " << batch_size
        << "\nnum_threads: " << num_threads
        << "\noracle rows: " << oracle->rows.size()
        << "\ngot rows: " << got->rows.size() << "\nplan:\n"
        << got->physical_plan;
  }
}

TEST(ColumnarDifferential, FixedBypassQueries) {
  Database db;
  LoadSmallRst(&db, /*seed=*/42, 25, 30, 20);
  for (const std::string& sql : FixedBypassQueries()) {
    SCOPED_TRACE(sql);
    ExpectColumnarMatchesRowOracle(&db, sql, /*unnest=*/false);
    ExpectColumnarMatchesRowOracle(&db, sql, /*unnest=*/true);
  }
}

TEST(ColumnarDifferential, FixedBypassQueriesNullHeavy) {
  Database db;
  LoadSmallRst(&db, /*seed=*/7, 25, 30, 20, /*null_fraction=*/0.3);
  for (const std::string& sql : FixedBypassQueries()) {
    SCOPED_TRACE(sql);
    ExpectColumnarMatchesRowOracle(&db, sql, /*unnest=*/false);
    ExpectColumnarMatchesRowOracle(&db, sql, /*unnest=*/true);
  }
}

// The σ± cascade of k = 2..5 leading simple disjuncts partitions each
// level's input with the columnar kernel or, in row-oracle mode, with
// the per-row fallback; both must route UNKNOWN rows to the negative
// stream alike.
TEST(ColumnarDifferential, LeadingSimpleDisjunctCascadesNullHeavy) {
  Database db;
  LoadSmallRst(&db, /*seed=*/3, 40, 30, 20, /*null_fraction=*/0.2);
  for (const std::string& sql :
       testing_util::LeadingSimpleDisjunctQueries()) {
    SCOPED_TRACE(sql);
    ExpectColumnarMatchesRowOracle(&db, sql, /*unnest=*/true);
  }
}

/// Table exercising all four column types (plus NULLs in each).
void LoadMixedTypesTable(Database* db, uint64_t seed, int rows,
                         double null_fraction) {
  Schema schema;
  schema.AddColumn({"i", DataType::kInt64, ""});
  schema.AddColumn({"d", DataType::kDouble, ""});
  schema.AddColumn({"b", DataType::kBool, ""});
  schema.AddColumn({"s", DataType::kString, ""});
  auto table = db->CreateTable("m", schema);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  Rng rng(seed);
  const char* words[] = {"x", "y", "z", "xy", ""};
  std::vector<Row> data;
  for (int i = 0; i < rows; ++i) {
    auto maybe = [&](Value v) {
      return rng.Bernoulli(null_fraction) ? Value::Null() : std::move(v);
    };
    data.push_back(Row{
        maybe(Value::Int64(rng.UniformInt(0, 9))),
        maybe(Value::Double(static_cast<double>(rng.UniformInt(-6, 6)) / 2)),
        maybe(Value::Bool(rng.Bernoulli(0.5))),
        maybe(Value::String(words[rng.UniformInt(0, 4)]))});
  }
  ASSERT_TRUE((*table)->AppendUnchecked(std::move(data)).ok());
}

TEST(ColumnarDifferential, AllDataTypes) {
  Database db;
  LoadMixedTypesTable(&db, /*seed=*/5, 200, /*null_fraction=*/0.25);
  const std::string queries[] = {
      "SELECT * FROM m WHERE i < 5",
      "SELECT * FROM m WHERE d > 0.5 OR i <= 2",
      "SELECT * FROM m WHERE s = 'xy' OR b = TRUE",
      "SELECT * FROM m WHERE s < 'y'",
      "SELECT * FROM m WHERE d <> 1.0",
      "SELECT * FROM m WHERE i + 2 > 6",
      "SELECT * FROM m WHERE d * 2.0 >= i",
      "SELECT * FROM m WHERE i IS NULL",
      "SELECT * FROM m WHERE s IS NOT NULL",
      "SELECT COUNT(*), COUNT(i), SUM(i), SUM(d), MIN(i), MAX(d) FROM m",
      "SELECT AVG(d), MIN(s), MAX(s), MIN(b) FROM m",
      "SELECT i, COUNT(*), SUM(d) FROM m GROUP BY i",
      "SELECT b, MIN(d), MAX(i) FROM m GROUP BY b",
  };
  for (const std::string& sql : queries) {
    SCOPED_TRACE(sql);
    ExpectColumnarMatchesRowOracle(&db, sql, /*unnest=*/false);
    ExpectColumnarMatchesRowOracle(&db, sql, /*unnest=*/true);
  }
}

class ColumnarDifferentialRandom : public ::testing::TestWithParam<int> {};

TEST_P(ColumnarDifferentialRandom, CorpusMatchesRowOracle) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Database db;
  // NULL-free data: the random grammar includes IN/EXISTS shapes whose
  // rewrites assume two-valued comparisons (see DESIGN.md).
  LoadSmallRst(&db, seed, 25, 30, 20);
  QueryGenerator generator(seed * 173 + 5);
  for (int i = 0; i < 3; ++i) {
    const std::string sql = generator.Generate();
    SCOPED_TRACE(sql);
    ExpectColumnarMatchesRowOracle(&db, sql, /*unnest=*/false);
    ExpectColumnarMatchesRowOracle(&db, sql, /*unnest=*/true);
  }
  const std::string sql = generator.GenerateWithSelectClause();
  SCOPED_TRACE(sql);
  ExpectColumnarMatchesRowOracle(&db, sql, /*unnest=*/false);
  ExpectColumnarMatchesRowOracle(&db, sql, /*unnest=*/true);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColumnarDifferentialRandom,
                         ::testing::Range(4000, 4008));

// ----------------------------------------------- parallel differential
// Columnar scans under the morsel-parallel executor; lands in the TSan
// sweep via the parallel-columnar label.

TEST(ColumnarParallel, FixedBypassQueriesThreads4) {
  Database db;
  LoadSmallRst(&db, /*seed=*/42, 25, 30, 20);
  for (const std::string& sql : FixedBypassQueries()) {
    SCOPED_TRACE(sql);
    ExpectColumnarMatchesRowOracle(&db, sql, /*unnest=*/false,
                                   /*num_threads=*/4);
    ExpectColumnarMatchesRowOracle(&db, sql, /*unnest=*/true,
                                   /*num_threads=*/4);
  }
}

TEST(ColumnarParallel, NullHeavyThreads4) {
  Database db;
  LoadSmallRst(&db, /*seed=*/9, 25, 30, 20, /*null_fraction=*/0.3);
  for (const std::string& sql : FixedBypassQueries()) {
    SCOPED_TRACE(sql);
    ExpectColumnarMatchesRowOracle(&db, sql, /*unnest=*/true,
                                   /*num_threads=*/4);
  }
}

TEST(ColumnarParallel, AllDataTypesThreads4) {
  Database db;
  LoadMixedTypesTable(&db, /*seed=*/13, 300, /*null_fraction=*/0.2);
  const std::string queries[] = {
      "SELECT * FROM m WHERE d > 0.5 OR i <= 2",
      "SELECT COUNT(*), COUNT(i), SUM(i), SUM(d), MIN(i), MAX(d) FROM m",
      "SELECT i, COUNT(*), SUM(d) FROM m GROUP BY i",
  };
  for (const std::string& sql : queries) {
    SCOPED_TRACE(sql);
    ExpectColumnarMatchesRowOracle(&db, sql, /*unnest=*/false,
                                   /*num_threads=*/4);
    ExpectColumnarMatchesRowOracle(&db, sql, /*unnest=*/true,
                                   /*num_threads=*/4);
  }
}

}  // namespace
}  // namespace bypass
