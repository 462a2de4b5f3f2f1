// The numeric order (DESIGN.md §3): one int64/double comparator behind
// Value, the column kernels, the key index, the folds and the sort.
// OrderProperty* checks the order itself over a pool of edge values;
// OrderRegression* runs hand-computed NaN and 2^53 cases canonical and
// unnested, at batch {1, 7, 1024}, with codegen off and on, and
// OrderParallel* repeats them at 4 threads. Suites land in `ctest -L
// order`; OrderParallel* also in `-L parallel`.
#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "codegen/codegen_engine.h"
#include "common/key_index.h"
#include "engine/database.h"
#include "expr/column_kernels.h"
#include "test_util.h"
#include "types/row_batch.h"

namespace bypass {
namespace {

using testing_util::ToColumns;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr int64_t k53 = int64_t{1} << 53;

/// NULL, bools, int64 edges (±(2^53 ± 1) among them), doubles at the
/// int64 edges, ±inf, ±0.0, NaN with either sign, and strings.
std::vector<Value> Pool() {
  return {Value::Null(),
          Value::Bool(false),
          Value::Bool(true),
          Value::Int64(std::numeric_limits<int64_t>::min()),
          Value::Int64(std::numeric_limits<int64_t>::max()),
          Value::Int64(k53 - 1),
          Value::Int64(k53),
          Value::Int64(k53 + 1),
          Value::Int64(-(k53 - 1)),
          Value::Int64(-(k53 + 1)),
          Value::Int64(0),
          Value::Int64(1),
          Value::Double(9007199254740992.0),   // 2^53
          Value::Double(-9007199254740992.0),  // -2^53
          Value::Double(9223372036854775808.0),   // 2^63
          Value::Double(-9223372036854775808.0),  // -2^63 = INT64_MIN
          Value::Double(kInf),
          Value::Double(-kInf),
          Value::Double(-0.0),
          Value::Double(0.0),
          Value::Double(0.5),
          Value::Double(1.0),
          Value::Double(kNaN),
          Value::Double(-kNaN),
          Value::String(""),
          Value::String("a")};
}

int Sign(int c) { return c < 0 ? -1 : (c > 0 ? 1 : 0); }

TEST(OrderProperty, OrderCompareIsAStrictWeakOrder) {
  const std::vector<Value> pool = Pool();
  for (const Value& a : pool) {
    EXPECT_EQ(a.OrderCompare(a), 0) << a;
    for (const Value& b : pool) {
      EXPECT_EQ(Sign(a.OrderCompare(b)), -Sign(b.OrderCompare(a)))
          << a << " vs " << b;
      for (const Value& c : pool) {
        const int ab = Sign(a.OrderCompare(b)), bc = Sign(b.OrderCompare(c));
        if (ab <= 0 && bc <= 0) {
          EXPECT_EQ(Sign(a.OrderCompare(c)), std::min(ab, bc))
              << a << " " << b << " " << c;
        }
      }
    }
  }
}

TEST(OrderProperty, PinnedPairs) {
  auto cmp = [](const Value& a, const Value& b) { return a.OrderCompare(b); };
  EXPECT_GT(cmp(Value::Int64(k53 + 1), Value::Double(9007199254740992.0)), 0);
  EXPECT_EQ(cmp(Value::Int64(k53), Value::Double(9007199254740992.0)), 0);
  EXPECT_EQ(cmp(Value::Int64(std::numeric_limits<int64_t>::min()),
                Value::Double(-9223372036854775808.0)),
            0);
  EXPECT_LT(cmp(Value::Int64(std::numeric_limits<int64_t>::max()),
                Value::Double(9223372036854775808.0)),
            0);
  EXPECT_EQ(cmp(Value::Double(-0.0), Value::Int64(0)), 0);
  EXPECT_EQ(cmp(Value::Double(kNaN), Value::Double(-kNaN)), 0);
  EXPECT_GT(cmp(Value::Double(kNaN), Value::Double(kInf)), 0);
  EXPECT_GT(cmp(Value::Double(kNaN), Value::Int64(INT64_MAX)), 0);
  EXPECT_EQ(Value::Double(kNaN).Compare(CompareOp::kEq, Value::Double(1.0)),
            TriBool::kFalse);
  EXPECT_EQ(Value::Double(kNaN).Compare(CompareOp::kEq, Value::Double(kNaN)),
            TriBool::kTrue);
}

TEST(OrderProperty, EqualValuesHashAlike) {
  const std::vector<Value> pool = Pool();
  for (const Value& a : pool) {
    for (const Value& b : pool) {
      if (a.StructurallyEquals(b)) {
        EXPECT_EQ(a.Hash(), b.Hash()) << a << " vs " << b;
      }
    }
  }
}

/// Value::Compare's verdict for `op` is OrderCompare's on two values of
/// one comparable class (numbers, strings, bools), Unknown otherwise.
TriBool Expected(CompareOp op, const Value& a, const Value& b) {
  const bool comparable = !a.is_null() && !b.is_null() &&
                          ((a.is_numeric() && b.is_numeric()) ||
                           (a.is_string() && b.is_string()) ||
                           (a.is_bool() && b.is_bool()));
  if (!comparable) return TriBool::kUnknown;
  const int c = a.OrderCompare(b);
  bool r = false;
  switch (op) {
    case CompareOp::kEq: r = c == 0; break;
    case CompareOp::kNe: r = c != 0; break;
    case CompareOp::kLt: r = c < 0; break;
    case CompareOp::kLe: r = c <= 0; break;
    case CompareOp::kGt: r = c > 0; break;
    case CompareOp::kGe: r = c >= 0; break;
  }
  return r ? TriBool::kTrue : TriBool::kFalse;
}

TEST(OrderProperty, ColumnKernelsAgreeWithOrderCompare) {
  const std::vector<Value> pool = Pool();
  // The pool split by dynamic type, each class with a NULL: each becomes
  // one typed column.
  std::vector<std::vector<Value>> classes(4, {Value::Null()});
  for (const Value& v : pool) {
    if (v.is_null()) continue;
    classes[static_cast<size_t>(v.type())].push_back(v);
  }
  for (const auto& xs : classes) {
    for (const auto& ys : classes) {
      std::vector<Row> rows;
      for (const Value& x : xs) {
        for (const Value& y : ys) rows.push_back(Row{x, y});
      }
      const ColumnStore store = ToColumns(rows);
      ASSERT_TRUE(store.columns[0].typed() && store.columns[1].typed());
      const RowBatch batch =
          RowBatch::BorrowedColumns(&store, 0, store.num_rows);
      const ColumnOperand l{&store.columns[0], nullptr};
      const ColumnOperand r{&store.columns[1], nullptr};
      for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
        std::vector<Value> got;
        if (!ColumnarCompareEval(op, l, r, batch, &got)) continue;
        ASSERT_EQ(got.size(), rows.size());
        for (size_t i = 0; i < rows.size(); ++i) {
          const TriBool want = Expected(op, rows[i][0], rows[i][1]);
          EXPECT_EQ(rows[i][0].Compare(op, rows[i][1]), want);
          EXPECT_EQ(ValueToTriBool(got[i]), want)
              << rows[i][0] << " " << CompareOpToString(op) << " "
              << rows[i][1];
        }
        // The left column against each right value as a constant.
        for (size_t j = 0; j < ys.size(); ++j) {
          std::vector<Value> vs_const;
          ASSERT_TRUE(ColumnarCompareEval(op, l, ColumnOperand{nullptr, &ys[j]},
                                          batch, &vs_const));
          for (size_t i = j; i < rows.size(); i += ys.size()) {
            EXPECT_EQ(ValueToTriBool(vs_const[i]),
                      Expected(op, rows[i][0], ys[j]))
                << rows[i][0] << " " << CompareOpToString(op) << " "
                << ys[j];
          }
        }
      }
    }
  }
}

TEST(OrderProperty, PackedAndGenericKeyIndexesResolveAlike) {
  const std::vector<Value> pool = Pool();
  for (const Value& a : pool) {
    // A join insert packs an integral double as its int64 twin; a NULL
    // key is stored only by a grouping insert.
    KeyIndex packed;
    packed.FindOrInsert(a, a.is_null() ? KeyIndex::Equality::kGrouping
                                       : KeyIndex::Equality::kJoin);
    KeyIndex generic;
    generic.FindOrInsert(Value::String("sentinel"));
    generic.FindOrInsert(a);
    ASSERT_FALSE(generic.packed());
    for (const Value& b : pool) {
      const bool want = a.StructurallyEquals(b);
      EXPECT_EQ(packed.Find(b) != KeyIndex::kNone, want) << a << " vs " << b;
      EXPECT_EQ(generic.Find(b) != KeyIndex::kNone, want) << a << " vs " << b;
      // The batch probe, from a one-row typed column.
      const RowBatch probe = RowBatch::FromRows({Row{b}});
      KeyScratch scratch;
      bool hit = false;
      packed.FindBatch(probe, {0}, &scratch,
                       [&](size_t, uint32_t) { hit = true; });
      EXPECT_EQ(hit, want) << a << " vs batch " << b;
    }
  }
}

// ------------------------------------------------- regression cases

/// r = {(1, NaN), (2, 1.0), (0, 2.0)} in the row order `perm`, a3 = a4 =
/// 0; s = {(1, 1.0), (2, NaN)}; ti = {2^53 + 1, 0} (int64); td = {2^53}
/// (double).
void LoadOrderTables(Database* db, const std::vector<int>& perm) {
  auto make = [&](const std::string& name,
                  std::vector<std::pair<std::string, DataType>> cols,
                  std::vector<Row> rows) {
    Schema schema;
    for (const auto& [n, t] : cols) schema.AddColumn({n, t, ""});
    auto table = db->CreateTable(name, std::move(schema));
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_TRUE((*table)->AppendUnchecked(std::move(rows)).ok());
  };
  const std::vector<Row> r = {
      {Value::Int64(1), Value::Double(kNaN), Value::Int64(0), Value::Int64(0)},
      {Value::Int64(2), Value::Double(1.0), Value::Int64(0), Value::Int64(0)},
      {Value::Int64(0), Value::Double(2.0), Value::Int64(0), Value::Int64(0)}};
  std::vector<Row> r_rows;
  for (int i : perm) r_rows.push_back(r[static_cast<size_t>(i)]);
  make("r",
       {{"a1", DataType::kInt64}, {"a2", DataType::kDouble},
        {"a3", DataType::kInt64}, {"a4", DataType::kInt64}},
       r_rows);
  make("s", {{"b1", DataType::kInt64}, {"b2", DataType::kDouble}},
       {{Value::Int64(1), Value::Double(1.0)},
        {Value::Int64(2), Value::Double(kNaN)}});
  make("ti", {{"i", DataType::kInt64}},
       {{Value::Int64(k53 + 1)}, {Value::Int64(0)}});
  make("td", {{"d", DataType::kDouble}},
       {{Value::Double(9007199254740992.0)}});
}

struct OrderCase {
  const char* sql;
  std::vector<std::string> want;  ///< sorted RowToString of each row
};

const OrderCase kOrderCases[] = {
    {"SELECT a1 FROM r WHERE "
     "a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2) OR a4 > 5",
     {"(0)", "(1)"}},
    {"SELECT a1 FROM r WHERE "
     "EXISTS (SELECT * FROM s WHERE a2 = b2) OR a4 > 5",
     {"(1)", "(2)"}},
    {"SELECT a1 FROM r WHERE a2 IN (SELECT b2 FROM s) OR a4 > 5",
     {"(1)", "(2)"}},
    {"SELECT i FROM ti WHERE i IN (SELECT d FROM td) OR i < 0", {}},
    {"SELECT a1 FROM r WHERE a2 = 1.0", {"(2)"}},
    {"SELECT MAX(a2), MIN(a2) FROM r", {"(nan, 1)"}},
    // The grouped folds and an int64 column against a double literal:
    // the shapes the compiled tier takes over.
    {"SELECT a4, MAX(a2), MIN(a2) FROM r GROUP BY a4", {"(0, nan, 1)"}},
    {"SELECT i FROM ti WHERE i > 9007199254740992.0",
     {"(9007199254740993)"}},
};

/// Runs every case canonical and unnested at batch {1, 7, 1024} with
/// codegen off and on, over every row order of r.
void RunOrderCases(int num_threads) {
  std::vector<int> perm = {0, 1, 2};
  int64_t compiled = 0;  // batches the compiled tier ran
  bool codegen_available = false;
  do {
    Database db;
    LoadOrderTables(&db, perm);
    codegen_available = CodegenEngine::BuiltWithCodegen() &&
                        db.codegen_engine()->Available();
    for (const OrderCase& c : kOrderCases) {
      for (bool unnest : {false, true}) {
        for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
          for (bool codegen : {false, true}) {
            QueryOptions opts;
            opts.unnest = unnest;
            opts.batch_size = batch;
            opts.num_threads = num_threads;
            opts.morsel_size = 1;
            opts.enable_codegen = codegen;
            opts.codegen_synchronous = true;
            auto result = db.Query(c.sql, opts);
            ASSERT_TRUE(result.ok()) << result.status().ToString();
            std::vector<std::string> got;
            for (const Row& row : result->rows) {
              got.push_back(RowToString(row));
            }
            std::sort(got.begin(), got.end());
            if (codegen) compiled += result->stats.compiled_batches;
            EXPECT_EQ(got, c.want)
                << c.sql << "\nunnest " << unnest << ", batch " << batch
                << ", codegen " << codegen << ", r order " << perm[0]
                << perm[1] << perm[2];
          }
        }
      }
    }
  } while (std::next_permutation(perm.begin(), perm.end()));
  if (codegen_available) {
    EXPECT_GT(compiled, 0);
  }
}

TEST(OrderRegression, NaNAndInt64DoubleCasesAgreeEverywhere) {
  RunOrderCases(1);
}

TEST(OrderParallelRegression, NaNAndInt64DoubleCasesAgreeEverywhere) {
  RunOrderCases(4);
}

}  // namespace
}  // namespace bypass
