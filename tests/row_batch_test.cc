// Unit tests for RowBatch: FromRows' transposition, selection-vector
// views, the dense flag, column ownership, owned column batches (exact
// Value round trips, rows built from columns) and borrowed windows of a
// column store (rows built for the selection only), read by four threads
// at once.
#include <malloc.h>

#include <cmath>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"
#include "types/row_batch.h"

namespace bypass {
namespace {

using testing_util::IntRow;

std::vector<Row> ThreeRows() {
  std::vector<Row> rows;
  rows.push_back(IntRow({1, 10}));
  rows.push_back(IntRow({2, 20}));
  rows.push_back(IntRow({3, 30}));
  return rows;
}

TEST(RowBatchTest, FromRowsSelectsEverything) {
  RowBatch batch = RowBatch::FromRows(ThreeRows());
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_FALSE(batch.empty());
  const std::vector<Row> rows = batch.ToRows();
  EXPECT_EQ(rows[0][0].int64_value(), 1);
  EXPECT_EQ(rows[2][1].int64_value(), 30);
}

// Each column is typed by its first non-NULL value; a later value of
// another type demotes it, and the untyped form holds a Value per entry.
TEST(RowBatchTest, FromRowsTypesEachColumnByItsFirstNonNullValue) {
  std::vector<Row> rows;
  rows.push_back(Row{Value::Null(), Value::Int64(1), Value::Null()});
  rows.push_back(Row{Value::Double(2.5), Value::Double(3.0), Value::Null()});
  const RowBatch typed = RowBatch::FromRows(rows);
  const std::vector<ColumnVector>& cols = typed.columns()->columns;
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_TRUE(cols[0].typed());
  EXPECT_EQ(cols[0].type(), DataType::kDouble);
  EXPECT_FALSE(cols[1].typed());  // int64, then a double
  EXPECT_TRUE(cols[2].typed());   // NULLs only
  const RowBatch untyped = RowBatch::FromRows(rows, /*typed=*/false);
  for (const ColumnVector& col : untyped.columns()->columns) {
    EXPECT_FALSE(col.typed());
  }
  for (const RowBatch* batch : {&typed, &untyped}) {
    const std::vector<Row> got = batch->ToRows();
    ASSERT_EQ(got.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_TRUE(RowsStructurallyEqual(got[i], rows[i]));
      EXPECT_EQ(got[i][1].type(), rows[i][1].type());
    }
  }
}

TEST(RowBatchTest, DenseOnConstructionDroppedOnMutation) {
  const ColumnStore storage = testing_util::ToColumns(ThreeRows());
  RowBatch borrowed = RowBatch::BorrowedColumns(&storage, 1, 3);
  EXPECT_TRUE(borrowed.dense());
  // Dense means sel[i] == sel[0] + i, so storage index sel[0] + i holds
  // the i-th selected row.
  EXPECT_EQ(borrowed.columns()
                ->columns[0]
                .GetValue(borrowed.selection()[0] + 1)
                .int64_value(),
            3);

  RowBatch owned = RowBatch::FromRows(ThreeRows());
  EXPECT_TRUE(owned.dense());

  // Mutable selection access conservatively drops the flag even if the
  // caller never breaks contiguity.
  owned.selection();
  EXPECT_FALSE(owned.dense());
}

TEST(RowBatchTest, ShareWithSelectionIsNotDenseAndSharesStorage) {
  RowBatch batch = RowBatch::FromRows(ThreeRows());
  RowBatch view = batch.ShareWithSelection({2, 0});
  ASSERT_EQ(view.size(), 2u);
  const std::vector<Row> rows = view.ToRows();
  EXPECT_EQ(rows[0][0].int64_value(), 3);
  EXPECT_EQ(rows[1][0].int64_value(), 1);
  EXPECT_FALSE(view.dense());
  // Two live views over the same storage: neither owns it.
  EXPECT_FALSE(batch.OwnsAllColumns());
  EXPECT_FALSE(view.OwnsAllColumns());
}

TEST(RowBatchTest, ConsumeRowsIntoCopiesWhenShared) {
  const ColumnStore storage = testing_util::ToColumns(ThreeRows());
  RowBatch batch = RowBatch::BorrowedColumns(&storage, 0, 3);
  std::vector<Row> out;
  batch.ConsumeRowsInto(&out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_TRUE(batch.empty());
  // Borrowed storage is untouched.
  EXPECT_EQ(storage.MaterializeRow(0)[0].int64_value(), 1);
}

TEST(RowBatchTest, ConsumeRowsIntoAppends) {
  std::vector<Row> out;
  RowBatch::FromRows(ThreeRows()).ConsumeRowsInto(&out);
  RowBatch::FromRows(ThreeRows()).ConsumeRowsInto(&out);
  ASSERT_EQ(out.size(), 6u);
  EXPECT_EQ(out[3][0].int64_value(), 1);
}

// ------------------------------------------------- column-only batches

/// Bit-exact Value identity: type, NaN-ness and the sign of zero, which
/// structural equality (NaN = NaN, -0.0 = 0.0) would not tell apart.
void ExpectSameValue(const Value& got, const Value& want) {
  ASSERT_EQ(got.is_null(), want.is_null()) << got.ToString();
  if (want.is_null()) return;
  ASSERT_EQ(got.type(), want.type()) << got.ToString();
  if (want.is_double()) {
    const double g = got.double_value(), w = want.double_value();
    EXPECT_EQ(std::isnan(g), std::isnan(w));
    EXPECT_EQ(std::signbit(g), std::signbit(w));
    if (!std::isnan(w)) {
      EXPECT_EQ(g, w);
    }
    return;
  }
  EXPECT_TRUE(got.StructurallyEquals(want)) << got.ToString();
}

/// Five rows over (int64, double, string, mixed): NULLs in every column,
/// NaN and -0.0 in the doubles, an empty string, and an int64 column that
/// a double demotes to mixed mode.
std::vector<Row> TrickyRows() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {
      Row{Value::Int64(1), Value::Double(-0.0), Value::String("a"),
          Value::Int64(7)},
      Row{Value::Null(), Value::Double(nan), Value::String(""),
          Value::Double(2.5)},
      Row{Value::Int64(-3), Value::Null(), Value::Null(), Value::Null()},
      Row{Value::Int64(4), Value::Double(0.0), Value::String("long string"),
          Value::Int64(-1)},
      Row{Value::Int64(5), Value::Double(1e300), Value::String("b"),
          Value::String("x")},
  };
}

ColumnStore TrickyColumns() {
  ColumnStore store;
  store.columns.emplace_back(DataType::kInt64);
  store.columns.emplace_back(DataType::kDouble);
  store.columns.emplace_back(DataType::kString);
  store.columns.emplace_back(DataType::kInt64);
  for (const Row& row : TrickyRows()) store.AppendRow(row);
  return store;
}

TEST(RowBatchTest, ColumnOnlyBatchRoundTripsExactValues) {
  const std::vector<Row> want = TrickyRows();
  RowBatch batch = RowBatch::FromColumns(TrickyColumns());
  ASSERT_NE(batch.columns(), nullptr);
  EXPECT_FALSE(batch.columns()->columns[3].typed());  // demoted to mixed
  EXPECT_TRUE(batch.dense());
  EXPECT_EQ(batch.width(), 4u);
  ASSERT_EQ(batch.size(), want.size());
  const std::vector<Row> rows = batch.ToRows();
  for (size_t i = 0; i < want.size(); ++i) {
    for (size_t c = 0; c < 4; ++c) {
      SCOPED_TRACE(std::to_string(i) + "," + std::to_string(c));
      ExpectSameValue(rows[i][c], want[i][c]);
    }
  }
}

TEST(RowBatchTest, ColumnOnlyViewsShareStorage) {
  RowBatch batch = RowBatch::FromColumns(TrickyColumns());
  EXPECT_TRUE(batch.OwnsAllColumns());
  {
    // A view shares the columns and reads its own selection of them.
    RowBatch view = batch.ShareWithSelection({4, 1});
    ASSERT_EQ(view.size(), 2u);
    EXPECT_EQ(view.columns(), batch.columns());
    EXPECT_FALSE(view.dense());
    EXPECT_FALSE(batch.OwnsAllColumns());  // the view shares them
    const std::vector<Row> view_rows = view.ToRows();
    EXPECT_EQ(view_rows[0][0].int64_value(), 5);
    EXPECT_TRUE(std::isnan(view_rows[1][1].double_value()));
    // Consuming the view builds its two rows; the batch still reads all
    // five.
    std::vector<Row> consumed;
    view.ConsumeRowsInto(&consumed);
    ASSERT_EQ(consumed.size(), 2u);
    EXPECT_EQ(consumed[0][0].int64_value(), 5);
    EXPECT_EQ(batch.ToRows().size(), 5u);
  }
  // With the view gone the batch owns its columns again.
  EXPECT_TRUE(batch.OwnsAllColumns());
}

TEST(RowBatchTest, ColumnOnlyTakeRowAndConsumeRowsBuildFromColumns) {
  const std::vector<Row> want = TrickyRows();
  RowBatch batch = RowBatch::FromColumns(TrickyColumns(), {3, 1, 0});
  const Row taken = batch.ToRows()[1];
  ASSERT_EQ(taken.size(), 4u);
  for (size_t c = 0; c < 4; ++c) ExpectSameValue(taken[c], want[1][c]);

  const RowBatch selected = RowBatch::FromColumns(TrickyColumns(), {3, 1, 0});
  const std::vector<int> slots{3, 1};
  RowBatch narrowed = RowBatch::FromColumns(selected.GatherColumns(&slots));
  std::vector<Row> out{Row{Value::Int64(99)}};  // appended after
  narrowed.ConsumeRowsInto(&out);
  EXPECT_TRUE(narrowed.empty());
  ASSERT_EQ(out.size(), 4u);
  const size_t order[] = {3, 1, 0};
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(out[i + 1].size(), 2u);
    ExpectSameValue(out[i + 1][0], want[order[i]][3]);
    ExpectSameValue(out[i + 1][1], want[order[i]][1]);
  }

  RowBatch whole = RowBatch::FromColumns(TrickyColumns());
  std::vector<Row> rows;
  whole.ConsumeRowsInto(&rows);
  ASSERT_EQ(rows.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    for (size_t c = 0; c < 4; ++c) ExpectSameValue(rows[i][c], want[i][c]);
  }
}

// ------------------------------------------- borrowed column windows

constexpr size_t kWindowBegin = 200000;  // TrickyRows() start here

/// A table-sized store: filler rows, TrickyRows() at kWindowBegin, then
/// more filler.
const ColumnStore& WideStore() {
  static const ColumnStore* store = [] {
    auto* s = new ColumnStore;
    for (DataType t : {DataType::kInt64, DataType::kDouble,
                       DataType::kString, DataType::kInt64}) {
      s->columns.emplace_back(t);
    }
    auto filler = [s](size_t i) {
      s->AppendRow(Row{Value::Int64(static_cast<int64_t>(i)),
                       Value::Double(0.5), Value::String("filler"),
                       Value::Int64(0)});
    };
    for (size_t i = 0; i < kWindowBegin; ++i) filler(i);
    for (const Row& row : TrickyRows()) s->AppendRow(row);
    for (size_t i = 0; i < 100; ++i) filler(i);
    return s;
  }();
  return *store;
}

RowBatch TrickyWindow() {
  return RowBatch::BorrowedColumns(&WideStore(), kWindowBegin,
                                   kWindowBegin + 5);
}

/// Heap bytes in use, mmapped blocks included (0 where the allocator
/// does not report them).
size_t HeapInUse() {
#if defined(__GLIBC__)
  const struct mallinfo2 m = mallinfo2();
  return m.uordblks + m.hblkhd;
#else
  return 0;
#endif
}

TEST(ColumnarBorrowedWindow, RoundTripsAtAHighOffset) {
  const std::vector<Row> want = TrickyRows();
  RowBatch batch = TrickyWindow();
  ASSERT_EQ(batch.columns(), &WideStore());
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_EQ(batch.width(), 4u);
  EXPECT_TRUE(batch.dense());
  EXPECT_EQ(batch.selection()[0], kWindowBegin);
  EXPECT_FALSE(batch.OwnsAllColumns());  // borrowed, never taken

  const ColumnStore gathered = batch.GatherColumns(nullptr);
  ASSERT_EQ(gathered.num_rows, 5u);
  const Row taken = TrickyWindow().ToRows()[1];
  std::vector<Row> consumed;
  TrickyWindow().ConsumeRowsInto(&consumed);
  std::vector<Row> narrowed;
  const std::vector<int> slots{3, 1};
  RowBatch narrow = RowBatch::FromColumns(TrickyWindow().GatherColumns(&slots));
  narrow.ConsumeRowsInto(&narrowed);
  EXPECT_TRUE(narrow.empty());
  ASSERT_EQ(consumed.size(), 5u);
  ASSERT_EQ(narrowed.size(), 5u);
  for (size_t c = 0; c < 4; ++c) ExpectSameValue(taken[c], want[1][c]);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t c = 0; c < 4; ++c) {
      SCOPED_TRACE(std::to_string(i) + "," + std::to_string(c));
      ExpectSameValue(gathered.columns[c].GetValue(i), want[i][c]);
      ExpectSameValue(consumed[i][c], want[i][c]);
    }
    ExpectSameValue(narrowed[i][0], want[i][3]);
    ExpectSameValue(narrowed[i][1], want[i][1]);
  }

  // Reading the window's rows builds its five rows, not the store's 200k,
  // and views read their own selections of the window.
  const size_t heap_before = HeapInUse();
  const std::vector<Row> rows = batch.ToRows();
  const size_t heap_after = HeapInUse();
  EXPECT_LT(heap_after > heap_before ? heap_after - heap_before : 0,
            size_t{64} << 10);
  ASSERT_EQ(rows.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    for (size_t c = 0; c < 4; ++c) {
      SCOPED_TRACE(std::to_string(i) + "," + std::to_string(c));
      ExpectSameValue(rows[i][c], want[i][c]);
    }
  }
  const std::vector<Row> early =
      batch.ShareWithSelection({kWindowBegin + 4, kWindowBegin + 1}).ToRows();
  const std::vector<Row> late =
      batch.ShareWithSelection({kWindowBegin + 2}).ToRows();
  for (size_t c = 0; c < 4; ++c) {
    ExpectSameValue(early[0][c], want[4][c]);
    ExpectSameValue(early[1][c], want[1][c]);
    ExpectSameValue(late[0][c], want[2][c]);
  }
  // Another window of the same store reads its own rows.
  const std::vector<Row> other =
      RowBatch::BorrowedColumns(&WideStore(), 7, 9).ToRows();
  ASSERT_EQ(other.size(), 2u);
  EXPECT_EQ(other[1][0].int64_value(), 8);
}

// Four threads read one borrowed window and one owned store through views
// they make, read and drop themselves: each reads the same values, the
// shared store is never written, and the owned store's last holder owns
// its columns again once every thread's view is gone.
TEST(ColumnarParallelBorrowedWindow, FourThreadsReadOneWindow) {
  const std::vector<Row> want = TrickyRows();
  for (int round = 0; round < 20; ++round) {
    const RowBatch window = TrickyWindow();
    const RowBatch owned = RowBatch::FromColumns(TrickyColumns());
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&] {
        for (const RowBatch* batch : {&window, &owned}) {
          RowBatch view = batch->ShareWithSelection(batch->selection());
          const std::vector<Row> rows = view.ToRows();
          const ColumnStore gathered = view.GatherColumns(nullptr);
          std::vector<Row> consumed;
          view.ConsumeRowsInto(&consumed);
          ASSERT_EQ(rows.size(), want.size());
          ASSERT_EQ(gathered.num_rows, want.size());
          ASSERT_EQ(consumed.size(), want.size());
          for (size_t i = 0; i < want.size(); ++i) {
            for (size_t c = 0; c < 4; ++c) {
              ExpectSameValue(rows[i][c], want[i][c]);
              ExpectSameValue(gathered.columns[c].GetValue(i), want[i][c]);
              ExpectSameValue(consumed[i][c], want[i][c]);
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    EXPECT_EQ(WideStore().num_rows, kWindowBegin + 105);
    EXPECT_TRUE(owned.OwnsAllColumns());
  }
}

TEST(RowBatchTest, GatherAndTakeColumns) {
  RowBatch batch = RowBatch::FromColumns(TrickyColumns(), {4, 2});
  EXPECT_FALSE(batch.OwnsAllColumns());  // not every row selected
  const std::vector<int> slots{2, 0};
  const ColumnStore gathered = batch.GatherColumns(&slots);
  ASSERT_EQ(gathered.num_rows, 2u);
  ASSERT_EQ(gathered.columns.size(), 2u);
  EXPECT_TRUE(gathered.columns[0].typed());
  EXPECT_EQ(gathered.columns[0].GetValue(0).string_value(), "b");
  EXPECT_TRUE(gathered.columns[0].IsNull(1));
  EXPECT_EQ(gathered.columns[1].GetValue(1).int64_value(), -3);

  RowBatch all = RowBatch::FromColumns(TrickyColumns());
  ASSERT_TRUE(all.OwnsAllColumns());
  const ColumnStore taken = all.TakeColumns();
  EXPECT_EQ(taken.num_rows, 5u);
  EXPECT_TRUE(all.empty());

  // A FromRows batch holds columns typed by its values.
  RowBatch rows = RowBatch::FromRows(ThreeRows());
  const ColumnStore transposed = rows.GatherColumns(nullptr);
  ASSERT_EQ(transposed.columns.size(), 2u);
  EXPECT_TRUE(transposed.columns[1].typed());
  EXPECT_EQ(transposed.columns[1].type(), DataType::kInt64);
  EXPECT_EQ(transposed.columns[1].GetValue(2).int64_value(), 30);
}

}  // namespace
}  // namespace bypass
