// Direct tests of the physical operators: wiring small operator graphs by
// hand and asserting stream-level invariants — the bypass partition
// property, the count-bug-safe outer join defaults, agreement of hash and
// nested-loop implementations, buffering correctness under adverse source
// orders.
#include <cmath>
#include <functional>
#include <string>

#include <gtest/gtest.h>

#include "catalog/table.h"
#include "common/rng.h"
#include "exec/distinct.h"
#include "exec/executor.h"
#include "exec/filter.h"
#include "exec/group_by.h"
#include "exec/join.h"
#include "exec/project.h"
#include "exec/sort.h"
#include "exec/union_op.h"
#include "exec/worker_pool.h"
#include "test_util.h"

namespace bypass {
namespace {

using testing_util::BatchRecorder;
using testing_util::IntRow;
using testing_util::IntSchema;
using testing_util::TableRows;

ExprPtr Slot(int slot) {
  auto ref = std::make_shared<ColumnRefExpr>("", "c", false);
  ref->set_slot(slot);
  return ref;
}

ExprPtr GtLit(int slot, int64_t value) {
  return MakeComparison(CompareOp::kGt, Slot(slot),
                        MakeLiteral(Value::Int64(value)));
}

/// Builds a plan around a single operator: scan(table) → op → sink, with
/// optional second scan into the op's right port.
struct MiniPlan {
  PhysicalPlan plan;
  CollectorSink* sink = nullptr;

  std::vector<Row> Run() {
    ExecContext ctx;
    Status st = RunPlan(&plan, &ctx);
    EXPECT_TRUE(st.ok()) << st.ToString();
    return sink->TakeRows();
  }
};

MiniPlan UnaryPlan(const Table* table, PhysOpPtr op, int out_port = 0) {
  MiniPlan mini;
  auto scan = std::make_unique<TableScanOp>(table);
  auto sink = std::make_unique<CollectorSink>();
  scan->AddConsumer(kPortOut, op.get(), 0);
  op->AddConsumer(out_port, sink.get(), 0);
  mini.sink = sink.get();
  mini.plan.sources.push_back(scan.get());
  mini.plan.ops.push_back(std::move(scan));
  mini.plan.ops.push_back(std::move(op));
  mini.plan.ops.push_back(std::move(sink));
  return mini;
}

MiniPlan BinaryPlan(const Table* left, const Table* right, PhysOpPtr op,
                    bool left_source_first = false) {
  MiniPlan mini;
  auto left_scan = std::make_unique<TableScanOp>(left);
  auto right_scan = std::make_unique<TableScanOp>(right);
  auto sink = std::make_unique<CollectorSink>();
  left_scan->AddConsumer(kPortOut, op.get(), BinaryPhysOp::kLeft);
  right_scan->AddConsumer(kPortOut, op.get(), BinaryPhysOp::kRight);
  op->AddConsumer(kPortOut, sink.get(), 0);
  mini.sink = sink.get();
  if (left_source_first) {
    mini.plan.sources.push_back(left_scan.get());
    mini.plan.sources.push_back(right_scan.get());
  } else {
    mini.plan.sources.push_back(right_scan.get());
    mini.plan.sources.push_back(left_scan.get());
  }
  mini.plan.ops.push_back(std::move(left_scan));
  mini.plan.ops.push_back(std::move(right_scan));
  mini.plan.ops.push_back(std::move(op));
  mini.plan.ops.push_back(std::move(sink));
  return mini;
}

Table MakeTable(const char* name, int cols, std::vector<Row> rows) {
  std::vector<std::string> names;
  for (int i = 0; i < cols; ++i) names.push_back("c" + std::to_string(i));
  Table table(name, IntSchema(names));
  EXPECT_TRUE(table.AppendUnchecked(std::move(rows)).ok());
  return table;
}

/// scan(table) → op → a recorder, run serially at `batch_size` rows per
/// batch: the rows `op` emitted, in order, after checking that none of
/// its batches exceeds batch_size. The run counts every memory charge;
/// `memory_used`, when given, receives what is still charged at the end.
std::vector<Row> RunRecorded(const Table* table, PhysOpPtr op,
                             size_t batch_size,
                             int64_t* memory_used = nullptr) {
  PhysicalPlan plan;
  auto scan = std::make_unique<TableScanOp>(table);
  auto recorder = std::make_unique<BatchRecorder>();
  BatchRecorder* rec = recorder.get();
  scan->AddConsumer(kPortOut, op.get(), 0);
  op->AddConsumer(kPortOut, recorder.get(), 0);
  plan.sources.push_back(scan.get());
  plan.ops.push_back(std::move(scan));
  plan.ops.push_back(std::move(op));
  plan.ops.push_back(std::move(recorder));
  auto run = std::make_shared<RunContext>();
  run->batch_size = batch_size;
  run->memory_limit = int64_t{1} << 40;
  ExecContext ctx(run);
  const Status st = RunPlan(&plan, &ctx);
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (memory_used != nullptr) *memory_used = run->memory_used.load();
  EXPECT_GT(rec->batches, 1);
  EXPECT_LE(rec->max_batch, batch_size);
  return std::move(rec->rows);
}

TEST(FilterOpTest, KeepsOnlyTrueRows) {
  Table t = MakeTable("t", 1, {IntRow({1}), IntRow({5}), IntRow({3})});
  MiniPlan plan =
      UnaryPlan(&t, std::make_unique<FilterOp>(GtLit(0, 2)));
  auto rows = plan.Run();
  EXPECT_TRUE(RowMultisetsEqual(rows, {IntRow({5}), IntRow({3})}));
}

TEST(FilterOpTest, UnknownPredicateDropsRow) {
  Table t("t", IntSchema({"c0"}));
  ASSERT_TRUE(t.Append(Row{Value::Null()}).ok());
  ASSERT_TRUE(t.Append(Row{Value::Int64(9)}).ok());
  MiniPlan plan =
      UnaryPlan(&t, std::make_unique<FilterOp>(GtLit(0, 2)));
  EXPECT_EQ(plan.Run().size(), 1u);
}

TEST(BypassFilterOpTest, PartitionIsCompleteAndDisjoint) {
  Table t = MakeTable("t", 1, {IntRow({1}), IntRow({5}), IntRow({3}),
                               IntRow({5})});
  // Collect both streams through a union to verify nothing is lost.
  auto bypass = std::make_unique<BypassFilterOp>(GtLit(0, 2));
  auto uni = std::make_unique<UnionAllOp>();
  auto scan = std::make_unique<TableScanOp>(&t);
  auto sink = std::make_unique<CollectorSink>();
  scan->AddConsumer(kPortOut, bypass.get(), 0);
  bypass->AddConsumer(kPortOut, uni.get(), 0);
  bypass->AddConsumer(kPortNegative, uni.get(), 1);
  uni->AddConsumer(kPortOut, sink.get(), 0);
  MiniPlan mini;
  mini.sink = sink.get();
  mini.plan.sources.push_back(scan.get());
  mini.plan.ops.push_back(std::move(scan));
  mini.plan.ops.push_back(std::move(bypass));
  mini.plan.ops.push_back(std::move(uni));
  mini.plan.ops.push_back(std::move(sink));
  auto rows = mini.Run();
  EXPECT_TRUE(RowMultisetsEqual(rows, TableRows(t)));
}

TEST(BypassFilterOpTest, NegativeStreamGetsFalseAndUnknown) {
  Table t("t", IntSchema({"c0"}));
  ASSERT_TRUE(t.Append(Row{Value::Int64(9)}).ok());   // true → positive
  ASSERT_TRUE(t.Append(Row{Value::Int64(1)}).ok());   // false → negative
  ASSERT_TRUE(t.Append(Row{Value::Null()}).ok());     // unknown → negative
  MiniPlan plan = UnaryPlan(
      &t, std::make_unique<BypassFilterOp>(GtLit(0, 2)), kPortNegative);
  EXPECT_EQ(plan.Run().size(), 2u);
}

TEST(ProjectOpTest, ReshapesRows) {
  Table t = MakeTable("t", 2, {IntRow({1, 2}), IntRow({3, 4})});
  std::vector<ExprPtr> exprs;
  exprs.push_back(Slot(1));
  exprs.push_back(std::make_shared<ArithmeticExpr>(
      ArithOp::kAdd, Slot(0), MakeLiteral(Value::Int64(10))));
  MiniPlan plan =
      UnaryPlan(&t, std::make_unique<ProjectPhysOp>(std::move(exprs)));
  auto rows = plan.Run();
  EXPECT_TRUE(RowMultisetsEqual(rows, {IntRow({2, 11}), IntRow({4, 13})}));
}

TEST(MapOpTest, AppendsComputedColumns) {
  Table t = MakeTable("t", 1, {IntRow({3})});
  std::vector<ExprPtr> exprs;
  exprs.push_back(std::make_shared<ArithmeticExpr>(
      ArithOp::kMul, Slot(0), MakeLiteral(Value::Int64(2))));
  MiniPlan plan =
      UnaryPlan(&t, std::make_unique<MapPhysOp>(std::move(exprs)));
  EXPECT_TRUE(RowMultisetsEqual(plan.Run(), {IntRow({3, 6})}));
}

TEST(NumberingOpTest, AssignsSequentialIdsAndResets) {
  Table t = MakeTable("t", 1, {IntRow({7}), IntRow({8})});
  MiniPlan plan = UnaryPlan(&t, std::make_unique<NumberingPhysOp>());
  auto rows = plan.Run();
  EXPECT_TRUE(
      RowMultisetsEqual(rows, {IntRow({7, 0}), IntRow({8, 1})}));
  // Re-running the plan must restart the counter (subplan re-execution).
  auto again = plan.Run();
  EXPECT_TRUE(
      RowMultisetsEqual(again, {IntRow({7, 0}), IntRow({8, 1})}));
}

TEST(HashJoinOpTest, MatchesNLJoinOnEquiPredicate) {
  Table left = MakeTable(
      "l", 2, {IntRow({1, 10}), IntRow({2, 20}), IntRow({2, 21}),
               IntRow({3, 30})});
  Table right = MakeTable(
      "r", 2, {IntRow({2, 200}), IntRow({2, 201}), IntRow({4, 400})});
  MiniPlan hash = BinaryPlan(
      &left, &right,
      std::make_unique<HashJoinOp>(JoinKind::kInner, std::vector<int>{0},
                                   std::vector<int>{0}, nullptr));
  MiniPlan nl = BinaryPlan(
      &left, &right,
      std::make_unique<HashJoinOp>(
          JoinKind::kInner, std::vector<int>{}, std::vector<int>{},
          MakeComparison(CompareOp::kEq, Slot(0), Slot(2))));
  EXPECT_TRUE(RowMultisetsEqual(hash.Run(), nl.Run()));
}

TEST(HashJoinOpTest, NullKeysNeverMatch) {
  Table left("l", IntSchema({"c0"}));
  ASSERT_TRUE(left.Append(Row{Value::Null()}).ok());
  ASSERT_TRUE(left.Append(Row{Value::Int64(1)}).ok());
  Table right("r", IntSchema({"c0"}));
  ASSERT_TRUE(right.Append(Row{Value::Null()}).ok());
  ASSERT_TRUE(right.Append(Row{Value::Int64(1)}).ok());
  MiniPlan hash = BinaryPlan(
      &left, &right,
      std::make_unique<HashJoinOp>(JoinKind::kInner, std::vector<int>{0},
                                   std::vector<int>{0}, nullptr));
  auto rows = hash.Run();
  ASSERT_EQ(rows.size(), 1u);  // only 1=1; NULL=NULL is unknown
  EXPECT_EQ(rows[0][0].int64_value(), 1);
}

TEST(HashJoinOpTest, ResidualPredicateFilters) {
  Table left = MakeTable("l", 2, {IntRow({1, 5}), IntRow({1, 1})});
  Table right = MakeTable("r", 2, {IntRow({1, 3})});
  // join on c0 with residual left.c1 > right.c1 (slots 1 and 3).
  MiniPlan hash = BinaryPlan(
      &left, &right,
      std::make_unique<HashJoinOp>(
          JoinKind::kInner, std::vector<int>{0}, std::vector<int>{0},
          MakeComparison(CompareOp::kGt, Slot(1), Slot(3))));
  auto rows = hash.Run();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].int64_value(), 5);
}

TEST(KeylessJoinTest, NullPredicateIsCrossProduct) {
  Table left = MakeTable("l", 1, {IntRow({1}), IntRow({2})});
  Table right = MakeTable("r", 1, {IntRow({10}), IntRow({20}),
                                   IntRow({30})});
  MiniPlan plan =
      BinaryPlan(&left, &right, std::make_unique<HashJoinOp>(
          JoinKind::kInner, std::vector<int>{}, std::vector<int>{}, nullptr));
  EXPECT_EQ(plan.Run().size(), 6u);
}

TEST(BinaryPhysOpTest, BuffersLeftWhenLeftSourceRunsFirst) {
  // Adverse schedule: the probe (left) pipeline runs before the build
  // side finished — rows must be buffered, not lost.
  Table left = MakeTable("l", 1, {IntRow({1}), IntRow({2})});
  Table right = MakeTable("r", 1, {IntRow({1})});
  MiniPlan plan = BinaryPlan(
      &left, &right,
      std::make_unique<HashJoinOp>(JoinKind::kInner, std::vector<int>{0},
                                   std::vector<int>{0}, nullptr),
      /*left_source_first=*/true);
  EXPECT_EQ(plan.Run().size(), 1u);
}

TEST(OuterJoinTest, UnmatchedRowsGetDefaults) {
  Table left = MakeTable("l", 1, {IntRow({1}), IntRow({9})});
  Table right = MakeTable("r", 2, {IntRow({1, 100})});
  Row unmatched{Value::Null(), Value::Int64(0)};  // the count-bug fix
  MiniPlan plan = BinaryPlan(
      &left, &right,
      std::make_unique<HashJoinOp>(JoinKind::kLeftOuter,
                                   std::vector<int>{0}, std::vector<int>{0},
                                   nullptr, unmatched));
  auto rows = plan.Run();
  EXPECT_TRUE(RowMultisetsEqual(
      rows, {IntRow({1, 1, 100}),
             Row{Value::Int64(9), Value::Null(), Value::Int64(0)}}));
}

TEST(OuterJoinTest, HashMatchesNLVariant) {
  Table left = MakeTable(
      "l", 1, {IntRow({1}), IntRow({2}), IntRow({2}), IntRow({7})});
  Table right = MakeTable("r", 2, {IntRow({2, 20}), IntRow({2, 21}),
                                   IntRow({3, 30})});
  Row unmatched{Value::Null(), Value::Int64(0)};
  MiniPlan hash = BinaryPlan(
      &left, &right,
      std::make_unique<HashJoinOp>(JoinKind::kLeftOuter,
                                   std::vector<int>{0}, std::vector<int>{0},
                                   nullptr, unmatched));
  MiniPlan nl = BinaryPlan(
      &left, &right,
      std::make_unique<HashJoinOp>(
          JoinKind::kLeftOuter, std::vector<int>{}, std::vector<int>{},
          MakeComparison(CompareOp::kEq, Slot(0), Slot(1)), unmatched));
  EXPECT_TRUE(RowMultisetsEqual(hash.Run(), nl.Run()));
}

TEST(SemiAntiJoinTest, PartitionTheLeftInput) {
  Table left = MakeTable("l", 1, {IntRow({1}), IntRow({2}), IntRow({3}),
                                  IntRow({2})});
  Table right = MakeTable("r", 1, {IntRow({2}), IntRow({2}),
                                   IntRow({4})});
  MiniPlan semi = BinaryPlan(
      &left, &right,
      std::make_unique<HashJoinOp>(JoinKind::kSemi, std::vector<int>{0},
                                   std::vector<int>{0}, nullptr));
  MiniPlan anti = BinaryPlan(
      &left, &right,
      std::make_unique<HashJoinOp>(JoinKind::kAnti, std::vector<int>{0},
                                   std::vector<int>{0}, nullptr));
  auto semi_rows = semi.Run();
  auto anti_rows = anti.Run();
  EXPECT_TRUE(
      RowMultisetsEqual(semi_rows, {IntRow({2}), IntRow({2})}));
  EXPECT_TRUE(
      RowMultisetsEqual(anti_rows, {IntRow({1}), IntRow({3})}));
  // Semi + anti must partition the left multiset exactly.
  std::vector<Row> all = semi_rows;
  all.insert(all.end(), anti_rows.begin(), anti_rows.end());
  EXPECT_TRUE(RowMultisetsEqual(all, TableRows(left)));
}

TEST(SemiAntiJoinTest, HashMatchesNLVariant) {
  Table left = MakeTable("l", 1, {IntRow({1}), IntRow({2}), IntRow({3})});
  Table right = MakeTable("r", 1, {IntRow({2}), IntRow({5})});
  auto pred = MakeComparison(CompareOp::kEq, Slot(0), Slot(1));
  for (bool anti : {false, true}) {
    MiniPlan hash = BinaryPlan(
        &left, &right,
        std::make_unique<HashJoinOp>(anti ? JoinKind::kAnti
                                          : JoinKind::kSemi,
                                     std::vector<int>{0},
                                     std::vector<int>{0}, nullptr));
    MiniPlan nl = BinaryPlan(
        &left, &right,
        std::make_unique<HashJoinOp>(anti ? JoinKind::kAnti
                                          : JoinKind::kSemi,
                                     std::vector<int>{}, std::vector<int>{},
                                     pred->Clone()));
    EXPECT_TRUE(RowMultisetsEqual(hash.Run(), nl.Run())) << anti;
  }
}

// Every join kind: keys plus a residual must agree with the keyless join
// over the whole predicate, on NULL keys and NULL residual operands too.
TEST(JoinKindsTest, KeyedWithResidualMatchesKeyless) {
  const Value null = Value::Null();
  auto v = [](int64_t x) { return Value::Int64(x); };
  Table left = MakeTable(
      "l", 2, {Row{v(1), v(5)}, Row{v(1), null}, Row{null, v(3)},
               Row{v(2), v(1)}, Row{v(3), v(3)}, Row{v(2), v(9)}});
  Table right = MakeTable(
      "r", 2, {Row{v(1), v(3)}, Row{v(1), v(7)}, Row{null, v(1)},
               Row{v(2), null}, Row{v(2), v(0)}, Row{v(4), v(4)}});
  // l.c0 = r.c0 AND l.c1 > r.c1 over the concatenated pair.
  auto residual = [] {
    return MakeComparison(CompareOp::kGt, Slot(1), Slot(3));
  };
  const Row unmatched{null, v(0)};
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kLeftOuter,
                        JoinKind::kSemi, JoinKind::kAnti}) {
    MiniPlan keyed = BinaryPlan(
        &left, &right,
        std::make_unique<HashJoinOp>(kind, std::vector<int>{0},
                                     std::vector<int>{0}, residual(),
                                     unmatched));
    MiniPlan keyless = BinaryPlan(
        &left, &right,
        std::make_unique<HashJoinOp>(
            kind, std::vector<int>{}, std::vector<int>{},
            MakeAnd({MakeComparison(CompareOp::kEq, Slot(0), Slot(2)),
                     residual()}),
            unmatched));
    const std::vector<Row> got = keyed.Run();
    EXPECT_FALSE(got.empty()) << static_cast<int>(kind);
    EXPECT_TRUE(RowMultisetsEqual(got, keyless.Run()))
        << static_cast<int>(kind);
  }
}

/// 3VL truth of l.c1 > r.c1.
TriBool Greater(const Row& l, const Row& r) {
  return l[1].Compare(CompareOp::kGt, r[1]);
}

// Every join kind, keyed or keyless, with or without a residual, over a
// column-only probe input (Π's output): the join emits column-only
// batches of typed columns, and its rows are the brute-force join's in
// its order: probe order, then ascending build rows, then the pad.
TEST(ColumnarJoinOutput, EveryKindEmitsColumnOnlyBatches) {
  const Value null = Value::Null();
  auto v = [](int64_t x) { return Value::Int64(x); };
  const std::vector<Row> left_rows = {
      Row{v(1), v(5)}, Row{v(1), null}, Row{null, v(3)},
      Row{v(2), v(1)}, Row{v(3), v(3)}, Row{v(2), v(9)}};
  const std::vector<Row> right_rows = {
      Row{v(1), v(3)}, Row{v(1), v(7)}, Row{null, v(1)},
      Row{v(2), null}, Row{v(2), v(0)}, Row{v(4), v(4)}};
  Table left = MakeTable("l", 2, left_rows);
  Table right = MakeTable("r", 2, right_rows);
  const Row unmatched{null, v(0)};
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kLeftOuter,
                        JoinKind::kSemi, JoinKind::kAnti}) {
    for (bool keyed : {true, false}) {
      for (bool residual : {true, false}) {
        SCOPED_TRACE(std::to_string(static_cast<int>(kind)) +
                     (keyed ? " keyed" : " keyless") +
                     (residual ? " residual" : ""));
        // The pair predicate: l.c0 = r.c0 when keyed, AND l.c1 > r.c1
        // with the residual (over the concatenated pair).
        auto pred = [&](const Row& l, const Row& r) {
          TriBool t = TriBool::kTrue;
          if (keyed) t = l[0].Compare(CompareOp::kEq, r[0]);
          if (residual) t = TriAnd(t, Greater(l, r));
          return t == TriBool::kTrue;
        };
        std::vector<Row> want;
        for (const Row& l : left_rows) {
          bool any = false;
          for (const Row& r : right_rows) {
            if (!pred(l, r)) continue;
            any = true;
            if (kind == JoinKind::kInner || kind == JoinKind::kLeftOuter) {
              want.push_back(ConcatRows(l, r));
            }
          }
          if (kind == JoinKind::kLeftOuter && !any) {
            want.push_back(ConcatRows(l, unmatched));
          }
          if ((kind == JoinKind::kSemi && any) ||
              (kind == JoinKind::kAnti && !any)) {
            want.push_back(l);
          }
        }

        PhysicalPlan plan;
        auto left_scan = std::make_unique<TableScanOp>(&left);
        auto right_scan = std::make_unique<TableScanOp>(&right);
        auto project = std::make_unique<ProjectPhysOp>(
            std::vector<ExprPtr>{Slot(0), Slot(1)});
        auto join = std::make_unique<HashJoinOp>(
            kind, keyed ? std::vector<int>{0} : std::vector<int>{},
            keyed ? std::vector<int>{0} : std::vector<int>{},
            residual ? MakeComparison(CompareOp::kGt, Slot(1), Slot(3))
                     : nullptr,
            unmatched);
        auto recorder = std::make_unique<BatchRecorder>();
        BatchRecorder* rec = recorder.get();
        left_scan->AddConsumer(kPortOut, project.get(), 0);
        project->AddConsumer(kPortOut, join.get(), BinaryPhysOp::kLeft);
        right_scan->AddConsumer(kPortOut, join.get(), BinaryPhysOp::kRight);
        join->AddConsumer(kPortOut, recorder.get(), 0);
        plan.sources.push_back(right_scan.get());
        plan.sources.push_back(left_scan.get());
        plan.ops.push_back(std::move(left_scan));
        plan.ops.push_back(std::move(right_scan));
        plan.ops.push_back(std::move(project));
        plan.ops.push_back(std::move(join));
        plan.ops.push_back(std::move(recorder));
        ExecContext ctx;
        ASSERT_TRUE(RunPlan(&plan, &ctx).ok());

        EXPECT_EQ(rec->batches > 0, !want.empty());
        EXPECT_EQ(rec->untyped, 0);
        EXPECT_EQ(rec->rows, want);
      }
    }
  }
}

// Columnar scans emit zero-copy windows of the table's columns: at 1 and
// 4 threads, with zone maps on and off, every scan batch holds typed
// columns and together they hold the table's rows. With columnar
// execution off (the row oracle) every batch holds untyped columns, with
// the same rows.
TEST(ScanOpTest, ColumnarScansBorrowColumnsOnly) {
  Schema schema;
  schema.AddColumn({"k", DataType::kInt64, ""});
  schema.AddColumn({"d", DataType::kDouble, ""});
  schema.AddColumn({"s", DataType::kString, ""});
  Table t("t", schema);
  std::vector<Row> rows;
  for (int64_t i = 0; i < 5000; ++i) {
    const Value d = i % 7 == 0    ? Value::Null()
                    : i % 11 == 0 ? Value::Double(std::nan(""))
                    : i % 13 == 0 ? Value::Double(-0.0)
                                  : Value::Double(0.25 * i);
    // k is unique, so RowMultisetsEqual's sort never orders NaNs.
    rows.push_back(Row{Value::Int64(i), d,
                       i % 5 == 0 ? Value::Null()
                                  : Value::String(std::to_string(i))});
  }
  ASSERT_TRUE(t.AppendUnchecked(rows).ok());
  t.set_segment_rows(512);
  WorkerPool pool(4);
  for (int threads : {1, 4}) {
    for (bool zone_maps : {false, true}) {
      for (bool columnar : {true, false}) {
        SCOPED_TRACE(std::to_string(threads) + " threads, zone maps " +
                     (zone_maps ? "on" : "off") +
                     (columnar ? ", columnar" : ", row oracle"));
        PhysicalPlan plan;
        auto scan = std::make_unique<TableScanOp>(&t);
        // Keeps every segment, so the zone path emits every row.
        scan->set_zone_filter(GtLit(0, -1));
        auto recorder = std::make_unique<BatchRecorder>();
        BatchRecorder* rec = recorder.get();
        scan->AddConsumer(kPortOut, recorder.get(), 0);
        plan.sources.push_back(scan.get());
        plan.ops.push_back(std::move(scan));
        plan.ops.push_back(std::move(recorder));
        auto run = std::make_shared<RunContext>();
        run->batch_size = 100;
        run->morsel_size = 700;  // morsels straddle segments
        run->columnar_enabled = columnar;
        run->zone_maps_enabled = zone_maps;
        run->worker_stats.resize(static_cast<size_t>(threads));
        ExecContext ctx(run);
        TaskGroupOptions sched;
        sched.max_workers = threads;
        sched.max_worker_id = threads;
        ctx.set_task_group_options(sched);
        if (threads > 1) ctx.set_pool(&pool);
        ASSERT_TRUE(RunPlan(&plan, &ctx).ok());

        EXPECT_GE(rec->batches, 50);
        if (columnar) {
          EXPECT_EQ(rec->untyped, 0);
        } else {
          EXPECT_EQ(rec->untyped, rec->batches);
        }
        EXPECT_EQ(run->TotalStats().segments_scanned, zone_maps ? 10 : 0);
        EXPECT_TRUE(RowMultisetsEqual(rec->rows, rows));
      }
    }
  }
}

std::vector<AggregateSpec> CountAndSum(int arg_slot) {
  std::vector<AggregateSpec> specs(2);
  specs[0].func = AggFunc::kCount;
  specs[0].output_name = "cnt";
  specs[1].func = AggFunc::kSum;
  specs[1].arg = Slot(arg_slot);
  specs[1].output_name = "sum";
  return specs;
}

TEST(GroupByOpTest, GroupsAndAggregates) {
  Table t = MakeTable("t", 2, {IntRow({1, 10}), IntRow({1, 20}),
                               IntRow({2, 5})});
  MiniPlan plan = UnaryPlan(
      &t, std::make_unique<HashGroupByOp>(std::vector<int>{0},
                                          CountAndSum(1), false));
  auto rows = plan.Run();
  EXPECT_TRUE(RowMultisetsEqual(
      rows, {IntRow({1, 2, 30}), IntRow({2, 1, 5})}));

  // 20 groups at batch 7: the output leaves in batches of at most 7.
  std::vector<Row> input;
  std::vector<Row> want;
  for (int64_t k = 0; k < 20; ++k) want.push_back(IntRow({k, 0, 0}));
  for (int64_t i = 0; i < 50; ++i) {
    input.push_back(IntRow({i % 20, i}));
    Row& group = want[static_cast<size_t>(i % 20)];
    group[1] = Value::Int64(group[1].int64_value() + 1);
    group[2] = Value::Int64(group[2].int64_value() + i);
  }
  Table many = MakeTable("many", 2, input);
  EXPECT_TRUE(RowMultisetsEqual(
      RunRecorded(&many,
                  std::make_unique<HashGroupByOp>(std::vector<int>{0},
                                                  CountAndSum(1), false),
                  7),
      want));
}

TEST(GroupByOpTest, ScalarModeEmitsOneRowOnEmptyInput) {
  Table t = MakeTable("t", 2, {});
  MiniPlan plan = UnaryPlan(
      &t, std::make_unique<HashGroupByOp>(std::vector<int>{},
                                          CountAndSum(1), true));
  auto rows = plan.Run();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].int64_value(), 0);   // count(∅) = 0
  EXPECT_TRUE(rows[0][1].is_null());        // sum(∅) = NULL
}

TEST(GroupByOpTest, NonScalarModeEmitsNothingOnEmptyInput) {
  Table t = MakeTable("t", 2, {});
  MiniPlan plan = UnaryPlan(
      &t, std::make_unique<HashGroupByOp>(std::vector<int>{0},
                                          CountAndSum(1), false));
  EXPECT_TRUE(plan.Run().empty());
}

// Int64 keys on both sides, integral-double probe keys against int64
// build keys (1.0 = 1; a NULL probe key has no group), and string keys
// (the generic key shape).
TEST(BinaryGroupByTest, HashAndNLAgreeOnEquality) {
  auto i = [](int64_t x) { return Value::Int64(x); };
  auto d = [](double x) { return Value::Double(x); };
  auto str = [](const char* x) { return Value::String(x); };
  struct Case {
    DataType key_type;
    std::vector<Row> left;
    std::vector<Row> right;
    Value grouped;  // the left key of the group {10, 30}
  };
  const std::vector<Row> int_right = {Row{i(1), i(10)}, Row{i(1), i(30)},
                                      Row{i(2), i(7)}};
  const std::vector<Case> cases = {
      {DataType::kInt64, {Row{i(1)}, Row{i(2)}, Row{i(9)}}, int_right, i(1)},
      {DataType::kDouble,
       {Row{d(1.0)}, Row{d(2.0)}, Row{d(2.5)}, Row{Value::Null()},
        Row{d(9.0)}},
       int_right,
       d(1.0)},
      {DataType::kString,
       {Row{str("a")}, Row{str("b")}, Row{str("z")}},
       {Row{str("a"), i(10)}, Row{str("a"), i(30)}, Row{str("b"), i(7)}},
       str("a")},
  };
  std::vector<AggregateSpec> aggs = CountAndSum(1);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.grouped.ToString());
    Schema left_schema;
    left_schema.AddColumn({"c0", c.key_type, ""});
    Table left("l", left_schema);
    ASSERT_TRUE(left.AppendUnchecked(c.left).ok());
    Schema right_schema;
    right_schema.AddColumn({"c0", c.right[0][0].type(), ""});
    right_schema.AddColumn({"c1", DataType::kInt64, ""});
    Table right("r", right_schema);
    ASSERT_TRUE(right.AppendUnchecked(c.right).ok());
    MiniPlan hash = BinaryPlan(&left, &right,
                               std::make_unique<BinaryGroupByHashOp>(
                                   0, 0, std::vector<AggregateSpec>{
                                             aggs[0].Clone(),
                                             aggs[1].Clone()}));
    MiniPlan nl = BinaryPlan(
        &left, &right,
        std::make_unique<BinaryGroupByNLOp>(
            0, CompareOp::kEq, 0,
            std::vector<AggregateSpec>{aggs[0].Clone(), aggs[1].Clone()}));
    auto hash_rows = hash.Run();
    ASSERT_EQ(hash_rows.size(), c.left.size());
    EXPECT_TRUE(RowMultisetsEqual(hash_rows, nl.Run()));
    int empty_groups = 0;
    for (const Row& row : hash_rows) {
      if (row[0].StructurallyEquals(c.grouped)) {
        EXPECT_EQ(row[1].int64_value(), 2);
        EXPECT_EQ(row[2].int64_value(), 40);
      } else if (row[1].int64_value() == 0) {
        // Empty groups must receive f(∅).
        ++empty_groups;
        EXPECT_TRUE(row[2].is_null());
      }
    }
    // 9 (and 2.5 and NULL) have no group; 2 and "b" have one.
    EXPECT_EQ(empty_groups, static_cast<int>(c.left.size()) - 2);
  }
}

TEST(BinaryGroupByTest, NonEqualityGrouping) {
  Table left = MakeTable("l", 1, {IntRow({2})});
  Table right = MakeTable("r", 2, {IntRow({1, 10}), IntRow({2, 20}),
                                   IntRow({3, 30})});
  std::vector<AggregateSpec> aggs = CountAndSum(1);
  MiniPlan plan = BinaryPlan(
      &left, &right,
      std::make_unique<BinaryGroupByNLOp>(
          0, CompareOp::kGt, 0,
          std::vector<AggregateSpec>{aggs[0].Clone(), aggs[1].Clone()}));
  auto rows = plan.Run();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][1].int64_value(), 1);   // only right key 1 < 2
  EXPECT_EQ(rows[0][2].int64_value(), 10);
}

TEST(DistinctOpTest, KeepsFirstOccurrence) {
  Table t = MakeTable("t", 1, {IntRow({1}), IntRow({1}), IntRow({2}),
                               IntRow({1})});
  MiniPlan plan = UnaryPlan(&t, std::make_unique<DistinctPhysOp>());
  EXPECT_TRUE(
      RowMultisetsEqual(plan.Run(), {IntRow({1}), IntRow({2})}));
}

TEST(DistinctOpTest, NullsDeduplicateStructurally) {
  Table t("t", IntSchema({"c0"}));
  ASSERT_TRUE(t.Append(Row{Value::Null()}).ok());
  ASSERT_TRUE(t.Append(Row{Value::Null()}).ok());
  MiniPlan plan = UnaryPlan(&t, std::make_unique<DistinctPhysOp>());
  EXPECT_EQ(plan.Run().size(), 1u);
}

/// Rows of `cols` int64 columns over [0, 2], each NULL at 20 %: many
/// duplicate keys, NULL in every position.
std::vector<Row> NullableKeyRows(int cols, int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Row> rows;
  for (int i = 0; i < n; ++i) {
    Row row;
    for (int c = 0; c < cols; ++c) {
      row.push_back(rng.Bernoulli(0.2) ? Value::Null()
                                       : Value::Int64(rng.UniformInt(0, 2)));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// scan → Π (every column, so the batches are column-only) → `op`, with
/// a BatchRecorder after `op` on Π's output when `tee`, else on `op`'s.
struct ColumnOnlyPlan {
  PhysicalPlan plan;
  BatchRecorder* recorder = nullptr;
  CollectorSink* sink = nullptr;
};
ColumnOnlyPlan ColumnOnlyInput(const Table* table, int cols, PhysOpPtr op,
                               bool tee) {
  ColumnOnlyPlan out;
  std::vector<ExprPtr> exprs;
  for (int c = 0; c < cols; ++c) exprs.push_back(Slot(c));
  auto scan = std::make_unique<TableScanOp>(table);
  auto project = std::make_unique<ProjectPhysOp>(std::move(exprs));
  auto recorder = std::make_unique<BatchRecorder>();
  auto sink = std::make_unique<CollectorSink>();
  out.recorder = recorder.get();
  out.sink = sink.get();
  scan->AddConsumer(kPortOut, project.get(), 0);
  project->AddConsumer(kPortOut, op.get(), 0);
  if (tee) {
    // Fan-out runs in edge order: the recorder sees each batch after op.
    project->AddConsumer(kPortOut, recorder.get(), 0);
    op->AddConsumer(kPortOut, sink.get(), 0);
  } else {
    op->AddConsumer(kPortOut, recorder.get(), 0);
  }
  out.plan.sources.push_back(scan.get());
  out.plan.ops.push_back(std::move(scan));
  out.plan.ops.push_back(std::move(project));
  out.plan.ops.push_back(std::move(op));
  out.plan.ops.push_back(std::move(recorder));
  out.plan.ops.push_back(std::move(sink));
  return out;
}

// A fresh DISTINCT elects its key shape from the typed columns: column-only
// int64 batches pass through as typed columns and keep the first
// occurrence of each row.
TEST(DistinctOpTest, ColumnOnlyInt64BatchesStayRowFree) {
  const std::vector<Row> rows = NullableKeyRows(3, 500, 31);
  Table t = MakeTable("t", 3, rows);
  ColumnOnlyPlan p = ColumnOnlyInput(
      &t, 3, std::make_unique<DistinctPhysOp>(), /*tee=*/false);
  ExecContext ctx;
  ASSERT_TRUE(RunPlan(&p.plan, &ctx).ok());
  std::vector<Row> want;
  for (const Row& row : rows) {
    bool seen = false;
    for (const Row& w : want) seen = seen || RowsStructurallyEqual(w, row);
    if (!seen) want.push_back(row);
  }
  EXPECT_GT(p.recorder->batches, 0);
  EXPECT_EQ(p.recorder->untyped, 0);
  ASSERT_EQ(p.recorder->rows.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_TRUE(RowsStructurallyEqual(p.recorder->rows[i], want[i])) << i;
  }
}

// Two- and three-column int64 group keys resolve from the typed columns:
// its column-only input batches stay typed, and NULL keys group
// structurally.
TEST(GroupByOpTest, MultiColumnInt64KeysResolveFromColumns) {
  const std::vector<Row> rows = NullableKeyRows(4, 600, 32);
  Table t = MakeTable("t", 4, rows);
  for (int width : {2, 3}) {
    SCOPED_TRACE("key width " + std::to_string(width));
    std::vector<int> keys;
    for (int c = 0; c < width; ++c) keys.push_back(c);
    ColumnOnlyPlan p = ColumnOnlyInput(
        &t, 4,
        std::make_unique<HashGroupByOp>(keys, CountAndSum(3), false),
        /*tee=*/true);
    ExecContext ctx;
    ASSERT_TRUE(RunPlan(&p.plan, &ctx).ok());
    EXPECT_EQ(p.recorder->untyped, 0);
    std::vector<Row> want;  // (keys..., COUNT(*), SUM(c3))
    for (const Row& row : rows) {
      const Row key(row.begin(), row.begin() + width);
      Row* group = nullptr;
      for (Row& w : want) {
        if (RowsStructurallyEqual(Row(w.begin(), w.begin() + width), key)) {
          group = &w;
        }
      }
      if (group == nullptr) {
        want.push_back(key);
        want.back().push_back(Value::Int64(0));
        want.back().push_back(Value::Null());
        group = &want.back();
      }
      Value& cnt = (*group)[static_cast<size_t>(width)];
      Value& sum = (*group)[static_cast<size_t>(width) + 1];
      cnt = Value::Int64(cnt.int64_value() + 1);
      if (!row[3].is_null()) {
        sum = Value::Int64((sum.is_null() ? 0 : sum.int64_value()) +
                           row[3].int64_value());
      }
    }
    EXPECT_TRUE(RowMultisetsEqual(p.sink->TakeRows(), want));
  }
}

TEST(SortOpTest, SortsByKeysWithDirections) {
  Table t = MakeTable("t", 2, {IntRow({1, 5}), IntRow({2, 5}),
                               IntRow({0, 7})});
  std::vector<PhysSortKey> keys;
  keys.push_back(PhysSortKey{1, /*descending=*/true});
  keys.push_back(PhysSortKey{0, /*descending=*/false});
  MiniPlan plan =
      UnaryPlan(&t, std::make_unique<SortPhysOp>(std::move(keys)));
  auto rows = plan.Run();
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][0].int64_value(), 0);  // 7 first (desc)
  EXPECT_EQ(rows[1][0].int64_value(), 1);  // then 5s by c0 asc
  EXPECT_EQ(rows[2][0].int64_value(), 2);

  // 30 rows at batch 7: sorted, in batches of at most 7, and the sort
  // (which did not spill) holds no charge once it has emitted every row.
  std::vector<Row> input;
  for (int64_t i = 0; i < 30; ++i) input.push_back(IntRow({i, i % 4}));
  Table many = MakeTable("many", 2, input);
  std::vector<PhysSortKey> many_keys;
  many_keys.push_back(PhysSortKey{1, /*descending=*/true});
  many_keys.push_back(PhysSortKey{0, /*descending=*/false});
  int64_t memory_used = -1;
  const std::vector<Row> sorted = RunRecorded(
      &many, std::make_unique<SortPhysOp>(std::move(many_keys)), 7,
      &memory_used);
  EXPECT_EQ(memory_used, 0);
  ASSERT_EQ(sorted.size(), 30u);
  for (size_t r = 1; r < sorted.size(); ++r) {
    const int64_t prev = sorted[r - 1][1].int64_value();
    const int64_t cur = sorted[r][1].int64_value();
    EXPECT_TRUE(prev > cur || (prev == cur && sorted[r - 1][0].int64_value() <
                                                  sorted[r][0].int64_value()))
        << r;
  }
}

TEST(HashJoinOpTest, IntAndDoubleKeysMatchNumerically) {
  // SQL: 2 = 2.0 is true, so hash keys must match across int64/double —
  // Value::Hash is defined to make this work (TPC-H joins double money
  // columns against aggregates that may come back as either type).
  Table left("l", IntSchema({"c0"}));
  ASSERT_TRUE(left.Append(Row{Value::Int64(2)}).ok());
  Table right("r", IntSchema({"c0"}));
  ASSERT_TRUE(right.Append(Row{Value::Double(2.0)}).ok());
  ASSERT_TRUE(right.Append(Row{Value::Double(2.5)}).ok());
  MiniPlan plan = BinaryPlan(
      &left, &right,
      std::make_unique<HashJoinOp>(JoinKind::kInner, std::vector<int>{0},
                                   std::vector<int>{0}, nullptr));
  auto rows = plan.Run();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_DOUBLE_EQ(rows[0][1].double_value(), 2.0);
}

TEST(LimitPhysOpTest, StopsAfterCountAndCancels) {
  std::vector<Row> data;
  for (int i = 0; i < 100; ++i) data.push_back(IntRow({i}));
  Table t = MakeTable("t", 1, std::move(data));
  MiniPlan plan = UnaryPlan(&t, std::make_unique<LimitPhysOp>(3));
  EXPECT_EQ(plan.Run().size(), 3u);
  // Re-running must reset the counter.
  EXPECT_EQ(plan.Run().size(), 3u);
}

TEST(OperatorStatsTest, EmittedRowsPerPort) {
  Table t = MakeTable("t", 1, {IntRow({1}), IntRow({5}), IntRow({3})});
  auto bypass_owner = std::make_unique<BypassFilterOp>(GtLit(0, 2));
  BypassFilterOp* bypass = bypass_owner.get();
  MiniPlan plan = UnaryPlan(&t, std::move(bypass_owner), kPortOut);
  plan.Run();
  EXPECT_EQ(bypass->rows_emitted(kPortOut), 2);
  EXPECT_EQ(bypass->rows_emitted(kPortNegative), 1);
}

TEST(TimeoutTest, DeadlineAbortsScans) {
  std::vector<Row> rows;
  for (int i = 0; i < 200000; ++i) rows.push_back(IntRow({i}));
  Table big = MakeTable("big", 1, std::move(rows));
  MiniPlan left_plan = BinaryPlan(
      &big, &big, std::make_unique<HashJoinOp>(
          JoinKind::kInner, std::vector<int>{}, std::vector<int>{}, nullptr));
  ExecContext ctx;
  ctx.run().deadline = std::chrono::steady_clock::now() -
                       std::chrono::milliseconds(1);  // already expired
  Status st = RunPlan(&left_plan.plan, &ctx);
  EXPECT_EQ(st.code(), StatusCode::kTimeout);
}

// --- Column build sides ---------------------------------------------------

/// Π over every column of `cols`, so the batches it emits own columns.
PhysOpPtr ProjectAll(int cols) {
  std::vector<ExprPtr> exprs;
  for (int c = 0; c < cols; ++c) exprs.push_back(Slot(c));
  return std::make_unique<ProjectPhysOp>(std::move(exprs));
}

/// left scan → Π → `op` (left port); right scan → Π → `op` (right port),
/// then a recorder on the right Π's output, which sees each build batch
/// after `op` buffered it; `op` → a recorder of the output.
struct BuildSidePlan {
  PhysicalPlan plan;
  BatchRecorder* build_input = nullptr;
  BatchRecorder* out = nullptr;
};
BuildSidePlan BuildSideInput(const Table* left, const Table* right,
                             PhysOpPtr op) {
  BuildSidePlan p;
  auto left_scan = std::make_unique<TableScanOp>(left);
  auto right_scan = std::make_unique<TableScanOp>(right);
  PhysOpPtr left_project = ProjectAll(left->schema().num_columns());
  PhysOpPtr right_project = ProjectAll(right->schema().num_columns());
  auto build_input = std::make_unique<BatchRecorder>();
  auto out = std::make_unique<BatchRecorder>();
  p.build_input = build_input.get();
  p.out = out.get();
  left_scan->AddConsumer(kPortOut, left_project.get(), 0);
  left_project->AddConsumer(kPortOut, op.get(), BinaryPhysOp::kLeft);
  right_scan->AddConsumer(kPortOut, right_project.get(), 0);
  right_project->AddConsumer(kPortOut, op.get(), BinaryPhysOp::kRight);
  right_project->AddConsumer(kPortOut, build_input.get(), 0);
  op->AddConsumer(kPortOut, out.get(), 0);
  p.plan.sources.push_back(right_scan.get());
  p.plan.sources.push_back(left_scan.get());
  p.plan.ops.push_back(std::move(left_scan));
  p.plan.ops.push_back(std::move(right_scan));
  p.plan.ops.push_back(std::move(left_project));
  p.plan.ops.push_back(std::move(right_project));
  p.plan.ops.push_back(std::move(op));
  p.plan.ops.push_back(std::move(build_input));
  p.plan.ops.push_back(std::move(out));
  return p;
}

Row Concat(const Row& a, const Row& b) {
  Row out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

/// Brute-force binary grouping: `l` extended with COUNT(*) and SUM(r[2])
/// over the rows r with `matches(l, r)` (f(∅) = 0 and NULL).
std::vector<Row> GroupOracle(
    const std::vector<Row>& left, const std::vector<Row>& right,
    const std::function<bool(const Row&, const Row&)>& matches) {
  std::vector<Row> want;
  for (const Row& l : left) {
    int64_t count = 0;
    Value sum = Value::Null();
    for (const Row& r : right) {
      if (!matches(l, r)) continue;
      ++count;
      if (!r[2].is_null()) {
        sum = Value::Int64((sum.is_null() ? 0 : sum.int64_value()) +
                           r[2].int64_value());
      }
    }
    Row row = l;
    row.push_back(Value::Int64(count));
    row.push_back(sum);
    want.push_back(std::move(row));
  }
  return want;
}

// Every join kind and both binary groupings buffer their build side as
// columns: the budget is charged the columns' bytes (below what the rows
// would take), no output batch exceeds batch_size, and the output equals
// a brute-force oracle at batch {1, 7, 1024} × threads {1, 4} on 20 %
// NULLs.
TEST(ColumnarParallelBuildSides, EveryBinaryOperatorBuildsFromColumns) {
  const std::vector<Row> left_rows = NullableKeyRows(3, 300, 41);
  const std::vector<Row> right_rows = NullableKeyRows(3, 200, 42);
  const std::vector<Row> small_rows = NullableKeyRows(3, 40, 43);
  Table left = MakeTable("l", 3, left_rows);
  Table right = MakeTable("r", 3, right_rows);
  Table small = MakeTable("s", 3, small_rows);
  auto key_eq = [](const Row& l, const Row& r) {
    return l[0].Compare(CompareOp::kEq, r[0]) == TriBool::kTrue;
  };
  auto residual = [](const Row& l, const Row& r) {
    return l[1].Compare(CompareOp::kLt, r[1]) == TriBool::kTrue;
  };
  // Residual l1 < r1 over the concatenated pair (left width 3).
  auto make_residual = [] {
    return MakeComparison(CompareOp::kLt, Slot(1), Slot(4));
  };
  const Row pad{Value::Null(), Value::Int64(0), Value::Null()};

  struct Case {
    std::string name;
    const Table* build;
    std::function<PhysOpPtr()> make;
    std::vector<Row> want;
  };
  std::vector<Case> cases;
  {
    std::vector<Row> inner, outer, semi, anti, cross;
    for (const Row& l : left_rows) {
      bool matched = false, passed = false;
      for (const Row& r : right_rows) {
        if (!key_eq(l, r)) continue;
        inner.push_back(Concat(l, r));
        outer.push_back(Concat(l, r));
        matched = true;
        passed = passed || residual(l, r);
      }
      if (!matched) outer.push_back(Concat(l, pad));
      (passed ? semi : anti).push_back(l);
      for (const Row& r : small_rows) cross.push_back(Concat(l, r));
    }
    cases.push_back({"inner", &right, [] {
      return std::make_unique<HashJoinOp>(JoinKind::kInner,
                                          std::vector<int>{0},
                                          std::vector<int>{0}, nullptr);
    }, inner});
    cases.push_back({"left outer", &right, [pad] {
      return std::make_unique<HashJoinOp>(
          JoinKind::kLeftOuter, std::vector<int>{0}, std::vector<int>{0},
          nullptr, pad);
    }, outer});
    cases.push_back({"semi", &right, [&] {
      return std::make_unique<HashJoinOp>(
          JoinKind::kSemi, std::vector<int>{0}, std::vector<int>{0},
          make_residual());
    }, semi});
    cases.push_back({"anti", &right, [&] {
      return std::make_unique<HashJoinOp>(
          JoinKind::kAnti, std::vector<int>{0}, std::vector<int>{0},
          make_residual());
    }, anti});
    cases.push_back({"cross product", &small, [] {
      return std::make_unique<HashJoinOp>(
          JoinKind::kInner, std::vector<int>{}, std::vector<int>{}, nullptr);
    }, cross});
  }
  cases.push_back({"binary group by (hash)", &right, [] {
    return std::make_unique<BinaryGroupByHashOp>(0, 0, CountAndSum(2));
  }, GroupOracle(left_rows, right_rows, key_eq)});
  cases.push_back({"binary group by (nl)", &right, [] {
    return std::make_unique<BinaryGroupByNLOp>(1, CompareOp::kLt, 1,
                                               CountAndSum(2));
  }, GroupOracle(left_rows, right_rows, residual)});

  WorkerPool pool(4);
  for (const Case& c : cases) {
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE(c.name + ", batch " + std::to_string(batch_size) +
                     ", " + std::to_string(threads) + " threads");
        BuildSidePlan p = BuildSideInput(&left, c.build, c.make());
        auto run = std::make_shared<RunContext>();
        run->batch_size = batch_size;
        run->morsel_size = 64;
        run->memory_limit = int64_t{1} << 40;  // counts every charge
        run->worker_stats.resize(static_cast<size_t>(threads));
        ExecContext ctx(run);
        TaskGroupOptions sched;
        sched.max_workers = threads;
        sched.max_worker_id = threads;
        ctx.set_task_group_options(sched);
        if (threads > 1) ctx.set_pool(&pool);
        ASSERT_TRUE(RunPlan(&p.plan, &ctx).ok());
        EXPECT_GT(p.build_input->batches, 0);
        EXPECT_LE(p.out->max_batch, batch_size);
        const size_t build_rows = c.build->columns().num_rows;
        EXPECT_LT(run->memory_used.load(), ApproxRowsBytes(build_rows, 3));
        EXPECT_TRUE(RowMultisetsEqual(p.out->rows, c.want))
            << p.out->rows.size() << " rows vs " << c.want.size();
      }
    }
  }
}

}  // namespace
}  // namespace bypass
