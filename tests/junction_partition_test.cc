// σ± of AND, OR and NOT (Expr::PartitionBatch) over selections, checked
// against a brute-force 3VL fold of the leaves' EvalBatch values, and the
// junctions' own EvalBatch against the same fold. Random nested
// predicates run on columns with 20 % NULLs, at batch sizes {1, 7, 1024},
// over dense windows, narrowed non-dense selections and selections that
// repeat storage indices out of order, with every output form: TRUE only,
// three streams, and FALSE and NULL as one stream. A division by zero
// shows which rows a term runs on. ColumnarJunctionPartition carries the
// columnar label; ColumnarParallelJunctionPartition runs the same checks
// from 4 workers at once and lands in the TSan `-L parallel` sweep.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "exec/worker_pool.h"
#include "expr/expr.h"
#include "test_util.h"
#include "types/column_vector.h"
#include "types/row_batch.h"

namespace bypass {
namespace {

constexpr size_t kStoreRows = 2048;
constexpr uint32_t kSentinel = 0xdeadbeefu;

ExprPtr Col(int slot) {
  auto ref = std::make_shared<ColumnRefExpr>("", "c" + std::to_string(slot),
                                             /*is_outer=*/false);
  ref->set_slot(slot);
  return ref;
}

ExprPtr Int(int64_t v) { return MakeLiteral(Value::Int64(v)); }

/// Int64 columns c0..c2 over [0, 4], c3 over [0, 2] (so it is often 0)
/// and string column c4 over {"a", "ab", "b"}; every value NULL with
/// probability 0.2. `typed` false keeps untyped columns, on which every
/// leaf takes its Value path.
ColumnStore MakeStore(uint64_t seed, bool typed) {
  Rng rng(seed);
  std::vector<Row> rows;
  const char* strings[] = {"a", "ab", "b"};
  for (size_t i = 0; i < kStoreRows; ++i) {
    Row row;
    for (int c = 0; c < 4; ++c) {
      row.push_back(rng.Bernoulli(0.2)
                        ? Value::Null()
                        : Value::Int64(rng.UniformInt(0, c == 3 ? 2 : 4)));
    }
    row.push_back(rng.Bernoulli(0.2)
                      ? Value::Null()
                      : Value::String(strings[rng.UniformInt(0, 2)]));
    rows.push_back(std::move(row));
  }
  return RowBatch::FromRows(std::move(rows), typed).TakeColumns();
}

ExprPtr RandomLeaf(Rng* rng) {
  constexpr CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                CompareOp::kLt, CompareOp::kLe,
                                CompareOp::kGt, CompareOp::kGe};
  const CompareOp op = kOps[rng->UniformInt(0, 5)];
  const int a = static_cast<int>(rng->UniformInt(0, 3));
  switch (rng->UniformInt(0, 3)) {
    case 0:
      return MakeComparison(op, Col(a), Int(rng->UniformInt(0, 4)));
    case 1:
      return MakeComparison(op, Col(a),
                            Col(static_cast<int>(rng->UniformInt(0, 3))));
    case 2:
      return std::make_shared<IsNullExpr>(Col(a), rng->Bernoulli(0.5));
    default:
      return std::make_shared<LikeExpr>(
          Col(4), rng->Bernoulli(0.5) ? "a%" : "%b", rng->Bernoulli(0.3));
  }
}

/// A random predicate up to `depth` junction levels deep. Junctions are
/// built directly (not through MakeAnd/MakeOr), so an AND may nest
/// another AND.
ExprPtr RandomPredicate(Rng* rng, int depth) {
  if (depth == 0 || rng->Bernoulli(0.25)) return RandomLeaf(rng);
  const int64_t kind = rng->UniformInt(0, 4);
  if (kind == 4) return MakeNot(RandomPredicate(rng, depth - 1));
  std::vector<ExprPtr> terms;
  const int64_t num_terms = rng->UniformInt(2, 4);
  for (int64_t t = 0; t < num_terms; ++t) {
    terms.push_back(RandomPredicate(rng, depth - 1));
  }
  if (kind < 2) return std::make_shared<AndExpr>(std::move(terms));
  return std::make_shared<OrExpr>(std::move(terms));
}

/// The brute-force 3VL value of `e` per selected row: every leaf is
/// evaluated on every row, and the junctions fold the leaves' values.
void TruthOf(const Expr& e, const RowBatch& batch,
             std::vector<TriBool>* out) {
  const size_t n = batch.size();
  if (e.kind() == ExprKind::kAnd || e.kind() == ExprKind::kOr) {
    const bool is_and = e.kind() == ExprKind::kAnd;
    out->assign(n, is_and ? TriBool::kTrue : TriBool::kFalse);
    std::vector<TriBool> term;
    for (const ExprPtr& t : e.children()) {
      TruthOf(*t, batch, &term);
      for (size_t i = 0; i < n; ++i) {
        (*out)[i] = is_and ? TriAnd((*out)[i], term[i])
                           : TriOr((*out)[i], term[i]);
      }
    }
    return;
  }
  if (e.kind() == ExprKind::kNot) {
    TruthOf(*e.children()[0], batch, out);
    for (TriBool& t : *out) t = TriNot(t);
    return;
  }
  std::vector<Value> values;
  const Status st = e.EvalBatch(batch, nullptr, &values);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(values.size(), n);
  out->clear();
  for (const Value& v : values) out->push_back(ValueToTriBool(v));
}

/// `batch`'s storage indices whose truth is `want` (any of two when
/// `also` differs from `want`), in batch order, after the sentinel.
std::vector<uint32_t> Expected(const RowBatch& batch,
                               const std::vector<TriBool>& truth,
                               TriBool want, TriBool also) {
  std::vector<uint32_t> out{kSentinel};
  for (size_t i = 0; i < truth.size(); ++i) {
    if (truth[i] == want || truth[i] == also) {
      out.push_back(batch.selection()[i]);
    }
  }
  return out;
}

/// Every output form of pred.PartitionBatch(batch), and pred.EvalBatch,
/// against the brute-force truth. Each output starts with a sentinel the
/// partition must append after.
void CheckPartition(const Expr& pred, const RowBatch& batch) {
  SCOPED_TRACE(pred.ToString());
  std::vector<TriBool> truth;
  TruthOf(pred, batch, &truth);
  if (::testing::Test::HasFatalFailure()) return;
  const TriBool kT = TriBool::kTrue, kF = TriBool::kFalse,
                kU = TriBool::kUnknown;

  std::vector<Value> values;
  ASSERT_TRUE(pred.EvalBatch(batch, nullptr, &values).ok());
  ASSERT_EQ(values.size(), truth.size());
  for (size_t i = 0; i < truth.size(); ++i) {
    ASSERT_EQ(ValueToTriBool(values[i]), truth[i]) << "row " << i;
  }

  // Three streams.
  std::vector<uint32_t> t{kSentinel}, f{kSentinel}, u{kSentinel};
  ASSERT_TRUE(pred.PartitionBatch(batch, nullptr, &t, &f, &u).ok());
  EXPECT_EQ(t, Expected(batch, truth, kT, kT));
  EXPECT_EQ(f, Expected(batch, truth, kF, kF));
  EXPECT_EQ(u, Expected(batch, truth, kU, kU));
  // The σ± split: FALSE and NULL as one stream.
  t = {kSentinel};
  f = {kSentinel};
  ASSERT_TRUE(pred.PartitionBatch(batch, nullptr, &t, &f, &f).ok());
  EXPECT_EQ(t, Expected(batch, truth, kT, kT));
  EXPECT_EQ(f, Expected(batch, truth, kF, kU));
  // TRUE only, and one of FALSE / NULL.
  t = {kSentinel};
  ASSERT_TRUE(
      pred.PartitionBatch(batch, nullptr, &t, nullptr, nullptr).ok());
  EXPECT_EQ(t, Expected(batch, truth, kT, kT));
  t = {kSentinel};
  f = {kSentinel};
  ASSERT_TRUE(pred.PartitionBatch(batch, nullptr, &t, &f, nullptr).ok());
  EXPECT_EQ(t, Expected(batch, truth, kT, kT));
  EXPECT_EQ(f, Expected(batch, truth, kF, kF));
  t = {kSentinel};
  u = {kSentinel};
  ASSERT_TRUE(pred.PartitionBatch(batch, nullptr, &t, nullptr, &u).ok());
  EXPECT_EQ(t, Expected(batch, truth, kT, kT));
  EXPECT_EQ(u, Expected(batch, truth, kU, kU));
}

/// The selections one batch size is checked over: a dense window, a
/// narrowed ascending subset, and storage indices drawn with repeats in
/// no order.
std::vector<RowBatch> SelectionForms(const ColumnStore* store, size_t n,
                                     Rng* rng) {
  std::vector<RowBatch> forms;
  const size_t off =
      static_cast<size_t>(rng->UniformInt(0, kStoreRows - n));
  forms.push_back(RowBatch::BorrowedColumns(store, off, off + n));
  const RowBatch all = RowBatch::BorrowedColumns(store, 0, kStoreRows);
  std::vector<uint32_t> subset(kStoreRows);
  for (uint32_t i = 0; i < kStoreRows; ++i) subset[i] = i;
  for (size_t i = 0; i < n; ++i) {
    std::swap(subset[i], subset[static_cast<size_t>(rng->UniformInt(
                             static_cast<int64_t>(i), kStoreRows - 1))]);
  }
  subset.resize(n);
  std::sort(subset.begin(), subset.end());
  forms.push_back(all.ShareWithSelection(subset));
  std::vector<uint32_t> repeats;
  for (size_t i = 0; i < n; ++i) {
    repeats.push_back(
        i > 0 && rng->Bernoulli(0.3)
            ? repeats[static_cast<size_t>(
                  rng->UniformInt(0, static_cast<int64_t>(i) - 1))]
            : static_cast<uint32_t>(rng->UniformInt(0, kStoreRows - 1)));
  }
  forms.push_back(all.ShareWithSelection(repeats));
  return forms;
}

/// `rounds` random predicates, each over every selection form of every
/// batch size, on typed and untyped columns.
void RunProperty(uint64_t seed, int rounds, const ColumnStore& typed,
                 const ColumnStore& untyped) {
  Rng rng(seed);
  for (int r = 0; r < rounds; ++r) {
    const ExprPtr pred = RandomPredicate(&rng, 3);
    for (size_t n : {size_t{1}, size_t{7}, size_t{1024}}) {
      for (const ColumnStore* store : {&typed, &untyped}) {
        for (const RowBatch& batch : SelectionForms(store, n, &rng)) {
          CheckPartition(*pred, batch);
          if (::testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

TEST(ColumnarJunctionPartition, MatchesBruteForceTruthOverSelections) {
  const ColumnStore typed = MakeStore(11, /*typed=*/true);
  const ColumnStore untyped = MakeStore(11, /*typed=*/false);
  RunProperty(/*seed=*/101, /*rounds=*/60, typed, untyped);
}

TEST(ColumnarJunctionPartition, DecidedRowsNeverReachLaterTerms) {
  // Columns (c0, c1, c3): rows 0 and 1 divide by zero (row 1 with c1
  // NULL), row 2 divides by 2.
  const std::vector<Row> rows = {
      testing_util::IntRow({6, 1, 0}),
      Row{Value::Int64(6), Value::Null(), Value::Int64(0)},
      testing_util::IntRow({6, 2, 2})};
  const ColumnStore store = testing_util::ToColumns(rows);
  const RowBatch batch = RowBatch::BorrowedColumns(&store, 0, rows.size());
  auto div_gt = [] {
    return MakeComparison(
        CompareOp::kGt,
        std::make_shared<ArithmeticExpr>(ArithOp::kDiv, Col(0), Col(2)),
        Int(1));
  };
  auto c3 = [](CompareOp op) { return MakeComparison(op, Col(2), Int(0)); };
  const std::vector<ExprPtr> safe = {
      // c3 = 0 rows are FALSE under AND / TRUE under OR before the
      // division runs.
      std::make_shared<AndExpr>(std::vector<ExprPtr>{c3(CompareOp::kNe),
                                                     div_gt()}),
      std::make_shared<OrExpr>(std::vector<ExprPtr>{c3(CompareOp::kEq),
                                                    div_gt()}),
      MakeNot(std::make_shared<AndExpr>(
          std::vector<ExprPtr>{c3(CompareOp::kNe), div_gt()})),
      std::make_shared<OrExpr>(std::vector<ExprPtr>{
          MakeComparison(CompareOp::kLt, Col(0), Int(0)),
          std::make_shared<AndExpr>(
              std::vector<ExprPtr>{c3(CompareOp::kNe), div_gt()})}),
  };
  for (const ExprPtr& pred : safe) {
    SCOPED_TRACE(pred->ToString());
    std::vector<uint32_t> t, f;
    const Status st = pred->PartitionBatch(batch, nullptr, &t, &f, &f);
    ASSERT_TRUE(st.ok()) << st.ToString();
    std::vector<Value> values;
    ASSERT_TRUE(pred->EvalBatch(batch, nullptr, &values).ok());
  }
  const std::vector<ExprPtr> raising = {
      // c3 = 0 rows stay undecided, so the division runs on them.
      std::make_shared<AndExpr>(std::vector<ExprPtr>{c3(CompareOp::kEq),
                                                     div_gt()}),
      std::make_shared<OrExpr>(std::vector<ExprPtr>{c3(CompareOp::kNe),
                                                    div_gt()}),
      MakeNot(std::make_shared<OrExpr>(
          std::vector<ExprPtr>{c3(CompareOp::kNe), div_gt()})),
  };
  for (const ExprPtr& pred : raising) {
    SCOPED_TRACE(pred->ToString());
    std::vector<uint32_t> t, f;
    const Status st = pred->PartitionBatch(batch, nullptr, &t, &f, &f);
    EXPECT_EQ(st.code(), StatusCode::kExecutionError) << st.ToString();
    std::vector<Value> values;
    EXPECT_EQ(pred->EvalBatch(batch, nullptr, &values).code(),
              StatusCode::kExecutionError);
  }
  // A NULL term leaves an AND row undecided: under c1 = 2, row 1 (c1
  // NULL, c3 = 0) reaches the division, row 0 (c1 = 1: FALSE) does not.
  const ExprPtr null_then_div = std::make_shared<AndExpr>(
      std::vector<ExprPtr>{MakeComparison(CompareOp::kEq, Col(1), Int(2)),
                           div_gt()});
  std::vector<uint32_t> t, f;
  EXPECT_TRUE(null_then_div
                  ->PartitionBatch(batch.ShareWithSelection({0, 2}), nullptr,
                                   &t, &f, &f)
                  .ok());
  t.clear();
  f.clear();
  EXPECT_EQ(null_then_div
                ->PartitionBatch(batch.ShareWithSelection({0, 1}), nullptr,
                                 &t, &f, &f)
                .code(),
            StatusCode::kExecutionError);
}

TEST(ColumnarParallelJunctionPartition, FourWorkersMatchBruteForceTruth) {
  // The kernels share no mutable state: four workers partition the same
  // predicates over the same columns at once.
  const ColumnStore typed = MakeStore(12, /*typed=*/true);
  const ColumnStore untyped = MakeStore(12, /*typed=*/false);
  WorkerPool pool(4);
  const Status st = pool.ParallelFor(8, [&](size_t task) -> Status {
    RunProperty(/*seed=*/200 + task % 2, /*rounds=*/10, typed, untyped);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

}  // namespace
}  // namespace bypass
