// Statistics subsystem tests: histograms, HyperLogLog, ANALYZE, the
// selectivity estimator (including disjunction clamps and NULL
// handling), cost-model integration, prepared-query re-planning on
// stale statistics, the data-driven Eqv. 2 / Eqv. 3 rank flip, and
// runtime cardinality feedback. All suites are named StatsSubsystem* so
// ctest can address them with `-L stats`.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "expr/expr.h"
#include "frontend/translator.h"
#include "planner/cost_model.h"
#include "rewrite/unnest.h"
#include "sql/parser.h"
#include "stats/analyzer.h"
#include "stats/feedback.h"
#include "stats/histogram.h"
#include "stats/hyperloglog.h"
#include "stats/plan_stats.h"
#include "stats/selectivity.h"
#include "test_util.h"
#include "workload/rst.h"

namespace bypass {
namespace {

using testing_util::IntRow;
using testing_util::IntSchema;
using testing_util::LoadSmallRst;
using testing_util::TableRows;

// --- Shared builders -----------------------------------------------------

ExprPtr Col(const std::string& qualifier, const std::string& name) {
  return std::make_shared<ColumnRefExpr>(qualifier, name, false);
}

ExprPtr Lit(int64_t v) { return std::make_shared<LiteralExpr>(Value::Int64(v)); }

ExprPtr Cmp(CompareOp op, ExprPtr left, ExprPtr right) {
  return std::make_shared<ComparisonExpr>(op, std::move(left),
                                          std::move(right));
}

/// The disjunctive linking query used by the rank-flip and replan tests:
/// one cheap simple disjunct plus one correlated scalar subquery.
const char* kDisjunctiveSql =
    "SELECT DISTINCT * FROM r "
    "WHERE a4 > 10 OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)";

/// r: 100 rows. Uniform: a4 uniform over 1..20 (50% > 10). Skewed: a4 is
/// 5 for 10 rows and 50 for 90 rows (90% > 10) — the cheap disjunct
/// becomes barely selective, which flips its Slagle rank past the
/// subquery disjunct's.
void FillRS(Database* db, bool skewed_a4) {
  auto r = db->CreateTable("r", RstTableSchema('a'));
  ASSERT_TRUE(r.ok());
  std::vector<Row> rrows;
  for (int i = 0; i < 100; ++i) {
    const int64_t a4 = skewed_a4 ? (i < 10 ? 5 : 50) : (i % 20) + 1;
    rrows.push_back(IntRow({i % 7, i % 5, i, a4}));
  }
  ASSERT_TRUE((*r)->AppendUnchecked(std::move(rrows)).ok());

  auto s = db->CreateTable("s", RstTableSchema('b'));
  ASSERT_TRUE(s.ok());
  std::vector<Row> srows;
  for (int i = 0; i < 2; ++i) srows.push_back(IntRow({i, i, i, i}));
  ASSERT_TRUE((*s)->AppendUnchecked(std::move(srows)).ok());
}

void RefillSkewed(Database* db) {
  Table* r = *db->catalog()->GetTable("r");
  r->Clear();
  std::vector<Row> rows;
  for (int i = 0; i < 100; ++i) {
    rows.push_back(IntRow({i % 7, i % 5, i, i < 10 ? 5 : 50}));
  }
  ASSERT_TRUE(r->AppendUnchecked(std::move(rows)).ok());
}

// --- Equi-depth histograms ----------------------------------------------

TEST(StatsSubsystemHistogram, BoundaryEstimatesAreExact) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  const EquiDepthHistogram h = EquiDepthHistogram::Build(values, 10);
  ASSERT_EQ(h.num_buckets(), 10u);
  EXPECT_EQ(h.total_count(), 100);
  EXPECT_DOUBLE_EQ(h.FractionLE(30), 0.30);
  EXPECT_DOUBLE_EQ(h.FractionLT(30), 0.29);
  EXPECT_DOUBLE_EQ(h.FractionEq(20), 0.01);
  EXPECT_DOUBLE_EQ(h.FractionLE(100), 1.0);
  EXPECT_DOUBLE_EQ(h.FractionLT(1), 0.0);
  EXPECT_DOUBLE_EQ(h.FractionEq(0), 0.0);
  EXPECT_DOUBLE_EQ(h.FractionEq(101), 0.0);
}

TEST(StatsSubsystemHistogram, InteriorPointsInterpolate) {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  const EquiDepthHistogram h = EquiDepthHistogram::Build(values, 10);
  // Bucket (30, 40]: 30 values strictly below it, 9 interior values
  // spread continuous-uniformly, the upper-bound run pinned at 40.
  EXPECT_NEAR(h.FractionLT(35), 0.345, 1e-9);
  EXPECT_NEAR(h.FractionLT(40), 0.39, 1e-9);
}

TEST(StatsSubsystemHistogram, HeavyDuplicateRunNeverStraddlesBuckets) {
  std::vector<double> values;
  for (int v = 1; v <= 4; ++v) values.push_back(v);
  for (int i = 0; i < 50; ++i) values.push_back(5);
  for (int v = 6; v <= 9; ++v) values.push_back(v);
  const EquiDepthHistogram h = EquiDepthHistogram::Build(values, 4);
  // The run of fifty 5s lands in exactly one bucket, so its frequency
  // estimate is exact despite being far above the nominal bucket depth.
  EXPECT_DOUBLE_EQ(h.FractionEq(5), 50.0 / 58.0);
  EXPECT_DOUBLE_EQ(h.FractionLT(5), 4.0 / 58.0);
  EXPECT_DOUBLE_EQ(h.FractionLE(5), 54.0 / 58.0);
  EXPECT_DOUBLE_EQ(h.FractionEq(1), 1.0 / 58.0);
}

TEST(StatsSubsystemHistogram, EmptyHistogramEstimatesZero) {
  const EquiDepthHistogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.FractionLE(5), 0.0);
  EXPECT_DOUBLE_EQ(h.FractionEq(5), 0.0);
}

// --- HyperLogLog ---------------------------------------------------------

TEST(StatsSubsystemHll, SmallCardinalityIsNearExact) {
  HyperLogLog hll;
  for (uint64_t i = 0; i < 100; ++i) hll.Add(i);
  EXPECT_GE(hll.Estimate(), 95);
  EXPECT_LE(hll.Estimate(), 105);
}

TEST(StatsSubsystemHll, DuplicatesDoNotInflateTheEstimate) {
  HyperLogLog hll;
  for (uint64_t i = 0; i < 10000; ++i) hll.Add(i % 10);
  EXPECT_GE(hll.Estimate(), 8);
  EXPECT_LE(hll.Estimate(), 12);
}

TEST(StatsSubsystemHll, TenThousandDistinctWithinFivePercent) {
  HyperLogLog hll;
  for (uint64_t i = 0; i < 10000; ++i) hll.Add(i);
  EXPECT_GE(hll.Estimate(), 9500);
  EXPECT_LE(hll.Estimate(), 10500);
}

TEST(StatsSubsystemHll, MergeMatchesTheUnion) {
  HyperLogLog a;
  HyperLogLog b;
  for (uint64_t i = 0; i < 5000; ++i) a.Add(i);
  for (uint64_t i = 2500; i < 7500; ++i) b.Add(i);
  a.Merge(b);
  EXPECT_GE(a.Estimate(), 7100);
  EXPECT_LE(a.Estimate(), 7900);
}

// --- ANALYZE -------------------------------------------------------------

TEST(StatsSubsystemAnalyzer, OnePassBuildsAllColumnSummaries) {
  Database db;
  auto table = db.CreateTable("u", IntSchema({"x"}));
  ASSERT_TRUE(table.ok());
  std::vector<Row> rows;
  for (int i = 1; i <= 100; ++i) rows.push_back(IntRow({i}));
  for (int i = 0; i < 25; ++i) {
    Row row;
    row.push_back(Value::Null());
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE((*table)->AppendUnchecked(std::move(rows)).ok());

  auto report = db.Analyze("u");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->table, "u");
  EXPECT_EQ(report->row_count, 125);
  EXPECT_NE(report->summary.find("125 rows"), std::string::npos);

  const auto stats = db.catalog()->GetTableStatistics("u");
  ASSERT_NE(stats, nullptr);
  ASSERT_EQ(stats->columns.size(), 1u);
  const ColumnStatistics& x = stats->columns[0];
  EXPECT_EQ(x.null_count, 25);
  EXPECT_DOUBLE_EQ(x.NullFraction(stats->row_count), 0.2);
  EXPECT_EQ(x.min.int64_value(), 1);
  EXPECT_EQ(x.max.int64_value(), 100);
  EXPECT_GE(x.distinct_count, 95);
  EXPECT_LE(x.distinct_count, 105);
  EXPECT_EQ(x.histogram.total_count(), 100);
}

TEST(StatsSubsystemAnalyzer, EmptyTableYieldsEmptyStatistics) {
  Database db;
  ASSERT_TRUE(db.CreateTable("e", IntSchema({"x", "y"})).ok());
  auto report = db.Analyze("e");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->row_count, 0);
  const auto stats = db.catalog()->GetTableStatistics("e");
  ASSERT_NE(stats, nullptr);
  ASSERT_EQ(stats->columns.size(), 2u);
  EXPECT_TRUE(stats->columns[0].min.is_null());
  EXPECT_EQ(stats->columns[0].distinct_count, 0);
  EXPECT_TRUE(stats->columns[0].histogram.empty());
  EXPECT_DOUBLE_EQ(stats->columns[0].NullFraction(0), 0.0);
}

TEST(StatsSubsystemAnalyzer, AllNullColumnHasNullBounds) {
  Database db;
  auto table = db.CreateTable("n", IntSchema({"x"}));
  ASSERT_TRUE(table.ok());
  std::vector<Row> rows;
  for (int i = 0; i < 10; ++i) {
    Row row;
    row.push_back(Value::Null());
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE((*table)->AppendUnchecked(std::move(rows)).ok());
  ASSERT_TRUE(db.Analyze("n").ok());
  const auto stats = db.catalog()->GetTableStatistics("n");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->columns[0].null_count, 10);
  EXPECT_TRUE(stats->columns[0].min.is_null());
  EXPECT_EQ(stats->columns[0].distinct_count, 0);
  EXPECT_TRUE(stats->columns[0].histogram.empty());
}

TEST(StatsSubsystemAnalyzer, AnalyzeAllCoversEveryTableAndBumpsTheEpoch) {
  Database db;
  LoadSmallRst(&db, 3, 20, 10, 5);
  const uint64_t before = db.catalog()->stats_epoch();
  auto reports = db.AnalyzeAll();
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports->size(), 3u);
  EXPECT_GT(db.catalog()->stats_epoch(), before);
  for (const char* name : {"r", "s", "t"}) {
    EXPECT_NE(db.catalog()->GetTableStatistics(name), nullptr) << name;
    EXPECT_GT(db.catalog()->TableStatsVersion(name), 0u) << name;
  }
}

// A double column holding NaN, NULL, -0.0 and duplicates: ANALYZE returns
// (a NaN once made the histogram's run scan loop forever), the NaNs are
// counted apart and the buckets hold every other non-NULL value.
TEST(StatsSubsystemAnalyzer, NaNBearingDoubleColumnAnalyzes) {
  Database db;
  Schema schema;
  schema.AddColumn({"d", DataType::kDouble, ""});
  auto table = db.CreateTable("f", schema);
  ASSERT_TRUE(table.ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Row> rows;
  for (double v : {nan, 1.5, -0.0, nan, 1.5, 0.0, 2.5, 1.5, nan, 1.5}) {
    rows.push_back(Row{Value::Double(v)});
  }
  rows.push_back(Row{Value::Null()});
  rows.push_back(Row{Value::Null()});
  ASSERT_TRUE((*table)->AppendUnchecked(std::move(rows)).ok());
  auto analyzed = std::async(std::launch::async,
                             [&db] { return db.AnalyzeAll().ok(); });
  if (analyzed.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "ANALYZE did not return on a NaN-bearing column";
    std::_Exit(1);  // the analysis thread can be neither joined nor stopped
  }
  ASSERT_TRUE(analyzed.get());
  const auto stats = db.catalog()->GetTableStatistics("f");
  ASSERT_NE(stats, nullptr);
  const ColumnStatistics& d = stats->columns[0];
  EXPECT_EQ(d.null_count, 2);
  EXPECT_EQ(d.histogram.nan_count(), 3);
  EXPECT_EQ(d.histogram.total_count(), 7);
  EXPECT_EQ(d.histogram.min_value(), 0.0);
  EXPECT_EQ(d.histogram.max_value(), 2.5);
  EXPECT_DOUBLE_EQ(d.histogram.FractionEq(0.0), 2.0 / 7);  // -0.0 = 0.0
  EXPECT_DOUBLE_EQ(d.histogram.FractionEq(1.5), 4.0 / 7);
  EXPECT_DOUBLE_EQ(d.histogram.FractionLE(2.5), 1.0);
}

// --- Selectivity estimation over analyzed data ---------------------------

class StatsSubsystemEstimator : public ::testing::Test {
 protected:
  void SetUp() override {
    // u.x: 1..10, ten rows each. u.y: NULL for half the rows, else a
    // distinct value in 51..100.
    auto table = db_.CreateTable("u", IntSchema({"x", "y"}));
    ASSERT_TRUE(table.ok());
    std::vector<Row> rows;
    for (int i = 1; i <= 100; ++i) {
      Row row;
      row.push_back(Value::Int64((i - 1) / 10 + 1));
      row.push_back(i <= 50 ? Value::Null() : Value::Int64(i));
      rows.push_back(std::move(row));
    }
    ASSERT_TRUE((*table)->AppendUnchecked(std::move(rows)).ok());
    ASSERT_TRUE(db_.Analyze("u").ok());
    provider_ = std::make_unique<PlanStatsProvider>(
        db_.catalog(), std::make_shared<GetOp>("u", "u", Schema()));
  }

  double Sel(const ExprPtr& pred) {
    return EstimateSelectivity(*pred, provider_.get());
  }

  Database db_;
  std::unique_ptr<PlanStatsProvider> provider_;
};

TEST_F(StatsSubsystemEstimator, EqualityIsExactOnHistogrammedData) {
  EXPECT_DOUBLE_EQ(Sel(Cmp(CompareOp::kEq, Col("u", "x"), Lit(5))), 0.1);
}

TEST_F(StatsSubsystemEstimator, RangeIsExactAtValueBoundaries) {
  EXPECT_DOUBLE_EQ(Sel(Cmp(CompareOp::kLe, Col("u", "x"), Lit(7))), 0.7);
  EXPECT_NEAR(Sel(Cmp(CompareOp::kGt, Col("u", "x"), Lit(7))), 0.3, 1e-9);
}

TEST_F(StatsSubsystemEstimator, FlippedOperandOrderMatchesToo) {
  // 7 >= x  ==  x <= 7.
  EXPECT_DOUBLE_EQ(Sel(Cmp(CompareOp::kGe, Lit(7), Col("u", "x"))), 0.7);
}

TEST_F(StatsSubsystemEstimator, NullHeavyColumnScalesByNonNullFraction) {
  // y = 60: half the rows are NULL, the rest hold 50 distinct values.
  EXPECT_DOUBLE_EQ(Sel(Cmp(CompareOp::kEq, Col("u", "y"), Lit(60))),
                   0.5 * (1.0 / 50.0));
}

TEST_F(StatsSubsystemEstimator, IsNullUsesTheMeasuredNullFraction) {
  EXPECT_DOUBLE_EQ(Sel(std::make_shared<IsNullExpr>(Col("u", "y"), false)),
                   0.5);
  EXPECT_DOUBLE_EQ(Sel(std::make_shared<IsNullExpr>(Col("u", "y"), true)),
                   0.5);
}

TEST_F(StatsSubsystemEstimator, EmptyAnalyzedTableEstimatesZero) {
  ASSERT_TRUE(db_.CreateTable("e", IntSchema({"x"})).ok());
  ASSERT_TRUE(db_.Analyze("e").ok());
  PlanStatsProvider provider(db_.catalog(),
                             std::make_shared<GetOp>("e", "e", Schema()));
  const ExprPtr pred = Cmp(CompareOp::kEq, Col("e", "x"), Lit(1));
  EXPECT_DOUBLE_EQ(EstimateSelectivity(*pred, &provider), 0.0);
}

TEST_F(StatsSubsystemEstimator, DisjunctionUsesInclusionExclusion) {
  const ExprPtr pred = MakeOr({Cmp(CompareOp::kEq, Col("u", "x"), Lit(5)),
                               Cmp(CompareOp::kLe, Col("u", "x"), Lit(7))});
  // Independence: 0.1 + 0.7 - 0.1*0.7, inside the clamp [0.7, 0.8].
  EXPECT_NEAR(Sel(pred), 0.73, 1e-9);
  const std::vector<double> per =
      EstimateDisjunctSelectivities(*pred, provider_.get());
  ASSERT_EQ(per.size(), 2u);
  EXPECT_DOUBLE_EQ(per[0], 0.1);
  EXPECT_DOUBLE_EQ(per[1], 0.7);
}

TEST_F(StatsSubsystemEstimator, DisjunctionStaysWithinTheClampBounds) {
  const ExprPtr pred = MakeOr({Cmp(CompareOp::kLe, Col("u", "x"), Lit(7)),
                               Cmp(CompareOp::kGt, Col("u", "x"), Lit(2))});
  const double sel = Sel(pred);  // disjunct sum is 1.5: must clamp to <= 1
  EXPECT_LE(sel, 1.0);
  EXPECT_GE(sel, 0.8);  // >= max(disjuncts)
}

TEST_F(StatsSubsystemEstimator, ConjunctionMultipliesUnderIndependence) {
  const ExprPtr pred = MakeAnd({Cmp(CompareOp::kLe, Col("u", "x"), Lit(7)),
                                Cmp(CompareOp::kEq, Col("u", "x"), Lit(5))});
  EXPECT_NEAR(Sel(pred), 0.07, 1e-9);
}

TEST_F(StatsSubsystemEstimator, UnanalyzedTableFallsBackToLazyStats) {
  auto table = db_.CreateTable("v", IntSchema({"x"}));
  ASSERT_TRUE(table.ok());
  std::vector<Row> rows;
  for (int i = 1; i <= 100; ++i) rows.push_back(IntRow({i}));
  ASSERT_TRUE((*table)->AppendUnchecked(std::move(rows)).ok());
  PlanStatsProvider provider(db_.catalog(),
                             std::make_shared<GetOp>("v", "v", Schema()));
  const ExprPtr eq = Cmp(CompareOp::kEq, Col("v", "x"), Lit(42));
  EXPECT_DOUBLE_EQ(EstimateSelectivity(*eq, &provider), 0.01);  // 1/NDV
  const ExprPtr le = Cmp(CompareOp::kLe, Col("v", "x"), Lit(50));
  const double sel = EstimateSelectivity(*le, &provider);
  EXPECT_GE(sel, 0.45);  // min/max interpolation, not the 1/3 textbook
  EXPECT_LE(sel, 0.55);
}

// --- Property test: estimates stay close to the truth --------------------

TEST(StatsSubsystemProperty, QErrorBoundedOnRandomDataAndPredicates) {
  const CompareOp kOps[] = {CompareOp::kEq, CompareOp::kLt, CompareOp::kLe,
                            CompareOp::kGt, CompareOp::kGe};
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed);
    Database db;
    auto table = db.CreateTable("u", IntSchema({"x", "y"}));
    ASSERT_TRUE(table.ok());
    std::vector<Row> rows;
    const int kRows = 400;
    for (int i = 0; i < kRows; ++i) {
      Row row;
      if (rng.Bernoulli(0.15)) {
        row.push_back(Value::Null());
      } else {
        row.push_back(Value::Int64(rng.UniformInt(0, 49)));
      }
      row.push_back(Value::Int64(rng.UniformInt(0, 19)));
      rows.push_back(std::move(row));
    }
    const Table* ut = *table;
    ASSERT_TRUE((*table)->AppendUnchecked(std::move(rows)).ok());
    const std::vector<Row> u_rows = TableRows(*ut);
    ASSERT_TRUE(db.Analyze("u").ok());
    PlanStatsProvider provider(db.catalog(),
                               std::make_shared<GetOp>("u", "u", Schema()));

    auto true_count = [&](int col, CompareOp op, int64_t lit) {
      int64_t n = 0;
      for (const Row& row : u_rows) {
        const Value& v = row[static_cast<size_t>(col)];
        if (v.is_null()) continue;
        const int64_t x = v.int64_value();
        const bool pass = op == CompareOp::kEq   ? x == lit
                          : op == CompareOp::kLt ? x < lit
                          : op == CompareOp::kLe ? x <= lit
                          : op == CompareOp::kGt ? x > lit
                                                 : x >= lit;
        if (pass) ++n;
      }
      return n;
    };
    auto draw_literal = [&](int col, CompareOp op) {
      if (op != CompareOp::kEq) return rng.UniformInt(-5, 55);
      // Equality literals come from the data so the truth is never a
      // degenerate zero-match.
      for (;;) {
        const Value& v =
            u_rows[static_cast<size_t>(rng.UniformInt(0, kRows - 1))]
                      [static_cast<size_t>(col)];
        if (!v.is_null()) return v.int64_value();
      }
    };
    const char* names[] = {"x", "y"};
    for (int trial = 0; trial < 30; ++trial) {
      const int col = static_cast<int>(rng.UniformInt(0, 1));
      const CompareOp op = kOps[rng.UniformInt(0, 4)];
      const int64_t lit = draw_literal(col, op);
      const ExprPtr pred = Cmp(op, Col("u", names[col]), Lit(lit));
      const double est = EstimateSelectivity(*pred, &provider) * kRows;
      const double actual = static_cast<double>(true_count(col, op, lit));
      EXPECT_LE(QError(est, actual), 3.0)
          << "seed " << seed << " col " << names[col] << " op "
          << CompareOpToString(op) << " lit " << lit << " est " << est
          << " actual " << actual;
    }
    // Disjunctions over independent columns: inclusion–exclusion holds.
    for (int trial = 0; trial < 10; ++trial) {
      const CompareOp op1 = kOps[rng.UniformInt(0, 4)];
      const CompareOp op2 = kOps[rng.UniformInt(0, 4)];
      const int64_t l1 = draw_literal(0, op1);
      const int64_t l2 = draw_literal(1, op2);
      const ExprPtr pred = MakeOr({Cmp(op1, Col("u", "x"), Lit(l1)),
                                   Cmp(op2, Col("u", "y"), Lit(l2))});
      const double est = EstimateSelectivity(*pred, &provider) * kRows;
      int64_t actual = 0;
      for (const Row& row : u_rows) {
        const Value& x = row[0];
        const Value& y = row[1];
        const bool p1 = !x.is_null() && [&] {
          const int64_t v = x.int64_value();
          return op1 == CompareOp::kEq   ? v == l1
                 : op1 == CompareOp::kLt ? v < l1
                 : op1 == CompareOp::kLe ? v <= l1
                 : op1 == CompareOp::kGt ? v > l1
                                         : v >= l1;
        }();
        const bool p2 = !y.is_null() && [&] {
          const int64_t v = y.int64_value();
          return op2 == CompareOp::kEq   ? v == l2
                 : op2 == CompareOp::kLt ? v < l2
                 : op2 == CompareOp::kLe ? v <= l2
                 : op2 == CompareOp::kGt ? v > l2
                                         : v >= l2;
        }();
        if (p1 || p2) ++actual;
      }
      EXPECT_LE(QError(est, static_cast<double>(actual)), 3.0)
          << "seed " << seed << " OR trial " << trial << " est " << est
          << " actual " << actual;
    }
  }
}

// --- Cost-model integration ----------------------------------------------

class StatsSubsystemCostModel : public ::testing::Test {
 protected:
  LogicalOpPtr Translate(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok());
    Translator translator(db_.catalog());
    auto plan = translator.Translate(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? *plan : nullptr;
  }

  Database db_;
};

TEST_F(StatsSubsystemCostModel, MissingStatsFallBackToActualRowsWithNote) {
  LoadSmallRst(&db_, 1, 50, 20, 10);
  const LogicalOpPtr plan = Translate("SELECT * FROM r");
  std::vector<std::string> notes;
  const PlanEstimate est = EstimatePlan(*plan, db_.catalog(), &notes);
  // No silent 1000-row default: the actual table cardinality is used and
  // the fallback is called out.
  EXPECT_DOUBLE_EQ(est.rows, 50);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].find("no stats"), std::string::npos);
  EXPECT_NE(notes[0].find("'r'"), std::string::npos);

  ASSERT_TRUE(db_.Analyze("r").ok());
  std::vector<std::string> after;
  const PlanEstimate est2 = EstimatePlan(*plan, db_.catalog(), &after);
  EXPECT_DOUBLE_EQ(est2.rows, 50);
  EXPECT_TRUE(after.empty());
}

TEST_F(StatsSubsystemCostModel, NoCatalogKeepsTheTextbookDefault) {
  LoadSmallRst(&db_, 1, 50, 20, 10);
  const LogicalOpPtr plan = Translate("SELECT * FROM r");
  std::vector<std::string> notes;
  const PlanEstimate est = EstimatePlan(*plan, nullptr, &notes);
  EXPECT_DOUBLE_EQ(est.rows, 1000);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].find("no catalog"), std::string::npos);
}

TEST_F(StatsSubsystemCostModel, AnalyzedRowCountWinsEvenWhenStale) {
  LoadSmallRst(&db_, 1, 50, 20, 10);
  ASSERT_TRUE(db_.Analyze("r").ok());
  Table* r = *db_.catalog()->GetTable("r");
  std::vector<Row> extra;
  for (int i = 0; i < 50; ++i) extra.push_back(IntRow({1, 2, 3, 4}));
  ASSERT_TRUE(r->AppendUnchecked(std::move(extra)).ok());

  const LogicalOpPtr plan = Translate("SELECT * FROM r");
  EXPECT_DOUBLE_EQ(EstimatePlan(*plan, db_.catalog()).rows, 50);
  ASSERT_TRUE(db_.Analyze("r").ok());
  EXPECT_DOUBLE_EQ(EstimatePlan(*plan, db_.catalog()).rows, 100);
}

TEST_F(StatsSubsystemCostModel, SelectivityReflectsAnalyzedDistribution) {
  FillRS(&db_, /*skewed_a4=*/true);
  ASSERT_TRUE(db_.AnalyzeAll().ok());
  // 90% of r passes a4 > 10: the estimate must land near 90 rows, far
  // from the textbook third.
  const LogicalOpPtr plan = Translate("SELECT * FROM r WHERE a4 > 10");
  const PlanEstimate est = EstimatePlan(*plan, db_.catalog());
  EXPECT_NEAR(est.rows, 90, 1.0);
}

// --- Prepared queries re-plan on stale statistics ------------------------

TEST(StatsSubsystemReplan, AnalyzeOfReferencedTableTriggersReplan) {
  Database db;
  FillRS(&db, /*skewed_a4=*/false);
  ASSERT_TRUE(db.CreateTable("t", RstTableSchema('c')).ok());
  ASSERT_TRUE(db.AnalyzeAll().ok());

  auto prepared = db.Prepare(kDisjunctiveSql, QueryOptions::With(ExecutionStrategy::kCostBased));
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_EQ(prepared->replan_count(), 0);
  ASSERT_TRUE(prepared->Execute().ok());
  EXPECT_EQ(prepared->replan_count(), 0);

  // ANALYZE of an unreferenced table bumps the epoch but must not force
  // a re-plan (the per-table versions are unchanged).
  ASSERT_TRUE(db.Analyze("t").ok());
  ASSERT_TRUE(prepared->Execute().ok());
  EXPECT_EQ(prepared->replan_count(), 0);

  ASSERT_TRUE(db.Analyze("r").ok());
  ASSERT_TRUE(prepared->Execute().ok());
  EXPECT_EQ(prepared->replan_count(), 1);

  // Unchanged statistics: the epoch fast path skips further re-plans.
  ASSERT_TRUE(prepared->Execute().ok());
  EXPECT_EQ(prepared->replan_count(), 1);
}

TEST(StatsSubsystemReplan, CostBasedPreparedQueryFlipsChoiceAfterAnalyze) {
  Database db;
  FillRS(&db, /*skewed_a4=*/false);
  ASSERT_TRUE(db.AnalyzeAll().ok());
  auto prepared = db.Prepare(kDisjunctiveSql, QueryOptions::With(ExecutionStrategy::kCostBased));
  ASSERT_TRUE(prepared.ok());
  // Uniform data: the rank heuristic and the cost model agree on the
  // Eqv. 2 shape, so no forced override is recorded.
  ASSERT_FALSE(prepared->applied_rules().empty());
  EXPECT_EQ(prepared->applied_rules()[0], "Eqv.2");
  EXPECT_EQ(prepared->applied_rules().back(), "Eqv.1");

  // The data turns skewed (90% pass the cheap disjunct) and ANALYZE
  // publishes that: the next Execute re-plans, and the cost model now
  // overrides the flipped rank choice with the cheaper forced shape.
  RefillSkewed(&db);
  ASSERT_TRUE(db.Analyze("r").ok());
  auto result = prepared->Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(prepared->replan_count(), 1);
  EXPECT_EQ(prepared->applied_rules().back(),
            "cost-based: picked forced simple-first");

  QueryOptions canonical;
  canonical.unnest = false;
  auto base = db.Query(kDisjunctiveSql, canonical);
  ASSERT_TRUE(base.ok());
  EXPECT_TRUE(RowMultisetsEqual(base->rows, result->rows));
}

TEST(StatsSubsystemReplan, UnnestedPreparedQueryFlipsEqv2ToEqv3) {
  Database db;
  FillRS(&db, /*skewed_a4=*/false);
  ASSERT_TRUE(db.AnalyzeAll().ok());
  auto prepared = db.Prepare(kDisjunctiveSql, QueryOptions::With(ExecutionStrategy::kUnnested));
  ASSERT_TRUE(prepared.ok());
  ASSERT_FALSE(prepared->applied_rules().empty());
  EXPECT_EQ(prepared->applied_rules()[0], "Eqv.2");

  RefillSkewed(&db);
  ASSERT_TRUE(db.Analyze("r").ok());
  auto result = prepared->Execute();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(prepared->replan_count(), 1);
  EXPECT_EQ(prepared->applied_rules()[0], "Eqv.3");
}

// --- The data-driven Eqv. 2 / Eqv. 3 rank flip ---------------------------

TEST(StatsSubsystemRankFlip, UniformDataRanksTheSimpleDisjunctFirst) {
  Database db;
  FillRS(&db, /*skewed_a4=*/false);
  ASSERT_TRUE(db.AnalyzeAll().ok());
  const QueryResult result =
      testing_util::ExpectCanonicalEqualsUnnested(&db, kDisjunctiveSql);
  ASSERT_FALSE(result.applied_rules.empty());
  EXPECT_EQ(result.applied_rules[0], "Eqv.2");
}

TEST(StatsSubsystemRankFlip, SkewedDataRanksTheSubqueryDisjunctFirst) {
  Database db;
  FillRS(&db, /*skewed_a4=*/true);
  ASSERT_TRUE(db.AnalyzeAll().ok());
  // The cheap disjunct passes 90% of r, so its Slagle rank
  // (sel - 1) / cost rises above the subquery disjunct's and the bypass
  // cascade evaluates the subquery disjunct first (Eqv. 3).
  const QueryResult result =
      testing_util::ExpectCanonicalEqualsUnnested(&db, kDisjunctiveSql);
  ASSERT_FALSE(result.applied_rules.empty());
  EXPECT_EQ(result.applied_rules[0], "Eqv.3");
}

// --- Cost-based choice among canonical / Eqv. 2 / Eqv. 3 -----------------

class StatsSubsystemCostBasedPick : public ::testing::Test {
 protected:
  LogicalOpPtr Translate(const std::string& sql) {
    auto stmt = ParseSelect(sql);
    EXPECT_TRUE(stmt.ok());
    Translator translator(db_.catalog());
    auto plan = translator.Translate(**stmt);
    EXPECT_TRUE(plan.ok()) << plan.status().ToString();
    return plan.ok() ? *plan : nullptr;
  }

  double RewrittenCost(DisjunctOrder order) {
    RewriteOptions options;
    options.catalog = db_.catalog();
    options.disjunct_order = order;
    UnnestingRewriter rewriter(options);
    auto rewritten = rewriter.Rewrite(Translate(kDisjunctiveSql));
    EXPECT_TRUE(rewritten.ok());
    return EstimatePlan(**rewritten, db_.catalog()).cost;
  }

  Database db_;
};

TEST_F(StatsSubsystemCostBasedPick, PicksTheCheapestCandidateOnSkewedData) {
  FillRS(&db_, /*skewed_a4=*/true);
  ASSERT_TRUE(db_.AnalyzeAll().ok());

  const double canonical =
      EstimatePlan(*Translate(kDisjunctiveSql), db_.catalog()).cost;
  const double by_rank = RewrittenCost(DisjunctOrder::kByRank);
  const double simple = RewrittenCost(DisjunctOrder::kSimpleFirst);
  const double subquery = RewrittenCost(DisjunctOrder::kSubqueryFirst);
  const double cheapest =
      std::min(std::min(canonical, by_rank), std::min(simple, subquery));

  auto result = db_.Query(kDisjunctiveSql, QueryOptions::With(ExecutionStrategy::kCostBased));
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->applied_rules.empty());
  const std::string& last = result->applied_rules.back();
  const double chosen =
      last == "cost-based: kept canonical"                ? canonical
      : last == "cost-based: picked forced simple-first"  ? simple
      : last == "cost-based: picked forced subquery-first" ? subquery
                                                           : by_rank;
  EXPECT_LE(chosen, cheapest + 1e-6)
      << "cost-based pick '" << last << "' is not the cheapest candidate";
  // On this data the forced simple-first shape beats the rank heuristic
  // (90% of rows bypass the join entirely), and the gate must say so.
  EXPECT_LT(simple, by_rank);
  EXPECT_EQ(last, "cost-based: picked forced simple-first");
}

TEST_F(StatsSubsystemCostBasedPick, AllStrategiesAgreeOnTheResult) {
  FillRS(&db_, /*skewed_a4=*/true);
  ASSERT_TRUE(db_.AnalyzeAll().ok());
  QueryOptions canonical;
  canonical.unnest = false;
  auto base = db_.Query(kDisjunctiveSql, canonical);
  ASSERT_TRUE(base.ok());

  for (DisjunctOrder order :
       {DisjunctOrder::kByRank, DisjunctOrder::kSimpleFirst,
        DisjunctOrder::kSubqueryFirst}) {
    QueryOptions options = QueryOptions::With(ExecutionStrategy::kUnnested);
    options.rewrite.disjunct_order = order;
    auto result = db_.Query(kDisjunctiveSql, options);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(RowMultisetsEqual(base->rows, result->rows))
        << "order " << static_cast<int>(order);
  }
  auto cost_based = db_.Query(kDisjunctiveSql, QueryOptions::With(ExecutionStrategy::kCostBased));
  ASSERT_TRUE(cost_based.ok());
  EXPECT_TRUE(RowMultisetsEqual(base->rows, cost_based->rows));
}

// --- Runtime cardinality feedback ----------------------------------------

TEST(StatsSubsystemFeedback, QErrorIsSymmetricAndSmoothed) {
  EXPECT_DOUBLE_EQ(QError(10, 10), 1.0);
  EXPECT_DOUBLE_EQ(QError(0, 0), 1.0);  // +1 smoothing avoids 0/0
  EXPECT_DOUBLE_EQ(QError(9, 99), 10.0);
  EXPECT_DOUBLE_EQ(QError(99, 9), 10.0);
}

TEST(StatsSubsystemFeedback, OperatorReportCarriesEstimatesAndQError) {
  Database db;
  LoadSmallRst(&db, 1, 50, 20, 10);
  ASSERT_TRUE(db.AnalyzeAll().ok());
  auto result = db.Query("SELECT * FROM r WHERE a1 = 3");
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->operator_stats.find("est "), std::string::npos);
  EXPECT_NE(result->operator_stats.find("q-error"), std::string::npos);
  ASSERT_FALSE(result->operator_feedback.empty());
  // The r scan has a fresh estimate: exactly the analyzed row count.
  bool found_exact_scan = false;
  for (const OperatorFeedback& f : result->operator_feedback) {
    if (f.estimated == 50 && f.actual == 50) {
      found_exact_scan = true;
      EXPECT_DOUBLE_EQ(f.q_error, 1.0);
    }
  }
  EXPECT_TRUE(found_exact_scan);
}

TEST(StatsSubsystemFeedback, RefreshStatsWritesActualCardinalityBack) {
  Database db;
  LoadSmallRst(&db, 1, 50, 20, 10);
  ASSERT_TRUE(db.Analyze("r").ok());
  Table* r = *db.catalog()->GetTable("r");
  std::vector<Row> extra;
  for (int i = 0; i < 50; ++i) extra.push_back(IntRow({1, 2, 3, 4}));
  ASSERT_TRUE(r->AppendUnchecked(std::move(extra)).ok());

  // Without opting in, the stale ANALYZE count stays.
  ASSERT_TRUE(db.Query("SELECT * FROM r").ok());
  EXPECT_EQ(db.catalog()->GetTableStatistics("r")->row_count, 50);

  auto prepared = db.Prepare("SELECT * FROM r");
  ASSERT_TRUE(prepared.ok());

  QueryOptions refresh;
  refresh.refresh_stats = true;
  ASSERT_TRUE(db.Query("SELECT * FROM r", refresh).ok());
  EXPECT_EQ(db.catalog()->GetTableStatistics("r")->row_count, 100);

  // The write-back bumps the epoch: prepared queries over r re-plan.
  ASSERT_TRUE(prepared->Execute().ok());
  EXPECT_EQ(prepared->replan_count(), 1);
}

// --- Concurrency (runs under the TSan sweep via the stats label) ---------

TEST(StatsSubsystemParallel, AnalyzeRacesQueriesSafely) {
  Database db;
  LoadSmallRst(&db, 7, 60, 25, 10, 0.1);
  ASSERT_TRUE(db.AnalyzeAll().ok());
  auto prepared = db.Prepare(
      "SELECT DISTINCT * FROM r "
      "WHERE a4 > 3 OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
      QueryOptions::With(ExecutionStrategy::kCostBased));
  ASSERT_TRUE(prepared.ok());

  std::vector<std::thread> threads;
  for (const char* name : {"r", "s"}) {
    threads.emplace_back([&db, name] {
      for (int i = 0; i < 15; ++i) {
        EXPECT_TRUE(db.Analyze(name).ok());
      }
    });
  }
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&db] {
      for (int i = 0; i < 8; ++i) {
        auto result = db.Query(
            "SELECT DISTINCT * FROM r "
            "WHERE a4 > 3 OR a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2)",
            QueryOptions::With(ExecutionStrategy::kCostBased));
        EXPECT_TRUE(result.ok()) << result.status().ToString();
      }
    });
  }
  threads.emplace_back([&prepared] {
    for (int i = 0; i < 8; ++i) {
      auto result = prepared->Execute();
      EXPECT_TRUE(result.ok()) << result.status().ToString();
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(db.Query("SELECT * FROM r").ok());
}

TEST(StatsSubsystemParallel, LazyTableStatsInitializeOnceUnderContention) {
  Database db;
  auto table = db.CreateTable("u", IntSchema({"x"}));
  ASSERT_TRUE(table.ok());
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) rows.push_back(IntRow({i % 123}));
  ASSERT_TRUE((*table)->AppendUnchecked(std::move(rows)).ok());
  const Table* ut = *table;

  std::vector<std::thread> threads;
  std::vector<int64_t> seen(8, -1);
  for (int w = 0; w < 8; ++w) {
    threads.emplace_back([ut, w, &seen] {
      seen[static_cast<size_t>(w)] = ut->stats()[0].distinct_count;
    });
  }
  for (std::thread& t : threads) t.join();
  for (int64_t ndv : seen) EXPECT_EQ(ndv, 123);
}

}  // namespace
}  // namespace bypass
