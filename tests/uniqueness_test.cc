// Uniqueness as a plan property (planner/uniqueness.h): the table-side
// proof against DISTINCT's own equality, the pass's rules on hand-built
// plans, the EXPLAIN verdict of every δ in the Fig. 7 RST texts, and the
// run-time gate's answer to appends after planning (a PreparedQuery and
// a plan-cache hit). The 4-thread UniquenessParallel* tests carry the
// parallel-uniqueness label, so the -L parallel (TSan) sweep runs them.
#include <algorithm>
#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/logical_op.h"
#include "engine/database.h"
#include "engine/server.h"
#include "engine/session.h"
#include "planner/uniqueness.h"
#include "test_util.h"
#include "workload/rst.h"

namespace bypass {
namespace {

using testing_util::IntRow;
using testing_util::IntSchema;
using testing_util::LoadSmallRst;
using testing_util::TableRows;

Table* MakeTable(Database* db, const std::string& name, Schema schema,
                 const std::vector<Row>& rows) {
  auto table = db->CreateTable(name, std::move(schema));
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  for (const Row& row : rows) {
    EXPECT_TRUE((*table)->Append(row).ok());
  }
  return *table;
}

Schema DoubleSchema(const std::vector<std::string>& names) {
  Schema schema;
  for (const std::string& n : names) {
    schema.AddColumn({n, DataType::kDouble, ""});
  }
  return schema;
}

// ------------------------------------------------------ the table proof

TEST(UniquenessTable, SignedZerosAreOneValue) {
  Database db;
  Table* t = MakeTable(&db, "z", DoubleSchema({"x", "y"}),
                       {{Value::Double(0.0), Value::Double(1.0)},
                        {Value::Double(-0.0), Value::Double(1.0)}});
  EXPECT_FALSE(t->duplicate_free());
}

TEST(UniquenessTable, NaNsAreOneValue) {
  Database db;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Table* t = MakeTable(&db, "n", DoubleSchema({"x"}),
                       {{Value::Double(nan)}, {Value::Double(-nan)}});
  EXPECT_FALSE(t->duplicate_free());
}

TEST(UniquenessTable, NullsAreOneValue) {
  Database db;
  Table* t = MakeTable(&db, "n", IntSchema({"x", "y"}),
                       {{Value::Null(), Value::Int64(3)},
                        {Value::Null(), Value::Int64(3)}});
  EXPECT_FALSE(t->duplicate_free());
}

TEST(UniquenessTable, Int64AndIntegralDoubleAreOneValueInAnUntypedColumn) {
  Database db;
  Table* t = MakeTable(&db, "m", DoubleSchema({"x", "y"}),
                       {{Value::Double(5.0), Value::Int64(1)},
                        {Value::Int64(5), Value::Double(1.0)}});
  // Both columns hold int64 and double data, so neither is typed.
  ASSERT_FALSE(t->columns().columns[0].typed());
  ASSERT_FALSE(t->columns().columns[1].typed());
  EXPECT_FALSE(t->duplicate_free());
}

TEST(UniquenessTable, NullsInDifferentColumnsStayDistinct) {
  Database db;
  Table* t = MakeTable(&db, "d", IntSchema({"x", "y"}),
                       {{Value::Null(), Value::Int64(1)},
                        {Value::Int64(1), Value::Null()},
                        {Value::Null(), Value::Null()},
                        {Value::Int64(1), Value::Int64(1)}});
  EXPECT_TRUE(t->duplicate_free());
}

TEST(UniquenessTable, FindsARepeatInALaterBatch) {
  // The proof inserts 4096 rows at a time; the repeat of row 3 sits in
  // the second batch.
  Database db;
  std::vector<Row> rows;
  for (int64_t i = 0; i < 6000; ++i) rows.push_back(IntRow({i, i % 7}));
  Table* t = MakeTable(&db, "big", IntSchema({"x", "y"}), rows);
  EXPECT_TRUE(t->duplicate_free());
  ASSERT_TRUE(t->Append(IntRow({3, 3})).ok());
  EXPECT_FALSE(t->duplicate_free());
}

TEST(UniquenessTable, ModificationsForgetTheProofAndAnalyzeDoesNot) {
  Database db;
  Table* t = MakeTable(&db, "r", IntSchema({"x"}),
                       {IntRow({1}), IntRow({2})});
  EXPECT_TRUE(t->duplicate_free());
  ASSERT_TRUE(t->AppendUnchecked({IntRow({2})}).ok());
  EXPECT_FALSE(t->duplicate_free());
  ASSERT_TRUE(db.Analyze("r").ok());
  EXPECT_FALSE(t->duplicate_free());
  t->Clear();
  EXPECT_TRUE(t->duplicate_free());
  ASSERT_TRUE(t->Append(IntRow({4})).ok());
  ASSERT_TRUE(t->Append(IntRow({4})).ok());
  EXPECT_FALSE(t->duplicate_free());
}

// ------------------------------------------- the rules, on built plans

/// Hand-built logical plans over duplicate-free r(a1..a4), s(b1..b4),
/// for shapes the rewriter does not emit.
class UniquenessRules : public ::testing::Test {
 protected:
  void SetUp() override {
    LoadSmallRst(&db_, 3, 30, 30, 5, /*null_fraction=*/0.2,
                 /*max_value=*/6, "", false, /*duplicate_free=*/true);
  }

  LogicalOpPtr Get(const std::string& name) {
    Schema qualified;
    for (const ColumnDef& c :
         (*db_.catalog()->GetTable(name))->schema().columns()) {
      qualified.AddColumn({c.name, c.type, name});
    }
    return std::make_shared<GetOp>(name, name, qualified);
  }

  static LogicalInput Out(LogicalOpPtr op,
                          StreamPort port = StreamPort::kOut) {
    return LogicalInput{std::move(op), port};
  }

  static ExprPtr Eq(const std::string& q1, const std::string& c1,
                    const std::string& q2, const std::string& c2) {
    return MakeComparison(CompareOp::kEq, MakeColumnRef(q1, c1),
                          MakeColumnRef(q2, c2));
  }

  /// σ±(a4 > 3) over r.
  LogicalOpPtr Split() {
    return std::make_shared<BypassSelectOp>(
        Out(Get("r")),
        MakeComparison(CompareOp::kGt, MakeColumnRef("r", "a4"),
                       MakeLiteral(Value::Int64(3))));
  }

  /// Π of `in`'s r columns in the order `names`.
  static LogicalOpPtr Keep(LogicalInput in,
                           const std::vector<std::string>& names) {
    std::vector<NamedExpr> items;
    for (const std::string& n : names) {
      items.push_back(NamedExpr{MakeColumnRef("r", n), n, "r"});
    }
    return std::make_shared<ProjectOp>(std::move(in), std::move(items));
  }

  /// The verdict on the δ over `plan`.
  DistinctGate Verdict(const LogicalOpPtr& plan) {
    auto root = std::make_shared<DistinctOp>(Out(plan));
    auto gates = ProveDistinctInputs(*root, *db_.catalog());
    EXPECT_EQ(gates.size(), 1u);
    return gates.at(root.get());
  }

  Database db_;
};

TEST_F(UniquenessRules, OppositeStreamsOfOneSplitAreDisjoint) {
  LogicalOpPtr split = Split();
  const DistinctGate gate = Verdict(std::make_shared<UnionOp>(
      Out(split), Out(split, StreamPort::kNegative)));
  EXPECT_TRUE(gate.proven);
  EXPECT_EQ(gate.text, "⊎ of σ± #1 ±");
  ASSERT_EQ(gate.tables.size(), 1u);
  EXPECT_EQ(gate.tables[0]->name(), "r");
}

TEST_F(UniquenessRules, OneStreamTwiceIsNotDisjoint) {
  LogicalOpPtr split = Split();
  const DistinctGate gate =
      Verdict(std::make_shared<UnionOp>(Out(split), Out(split)));
  EXPECT_FALSE(gate.proven);
  EXPECT_EQ(gate.text, "⊎ branches not provably disjoint");
}

TEST_F(UniquenessRules, KeyColumnsMustLineUpAcrossBranches) {
  // The branches hold the split's key, but a1 and a2 trade places in
  // one of them: (1, 2, …) on one side and (2, 1, …) on the other can
  // be one output row.
  LogicalOpPtr split = Split();
  const DistinctGate swapped = Verdict(std::make_shared<UnionOp>(
      Out(Keep(Out(split), {"a1", "a2", "a3", "a4"})),
      Out(Keep(Out(split, StreamPort::kNegative),
               {"a2", "a1", "a3", "a4"}))));
  EXPECT_FALSE(swapped.proven);
  const DistinctGate aligned = Verdict(std::make_shared<UnionOp>(
      Out(Keep(Out(split), {"a2", "a1", "a3", "a4"})),
      Out(Keep(Out(split, StreamPort::kNegative),
               {"a2", "a1", "a3", "a4"}))));
  EXPECT_TRUE(aligned.proven);
}

TEST_F(UniquenessRules, ProjectionMustKeepTheKey) {
  EXPECT_TRUE(Verdict(Keep(Out(Get("r")), {"a4", "a3", "a2", "a1"})).proven);
  const DistinctGate dropped = Verdict(Keep(Out(Get("r")), {"a1", "a2"}));
  EXPECT_FALSE(dropped.proven);
  EXPECT_EQ(dropped.text, "Π drops a key column");
}

TEST_F(UniquenessRules, JoinKeepsTheLeftKeyOnlyWhenTheRightIsKeyedOnIt) {
  // r ⋈ s on a2 = b2: s is not keyed on b2, so an r row may meet two s
  // rows and Π r.* repeats it.
  const auto join = std::make_shared<JoinOp>(Out(Get("r")), Out(Get("s")),
                                             Eq("r", "a2", "s", "b2"));
  EXPECT_TRUE(Verdict(join).proven);  // keyed on r.* and s.*
  EXPECT_FALSE(Verdict(Keep(Out(join), {"a1", "a2", "a3", "a4"})).proven);
  // ⟕ against Γ[b2]: at most one group per r row.
  const auto groups = std::make_shared<GroupByOp>(
      Out(Get("s")), std::vector<GroupKey>{{"s", "b2", ""}},
      std::vector<AggregateSpec>{}, /*scalar=*/false);
  const auto outer = std::make_shared<LeftOuterJoinOp>(
      Out(Get("r")), Out(groups), Eq("r", "a2", "s", "b2"),
      std::vector<std::pair<std::string, Value>>{});
  const DistinctGate gate =
      Verdict(Keep(Out(outer), {"a1", "a2", "a3", "a4"}));
  EXPECT_TRUE(gate.proven);
  ASSERT_EQ(gate.tables.size(), 1u);
  EXPECT_EQ(gate.tables[0]->name(), "r");
}

TEST_F(UniquenessRules, SemiAndAntiJoinSplitOnlyOneRightStream) {
  const ExprPtr p = Eq("r", "a2", "s", "b2");
  LogicalOpPtr r = Get("r");
  LogicalOpPtr s = Get("s");
  const DistinctGate same = Verdict(std::make_shared<UnionOp>(
      Out(std::make_shared<SemiJoinOp>(Out(r), Out(s), p)),
      Out(std::make_shared<AntiJoinOp>(Out(r), Out(s), p))));
  EXPECT_TRUE(same.proven);
  EXPECT_EQ(same.text, "⊎ of ⋉/▷ (r.a2 = s.b2) ±");
  // Against another copy of s (a σ over it) the two are not complements.
  const auto other = std::make_shared<SelectOp>(
      Out(s), MakeComparison(CompareOp::kGt, MakeColumnRef("s", "b4"),
                             MakeLiteral(Value::Int64(2))));
  EXPECT_FALSE(Verdict(std::make_shared<UnionOp>(
                           Out(std::make_shared<SemiJoinOp>(Out(r), Out(s),
                                                            p)),
                           Out(std::make_shared<AntiJoinOp>(Out(r),
                                                            Out(other), p))))
                   .proven);
}

// --------------------------------------------------- the plan's verdict

/// The physical plan's δ lines, sorted.
std::vector<std::string> DistinctLines(const std::string& plan) {
  std::vector<std::string> lines;
  size_t pos = 0;
  while ((pos = plan.find("Distinct", pos)) != std::string::npos) {
    const size_t end = plan.find('\n', pos);
    lines.push_back(plan.substr(pos, end - pos));
    pos = end;
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

struct Fig7Text {
  const char* name;
  const char* sql;
  std::vector<std::string> distincts;  // sorted, on duplicate-free data
};

const char kUnion[] = "Distinct [skipped: r duplicate-free; ⊎ of σ± #1 ±]";
const char kOverR[] = "Distinct [skipped: r duplicate-free]";
const char kOverS[] = "Distinct [skipped: s duplicate-free]";
const char kOverT[] = "Distinct [skipped: t duplicate-free]";

/// The seven RST texts of perfbench fig7 and their δ verdicts: every top
/// δ and every δ under a COUNT(DISTINCT *) Γ over a base table is
/// skipped; the δ over Eqv. 5's ⊎ of complementary joins is kept.
std::vector<Fig7Text> Fig7Texts() {
  return {
      {"q1",
       "SELECT DISTINCT * FROM r "
       "WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) "
       "OR a4 > 1500",
       {kUnion, kOverS}},
      {"q2corr",
       "SELECT DISTINCT * FROM r "
       "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 1500)",
       {kOverR}},
      {"q3tree",
       "SELECT DISTINCT * FROM r "
       "WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) "
       "OR a3 = (SELECT COUNT(DISTINCT *) FROM t WHERE a4 = c2)",
       {kUnion, kOverS, kOverT}},
      {"q4linear",
       "SELECT DISTINCT * FROM r "
       "WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2 "
       "OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b4 = c2))",
       {"Distinct [kept: ⊎ branches not provably disjoint]", kOverR,
        kOverT}},
      {"exists",
       "SELECT DISTINCT * FROM r "
       "WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > 8000) "
       "OR a4 > 1500",
       {kUnion}},
      {"notexists",
       "SELECT DISTINCT * FROM r "
       "WHERE NOT EXISTS (SELECT * FROM s WHERE a2 = b2) OR a4 > 9000",
       {kUnion}},
      {"in",
       "SELECT DISTINCT * FROM r "
       "WHERE a1 IN (SELECT b1 FROM s WHERE a2 = b2) OR a4 > 9000",
       {kUnion}},
  };
}

TEST(UniquenessPlan, Fig7TextsSkipEveryProvableDistinct) {
  Database db;
  RstOptions rst;
  rst.rows_per_sf = 300;
  ASSERT_TRUE(LoadRst(&db, 1, 1, 1, rst).ok());
  for (const Fig7Text& text : Fig7Texts()) {
    SCOPED_TRACE(text.name);
    auto explain = db.Explain(text.sql);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    const std::string physical =
        explain->substr(explain->find("physical plan"));
    EXPECT_EQ(DistinctLines(physical), text.distincts) << physical;
    testing_util::ExpectCanonicalEqualsUnnested(&db, text.sql);
  }
}

TEST(UniquenessPlan, DuplicateRowsKeepEveryDistinct) {
  Database db;
  RstOptions rst;
  rst.rows_per_sf = 300;
  ASSERT_TRUE(LoadRst(&db, 1, 1, 1, rst).ok());
  for (const char* name : {"r", "s", "t"}) {
    Table* t = *db.catalog()->GetTable(name);
    ASSERT_TRUE(t->Append(TableRows(*t)[0]).ok());
  }
  for (const Fig7Text& text : Fig7Texts()) {
    SCOPED_TRACE(text.name);
    auto explain = db.Explain(text.sql);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    for (const std::string& line : DistinctLines(*explain)) {
      EXPECT_EQ(line.find("skipped"), std::string::npos) << line;
    }
    EXPECT_NE(explain->find("Distinct [kept: r holds duplicate rows]"),
              std::string::npos)
        << *explain;
    testing_util::ExpectCanonicalEqualsUnnested(&db, text.sql);
  }
}

// ------------------------------------------------ appends after planning

/// The canonical evaluator's answer (its δ over Get(r) is gated too, but
/// proved without any ⊎ or join step).
std::vector<Row> Canonical(Database* db, const std::string& sql) {
  QueryOptions canonical;
  canonical.unnest = false;
  auto result = db->Query(sql, canonical);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->rows : std::vector<Row>{};
}

TEST(UniquenessPlan, AppendAfterPrepareStillDeduplicates) {
  Database db;
  LoadSmallRst(&db, 7, 40, 40, 20, /*null_fraction=*/0.2,
               /*max_value=*/6, "", false, /*duplicate_free=*/true);
  const std::string sql =
      "SELECT DISTINCT * FROM r "
      "WHERE EXISTS (SELECT * FROM s WHERE a2 = b2) OR a4 > 3";
  auto prepared = db.Prepare(sql);
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  EXPECT_NE(prepared->physical_plan().find(kUnion), std::string::npos)
      << prepared->physical_plan();
  ServerOptions server_options;
  server_options.plan_cache_entries = 8;
  Server server(&db, server_options);
  auto session = server.Connect();

  auto first = prepared->Execute();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_FALSE(first->rows.empty());
  EXPECT_TRUE(RowMultisetsEqual(first->rows, Canonical(&db, sql)));
  auto miss = session->Query(sql);
  ASSERT_TRUE(miss.ok()) << miss.status().ToString();
  EXPECT_TRUE(RowMultisetsEqual(miss->rows, first->rows));

  // A copy of a row the query returns: a δ that stayed skipped would
  // return it twice.
  Table* r = *db.catalog()->GetTable("r");
  const std::vector<Row> original = TableRows(*r);
  ASSERT_TRUE(r->Append(first->rows[0]).ok());
  const std::vector<Row> canonical = Canonical(&db, sql);
  EXPECT_EQ(canonical.size(), first->rows.size());
  auto again = prepared->Execute();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(RowMultisetsEqual(again->rows, canonical));
  EXPECT_NE(again->physical_plan.find(
                "Distinct [kept: r holds duplicate rows]"),
            std::string::npos)
      << again->physical_plan;
  const uint64_t hits = server.stats().plan_cache.hits;
  auto hit = session->Query(sql);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_EQ(server.stats().plan_cache.hits, hits + 1);
  EXPECT_TRUE(RowMultisetsEqual(hit->rows, canonical));

  // Clear and reload: duplicate-free again, and skipped again.
  r->Clear();
  ASSERT_TRUE(r->AppendUnchecked(original).ok());
  auto reloaded = prepared->Execute();
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(RowMultisetsEqual(reloaded->rows, first->rows));
  EXPECT_NE(reloaded->physical_plan.find(kUnion), std::string::npos)
      << reloaded->physical_plan;
  auto hit_again = session->Query(sql);
  ASSERT_TRUE(hit_again.ok()) << hit_again.status().ToString();
  EXPECT_TRUE(RowMultisetsEqual(hit_again->rows, first->rows));
  // ... and after a second reload that repeats a row, deduplicated.
  r->Clear();
  std::vector<Row> repeated = original;
  repeated.push_back(first->rows[0]);
  ASSERT_TRUE(r->AppendUnchecked(repeated).ok());
  auto last = prepared->Execute();
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_TRUE(RowMultisetsEqual(last->rows, Canonical(&db, sql)));
  EXPECT_EQ(last->rows.size(), first->rows.size());
}

// ------------------------------------------------------------ 4 threads

TEST(UniquenessParallel, FourThreadsShareOneProof) {
  Database db;
  std::vector<Row> rows;
  for (int64_t i = 0; i < 20000; ++i) rows.push_back(IntRow({i, i % 13}));
  auto created = db.CreateTable("p", IntSchema({"x", "y"}));
  ASSERT_TRUE(created.ok());
  Table* t = *created;
  ASSERT_TRUE(t->AppendUnchecked(rows).ok());
  for (const bool expected : {true, false}) {
    std::atomic<int> ready{0};
    std::vector<int> answers(4, -1);
    std::vector<std::thread> threads;
    for (int k = 0; k < 4; ++k) {
      threads.emplace_back([&, k] {
        ready.fetch_add(1);
        while (ready.load() < 4) {
        }
        answers[static_cast<size_t>(k)] = t->duplicate_free() ? 1 : 0;
      });
    }
    for (std::thread& th : threads) th.join();
    for (int a : answers) EXPECT_EQ(a, expected ? 1 : 0);
    ASSERT_TRUE(t->Append(IntRow({17, 17 % 13})).ok());
  }
}

TEST(UniquenessParallel, SkippedDistinctMatchesSerialAtFourThreads) {
  Database db;
  RstOptions rst;
  rst.rows_per_sf = 3000;
  ASSERT_TRUE(LoadRst(&db, 1, 1, 1, rst).ok());
  for (const Fig7Text& text : Fig7Texts()) {
    SCOPED_TRACE(text.name);
    auto serial = db.Query(text.sql);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    QueryOptions threaded;
    threaded.num_threads = 4;
    threaded.morsel_size = 256;
    auto parallel = db.Query(text.sql, threaded);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    EXPECT_TRUE(testing_util::SkipsDistinct(*parallel));
    EXPECT_TRUE(RowMultisetsEqual(parallel->rows, serial->rows));
  }
}

}  // namespace
}  // namespace bypass
