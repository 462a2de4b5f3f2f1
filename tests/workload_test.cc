// Generator tests: cardinalities, domains, determinism, and the spec's
// structural invariants (partsupp keys, nation/region mapping).
#include <gtest/gtest.h>

#include <set>

#include "test_util.h"
#include "workload/rst.h"
#include "workload/tpch.h"

namespace bypass {
namespace {

using testing_util::TableRows;

TEST(RstGeneratorTest, CardinalitiesFollowScaleFactors) {
  Database db;
  RstOptions opts;
  opts.rows_per_sf = 100;
  ASSERT_TRUE(LoadRst(&db, 1, 5, 10, opts).ok());
  EXPECT_EQ((*db.catalog()->GetTable("r"))->num_rows(), 100);
  EXPECT_EQ((*db.catalog()->GetTable("s"))->num_rows(), 500);
  EXPECT_EQ((*db.catalog()->GetTable("t"))->num_rows(), 1000);
}

TEST(RstGeneratorTest, SchemaHasFourIntColumns) {
  Schema schema = RstTableSchema('b');
  ASSERT_EQ(schema.num_columns(), 4);
  EXPECT_EQ(schema.column(0).name, "b1");
  EXPECT_EQ(schema.column(3).name, "b4");
  for (const ColumnDef& c : schema.columns()) {
    EXPECT_EQ(c.type, DataType::kInt64);
  }
}

TEST(RstGeneratorTest, DomainsMatchDocumentedRanges) {
  Database db;
  RstOptions opts;
  opts.rows_per_sf = 2000;
  opts.group_domain = 50;
  opts.filter_domain = 100;
  ASSERT_TRUE(LoadRst(&db, 1, 1, 1, opts).ok());
  const Table* s = *db.catalog()->GetTable("s");
  for (const Row& row : TableRows(*s)) {
    EXPECT_GE(row[1].int64_value(), 0);
    EXPECT_LT(row[1].int64_value(), 50);   // *2 ∈ [0, group_domain)
    EXPECT_GE(row[3].int64_value(), 0);
    EXPECT_LT(row[3].int64_value(), 100);  // *4 ∈ [0, filter_domain)
  }
}

TEST(RstGeneratorTest, DeterministicAcrossRuns) {
  Database a, b;
  RstOptions opts;
  opts.rows_per_sf = 50;
  ASSERT_TRUE(LoadRst(&a, 1, 1, 1, opts).ok());
  ASSERT_TRUE(LoadRst(&b, 1, 1, 1, opts).ok());
  EXPECT_TRUE(RowMultisetsEqual(TableRows(**a.catalog()->GetTable("r")),
                                TableRows(**b.catalog()->GetTable("r"))));
}

TEST(RstGeneratorTest, ReloadReplacesTables) {
  Database db;
  RstOptions opts;
  opts.rows_per_sf = 10;
  ASSERT_TRUE(LoadRst(&db, 1, 1, 1, opts).ok());
  ASSERT_TRUE(LoadRst(&db, 2, 2, 2, opts).ok());
  EXPECT_EQ((*db.catalog()->GetTable("r"))->num_rows(), 20);
}

class TpchGeneratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TpchOptions opts;
    opts.scale_factor = 0.002;  // 20 suppliers, 400 parts
    ASSERT_TRUE(LoadTpch(&db_, opts).ok());
  }
  Database db_;
};

TEST_F(TpchGeneratorTest, FixedTablesHaveSpecCardinalities) {
  EXPECT_EQ((*db_.catalog()->GetTable("region"))->num_rows(), 5);
  EXPECT_EQ((*db_.catalog()->GetTable("nation"))->num_rows(), 25);
}

TEST_F(TpchGeneratorTest, ScaledCardinalities) {
  EXPECT_EQ((*db_.catalog()->GetTable("supplier"))->num_rows(), 20);
  EXPECT_EQ((*db_.catalog()->GetTable("part"))->num_rows(), 400);
  EXPECT_EQ((*db_.catalog()->GetTable("partsupp"))->num_rows(), 1600);
}

TEST_F(TpchGeneratorTest, PartsuppHasFourDistinctSuppliersPerPart) {
  const Table* ps = *db_.catalog()->GetTable("partsupp");
  std::map<int64_t, std::set<int64_t>> suppliers_by_part;
  for (const Row& row : TableRows(*ps)) {
    suppliers_by_part[row[0].int64_value()].insert(row[1].int64_value());
  }
  EXPECT_EQ(suppliers_by_part.size(), 400u);
  for (const auto& [part, suppliers] : suppliers_by_part) {
    EXPECT_EQ(suppliers.size(), 4u) << "part " << part;
    for (int64_t s : suppliers) {
      EXPECT_GE(s, 1);
      EXPECT_LE(s, 20);
    }
  }
}

TEST_F(TpchGeneratorTest, NationRegionKeysJoinConsistently) {
  auto result = db_.Query(
      "SELECT COUNT(*) FROM nation, region "
      "WHERE n_regionkey = r_regionkey");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows[0][0].int64_value(), 25);
}

TEST_F(TpchGeneratorTest, EuropeHasFiveNations) {
  auto result = db_.Query(
      "SELECT COUNT(*) FROM nation, region "
      "WHERE n_regionkey = r_regionkey AND r_name = 'EUROPE'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows[0][0].int64_value(), 5);
}

TEST_F(TpchGeneratorTest, PartTypesComeFromTheSpecVocabulary) {
  const Table* part = *db_.catalog()->GetTable("part");
  const int type_slot = *part->schema().FindColumn("", "p_type");
  int brass = 0;
  for (const Row& row : TableRows(*part)) {
    const std::string& type = row[type_slot].string_value();
    // "<S1> <S2> <S3>" with three space-separated syllables.
    EXPECT_EQ(std::count(type.begin(), type.end(), ' '), 2) << type;
    if (type.size() >= 5 &&
        type.compare(type.size() - 5, 5, "BRASS") == 0) {
      ++brass;
    }
  }
  // ~1/5 of parts are BRASS types.
  EXPECT_GT(brass, 40);
  EXPECT_LT(brass, 120);
}

TEST_F(TpchGeneratorTest, PartSizeInRange) {
  const Table* part = *db_.catalog()->GetTable("part");
  const int size_slot = *part->schema().FindColumn("", "p_size");
  for (const Row& row : TableRows(*part)) {
    EXPECT_GE(row[size_slot].int64_value(), 1);
    EXPECT_LE(row[size_slot].int64_value(), 50);
  }
}

TEST_F(TpchGeneratorTest, SupplyCostInSpecRange) {
  const Table* ps = *db_.catalog()->GetTable("partsupp");
  const int cost_slot = *ps->schema().FindColumn("", "ps_supplycost");
  for (const Row& row : TableRows(*ps)) {
    EXPECT_GE(row[cost_slot].double_value(), 1.0);
    EXPECT_LE(row[cost_slot].double_value(), 1000.0);
  }
}

TEST(TpchSalesTest, OptionalSalesTablesGenerate) {
  Database db;
  TpchOptions opts;
  opts.scale_factor = 0.001;
  opts.include_sales = true;
  ASSERT_TRUE(LoadTpch(&db, opts).ok());
  EXPECT_TRUE(db.catalog()->HasTable("customer"));
  EXPECT_TRUE(db.catalog()->HasTable("orders"));
  EXPECT_TRUE(db.catalog()->HasTable("lineitem"));
  const int64_t customers =
      (*db.catalog()->GetTable("customer"))->num_rows();
  const int64_t orders = (*db.catalog()->GetTable("orders"))->num_rows();
  EXPECT_EQ(customers, 150);
  EXPECT_EQ(orders, customers * 10);
  // Every lineitem belongs to an existing order.
  auto orphans = db.Query(
      "SELECT COUNT(*) FROM lineitem "
      "WHERE l_orderkey NOT IN (SELECT o_orderkey FROM orders)");
  ASSERT_TRUE(orphans.ok()) << orphans.status().ToString();
  EXPECT_EQ(orphans->rows[0][0].int64_value(), 0);
}

TEST(TpchQueryTextTest, Query2dParsesAndMentionsDisjunction) {
  const std::string sql = TpchQuery2d();
  EXPECT_NE(sql.find("OR ps_availqty > 2000"), std::string::npos);
  EXPECT_NE(sql.find("MIN(ps_supplycost)"), std::string::npos);
  const std::string conjunctive = TpchQuery2();
  EXPECT_EQ(conjunctive.find("ps_availqty"), std::string::npos);
}

}  // namespace
}  // namespace bypass
