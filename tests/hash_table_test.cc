// Differential tests for the flat open-addressing hash containers
// (common/flat_table.h) and the join hash table (exec/join.h): random
// workloads are mirrored into std::unordered_{map,set} oracles built on
// the same RowKeyHash/RowKeyEq structural semantics, and every probe must
// agree. Covers NULL keys, the int64 fast path and its downgrade (mixed
// int64/double/string keys), collision-heavy tight key domains,
// transparent RowSlotsRef probes, and growth across many rehashes.
//
// The join table's three key shapes (int64, packed multi-int64, generic)
// are checked against the same oracle through row-backed, column-only
// and borrowed columnar probe batches; the grouped aggregate folds from
// columns are checked bit for bit against the row path.
//
// HashTableParallel* additionally pins that join builds are deterministic
// (the build is one serial pass; probes run concurrently under a real
// WorkerPool), runs the two-key joins and the grouping end to end at 1
// and 4 threads, and runs in the TSan label sweep (ctest -L parallel).
#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_table.h"
#include "common/rng.h"
#include "engine/database.h"
#include "exec/join.h"
#include "exec/worker_pool.h"
#include "expr/agg.h"
#include "expr/expr.h"
#include "test_util.h"
#include "types/column_vector.h"
#include "types/row.h"
#include "types/row_batch.h"

namespace bypass {
namespace {

using testing_util::ToColumns;

// ---------------------------------------------------------------- helpers

/// Random key value drawn from a deliberately nasty domain: a tight int64
/// range (collisions), NULLs, doubles that are exactly representable as
/// int64 (structurally equal to their int64 twins — must hash together),
/// fractional doubles, short strings, and bools.
Value RandomKeyValue(Rng* rng) {
  switch (rng->UniformInt(0, 9)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Double(static_cast<double>(rng->UniformInt(0, 40)));
    case 2:
      return Value::Double(static_cast<double>(rng->UniformInt(0, 40)) +
                           0.5);
    case 3:
      return Value::String(rng->AlphaString(2));
    case 4:
      return Value::Bool(rng->Bernoulli(0.5));
    default:
      return Value::Int64(rng->UniformInt(0, 40));
  }
}

/// Random key value compatible with the int64 fast path (int64, NULL, or
/// an integral double).
Value RandomInt64ishValue(Rng* rng) {
  const int64_t k = rng->UniformInt(0, 200);
  switch (rng->UniformInt(0, 9)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Double(static_cast<double>(k));
    default:
      return Value::Int64(k);
  }
}

Row RandomKeyRow(Rng* rng, size_t arity, bool int64ish) {
  Row row;
  row.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    row.push_back(int64ish ? RandomInt64ishValue(rng)
                           : RandomKeyValue(rng));
  }
  return row;
}

using OracleMap = std::unordered_map<Row, int64_t, RowKeyHash, RowKeyEq>;

/// One fuzz round: mirrors a random insert/lookup workload into the
/// oracle. `arity` and the key-value generator are fixed per round so
/// keys stay comparable; the transparent RowSlotsRef probes read the keys
/// out of a wider "input row" at random slot positions, exactly like the
/// operators do.
void FuzzRound(uint64_t seed, size_t arity, bool int64ish, int num_ops) {
  Rng rng(seed);
  FlatRowMap<int64_t> table;
  OracleMap oracle;
  std::vector<Row> insertion_order;
  int64_t next_value = 0;

  for (int op = 0; op < num_ops; ++op) {
    // Wide row with the key scattered into random slots.
    const Row key = RandomKeyRow(&rng, arity, int64ish);
    Row wide;
    std::vector<int> slots;
    for (size_t i = 0; i < arity; ++i) {
      wide.push_back(Value::Int64(rng.UniformInt(-5, 5)));  // decoy
      slots.push_back(static_cast<int>(wide.size()));
      wide.push_back(key[i]);
    }
    const RowSlotsRef ref{&wide, &slots};

    switch (rng.UniformInt(0, 3)) {
      case 0: {  // transparent find-or-insert (the operators' hot path)
        const bool existed = oracle.find(key) != oracle.end();
        int64_t& v =
            table.FindOrEmplace(ref, [&] { return next_value; });
        if (existed) {
          ASSERT_EQ(v, oracle.at(key));
        } else {
          ASSERT_EQ(v, next_value);
          oracle.emplace(key, next_value);
          insertion_order.push_back(key);
          ++next_value;
        }
        break;
      }
      case 1: {  // owned-key find-or-insert
        const bool existed = oracle.find(key) != oracle.end();
        int64_t& v = table.FindOrEmplace(Row(key),
                                         [&] { return next_value; });
        if (existed) {
          ASSERT_EQ(v, oracle.at(key));
        } else {
          ASSERT_EQ(v, next_value);
          oracle.emplace(key, next_value);
          insertion_order.push_back(key);
          ++next_value;
        }
        break;
      }
      case 2: {  // transparent lookup
        const int64_t* v = table.Find(ref);
        const auto it = oracle.find(key);
        if (it == oracle.end()) {
          ASSERT_EQ(v, nullptr) << RowToString(key);
        } else {
          ASSERT_NE(v, nullptr) << RowToString(key);
          ASSERT_EQ(*v, it->second);
        }
        break;
      }
      default: {  // owned-key lookup
        const int64_t* v = table.Find(key);
        const auto it = oracle.find(key);
        if (it == oracle.end()) {
          ASSERT_EQ(v, nullptr) << RowToString(key);
        } else {
          ASSERT_NE(v, nullptr) << RowToString(key);
          ASSERT_EQ(*v, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(table.size(), oracle.size());
  }

  // Final sweep: every oracle entry resolves, and the ids replay the
  // exact insertion order (the determinism the emit paths rely on).
  for (const auto& [key, value] : oracle) {
    const int64_t* v = table.Find(key);
    ASSERT_NE(v, nullptr) << RowToString(key);
    ASSERT_EQ(*v, value);
  }
  ASSERT_EQ(table.size(), insertion_order.size());
  for (uint32_t i = 0; i < insertion_order.size(); ++i) {
    ASSERT_TRUE(RowsStructurallyEqual(table.key(i), insertion_order[i])) << i;
    ASSERT_EQ(table.values()[i], static_cast<int64_t>(i));
  }
}

// --------------------------------------------------------- FlatRowMap/Set

TEST(HashTableMapTest, DifferentialFuzzGenericKeys) {
  FuzzRound(/*seed=*/17, /*arity=*/1, /*int64ish=*/false, 4000);
  FuzzRound(/*seed=*/18, /*arity=*/2, /*int64ish=*/false, 3000);
  FuzzRound(/*seed=*/19, /*arity=*/3, /*int64ish=*/false, 2000);
}

TEST(HashTableMapTest, DifferentialFuzzInt64FastPath) {
  FuzzRound(/*seed=*/37, /*arity=*/1, /*int64ish=*/true, 5000);
}

TEST(HashTableMapTest, DifferentialFuzzManySeeds) {
  for (uint64_t seed = 100; seed < 112; ++seed) {
    FuzzRound(seed, /*arity=*/1 + seed % 3, /*int64ish=*/seed % 2 == 0,
              800);
  }
}

TEST(HashTableMapTest, IntAndDoubleKeysAreStructurallyOneKey) {
  // 1 and 1.0 are structurally equal Values, so they must be one key in
  // both modes — this is exactly why the int64 fast path converts
  // integral doubles instead of hashing raw representations.
  FlatRowMap<int64_t> table;
  table.FindOrEmplace(Row{Value::Int64(1)}, [] { return int64_t{10}; });
  const int64_t* v = table.Find(Row{Value::Double(1.0)});
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 10);
  // And the value that can never equal an int64 key misses cleanly.
  EXPECT_EQ(table.Find(Row{Value::Double(1.5)}), nullptr);
  EXPECT_EQ(table.Find(Row{Value::String("1")}), nullptr);
  EXPECT_EQ(table.size(), 1u);
}

TEST(HashTableMapTest, NullKeysMatchStructurally) {
  FlatRowMap<int64_t> table;
  table.FindOrEmplace(Row{Value::Null()}, [] { return int64_t{7}; });
  const int64_t* v = table.Find(Row{Value::Null()});
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 7);
  EXPECT_EQ(table.Find(Row{Value::Int64(0)}), nullptr);
}

TEST(HashTableMapTest, DowngradeKeepsEveryEntryFindable) {
  FlatRowMap<int64_t> table;
  for (int64_t i = 0; i < 500; ++i) {
    table.FindOrEmplace(Row{Value::Int64(i)}, [&] { return i; });
  }
  // A string key forces the generic representation mid-life.
  table.FindOrEmplace(Row{Value::String("zap")},
                      [] { return int64_t{-1}; });
  for (int64_t i = 0; i < 500; ++i) {
    const int64_t* v = table.Find(Row{Value::Int64(i)});
    ASSERT_NE(v, nullptr) << i;
    ASSERT_EQ(*v, i);
  }
  ASSERT_NE(table.Find(Row{Value::String("zap")}), nullptr);
  EXPECT_EQ(table.size(), 501u);
}

TEST(HashTableMapTest, ReserveThenInsertKeepsFastPath) {
  FlatRowMap<int64_t> table;
  table.Reserve(1000);
  for (int64_t i = 0; i < 1000; ++i) {
    table.FindOrEmplace(Row{Value::Int64(i * 7)}, [&] { return i; });
  }
  for (int64_t i = 0; i < 1000; ++i) {
    const int64_t* v = table.Find(Row{Value::Int64(i * 7)});
    ASSERT_NE(v, nullptr);
    ASSERT_EQ(*v, i);
  }
}

TEST(HashTableMapTest, ClearResetsModeElection) {
  FlatRowMap<int64_t> table;
  table.FindOrEmplace(Row{Value::String("a")}, [] { return int64_t{1}; });
  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find(Row{Value::String("a")}), nullptr);
  // Fresh mode election after Clear: int64 keys get the fast path again.
  for (int64_t i = 0; i < 100; ++i) {
    table.FindOrEmplace(Row{Value::Int64(i)}, [&] { return i; });
  }
  EXPECT_EQ(table.size(), 100u);
}

/// Every key of `set` in id (first-occurrence) order.
std::vector<Row> Keys(const KeyIndex& set) {
  std::vector<Row> keys;
  for (uint32_t id = 0; id < set.size(); ++id) keys.push_back(set.Key(id));
  return keys;
}

/// Inserts every selected row of `batch` into `set` and narrows the
/// selection to the rows that were new, as DISTINCT does.
void InsertBatch(KeyIndex* set, RowBatch* batch) {
  std::vector<int> slots(batch->width());
  for (size_t j = 0; j < slots.size(); ++j) slots[j] = static_cast<int>(j);
  uint32_t next = static_cast<uint32_t>(set->size());
  std::vector<uint32_t> ids(batch->size());
  set->FindOrInsertBatch(*batch, slots, ids.data());
  std::vector<uint32_t>& sel = batch->selection();
  size_t kept = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] == next) {
      sel[kept++] = sel[i];
      ++next;
    }
  }
  sel.resize(kept);
}

TEST(HashTableSetTest, DifferentialDedup) {
  Rng rng(91);
  KeyIndex set;
  std::unordered_set<Row, RowHash, RowEq> oracle;
  std::vector<Row> first_occurrence;
  for (int op = 0; op < 6000; ++op) {
    Row row = RandomKeyRow(&rng, 1 + rng.UniformInt(0, 1) * 2, false);
    const bool fresh = oracle.insert(row).second;
    if (fresh) first_occurrence.push_back(row);
    ASSERT_EQ(set.FindOrInsert(row).second, fresh) << RowToString(row);
    ASSERT_NE(set.Find(row), KeyIndex::kNone);
    ASSERT_EQ(set.size(), oracle.size());
  }
  size_t i = 0;
  for (const Row& row : Keys(set)) {
    ASSERT_LT(i, first_occurrence.size());
    ASSERT_TRUE(RowsStructurallyEqual(row, first_occurrence[i])) << i;
    ++i;
  }
  ASSERT_EQ(i, first_occurrence.size());
}

/// Rows of `width` int64/NULL values over a tight domain (many repeats).
Row RandomPackableRow(Rng* rng, size_t width) {
  Row row;
  row.reserve(width);
  for (size_t j = 0; j < width; ++j) {
    row.push_back(rng->UniformInt(0, 5) == 0
                      ? Value::Null()
                      : Value::Int64(rng->UniformInt(-2, 2)));
  }
  return row;
}

/// Ordered reference set on the structural total order (NULL == NULL).
struct RowLess {
  bool operator()(const Row& a, const Row& b) const {
    return CompareRows(a, b) < 0;
  }
};
using RowReference = std::set<Row, RowLess>;

/// Inserts `rows` one at a time (odd rounds) or as row batches and typed
/// columnar batches (even rounds), checking every verdict, the size and
/// the first-occurrence order against the reference.
void PackedDifferentialRound(uint64_t seed, size_t width, bool expect_packed) {
  Rng rng(seed);
  KeyIndex set;
  RowReference reference;
  std::vector<Row> first_occurrence;
  for (int round = 0; round < 6; ++round) {
    std::vector<Row> rows;
    const int n = 1 + static_cast<int>(rng.UniformInt(0, 700));
    for (int i = 0; i < n; ++i) rows.push_back(RandomPackableRow(&rng, width));
    std::vector<bool> fresh;
    for (const Row& row : rows) {
      fresh.push_back(reference.insert(row).second);
      if (fresh.back()) first_occurrence.push_back(row);
    }
    if (round % 2 == 1) {
      for (size_t i = 0; i < rows.size(); ++i) {
        ASSERT_EQ(set.FindOrInsert(rows[i]).second, fresh[i])
            << RowToString(rows[i]);
      }
    } else {
      ColumnStore store;
      for (size_t j = 0; j < width; ++j) {
        store.columns.emplace_back(DataType::kInt64);
      }
      for (const Row& row : rows) store.AppendRow(row);
      RowBatch batch =
          round % 4 == 0
              ? RowBatch::BorrowedColumns(&store, 0, rows.size())
              : RowBatch::FromRows(std::vector<Row>(rows));
      InsertBatch(&set, &batch);
      std::vector<uint32_t> want;
      for (uint32_t i = 0; i < rows.size(); ++i) {
        if (fresh[i]) want.push_back(i);
      }
      ASSERT_EQ(batch.selection(), want) << "width " << width;
    }
    ASSERT_EQ(set.size(), reference.size());
    ASSERT_EQ(set.packed(), expect_packed);
  }
  size_t i = 0;
  for (const Row& row : Keys(set)) {
    ASSERT_LT(i, first_occurrence.size());
    ASSERT_TRUE(RowsStructurallyEqual(row, first_occurrence[i])) << i;
    ++i;
  }
  ASSERT_EQ(i, first_occurrence.size());
  for (const Row& row : first_occurrence) {
    ASSERT_NE(set.Find(row), KeyIndex::kNone);
  }
}

TEST(HashTableSetTest, PackedDifferentialWidthsOneToEight) {
  for (size_t width = 1; width <= 8; ++width) {
    PackedDifferentialRound(700 + width, width, /*expect_packed=*/true);
  }
}

TEST(HashTableSetTest, PackedDifferentialWidthsNineToSixtyThree) {
  for (size_t width : {9, 16, 33, 63}) {
    PackedDifferentialRound(700 + width, width, /*expect_packed=*/true);
  }
}

TEST(HashTableSetTest, Width64FallsBackToGeneric) {
  PackedDifferentialRound(764, 64, /*expect_packed=*/false);
}

TEST(HashTableSetTest, NullIsNotZero) {
  KeyIndex set;
  EXPECT_TRUE(set.FindOrInsert(Row{Value::Null()}).second);
  EXPECT_TRUE(set.FindOrInsert(Row{Value::Int64(0)}).second);
  EXPECT_FALSE(set.FindOrInsert(Row{Value::Null()}).second);
  EXPECT_FALSE(set.FindOrInsert(Value::Int64(0)).second);
  EXPECT_TRUE(set.packed());
  EXPECT_EQ(set.size(), 2u);
}

TEST(HashTableSetTest, NullPositionIsPartOfTheKey) {
  KeyIndex set;
  EXPECT_TRUE(set.FindOrInsert(Row{Value::Null(), Value::Int64(1)}).second);
  EXPECT_TRUE(set.FindOrInsert(Row{Value::Int64(1), Value::Null()}).second);
  EXPECT_FALSE(set.FindOrInsert(Row{Value::Int64(1), Value::Null()}).second);
  EXPECT_FALSE(set.FindOrInsert(Row{Value::Null(), Value::Int64(1)}).second);
  EXPECT_TRUE(set.FindOrInsert(Row{Value::Null(), Value::Null()}).second);
  EXPECT_EQ(set.size(), 3u);
}

// 1 and 1.0 are one key in either insertion order, and the stored key —
// read back as a Row and as an exported key column — keeps the first
// occurrence's type.
TEST(HashTableSetTest, IntThenIntegralDoubleIsOneKey) {
  for (bool int_first : {true, false}) {
    SCOPED_TRACE(int_first ? "int64 first" : "double first");
    const Value first = int_first ? Value::Int64(1) : Value::Double(1.0);
    const Value second = int_first ? Value::Double(1.0) : Value::Int64(1);
    KeyIndex set;
    EXPECT_TRUE(set.FindOrInsert(first).second);
    std::vector<ColumnVector> before;
    set.AppendKeyColumns(0, 1, &before);
    EXPECT_EQ(set.packed(), int_first);
    EXPECT_NE(set.Find(Row{second}), KeyIndex::kNone);
    EXPECT_FALSE(set.FindOrInsert(second).second);
    EXPECT_FALSE(set.packed()) << "a double downgrades or never packs";
    EXPECT_EQ(set.size(), 1u);
    std::vector<Row> stored;
    for (const Row& row : Keys(set)) stored.push_back(row);
    ASSERT_EQ(stored.size(), 1u);
    EXPECT_EQ(stored[0][0].type(), first.type())
        << "the first occurrence is kept";
    std::vector<ColumnVector> after;
    set.AppendKeyColumns(0, 1, &after);
    for (const std::vector<ColumnVector>* cols : {&before, &after}) {
      ASSERT_EQ(cols->size(), 1u);
      ASSERT_EQ((*cols)[0].size(), 1u);
      EXPECT_TRUE((*cols)[0].typed());
      EXPECT_EQ((*cols)[0].type(), first.type());
      EXPECT_EQ((*cols)[0].GetValue(0).type(), first.type());
    }
  }
}

TEST(HashTableSetTest, DowngradeAfterManyIntKeysLosesNothing) {
  for (const Value& late : {Value::String("x"), Value::Double(2.5)}) {
    KeyIndex set;
    for (int64_t k = 0; k < 10000; ++k) {
      ASSERT_TRUE(
          set.FindOrInsert(Row{Value::Int64(k), Value::Int64(k % 7)}).second);
    }
    ASSERT_TRUE(set.packed());
    ASSERT_TRUE(set.FindOrInsert(Row{Value::Int64(3), late}).second);
    ASSERT_FALSE(set.packed());
    ASSERT_EQ(set.size(), 10001u);
    for (int64_t k = 0; k < 10000; ++k) {
      ASSERT_FALSE(
          set.FindOrInsert(Row{Value::Int64(k), Value::Int64(k % 7)}).second)
          << k;
    }
    ASSERT_FALSE(set.FindOrInsert(Row{Value::Int64(3), late}).second);
    ASSERT_EQ(set.size(), 10001u);
    int64_t k = 0;
    for (const Row& row : Keys(set)) {
      if (k < 10000) {
        ASSERT_TRUE(RowsStructurallyEqual(
            row, Row{Value::Int64(k), Value::Int64(k % 7)}));
      } else {
        ASSERT_TRUE(RowsStructurallyEqual(row, Row{Value::Int64(3), late}));
      }
      ++k;
    }
    ASSERT_EQ(k, 10001);
  }
}

TEST(HashTableSetTest, ClearReelectsTheMode) {
  KeyIndex set;
  set.Reserve(100);
  EXPECT_TRUE(set.FindOrInsert(Row{Value::String("a")}).second);
  EXPECT_FALSE(set.packed());
  set.Clear();
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.FindOrInsert(Row{Value::Int64(4), Value::Null()}).second);
  EXPECT_TRUE(set.packed());
  EXPECT_EQ(set.Find(Row{Value::String("a")}), KeyIndex::kNone);
  set.Clear();
  EXPECT_TRUE(set.FindOrInsert(Row{Value::Bool(true)}).second);
  EXPECT_FALSE(set.packed());
  EXPECT_FALSE(set.FindOrInsert(Row{Value::Bool(true)}).second);
}

// ----------------------------------------------------------- JoinHashTable

using JoinOracle = std::unordered_map<Row, std::vector<uint32_t>,
                                      RowKeyHash, RowKeyEq>;

/// The hit list of a probe over `n` rows expanded into one JoinMatches
/// per row (empty on a miss), after checking its shape: ascending
/// positions below `n`, no empty range.
std::vector<JoinMatches> ExpandHits(const JoinProbeScratch& scratch,
                                    size_t n) {
  std::vector<JoinMatches> matches(n);
  for (size_t h = 0; h < scratch.hits.size(); ++h) {
    const JoinMatches& m = scratch.hits[h];
    EXPECT_LT(m.pos, n);
    if (h > 0) {
      EXPECT_LT(scratch.hits[h - 1].pos, m.pos);
    }
    EXPECT_FALSE(m.empty());
    if (m.pos < n) matches[m.pos] = m;
  }
  return matches;
}

/// One row's matches, probed through ProbeBatch over a one-row batch.
JoinMatches ProbeOne(const JoinHashTable& table, const Row& row,
                     const std::vector<int>& slots) {
  JoinProbeScratch scratch;
  table.ProbeBatch(RowBatch::FromRows({row}), slots, &scratch);
  return ExpandHits(scratch, 1)[0];
}

/// Builds the oracle: key row -> ascending build-row indices, skipping
/// NULL-keyed rows (SQL '=' semantics).
JoinOracle BuildJoinOracle(const std::vector<Row>& rows,
                           const std::vector<int>& key_slots) {
  JoinOracle oracle;
  for (uint32_t r = 0; r < rows.size(); ++r) {
    bool has_null = false;
    for (int s : key_slots) {
      if (rows[r][static_cast<size_t>(s)].is_null()) has_null = true;
    }
    if (has_null) continue;
    oracle[ProjectRow(rows[r], key_slots)].push_back(r);
  }
  return oracle;
}

void CheckProbesAgainstOracle(const JoinHashTable& table,
                              const std::vector<Row>& build_rows,
                              const std::vector<int>& key_slots,
                              const std::vector<Row>& probe_rows,
                              const std::vector<int>& probe_slots,
                              const JoinOracle& oracle) {
  // Per-row probes against the oracle.
  for (const Row& probe : probe_rows) {
    bool has_null = false;
    for (int s : probe_slots) {
      if (probe[static_cast<size_t>(s)].is_null()) has_null = true;
    }
    const JoinMatches m = ProbeOne(table, probe, probe_slots);
    if (has_null) {
      ASSERT_TRUE(m.empty());
      continue;
    }
    const Row key = ProjectRow(probe, probe_slots);
    const auto it = oracle.find(key);
    if (it == oracle.end()) {
      ASSERT_TRUE(m.empty()) << RowToString(key);
    } else {
      ASSERT_EQ(m.count, it->second.size()) << RowToString(key);
      for (uint32_t i = 0; i < m.count; ++i) {
        ASSERT_EQ(m.data[i], it->second[i]);  // ascending, exact order
      }
    }
  }
  // A whole-batch probe must agree bit-for-bit with the one-row probes.
  RowBatch batch = RowBatch::FromRows(std::vector<Row>(probe_rows));
  JoinProbeScratch scratch;
  table.ProbeBatch(batch, probe_slots, &scratch);
  const std::vector<JoinMatches> matches =
      ExpandHits(scratch, probe_rows.size());
  for (size_t i = 0; i < probe_rows.size(); ++i) {
    const JoinMatches single =
        ProbeOne(table, probe_rows[i], probe_slots);
    ASSERT_EQ(matches[i].count, single.count) << i;
    ASSERT_EQ(matches[i].data, single.data) << i;
  }
  (void)build_rows;
  (void)key_slots;
}

void JoinFuzzRound(uint64_t seed, size_t num_build, size_t num_probe,
                   const std::vector<int>& key_slots, bool int64ish) {
  Rng rng(seed);
  const size_t arity = 3;
  auto random_row = [&] {
    Row row;
    for (size_t c = 0; c < arity; ++c) {
      row.push_back(int64ish ? RandomInt64ishValue(&rng)
                             : RandomKeyValue(&rng));
    }
    return row;
  };
  std::vector<Row> build_rows;
  for (size_t i = 0; i < num_build; ++i) build_rows.push_back(random_row());
  std::vector<Row> probe_rows;
  for (size_t i = 0; i < num_probe; ++i) probe_rows.push_back(random_row());

  JoinHashTable table;
  table.Build(ToColumns(build_rows), key_slots);
  const JoinOracle oracle = BuildJoinOracle(build_rows, key_slots);
  ASSERT_EQ(table.num_keys(), oracle.size());
  CheckProbesAgainstOracle(table, build_rows, key_slots, probe_rows,
                           key_slots, oracle);
}

TEST(HashTableJoinTest, DifferentialSingleInt64Key) {
  JoinFuzzRound(/*seed=*/7, 3000, 1500, {1}, /*int64ish=*/true);
}

TEST(HashTableJoinTest, DifferentialSingleGenericKey) {
  JoinFuzzRound(/*seed=*/8, 2000, 1000, {0}, /*int64ish=*/false);
}

TEST(HashTableJoinTest, DifferentialMultiColumnKey) {
  JoinFuzzRound(/*seed=*/9, 2000, 1000, {0, 2}, /*int64ish=*/false);
  JoinFuzzRound(/*seed=*/10, 2000, 1000, {2, 0}, /*int64ish=*/true);
}

TEST(HashTableJoinTest, EmptyBuildSide) {
  std::vector<Row> none;
  std::vector<int> slots{0};
  JoinHashTable table;
  table.Build(ToColumns(none), slots);
  EXPECT_EQ(table.num_keys(), 0u);
  const Row probe{Value::Int64(1)};
  EXPECT_TRUE(ProbeOne(table, probe, slots).empty());
}

TEST(HashTableJoinTest, RebuildAfterClearAndModeFlip) {
  std::vector<int> slots{0};
  JoinHashTable table;
  std::vector<Row> ints;
  for (int64_t i = 0; i < 100; ++i) ints.push_back(Row{Value::Int64(i)});
  table.Build(ToColumns(ints), slots);
  EXPECT_EQ(table.num_keys(), 100u);
  table.Clear();
  std::vector<Row> strs;
  for (int64_t i = 0; i < 50; ++i) {
    strs.push_back(Row{Value::String(std::to_string(i))});
  }
  table.Build(ToColumns(strs), slots);
  EXPECT_EQ(table.num_keys(), 50u);
  const Row probe{Value::String("7")};
  EXPECT_EQ(ProbeOne(table, probe, slots).count, 1u);
}

// ------------------------------------------- JoinHashTable: hit lists

/// Build rows {k, k mod 3} for k in [0, 8) and a second copy of keys 2
/// and 5, so key k has one build row or, for 2 and 5, two.
std::vector<Row> HitListBuildRows() {
  std::vector<Row> rows;
  for (int64_t k = 0; k < 8; ++k) {
    rows.push_back(Row{Value::Int64(k), Value::Int64(k % 3)});
  }
  rows.push_back(Row{Value::Int64(2), Value::Int64(0)});
  rows.push_back(Row{Value::Int64(5), Value::Int64(1)});
  return rows;
}

/// Probes `batch` on column 0 (one typed int64 key: the one-pass kernel)
/// and on columns {0, 1} (a packed two-column key), and checks the hit
/// list against the hand-computed one: positions `want_pos` (indices into
/// the batch's selection), each with the build rows of its key.
void CheckHitList(const RowBatch& batch,
                  const std::vector<uint32_t>& want_pos) {
  const std::vector<Row> build = HitListBuildRows();
  for (const std::vector<int>& slots :
       {std::vector<int>{0}, std::vector<int>{0, 1}}) {
    SCOPED_TRACE("key width " + std::to_string(slots.size()));
    JoinHashTable table;
    table.Build(ToColumns(build), slots);
    const JoinOracle oracle = BuildJoinOracle(build, slots);
    JoinProbeScratch scratch;
    table.ProbeBatch(batch, slots, &scratch);
    std::vector<uint32_t> pos;
    for (const JoinMatches& m : scratch.hits) pos.push_back(m.pos);
    EXPECT_EQ(pos, want_pos);
    for (size_t h = 0; h < scratch.hits.size(); ++h) {
      const uint32_t idx = batch.selection()[scratch.hits[h].pos];
      Row key;
      for (int slot : slots) {
        key.push_back(batch.columns()->columns[static_cast<size_t>(slot)]
                          .GetValue(idx));
      }
      const auto it = oracle.find(key);
      ASSERT_NE(it, oracle.end()) << RowToString(key);
      const JoinMatches m = scratch.hits[h];
      EXPECT_EQ(std::vector<uint32_t>(m.begin(), m.end()), it->second);
    }
  }
}

TEST(HashTableJoinTest, HitListIsEmptyWhenNoRowHits) {
  std::vector<Row> probe;
  for (int64_t k = 100; k < 140; ++k) {
    probe.push_back(Row{Value::Int64(k), Value::Int64(k % 3)});
  }
  const ColumnStore store = ToColumns(probe);
  CheckHitList(RowBatch::BorrowedColumns(&store, 0, probe.size()), {});
}

TEST(HashTableJoinTest, HitListHoldsEveryRowWhenAllHit) {
  // Every key of the build side, twice over, in a scrambled order.
  std::vector<Row> probe;
  std::vector<uint32_t> all;
  for (int64_t i = 0; i < 16; ++i) {
    const int64_t k = (i * 5) % 8;
    probe.push_back(Row{Value::Int64(k), Value::Int64(k % 3)});
    all.push_back(static_cast<uint32_t>(i));
  }
  const ColumnStore store = ToColumns(probe);
  CheckHitList(RowBatch::BorrowedColumns(&store, 0, probe.size()), all);
  CheckHitList(RowBatch::FromRows(probe), all);
}

TEST(HashTableJoinTest, HitListSkipsNullKeys) {
  // Only NULL keys: nothing hits, whichever key column holds the NULL.
  std::vector<Row> probe;
  for (int64_t i = 0; i < 10; ++i) {
    probe.push_back(i % 2 == 0 ? Row{Value::Null(), Value::Int64(i % 3)}
                               : Row{Value::Null(), Value::Null()});
  }
  probe.push_back(Row{Value::Null(), Value::Null()});
  const ColumnStore store = ToColumns(probe);
  CheckHitList(RowBatch::BorrowedColumns(&store, 0, probe.size()), {});
  CheckHitList(RowBatch::FromRows(probe), {});
}

TEST(HashTableJoinTest, HitListFollowsNarrowedSelection) {
  // Even storage rows hit, odd ones miss.
  std::vector<Row> probe;
  for (int64_t i = 0; i < 40; ++i) {
    const int64_t k = i % 2 == 0 ? i % 8 : 100 + i;
    probe.push_back(Row{Value::Int64(k), Value::Int64(k % 3)});
  }
  const ColumnStore store = ToColumns(probe);
  const RowBatch window = RowBatch::BorrowedColumns(&store, 0, probe.size());
  // A narrowed, non-dense selection: storage rows 3, 4, 9, 10, 11, 20,
  // 33, 38. Positions 1 (row 4), 3 (row 10), 5 (row 20) and 7 (row 38)
  // hold even rows: the hit list counts positions, not storage rows.
  const RowBatch narrowed =
      window.ShareWithSelection({3, 4, 9, 10, 11, 20, 33, 38});
  ASSERT_FALSE(narrowed.dense());
  CheckHitList(narrowed, {1, 3, 5, 7});
}

// ------------------------------------------- JoinHashTable: key shapes

/// The three probe batch forms an operator sees: rows, a column-only
/// batch (join output), and a borrowed columnar batch (a scan) — each
/// whole and narrowed to its odd positions.
std::vector<RowBatch> ProbeForms(const std::vector<Row>* rows,
                                 const std::vector<DataType>& types,
                                 ColumnStore* borrowed) {
  auto make_store = [&] {
    ColumnStore store;
    for (DataType t : types) store.columns.emplace_back(t);
    for (const Row& row : *rows) store.AppendRow(row);
    return store;
  };
  *borrowed = make_store();
  std::vector<RowBatch> forms;
  forms.push_back(RowBatch::FromRows(std::vector<Row>(*rows)));
  forms.push_back(RowBatch::FromColumns(make_store()));
  forms.push_back(RowBatch::BorrowedColumns(borrowed, 0, rows->size()));
  std::vector<uint32_t> odd;
  for (uint32_t i = 1; i < rows->size(); i += 2) odd.push_back(i);
  for (size_t f = 0; f < 3; ++f) {
    forms.push_back(forms[f].ShareWithSelection(odd));
  }
  return forms;
}

/// Probes `probe_rows` in every batch form and checks each verdict —
/// matched build rows, in ascending order — against the oracle.
void CheckProbeForms(const JoinHashTable& table,
                     const std::vector<Row>& probe_rows,
                     const std::vector<DataType>& probe_types,
                     const std::vector<int>& probe_slots,
                     const JoinOracle& oracle) {
  ColumnStore borrowed;
  const std::vector<RowBatch> forms =
      ProbeForms(&probe_rows, probe_types, &borrowed);
  for (size_t f = 0; f < forms.size(); ++f) {
    SCOPED_TRACE("probe form " + std::to_string(f));
    const RowBatch& batch = forms[f];
    JoinProbeScratch scratch;
    table.ProbeBatch(batch, probe_slots, &scratch);
    const std::vector<JoinMatches> matches =
        ExpandHits(scratch, batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const Row& probe = probe_rows[batch.selection()[i]];
      bool has_null = false;
      for (int s : probe_slots) {
        has_null = has_null || probe[static_cast<size_t>(s)].is_null();
      }
      const auto it =
          has_null ? oracle.end() : oracle.find(ProjectRow(probe, probe_slots));
      const JoinMatches m = matches[i];
      if (it == oracle.end()) {
        ASSERT_TRUE(m.empty()) << RowToString(probe);
        continue;
      }
      ASSERT_EQ(std::vector<uint32_t>(m.begin(), m.end()), it->second)
          << RowToString(probe);
    }
  }
}

/// Rows of four int64 columns over [0, 6], each value NULL with
/// probability 0.2, so NULL lands in every key position.
std::vector<Row> NullableIntRows(Rng* rng, size_t n) {
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    Row row;
    for (int c = 0; c < 4; ++c) {
      row.push_back(rng->Bernoulli(0.2) ? Value::Null()
                                        : Value::Int64(rng->UniformInt(0, 6)));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

const std::vector<DataType> kFourInts(4, DataType::kInt64);

TEST(HashTableJoinTest, PackedKeysMatchOracle) {
  Rng rng(61);
  const std::vector<Row> build = NullableIntRows(&rng, 1500);
  const std::vector<Row> probe = NullableIntRows(&rng, 700);
  for (const std::vector<int>& slots :
       {std::vector<int>{0, 1}, std::vector<int>{1, 0},
        std::vector<int>{0, 2, 3}, std::vector<int>{3, 1, 2, 0}}) {
    SCOPED_TRACE("key width " + std::to_string(slots.size()));
    JoinHashTable table;
    table.Build(ToColumns(build), slots);
    EXPECT_TRUE(table.index().packed());
    const JoinOracle oracle = BuildJoinOracle(build, slots);
    ASSERT_EQ(table.num_keys(), oracle.size());
    CheckProbeForms(table, probe, kFourInts, slots, oracle);
    // The build rows themselves all find their own key.
    CheckProbeForms(table, build, kFourInts, slots, oracle);
  }
}

TEST(HashTableJoinTest, SingleInt64KeyMatchesOracleInEveryProbeForm) {
  Rng rng(62);
  const std::vector<Row> build = NullableIntRows(&rng, 900);
  const std::vector<Row> probe = NullableIntRows(&rng, 500);
  const std::vector<int> slots{2};
  JoinHashTable table;
  table.Build(ToColumns(build), slots);
  EXPECT_TRUE(table.index().packed());
  CheckProbeForms(table, probe, kFourInts, slots,
                  BuildJoinOracle(build, slots));
}

TEST(HashTableJoinTest, IntegralDoublesMatchInt64Keys) {
  // 1 = 1.0: int64 build keys must match integral double probes (a typed
  // double column, or doubles in rows) and the other way round.
  Rng rng(63);
  const std::vector<Row> ints = NullableIntRows(&rng, 800);
  std::vector<Row> doubles = ints;
  for (Row& row : doubles) {
    for (Value& v : row) {
      if (!v.is_null()) v = Value::Double(static_cast<double>(v.int64_value()));
    }
  }
  const std::vector<DataType> four_doubles(4, DataType::kDouble);
  for (const std::vector<int>& slots :
       {std::vector<int>{1}, std::vector<int>{0, 3}}) {
    SCOPED_TRACE("key width " + std::to_string(slots.size()));
    JoinHashTable int_table;
    int_table.Build(ToColumns(ints), slots);
    EXPECT_TRUE(int_table.index().packed());
    const JoinOracle oracle = BuildJoinOracle(ints, slots);
    CheckProbeForms(int_table, doubles, four_doubles, slots, oracle);

    JoinHashTable double_table;
    double_table.Build(ToColumns(doubles), slots);
    EXPECT_TRUE(double_table.index().packed()) << "integral doubles pack";
    CheckProbeForms(double_table, ints, kFourInts, slots,
                    BuildJoinOracle(doubles, slots));
  }
}

TEST(HashTableJoinTest, NonIntegralOrStringKeysFallBackToGeneric) {
  Rng rng(64);
  const std::vector<Row> probe = NullableIntRows(&rng, 400);
  for (const Value& odd : {Value::Double(2.5), Value::String("2")}) {
    SCOPED_TRACE(odd.ToString());
    std::vector<Row> build = NullableIntRows(&rng, 600);
    build[431][1] = odd;
    for (const std::vector<int>& slots :
         {std::vector<int>{1}, std::vector<int>{0, 1}}) {
      JoinHashTable table;
      table.Build(ToColumns(build), slots);
      EXPECT_FALSE(table.index().packed());
      const JoinOracle oracle = BuildJoinOracle(build, slots);
      ASSERT_EQ(table.num_keys(), oracle.size());
      CheckProbeForms(table, probe, kFourInts, slots, oracle);
      CheckProbeForms(table, build, std::vector<DataType>(4, DataType::kInt64),
                      slots, oracle);
    }
    // A packed table probed with such a value misses without a fault.
    const std::vector<Row> ints = NullableIntRows(&rng, 300);
    JoinHashTable packed;
    packed.Build(ToColumns(ints), {0, 1});
    ASSERT_TRUE(packed.index().packed());
    std::vector<Row> odd_probe = NullableIntRows(&rng, 50);
    for (Row& row : odd_probe) row[1] = odd;
    CheckProbeForms(packed, odd_probe, kFourInts, {0, 1},
                    BuildJoinOracle(ints, {0, 1}));
  }
}

/// Checks that every key's payload is ascending and that `a` and `b`
/// resolve every key to identical spans.
void ExpectSameIndex(const JoinHashTable& a, const JoinHashTable& b,
                     const std::vector<Row>& rows,
                     const std::vector<int>& slots) {
  ASSERT_EQ(a.num_keys(), b.num_keys());
  const JoinOracle oracle = BuildJoinOracle(rows, slots);
  for (const auto& [key, span] : oracle) {
    std::vector<int> key_slots;
    for (size_t j = 0; j < key.size(); ++j) {
      key_slots.push_back(static_cast<int>(j));
    }
    const JoinMatches ma = ProbeOne(a, key, key_slots);
    const JoinMatches mb = ProbeOne(b, key, key_slots);
    ASSERT_EQ(std::vector<uint32_t>(ma.begin(), ma.end()), span);
    ASSERT_EQ(std::vector<uint32_t>(mb.begin(), mb.end()), span);
  }
}

TEST(HashTableJoinTest, SlotArrayFollowsKeyCountNotRows) {
  // 30k build rows over 1k keys: the slot array holds 4x the keys
  // rounded up to a power of two (4096 slots of 16 bytes), not 4x — or
  // 1/0.7x — the rows. Everything else the table keeps is per row
  // (payload and row-key ids, 4 bytes each) or a few words per key.
  constexpr size_t kRows = 30000;
  constexpr size_t kKeys = 1000;
  std::vector<Row> rows;
  for (size_t i = 0; i < kRows; ++i) {
    rows.push_back(Row{Value::Int64(static_cast<int64_t>((i * 7919) % kKeys)),
                       Value::Int64(static_cast<int64_t>(i))});
  }
  JoinHashTable table;
  table.Build(ToColumns(rows), {0});
  ASSERT_EQ(table.num_keys(), kKeys);
  const int64_t per_row = static_cast<int64_t>(kRows * 2 * sizeof(uint32_t));
  const int64_t index = table.RetainedBytes() - per_row;
  EXPECT_GE(index, int64_t{16 * 4 * kKeys});
  EXPECT_LE(index, int64_t{16 * 4096 + 32 * kKeys});
  // Rows over as many keys: the slot array grows with the keys.
  std::vector<Row> unique;
  for (size_t i = 0; i < kRows; ++i) {
    unique.push_back(Row{Value::Int64(static_cast<int64_t>(i))});
  }
  JoinHashTable wide;
  wide.Build(ToColumns(unique), {0});
  EXPECT_GE(wide.RetainedBytes() - per_row, int64_t{16 * 4 * kRows});
}

TEST(HashTableJoinTest, RetainedBytesCountsStringKeyChars) {
  // Generic keys are copied into the index, so the heap chars of long
  // string keys count in the bytes a join charges to its memory budget.
  constexpr size_t kKeys = 1000;
  constexpr size_t kChars = 200;
  std::vector<Row> rows;
  for (size_t i = 0; i < kKeys; ++i) {
    rows.push_back(Row{Value::String(std::to_string(i) +
                                     std::string(kChars, 'x'))});
  }
  JoinHashTable table;
  table.Build(ToColumns(rows), {0});
  ASSERT_EQ(table.num_keys(), kKeys);
  EXPECT_GE(table.index().RetainedBytes(), int64_t{kKeys * kChars});
}

// ------------------------------------------------ build determinism

TEST(HashTableParallelTest, ReusedTableMatchesFreshBuild) {
  // A table reused across Clear/Build cycles (as a join across
  // re-executions) resolves exactly like a fresh one: int64, packed and
  // generic (string) keys over 1k keys, each after a build of another
  // shape. Keys absent from the build miss in both.
  constexpr size_t kRows = 30000;
  std::vector<Row> rows;
  for (size_t i = 0; i < kRows; ++i) {
    const int64_t k = static_cast<int64_t>((i * 7919) % 1000);
    rows.push_back(Row{Value::Int64(k), Value::Int64(k % 7),
                       Value::String("k" + std::to_string(k))});
  }
  JoinHashTable reused;
  reused.Build(ToColumns({Row{Value::String("x")}}), {0});
  for (const std::vector<int>& slots :
       {std::vector<int>{0}, std::vector<int>{0, 1}, std::vector<int>{2},
        std::vector<int>{2, 1}}) {
    SCOPED_TRACE("slots " + std::to_string(slots[0]) + " width " +
                 std::to_string(slots.size()));
    JoinHashTable fresh;
    fresh.Build(ToColumns(rows), slots);
    reused.Clear();
    reused.Build(ToColumns(rows), slots);
    EXPECT_EQ(fresh.index().packed(), slots[0] != 2);
    EXPECT_EQ(reused.index().packed(), slots[0] != 2);
    ExpectSameIndex(fresh, reused, rows, slots);
    const Row absent{Value::Int64(1000), Value::Int64(-1),
                     Value::String("k1000")};
    EXPECT_EQ(ProbeOne(fresh, absent, slots).count, 0u);
    EXPECT_EQ(ProbeOne(reused, absent, slots).count, 0u);
  }
}

TEST(HashTableParallelTest, ParallelBuildGenericFallback) {
  // Mixed key shapes take the generic path, in a fresh table and in one
  // whose previous build packed its keys.
  Rng rng(56);
  const size_t n = 10000;
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Row row;
    row.push_back(i % 977 == 0 ? Value::String(rng.AlphaString(3))
                               : Value::Int64(rng.UniformInt(0, 500)));
    rows.push_back(std::move(row));
  }
  std::vector<int> slots{0};
  JoinHashTable serial;
  serial.Build(ToColumns(rows), slots);
  JoinHashTable parallel;
  parallel.Build(ToColumns({Row{Value::Int64(1)}}), slots);
  parallel.Build(ToColumns(rows), slots);
  ASSERT_FALSE(parallel.index().packed());
  ASSERT_EQ(serial.num_keys(), parallel.num_keys());
  const JoinOracle oracle = BuildJoinOracle(rows, slots);
  for (const auto& [key, span] : oracle) {
    const JoinMatches m = ProbeOne(parallel, key, {0});
    ASSERT_EQ(m.count, span.size());
    for (uint32_t i = 0; i < m.count; ++i) ASSERT_EQ(m.data[i], span[i]);
  }
}

TEST(HashTableParallelTest, ConcurrentProbesWithDistinctScratches) {
  // ProbeBatch is const and documented safe from concurrent workers with
  // per-worker scratches; drive it through a real pool under TSan.
  Rng rng(57);
  const size_t n = 8000;
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Row{Value::Int64(rng.UniformInt(0, 300))});
  }
  std::vector<int> slots{0};
  JoinHashTable table;
  table.Build(ToColumns(rows), slots);

  WorkerPool pool(4);
  const size_t num_tasks = 8;
  std::vector<JoinProbeScratch> scratches(num_tasks);
  std::vector<Row> probe_rows;
  for (int64_t k = 0; k < 400; ++k) probe_rows.push_back(Row{Value::Int64(k)});
  RowBatch batch = RowBatch::FromRows(std::move(probe_rows));
  std::atomic<int64_t> total{0};
  const Status st = pool.ParallelFor(num_tasks, [&](size_t t) -> Status {
    table.ProbeBatch(batch, slots, &scratches[t]);
    int64_t matches = 0;
    for (const JoinMatches& m : ExpandHits(scratches[t], batch.size())) {
      matches += m.count;
    }
    total.fetch_add(matches, std::memory_order_relaxed);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  // Every task saw the same table: totals are task-count multiples.
  EXPECT_EQ(total.load() % static_cast<int64_t>(num_tasks), 0);
  EXPECT_EQ(total.load() / static_cast<int64_t>(num_tasks),
            static_cast<int64_t>(n));
}

// ---------------------------------------- two-key joins, end to end

// fig7's `in`, the two- and three-key (NOT) EXISTS shapes and a two-key
// Eqv. 1 outer join hash on packed keys; on 20 % NULLs every one must
// equal the canonical evaluator at every batch size and thread count.
TEST(HashTableParallelJoinKeys, PackedKeyJoinsMatchCanonical) {
  struct KeyedText {
    const char* label;  // a physical-plan substring the text must produce
    const char* sql;
  };
  const KeyedText texts[] = {
      {"HashSemiJoin [keys l1=r1, l0=r0]",
       "SELECT DISTINCT * FROM r "
       "WHERE a1 IN (SELECT b1 FROM s WHERE a2 = b2) OR a4 > 5"},
      {"HashAntiJoin [keys l1=r1, l0=r0]",
       "SELECT DISTINCT * FROM r WHERE NOT EXISTS "
       "(SELECT * FROM s WHERE a2 = b2 AND a1 = b1) OR a4 > 5"},
      {"HashSemiJoin [keys l1=r1, l0=r0]",
       "SELECT * FROM r "
       "WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND a1 = b1) OR a4 > 5"},
      {"HashAntiJoin [keys l1=r0, l2=r1, l3=r2]",
       "SELECT * FROM r WHERE NOT EXISTS (SELECT * FROM s "
       "WHERE a2 = b2 AND a3 = b3 AND a4 = b4)"},
      {"HashLeftOuterJoin",
       "SELECT * FROM r "
       "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 AND a3 = b3)"},
  };
  Database db;
  testing_util::LoadSmallRst(&db, /*seed=*/29, 80, 90, 40,
                             /*null_fraction=*/0.2);
  for (const KeyedText& t : texts) {
    SCOPED_TRACE(t.sql);
    QueryOptions canonical;
    canonical.unnest = false;
    auto want = db.Query(t.sql, canonical);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    for (size_t batch_size : {size_t{1}, size_t{7}, size_t{1024}}) {
      for (int threads : {1, 4}) {
        QueryOptions opts;
        opts.batch_size = batch_size;
        opts.num_threads = threads;
        if (threads > 1) opts.morsel_size = 5;
        auto got = db.Query(t.sql, opts);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_NE(got->physical_plan.find(t.label), std::string::npos)
            << got->physical_plan;
        EXPECT_TRUE(RowMultisetsEqual(want->rows, got->rows))
            << "batch_size " << batch_size << ", threads " << threads
            << "\nwant rows: " << want->rows.size()
            << "\ngot rows: " << got->rows.size();
      }
    }
  }
}

// -------------------------------------------- grouped column folds

ExprPtr SlotRef(int slot) {
  auto ref = std::make_shared<ColumnRefExpr>("", "c" + std::to_string(slot),
                                             false);
  ref->set_slot(slot);
  return ref;
}

AggregateSpec Agg(AggFunc func, int slot, bool distinct = false) {
  AggregateSpec spec;
  spec.func = func;
  spec.distinct = distinct;
  if (slot >= 0) spec.arg = SlotRef(slot);
  return spec;
}

/// Every fast-path aggregate over (k, x int64, d double): COUNT(*),
/// COUNT(x), SUM/AVG/MIN/MAX over x and d, plus the DISTINCT aggregates
/// that take the fallback: over a column, and COUNT(DISTINCT *) over
/// whole rows.
std::vector<AggregateSpec> FoldSpecs() {
  std::vector<AggregateSpec> specs;
  specs.push_back(Agg(AggFunc::kCount, -1));
  specs.push_back(Agg(AggFunc::kCount, 1));
  for (int slot : {1, 2}) {
    for (AggFunc f :
         {AggFunc::kSum, AggFunc::kAvg, AggFunc::kMin, AggFunc::kMax}) {
      specs.push_back(Agg(f, slot));
    }
  }
  specs.push_back(Agg(AggFunc::kSum, 1, /*distinct=*/true));
  specs.push_back(Agg(AggFunc::kCount, 2, /*distinct=*/true));
  specs.push_back(Agg(AggFunc::kCount, -1, /*distinct=*/true));
  return specs;
}

/// Rows (k, x, d): k over [0, 9] or NULL, x int64 or NULL, d a
/// non-dyadic double or NULL, so float sums depend on fold order.
std::vector<Row> GroupRows(Rng* rng, size_t n) {
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(
        Row{rng->Bernoulli(0.1) ? Value::Null()
                                : Value::Int64(rng->UniformInt(0, 9)),
            rng->Bernoulli(0.2) ? Value::Null()
                                : Value::Int64(rng->UniformInt(-50, 50)),
            rng->Bernoulli(0.2)
                ? Value::Null()
                : Value::Double(rng->UniformInt(-1000, 1000) / 7.0)});
  }
  return rows;
}

/// Same type and same bits (doubles compared by representation).
void ExpectBitIdentical(const Value& a, const Value& b) {
  ASSERT_EQ(a.type(), b.type()) << a.ToString() << " vs " << b.ToString();
  if (a.is_double()) {
    const double x = a.double_value();
    const double y = b.double_value();
    ASSERT_EQ(std::memcmp(&x, &y, sizeof x), 0)
        << a.ToString() << " vs " << b.ToString();
  } else {
    ASSERT_TRUE(a.StructurallyEquals(b))
        << a.ToString() << " vs " << b.ToString();
  }
}

TEST(HashTableGroupByTest, ColumnFoldsMatchRowPathBitForBit) {
  Rng rng(71);
  const std::vector<Row> rows = GroupRows(&rng, 3000);
  const std::vector<AggregateSpec> specs = FoldSpecs();
  const std::vector<DataType> types{DataType::kInt64, DataType::kInt64,
                                    DataType::kDouble};
  // Reference: the Value fold, every row folded from untyped columns
  // into its group's set. The NULL key is a group of its own.
  std::map<int64_t, std::unique_ptr<AggregatorSet>> want;
  auto group_of = [](const Row& row) {
    return row[0].is_null() ? int64_t{-1} : row[0].int64_value();
  };
  std::vector<AggregatorSet*> want_sets;
  for (const Row& row : rows) {
    auto& set = want[group_of(row)];
    if (set == nullptr) set = std::make_unique<AggregatorSet>(&specs);
    want_sets.push_back(set.get());
  }
  ASSERT_TRUE(AggregatorSet::AccumulateGrouped(
                  RowBatch::FromRows(rows, /*typed=*/false),
                  want_sets.data(), nullptr)
                  .ok());
  // Grouped folds over every batch form, fed in chunks of 100 rows so
  // each group spans batches.
  ColumnStore borrowed;
  const std::vector<RowBatch> forms = ProbeForms(&rows, types, &borrowed);
  for (size_t f = 0; f < 3; ++f) {
    SCOPED_TRACE("batch form " + std::to_string(f));
    std::map<int64_t, std::unique_ptr<AggregatorSet>> got;
    for (uint32_t begin = 0; begin < rows.size(); begin += 100) {
      std::vector<uint32_t> sel;
      for (uint32_t i = begin; i < begin + 100 && i < rows.size(); ++i) {
        sel.push_back(i);
      }
      const RowBatch batch = forms[f].ShareWithSelection(sel);
      std::vector<AggregatorSet*> sets;
      for (uint32_t i : sel) {
        auto& set = got[group_of(rows[i])];
        if (set == nullptr) set = std::make_unique<AggregatorSet>(&specs);
        sets.push_back(set.get());
      }
      ASSERT_TRUE(
          AggregatorSet::AccumulateGrouped(batch, sets.data(), nullptr)
              .ok());
    }
    ASSERT_EQ(got.size(), want.size());
    for (const auto& [key, set] : want) {
      std::vector<ColumnVector> a(specs.size(), ColumnVector::Untyped());
      std::vector<ColumnVector> b(specs.size(), ColumnVector::Untyped());
      ASSERT_TRUE(set->FinalizeInto(a.data()).ok());
      ASSERT_TRUE(got.at(key)->FinalizeInto(b.data()).ok());
      for (size_t j = 0; j < specs.size(); ++j) {
        SCOPED_TRACE("group " + std::to_string(key) + ", " +
                     specs[j].ToString());
        ASSERT_EQ(a[j].size(), 1u);
        ASSERT_EQ(b[j].size(), 1u);
        ExpectBitIdentical(a[j].GetValue(0), b[j].GetValue(0));
      }
    }
  }
}

TEST(HashTableGroupByTest, MixedExtremeTypesKeepOrderCompare) {
  // A MIN over int64 that later meets a double column (or the reverse)
  // must fold exactly like the Value fold's OrderCompare over untyped
  // columns.
  std::vector<AggregateSpec> specs{Agg(AggFunc::kMin, 0),
                                   Agg(AggFunc::kMax, 0)};
  AggregatorSet value_fold(&specs);
  AggregatorSet columns(&specs);
  const std::vector<std::vector<Row>> chunks{
      {Row{Value::Int64(5)}, Row{Value::Int64(-2)}},
      {Row{Value::Double(-2.5)}, Row{Value::Double(7.25)}},
      {Row{Value::Int64(-3)}, Row{Value::Int64(9)}}};
  for (const std::vector<Row>& chunk : chunks) {
    ColumnStore store;
    store.columns.emplace_back(chunk[0][0].type());
    for (const Row& row : chunk) store.AppendRow(row);
    const RowBatch batch = RowBatch::FromColumns(std::move(store));
    std::vector<AggregatorSet*> sets(chunk.size(), &columns);
    ASSERT_TRUE(
        AggregatorSet::AccumulateGrouped(batch, sets.data(), nullptr)
            .ok());
    std::vector<AggregatorSet*> value_sets(chunk.size(), &value_fold);
    ASSERT_TRUE(AggregatorSet::AccumulateGrouped(
                    RowBatch::FromRows(chunk, /*typed=*/false),
                    value_sets.data(), nullptr)
                    .ok());
  }
  std::vector<ColumnVector> a(specs.size(), ColumnVector::Untyped());
  std::vector<ColumnVector> b(specs.size(), ColumnVector::Untyped());
  ASSERT_TRUE(value_fold.FinalizeInto(a.data()).ok());
  ASSERT_TRUE(columns.FinalizeInto(b.data()).ok());
  ExpectBitIdentical(a[0].GetValue(0), b[0].GetValue(0));
  ExpectBitIdentical(a[1].GetValue(0), b[1].GetValue(0));
}

/// Loads g(k, x, d), h(x, d) and m(k1, k2, k3, x, d): dyadic doubles
/// (multiples of 1/4), so every sum is exact in any fold order and a
/// brute-force reference can check the 4-thread partial merge exactly.
/// m's three int64 keys range over [0, 3] with 20 % NULLs each.
void LoadGroupTables(Database* db, uint64_t seed) {
  Rng rng(seed);
  auto load = [&](const std::string& name, int keys, int rows) {
    Schema schema;
    if (keys == 1) schema.AddColumn({"k", DataType::kInt64, ""});
    for (int j = 1; keys > 1 && j <= keys; ++j) {
      schema.AddColumn({"k" + std::to_string(j), DataType::kInt64, ""});
    }
    schema.AddColumn({name + "x", DataType::kInt64, ""});
    schema.AddColumn({name + "d", DataType::kDouble, ""});
    auto table = db->CreateTable(name, std::move(schema));
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    std::vector<Row> data;
    for (int i = 0; i < rows; ++i) {
      Row row;
      if (keys == 1) {
        row.push_back(rng.Bernoulli(0.1)
                          ? Value::Null()
                          : Value::Int64(rng.UniformInt(0, 12)));
      }
      for (int j = 0; keys > 1 && j < keys; ++j) {
        row.push_back(rng.Bernoulli(0.2) ? Value::Null()
                                         : Value::Int64(rng.UniformInt(0, 3)));
      }
      row.push_back(rng.Bernoulli(0.2) ? Value::Null()
                                       : Value::Int64(rng.UniformInt(0, 30)));
      row.push_back(rng.Bernoulli(0.2)
                        ? Value::Null()
                        : Value::Double(rng.UniformInt(-400, 400) / 4.0));
      data.push_back(std::move(row));
    }
    ASSERT_TRUE((*table)->AppendUnchecked(std::move(data)).ok());
  };
  load("g", /*keys=*/1, 2000);
  load("h", /*keys=*/0, 150);
  load("m", /*keys=*/3, 2000);
}

/// Brute-force reference for `SELECT <keys>, FoldSelect(x, d)` over
/// `rows` of (the `key_width` keys, x, d).
std::vector<Row> BruteForceGroups(const std::vector<Row>& rows,
                                  size_t key_width = 1) {
  std::map<Row, std::vector<Row>, RowLess> groups;
  for (const Row& row : rows) {
    // Members keep (placeholder, x, d), the one-key layout read below.
    groups[Row(row.begin(), row.begin() + key_width)].push_back(
        Row{Value::Null(), row[key_width], row[key_width + 1]});
  }
  std::vector<Row> out;
  for (const auto& [key, members] : groups) {
    Row result = key;
    result.push_back(Value::Int64(static_cast<int64_t>(members.size())));
    int64_t count_x = 0;
    for (const Row& r : members) count_x += r[1].is_null() ? 0 : 1;
    result.push_back(Value::Int64(count_x));
    for (size_t c : {size_t{1}, size_t{2}}) {
      int64_t n = 0;
      int64_t isum = 0;
      double dsum = 0;
      Value lo, hi;
      for (const Row& r : members) {
        const Value& v = r[c];
        if (v.is_null()) continue;
        ++n;
        if (v.is_int64()) isum += v.int64_value();
        dsum += v.AsDouble();
        if (lo.is_null() || v.OrderCompare(lo) < 0) lo = v;
        if (hi.is_null() || v.OrderCompare(hi) > 0) hi = v;
      }
      result.push_back(n == 0 ? Value::Null()
                              : c == 1 ? Value::Int64(isum)
                                       : Value::Double(dsum));
      result.push_back(n == 0 ? Value::Null()
                              : Value::Double(dsum / static_cast<double>(n)));
      result.push_back(lo);
      result.push_back(hi);
    }
    std::set<int64_t> xs;
    std::set<double> ds;
    for (const Row& r : members) {
      if (!r[1].is_null()) xs.insert(r[1].int64_value());
      if (!r[2].is_null()) ds.insert(r[2].double_value());
    }
    int64_t xs_sum = 0;
    for (int64_t x : xs) xs_sum += x;
    result.push_back(xs.empty() ? Value::Null() : Value::Int64(xs_sum));
    result.push_back(Value::Int64(static_cast<int64_t>(ds.size())));
    out.push_back(std::move(result));
  }
  return out;
}

/// The select list BruteForceGroups() computes, over columns `x`, `d`.
std::string FoldSelect(const std::string& x, const std::string& d) {
  return "COUNT(*), COUNT(" + x + "), SUM(" + x + "), AVG(" + x +
         "), MIN(" + x + "), MAX(" + x + "), SUM(" + d + "), AVG(" + d +
         "), MIN(" + d + "), MAX(" + d + "), SUM(DISTINCT " + x +
         "), COUNT(DISTINCT " + d + ")";
}

// The grouping of a borrowed scan and of column-only join output, at 1
// and 4 threads (the per-worker partials merged at finish), equals a
// brute-force reference exactly — over one int64 key, and over two and
// three int64 keys with NULLs, which resolve as packed keys.
TEST(HashTableParallelGroupBy, ScanAndJoinOutputMatchBruteForce) {
  Database db;
  LoadGroupTables(&db, /*seed=*/73);
  const Table* g = *db.catalog()->GetTable("g");
  const Table* h = *db.catalog()->GetTable("h");
  const Table* m = *db.catalog()->GetTable("m");
  std::vector<Row> scan_rows = testing_util::TableRows(*g);
  std::vector<Row> m3_rows = testing_util::TableRows(*m);
  const std::vector<Row> h_rows = testing_util::TableRows(*h);
  std::vector<Row> m2_rows;
  for (const Row& r : m3_rows) m2_rows.push_back(Row{r[0], r[1], r[3], r[4]});
  std::vector<Row> join_rows;
  for (const Row& gr : scan_rows) {
    for (const Row& hr : h_rows) {
      if (!gr[1].is_null() && gr[1].StructurallyEquals(hr[0])) {
        join_rows.push_back(Row{gr[0], hr[0], hr[1]});
      }
    }
  }
  struct GroupText {
    std::string sql;
    const std::vector<Row>* rows;
    size_t key_width = 1;
  };
  const GroupText texts[] = {
      {"SELECT k, " + FoldSelect("gx", "gd") + " FROM g GROUP BY k",
       &scan_rows},
      {"SELECT k, " + FoldSelect("hx", "hd") +
           " FROM g, h WHERE gx = hx GROUP BY k",
       &join_rows},
      {"SELECT k1, k2, " + FoldSelect("mx", "md") +
           " FROM m GROUP BY k1, k2",
       &m2_rows, 2},
      {"SELECT k1, k2, k3, " + FoldSelect("mx", "md") +
           " FROM m GROUP BY k1, k2, k3",
       &m3_rows, 3},
  };
  for (const GroupText& t : texts) {
    SCOPED_TRACE(t.sql);
    const std::vector<Row> want = BruteForceGroups(*t.rows, t.key_width);
    for (int threads : {1, 4}) {
      for (size_t batch_size : {size_t{7}, size_t{1024}}) {
        QueryOptions opts;
        opts.num_threads = threads;
        opts.batch_size = batch_size;
        if (threads > 1) opts.morsel_size = 64;
        auto got = db.Query(t.sql, opts);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_NE(got->physical_plan.find("HashGroupBy"), std::string::npos)
            << got->physical_plan;
        EXPECT_TRUE(RowMultisetsEqual(want, got->rows))
            << "threads " << threads << ", batch " << batch_size
            << "\nplan:\n" << got->physical_plan;
      }
    }
  }
}


// ------------------------------------------ NULL and its hash twin

/// The int64 whose HashInt64Key is kNullKeyHash: the splitmix64
/// finalizer is a bijection, so it is inverted step by step.
int64_t NullHashTwin() {
  auto unxorshift = [](uint64_t y, int shift) {
    uint64_t x = y;
    for (int i = 0; i <= 64 / shift; ++i) x = y ^ (x >> shift);
    return x;
  };
  auto inverse = [](uint64_t c) {  // of an odd c, by Newton mod 2^64
    uint64_t inv = c;
    for (int i = 0; i < 6; ++i) inv *= 2 - c * inv;
    return inv;
  };
  uint64_t h = unxorshift(kNullKeyHash, 31) * inverse(0x94d049bb133111ebULL);
  h = unxorshift(h, 27) * inverse(0xbf58476d1ce4e5b9ULL);
  return static_cast<int64_t>(unxorshift(h, 30) - 0x9e3779b97f4a7c15ULL);
}

// NULL and the int64 k hashing to kNullKeyHash share a slot hash, so a
// width-1 index may resolve by hash alone only while it stores no NULL:
// grouping and DISTINCT keep NULL and k apart, and a join on k matches k
// and never a NULL probe.
TEST(HashTableNullHashTest, NullAndItsHashTwinStayTwoKeys) {
  const int64_t k = NullHashTwin();
  ASSERT_EQ(HashInt64Key(k), kNullKeyHash);
  for (bool null_first : {true, false}) {
    SCOPED_TRACE(null_first ? "NULL first" : "k first");
    KeyIndex index;
    const Value first = null_first ? Value::Null() : Value::Int64(k);
    const Value second = null_first ? Value::Int64(k) : Value::Null();
    EXPECT_TRUE(index.FindOrInsert(first).second);
    EXPECT_TRUE(index.FindOrInsert(second).second);
    EXPECT_FALSE(index.FindOrInsert(first).second);
    ASSERT_EQ(index.size(), 2u);
    EXPECT_TRUE(index.packed());
    const uint32_t null_id = null_first ? 0 : 1;
    EXPECT_EQ(index.Find(Value::Null()), null_id);
    EXPECT_EQ(index.Find(Value::Int64(k)), 1 - null_id);
    // A typed column resolves each row to its own key.
    ColumnStore store;
    store.columns.emplace_back(DataType::kInt64);
    store.AppendRow(Row{Value::Int64(k)});
    store.AppendRow(Row{Value::Null()});
    const RowBatch batch = RowBatch::FromColumns(std::move(store));
    std::vector<uint32_t> found(2, KeyIndex::kNone);
    KeyScratch scratch;
    index.FindBatch(batch, {0}, &scratch,
                    [&](size_t i, uint32_t id) { found[i] = id; });
    EXPECT_EQ(found[0], 1 - null_id);
    EXPECT_EQ(found[1], null_id);
  }

  Database db;
  for (const char* name : {"t", "u"}) {
    Schema schema;
    schema.AddColumn({name == std::string("t") ? "a" : "b", DataType::kInt64,
                      ""});
    auto table = db.CreateTable(name, std::move(schema));
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    std::vector<Row> rows{Row{Value::Int64(k)}};
    if (name == std::string("t")) {
      rows = {Row{Value::Null()}, Row{Value::Int64(k)}, Row{Value::Int64(k)},
              Row{Value::Null()}, Row{Value::Null()}};
    }
    ASSERT_TRUE((*table)->AppendUnchecked(std::move(rows)).ok());
  }
  const Value kv = Value::Int64(k);
  const Value null = Value::Null();
  struct Case {
    const char* sql;
    std::vector<Row> want;
  };
  const Case cases[] = {
      {"SELECT a, COUNT(*) FROM t GROUP BY a",
       {Row{null, Value::Int64(3)}, Row{kv, Value::Int64(2)}}},
      {"SELECT DISTINCT a FROM t", {Row{null}, Row{kv}}},
      {"SELECT a FROM t, u WHERE a = b", {Row{kv}, Row{kv}}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.sql);
    auto got = db.Query(c.sql, QueryOptions{});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_TRUE(RowMultisetsEqual(c.want, got->rows));
  }

  // The join table itself, probed in every batch form.
  const std::vector<Row> build{Row{kv}};
  JoinHashTable table;
  table.Build(ToColumns(build), {0});
  const std::vector<Row> probe{Row{null}, Row{kv}, Row{null}, Row{kv}};
  CheckProbeForms(table, probe, {DataType::kInt64}, {0},
                  BuildJoinOracle(build, {0}));
  JoinProbeScratch scratch;
  table.ProbeBatch(RowBatch::FromRows(std::vector<Row>(probe)), {0},
                   &scratch);
  const std::vector<JoinMatches> matches = ExpandHits(scratch, probe.size());
  EXPECT_EQ(matches[0].count, 0u);
  EXPECT_EQ(matches[1].count, 1u);
}

}  // namespace
}  // namespace bypass
