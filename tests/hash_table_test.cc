// Differential tests for the flat open-addressing hash containers
// (common/flat_table.h) and the join hash table (exec/join.h): random
// workloads are mirrored into std::unordered_{map,set} oracles built on
// the same RowKeyHash/RowKeyEq structural semantics, and every probe must
// agree. Covers NULL keys, the int64 fast path and its downgrade (mixed
// int64/double/string keys), collision-heavy tight key domains,
// transparent RowSlotsRef probes, and growth across many rehashes.
//
// HashTableParallel* additionally exercises the parallel build path under
// a real WorkerPool and runs in the TSan label sweep (ctest -L parallel).
#include <cstdint>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/flat_table.h"
#include "common/rng.h"
#include "exec/join.h"
#include "exec/worker_pool.h"
#include "types/row.h"
#include "types/row_batch.h"

namespace bypass {
namespace {

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

  // Final sweep: every oracle entry resolves, and entries() replays the
  // exact insertion order (the determinism the emit paths rely on).
  for (const auto& [key, value] : oracle) {
    const int64_t* v = table.Find(key);
    ASSERT_NE(v, nullptr) << RowToString(key);
    ASSERT_EQ(*v, value);
  }
  ASSERT_EQ(table.entries().size(), insertion_order.size());
  for (size_t i = 0; i < insertion_order.size(); ++i) {
    ASSERT_TRUE(
        RowsStructurallyEqual(table.entries()[i].key, insertion_order[i]))
        << i;
    ASSERT_EQ(table.entries()[i].value, static_cast<int64_t>(i));
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

TEST(HashTableSetTest, DifferentialDedup) {
  Rng rng(91);
  FlatRowSet set;
  std::unordered_set<Row, RowHash, RowEq> oracle;
  std::vector<Row> first_occurrence;
  for (int op = 0; op < 6000; ++op) {
    Row row = RandomKeyRow(&rng, 1 + rng.UniformInt(0, 1) * 2, false);
    const bool fresh = oracle.insert(row).second;
    if (fresh) first_occurrence.push_back(row);
    ASSERT_EQ(set.Insert(row), fresh) << RowToString(row);
    ASSERT_EQ(set.Contains(row), true);
    ASSERT_EQ(set.size(), oracle.size());
  }
  size_t i = 0;
  set.ForEach([&](const Row& row) {
    ASSERT_LT(i, first_occurrence.size());
    ASSERT_TRUE(RowsStructurallyEqual(row, first_occurrence[i])) << i;
    ++i;
  });
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
  FlatRowSet set;
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
        ASSERT_EQ(set.Insert(rows[i]), fresh[i]) << RowToString(rows[i]);
      }
    } else {
      ColumnStore store;
      for (size_t j = 0; j < width; ++j) {
        store.columns.emplace_back(DataType::kInt64);
      }
      for (const Row& row : rows) store.AppendRow(row);
      RowBatch batch =
          round % 4 == 0
              ? RowBatch::BorrowedColumnar(&store, &rows, 0, rows.size())
              : RowBatch::FromRows(std::vector<Row>(rows));
      set.InsertBatch(&batch);
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
  set.ForEach([&](const Row& row) {
    ASSERT_LT(i, first_occurrence.size());
    ASSERT_TRUE(RowsStructurallyEqual(row, first_occurrence[i])) << i;
    ++i;
  });
  ASSERT_EQ(i, first_occurrence.size());
  for (const Row& row : first_occurrence) ASSERT_TRUE(set.Contains(row));
}

TEST(HashTableSetTest, PackedDifferentialWidthsOneToEight) {
  for (size_t width = 1; width <= 8; ++width) {
    PackedDifferentialRound(700 + width, width, /*expect_packed=*/true);
  }
}

TEST(HashTableSetTest, Width64FallsBackToGeneric) {
  PackedDifferentialRound(764, 64, /*expect_packed=*/false);
}

TEST(HashTableSetTest, NullIsNotZero) {
  FlatRowSet set;
  EXPECT_TRUE(set.Insert(Row{Value::Null()}));
  EXPECT_TRUE(set.Insert(Row{Value::Int64(0)}));
  EXPECT_FALSE(set.Insert(Row{Value::Null()}));
  EXPECT_FALSE(set.Insert(Value::Int64(0)));
  EXPECT_TRUE(set.packed());
  EXPECT_EQ(set.size(), 2u);
}

TEST(HashTableSetTest, NullPositionIsPartOfTheKey) {
  FlatRowSet set;
  EXPECT_TRUE(set.Insert(Row{Value::Null(), Value::Int64(1)}));
  EXPECT_TRUE(set.Insert(Row{Value::Int64(1), Value::Null()}));
  EXPECT_FALSE(set.Insert(Row{Value::Int64(1), Value::Null()}));
  EXPECT_FALSE(set.Insert(Row{Value::Null(), Value::Int64(1)}));
  EXPECT_TRUE(set.Insert(Row{Value::Null(), Value::Null()}));
  EXPECT_EQ(set.size(), 3u);
}

TEST(HashTableSetTest, IntThenIntegralDoubleIsOneKey) {
  FlatRowSet set;
  EXPECT_TRUE(set.Insert(Value::Int64(1)));
  EXPECT_TRUE(set.Contains(Row{Value::Double(1.0)}));
  EXPECT_FALSE(set.Insert(Value::Double(1.0)));
  EXPECT_FALSE(set.packed()) << "a double downgrades the set";
  EXPECT_EQ(set.size(), 1u);
  std::vector<Row> stored;
  set.ForEach([&](const Row& row) { stored.push_back(row); });
  ASSERT_EQ(stored.size(), 1u);
  EXPECT_TRUE(stored[0][0].is_int64()) << "the first occurrence is kept";
}

TEST(HashTableSetTest, DowngradeAfterManyIntKeysLosesNothing) {
  for (const Value& late : {Value::String("x"), Value::Double(2.5)}) {
    FlatRowSet set;
    for (int64_t k = 0; k < 10000; ++k) {
      ASSERT_TRUE(set.Insert(Row{Value::Int64(k), Value::Int64(k % 7)}));
    }
    ASSERT_TRUE(set.packed());
    ASSERT_TRUE(set.Insert(Row{Value::Int64(3), late}));
    ASSERT_FALSE(set.packed());
    ASSERT_EQ(set.size(), 10001u);
    for (int64_t k = 0; k < 10000; ++k) {
      ASSERT_FALSE(set.Insert(Row{Value::Int64(k), Value::Int64(k % 7)}))
          << k;
    }
    ASSERT_FALSE(set.Insert(Row{Value::Int64(3), late}));
    ASSERT_EQ(set.size(), 10001u);
    int64_t k = 0;
    set.ForEach([&](const Row& row) {
      if (k < 10000) {
        ASSERT_TRUE(RowsStructurallyEqual(
            row, Row{Value::Int64(k), Value::Int64(k % 7)}));
      } else {
        ASSERT_TRUE(RowsStructurallyEqual(row, Row{Value::Int64(3), late}));
      }
      ++k;
    });
    ASSERT_EQ(k, 10001);
  }
}

TEST(HashTableSetTest, ClearReelectsTheMode) {
  FlatRowSet set;
  set.Reserve(100);
  EXPECT_TRUE(set.Insert(Row{Value::String("a")}));
  EXPECT_FALSE(set.packed());
  set.Clear();
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(set.Insert(Row{Value::Int64(4), Value::Null()}));
  EXPECT_TRUE(set.packed());
  EXPECT_FALSE(set.Contains(Row{Value::String("a")}));
  set.Clear();
  EXPECT_TRUE(set.Insert(Row{Value::Bool(true)}));
  EXPECT_FALSE(set.packed());
  EXPECT_FALSE(set.Insert(Row{Value::Bool(true)}));
}

// ----------------------------------------------------------- JoinHashTable

using JoinOracle = std::unordered_map<Row, std::vector<uint32_t>,
                                      RowKeyHash, RowKeyEq>;

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
    const JoinMatches m = table.Probe(probe, probe_slots);
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
  // ProbeBatch must agree bit-for-bit with the per-row probes.
  RowBatch batch = RowBatch::FromRows(std::vector<Row>(probe_rows));
  JoinProbeScratch scratch;
  table.ProbeBatch(batch, probe_slots, &scratch);
  ASSERT_EQ(scratch.matches.size(), probe_rows.size());
  for (size_t i = 0; i < probe_rows.size(); ++i) {
    const JoinMatches single = table.Probe(probe_rows[i], probe_slots);
    ASSERT_EQ(scratch.matches[i].count, single.count) << i;
    ASSERT_EQ(scratch.matches[i].data, single.data) << i;
  }
  (void)build_rows;
  (void)key_slots;
}

void JoinFuzzRound(uint64_t seed, size_t num_build, size_t num_probe,
                   const std::vector<int>& key_slots, bool int64ish,
                   WorkerPool* pool) {
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
  table.Build(build_rows, key_slots, pool);
  const JoinOracle oracle = BuildJoinOracle(build_rows, key_slots);
  ASSERT_EQ(table.num_keys(), oracle.size());
  CheckProbesAgainstOracle(table, build_rows, key_slots, probe_rows,
                           key_slots, oracle);
}

TEST(HashTableJoinTest, DifferentialSingleInt64Key) {
  JoinFuzzRound(/*seed=*/7, 3000, 1500, {1}, /*int64ish=*/true, nullptr);
}

TEST(HashTableJoinTest, DifferentialSingleGenericKey) {
  JoinFuzzRound(/*seed=*/8, 2000, 1000, {0}, /*int64ish=*/false, nullptr);
}

TEST(HashTableJoinTest, DifferentialMultiColumnKey) {
  JoinFuzzRound(/*seed=*/9, 2000, 1000, {0, 2}, /*int64ish=*/false,
                nullptr);
  JoinFuzzRound(/*seed=*/10, 2000, 1000, {2, 0}, /*int64ish=*/true,
                nullptr);
}

TEST(HashTableJoinTest, EmptyBuildSide) {
  std::vector<Row> none;
  std::vector<int> slots{0};
  JoinHashTable table;
  table.Build(none, slots);
  EXPECT_EQ(table.num_keys(), 0u);
  const Row probe{Value::Int64(1)};
  EXPECT_TRUE(table.Probe(probe, slots).empty());
}

TEST(HashTableJoinTest, RebuildAfterClearAndModeFlip) {
  std::vector<int> slots{0};
  JoinHashTable table;
  std::vector<Row> ints;
  for (int64_t i = 0; i < 100; ++i) ints.push_back(Row{Value::Int64(i)});
  table.Build(ints, slots);
  EXPECT_EQ(table.num_keys(), 100u);
  table.Clear();
  std::vector<Row> strs;
  for (int64_t i = 0; i < 50; ++i) {
    strs.push_back(Row{Value::String(std::to_string(i))});
  }
  table.Build(strs, slots);
  EXPECT_EQ(table.num_keys(), 50u);
  const Row probe{Value::String("7")};
  EXPECT_EQ(table.Probe(probe, slots).count, 1u);
}

// -------------------------------------------------- parallel build paths

TEST(HashTableParallelTest, ParallelBuildMatchesSerialBuild) {
  Rng rng(55);
  // Big enough to cross the parallel-build threshold (4096 rows).
  const size_t n = 20000;
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Row{Value::Int64(rng.UniformInt(0, 2000)),
                       Value::Int64(static_cast<int64_t>(i))});
  }
  std::vector<int> slots{0};

  JoinHashTable serial;
  serial.Build(rows, slots, nullptr);
  WorkerPool pool(4);
  JoinHashTable parallel;
  parallel.Build(rows, slots, &pool);

  ASSERT_EQ(serial.num_keys(), parallel.num_keys());
  for (int64_t k = -5; k <= 2005; ++k) {
    const Row probe{Value::Int64(k)};
    const JoinMatches a = serial.Probe(probe, slots);
    const JoinMatches b = parallel.Probe(probe, slots);
    ASSERT_EQ(a.count, b.count) << k;
    for (uint32_t i = 0; i < a.count; ++i) {
      ASSERT_EQ(a.data[i], b.data[i]) << k;  // identical ascending spans
    }
  }
}

TEST(HashTableParallelTest, ParallelBuildGenericFallback) {
  // Mixed key shapes force the generic path even when the parallel
  // hashing pass started out optimistic about int64.
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
  serial.Build(rows, slots, nullptr);
  WorkerPool pool(4);
  JoinHashTable parallel;
  parallel.Build(rows, slots, &pool);
  ASSERT_EQ(serial.num_keys(), parallel.num_keys());
  const JoinOracle oracle = BuildJoinOracle(rows, slots);
  for (const auto& [key, span] : oracle) {
    const JoinMatches m = parallel.Probe(key, {0});
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
  table.Build(rows, slots, nullptr);

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
    for (const JoinMatches& m : scratches[t].matches) matches += m.count;
    total.fetch_add(matches, std::memory_order_relaxed);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok());
  // Every task saw the same table: totals are task-count multiples.
  EXPECT_EQ(total.load() % static_cast<int64_t>(num_tasks), 0);
  EXPECT_EQ(total.load() / static_cast<int64_t>(num_tasks),
            static_cast<int64_t>(n));
}

}  // namespace
}  // namespace bypass
