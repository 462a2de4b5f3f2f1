// Hash-operator microbenchmarks (google-benchmark) for the PR 4 flat
// open-addressing tables. Every benchmark is paired: the *Flat variants
// run the shipped structures (JoinHashTable, FlatRowMap), the *Unordered
// variants run in-binary replicas of the previous node-based tables
// (std::unordered_map over RowKeyHash/RowKeyEq, exactly the PR 3 layout),
// so the speedup is measured inside one binary with identical data and
// compiler flags. run_benchmarks.sh reports flat-vs-unordered ratios per
// pair, including a probe match-rate sweep from 1% to 100%.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/flat_table.h"
#include "common/rng.h"
#include "exec/join.h"
#include "types/row.h"
#include "types/row_batch.h"

namespace {

using bypass::ColumnStore;
using bypass::FlatRowMap;
using bypass::JoinHashTable;
using bypass::JoinMatches;
using bypass::JoinProbeScratch;
using bypass::ProjectRow;
using bypass::Rng;
using bypass::Row;
using bypass::RowBatch;
using bypass::RowKeyEq;
using bypass::RowKeyHash;
using bypass::RowSlotsRef;
using bypass::Value;

constexpr size_t kBuildRows = 65536;
constexpr size_t kProbeRows = 65536;
constexpr size_t kNumKeys = 16384;  // ~4 rows per key
constexpr size_t kGroupRows = 65536;
constexpr size_t kNumGroups = 1024;

/// The PR 3 join index layout: one node-based map from key row to the
/// list of matching build-row indices.
using UnorderedJoinIndex =
    std::unordered_map<Row, std::vector<uint32_t>, RowKeyHash, RowKeyEq>;

const std::vector<int>& KeySlots() {
  static const std::vector<int> slots{0};
  return slots;
}

/// Build side: kBuildRows rows of (key, payload), keys uniform over
/// kNumKeys distinct values.
const std::vector<Row>& BuildRows() {
  static const std::vector<Row>* rows = [] {
    Rng rng(4242);
    auto* r = new std::vector<Row>();
    r->reserve(kBuildRows);
    for (size_t i = 0; i < kBuildRows; ++i) {
      r->push_back(
          Row{Value::Int64(rng.UniformInt(0, kNumKeys - 1)),
              Value::Int64(static_cast<int64_t>(i))});
    }
    return r;
  }();
  return *rows;
}

/// Probe rows with `match_pct` percent of keys present in the build side
/// (misses use keys beyond the build domain).
std::vector<Row> MakeProbeRows(int match_pct) {
  Rng rng(1000 + static_cast<uint64_t>(match_pct));
  std::vector<Row> rows;
  rows.reserve(kProbeRows);
  for (size_t i = 0; i < kProbeRows; ++i) {
    const bool hit = rng.UniformInt(1, 100) <= match_pct;
    const int64_t key =
        hit ? rng.UniformInt(0, kNumKeys - 1)
            : static_cast<int64_t>(kNumKeys) + rng.UniformInt(0, kNumKeys);
    rows.push_back(Row{Value::Int64(key)});
  }
  return rows;
}

UnorderedJoinIndex BuildUnorderedIndex(const std::vector<Row>& rows) {
  UnorderedJoinIndex index;
  for (uint32_t r = 0; r < rows.size(); ++r) {
    if (rows[r][0].is_null()) continue;
    auto it = index.find(RowSlotsRef{&rows[r], &KeySlots()});
    if (it == index.end()) {
      it = index.emplace(ProjectRow(rows[r], KeySlots()),
                         std::vector<uint32_t>{})
               .first;
    }
    it->second.push_back(r);
  }
  return index;
}

// ------------------------------------------------------------ join build

void BM_JoinBuildFlat(benchmark::State& state) {
  const std::vector<Row>& rows = BuildRows();
  const ColumnStore build = RowBatch::FromRows(rows).TakeColumns();
  JoinHashTable table;
  for (auto _ : state) {
    table.Clear();
    table.Build(build, KeySlots());
    benchmark::DoNotOptimize(table.num_keys());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_JoinBuildFlat);

void BM_JoinBuildUnordered(benchmark::State& state) {
  const std::vector<Row>& rows = BuildRows();
  for (auto _ : state) {
    UnorderedJoinIndex index = BuildUnorderedIndex(rows);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_JoinBuildUnordered);

// ------------------------------------------- join probe, match-rate sweep

void BM_JoinProbeFlat(benchmark::State& state) {
  const std::vector<Row>& rows = BuildRows();
  JoinHashTable table;
  table.Build(RowBatch::FromRows(rows).TakeColumns(), KeySlots());
  const std::vector<Row> probes =
      MakeProbeRows(static_cast<int>(state.range(0)));
  // Row-at-a-time probing: each probe is a one-row batch.
  std::vector<RowBatch> batches;
  for (const Row& probe : probes) {
    batches.push_back(RowBatch::FromRows({probe}, /*typed=*/false));
  }
  JoinProbeScratch scratch;
  int64_t matches = 0;
  for (auto _ : state) {
    for (const RowBatch& batch : batches) {
      table.ProbeBatch(batch, KeySlots(), &scratch);
      for (const JoinMatches& m : scratch.hits) matches += m.count;
    }
  }
  benchmark::DoNotOptimize(matches);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(probes.size()));
}
BENCHMARK(BM_JoinProbeFlat)->Arg(1)->Arg(5)->Arg(10)->Arg(25)->Arg(50)
    ->Arg(75)->Arg(100);

void BM_JoinProbeBatchFlat(benchmark::State& state) {
  const std::vector<Row>& rows = BuildRows();
  JoinHashTable table;
  table.Build(RowBatch::FromRows(rows).TakeColumns(), KeySlots());
  RowBatch batch = RowBatch::FromRows(
      MakeProbeRows(static_cast<int>(state.range(0))), /*typed=*/false);
  JoinProbeScratch scratch;
  int64_t matches = 0;
  for (auto _ : state) {
    table.ProbeBatch(batch, KeySlots(), &scratch);
    for (const JoinMatches& m : scratch.hits) matches += m.count;
  }
  benchmark::DoNotOptimize(matches);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_JoinProbeBatchFlat)->Arg(1)->Arg(5)->Arg(10)->Arg(25)
    ->Arg(50)->Arg(75)->Arg(100);

void BM_JoinProbeUnordered(benchmark::State& state) {
  const UnorderedJoinIndex index = BuildUnorderedIndex(BuildRows());
  const std::vector<Row> probes =
      MakeProbeRows(static_cast<int>(state.range(0)));
  int64_t matches = 0;
  for (auto _ : state) {
    for (const Row& probe : probes) {
      const auto it = index.find(RowSlotsRef{&probe, &KeySlots()});
      if (it != index.end()) {
        matches += static_cast<int64_t>(it->second.size());
      }
    }
  }
  benchmark::DoNotOptimize(matches);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(probes.size()));
}
BENCHMARK(BM_JoinProbeUnordered)->Arg(1)->Arg(5)->Arg(10)->Arg(25)
    ->Arg(50)->Arg(75)->Arg(100);

// --------------------------------------------------- group-by-style upsert

/// Input rows for the grouping benchmarks: (group key, payload).
const std::vector<Row>& GroupRows() {
  static const std::vector<Row>* rows = [] {
    Rng rng(777);
    auto* r = new std::vector<Row>();
    r->reserve(kGroupRows);
    for (size_t i = 0; i < kGroupRows; ++i) {
      r->push_back(
          Row{Value::Int64(rng.UniformInt(0, kNumGroups - 1)),
              Value::Int64(rng.UniformInt(0, 1000))});
    }
    return r;
  }();
  return *rows;
}

void BM_GroupUpsertFlat(benchmark::State& state) {
  const std::vector<Row>& rows = GroupRows();
  for (auto _ : state) {
    FlatRowMap<int64_t> groups;
    for (const Row& row : rows) {
      int64_t& count = groups.FindOrEmplace(
          RowSlotsRef{&row, &KeySlots()}, [] { return int64_t{0}; });
      ++count;
    }
    benchmark::DoNotOptimize(groups.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_GroupUpsertFlat);

void BM_GroupUpsertUnordered(benchmark::State& state) {
  const std::vector<Row>& rows = GroupRows();
  for (auto _ : state) {
    std::unordered_map<Row, int64_t, RowKeyHash, RowKeyEq> groups;
    for (const Row& row : rows) {
      auto it = groups.find(RowSlotsRef{&row, &KeySlots()});
      if (it == groups.end()) {
        it = groups.emplace(ProjectRow(row, KeySlots()), 0).first;
      }
      ++it->second;
    }
    benchmark::DoNotOptimize(groups.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rows.size()));
}
BENCHMARK(BM_GroupUpsertUnordered);

}  // namespace

BENCHMARK_MAIN();
