// Self-tests of the benchmark harness: the percentile rule, the
// order-independence of result fingerprints, and the determinism of the
// seeded traffic (Zipf text choice and ANALYZE schedule). Exits non-zero
// on the first failed check; run.py runs it before every measurement.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_selftest: FAILED %s\n", what);
    ++failures;
  }
}

void TestPercentileRule() {
  using perfbench::SupportedPercentile;
  // p99 needs ten samples beyond its nearest rank: n - ceil(0.99 n) >= 10.
  Expect(SupportedPercentile(1000, 99) == 99, "p99 supported at n=1000");
  Expect(SupportedPercentile(999, 99) == 95, "p99 unsupported at n=999");
  Expect(SupportedPercentile(10000, 99) == 99, "wanted caps the ladder");
  Expect(SupportedPercentile(10000, 99.9) == 99.9, "p99.9 at n=10000");
  Expect(SupportedPercentile(200, 99) == 95, "p95 at n=200");
  Expect(SupportedPercentile(100, 99) == 90, "p90 at n=100");
  Expect(SupportedPercentile(40, 99) == 75, "p75 at n=40");
  Expect(SupportedPercentile(5, 99) == 50, "median when nothing fits");

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Expect(perfbench::Percentile(v, 50) == 50, "nearest-rank median");
  Expect(perfbench::Percentile(v, 99) == 99, "nearest-rank p99");
  Expect(perfbench::Percentile(v, 100) == 100, "p100 is the maximum");
  Expect(perfbench::Percentile({}, 50) == 0, "empty input");
}

void TestFingerprintIgnoresOrder() {
  using bypass::Row;
  using bypass::Value;
  std::vector<Row> rows = {
      {Value::Int64(1), Value::String("a"), Value::Null()},
      {Value::Int64(2), Value::String("b"), Value::Double(2.5)},
      {Value::Int64(2), Value::String("b"), Value::Double(2.5)},
      {Value::Int64(3), Value::String("c"), Value::Int64(7)},
  };
  const perfbench::Fingerprint fp = perfbench::FingerprintRows(rows);
  std::vector<Row> reversed(rows.rbegin(), rows.rend());
  Expect(perfbench::FingerprintRows(reversed) == fp, "reversed rows");
  perfbench::Rng rng(3);
  perfbench::Shuffle(&rows, &rng);
  Expect(perfbench::FingerprintRows(rows) == fp, "shuffled rows");

  std::vector<Row> dropped = rows;
  dropped.pop_back();
  Expect(perfbench::FingerprintRows(dropped) != fp, "missing row differs");
  std::vector<Row> swapped_cells = {
      {Value::Int64(1), Value::String("a")},
      {Value::Int64(2), Value::String("b")},
  };
  std::vector<Row> swapped_rows = {
      {Value::Int64(1), Value::String("b")},
      {Value::Int64(2), Value::String("a")},
  };
  Expect(perfbench::FingerprintRows(swapped_cells) !=
             perfbench::FingerprintRows(swapped_rows),
         "cells moved between rows differ");
  std::vector<Row> duplicated = {rows[0], rows[0]};
  std::vector<Row> distinct = {rows[0], rows[1]};
  Expect(perfbench::FingerprintRows(duplicated) !=
             perfbench::FingerprintRows(distinct),
         "multiplicity matters");
}

std::vector<size_t> Draws(uint64_t seed, size_t count) {
  const perfbench::ZipfSampler zipf(150, 0.9);
  perfbench::Rng rng(perfbench::MixSeed(seed, 100));
  std::vector<size_t> out;
  for (size_t i = 0; i < count; ++i) out.push_back(zipf.Sample(&rng));
  return out;
}

void TestSeededTrafficIsDeterministic() {
  Expect(Draws(42, 5000) == Draws(42, 5000), "same seed, same Zipf draws");
  Expect(Draws(42, 5000) != Draws(43, 5000), "new seed, new Zipf draws");
  const std::vector<size_t> draws = Draws(7, 20000);
  size_t top = 0;
  size_t tail = 0;
  for (const size_t d : draws) {
    Expect(d < 150, "draw in range");
    top += d == 0;
    tail += d == 149;
  }
  Expect(top > 10 * tail, "rank 0 dominates the last rank");

  const auto a = perfbench::AnalyzeSchedule(42, 11, 500, 200, 400);
  const auto b = perfbench::AnalyzeSchedule(42, 11, 500, 200, 400);
  const auto c = perfbench::AnalyzeSchedule(43, 11, 500, 200, 400);
  bool same = a.size() == b.size();
  bool differs = false;
  for (size_t i = 0; same && i < a.size(); ++i) {
    same = a[i].after_query == b[i].after_query &&
           a[i].table_index == b[i].table_index;
    differs = differs || a[i].after_query != c[i].after_query;
  }
  Expect(same, "same seed, same ANALYZE schedule");
  Expect(differs, "new seed, new ANALYZE schedule");
  for (size_t i = 1; i < a.size(); ++i) {
    const uint64_t gap = a[i].after_query - a[i - 1].after_query;
    Expect(gap >= 200 && gap <= 400, "ANALYZE gap within bounds");
    Expect(a[i].table_index == (a[i - 1].table_index + 1) % 11,
           "ANALYZE tables rotate");
  }
}

}  // namespace

int main() {
  TestPercentileRule();
  TestFingerprintIgnoresOrder();
  TestSeededTrafficIsDeterministic();
  if (failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
