// Measurement harness of the paper-query benchmark: seeded generators,
// the percentile rule, order-independent result fingerprints, and the
// in-memory span recorder of the traced run. Everything here is
// independent of which workload runs; harness_test.cc checks it.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "types/row.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady_clock points, at the clock's resolution.
inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// ------------------------------------------------------------ randomness

/// SplitMix64: a tiny generator whose sequence depends only on its seed,
/// so a seed names the same inputs on every platform and library.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1p-53; }
  /// Uniform in [lo, hi] (inclusive; requires lo <= hi).
  int64_t Uniform(int64_t lo, int64_t hi);

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from a base seed and a tag.
uint64_t MixSeed(uint64_t seed, uint64_t tag);

/// Deterministic Fisher-Yates shuffle driven by `rng`.
template <typename T>
void Shuffle(std::vector<T>* items, Rng* rng) {
  for (size_t i = items->size(); i > 1; --i) {
    const size_t j = static_cast<size_t>(rng->Uniform(0, static_cast<int64_t>(i) - 1));
    std::swap((*items)[i - 1], (*items)[j]);
  }
}

/// Zipf(s) over ranks 0..n-1 (rank 0 most frequent), sampled by binary
/// search over the cumulative weights.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// One ANALYZE in the serving workload: issued by client 0 after its
/// `after_query`-th query (1-based), on table `table_index` of the
/// workload's rotation.
struct AnalyzeEvent {
  uint64_t after_query = 0;
  size_t table_index = 0;
};

/// The seeded ANALYZE schedule: gaps drawn uniformly from
/// [min_gap, max_gap] queries, tables visited in rotation starting at a
/// seeded offset. `count` events are generated up front.
std::vector<AnalyzeEvent> AnalyzeSchedule(uint64_t seed, size_t num_tables,
                                          size_t count, int64_t min_gap,
                                          int64_t max_gap);

// ------------------------------------------------------------ statistics

/// Nearest-rank percentile `p` (0 < p <= 100) of `values` (unsorted).
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

/// The percentile rule: of the ladder 99.9, 99, 95, 90, 75, the highest
/// percentile not above `wanted` that has at least ten samples beyond its
/// nearest rank among `n` samples; 50 when none does.
double SupportedPercentile(size_t n, double wanted);

/// Arithmetic mean; 0 for an empty vector.
double Mean(const std::vector<double>& values);

/// `v` with all its significant digits, as a JSON number (non-finite
/// values, which JSON cannot hold, print as 0).
std::string JsonNumber(double v);

// ------------------------------------------------------------ host speed

/// A fixed kernel independent of the library, shaped like query work:
/// random probes into a 2 MiB and a 256 MiB table, a sort of 32k values,
/// and a map of 8k short strings built and probed. The host this runs on
/// is shared, and its speed drifts by tens of percent over seconds to
/// minutes; the kernel, timed next to the queries, tracks that drift so
/// query times can be scaled to a fixed host speed.
class SpeedProbe {
 public:
  SpeedProbe();
  /// Runs the kernel once and returns its wall time in seconds.
  double Run();

 private:
  std::vector<uint64_t> cache_table_;
  std::vector<uint64_t> memory_table_;
  uint64_t sink_ = 0;
};

// ----------------------------------------------------------- correctness

/// Row count plus two order-independent combinations (sum and xor) of
/// mixed per-row hashes: equal multisets give equal fingerprints in any
/// row order.
struct Fingerprint {
  uint64_t rows = 0;
  uint64_t sum = 0;
  uint64_t xor_all = 0;
  bool operator==(const Fingerprint& other) const {
    return rows == other.rows && sum == other.sum &&
           xor_all == other.xor_all;
  }
  bool operator!=(const Fingerprint& other) const { return !(*this == other); }
  std::string ToString() const;
};

Fingerprint FingerprintRows(const std::vector<bypass::Row>& rows);

// --------------------------------------------------------------- tracing

/// One recorded call: a layer boundary the benchmark wraps. `parent` is
/// the id of the enclosing span (0 for roots); spans of one query share
/// `query_id` (0 for set-up work).
struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t query_id = 0;
  double start_us = 0;  ///< since the recorder was created
  double end_us = 0;
  double duration_us() const { return end_us - start_us; }
};

/// Keeps spans in memory (thread-safe); written out once at the end.
/// A disabled recorder hands out id 0 and records nothing.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled)
      : enabled_(enabled), origin_(Clock::now()) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  uint64_t NewQueryId();
  /// Records a finished span and returns its id.
  uint64_t Record(const std::string& name, uint64_t parent,
                  uint64_t query_id, Clock::time_point start,
                  Clock::time_point end);
  /// Reserves an id for a span whose children finish before it does.
  uint64_t ReserveId();
  void RecordWithId(uint64_t id, const std::string& name, uint64_t parent,
                    uint64_t query_id, Clock::time_point start,
                    Clock::time_point end);

  std::vector<Span> Snapshot() const;
  /// Writes one JSON object per line.
  bool WriteJsonLines(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  uint64_t next_id_ = 1;     // guarded by mu_
  uint64_t next_query_ = 1;  // guarded by mu_
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
