#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

// ------------------------------------------------------------ randomness

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

int64_t Rng::Uniform(int64_t lo, int64_t hi) {
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  return lo + static_cast<int64_t>(span == 0 ? Next() : Next() % span);
}

uint64_t MixSeed(uint64_t seed, uint64_t tag) {
  Rng rng(seed ^ (tag * 0xd6e8feb86659fd93ULL));
  return rng.Next();
}

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double total = 0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

std::vector<AnalyzeEvent> AnalyzeSchedule(uint64_t seed, size_t num_tables,
                                          size_t count, int64_t min_gap,
                                          int64_t max_gap) {
  Rng rng(MixSeed(seed, 0xa11a));
  std::vector<AnalyzeEvent> events;
  events.reserve(count);
  uint64_t at = 0;
  size_t table = static_cast<size_t>(
      rng.Uniform(0, static_cast<int64_t>(num_tables) - 1));
  for (size_t i = 0; i < count; ++i) {
    at += static_cast<uint64_t>(rng.Uniform(min_gap, max_gap));
    events.push_back({at, table});
    table = (table + 1) % num_tables;
  }
  return events;
}

// ------------------------------------------------------------ host speed

namespace {
constexpr size_t kCacheTableSlots = size_t{1} << 18;   // 2 MiB: one L2
constexpr size_t kMemoryTableSlots = size_t{1} << 25;  // 256 MiB
constexpr int kCacheLookups = 1 << 19;
constexpr int kMemoryLookups = 1 << 17;
constexpr size_t kSortValues = size_t{1} << 15;
constexpr size_t kMapKeys = size_t{1} << 13;

/// Sums `lookups` random slots of `table` (whose size is a power of
/// two); the address stream does not depend on the loaded values, so
/// the loads overlap as a hash-join probe's do.
uint64_t ProbeTable(const std::vector<uint64_t>& table, int lookups,
                    uint64_t x) {
  const size_t mask = table.size() - 1;
  uint64_t acc = 0;
  for (int i = 0; i < lookups; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    acc += table[(x >> 24) & mask] ^ (acc >> 7);
  }
  return acc;
}

}  // namespace

SpeedProbe::SpeedProbe()
    : cache_table_(kCacheTableSlots), memory_table_(kMemoryTableSlots) {
  Rng rng(0x5eed);
  for (uint64_t& slot : cache_table_) slot = rng.Next();
  for (uint64_t& slot : memory_table_) slot = rng.Next();
}

double SpeedProbe::Run() {
  const auto start = Clock::now();
  sink_ += ProbeTable(cache_table_, kCacheLookups, sink_ | 1);
  sink_ += ProbeTable(memory_table_, kMemoryLookups, sink_ | 1);
  std::vector<uint64_t> values(cache_table_.begin(),
                               cache_table_.begin() + kSortValues);
  for (uint64_t& v : values) v ^= sink_;
  std::sort(values.begin(), values.end());
  sink_ += values[kSortValues / 2];
  // Short strings in a node-based map: small allocations and pointer
  // chasing, as parsing and planning do.
  std::map<std::string, uint64_t> names;
  for (size_t i = 0; i < kMapKeys; ++i) {
    names.emplace("col_" + std::to_string(values[i] % 100000), i);
  }
  for (size_t i = 0; i < kMapKeys; ++i) {
    const auto it = names.find("col_" + std::to_string(values[i * 2] % 100000));
    if (it != names.end()) sink_ += it->second;
  }
  return Seconds(start, Clock::now());
}

// ------------------------------------------------------------ statistics

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()) / 100.0);
  const size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<size_t>(rank)) - 1;
  return values[index];
}

double SupportedPercentile(size_t n, double wanted) {
  for (const double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (p > wanted) continue;
    const double rank = std::ceil(p * static_cast<double>(n) / 100.0);
    if (static_cast<double>(n) - rank >= 10.0) return p;
  }
  return 50.0;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double total = 0;
  for (const double v : values) total += v;
  return total / static_cast<double>(values.size());
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// ----------------------------------------------------------- correctness

namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

}  // namespace

std::string Fingerprint::ToString() const {
  char buf[80];
  std::snprintf(buf, sizeof(buf), "%llu/%016llx/%016llx",
                static_cast<unsigned long long>(rows),
                static_cast<unsigned long long>(sum),
                static_cast<unsigned long long>(xor_all));
  return buf;
}

Fingerprint FingerprintRows(const std::vector<bypass::Row>& rows) {
  Fingerprint fp;
  fp.rows = rows.size();
  for (const bypass::Row& row : rows) {
    uint64_t h = 0x84222325cbf29ce4ULL;
    for (const bypass::Value& v : row) {
      h = Mix(h ^ static_cast<uint64_t>(v.Hash()));
    }
    h = Mix(h + row.size());
    fp.sum += h;
    fp.xor_all ^= Mix(h ^ 0x5bd1e995ULL);
  }
  return fp;
}

// --------------------------------------------------------------- tracing

uint64_t SpanRecorder::NewQueryId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_query_++;
}

uint64_t SpanRecorder::ReserveId() {
  if (!enabled_) return 0;
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

uint64_t SpanRecorder::Record(const std::string& name, uint64_t parent,
                              uint64_t query_id, Clock::time_point start,
                              Clock::time_point end) {
  const uint64_t id = ReserveId();
  RecordWithId(id, name, parent, query_id, start, end);
  return id;
}

void SpanRecorder::RecordWithId(uint64_t id, const std::string& name,
                                uint64_t parent, uint64_t query_id,
                                Clock::time_point start,
                                Clock::time_point end) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.id = id;
  span.parent = parent;
  span.query_id = query_id;
  span.start_us = Seconds(origin_, start) * 1e6;
  span.end_us = Seconds(origin_, end) * 1e6;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> SpanRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  char buf[256];
  for (const Span& s : Snapshot()) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                  "\"query\":%llu,\"start_us\":%.3f,\"end_us\":%.3f}\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.query_id), s.start_us,
                  s.end_us);
    out << buf;
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
