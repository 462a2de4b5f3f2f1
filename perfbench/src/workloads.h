// The benchmark's four workloads (fig7, serving, codegen, spill). Each
// run sets up its data from the seed, measures for a fixed time, and
// checks results against the canonical nested-loop evaluator on a
// downscaled instance. Query times are reported at a reference host
// speed (see SpeedProbe). A traced run additionally records one span per
// public library call it wraps and reports per-layer metrics.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for span files and spill/codegen scratch (inside the
  /// benchmark's build tree).
  std::string out_dir;
  unsigned nproc = 1;
};

struct RunResult {
  /// False when the workload could not be measured at all (no result
  /// line is printed then); failed operations still yield ok == true.
  bool ok = true;
  std::string error;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  /// End-to-end metrics (untraced run) or per-layer metrics (traced).
  std::vector<Metric> metrics;
  /// Threads each query or client asks for.
  int query_threads = 1;
  int clients = 1;
  /// Metrics measured with more threads than the host has CPUs.
  std::vector<std::string> not_measurable;
  /// Workload-specific report lines (already-formatted JSON members).
  std::vector<std::string> report_members;
};

const std::vector<std::string>& WorkloadNames();
RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
