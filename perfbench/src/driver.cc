// perfbench_driver: runs one workload of the paper-query benchmark and
// prints its metrics. Usually started through run.py, which builds it:
//   perfbench_driver --workload fig7 --seed 1 --seconds 10 --trace 0
//       --out-dir DIR [--commit SHA] [--source-digest HEX]
// Human-readable lines come first; the last line of standard output is
// one JSON object {"correct", "attempted", "failed", "metrics"}. A full
// report (provenance, per-query samples, trace breakdown) is written to
// DIR/report-<workload>-seed<n>-trace<t>.json.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "harness.h"
#include "workloads.h"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

unsigned HostCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return 1;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "NAME --seed N --seconds S --trace 0|1 --out-dir DIR "
               "[--commit SHA] [--source-digest HEX]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string commit = "unknown";
  std::string digest = "unknown";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--out-dir") {
      config.out_dir = value;
    } else if (key == "--commit") {
      commit = value;
    } else if (key == "--source-digest") {
      digest = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("arguments come in pairs");
  bool known = false;
  for (const std::string& name : perfbench::WorkloadNames()) {
    known = known || name == config.workload;
  }
  if (!have_workload || !known) return Usage("unknown workload");
  if (config.seconds <= 0 || config.out_dir.empty()) {
    return Usage("--seconds must be positive and --out-dir given");
  }

  // Provenance gate: timings from unoptimized or instrumented builds are
  // not comparable, so such builds refuse to report.
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" || !kAssertsOff || kSanitized) {
    std::fprintf(stderr,
                 "perfbench_driver: refusing to report from a %s%s build; "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str(), kSanitized ? " sanitizer" : "");
    return 3;
  }
  config.nproc = HostCpus();

  const perfbench::RunResult result = perfbench::RunWorkload(config);
  if (!result.ok) {
    std::fprintf(stderr, "perfbench_driver: %s: %s\n",
                 config.workload.c_str(), result.error.c_str());
    return 1;
  }

  std::string provenance =
      "{\"build_type\": \"" + build_type + "\", \"cxx_flags\": \"" +
      Escape(PERFBENCH_CXX_FLAGS) + "\", \"compiler\": \"" +
      Escape(PERFBENCH_COMPILER) + "\", \"codegen_built\": " +
      (PERFBENCH_CODEGEN ? "true" : "false") + ", \"commit\": \"" +
      Escape(commit) + "\", \"source_digest\": \"" + Escape(digest) +
      "\", \"nproc\": " + std::to_string(config.nproc) +
      ", \"seed\": " + std::to_string(config.seed) +
      ", \"seconds\": " + perfbench::JsonNumber(config.seconds) +
      ", \"trace\": " + (config.trace ? "true" : "false") +
      ", \"query_threads\": " + std::to_string(result.query_threads) +
      ", \"clients\": " + std::to_string(result.clients) +
      ", \"not_measurable\": [";
  for (size_t i = 0; i < result.not_measurable.size(); ++i) {
    provenance += (i ? ", \"" : "\"") + result.not_measurable[i] + "\"";
  }
  provenance += "]}";

  std::string metrics = "{";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    metrics += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " +
               perfbench::JsonNumber(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  metrics += "}";
  std::string failures = "[";
  for (size_t i = 0; i < result.failures.size(); ++i) {
    failures += (i ? ", \"" : "\"") + Escape(result.failures[i]) + "\"";
  }
  failures += "]";

  const std::string report_path =
      config.out_dir + "/report-" + config.workload + "-seed" +
      std::to_string(config.seed) + "-trace" + (config.trace ? "1" : "0") +
      ".json";
  {
    std::ofstream report(report_path);
    report << "{\"workload\": \"" << config.workload
           << "\", \"provenance\": " << provenance
           << ", \"attempted\": " << result.attempted
           << ", \"failed\": " << result.failed
           << ", \"failures\": " << failures << ", \"metrics\": " << metrics;
    for (const std::string& member : result.report_members) {
      report << ", " << member;
    }
    report << "}\n";
  }

  std::printf("workload %s  seed %llu  %s run, %.1f s measured\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed),
              config.trace ? "traced" : "untraced", config.seconds);
  std::printf("provenance %s\n", provenance.c_str());
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& f : result.failures) {
    std::printf("FAILED: %s\n", f.c_str());
  }
  std::printf("attempted %llu, failed %llu; report %s\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              report_path.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics.c_str());
  return 0;
}
