#include "workloads.h"

#include <sys/resource.h>

#include <atomic>
#include <barrier>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "codegen/codegen_engine.h"
#include "engine/database.h"
#include "engine/server.h"
#include "engine/session.h"
#include "frontend/translator.h"
#include "harness.h"
#include "planner/planner.h"
#include "rewrite/unnest.h"
#include "sql/parser.h"
#include "workload/rst.h"
#include "workload/tpch.h"

namespace perfbench {
namespace {

using bypass::Database;
using bypass::ExecutionStrategy;
using bypass::QueryOptions;
using bypass::QueryResult;
using bypass::Result;
using bypass::Status;

// ---------------------------------------------------------------- sizing

enum class Kind { kFig7, kServing, kCodegen, kSpill };

/// Threads per query on the large workloads (one client, closed loop).
/// One: on a shared 4-vCPU host a query that waits for all four
/// workers runs at the pace of the most contended one.
constexpr int kBatchThreads = 1;
/// Closed-loop clients on the serving workload, one thread per query;
/// two leave the host's other two vCPUs to the rest of the system.
constexpr int kServingClients = 2;
constexpr size_t kServingCacheEntries = 64;
/// Literal variants per Fig. 7 text that has a literal (serving only):
/// 5 x 40 RST texts and 2 x 4 TPC-H texts, 210 texts with the two RST
/// texts without a literal, against a 64-plan cache.
constexpr int kLiteralVariants = 40;
constexpr int kTpchVariants = 4;
constexpr double kZipfExponent = 0.6;
/// Client 0 runs ANALYZE after every 200-400 of its own queries.
constexpr int64_t kAnalyzeMinGap = 200;
constexpr int64_t kAnalyzeMaxGap = 400;
/// Per-query budget of the spill workload: well below q2d's and q2's
/// unbudgeted SF 0.25 build sides, above the point where they fail.
constexpr size_t kSpillBudgetBytes = size_t{20} << 20;
/// q2d's and q2's sorts see a few hundred rows and never spill, so on
/// `spill` q1 also orders its DISTINCT result (~25k rows at 30k rows
/// per table) under a budget at which the sort writes runs and merges
/// them. Ordering by every column keeps the top 100 deterministic.
constexpr char kSpillSortSuffix[] = " ORDER BY a1, a2, a3, a4 LIMIT 100";
constexpr const char* kSpillSortFamily = "q1";
constexpr size_t kSpillSortBudgetBytes = size_t{3} << 19;
/// Rounds of the nine queries the large workloads run at least.
constexpr int kMinRounds = 5;
/// The serving clients run in epochs of this length; the probe runs
/// alone between two epochs.
constexpr auto kServingEpoch = std::chrono::milliseconds(250);
/// SpeedProbe::Run's time at the reference host speed (its median on a
/// quiet 4-vCPU Xeon VM). A query that took t next to a probe run of p
/// counts as t * (kReferenceProbeSeconds / p)^kProbeElasticity: the time
/// it would take at the reference speed. The host's drift moves the
/// probe and the queries together, but the queries by more: fitted over
/// six fig7 runs, an exponent of 1.5 left the least spread between runs
/// (geometric mean of the medians: 0.20 unscaled, 0.09 at exponent 1,
/// 0.03 at 1.5, 0.06 at 2).
constexpr double kReferenceProbeSeconds = 0.014;
constexpr double kProbeElasticity = 1.5;
/// Set-ups per run; setup_s is their median. A serving set-up takes
/// ~50 ms, so it repeats more often to steady the median.
constexpr int kSetupRepetitions = 3;
constexpr int kServingSetupRepetitions = 15;
constexpr auto kQueryTimeout = std::chrono::seconds(30);

struct Scale {
  double tpch_sf;
  int64_t rst_rows;     ///< rows per RST table (q1, q2corr, q3tree, ...)
  int64_t linear_rows;  ///< rows per table of q4linear's own instance
};
/// The large workloads: ~0.7 s for one round of the nine queries and
/// their probes in one thread, so a 15 s run holds ~20 samples of each.
constexpr Scale kLargeScale{0.25, 30000, 600};
/// Serving data: small enough that planning weighs against execution (a
/// traced run: Prepare 132 us on the 54% of queries that miss the plan
/// cache, execution 0.26 ms on average, ~4 ms for q2d).
constexpr Scale kSmallScale{0.002, 100, 30};
/// Generator seed of the serving data. At this size one generated
/// instance differs from the next by ~25% in q2d's cost (SF 0.002 has
/// 20 suppliers), so the data stays fixed and --seed drives the traffic:
/// the Zipf draws and the ANALYZE schedule (and the oracle's instance).
constexpr uint64_t kServingDataSeed = 1;
/// Downscaled instance on which the canonical nested-loop evaluator is
/// fast enough to serve as the oracle.
constexpr Scale kOracleScale{0.01, 1000, 60};

// --------------------------------------------------------------- queries

enum class Instance { kMain, kLinear };

/// One Fig. 7 query. `literal` is its varied predicate on the serving
/// workload ("" = a single text); variant k moves the constant by k*step.
/// `oracle_constant` (0 = none) gives one more text, checked only
/// against the canonical evaluator, for a query whose paper text has an
/// empty result.
struct Family {
  std::string name;
  Instance instance;
  bool tpch;
  std::string sql;
  std::string literal;
  int64_t step;
  int64_t oracle_constant = 0;

  int variants() const {
    if (literal.empty()) return 1;
    return tpch ? kTpchVariants : kLiteralVariants;
  }
  std::string Variant(int k) const {
    if (k == 0) return sql;
    const size_t space = literal.rfind(' ');
    return WithConstant(std::stoll(literal.substr(space + 1)) + step * k);
  }
  /// The text with the literal's constant replaced by `value`.
  std::string WithConstant(int64_t value) const {
    const size_t space = literal.rfind(' ');
    std::string out = sql;
    out.replace(out.find(literal), literal.size(),
                literal.substr(0, space + 1) + std::to_string(value));
    return out;
  }
};

/// The nine Fig. 7 queries; q2d comes first (the trace shares index it).
std::vector<Family> Families() {
  // The RST texts are the paper's Fig. 7 / TR queries as the repository's
  // per-experiment drivers state them; q2d and q2 come from the library.
  return {
      {"q2d", Instance::kMain, true, bypass::TpchQuery2d(), "ps_availqty > 2000",
       250},
      {"q2", Instance::kMain, true, bypass::TpchQuery2(), "p_size = 15", 1},
      {"q1", Instance::kMain, false,
       "SELECT DISTINCT * FROM r "
       "WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) "
       "OR a4 > 1500",
       "a4 > 1500", 200},
      {"q2corr", Instance::kMain, false,
       "SELECT DISTINCT * FROM r "
       "WHERE a1 = (SELECT COUNT(*) FROM s WHERE a2 = b2 OR b4 > 1500)",
       // The paper's text is empty at every generated scale: the count
       // of b4 > 1500 rows exceeds every a1. Near the top of b4's
       // domain the count falls into a1's range.
       "b4 > 1500", 200, 9998},
      {"q3tree", Instance::kMain, false,
       "SELECT DISTINCT * FROM r "
       "WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2) "
       "OR a3 = (SELECT COUNT(DISTINCT *) FROM t WHERE a4 = c2)",
       "", 0},
      {"q4linear", Instance::kLinear, false,
       "SELECT DISTINCT * FROM r "
       "WHERE a1 = (SELECT COUNT(DISTINCT *) FROM s WHERE a2 = b2 "
       "OR b3 = (SELECT COUNT(DISTINCT *) FROM t WHERE b4 = c2))",
       "", 0},
      {"exists", Instance::kMain, false,
       "SELECT DISTINCT * FROM r "
       "WHERE EXISTS (SELECT * FROM s WHERE a2 = b2 AND b4 > 8000) "
       "OR a4 > 1500",
       "a4 > 1500", 200},
      {"notexists", Instance::kMain, false,
       "SELECT DISTINCT * FROM r "
       "WHERE NOT EXISTS (SELECT * FROM s WHERE a2 = b2) OR a4 > 9000",
       "a4 > 9000", -200},
      {"in", Instance::kMain, false,
       "SELECT DISTINCT * FROM r "
       "WHERE a1 IN (SELECT b1 FROM s WHERE a2 = b2) OR a4 > 9000",
       "a4 > 9000", -200},
  };
}

/// One distinct query text of the serving workload.
struct Text {
  size_t family;
  std::string sql;
};

/// The serving texts in popularity order, the same under every seed (a
/// seeded ranking would change the mix of plan-cache hits and literal
/// costs from seed to seed): the RST texts variant-major, so their paper
/// texts rank first, then the TPC-H texts. q2d and q2 execute ~10x
/// longer than the RST texts; ranked last they stay about 1% of the
/// traffic, so planning and the plan cache keep their share of the work.
std::vector<Text> ServingTexts(const std::vector<Family>& families) {
  std::vector<Text> texts;
  for (const bool tpch : {false, true}) {
    for (int k = 0; k < kLiteralVariants; ++k) {
      for (size_t f = 0; f < families.size(); ++f) {
        if (families[f].tpch == tpch && k < families[f].variants()) {
          texts.push_back({f, families[f].Variant(k)});
        }
      }
    }
  }
  return texts;
}

/// Spill files go to the system temp directory (TMPDIR): each query's
/// spill manager removes its whole scratch directory when it finishes.
QueryOptions WorkloadOptions(Kind kind) {
  QueryOptions o;  // default strategy: the paper's unnested bypass plans
  o.collect_plans = false;
  o.timeout = kQueryTimeout;
  o.num_threads = kind == Kind::kServing ? 1 : kBatchThreads;
  if (kind == Kind::kCodegen) o.enable_codegen = true;
  if (kind == Kind::kSpill) {
    o.memory_budget_bytes = kSpillBudgetBytes;
    o.allow_spill = true;
  }
  return o;
}

// ------------------------------------------------------------ run state

/// Sums of the ExecStats counters of executed queries.
struct Counters {
  double queries = 0;
  double rows_out = 0;
  double rows_scanned = 0;
  double subquery_executions = 0;
  double columnar_batches = 0;
  double tagged_batches = 0;
  double segments_scanned = 0;
  double segments_skipped = 0;
  double spilled_bytes = 0;
  double spill_files = 0;
  double join_spill_partitions = 0;
  double sort_spill_runs = 0;
  double compiled_batches = 0;
  double fallback_batches = 0;
  double pipelines = 0;
  double rules_applied = 0;

  void Add(const QueryResult& r) {
    const bypass::ExecStats& s = r.stats;
    queries += 1;
    rows_out += static_cast<double>(r.rows.size());
    rows_scanned += static_cast<double>(s.rows_scanned);
    subquery_executions += static_cast<double>(s.subquery_executions);
    columnar_batches += static_cast<double>(s.columnar_batches);
    tagged_batches += static_cast<double>(s.tagged_batches);
    segments_scanned += static_cast<double>(s.segments_scanned);
    segments_skipped += static_cast<double>(s.segments_skipped);
    spilled_bytes += static_cast<double>(s.spilled_bytes);
    spill_files += static_cast<double>(s.spill_files);
    join_spill_partitions += static_cast<double>(s.join_spill_partitions);
    sort_spill_runs += static_cast<double>(s.sort_spill_runs);
    compiled_batches += static_cast<double>(s.compiled_batches);
    fallback_batches += static_cast<double>(s.compiled_fallback_batches);
    rules_applied += static_cast<double>(r.applied_rules.size());
  }
  double PerQuery(double total) const {
    return queries == 0 ? 0.0 : total / queries;
  }
};

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// `seconds` measured next to a probe run of `probe_s`, at the reference
/// host speed.
double AtReferenceSpeed(double seconds, double probe_s) {
  return seconds * std::pow(kReferenceProbeSeconds / probe_s, kProbeElasticity);
}

class Run {
 public:
  Run(const RunConfig& config, Kind kind)
      : config(config), kind(kind), spans(config.trace) {}

  void Attempt() { attempted_.fetch_add(1, std::memory_order_relaxed); }
  void Fail(const std::string& what) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    if (failures_.size() < 10) failures_.push_back(what);
  }
  /// Counts one operation and checks its outcome against `expected`
  /// (nullptr = only the status is checked). Returns the fingerprint.
  Fingerprint Check(const std::string& what, const Result<QueryResult>& r,
                    const Fingerprint* expected) {
    Attempt();
    if (!r.ok()) {
      Fail(what + ": " + r.status().ToString());
      return {};
    }
    const Fingerprint fp = FingerprintRows(r->rows);
    if (expected != nullptr && fp != *expected) {
      Fail(what + ": result " + fp.ToString() + " != expected " +
           expected->ToString());
    }
    return fp;
  }

  void Finish(RunResult* out) {
    out->attempted = attempted_.load();
    out->failed = failed_.load();
    std::lock_guard<std::mutex> lock(mu_);
    out->failures = failures_;
  }
  double failed_frac() const {
    return Ratio(static_cast<double>(failed_.load()),
                 static_cast<double>(attempted_.load()));
  }

  const RunConfig& config;
  const Kind kind;
  SpanRecorder spans;

  // Set-up phase timings, one entry per repetition.
  std::vector<double> setup_s, generate_s, analyze_s, segment_build_s;
  /// Peak RSS at the end of the first set-up, which ran every query once
  /// at full scale. Later repetitions and the timed loop only add
  /// allocator-arena fragmentation, which varies from run to run.
  double peak_rss_mb = 0;
  double oracle_s = 0;  ///< time of the canonical-oracle check
  std::string oracle_rows;  ///< JSON members: canonical result sizes

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex mu_;
  std::vector<std::string> failures_;  // guarded by mu_
};

/// Times `f` (returning Status or Result) as span `name`.
template <typename F>
auto Timed(SpanRecorder* spans, const char* name, uint64_t parent,
           uint64_t query_id, double* seconds, F&& f) {
  const auto start = Clock::now();
  auto out = f();
  const auto end = Clock::now();
  spans->Record(name, parent, query_id, start, end);
  if (seconds != nullptr) *seconds += Seconds(start, end);
  return out;
}

// ------------------------------------------------------------- instances

/// The databases one workload reads: TPC-H and RST side by side in
/// `main`, and q4linear's smaller RST instance in `linear`.
struct Instances {
  std::unique_ptr<Database> main = std::make_unique<Database>();
  std::unique_ptr<Database> linear = std::make_unique<Database>();
  Database* Get(Instance i) const {
    return i == Instance::kMain ? main.get() : linear.get();
  }
};

/// Generates, analyzes and segments both instances from `seed`.
Status Load(const Scale& scale, uint64_t seed, SpanRecorder* spans,
            Instances* inst, double* generate_s, double* analyze_s,
            double* segment_s) {
  bypass::TpchOptions tpch;
  tpch.scale_factor = scale.tpch_sf;
  tpch.seed = MixSeed(seed, 1);
  BYPASS_RETURN_IF_ERROR(Timed(spans, "workload.generate", 0, 0, generate_s,
                               [&] { return LoadTpch(inst->main.get(), tpch); }));
  bypass::RstOptions rst;
  rst.rows_per_sf = scale.rst_rows;
  rst.seed = MixSeed(seed, 2);
  BYPASS_RETURN_IF_ERROR(
      Timed(spans, "workload.generate", 0, 0, generate_s,
            [&] { return LoadRst(inst->main.get(), 1, 1, 1, rst); }));
  bypass::RstOptions linear;
  linear.rows_per_sf = scale.linear_rows;
  linear.seed = MixSeed(seed, 3);
  BYPASS_RETURN_IF_ERROR(
      Timed(spans, "workload.generate", 0, 0, generate_s,
            [&] { return LoadRst(inst->linear.get(), 1, 1, 1, linear); }));
  for (Database* db : {inst->main.get(), inst->linear.get()}) {
    auto reports = Timed(spans, "stats.analyze_all", 0, 0, analyze_s,
                         [&] { return db->AnalyzeAll(); });
    if (!reports.ok()) return reports.status();
    for (const std::string& name : db->catalog()->TableNames()) {
      BYPASS_ASSIGN_OR_RETURN(bypass::Table * table,
                              db->catalog()->GetTable(name));
      Timed(spans, "storage.segment_build", 0, 0, segment_s, [&] {
        return table->segments().num_segments();
      });
    }
  }
  return Status::OK();
}

/// Compares the workload's plans against the canonical nested-loop
/// evaluator on a downscaled instance of the same generator and seed.
void CheckAgainstCanonical(Run* run, const std::vector<Family>& families,
                           const QueryOptions& unnested) {
  const auto start = Clock::now();
  Instances oracle;
  SpanRecorder no_spans(false);
  const Status st = Load(kOracleScale, run->config.seed, &no_spans, &oracle,
                         nullptr, nullptr, nullptr);
  if (!st.ok()) {
    run->Attempt();
    run->Fail("oracle load: " + st.ToString());
    return;
  }
  QueryOptions canonical = QueryOptions::With(ExecutionStrategy::kCanonical);
  canonical.collect_plans = false;
  canonical.timeout = kQueryTimeout;
  QueryOptions plain = unnested;
  plain.enable_codegen = false;
  plain.memory_budget_bytes = 0;
  for (const Family& family : families) {
    // (label, text): the paper text, the last serving variant, and the
    // oracle-only constant.
    std::vector<std::pair<std::string, std::string>> texts = {
        {family.name + "#0", family.sql}};
    if (run->kind == Kind::kServing && family.variants() > 1) {
      const int k = family.variants() - 1;
      texts.emplace_back(family.name + "#" + std::to_string(k),
                         family.Variant(k));
    }
    if (family.oracle_constant != 0) {
      texts.emplace_back(family.name + "@" +
                             std::to_string(family.oracle_constant),
                         family.WithConstant(family.oracle_constant));
    }
    for (const auto& [label, sql] : texts) {
      Database* db = oracle.Get(family.instance);
      const std::string what = "oracle " + label;
      const Fingerprint expected =
          run->Check(what + " canonical", db->Query(sql, canonical), nullptr);
      run->oracle_rows += std::string(run->oracle_rows.empty() ? "" : ", ") +
                          "\"" + label + "\": " + std::to_string(expected.rows);
      run->Check(what + " unnested", db->Query(sql, plain), &expected);
    }
  }
  run->oracle_s = Seconds(start, Clock::now());
}

// ------------------------------------------------------------ reporting

void AddMetric(RunResult* out, const std::string& name, double value,
               const char* unit) {
  out->metrics.push_back({name, value, unit});
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Latency samples in seconds, per family and overall.
struct Samples {
  std::vector<std::vector<double>> by_family;
  std::vector<double> all;
  /// Time the queries kept the workload busy (the sum of the latencies
  /// of one sequential client; the wall time of the concurrent clients).
  double busy_s = 0;
  std::vector<double> probe_s;  ///< the probe times used to normalize

  explicit Samples(size_t families) : by_family(families) {}
  void Add(size_t family, double s) {
    by_family[family].push_back(s);
    all.push_back(s);
  }
  void Merge(const Samples& other) {
    for (size_t f = 0; f < by_family.size(); ++f) {
      by_family[f].insert(by_family[f].end(), other.by_family[f].begin(),
                          other.by_family[f].end());
    }
    all.insert(all.end(), other.all.begin(), other.all.end());
  }
};

/// Geometric mean of the per-family medians, over the families with
/// samples: the Fig. 7 family in one number, moved alike by a given
/// speed-up of any one query.
double GeomeanOfMedians(const Samples& samples) {
  double log_sum = 0;
  int n = 0;
  for (const std::vector<double>& v : samples.by_family) {
    if (v.empty()) continue;
    log_sum += std::log(Median(v));
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / n);
}

/// The end-to-end metrics of one untraced measurement, from `timed`:
/// samples at the reference host speed. The tail is the highest
/// percentile up to p99 with ten samples beyond it (the percentile
/// rule): p95 on the large workloads, p99 on serving.
void EndToEndMetrics(const Run& run, const std::vector<Family>& families,
                     const Samples& timed, RunResult* out) {
  // Set-up runs before the probe exists (its tables would count in the
  // peak RSS), so it is scaled by the probe's median over the run.
  AddMetric(out, "setup_s",
            AtReferenceSpeed(Median(run.setup_s), Median(timed.probe_s)), "s");
  AddMetric(out, "peak_rss_mb", run.peak_rss_mb, "MB");
  AddMetric(out, "q2d_ms", Median(timed.by_family[0]) * 1e3, "ms");
  AddMetric(out, "geomean_ms", GeomeanOfMedians(timed) * 1e3, "ms");
  AddMetric(out, "throughput_qps",
            Ratio(static_cast<double>(timed.all.size()), timed.busy_s),
            "1/s");
  const double tail = SupportedPercentile(timed.all.size(), 99.0);
  AddMetric(out, "latency_p50_ms", Median(timed.all) * 1e3, "ms");
  AddMetric(out, "latency_p99_ms", Percentile(timed.all, tail) * 1e3, "ms");

  std::string per_query = "\"queries\": {";
  for (size_t f = 0; f < families.size(); ++f) {
    const auto& v = timed.by_family[f];
    per_query += (f ? ", \"" : "\"") + families[f].name + "\": {\"samples\": " +
                 std::to_string(v.size()) + ", \"p25_ms\": " +
                 JsonNumber(Percentile(v, 25) * 1e3) + ", \"median_ms\": " +
                 JsonNumber(Median(v) * 1e3) + ", \"p75_ms\": " +
                 JsonNumber(Percentile(v, 75) * 1e3) + ", \"samples_ms\": [";
    for (size_t i = 0; i < v.size(); ++i) {
      per_query += (i ? ", " : "") + JsonNumber(v[i] * 1e3);
    }
    per_query += "]}";
  }
  out->report_members.push_back(per_query + "}");
  out->report_members.push_back(
      "\"latency\": {\"samples\": " + std::to_string(timed.all.size()) +
      ", \"tail_percentile\": " + JsonNumber(tail) + "}");
  out->report_members.push_back(
      "\"probe\": {\"reference_ms\": " +
      JsonNumber(kReferenceProbeSeconds * 1e3) + ", \"runs\": " +
      std::to_string(timed.probe_s.size()) + ", \"median_ms\": " +
      JsonNumber(Median(timed.probe_s) * 1e3) + "}");
  std::string setups = "\"setup_repetitions_s\": [";
  for (size_t i = 0; i < run.setup_s.size(); ++i) {
    setups += (i ? ", " : "") + JsonNumber(run.setup_s[i]);
  }
  out->report_members.push_back(setups + "]");
  out->report_members.push_back("\"oracle_s\": " + JsonNumber(run.oracle_s));
  out->report_members.push_back("\"oracle_rows\": {" + run.oracle_rows + "}");
}

/// Per-phase span totals of traced queries, per family.
struct PhaseTotals {
  std::map<std::string, std::pair<double, double>> sum_count;  // us
  double Mean(const std::string& phase) const {
    const auto it = sum_count.find(phase);
    return it == sum_count.end() ? 0.0 : Ratio(it->second.first, it->second.second);
  }
};

/// Aggregates the traced query spans: by phase name overall and per
/// family (`family_of_query[query_id]`).
void AggregateSpans(const std::vector<Span>& spans,
                    const std::vector<size_t>& family_of_query,
                    size_t num_families, PhaseTotals* overall,
                    std::vector<PhaseTotals>* by_family) {
  by_family->assign(num_families, PhaseTotals{});
  for (const Span& s : spans) {
    if (s.query_id == 0 || s.query_id >= family_of_query.size()) continue;
    const double us = s.duration_us();
    auto& o = overall->sum_count[s.name];
    o.first += us;
    o.second += 1;
    auto& f = (*by_family)[family_of_query[s.query_id]].sum_count[s.name];
    f.first += us;
    f.second += 1;
  }
}

constexpr const char* kPhases[] = {"sql.parse", "frontend.translate",
                                   "rewrite.unnest", "planner.lower"};

/// The Server counters the benchmark reports, summed over servers.
struct ServerCounters {
  double cache_hits = 0;
  double cache_misses = 0;
  double cache_evictions = 0;  ///< capacity and stale
  double admission_waits = 0;
  double queries_rejected = 0;

  static ServerCounters Sum(const std::vector<bypass::Server*>& servers) {
    ServerCounters total;
    for (bypass::Server* server : servers) {
      const bypass::ServerStats s = server->stats();
      total.cache_hits += static_cast<double>(s.plan_cache.hits);
      total.cache_misses += static_cast<double>(s.plan_cache.misses);
      total.cache_evictions += static_cast<double>(
          s.plan_cache.capacity_evictions + s.plan_cache.stale_evictions);
      total.admission_waits += static_cast<double>(s.admission_waits);
      total.queries_rejected += static_cast<double>(s.queries_rejected);
    }
    return total;
  }
  ServerCounters operator-(const ServerCounters& o) const {
    return {cache_hits - o.cache_hits, cache_misses - o.cache_misses,
            cache_evictions - o.cache_evictions,
            admission_waits - o.admission_waits,
            queries_rejected - o.queries_rejected};
  }
};

/// Per-layer metrics shared by all workloads.
struct LayerInputs {
  Counters counters;
  PhaseTotals phases;
  std::vector<PhaseTotals> family_phases;
  double execute_ms = 0;  ///< mean execution time of traced queries
  /// Median execution and Prepare times of traced q2d queries, ms.
  double q2d_execute_ms = 0;
  double q2d_prepare_ms = 0;
  double analyze_ms = 0;  ///< mean in-run ANALYZE latency
  ServerCounters server;  ///< over the timed loop
  bypass::CodegenStats codegen;
  double overhead_frac = 0;
  double q2d_ms = 0;  ///< untraced median of the same run
  /// Mean untraced latency and the share of queries that plan (1 on the
  /// large workloads; the plan-cache miss ratio on serving).
  double untraced_mean_ms = 0;
  double planned_frac = 1;
  /// Per-family median latency of untraced and traced queries, ms.
  std::vector<double> untraced_ms, traced_ms;
  /// The untraced queries at the reference host speed.
  const Samples* timed = nullptr;
};

void LayerMetrics(const Run& run, const std::vector<Family>& families,
                  const LayerInputs& in, RunResult* out) {
  const Counters& c = in.counters;
  AddMetric(out, "workload.generate_s", Median(run.generate_s), "s");
  AddMetric(out, "stats.analyze_s", Median(run.analyze_s), "s");
  AddMetric(out, "stats.analyze_ms", in.analyze_ms, "ms");
  AddMetric(out, "storage.segment_build_s", Median(run.segment_build_s), "s");
  AddMetric(out, "storage.segments_skipped_ratio",
            Ratio(c.segments_skipped, c.segments_scanned), "ratio");
  AddMetric(out, "storage.spilled_bytes", c.PerQuery(c.spilled_bytes),
            "bytes");
  AddMetric(out, "storage.spill_files", c.PerQuery(c.spill_files), "count");
  AddMetric(out, "storage.join_spill_partitions",
            c.PerQuery(c.join_spill_partitions), "count");
  AddMetric(out, "storage.sort_spill_runs", c.PerQuery(c.sort_spill_runs),
            "count");
  AddMetric(out, "sql.parse_us", in.phases.Mean("sql.parse"), "us");
  AddMetric(out, "frontend.translate_us", in.phases.Mean("frontend.translate"),
            "us");
  AddMetric(out, "rewrite.unnest_us", in.phases.Mean("rewrite.unnest"), "us");
  AddMetric(out, "planner.lower_us", in.phases.Mean("planner.lower"), "us");
  AddMetric(out, "rewrite.rules_applied", c.PerQuery(c.rules_applied),
            "count");
  AddMetric(out, "engine.prepare_us", in.phases.Mean("engine.prepare"), "us");

  // Share of each Prepare not accounted for by the four phase calls on
  // the same SQL (plan strings, stats snapshot, codegen install, ...).
  std::vector<double> uncovered;
  std::string per_query = "\"trace_queries\": {";
  for (size_t f = 0; f < families.size(); ++f) {
    const PhaseTotals& p = in.family_phases[f];
    const double prepare = p.Mean("engine.prepare");
    double phases = 0;
    for (const char* phase : kPhases) phases += p.Mean(phase);
    const double share = prepare > 0 ? 1.0 - phases / prepare : 0.0;
    if (prepare > 0) uncovered.push_back(share);
    per_query += (f ? ", \"" : "\"") + families[f].name +
                 "\": {\"prepare_us\": " + JsonNumber(prepare);
    for (const char* phase : kPhases) {
      per_query += std::string(", \"") + phase + "_us\": " +
                   JsonNumber(p.Mean(phase));
    }
    per_query += ", \"untraced_ms\": " + JsonNumber(in.untraced_ms[f]) +
                 ", \"traced_ms\": " + JsonNumber(in.traced_ms[f]) +
                 ", \"prepare_uncovered_frac\": " + JsonNumber(share) +
                 ", \"execute_us\": " + JsonNumber(p.Mean("engine.execute")) +
                 "}";
  }
  out->report_members.push_back(per_query + "}");
  AddMetric(out, "engine.prepare_uncovered_frac", Median(uncovered), "ratio");
  AddMetric(out, "engine.execute_ms", in.execute_ms, "ms");
  const ServerCounters& sc = in.server;
  AddMetric(out, "engine.plan_cache_hit_ratio",
            Ratio(sc.cache_hits, sc.cache_hits + sc.cache_misses), "ratio");
  AddMetric(out, "engine.plan_cache_evictions", sc.cache_evictions, "count");
  AddMetric(out, "engine.admission_waits", sc.admission_waits, "count");
  AddMetric(out, "engine.queries_rejected", sc.queries_rejected, "count");
  AddMetric(out, "codegen.compile_s", in.codegen.compile_seconds_total, "s");
  AddMetric(out, "codegen.compiles", static_cast<double>(in.codegen.compiles),
            "count");
  AddMetric(out, "codegen.cache_hits",
            static_cast<double>(in.codegen.cache_hits), "count");
  AddMetric(out, "codegen.pipelines", c.PerQuery(c.pipelines), "count");
  AddMetric(out, "codegen.compiled_batch_ratio",
            Ratio(c.compiled_batches, c.compiled_batches + c.fallback_batches),
            "ratio");
  AddMetric(out, "exec.rows_scanned_per_row",
            Ratio(c.rows_scanned, c.rows_out), "ratio");
  AddMetric(out, "exec.subquery_executions",
            c.PerQuery(c.subquery_executions), "count");
  AddMetric(out, "exec.columnar_batches", c.PerQuery(c.columnar_batches),
            "count");
  AddMetric(out, "exec.tagged_batches", c.PerQuery(c.tagged_batches),
            "count");
  AddMetric(out, "trace.overhead_frac", in.overhead_frac, "ratio");
  AddMetric(out, "trace.q2d_execute_share",
            Ratio(in.q2d_execute_ms, in.q2d_ms), "ratio");
  AddMetric(out, "trace.q2d_prepare_share", Ratio(in.q2d_prepare_ms, in.q2d_ms),
            "ratio");
  // Planning's share of the mean untraced query: mean Prepare time times
  // the share of queries that plan, over the mean latency.
  AddMetric(out, "trace.prepare_share",
            Ratio(in.planned_frac * in.phases.Mean("engine.prepare") / 1e3,
                  in.untraced_mean_ms),
            "ratio");
  AddMetric(out, "failed_frac", run.failed_frac(), "ratio");
  // Each query's median time, at the reference host speed as the
  // end-to-end metrics are; `geomean_ms` sums these up.
  for (size_t f = 0; f < families.size(); ++f) {
    AddMetric(out, "query." + families[f].name + "_ms",
              Median(in.timed->by_family[f]) * 1e3, "ms");
  }
  AddMetric(out, "host.probe_ms", Median(in.timed->probe_s) * 1e3, "ms");
}

void AddCodegenStats(Database* db, bypass::CodegenStats* total) {
  bypass::CodegenEngine* engine = db->codegen_engine_if_created();
  if (engine == nullptr) return;
  const bypass::CodegenStats s = engine->stats();
  total->compiles += s.compiles;
  total->cache_hits += s.cache_hits;
  total->compile_seconds_total += s.compile_seconds_total;
}

/// Times the four phases of Prepare on `sql` (each as its own public
/// call) under span `parent`.
void TracePhases(SpanRecorder* spans, Database* db, const std::string& sql,
                 const QueryOptions& options, uint64_t parent, uint64_t qid) {
  auto stmt = Timed(spans, "sql.parse", parent, qid, nullptr,
                    [&] { return bypass::ParseSelect(sql); });
  if (!stmt.ok()) return;
  bypass::Translator translator(db->catalog());
  auto canonical = Timed(spans, "frontend.translate", parent, qid, nullptr,
                         [&] { return translator.Translate(**stmt); });
  if (!canonical.ok()) return;
  bypass::RewriteOptions ropts = options.rewrite;
  ropts.enable_unnesting = options.unnest;
  ropts.catalog = db->catalog();
  bypass::UnnestingRewriter rewriter(ropts);
  auto optimized = Timed(spans, "rewrite.unnest", parent, qid, nullptr,
                         [&] { return rewriter.Rewrite(*canonical); });
  if (!optimized.ok()) return;
  bypass::PlannerOptions popts;
  popts.memoize_subqueries = options.memoize_subqueries;
  bypass::Planner planner(db->catalog(), popts);
  Timed(spans, "planner.lower", parent, qid, nullptr,
        [&] { return planner.Lower(*optimized); });
}

// ------------------------------------------------ fig7, codegen, spill

RunResult RunBatch(Run* run) {
  RunResult out;
  out.query_threads = kBatchThreads;
  std::vector<Family> families = Families();
  std::vector<QueryOptions> options(families.size(),
                                    WorkloadOptions(run->kind));
  if (run->kind == Kind::kSpill) {
    for (size_t f = 0; f < families.size(); ++f) {
      if (families[f].name != kSpillSortFamily) continue;
      families[f].sql += kSpillSortSuffix;
      options[f].memory_budget_bytes = kSpillSortBudgetBytes;
    }
  }
  const QueryOptions reference_options = WorkloadOptions(Kind::kFig7);

  Instances inst;
  std::vector<Fingerprint> expected(families.size());
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    inst = Instances();
    run->generate_s.push_back(0);
    run->analyze_s.push_back(0);
    run->segment_build_s.push_back(0);
    const auto start = Clock::now();
    const Status st =
        Load(kLargeScale, run->config.seed, &run->spans, &inst,
             &run->generate_s.back(), &run->analyze_s.back(),
             &run->segment_build_s.back());
    if (!st.ok()) {
      out.ok = false;
      out.error = "load: " + st.ToString();
      return out;
    }
    for (size_t f = 0; f < families.size(); ++f) {
      Database* db = inst.Get(families[f].instance);
      QueryOptions warm = options[f];
      warm.codegen_synchronous = true;  // compiles finish in set-up
      const auto r = Timed(&run->spans, "engine.query", 0, 0, nullptr,
                           [&] { return db->Query(families[f].sql, warm); });
      expected[f] = run->Check("warm-up " + families[f].name, r,
                               rep == 0 ? nullptr : &expected[f]);
    }
    run->setup_s.push_back(Seconds(start, Clock::now()));
    if (rep == 0) run->peak_rss_mb = PeakRssMb();
  }
  if (run->kind != Kind::kFig7) {
    // Full-scale agreement with the fig7 configuration.
    for (size_t f = 0; f < families.size(); ++f) {
      run->Check("fig7 reference " + families[f].name,
                 inst.Get(families[f].instance)
                     ->Query(families[f].sql, reference_options),
                 &expected[f]);
    }
  }

  // The timed loop: rounds of all nine queries in a seeded order. A
  // traced run alternates untraced and traced rounds, so drift in the
  // host's speed affects both sides of the overhead comparison alike.
  // Traced queries run Prepare + Execute, then time the four phases of
  // Prepare separately on the same SQL.
  Rng order_rng(MixSeed(run->config.seed, 7));
  std::vector<size_t> order(families.size());
  for (size_t f = 0; f < order.size(); ++f) order[f] = f;
  Samples untraced(families.size());
  Samples traced(families.size());
  Samples timed(families.size());  // untraced, at the reference speed
  LayerInputs layer;
  std::vector<size_t> family_of_query = {0};
  std::vector<double> execute_ms, q2d_execute_ms, q2d_prepare_ms;
  const std::vector<bypass::Server*> servers = {inst.main->server(),
                                                inst.linear->server()};
  const ServerCounters before = ServerCounters::Sum(servers);
  SpeedProbe probe;
  const auto start = Clock::now();
  for (int round = 0;; ++round) {
    const bool trace_round = run->config.trace && round % 2 == 1;
    Shuffle(&order, &order_rng);
    for (const size_t f : order) {
      Database* db = inst.Get(families[f].instance);
      const std::string& sql = families[f].sql;
      // Every query, traced or not, follows a probe, so both see the
      // caches the probe leaves behind.
      const double probe_s = probe.Run();
      if (!trace_round) {
        const auto t0 = Clock::now();
        const auto r = db->Query(sql, options[f]);
        const auto t1 = Clock::now();
        if (r.ok()) {
          untraced.Add(f, Seconds(t0, t1));
          const double t = AtReferenceSpeed(Seconds(t0, t1), probe_s);
          timed.Add(f, t);
          timed.busy_s += t;
          timed.probe_s.push_back(probe_s);
        }
        run->Check(families[f].name, r, &expected[f]);
        continue;
      }
      const uint64_t qid = run->spans.NewQueryId();
      family_of_query.resize(qid + 1, f);
      const uint64_t root = run->spans.ReserveId();
      const auto t0 = Clock::now();
      double prepare_s = 0;
      auto prepared = Timed(&run->spans, "engine.prepare", root, qid,
                            &prepare_s,
                            [&] { return db->Prepare(sql, options[f]); });
      if (!prepared.ok()) {
        run->Attempt();
        run->Fail(families[f].name + " prepare: " +
                  prepared.status().ToString());
        continue;
      }
      double exec_s = 0;
      const auto r = Timed(&run->spans, "engine.execute", root, qid, &exec_s,
                           [&] { return prepared->Execute(); });
      const int pipelines = prepared->compiled_pipelines();
      // Database::Query also tears its plan down before it returns.
      Timed(&run->spans, "engine.release", root, qid, nullptr, [&] {
        bypass::PreparedQuery released = std::move(*prepared);
        return 0;
      });
      TracePhases(&run->spans, db, sql, options[f], root, qid);
      const auto t1 = Clock::now();
      run->spans.RecordWithId(root, "query", 0, qid, t0, t1);
      run->Check(families[f].name + " traced", r, &expected[f]);
      if (!r.ok()) continue;
      traced.Add(f, Seconds(t0, t1));
      execute_ms.push_back(exec_s * 1e3);
      if (f == 0) {
        q2d_execute_ms.push_back(exec_s * 1e3);
        q2d_prepare_ms.push_back(prepare_s * 1e3);
      }
      layer.counters.Add(*r);
      layer.counters.pipelines += pipelines;
    }
    // Traced runs report no latency tails, so two rounds of each suffice.
    const int min_rounds = run->config.trace ? 4 : kMinRounds;
    if (round + 1 >= min_rounds &&
        Seconds(start, Clock::now()) >= run->config.seconds) {
      break;
    }
  }
  // After the timed loop, as on serving, so the timed queries run on the
  // heap their own set-up left behind.
  CheckAgainstCanonical(run, families, reference_options);
  if (!run->config.trace) {
    EndToEndMetrics(*run, families, timed, &out);
    return out;
  }
  layer.timed = &timed;
  layer.server = ServerCounters::Sum(servers) - before;
  layer.untraced_mean_ms = Mean(untraced.all) * 1e3;
  layer.execute_ms = Mean(execute_ms);
  layer.q2d_execute_ms = Median(q2d_execute_ms);
  layer.q2d_prepare_ms = Median(q2d_prepare_ms);
  // Tracing overhead: traced over untraced per-query medians, summed.
  double traced_total = 0, untraced_total = 0;
  for (size_t f = 0; f < families.size(); ++f) {
    layer.traced_ms.push_back(Median(traced.by_family[f]) * 1e3);
    layer.untraced_ms.push_back(Median(untraced.by_family[f]) * 1e3);
    traced_total += layer.traced_ms.back();
    untraced_total += layer.untraced_ms.back();
  }
  layer.overhead_frac = Ratio(traced_total, untraced_total) - 1.0;
  layer.q2d_ms = Median(untraced.by_family[0]) * 1e3;

  // One ANALYZE of a seeded table at the workload's scale.
  {
    const std::vector<std::string> tables = inst.main->catalog()->TableNames();
    Rng rng(MixSeed(run->config.seed, 11));
    const std::string& table =
        tables[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(tables.size()) - 1))];
    double seconds = 0;
    const auto report = Timed(&run->spans, "stats.analyze", 0, 0, &seconds,
                              [&] { return inst.main->Analyze(table); });
    run->Attempt();
    if (!report.ok()) run->Fail("analyze " + table);
    layer.analyze_ms = seconds * 1e3;
  }
  for (Database* db : {inst.main.get(), inst.linear.get()}) {
    Timed(&run->spans, "codegen.stats", 0, 0, nullptr, [&] {
      AddCodegenStats(db, &layer.codegen);
      return 0;
    });
  }
  AggregateSpans(run->spans.Snapshot(), family_of_query, families.size(),
                 &layer.phases, &layer.family_phases);
  LayerMetrics(*run, families, layer, &out);
  return out;
}

// --------------------------------------------------------------- serving

/// The serving stack: servers are declared after the instances so the
/// destructor destroys them first (a Server must not outlive its
/// Database).
struct ServingStack {
  Instances inst;
  std::unique_ptr<bypass::Server> main_server;
  std::unique_ptr<bypass::Server> linear_server;
  bypass::Server* Get(Instance i) const {
    return i == Instance::kMain ? main_server.get() : linear_server.get();
  }
};

RunResult RunServing(Run* run) {
  RunResult out;
  out.query_threads = 1;
  out.clients = kServingClients;
  const std::vector<Family> families = Families();
  const std::vector<Text> texts = ServingTexts(families);
  const QueryOptions options = WorkloadOptions(Kind::kServing);

  bypass::ServerOptions sopts;
  sopts.num_workers = 1;  // no pool workers beyond each query's own thread
  sopts.plan_cache_entries = kServingCacheEntries;

  ServingStack stack;
  std::vector<Fingerprint> expected(texts.size());
  for (int rep = 0; rep < kServingSetupRepetitions; ++rep) {
    // Servers first: a Server must not outlive its Database.
    stack.main_server.reset();
    stack.linear_server.reset();
    stack.inst = Instances();
    run->generate_s.push_back(0);
    run->analyze_s.push_back(0);
    run->segment_build_s.push_back(0);
    const auto start = Clock::now();
    const Status st = Load(kSmallScale, kServingDataSeed, &run->spans,
                           &stack.inst, &run->generate_s.back(),
                           &run->analyze_s.back(),
                           &run->segment_build_s.back());
    if (!st.ok()) {
      out.ok = false;
      out.error = "load: " + st.ToString();
      return out;
    }
    stack.main_server =
        std::make_unique<bypass::Server>(stack.inst.main.get(), sopts);
    stack.linear_server =
        std::make_unique<bypass::Server>(stack.inst.linear.get(), sopts);
    // The clients warm the texts up concurrently, as they query them in
    // the timed loop. Warmed up by one thread, the set-up times of runs
    // fell into two modes 40% apart.
    std::vector<std::thread> warmers;
    for (int c = 0; c < kServingClients; ++c) {
      warmers.emplace_back([&, c] {
        for (size_t t = static_cast<size_t>(c); t < texts.size();
             t += kServingClients) {
          const Instance i = families[texts[t].family].instance;
          auto session = stack.Get(i)->Connect();
          const auto r =
              Timed(&run->spans, "engine.session_query", 0, 0, nullptr,
                    [&] { return session->Query(texts[t].sql, options); });
          expected[t] = run->Check("warm-up " + families[texts[t].family].name,
                                   r, rep == 0 ? nullptr : &expected[t]);
        }
      });
    }
    for (std::thread& w : warmers) w.join();
    run->setup_s.push_back(Seconds(start, Clock::now()));
    if (rep == 0) run->peak_rss_mb = PeakRssMb();
  }
  // The served results must match the engine's uncached path.
  for (size_t t = 0; t < texts.size(); ++t) {
    run->Check("uncached " + families[texts[t].family].name,
               stack.inst.Get(families[texts[t].family].instance)
                   ->Query(texts[t].sql, options),
               &expected[t]);
  }

  // Seeded traffic: Zipf draws over the ranked texts, ANALYZE on a
  // rotation of every table from client 0.
  const ZipfSampler zipf(texts.size(), kZipfExponent);
  std::vector<std::pair<Database*, std::string>> tables;
  for (Database* db : {stack.inst.main.get(), stack.inst.linear.get()}) {
    for (const std::string& name : db->catalog()->TableNames()) {
      tables.emplace_back(db, name);
    }
  }
  const std::vector<AnalyzeEvent> schedule = AnalyzeSchedule(
      run->config.seed, tables.size(), 1 << 16, kAnalyzeMinGap, kAnalyzeMaxGap);

  // Closed loop per client, in epochs: between two epochs the clients
  // stop and the probe runs alone, and the epoch's queries are scaled by
  // that probe's time. A traced run traces every other query of each
  // client, so host-speed drift affects both sides of the overhead
  // comparison alike.
  struct Client {
    explicit Client(size_t families) : untraced(families), timed(families) {}
    Rng rng{0};
    std::shared_ptr<bypass::Session> main_session, linear_session;
    size_t next_event = 0;
    uint64_t issued = 0;
    Samples untraced;
    Samples timed;  ///< untraced, at the reference speed
  };
  std::vector<Client> client_state(kServingClients, Client(families.size()));
  for (int c = 0; c < kServingClients; ++c) {
    Client& state = client_state[static_cast<size_t>(c)];
    state.rng = Rng(MixSeed(run->config.seed, 100 + static_cast<uint64_t>(c)));
    state.main_session = stack.main_server->Connect();
    state.linear_session = stack.linear_server->Connect();
  }
  std::mutex traced_mu;  // guards the traced aggregates below
  Samples traced(families.size());
  Samples timed(families.size());
  LayerInputs layer;
  std::vector<size_t> family_of_query;
  std::vector<double> execute_ms, q2d_execute_ms, q2d_prepare_ms;
  std::vector<double> analyze_ms;  // written by client 0 only
  const std::vector<bypass::Server*> servers = {stack.main_server.get(),
                                                stack.linear_server.get()};
  const ServerCounters before = ServerCounters::Sum(servers);
  SpeedProbe probe;
  // The clients and this thread meet at `gate` twice per epoch: to
  // start it, and when every client has finished it. The three values
  // below change only while the clients wait at the gate.
  std::barrier gate(kServingClients + 1);
  double probe_s = 0;
  Clock::time_point epoch_end;
  bool stop = false;
  std::vector<std::thread> clients;
  for (int c = 0; c < kServingClients; ++c) {
    clients.emplace_back([&, c] {
      Client& state = client_state[static_cast<size_t>(c)];
      for (;;) {
        gate.arrive_and_wait();
        if (stop) return;
        while (Clock::now() < epoch_end) {
          const uint64_t issued = ++state.issued;
          const size_t t = zipf.Sample(&state.rng);
          const size_t f = texts[t].family;
          const std::string& sql = texts[t].sql;
          bypass::Session* session = families[f].instance == Instance::kMain
                                         ? state.main_session.get()
                                         : state.linear_session.get();
          if (!run->config.trace || issued % 2 == 1) {
            const auto t0 = Clock::now();
            const auto r = session->Query(sql, options);
            const auto t1 = Clock::now();
            if (r.ok()) {
              state.untraced.Add(f, Seconds(t0, t1));
              state.timed.Add(f, AtReferenceSpeed(Seconds(t0, t1), probe_s));
            }
            run->Check(families[f].name + " served", r, &expected[t]);
          } else {
            const uint64_t qid = run->spans.NewQueryId();
            const uint64_t root = run->spans.ReserveId();
            const auto t0 = Clock::now();
            const auto r =
                Timed(&run->spans, "engine.session_query", root, qid, nullptr,
                      [&] { return session->Query(sql, options); });
            Database* db = stack.inst.Get(families[f].instance);
            double prepare_s = 0;
            Timed(&run->spans, "engine.prepare", root, qid, &prepare_s,
                  [&] { return db->Prepare(sql, options); });
            TracePhases(&run->spans, db, sql, options, root, qid);
            const auto t1 = Clock::now();
            run->spans.RecordWithId(root, "query", 0, qid, t0, t1);
            run->Check(families[f].name + " served traced", r, &expected[t]);
            if (r.ok()) {
              std::lock_guard<std::mutex> lock(traced_mu);
              traced.Add(f, Seconds(t0, t1));
              if (family_of_query.size() <= qid) family_of_query.resize(qid + 1);
              family_of_query[qid] = f;
              layer.counters.Add(*r);
              execute_ms.push_back(r->execution_seconds() * 1e3);
              if (f == 0) {
                q2d_execute_ms.push_back(execute_ms.back());
                q2d_prepare_ms.push_back(prepare_s * 1e3);
              }
            }
          }
          if (c == 0 && state.next_event < schedule.size() &&
              schedule[state.next_event].after_query == issued) {
            const auto& [db, table] =
                tables[schedule[state.next_event].table_index];
            double seconds = 0;
            const auto report =
                Timed(&run->spans, "stats.analyze", 0, 0, &seconds,
                      [&] { return db->Analyze(table); });
            run->Attempt();
            if (!report.ok()) run->Fail("analyze " + table);
            analyze_ms.push_back(seconds * 1e3);
            ++state.next_event;
          }
        }
        gate.arrive_and_wait();
      }
    });
  }
  const auto start = Clock::now();
  for (;;) {
    stop = Seconds(start, Clock::now()) >= run->config.seconds;
    if (!stop) {
      probe_s = probe.Run();
      epoch_end = Clock::now() + kServingEpoch;
    }
    const auto epoch_start = Clock::now();
    gate.arrive_and_wait();
    if (stop) break;
    gate.arrive_and_wait();
    timed.busy_s +=
        AtReferenceSpeed(Seconds(epoch_start, Clock::now()), probe_s);
    timed.probe_s.push_back(probe_s);
  }
  for (std::thread& client : clients) client.join();
  const ServerCounters after = ServerCounters::Sum(servers);
  // The canonical-oracle check runs after the timed loop, not before the
  // set-up: its instance, loaded from --seed, would leave a seed-dependent
  // heap behind for the timed queries (with the check first, runs of one
  // seed were consistently ~20% slower than runs of another).
  CheckAgainstCanonical(run, families, options);

  Samples untraced(families.size());
  for (const Client& client : client_state) {
    untraced.Merge(client.untraced);
    timed.Merge(client.timed);
  }
  if (!run->config.trace) {
    EndToEndMetrics(*run, families, timed, &out);
    return out;
  }
  layer.timed = &timed;

  layer.q2d_execute_ms = Median(q2d_execute_ms);
  layer.q2d_prepare_ms = Median(q2d_prepare_ms);
  layer.execute_ms = Mean(execute_ms);
  layer.analyze_ms = Mean(analyze_ms);
  layer.server = after - before;
  layer.untraced_mean_ms = Mean(untraced.all) * 1e3;
  layer.planned_frac = Ratio(layer.server.cache_misses,
                             layer.server.cache_hits + layer.server.cache_misses);
  layer.overhead_frac =
      Ratio(Median(traced.all), Median(untraced.all)) - 1.0;
  for (size_t f = 0; f < families.size(); ++f) {
    layer.traced_ms.push_back(Median(traced.by_family[f]) * 1e3);
    layer.untraced_ms.push_back(Median(untraced.by_family[f]) * 1e3);
  }
  layer.q2d_ms = Median(untraced.by_family[0]) * 1e3;
  AggregateSpans(run->spans.Snapshot(), family_of_query, families.size(),
                 &layer.phases, &layer.family_phases);
  LayerMetrics(*run, families, layer, &out);
  return out;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"fig7", "serving", "codegen",
                                                 "spill"};
  return names;
}

RunResult RunWorkload(const RunConfig& config) {
  Kind kind = Kind::kFig7;
  if (config.workload == "serving") kind = Kind::kServing;
  if (config.workload == "codegen") kind = Kind::kCodegen;
  if (config.workload == "spill") kind = Kind::kSpill;
  Run run(config, kind);
  RunResult out = kind == Kind::kServing ? RunServing(&run) : RunBatch(&run);
  run.Finish(&out);
  if (out.ok && config.trace) {
    const std::string path = config.out_dir + "/spans-" + config.workload +
                             "-seed" + std::to_string(config.seed) + ".jsonl";
    if (run.spans.WriteJsonLines(path)) {
      out.report_members.push_back("\"spans_file\": \"" + path + "\"");
    }
    out.report_members.push_back("\"spans\": " +
                                 std::to_string(run.spans.Snapshot().size()));
  }
  const int threads = out.query_threads * out.clients;
  if (threads > static_cast<int>(config.nproc)) {
    for (const Metric& m : out.metrics) {
      if (m.name != "setup_s" && m.name != "peak_rss_mb") {
        out.not_measurable.push_back(m.name);
      }
    }
  }
  return out;
}

}  // namespace perfbench
