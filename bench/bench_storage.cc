// Segment-storage benchmark: zone maps and budgeted spill measured on
// two axes over one clustered table (x = row index, y uniform, z random
// double, s short strings; segment_rows shrunk so the table splits into
// many segments):
//
//   zone scan    a selective clustered-range aggregate with zone maps
//                on vs off — the on-path consults per-segment min/max
//                and skips segments that cannot match (the acceptance
//                criterion: >= 50% skipped with a measured speedup).
//   spill        a join aggregate and a top-k sort at an unlimited
//                budget vs a budget of data/10: the Grace hash join and
//                the external merge sort must complete with identical
//                results, paying the temp-file detour measured here.
//
// Also the CI probe for the storage plumbing: invoked as
//   bench_storage --assert-storage
// it checks budget-constrained results byte-identical to the unlimited
// oracle with nonzero spill counters, >= 50% segments skipped on the
// clustered zone query with zones-off results identical, and zero
// segment accounting when zone maps are disabled. Exits nonzero on any
// failure.
//
// Flags: --rows=N          table cardinality     (default 100000)
//        --segment-rows=N  rows per segment      (default 4096)
//        --reps=N          runs per median       (default 5)
//        --quick           10000 rows, 3 reps
//        --json            machine-readable report on stdout
//        --assert-storage  smoke probe (see above)
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "engine/database.h"
#include "exec/exec_context.h"
#include "storage/spill.h"

namespace {

using namespace bypass;         // NOLINT(build/namespaces)
using namespace bypass::bench;  // NOLINT(build/namespaces)

Status LoadClustered(Database* db, int64_t rows, size_t segment_rows) {
  Schema schema;
  schema.AddColumn({"x", DataType::kInt64, ""});
  schema.AddColumn({"y", DataType::kInt64, ""});
  schema.AddColumn({"z", DataType::kDouble, ""});
  schema.AddColumn({"s", DataType::kString, ""});
  auto table = db->CreateTable("big", std::move(schema));
  BYPASS_RETURN_IF_ERROR(table.status());
  Rng rng(1234);
  std::vector<Row> data;
  data.reserve(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    Row row;
    row.push_back(Value::Int64(i));
    row.push_back(Value::Int64(rng.UniformInt(0, 999)));
    row.push_back(Value::Double(rng.UniformDouble()));
    row.push_back(Value::String("item_" +
                                std::to_string(rng.UniformInt(0, 19))));
    data.push_back(std::move(row));
  }
  BYPASS_RETURN_IF_ERROR((*table)->AppendUnchecked(std::move(data)));
  (*table)->set_segment_rows(segment_rows);
  return Status::OK();
}

Status LoadJoinPair(Database* db, int64_t rows) {
  for (const char* name : {"r1", "s1"}) {
    Schema schema;
    schema.AddColumn({"k", DataType::kInt64, ""});
    schema.AddColumn({"v", DataType::kInt64, ""});
    auto table = db->CreateTable(name, std::move(schema));
    BYPASS_RETURN_IF_ERROR(table.status());
    Rng rng(name[0] == 'r' ? 77 : 78);
    std::vector<Row> data;
    data.reserve(static_cast<size_t>(rows));
    for (int64_t i = 0; i < rows; ++i) {
      Row row;
      row.push_back(Value::Int64(rng.UniformInt(0, rows / 8)));
      row.push_back(Value::Int64(i));
      data.push_back(std::move(row));
    }
    BYPASS_RETURN_IF_ERROR((*table)->AppendUnchecked(std::move(data)));
  }
  return Status::OK();
}

int64_t TableApproxBytes(Database* db, const std::string& name) {
  auto table = db->catalog()->GetTable(name);
  if (!table.ok()) return 0;
  return ApproxRowsBytes(static_cast<size_t>((*table)->num_rows()),
                         (*table)->schema().num_columns());
}

struct Timed {
  double median_ms = 0;
  QueryResult last;  // stats/rows of the final run
};

/// Median-of-`reps` execution wall time; dies on any error.
Timed Run(Database* db, const std::string& sql, const QueryOptions& options,
          int reps) {
  Timed timed;
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    auto result = db->Query(sql, options);
    if (!result.ok()) {
      std::fprintf(stderr, "bench_storage: %s\n  sql: %s\n",
                   result.status().ToString().c_str(), sql.c_str());
      std::exit(1);
    }
    ms.push_back(result->execution_seconds() * 1e3);
    if (i == reps - 1) timed.last = std::move(*result);
  }
  std::sort(ms.begin(), ms.end());
  timed.median_ms = ms[ms.size() / 2];
  return timed;
}

std::string RowsFingerprint(const std::vector<Row>& rows) {
  std::string buf;
  for (const Row& r : rows) AppendRowSerialized(r, &buf);
  return buf;
}

// ------------------------------------------------------ --assert-storage

int Fail(const char* what) {
  std::fprintf(stderr, "assert-storage: FAILED: %s\n", what);
  return 1;
}

int AssertStorage(int64_t rows, size_t segment_rows) {
  Database db;
  Status loaded = LoadClustered(&db, rows, segment_rows);
  if (loaded.ok()) loaded = LoadJoinPair(&db, rows / 4);
  if (!loaded.ok()) {
    std::fprintf(stderr, "assert-storage: load failed: %s\n",
                 loaded.ToString().c_str());
    return 1;
  }

  // (1) Zone-map skipping: >= 50% of segments skipped on the clustered
  // range, zones-off control identical with zero segment accounting.
  const std::string zone_sql = "SELECT COUNT(*), SUM(y) FROM big WHERE x < " +
                               std::to_string(rows / 10);
  QueryOptions zones_on;
  QueryOptions zones_off;
  zones_off.enable_zone_maps = false;
  const Timed on = Run(&db, zone_sql, zones_on, 1);
  const Timed off = Run(&db, zone_sql, zones_off, 1);
  if (RowsFingerprint(on.last.rows) != RowsFingerprint(off.last.rows)) {
    return Fail("zone-skipping scan disagrees with the zones-off oracle");
  }
  if (on.last.stats.segments_scanned <= 0 ||
      on.last.stats.segments_skipped * 2 < on.last.stats.segments_scanned) {
    return Fail("fewer than half the segments were skipped");
  }
  if (off.last.stats.segments_skipped != 0 ||
      off.last.stats.zone_skip_rows != 0) {
    return Fail("zones-off control still reports segment skips");
  }

  // (2) Budget-driven spill: join aggregate and top-k sort at a budget
  // of data/10, byte-identical to the unlimited oracle, nonzero spill.
  const int64_t join_data =
      TableApproxBytes(&db, "r1") + TableApproxBytes(&db, "s1");
  struct Probe {
    const char* what;
    std::string sql;
    size_t budget;
  };
  const std::vector<Probe> probes = {
      {"grace join",
       "SELECT COUNT(*), SUM(r1.v) FROM r1, s1 WHERE r1.k = s1.k",
       static_cast<size_t>(join_data / 10)},
      {"external sort",
       "SELECT x, y FROM big ORDER BY x DESC LIMIT 10",
       static_cast<size_t>(TableApproxBytes(&db, "big") / 10)},
  };
  int64_t spilled_bytes = 0;
  for (const Probe& probe : probes) {
    QueryOptions oracle;
    const Timed unlimited = Run(&db, probe.sql, oracle, 1);
    QueryOptions budgeted;
    budgeted.memory_budget_bytes = probe.budget;
    const Timed constrained = Run(&db, probe.sql, budgeted, 1);
    if (RowsFingerprint(constrained.last.rows) !=
        RowsFingerprint(unlimited.last.rows)) {
      return Fail("budgeted results differ from the unlimited oracle");
    }
    if (constrained.last.stats.spilled_bytes <= 0) {
      return Fail("budgeted run did not spill");
    }
    spilled_bytes += constrained.last.stats.spilled_bytes;
  }
  std::printf(
      "assert-storage OK: %lld/%lld segments skipped, %lld bytes "
      "spilled, results identical\n",
      static_cast<long long>(on.last.stats.segments_skipped),
      static_cast<long long>(on.last.stats.segments_scanned),
      static_cast<long long>(spilled_bytes));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  const bool quick = flags.Has("quick");
  const int64_t rows = flags.GetInt("rows", quick ? 10000 : 100000);
  const size_t segment_rows = static_cast<size_t>(
      flags.GetInt("segment-rows", 4096));
  const int reps = static_cast<int>(flags.GetInt("reps", quick ? 3 : 5));

  if (flags.Has("assert-storage")) {
    return AssertStorage(rows, segment_rows);
  }

  Database db;
  Status loaded = LoadClustered(&db, rows, segment_rows);
  if (loaded.ok()) loaded = LoadJoinPair(&db, rows / 4);
  if (!loaded.ok()) {
    std::fprintf(stderr, "bench_storage: load failed: %s\n",
                 loaded.ToString().c_str());
    return 1;
  }

  // Zone scan: clustered range over the first 10% of the table.
  const std::string zone_sql = "SELECT COUNT(*), SUM(y) FROM big WHERE x < " +
                               std::to_string(rows / 10);
  QueryOptions zones_on;
  QueryOptions zones_off;
  zones_off.enable_zone_maps = false;
  const Timed zone_on = Run(&db, zone_sql, zones_on, reps);
  const Timed zone_off = Run(&db, zone_sql, zones_off, reps);

  // Spill: unlimited vs budget = data/10 on a join aggregate and a
  // top-k sort.
  const int64_t join_data =
      TableApproxBytes(&db, "r1") + TableApproxBytes(&db, "s1");
  const std::string join_sql =
      "SELECT COUNT(*), SUM(r1.v) FROM r1, s1 WHERE r1.k = s1.k";
  const std::string sort_sql =
      "SELECT x, y FROM big ORDER BY x DESC LIMIT 10";
  QueryOptions unlimited;
  QueryOptions join_budget;
  join_budget.memory_budget_bytes = static_cast<size_t>(join_data / 10);
  QueryOptions sort_budget;
  sort_budget.memory_budget_bytes =
      static_cast<size_t>(TableApproxBytes(&db, "big") / 10);
  const Timed join_free = Run(&db, join_sql, unlimited, reps);
  const Timed join_spill = Run(&db, join_sql, join_budget, reps);
  const Timed sort_free = Run(&db, sort_sql, unlimited, reps);
  const Timed sort_spill = Run(&db, sort_sql, sort_budget, reps);

  const double skip_fraction =
      zone_on.last.stats.segments_scanned > 0
          ? static_cast<double>(zone_on.last.stats.segments_skipped) /
                static_cast<double>(zone_on.last.stats.segments_scanned)
          : 0.0;

  if (flags.Has("json")) {
    std::printf(
        "{\n"
        "  \"rows\": %lld,\n"
        "  \"segment_rows\": %zu,\n"
        "  \"zone_scan\": {\n"
        "    \"sql\": \"x < rows/10 aggregate\",\n"
        "    \"zones_on_median_ms\": %.3f,\n"
        "    \"zones_off_median_ms\": %.3f,\n"
        "    \"speedup_zones_on\": %.2f,\n"
        "    \"segments_scanned\": %lld,\n"
        "    \"segments_skipped\": %lld,\n"
        "    \"skip_fraction\": %.3f\n"
        "  },\n"
        "  \"spill\": {\n"
        "    \"join\": {\"unlimited_median_ms\": %.3f, "
        "\"budgeted_median_ms\": %.3f, \"budget_bytes\": %zu, "
        "\"spilled_bytes\": %lld, \"spill_partitions\": %lld, "
        "\"results_identical\": %s},\n"
        "    \"sort\": {\"unlimited_median_ms\": %.3f, "
        "\"budgeted_median_ms\": %.3f, \"budget_bytes\": %zu, "
        "\"spilled_bytes\": %lld, \"spill_runs\": %lld, "
        "\"results_identical\": %s}\n"
        "  }\n"
        "}\n",
        static_cast<long long>(rows), segment_rows, zone_on.median_ms,
        zone_off.median_ms,
        zone_on.median_ms > 0 ? zone_off.median_ms / zone_on.median_ms : 0.0,
        static_cast<long long>(zone_on.last.stats.segments_scanned),
        static_cast<long long>(zone_on.last.stats.segments_skipped),
        skip_fraction, join_free.median_ms, join_spill.median_ms,
        join_budget.memory_budget_bytes,
        static_cast<long long>(join_spill.last.stats.spilled_bytes),
        static_cast<long long>(
            join_spill.last.stats.join_spill_partitions),
        RowsFingerprint(join_spill.last.rows) ==
                RowsFingerprint(join_free.last.rows)
            ? "true"
            : "false",
        sort_free.median_ms, sort_spill.median_ms,
        sort_budget.memory_budget_bytes,
        static_cast<long long>(sort_spill.last.stats.spilled_bytes),
        static_cast<long long>(sort_spill.last.stats.sort_spill_runs),
        RowsFingerprint(sort_spill.last.rows) ==
                RowsFingerprint(sort_free.last.rows)
            ? "true"
            : "false");
    return 0;
  }

  PrintBanner("storage", "segment storage: zone maps + budgeted spill",
              "clustered table, segment_rows=" +
                  std::to_string(segment_rows) + ", median of " +
                  std::to_string(reps));
  ResultTable table({"median ms", "control ms", "notes"});
  char buf[3][96];
  std::snprintf(buf[0], sizeof(buf[0]), "%.3f", zone_on.median_ms);
  std::snprintf(buf[1], sizeof(buf[1]), "%.3f", zone_off.median_ms);
  std::snprintf(buf[2], sizeof(buf[2]), "%lld/%lld segments skipped",
                static_cast<long long>(zone_on.last.stats.segments_skipped),
                static_cast<long long>(zone_on.last.stats.segments_scanned));
  table.AddRow("zone scan (on vs off)", {buf[0], buf[1], buf[2]});
  std::snprintf(buf[0], sizeof(buf[0]), "%.3f", join_spill.median_ms);
  std::snprintf(buf[1], sizeof(buf[1]), "%.3f", join_free.median_ms);
  std::snprintf(buf[2], sizeof(buf[2]), "%lld bytes, %lld partitions",
                static_cast<long long>(join_spill.last.stats.spilled_bytes),
                static_cast<long long>(
                    join_spill.last.stats.join_spill_partitions));
  table.AddRow("grace join (vs unlimited)", {buf[0], buf[1], buf[2]});
  std::snprintf(buf[0], sizeof(buf[0]), "%.3f", sort_spill.median_ms);
  std::snprintf(buf[1], sizeof(buf[1]), "%.3f", sort_free.median_ms);
  std::snprintf(buf[2], sizeof(buf[2]), "%lld bytes, %lld runs",
                static_cast<long long>(sort_spill.last.stats.spilled_bytes),
                static_cast<long long>(sort_spill.last.stats.sort_spill_runs));
  table.AddRow("external sort (vs unlimited)", {buf[0], buf[1], buf[2]});
  table.Print();
  return 0;
}
