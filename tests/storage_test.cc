// Segment-storage subsystem tests: zone-map exactness (NULL-heavy and
// all-equal segments), the zone index builder against a brute-force pass
// (-0.0, NaN, all-NULL, bool, long-string and mixed-mode segments; empty
// tables; rebuilds after an append or a new granularity), spill-file
// serialization, the zone-skipping scan against the zones-off oracle
// (including untracked and long shared-prefix string segments),
// the shaped LIKE kernel against the row oracle, hash-table
// footprint accounting, zone-derived selectivity bounds, and the
// budget-constrained differential suite (Grace hash join + external
// merge sort at a budget ~10x smaller than the data vs the
// unlimited-memory oracle). Suites are named Storage* /
// StorageParallel* so ctest can address them with -L storage and
// -L parallel-storage.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "algebra/logical_op.h"
#include "common/rng.h"
#include "engine/database.h"
#include "exec/exec_context.h"
#include "exec/executor.h"
#include "exec/join.h"
#include "exec/scan.h"
#include "exec/sink.h"
#include "exec/sort.h"
#include "expr/expr.h"
#include "stats/plan_stats.h"
#include "stats/selectivity.h"
#include "storage/segment.h"
#include "storage/spill.h"
#include "storage/zone_map.h"
#include "test_util.h"

namespace bypass {
namespace {

using testing_util::IntSchema;
using testing_util::TableRows;
using testing_util::ToColumns;

// --- Expression builders (bound against the scanned table's slots) ------

ExprPtr Slot(int slot) {
  auto ref = std::make_shared<ColumnRefExpr>("t", "c", false);
  ref->set_slot(slot);
  return ref;
}

ExprPtr Lit(Value v) {
  return std::make_shared<LiteralExpr>(std::move(v));
}

ExprPtr Cmp(CompareOp op, ExprPtr l, ExprPtr r) {
  return std::make_shared<ComparisonExpr>(op, std::move(l), std::move(r));
}

SegmentMeta OneColumnMeta(size_t rows, Value min, Value max,
                          int64_t nulls) {
  SegmentMeta meta;
  meta.row_count = rows;
  ColumnZone zone;
  zone.min = std::move(min);
  zone.max = std::move(max);
  zone.null_count = nulls;
  meta.zones.push_back(std::move(zone));
  return meta;
}

std::string SerializeRows(const std::vector<Row>& rows) {
  std::string buf;
  for (const Row& r : rows) AppendRowSerialized(r, &buf);
  return buf;
}

// --- Zone-map exactness --------------------------------------------------

TEST(StorageZoneMap, AllNullSegmentMatchesNoComparison) {
  // Every comparison against an all-NULL segment is UNKNOWN on every
  // row — never TRUE — so the zone test must prove kNone for any
  // operator and any literal.
  ColumnZone zone;
  zone.null_count = 8;
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    EXPECT_EQ(ClassifyZone(zone, 8, op, Value::Int64(0)), ZoneMatch::kNone);
  }
}

TEST(StorageZoneMap, AllNullSegmentIsExactForIsNull) {
  const SegmentMeta meta =
      OneColumnMeta(8, Value::Null(), Value::Null(), 8);
  EXPECT_EQ(ZoneTest(*std::make_shared<IsNullExpr>(Slot(0), false), meta),
            ZoneMatch::kAll);
  EXPECT_EQ(ZoneTest(*std::make_shared<IsNullExpr>(Slot(0), true), meta),
            ZoneMatch::kNone);
  EXPECT_FALSE(
      ZoneMayBeTrue(*Cmp(CompareOp::kEq, Slot(0), Lit(Value::Int64(1))),
                    meta));
}

TEST(StorageZoneMap, AllEqualSegmentIsExact) {
  // min == max and no NULLs: the zone pins every row's value, so every
  // comparison resolves to kAll or kNone — never kSome.
  ColumnZone zone;
  zone.min = Value::Int64(5);
  zone.max = Value::Int64(5);
  const size_t rows = 16;
  EXPECT_EQ(ClassifyZone(zone, rows, CompareOp::kEq, Value::Int64(5)),
            ZoneMatch::kAll);
  EXPECT_EQ(ClassifyZone(zone, rows, CompareOp::kEq, Value::Int64(6)),
            ZoneMatch::kNone);
  EXPECT_EQ(ClassifyZone(zone, rows, CompareOp::kNe, Value::Int64(5)),
            ZoneMatch::kNone);
  EXPECT_EQ(ClassifyZone(zone, rows, CompareOp::kNe, Value::Int64(6)),
            ZoneMatch::kAll);
  EXPECT_EQ(ClassifyZone(zone, rows, CompareOp::kLt, Value::Int64(6)),
            ZoneMatch::kAll);
  EXPECT_EQ(ClassifyZone(zone, rows, CompareOp::kLt, Value::Int64(5)),
            ZoneMatch::kNone);
  EXPECT_EQ(ClassifyZone(zone, rows, CompareOp::kLe, Value::Int64(5)),
            ZoneMatch::kAll);
  EXPECT_EQ(ClassifyZone(zone, rows, CompareOp::kGe, Value::Int64(6)),
            ZoneMatch::kNone);
  EXPECT_EQ(ClassifyZone(zone, rows, CompareOp::kGt, Value::Int64(4)),
            ZoneMatch::kAll);
}

TEST(StorageZoneMap, NullMixedSegmentNeverProvesAll) {
  // One NULL in the segment: the predicate is UNKNOWN there, so even a
  // range that covers every non-NULL value must not report kAll.
  ColumnZone zone;
  zone.min = Value::Int64(0);
  zone.max = Value::Int64(5);
  zone.null_count = 1;
  EXPECT_EQ(ClassifyZone(zone, 10, CompareOp::kLt, Value::Int64(100)),
            ZoneMatch::kSome);
  EXPECT_EQ(ClassifyZone(zone, 10, CompareOp::kLt, Value::Int64(0)),
            ZoneMatch::kNone);
  EXPECT_EQ(ClassifyZone(zone, 10, CompareOp::kEq, Value::Int64(3)),
            ZoneMatch::kSome);
}

TEST(StorageZoneMap, DisjunctionSkipsOnlyWhenEveryDisjunctIsDead) {
  // Segment holds [10, 20]: x < 5 is dead, x > 15 may match. The OR may
  // be true iff some disjunct may be.
  const SegmentMeta meta =
      OneColumnMeta(16, Value::Int64(10), Value::Int64(20), 0);
  std::vector<ExprPtr> dead;
  dead.push_back(Cmp(CompareOp::kLt, Slot(0), Lit(Value::Int64(5))));
  dead.push_back(Cmp(CompareOp::kGt, Slot(0), Lit(Value::Int64(30))));
  EXPECT_FALSE(ZoneMayBeTrue(OrExpr(std::move(dead)), meta));

  std::vector<ExprPtr> live;
  live.push_back(Cmp(CompareOp::kLt, Slot(0), Lit(Value::Int64(5))));
  live.push_back(Cmp(CompareOp::kGt, Slot(0), Lit(Value::Int64(15))));
  EXPECT_TRUE(ZoneMayBeTrue(OrExpr(std::move(live)), meta));
}

TEST(StorageZoneMap, UntrackedColumnIsConservative) {
  ColumnZone zone;
  zone.untracked = true;
  EXPECT_EQ(ClassifyZone(zone, 8, CompareOp::kEq, Value::Int64(1)),
            ZoneMatch::kSome);
}

// --- Zone index builder --------------------------------------------------

/// Checks every zone of `table`'s segment index against a brute-force pass
/// over the table's rows: NULL count, min/max over the non-NULL values in
/// OrderCompare's order (the first of equal values kept, a NaN the largest
/// number), and `untracked` for mixed-mode columns.
void ExpectZonesMatchBruteForce(const Table& table) {
  const TableSegments& segs = table.segments();
  const std::vector<Row> data = TableRows(table);
  ASSERT_EQ(segs.num_rows, data.size());
  size_t next_row = 0;
  for (size_t s = 0; s < segs.num_segments(); ++s) {
    const SegmentMeta& meta = segs.segments[s];
    EXPECT_EQ(meta.row_begin, next_row) << "seg " << s;
    next_row = meta.row_begin + meta.row_count;
    ASSERT_EQ(meta.zones.size(), table.columns().columns.size());
    for (size_t c = 0; c < meta.zones.size(); ++c) {
      ColumnZone want;
      want.untracked = !table.columns().columns[c].typed();
      bool any = false;
      for (size_t r = meta.row_begin; r < meta.row_begin + meta.row_count;
           ++r) {
        const Value& v = data[r][c];
        if (v.is_null()) {
          ++want.null_count;
          continue;
        }
        if (!any) {
          want.min = v;
          want.max = v;
          any = true;
        } else if (v.OrderCompare(want.min) < 0) {
          want.min = v;
        } else if (v.OrderCompare(want.max) > 0) {
          want.max = v;
        }
      }
      if (want.untracked) want.min = want.max = Value::Null();
      const ColumnZone& got = meta.zones[c];
      EXPECT_EQ(got.null_count, want.null_count) << "seg " << s << " col " << c;
      EXPECT_EQ(got.untracked, want.untracked) << "seg " << s << " col " << c;
      // Serialized bytes keep the dynamic type and the sign of -0.0.
      EXPECT_EQ(SerializeRows({Row{got.min, got.max}}),
                SerializeRows({Row{want.min, want.max}}))
          << "seg " << s << " col " << c;
    }
  }
  EXPECT_EQ(next_row, data.size());
}

TEST(StorageZoneIndex, ZonesMatchBruteForce) {
  // Clustered int64 with NULLs, low-NDV int64, doubles with -0.0/NaN,
  // NULL-bearing strings, and a declared-double column fed int64s
  // (mixed mode). Rows [256, 384) are NULL in every column, and 700 rows
  // over 128-row segments leave the last segment partial.
  Schema schema;
  schema.AddColumn({"seq", DataType::kInt64, ""});
  schema.AddColumn({"rle", DataType::kInt64, ""});
  schema.AddColumn({"dbl", DataType::kDouble, ""});
  schema.AddColumn({"str", DataType::kString, ""});
  schema.AddColumn({"mix", DataType::kDouble, ""});
  Table table("zones", std::move(schema));
  Rng rng(7);
  std::vector<Row> rows;
  for (int i = 0; i < 700; ++i) {
    if (i >= 256 && i < 384) {
      rows.push_back(Row(5, Value::Null()));
      continue;
    }
    Row row;
    row.push_back(i % 11 == 0 ? Value::Null()
                              : Value::Int64(1000000 + i));
    row.push_back(Value::Int64(i / 100));
    if (i == 13) {
      row.push_back(Value::Double(std::nan("")));
    } else if (i == 14 || i == 140) {
      row.push_back(Value::Double(-0.0));
    } else if (i == 141) {
      row.push_back(Value::Double(0.0));  // ties -0.0: the first is kept
    } else {
      row.push_back(Value::Double(rng.UniformDouble()));
    }
    row.push_back(i % 7 == 0 ? Value::Null()
                             : Value::String("s" + std::to_string(i % 5)));
    row.push_back(i % 2 == 0 ? Value::Int64(i)
                             : Value::Double(0.5 * i));
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE(table.AppendUnchecked(rows).ok());
  table.set_segment_rows(128);
  const TableSegments& segs = table.segments();
  ASSERT_EQ(segs.num_segments(), (700 + 127) / 128);
  EXPECT_EQ(segs.segments.back().row_count, 700u % 128);
  for (size_t s = 0; s < segs.num_segments(); ++s) {
    EXPECT_EQ(segs.segments[s].row_begin, s * 128);
  }
  ExpectZonesMatchBruteForce(table);
  // The fixture reaches every case the builder distinguishes.
  EXPECT_FALSE(segs.segments[0].zones[2].untracked);  // NaN is the max
  EXPECT_TRUE(std::isnan(segs.segments[0].zones[2].max.double_value()));
  EXPECT_EQ(segs.segments[1].zones[2].min.double_value(), 0.0);
  EXPECT_TRUE(std::signbit(segs.segments[1].zones[2].min.double_value()));
  EXPECT_TRUE(segs.segments[0].zones[4].untracked);  // mixed mode
  EXPECT_EQ(segs.segments[2].zones[3].null_count, 128);
  EXPECT_TRUE(segs.segments[2].zones[3].min.is_null());
}

TEST(StorageZoneIndex, BoolZonesMatchBruteForce) {
  // 64-row segments: all TRUE, all FALSE, mixed, all NULL, NULL + TRUE.
  Schema schema;
  schema.AddColumn({"b", DataType::kBool, ""});
  Table table("flags", std::move(schema));
  std::vector<Row> rows;
  for (int i = 0; i < 5 * 64; ++i) {
    const int seg = i / 64;
    Value v = Value::Bool(true);
    if (seg == 1) v = Value::Bool(false);
    if (seg == 2) v = Value::Bool(i % 3 == 0);
    if (seg == 3 || (seg == 4 && i % 2 == 0)) v = Value::Null();
    rows.push_back(Row{std::move(v)});
  }
  ASSERT_TRUE(table.AppendUnchecked(std::move(rows)).ok());
  table.set_segment_rows(64);
  ExpectZonesMatchBruteForce(table);
  const TableSegments& segs = table.segments();
  ASSERT_EQ(segs.num_segments(), 5u);
  EXPECT_TRUE(segs.segments[0].zones[0].min.bool_value());
  EXPECT_FALSE(segs.segments[1].zones[0].max.bool_value());
  EXPECT_FALSE(segs.segments[2].zones[0].min.bool_value());
  EXPECT_TRUE(segs.segments[2].zones[0].max.bool_value());
  EXPECT_TRUE(segs.segments[3].zones[0].max.is_null());
  EXPECT_EQ(segs.segments[4].zones[0].null_count, 32);
  EXPECT_TRUE(segs.segments[4].zones[0].min.bool_value());
}

/// A 45-character string: a 40-character prefix every key shares, then
/// `i` zero-padded to five digits, so keys order like their numbers.
std::string LongKey(int i) {
  const std::string n = std::to_string(i);
  return std::string(40, 'p') + std::string(5 - n.size(), '0') + n;
}

/// 1024 clustered `LongKey` rows (every ninth NULL) in 128-row segments.
std::vector<Row> LongKeyRows() {
  std::vector<Row> rows;
  for (int i = 0; i < 1024; ++i) {
    rows.push_back(
        Row{i % 9 == 0 ? Value::Null() : Value::String(LongKey(i))});
  }
  return rows;
}

TEST(StorageZoneIndex, StringZonesKeepFullStrings) {
  // The keys differ only past the shared prefix, so a zone cut short
  // anywhere inside it would not separate the segments.
  Schema schema;
  schema.AddColumn({"s", DataType::kString, ""});
  Table table("names", std::move(schema));
  ASSERT_TRUE(table.AppendUnchecked(LongKeyRows()).ok());
  table.set_segment_rows(128);
  ExpectZonesMatchBruteForce(table);
  const TableSegments& segs = table.segments();
  ASSERT_EQ(segs.num_segments(), 8u);
  EXPECT_EQ(segs.segments[3].zones[0].min.string_value(), LongKey(384));
  EXPECT_EQ(segs.segments[3].zones[0].max.string_value(), LongKey(511));
  EXPECT_EQ(segs.segments[0].zones[0].null_count, 15);
}

TEST(StorageZoneIndex, EmptyTableHasNoSegments) {
  Table table("empty", IntSchema({"x", "y"}));
  const TableSegments& segs = table.segments();
  EXPECT_TRUE(table.has_segments());
  EXPECT_EQ(segs.num_rows, 0u);
  EXPECT_EQ(segs.num_segments(), 0u);
  EXPECT_EQ(segs.rows_per_segment, kDefaultRowsPerSegment);
}

TEST(StorageZoneIndex, AppendAndResizeRebuildTheIndex) {
  // An append or a new granularity invalidates the built index; the next
  // reader rebuilds it over every row at the current granularity.
  Table table("grow", IntSchema({"x"}));
  std::vector<Row> rows;
  for (int i = 0; i < 250; ++i) rows.push_back(testing_util::IntRow({i}));
  ASSERT_TRUE(table.AppendUnchecked(std::move(rows)).ok());
  table.set_segment_rows(100);
  ASSERT_EQ(table.segments().num_segments(), 3u);
  EXPECT_EQ(table.segments().segments[2].zones[0].max, Value::Int64(249));

  ASSERT_TRUE(table.Append(testing_util::IntRow({-5})).ok());
  EXPECT_FALSE(table.has_segments());
  const TableSegments& grown = table.segments();
  ASSERT_EQ(grown.num_segments(), 3u);
  EXPECT_EQ(grown.num_rows, 251u);
  EXPECT_EQ(grown.segments[2].row_count, 51u);
  EXPECT_EQ(grown.segments[2].zones[0].min, Value::Int64(-5));
  ExpectZonesMatchBruteForce(table);

  table.set_segment_rows(50);
  EXPECT_FALSE(table.has_segments());
  EXPECT_EQ(table.segments().num_segments(), 6u);
  EXPECT_EQ(table.segments().rows_per_segment, 50u);
  EXPECT_EQ(table.segments().segments[5].row_count, 1u);
  ExpectZonesMatchBruteForce(table);
}

// --- Spill files ---------------------------------------------------------

TEST(StorageSpill, RowSerializationRoundTrips) {
  Row row;
  row.push_back(Value::Null());
  row.push_back(Value::Int64(-42));
  row.push_back(Value::Double(-0.0));
  row.push_back(Value::Double(std::nan("")));
  row.push_back(Value::Bool(true));
  row.push_back(Value::String("hello \0 world"));
  row.push_back(Value::String(""));
  std::string buf;
  AppendRowSerialized(row, &buf);
  // The serialized payload starts at the arity word; the uint32
  // record-length prefix is a SpillFile framing detail, not part of it.
  Row parsed;
  ASSERT_TRUE(ParseRowSerialized(buf.data(), buf.size(), &parsed));
  std::string again;
  AppendRowSerialized(parsed, &again);
  EXPECT_EQ(buf, again);
}

TEST(StorageSpill, FileWritesThenReadsBackInOrder) {
  SpillManager manager;
  auto file = manager.NewFile("test");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  std::vector<Row> rows;
  for (int i = 0; i < 500; ++i) {
    Row row;
    row.push_back(Value::Int64(i));
    row.push_back(i % 3 == 0 ? Value::Null()
                             : Value::String(std::string(i % 40, 'x')));
    rows.push_back(std::move(row));
  }
  for (const Row& r : rows) {
    ASSERT_TRUE((*file)->AppendRow(r).ok());
  }
  ASSERT_TRUE((*file)->FinishWrite().ok());
  EXPECT_EQ((*file)->rows_written(), 500);
  EXPECT_GT((*file)->bytes_written(), 0);
  EXPECT_EQ(manager.total_files(), 1);
  EXPECT_EQ(manager.total_bytes(), (*file)->bytes_written());

  ASSERT_TRUE((*file)->OpenRead().ok());
  std::vector<Row> readback;
  Row out;
  while (true) {
    auto more = (*file)->ReadRow(&out);
    ASSERT_TRUE(more.ok()) << more.status().ToString();
    if (!*more) break;
    readback.push_back(out);
  }
  EXPECT_EQ(SerializeRows(readback), SerializeRows(rows));
}

// A spill file that cannot be read back must fail the query, not end the
// run early: the file is swapped for a directory of the same path, so
// reopening succeeds and the first read fails; a file cut short ends
// before its rows have come back.
TEST(StorageSpill, ReadErrorIsAnErrorNotEndOfFile) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("bypassdb-spill-read-error-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  SpillManager manager(dir.string());
  auto file = manager.NewFile("test");
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  for (int64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE((*file)->AppendRow(Row{Value::Int64(i)}).ok());
  }
  ASSERT_TRUE((*file)->FinishWrite().ok());
  const std::filesystem::path path = dir / "test-0.spill";
  ASSERT_TRUE(std::filesystem::remove(path));
  ASSERT_TRUE(std::filesystem::create_directory(path));

  ASSERT_TRUE((*file)->OpenRead().ok());
  Row out;
  auto more = (*file)->ReadRow(&out);
  ASSERT_FALSE(more.ok()) << "a failed read passed for end of file";
  EXPECT_EQ(more.status().code(), StatusCode::kExecutionError);

  auto cut = manager.NewFile("cut");
  ASSERT_TRUE(cut.ok()) << cut.status().ToString();
  for (int64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE((*cut)->AppendRow(Row{Value::Int64(i)}).ok());
  }
  ASSERT_TRUE((*cut)->FinishWrite().ok());
  std::filesystem::resize_file(dir / "cut-1.spill",
                               static_cast<uintmax_t>(
                                   (*cut)->bytes_written() / 3));
  ASSERT_TRUE((*cut)->OpenRead().ok());
  more = (*cut)->ReadRow(&out);
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  EXPECT_TRUE(*more);
  more = (*cut)->ReadRow(&out);
  ASSERT_FALSE(more.ok()) << "a short file passed for end of file";
  EXPECT_EQ(more.status().code(), StatusCode::kExecutionError);
}

// --- Join hash-table footprint (memory-budget accounting) ----------------

TEST(StorageJoinHashTable, RetainedBytesTracksFootprint) {
  std::vector<Row> small, large;
  for (int i = 0; i < 64; ++i) small.push_back(testing_util::IntRow({i}));
  for (int i = 0; i < 8192; ++i) {
    large.push_back(testing_util::IntRow({i}));
  }
  const std::vector<int> key{0};
  JoinHashTable table;
  table.Build(ToColumns(small), key);
  const int64_t small_bytes = table.RetainedBytes();
  EXPECT_GT(small_bytes, 0);
  table.Clear();
  table.Build(ToColumns(large), key);
  // The slot array alone is 12 bytes x >= 8192/0.7 slots; the charge
  // must reflect that footprint, not just the build rows.
  EXPECT_GT(table.RetainedBytes(), small_bytes * 16);
  EXPECT_GT(table.RetainedBytes(), 8192 * 12);
}

// --- Query-level fixtures ------------------------------------------------

/// Loads `name` with `rows` rows: x = row index (clustered), y uniform
/// over [0, key_domain), z a random double, s a short string drawn from
/// 20 values with '%or%'-matchable shapes. NULLs injected into y/s.
void LoadClustered(Database* db, const std::string& name, int rows,
                   int key_domain, uint64_t seed,
                   size_t segment_rows = 512) {
  Schema schema;
  schema.AddColumn({"x", DataType::kInt64, ""});
  schema.AddColumn({"y", DataType::kInt64, ""});
  schema.AddColumn({"z", DataType::kDouble, ""});
  schema.AddColumn({"s", DataType::kString, ""});
  auto table = db->CreateTable(name, std::move(schema));
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  Rng rng(seed);
  std::vector<Row> data;
  for (int i = 0; i < rows; ++i) {
    Row row;
    row.push_back(Value::Int64(i));
    row.push_back(rng.Bernoulli(0.05)
                      ? Value::Null()
                      : Value::Int64(rng.UniformInt(0, key_domain - 1)));
    row.push_back(Value::Double(rng.UniformDouble()));
    row.push_back(rng.Bernoulli(0.05)
                      ? Value::Null()
                      : Value::String("item_" +
                                      std::to_string(rng.UniformInt(0, 19)) +
                                      (i % 3 == 0 ? "_end" : "_mid")));
    data.push_back(std::move(row));
  }
  ASSERT_TRUE((*table)->AppendUnchecked(std::move(data)).ok());
  (*table)->set_segment_rows(segment_rows);
}

QueryResult RunOk(Database* db, const std::string& sql,
                  const QueryOptions& options) {
  auto result = db->Query(sql, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString() << "\nsql: " << sql;
  return result.ok() ? std::move(*result) : QueryResult{};
}

// --- Zone-skipping scans -------------------------------------------------

TEST(StorageZoneSkip, ClusteredScanSkipsSegmentsAndMatchesOracle) {
  Database db;
  LoadClustered(&db, "big", 8000, 1000, 21);

  QueryOptions zones_on;
  QueryOptions zones_off;
  zones_off.enable_zone_maps = false;
  const std::string sql =
      "SELECT COUNT(*), SUM(y) FROM big WHERE x < 1000";
  const QueryResult on = RunOk(&db, sql, zones_on);
  const QueryResult off = RunOk(&db, sql, zones_off);
  EXPECT_EQ(SerializeRows(on.rows), SerializeRows(off.rows));

  // 8000 rows / 512-row segments = 16 segments; x < 1000 lives in the
  // first two. At least half must be skipped (acceptance criterion).
  EXPECT_GT(on.stats.segments_scanned, 0);
  EXPECT_GE(on.stats.segments_skipped, on.stats.segments_scanned / 2);
  EXPECT_GT(on.stats.zone_skip_rows, 0);
  EXPECT_EQ(off.stats.segments_skipped, 0);
}

TEST(StorageZoneSkip, DisjunctivePredicateSkipsPerDisjunct) {
  Database db;
  LoadClustered(&db, "big", 8000, 1000, 22);
  // Two clustered ranges: only segments overlapping either range may
  // survive the per-disjunct zone test.
  const std::string sql =
      "SELECT COUNT(*) FROM big WHERE x < 600 OR x >= 7500";
  QueryOptions zones_on;
  QueryOptions zones_off;
  zones_off.enable_zone_maps = false;
  const QueryResult on = RunOk(&db, sql, zones_on);
  const QueryResult off = RunOk(&db, sql, zones_off);
  EXPECT_EQ(SerializeRows(on.rows), SerializeRows(off.rows));
  EXPECT_GT(on.stats.segments_skipped, 0);
}

TEST(StorageZoneSkip, SelectiveNegativePredicateSkipsNothingWrong) {
  // Predicate with no skippable segment (y is unclustered): results must
  // match and no segment may be skipped incorrectly.
  Database db;
  LoadClustered(&db, "big", 4000, 10, 23);
  const std::string sql = "SELECT COUNT(*) FROM big WHERE y = 3";
  QueryOptions zones_on;
  QueryOptions zones_off;
  zones_off.enable_zone_maps = false;
  const QueryResult on = RunOk(&db, sql, zones_on);
  const QueryResult off = RunOk(&db, sql, zones_off);
  EXPECT_EQ(SerializeRows(on.rows), SerializeRows(off.rows));
  EXPECT_EQ(on.stats.segments_skipped, 0);
}

TEST(StorageZoneSkip, LongSharedPrefixStringsSkipByFullValue) {
  Database db;
  Schema schema;
  schema.AddColumn({"s", DataType::kString, ""});
  auto table = db.CreateTable("names", std::move(schema));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->AppendUnchecked(LongKeyRows()).ok());
  (*table)->set_segment_rows(128);
  // Only the last two of eight segments can hold s >= LongKey(800).
  const std::string sql =
      "SELECT COUNT(*) FROM names WHERE s >= '" + LongKey(800) + "'";
  QueryOptions zones_off;
  zones_off.enable_zone_maps = false;
  const QueryResult on = RunOk(&db, sql, QueryOptions());
  const QueryResult off = RunOk(&db, sql, zones_off);
  EXPECT_EQ(SerializeRows(on.rows), SerializeRows(off.rows));
  EXPECT_EQ(on.stats.segments_scanned, 8);
  EXPECT_EQ(on.stats.segments_skipped, 6);
}

TEST(StorageZoneSkip, UntrackedSegmentsAreNeverSkipped) {
  // d is clustered: segment k holds doubles in [k, k + 1), and segment 0
  // opens with a NaN, so its zone is tracked with max NaN (the largest
  // number). m is a declared-double column fed int64s in even rows (mixed
  // mode): every zone untracked.
  Database db;
  Schema schema;
  schema.AddColumn({"d", DataType::kDouble, ""});
  schema.AddColumn({"m", DataType::kDouble, ""});
  auto table = db.CreateTable("untracked", std::move(schema));
  ASSERT_TRUE(table.ok());
  Rng rng(17);
  std::vector<Row> rows;
  for (int i = 0; i < 8 * 128; ++i) {
    Row row;
    row.push_back(i == 0 ? Value::Double(std::nan(""))
                         : Value::Double(i / 128 + rng.UniformDouble()));
    row.push_back(i % 2 == 0 ? Value::Int64(i % 100)
                             : Value::Double(0.5 * (i % 100)));
    rows.push_back(std::move(row));
  }
  ASSERT_TRUE((*table)->AppendUnchecked(std::move(rows)).ok());
  (*table)->set_segment_rows(128);
  ASSERT_FALSE((*table)->segments().segments[0].zones[0].untracked);
  ASSERT_TRUE(std::isnan(
      (*table)->segments().segments[0].zones[0].max.double_value()));
  ASSERT_TRUE((*table)->segments().segments[0].zones[1].untracked);
  ASSERT_FALSE((*table)->segments().segments[1].zones[0].untracked);

  QueryOptions zones_off;
  zones_off.enable_zone_maps = false;
  struct Case {
    std::string where;
    int64_t skipped;
  };
  // d < 0.5 may only be true in segment 0, which must still be scanned;
  // d >= 7.0 scans segment 7 and segment 0, whose NaN is >= 7.0; no zone
  // of m proves anything.
  for (const Case& c : {Case{"d < 0.5", 7}, Case{"d >= 7.0", 6},
                        Case{"m < 10", 0}, Case{"m = 4", 0}}) {
    const std::string sql =
        "SELECT COUNT(*), SUM(m) FROM untracked WHERE " + c.where;
    const QueryResult on = RunOk(&db, sql, QueryOptions());
    const QueryResult off = RunOk(&db, sql, zones_off);
    EXPECT_EQ(SerializeRows(on.rows), SerializeRows(off.rows)) << sql;
    EXPECT_EQ(on.stats.segments_skipped, c.skipped) << sql;
  }
}

// --- Shaped LIKE kernel --------------------------------------------------

TEST(StorageLike, ShapedKernelMatchesRowOracle) {
  Database db;
  LoadClustered(&db, "big", 3000, 100, 41);
  const std::vector<std::string> patterns = {
      "item_1%",   // prefix
      "%_end",     // suffix
      "%tem_1%",   // contains
      "item_7_mid",  // exact
      "%",         // match-all
      "i_em_1%",   // generic ('_' wildcard)
      "it%d",      // generic (interior %)
  };
  for (const std::string& p : patterns) {
    for (const char* form : {"s LIKE '", "s NOT LIKE '"}) {
      const std::string sql =
          "SELECT COUNT(*) FROM big WHERE " + std::string(form) + p + "'";
      QueryOptions columnar;
      QueryOptions row_oracle;
      row_oracle.enable_columnar = false;
      const QueryResult a = RunOk(&db, sql, columnar);
      const QueryResult b = RunOk(&db, sql, row_oracle);
      EXPECT_EQ(SerializeRows(a.rows), SerializeRows(b.rows)) << sql;
    }
  }
}

// --- Zone-derived selectivity bounds -------------------------------------

TEST(StorageStats, SelectivityClampedByZoneMapsOnceBuilt) {
  // 900 rows of 0 then 100 rows of 1000: min/max interpolation estimates
  // x <= 0 at ~0, the zone maps know it is exactly 0.9. The refinement
  // must engage only after the segment index exists (never build it).
  Database db;
  auto table = db.CreateTable("v", IntSchema({"x"}));
  ASSERT_TRUE(table.ok());
  std::vector<Row> rows;
  for (int i = 0; i < 1000; ++i) {
    rows.push_back(testing_util::IntRow({i < 900 ? 0 : 1000}));
  }
  ASSERT_TRUE((*table)->AppendUnchecked(std::move(rows)).ok());
  (*table)->set_segment_rows(100);

  PlanStatsProvider provider(db.catalog(),
                             std::make_shared<GetOp>("v", "v", Schema()));
  auto pred = Cmp(CompareOp::kLe,
                  std::make_shared<ColumnRefExpr>("v", "x", false),
                  Lit(Value::Int64(0)));
  ASSERT_FALSE((*table)->has_segments());
  const double before = EstimateSelectivity(*pred, &provider);
  EXPECT_FALSE((*table)->has_segments())
      << "estimation must not build the segment index";
  EXPECT_LT(before, 0.5);  // interpolation has no idea

  (*table)->segments();  // build the index
  ASSERT_TRUE((*table)->has_segments());
  const double after = EstimateSelectivity(*pred, &provider);
  EXPECT_DOUBLE_EQ(after, 0.9);  // 9 all-zero segments of 10
}

// --- Budget-driven spill differentials -----------------------------------

/// Approximate in-memory bytes of one table's buffered rows, the unit
/// the memory budget charges in.
int64_t TableApproxBytes(Database* db, const std::string& name) {
  auto table = db->catalog()->GetTable(name);
  EXPECT_TRUE(table.ok());
  return ApproxRowsBytes(static_cast<size_t>((*table)->num_rows()),
                         (*table)->schema().num_columns());
}

/// Bytes of one table's columns: what a join charges for buffering the
/// whole table as its build side.
int64_t TableColumnBytes(Database* db, const std::string& name) {
  auto table = db->catalog()->GetTable(name);
  EXPECT_TRUE(table.ok());
  return (*table)->columns().ApproxBytes();
}

void LoadJoinPair(Database* db, uint64_t seed, int rows) {
  LoadClustered(db, "r1", rows, 500, seed);
  LoadClustered(db, "s1", rows, 500, seed + 1);
}

TEST(StorageBudget, GraceJoinMatchesUnlimitedOracle) {
  Database db;
  LoadJoinPair(&db, 51, 4000);
  const std::string sql =
      "SELECT COUNT(*), SUM(r1.x), SUM(s1.x) FROM r1, s1 "
      "WHERE r1.y = s1.y AND r1.x < 2000 AND s1.x < 2000";
  QueryOptions oracle;
  const QueryResult unlimited = RunOk(&db, sql, oracle);
  EXPECT_EQ(unlimited.stats.spilled_bytes, 0);

  QueryOptions budgeted;
  budgeted.memory_budget_bytes = static_cast<size_t>(
      (TableColumnBytes(&db, "r1") + TableColumnBytes(&db, "s1")) / 10);
  const QueryResult spilled = RunOk(&db, sql, budgeted);
  EXPECT_EQ(SerializeRows(spilled.rows), SerializeRows(unlimited.rows));
  EXPECT_GT(spilled.stats.spilled_bytes, 0);
  EXPECT_GT(spilled.stats.join_spill_partitions, 0);
  EXPECT_GT(spilled.stats.spill_files, 0);
}

// A Grace join buffers and partitions its build rows narrowed to the key
// and the columns its output keeps: keeping 2 of 8 columns must write
// fewer spill bytes than the full-width join over the same inputs and
// budget.
TEST(StorageBudget, NarrowGraceJoinSpillsFewerBytes) {
  Database db;
  LoadJoinPair(&db, 53, 4000);
  const std::string narrow =
      "SELECT COUNT(*), SUM(r1.x), SUM(s1.x) FROM r1, s1 WHERE r1.y = s1.y";
  const std::string full =
      "SELECT COUNT(DISTINCT *) FROM r1, s1 WHERE r1.y = s1.y";
  auto explain = db.Explain(narrow);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("keep 2/8]"), std::string::npos) << *explain;

  QueryOptions budgeted;
  budgeted.memory_budget_bytes = static_cast<size_t>(
      (TableColumnBytes(&db, "r1") + TableColumnBytes(&db, "s1")) / 10);
  int64_t spilled[2] = {0, 0};
  const std::string* sqls[2] = {&narrow, &full};
  for (int i = 0; i < 2; ++i) {
    const QueryResult unlimited = RunOk(&db, *sqls[i], QueryOptions());
    const QueryResult grace = RunOk(&db, *sqls[i], budgeted);
    EXPECT_EQ(SerializeRows(grace.rows), SerializeRows(unlimited.rows));
    EXPECT_GT(grace.stats.join_spill_partitions, 0) << *sqls[i];
    spilled[i] = grace.stats.spilled_bytes;
  }
  EXPECT_GT(spilled[0], 0);
  EXPECT_LT(spilled[0], spilled[1])
      << "the narrowed join spilled no fewer bytes than the full-width one";
}

// Grace routing reads the key columns and hashes by value: an int64 key
// and an integral double key land in one partition, so a join between
// them spills and still matches the unlimited run.
TEST(StorageBudget, GraceJoinRoutesInt64AndDoubleKeysAlike) {
  Database db;
  Schema ints;
  ints.AddColumn({"k", DataType::kInt64, ""});
  ints.AddColumn({"v", DataType::kInt64, ""});
  Schema doubles;
  doubles.AddColumn({"k", DataType::kDouble, ""});
  doubles.AddColumn({"w", DataType::kInt64, ""});
  auto a = db.CreateTable("ia", ints);
  auto b = db.CreateTable("db", doubles);
  ASSERT_TRUE(a.ok() && b.ok());
  Rng rng(57);
  std::vector<Row> a_rows, b_rows;
  for (int i = 0; i < 4000; ++i) {
    a_rows.push_back(Row{Value::Int64(rng.UniformInt(0, 799)),
                         Value::Int64(i)});
    b_rows.push_back(Row{rng.Bernoulli(0.1)
                             ? Value::Null()
                             : Value::Double(static_cast<double>(
                                   rng.UniformInt(0, 799))),
                         Value::Int64(i)});
  }
  ASSERT_TRUE((*a)->AppendUnchecked(std::move(a_rows)).ok());
  ASSERT_TRUE((*b)->AppendUnchecked(std::move(b_rows)).ok());
  const std::string sql =
      "SELECT COUNT(*), SUM(ia.v), SUM(db.w) FROM ia, db WHERE ia.k = db.k";
  const QueryResult unlimited = RunOk(&db, sql, QueryOptions());
  ASSERT_EQ(unlimited.rows.size(), 1u);
  EXPECT_GT(unlimited.rows[0][0].int64_value(), 0);

  QueryOptions budgeted;
  budgeted.memory_budget_bytes = static_cast<size_t>(
      (TableColumnBytes(&db, "ia") + TableColumnBytes(&db, "db")) / 4);
  const QueryResult spilled = RunOk(&db, sql, budgeted);
  EXPECT_EQ(SerializeRows(spilled.rows), SerializeRows(unlimited.rows));
  EXPECT_GT(spilled.stats.join_spill_partitions, 0);
}

TEST(StorageBudget, ExternalSortMatchesUnlimitedOracle) {
  Database db;
  LoadClustered(&db, "big", 6000, 100, 61);
  // x is unique, so the top-20 is deterministic; the sort still has to
  // order all 6000 rows, far over the budget.
  const std::string sql =
      "SELECT x, y, s FROM big ORDER BY x DESC LIMIT 20";
  QueryOptions oracle;
  const QueryResult unlimited = RunOk(&db, sql, oracle);

  QueryOptions budgeted;
  budgeted.memory_budget_bytes =
      static_cast<size_t>(TableApproxBytes(&db, "big") / 10);
  const QueryResult spilled = RunOk(&db, sql, budgeted);
  EXPECT_EQ(SerializeRows(spilled.rows), SerializeRows(unlimited.rows));
  EXPECT_GT(spilled.stats.spilled_bytes, 0);
  EXPECT_GT(spilled.stats.sort_spill_runs, 0);
}

TEST(StorageBudget, SpillDisabledKeepsStrictFailure) {
  Database db;
  LoadClustered(&db, "big", 6000, 100, 62);
  const std::string sql = "SELECT x FROM big ORDER BY x DESC LIMIT 5";
  QueryOptions strict;
  strict.memory_budget_bytes =
      static_cast<size_t>(TableApproxBytes(&db, "big") / 10);
  strict.allow_spill = false;
  auto result = db.Query(sql, strict);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(StorageBudget, SortedResultIsChargedOnce) {
  // scan → Sort → collector over N rows. The sort charges its buffer (S
  // bytes) and the collector charges every row it keeps (S bytes again),
  // so a limit between the larger charge and their sum fails if the sort
  // holds its buffer's charge until its last row has left, and passes if
  // each chunk's charge leaves with it.
  const size_t n = 2000;
  std::vector<Row> rows;
  for (int64_t i = 0; i < static_cast<int64_t>(n); ++i) {
    rows.push_back(testing_util::IntRow({(i * 7919) % 2003, i}));
  }
  Table table("t", IntSchema({"k", "v"}));
  ASSERT_TRUE(table.AppendUnchecked(std::move(rows)).ok());
  const int64_t charge = ApproxRowsBytes(n, 2);

  PhysicalPlan plan;
  auto scan = std::make_unique<TableScanOp>(&table);
  auto sort =
      std::make_unique<SortPhysOp>(std::vector<PhysSortKey>{PhysSortKey{0}});
  auto sink = std::make_unique<CollectorSink>();
  CollectorSink* collector = sink.get();
  scan->AddConsumer(kPortOut, sort.get(), 0);
  sort->AddConsumer(kPortOut, sink.get(), 0);
  plan.sources.push_back(scan.get());
  plan.ops.push_back(std::move(scan));
  plan.ops.push_back(std::move(sort));
  plan.ops.push_back(std::move(sink));
  auto run = std::make_shared<RunContext>();
  run->batch_size = 100;
  run->memory_limit = charge + charge / 2;
  ExecContext ctx(run);
  const Status st = RunPlan(&plan, &ctx);
  ASSERT_TRUE(st.ok()) << st.ToString();

  const std::vector<Row>& sorted = collector->rows();
  ASSERT_EQ(sorted.size(), n);
  for (size_t r = 1; r < n; ++r) {
    ASSERT_LE(sorted[r - 1][0].int64_value(), sorted[r][0].int64_value());
  }
  // Only the collector's own charge is left: the sort holds nothing.
  EXPECT_EQ(run->memory_used.load(), charge);
}

TEST(StorageBudget, WorkloadAtTenthOfDataMatchesOracle) {
  // The acceptance-criterion differential: a small workload (join
  // aggregate, external sort, zone-skipping filter aggregate) at a
  // budget <= 1/10 of the data size must return byte-identical results
  // with nonzero spill and segment-skip counters across the run.
  Database db;
  LoadJoinPair(&db, 71, 4000);
  const int64_t data_bytes =
      TableApproxBytes(&db, "r1") + TableApproxBytes(&db, "s1");
  const std::vector<std::string> workload = {
      "SELECT COUNT(*), SUM(r1.y) FROM r1, s1 WHERE r1.y = s1.y",
      "SELECT x, y FROM r1 ORDER BY x DESC LIMIT 10",
      "SELECT COUNT(*), SUM(y) FROM r1 WHERE x < 400",
      "SELECT COUNT(*) FROM s1 WHERE x < 300 OR x >= 3800",
  };
  ExecStats accumulated;
  for (const std::string& sql : workload) {
    QueryOptions oracle;
    const QueryResult unlimited = RunOk(&db, sql, oracle);
    QueryOptions budgeted;
    budgeted.memory_budget_bytes = static_cast<size_t>(data_bytes / 10);
    const QueryResult constrained = RunOk(&db, sql, budgeted);
    EXPECT_EQ(SerializeRows(constrained.rows),
              SerializeRows(unlimited.rows))
        << sql;
    accumulated.Add(constrained.stats);
  }
  EXPECT_GT(accumulated.spilled_bytes, 0);
  EXPECT_GT(accumulated.segments_skipped, 0);
}

// --- Computed ORDER BY keys ----------------------------------------------

/// One ORDER BY case over RST data: the query, the same block without
/// ORDER BY / LIMIT (its rows are the reference), the select list, and
/// the hand-computed sort key of a reference row with its directions.
struct OrderCase {
  std::string sql;
  std::string unordered_sql;
  std::vector<std::string> columns;
  std::function<Row(const Row&)> key;
  std::vector<bool> descending;
  size_t limit;  // 0: no LIMIT
};

Value AddOrNull(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return Value::Null();
  return Value::Int64(a.int64_value() + b.int64_value());
}

Value NegOrNull(const Value& a) {
  return a.is_null() ? Value::Null() : Value::Int64(-a.int64_value());
}

Value CoalesceZero(const Value& a) {
  return a.is_null() ? Value::Int64(0) : a;
}

/// Keys computed from output columns: sums, negations and COALESCE,
/// mixed with bare columns, under DISTINCT and LIMIT.
std::vector<OrderCase> ComputedOrderCases(const std::string& r) {
  return {
      {"SELECT a1, a2, a3 FROM " + r + " ORDER BY a1 + a2 DESC, a1",
       "SELECT a1, a2, a3 FROM " + r,
       {"a1", "a2", "a3"},
       [](const Row& x) { return Row{AddOrNull(x[0], x[1]), x[0]}; },
       {true, false},
       0},
      {"SELECT DISTINCT a4 FROM " + r + " ORDER BY -a4",
       "SELECT DISTINCT a4 FROM " + r,
       {"a4"},
       [](const Row& x) { return Row{NegOrNull(x[0])}; },
       {false},
       0},
      {"SELECT a1, a2 FROM " + r + " ORDER BY COALESCE(a2, 0), a1",
       "SELECT a1, a2 FROM " + r,
       {"a1", "a2"},
       [](const Row& x) { return Row{CoalesceZero(x[1]), x[0]}; },
       {false, false},
       0},
      {"SELECT DISTINCT a1, a2 FROM " + r +
           " ORDER BY a1 + a2 DESC, a1, a2 LIMIT 20",
       "SELECT DISTINCT a1, a2 FROM " + r,
       {"a1", "a2"},
       [](const Row& x) { return Row{AddOrNull(x[0], x[1]), x[0], x[1]}; },
       {true, false, false},
       20},
      {"SELECT DISTINCT a2, a1 FROM " + r +
           " ORDER BY COALESCE(a2, 0), a2, a1 LIMIT 15",
       "SELECT DISTINCT a2, a1 FROM " + r,
       {"a2", "a1"},
       [](const Row& x) { return Row{CoalesceZero(x[0]), x[0], x[1]}; },
       {false, false, false},
       15},
      {"SELECT a4, a3 FROM " + r + " ORDER BY -a4, a3 DESC LIMIT 5",
       "SELECT a4, a3 FROM " + r,
       {"a4", "a3"},
       [](const Row& x) { return Row{NegOrNull(x[0]), x[1]}; },
       {false, true},
       5},
      // A repeated column name: the Π that drops the key column keeps
      // the select list by position, so `r.a1` twice is not ambiguous.
      {"SELECT a1, a1, a2 FROM " + r + " ORDER BY a2 + 1",
       "SELECT a1, a1, a2 FROM " + r,
       {"a1", "a1", "a2"},
       [](const Row& x) { return Row{AddOrNull(x[2], Value::Int64(1))}; },
       {false},
       0},
      {"SELECT a1, a1, a2 FROM " + r + " ORDER BY a2 + 1 DESC LIMIT 12",
       "SELECT a1, a1, a2 FROM " + r,
       {"a1", "a1", "a2"},
       [](const Row& x) { return Row{AddOrNull(x[2], Value::Int64(1))}; },
       {true},
       12},
  };
}

/// Checks `got` against the case's hand-sorted reference: the result
/// schema is the select list (no hidden key column), the key sequence is
/// the reference's exactly (the order ORDER BY defines), and the rows are
/// the reference's (a sub-multiset of them under LIMIT).
void ExpectOrdered(const OrderCase& c, const std::vector<Row>& reference,
                   const QueryResult& got) {
  ASSERT_EQ(got.schema.num_columns(), static_cast<int>(c.columns.size()));
  for (size_t i = 0; i < c.columns.size(); ++i) {
    EXPECT_EQ(got.schema.column(static_cast<int>(i)).name, c.columns[i]);
  }
  std::vector<Row> want = reference;
  std::stable_sort(want.begin(), want.end(),
                   [&](const Row& a, const Row& b) {
                     const Row ka = c.key(a), kb = c.key(b);
                     for (size_t i = 0; i < ka.size(); ++i) {
                       const int cmp = ka[i].OrderCompare(kb[i]);
                       if (cmp != 0) {
                         return c.descending[i] ? cmp > 0 : cmp < 0;
                       }
                     }
                     return false;
                   });
  if (c.limit > 0 && want.size() > c.limit) want.resize(c.limit);
  std::vector<Row> got_keys, want_keys;
  for (const Row& row : got.rows) got_keys.push_back(c.key(row));
  for (const Row& row : want) want_keys.push_back(c.key(row));
  EXPECT_EQ(SerializeRows(got_keys), SerializeRows(want_keys));
  if (c.limit == 0) {
    EXPECT_TRUE(RowMultisetsEqual(got.rows, reference));
    return;
  }
  std::multiset<std::string> pool;
  for (const Row& row : reference) pool.insert(SerializeRows({row}));
  for (const Row& row : got.rows) {
    const auto it = pool.find(SerializeRows({row}));
    ASSERT_NE(it, pool.end()) << "a row not in the reference";
    pool.erase(it);
  }
}

/// Runs every computed-key case at batch {1, 7, 1024} on `threads`
/// threads, then the LIMIT cases without DISTINCT over a larger table
/// under a budget at which the sort writes runs.
void CheckComputedOrderBy(int threads) {
  Database db;
  testing_util::LoadSmallRst(&db, 97, 2000, 10, 10, /*null_fraction=*/0.2,
                             /*max_value=*/30);
  testing_util::LoadSmallRst(&db, 98, 20000, 10, 10, /*null_fraction=*/0.2,
                             /*max_value=*/1000, "big");
  for (const bool spill : {false, true}) {
    for (const OrderCase& c : ComputedOrderCases(spill ? "rbig" : "r")) {
      if (spill && (c.limit == 0 || c.sql.find("DISTINCT") != c.sql.npos)) {
        continue;
      }
      SCOPED_TRACE(c.sql);
      const std::vector<Row> reference =
          RunOk(&db, c.unordered_sql, QueryOptions()).rows;
      for (size_t batch : {size_t{1}, size_t{7}, size_t{1024}}) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        QueryOptions options;
        options.batch_size = batch;
        options.num_threads = threads;
        if (spill) {
          // A quarter of the result's bytes: the sort, which also buffers
          // the computed keys, writes runs, while the few LIMIT rows the
          // result keeps fit beside its in-memory remainder.
          options.memory_budget_bytes = static_cast<size_t>(
              ApproxRowsBytes(reference.size(), c.columns.size()) / 4);
        }
        const QueryResult got = RunOk(&db, c.sql, options);
        if (spill) {
          EXPECT_GT(got.stats.sort_spill_runs, 0);
        }
        ExpectOrdered(c, reference, got);
      }
    }
  }
}

TEST(StorageSortComputedKeys, OrdersByExpressionsAtEveryBatchSize) {
  CheckComputedOrderBy(/*threads=*/1);
}

// --- Parallel variants (TSan sweep) --------------------------------------

TEST(StorageParallelBudget, ThreadedSpillMatchesSerialOracle) {
  Database db;
  LoadJoinPair(&db, 81, 3000);
  const std::string sql =
      "SELECT COUNT(*), SUM(r1.x) FROM r1, s1 WHERE r1.y = s1.y";
  QueryOptions oracle;
  const QueryResult serial = RunOk(&db, sql, oracle);
  for (int threads : {2, 4}) {
    QueryOptions budgeted;
    budgeted.num_threads = threads;
    budgeted.memory_budget_bytes = static_cast<size_t>(
        (TableColumnBytes(&db, "r1") + TableColumnBytes(&db, "s1")) / 10);
    const QueryResult constrained = RunOk(&db, sql, budgeted);
    EXPECT_TRUE(RowMultisetsEqual(constrained.rows, serial.rows))
        << "threads=" << threads;
    EXPECT_GT(constrained.stats.spilled_bytes, 0);
  }
}

TEST(StorageParallelZoneSkip, ThreadedScanMatchesSerial) {
  Database db;
  LoadClustered(&db, "big", 8000, 1000, 91);
  const std::string sql =
      "SELECT COUNT(*), SUM(y) FROM big WHERE x < 1000";
  QueryOptions serial_opts;
  const QueryResult serial = RunOk(&db, sql, serial_opts);
  QueryOptions threaded;
  threaded.num_threads = 4;
  const QueryResult parallel = RunOk(&db, sql, threaded);
  EXPECT_EQ(SerializeRows(parallel.rows), SerializeRows(serial.rows));
  EXPECT_EQ(parallel.stats.segments_skipped,
            serial.stats.segments_skipped);
}

TEST(StorageParallelSegmentScan, ConcurrentQueriesShareSegmentIndex) {
  // First queries after load race to build the segment index; the
  // build must be safe and every result identical to the serial oracle.
  // The oracle runs with zone maps off, so it never builds the index.
  Database db;
  LoadClustered(&db, "big", 6000, 50, 92);
  const std::string sql =
      "SELECT COUNT(*), SUM(y) FROM big WHERE x < 1500 AND y < 25";
  QueryOptions oracle_opts;
  oracle_opts.enable_zone_maps = false;
  const QueryResult oracle = RunOk(&db, sql, oracle_opts);
  std::vector<std::thread> threads;
  std::vector<QueryResult> results(4);
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&db, &results, t, &sql] {
      auto result = db.Query(sql, QueryOptions());
      if (result.ok()) results[static_cast<size_t>(t)] = std::move(*result);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const QueryResult& r : results) {
    EXPECT_EQ(SerializeRows(r.rows), SerializeRows(oracle.rows));
    EXPECT_GT(r.stats.segments_skipped, 0);
  }
}

TEST(StorageParallelSortComputedKeys, OrdersByExpressionsAtEveryBatchSize) {
  CheckComputedOrderBy(/*threads=*/4);
}

}  // namespace
}  // namespace bypass
