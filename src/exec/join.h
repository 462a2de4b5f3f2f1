// Joins: one operator for the inner, left outer, semi and anti join,
// hashing on equi keys when it has any and looping over every build row
// when it has none.
#ifndef BYPASSDB_EXEC_JOIN_H_
#define BYPASSDB_EXEC_JOIN_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/key_index.h"
#include "exec/phys_op.h"
#include "exec/worker_pool.h"
#include "expr/expr.h"
#include "storage/spill.h"

namespace bypass {

/// One probe row's matching build-row indices: a view into the table's
/// payload array, ascending, plus the row's position in the probed
/// batch's selection (it fills what would be padding, so an entry stays
/// 16 bytes). A keyless semi or anti join's hits carry a null `data`,
/// read through row(): match k is build row k.
struct JoinMatches {
  const uint32_t* data = nullptr;
  uint32_t count = 0;
  uint32_t pos = 0;

  bool empty() const { return count == 0; }
  uint32_t row(uint32_t k) const { return data != nullptr ? data[k] : k; }
  const uint32_t* begin() const { return data; }
  const uint32_t* end() const { return data + count; }
};

/// Per-worker scratch for JoinHashTable::ProbeBatch: the hit list. Only
/// the probe rows that hit are recorded, by ascending position, each with
/// its (never empty) build rows, so a join's work after the probe follows
/// the hits, not the batch; a row that misses (or has a NULL key) appears
/// nowhere.
struct JoinProbeScratch {
  KeyScratch keys;
  std::vector<JoinMatches> hits;
};

/// Index from build-side key values to build-row indices; SQL semantics:
/// rows with any NULL key never participate, so no NULL key is stored and
/// a probe with one misses.
///
/// A KeyIndex (common/key_index.h) at <= 1/4 load maps each key to its
/// id, so the slot array follows the number of distinct keys, never the
/// number of build rows, and a probe that misses ends at about its first
/// slot. Per id an (offset, count) range into one contiguous payload
/// array of ascending row indices is the multimap. Keys pack as int64
/// records while every key value equals an int64 (integral doubles as
/// their twins); a one-column int64 probe then reads the typed column in
/// one pass, resolving by hash alone.
class JoinHashTable {
 public:
  void Clear();

  /// Indexes the rows of `build` by the values at `key_slots` (NULL-keyed
  /// rows are skipped), inserting a borrowed window of its columns at a
  /// time. One serial pass in ascending row order assigns key ids, so
  /// each key's index list is ascending.
  void Build(const ColumnStore& build, const std::vector<int>& key_slots);

  /// Resolves every selected row of `batch` (KeyIndex::FindBatch) and
  /// leaves the hit list in `scratch`: the positions whose key is present,
  /// ascending, each with its build rows. The batch's rows are never
  /// materialized unless the keys are generic. Safe to call concurrently
  /// from multiple workers with distinct scratches.
  void ProbeBatch(const RowBatch& batch,
                  const std::vector<int>& probe_slots,
                  JoinProbeScratch* scratch) const;

  size_t num_keys() const { return index_.size(); }
  const KeyIndex& index() const { return index_; }
  /// num_keys + 1 prefix sums into payload(), by key id.
  const uint32_t* offsets() const { return offsets_.data(); }
  /// Build-row indices grouped by key id, ascending within a key.
  const uint32_t* payload() const { return payload_.data(); }

  /// Bytes retained by the index itself — key index, offsets, payload
  /// and the build's per-row key ids — excluding the build columns (their
  /// owner charges them separately). Feeds the memory budget.
  int64_t RetainedBytes() const;

 private:
  KeyIndex index_{/*max_load_eighths=*/2};
  std::vector<uint32_t> offsets_;
  std::vector<uint32_t> payload_;
  std::vector<uint32_t> row_key_;  // build scratch: each row's key id
};

/// The four join kinds of the paper's plans: θ pairs (Eqv. 5), the
/// left outer join with default (Eqv. 1/4), and the semi and anti joins
/// of quantified disjuncts.
enum class JoinKind : uint8_t { kInner, kLeftOuter, kSemi, kAnti };

/// The one physical join (right = build side). A probe row's candidates
/// are the build rows whose key values equal its own — every build row
/// when the join has no keys, the nested-loop join — and a candidate
/// pair matches when the optional residual is TRUE over its gathered row
/// (BinaryPhysOp::gather()). Per probe row, by kind:
///   inner       emits each matching pair;
///   left outer  emits each matching pair, or the row padded with
///               `unmatched_right` when there is none;
///   semi        emits the probe row when some pair matches;
///   anti        emits the probe row when none does.
/// NULL keys never match.
///
/// The build side is buffered as columns (BinaryPhysOp). Work is per
/// probe batch. A keyed join starts from its hit list (JoinProbeScratch),
/// which records only the rows that hit; a keyless join takes every build
/// row as a candidate of every probe row. The inner join records (probe,
/// build) pairs from the hits alone; the left outer join walks the batch
/// with a cursor into the hits and records each miss as a (probe, pad)
/// pair. The pairs are gathered column by column into one batch (probe
/// columns from the probe batch's, build columns from the buffered build
/// columns, pads from `unmatched_right`), the residual is evaluated over
/// it with the column kernels and it is emitted without its
/// predicate-only tail. Semi and anti joins emit the probe batch itself
/// with a narrowed selection: the hit positions, or their complement for
/// the anti join. Their residual is evaluated in rounds over the hits —
/// round r holds the r-th candidate of every hit still undecided — so no
/// pair after a row's first TRUE one is ever evaluated.
///
/// Out-of-core (keyed inner joins only): when the context carries a
/// memory budget and a spill manager, a build side that cannot be
/// charged switches the join into Grace mode — both inputs are
/// hash-partitioned to temp files by their join key and each partition
/// pair is joined in memory at finish. Output order then becomes
/// partition-major (still deterministic for a fixed partition count);
/// in-memory executions are byte-identical to the pre-spill behavior.
/// Every other join fails with ResourceExhausted over budget.
class HashJoinOp : public BinaryPhysOp {
 public:
  /// `probe_key_slots` (left) and `build_key_slots` (right) pair up and
  /// may both be empty. `unmatched_right` is read by the left outer join
  /// only and must have the buffered right row's arity.
  HashJoinOp(JoinKind kind, std::vector<int> probe_key_slots,
             std::vector<int> build_key_slots, ExprPtr residual,
             Row unmatched_right = {})
      : kind_(kind),
        probe_key_slots_(std::move(probe_key_slots)),
        build_key_slots_(std::move(build_key_slots)),
        residual_(std::move(residual)),
        unmatched_right_(std::move(unmatched_right)) {}

  Status Prepare(ExecContext* ctx) override;
  void Reset() override;
  /// "HashJoin", "HashLeftOuterJoin", "HashSemiJoin [keys l0=r1, ...]"
  /// with keys; "CrossProduct", "NLJoin <pred>", "NLLeftOuterJoin <pred>",
  /// "NLAntiJoin <pred>" without. Joins that emit pairs append the
  /// gather's label suffix.
  std::string Label() const override;

  JoinKind kind() const { return kind_; }

  /// The built table once the in-memory build completed (acquire), for
  /// a compiled pipeline that fused this join's probe (DESIGN.md §12);
  /// null while building, after a failed budget charge and in Grace mode.
  const JoinHashTable* codegen_table() const {
    return table_published_.load(std::memory_order_acquire) ? &table_
                                                            : nullptr;
  }
  /// Build columns the payload indices point into (narrowed to the
  /// buffered layout the gather addresses).
  const ColumnStore& build_columns() const { return right_columns(); }
  const std::vector<int>& probe_key_slots() const {
    return probe_key_slots_;
  }
  bool has_residual() const { return residual_ != nullptr; }

  /// The gathered columns (predicate-only tail included) of `num_pairs`
  /// pairs: pair p joins the batch's storage row `probe[p]` (an entry of
  /// its selection) with row `build[p]` of `build_columns`, or with the
  /// left outer join's pad row when `build[p]` is the pad marker. Also
  /// the output path of a compiled pipeline that fused this join's probe,
  /// which passes build_columns().
  ColumnStore GatherPairs(const RowBatch& batch,
                          const ColumnStore& build_columns,
                          const uint32_t* probe, const uint32_t* build,
                          size_t num_pairs) const;

 protected:
  Status BuildFromRight() override;
  Status ProcessLeftBatch(RowBatch batch) override;
  Status FinishBoth() override;
  bool CanSpillRight() const override {
    return kind_ == JoinKind::kInner && keyed();
  }

 private:
  /// Fan-out of the Grace repartitioning; 16 partitions put each pair at
  /// ~1/16 of the build side, comfortably under any budget that admitted
  /// spilling in the first place.
  static constexpr size_t kGracePartitions = 16;

  bool keyed() const { return !probe_key_slots_.empty(); }
  bool existence() const {
    return kind_ == JoinKind::kSemi || kind_ == JoinKind::kAnti;
  }

  /// Pad marker in PairScratch::build: the left outer join's
  /// `unmatched_right_` row instead of a build row.
  static constexpr uint32_t kPad = 0xffffffffu;

  /// Per-worker pair buffers, reused across batches.
  struct alignas(64) PairScratch {
    JoinProbeScratch probe;
    std::vector<uint32_t> pair_probe;  // pair → position in the batch
    std::vector<uint32_t> pair_build;  // pair → build row or kPad
    std::vector<uint32_t> storage;     // pair → probe storage index
    /// Left outer join with a residual: the last position one of whose
    /// pairs passed (kPad for none), which decides the pad after it.
    uint32_t last_matched = kPad;
    std::vector<uint8_t> matched;      // per hit: a pair passed
    std::vector<uint32_t> next;        // per hit: next candidate
    std::vector<uint32_t> undecided;   // hits still undecided
    std::vector<uint32_t> passed;      // positions of the passing hits
    std::vector<uint32_t> candidates;  // pairs with a build row
    std::vector<uint32_t> sel_true;
    std::vector<uint32_t> keep;
  };

  /// Joins one probe batch against `build` (right_columns() in memory,
  /// the loaded partition in Grace mode, indexed by table_ when keyed).
  Status JoinBatch(RowBatch batch, const ColumnStore& build);
  /// Semi and anti joins: emits the batch narrowed to its passing rows.
  Status EmitExistence(RowBatch batch, const ColumnStore& build,
                       PairScratch* s);
  /// Inner and left outer joins: records the batch's pairs and emits
  /// them in chunks of batch_size().
  Status EmitPairs(const RowBatch& batch, const ColumnStore& build,
                   PairScratch* s);
  /// Gathers, filters and emits the recorded pairs, then clears them.
  Status FlushPairs(const RowBatch& batch, const ColumnStore& build,
                    PairScratch* s);
  /// GatherPairs over the recorded pairs.
  ColumnStore GatherPairs(const RowBatch& batch, const ColumnStore& build,
                          PairScratch* s) const;

  /// Tears down in-memory build state and repartitions the right side
  /// (spilled files + in-memory remainder) into kGracePartitions temp
  /// files. Single-threaded (right-finish phase).
  Status EnterGraceMode();

  /// Appends rows idx[0, n) of `store` to their key partitions' files in
  /// `parts`, read from the columns; NULL-keyed rows are dropped (they can
  /// never match an inner join). Locks each partition's mutex when
  /// `lock` (the left side, routed by concurrent workers).
  Status RouteRows(const ColumnStore& store, const uint32_t* idx, size_t n,
                   const std::vector<int>& key_slots,
                   std::vector<std::unique_ptr<SpillFile>>* parts, bool lock);

  /// Partition-wise join at finish: per partition, load + index the
  /// right columns, stream-probe the left file. Single-threaded.
  Status ProbeGracePartitions();

  JoinKind kind_;
  std::vector<int> probe_key_slots_;
  std::vector<int> build_key_slots_;
  ExprPtr residual_;
  Row unmatched_right_;
  JoinHashTable table_;
  std::vector<PairScratch> scratch_;  // per worker

  /// Set by BuildFromRight (single-threaded) before any left row flows
  /// in Grace mode; workers only read it, under the same phase ordering
  /// that publishes the hash table itself.
  bool grace_ = false;
  /// Set once per in-memory build (see codegen_table()).
  std::atomic<bool> table_published_{false};
  std::vector<std::unique_ptr<SpillFile>> right_parts_;
  std::vector<std::unique_ptr<SpillFile>> left_parts_;
  std::array<std::mutex, kGracePartitions> part_mutex_;
};

}  // namespace bypass

#endif  // BYPASSDB_EXEC_JOIN_H_
