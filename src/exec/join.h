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

#include "common/flat_table.h"
#include "exec/phys_op.h"
#include "exec/worker_pool.h"
#include "expr/expr.h"
#include "storage/spill.h"

namespace bypass {

/// One probe's matching build-row indices: a view into the table's
/// payload array, ascending, empty on miss / NULL key.
struct JoinMatches {
  const uint32_t* data = nullptr;
  uint32_t count = 0;

  bool empty() const { return count == 0; }
  const uint32_t* begin() const { return data; }
  const uint32_t* end() const { return data + count; }
};

/// Per-worker scratch for JoinHashTable::ProbeBatch.
struct JoinProbeScratch {
  std::vector<uint64_t> hashes;
  std::vector<int64_t> keys;       // packed probe keys, width words per row
  std::vector<uint8_t> valid;      // 0 = NULL / non-matchable probe key
  std::vector<JoinMatches> matches;  // aligned with the batch's rows
};

/// Flat open-addressing index from build-side key values to build-row
/// indices; SQL semantics: rows with any NULL key never participate.
///
/// Layout: a power-of-two slot array of {cached hash, key id} probed
/// linearly; per key an (offset, count) range into one contiguous payload
/// array of ascending row indices. The slot array follows the number of
/// distinct keys, never the number of build rows: it doubles during the
/// insert pass whenever the load would pass 1/4, so a probe that misses
/// ends at about its first slot.
///
/// The build's keys pick one of three shapes, each with its own build
/// and probe kernel:
///   int64    one column whose non-NULL keys are all int64 (or doubles
///            equal to one, 1 = 1.0): the raw key per key id, hashed with
///            the splitmix64 finalizer; the probe reads a typed int64
///            column directly.
///   packed   two to eight such columns: each key packed into `width`
///            int64 words of one fixed-stride arena, compared word by
///            word; probes pack column by column.
///   generic  anything else: keys are compared against a representative
///            build row, Value by Value.
/// A probe value that can equal no int64 (a string, a bool, a fractional
/// double) misses an int64 or packed table without touching it.
class JoinHashTable {
 public:
  void Clear();

  /// Indexes `rows` by the values at `key_slots` (NULL-keyed rows are
  /// skipped). `rows` and `key_slots` must outlive a generic-shape table.
  /// With a non-null `pool` and enough rows, generic keys are hashed over
  /// contiguous row ranges in parallel; the insert/fill passes are serial
  /// over ascending row indices, so each key's index list is ascending —
  /// byte-identical to the serial build.
  void Build(const std::vector<Row>& rows,
             const std::vector<int>& key_slots,
             WorkerPool* pool = nullptr);

  /// Resolves every selected row of `batch` through the kernel of the
  /// table's key shape; `scratch->matches` ends up aligned with the
  /// batch's selected rows. A column-only batch is never materialized
  /// unless the table is generic. Safe to call concurrently from
  /// multiple workers with distinct scratches.
  void ProbeBatch(const RowBatch& batch,
                  const std::vector<int>& probe_slots,
                  JoinProbeScratch* scratch) const;

  size_t num_keys() const { return num_keys_; }
  /// True when the table holds its own keys (int64 and packed shapes):
  /// probes then never read the build rows.
  bool owns_keys() const { return shape_ != KeyShape::kGeneric; }

  /// Raw-slot view for the codegen tier: the emitted probe loop walks
  /// the slot array with the cached-hash compare and resolves matches
  /// through the offsets/payload pair, exactly like FindInt64/MatchesOf
  /// (DESIGN.md §12). Valid for an int64-shape table or an empty one
  /// (null `slots`, every compiled probe misses — matching the empty
  /// table's behavior); any other shape returns an invalid view and the
  /// batch falls back to the interpreter. Pointers stay stable until the
  /// next Build/Clear.
  struct JoinInt64View {
    const void* slots = nullptr;   ///< Slot{u64 hash, u32 key_id} array
    uint64_t mask = 0;
    const int64_t* keys = nullptr;     ///< raw key per key id
    const uint32_t* offsets = nullptr; ///< num_keys + 1 prefix sums
    const uint32_t* payload = nullptr; ///< row indices grouped by key
    bool valid = false;
  };
  JoinInt64View ExportInt64View() const {
    static_assert(sizeof(Slot) == 16 && offsetof(Slot, key_id) == 8,
                  "emitted CgJSlot mirrors this layout");
    JoinInt64View v;
    if (num_keys_ == 0) {
      v.valid = true;  // empty build side: all-miss, no slot array
      return v;
    }
    if (shape_ != KeyShape::kInt64) return v;
    v.valid = true;
    v.slots = slots_.data();
    v.mask = mask_;
    v.keys = key_words_.data();
    v.offsets = offsets_.data();
    v.payload = payload_.data();
    return v;
  }

  /// Bytes retained by the index itself — slot array, per-key metadata,
  /// payload, and build scratch — excluding the build rows (their owner
  /// charges them separately). Feeds the memory budget.
  int64_t RetainedBytes() const;

 private:
  enum class KeyShape : uint8_t { kInt64, kPacked, kGeneric };

  struct Slot {
    uint64_t hash;
    uint32_t key_id;
  };
  static constexpr uint32_t kEmpty = 0xffffffffu;
  static constexpr uint32_t kSkip = 0xffffffffu;
  /// Widest packed key; wider keys take the generic shape.
  static constexpr size_t kMaxPackedWidth = 8;

  /// Generic keys' hashing pass over [begin, end): fills hashes_ and the
  /// row_key_ skip marks.
  void HashRange(const std::vector<Row>& rows,
                 const std::vector<int>& key_slots, size_t begin,
                 size_t end);

  /// Empties the slot array down to 16 slots and forgets every key.
  void ResetSlots();
  /// Claims the empty `slot` for a new key of hash `hash`, growing the
  /// slot array when the load passes 1/4; returns the key's id.
  uint32_t NewKey(Slot* slot, uint64_t hash, std::vector<uint32_t>* counts);

  /// Insert passes, serial in ascending row order: assign each row its
  /// key id and count rows per key. InsertWords packs, hashes and
  /// inserts int64/packed keys in one pass, and returns false when a key
  /// value equals no int64. InsertGeneric hashes first (in parallel on
  /// `pool` for large builds).
  bool InsertWords(const std::vector<Row>& rows,
                   const std::vector<int>& key_slots,
                   std::vector<uint32_t>* counts);
  void InsertGeneric(const std::vector<Row>& rows,
                     const std::vector<int>& key_slots, WorkerPool* pool,
                     std::vector<uint32_t>* counts);

  void ProbeInt64(const RowBatch& batch, size_t slot,
                  JoinMatches* matches) const;
  void ProbePacked(const RowBatch& batch,
                   const std::vector<int>& probe_slots,
                   JoinProbeScratch* scratch) const;
  void ProbeGeneric(const RowBatch& batch,
                    const std::vector<int>& probe_slots,
                    JoinProbeScratch* scratch) const;

  JoinMatches MatchesOf(uint32_t key_id) const {
    return JoinMatches{payload_.data() + offsets_[key_id],
                       offsets_[key_id + 1] - offsets_[key_id]};
  }

  /// Key id of an int64 key, or kEmpty. The splitmix64 finalizer is a
  /// bijection, so equal hashes mean equal keys.
  uint32_t FindInt64(int64_t key) const {
    const uint64_t h = flat_internal::HashInt64Key(key);
    for (size_t pos = h & mask_;; pos = (pos + 1) & mask_) {
      const Slot& s = slots_[pos];
      if (s.key_id == kEmpty || s.hash == h) return s.key_id;
    }
  }

  // Slot array (power-of-two) and per-key metadata.
  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t num_keys_ = 0;
  std::vector<int64_t> key_words_;   // int64/packed: width_ words per key
  std::vector<uint32_t> key_repr_;   // generic: representative build row
  std::vector<uint32_t> offsets_;    // num_keys + 1 prefix sums
  std::vector<uint32_t> payload_;    // row indices grouped by key, asc

  // Build-time scratch (kept for reuse across Reset/Build cycles).
  std::vector<uint64_t> hashes_;
  std::vector<uint32_t> row_key_;

  const std::vector<Row>* build_rows_ = nullptr;
  const std::vector<int>* build_key_slots_ = nullptr;
  KeyShape shape_ = KeyShape::kGeneric;
  size_t width_ = 0;  // key columns
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
/// Work is per probe batch. The inner and left outer joins record
/// (probe, build-or-pad) pairs, gather them column by column into one
/// column-only batch (probe columns from the probe batch's columns when
/// it has them, build and pad columns from the buffered build rows,
/// types from the gather), evaluate the residual over it with the column
/// kernels and emit it without its predicate-only tail. Semi and anti
/// joins emit the probe batch itself with a narrowed selection; their
/// residual is evaluated in rounds — round r holds the r-th candidate
/// of every probe row still undecided — so no pair after a row's first
/// TRUE one is ever evaluated.
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

  // --- Codegen-tier surface (DESIGN.md §12): a compiled pipeline that
  //     fused this join's probe loop reads the build side through these
  //     accessors. The view is published with release semantics at the
  //     end of a successful in-memory build and never while the join is
  //     in Grace/spill mode, so a compiled probe either sees the
  //     complete table or falls back to the interpreted chain (which
  //     buffers pre-build batches per the BinaryPhysOp contract).

  /// True (acquire) once the in-memory build completed and `*view` was
  /// filled; false while building, after a failed budget charge, and in
  /// Grace mode — the caller then falls back for the batch.
  bool codegen_view(JoinHashTable::JoinInt64View* view) const {
    if (!view_published_.load(std::memory_order_acquire)) return false;
    *view = view_;
    return true;
  }
  /// Build rows the view's payload indices point into (narrowed to the
  /// buffered layout the gather addresses).
  const std::vector<Row>& build_rows() const { return right_rows(); }
  const std::vector<int>& probe_key_slots() const {
    return probe_key_slots_;
  }
  bool has_residual() const { return residual_ != nullptr; }

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
    std::vector<GatherCol> concat;  // the default gather's columns
    std::vector<uint32_t> pair_probe;  // pair → position in the batch
    std::vector<uint32_t> pair_build;  // pair → build row or kPad
    std::vector<uint32_t> storage;     // pair → probe storage index
    std::vector<uint8_t> matched;      // per batch position
    std::vector<uint32_t> next;        // per position: next candidate
    std::vector<uint32_t> undecided;   // positions still undecided
    std::vector<uint32_t> candidates;  // pairs with a build row
    std::vector<uint32_t> sel_true;
    std::vector<uint32_t> keep;
  };

  /// Joins one probe batch against `build_rows` (right_rows() in memory,
  /// the loaded partition in Grace mode, indexed by table_ when keyed).
  Status JoinBatch(RowBatch batch, const std::vector<Row>& build_rows);
  /// Semi and anti joins: emits the batch narrowed to its passing rows.
  Status EmitExistence(RowBatch batch, const JoinMatches* matches,
                       const std::vector<Row>& build_rows, PairScratch* s);
  /// Inner and left outer joins: records the batch's pairs and emits
  /// them in chunks of batch_size().
  Status EmitPairs(const RowBatch& batch, const JoinMatches* matches,
                   const std::vector<Row>& build_rows, PairScratch* s);
  /// Gathers, filters and emits the recorded pairs, then clears them.
  Status FlushPairs(const RowBatch& batch, const std::vector<Row>& build_rows,
                    PairScratch* s);
  /// The recorded pairs' gathered columns, predicate-only tail included.
  ColumnStore GatherPairs(const RowBatch& batch,
                          const std::vector<Row>& build_rows,
                          PairScratch* s) const;

  /// Tears down in-memory build state and repartitions the right side
  /// (spilled files + in-memory remainder) into kGracePartitions temp
  /// files. Single-threaded (right-finish phase).
  Status EnterGraceMode();

  /// Appends a left row to its key partition's temp file; NULL-keyed rows
  /// are dropped (they can never match an inner join). Thread-safe.
  Status RouteLeftRow(const Row& row);

  /// Partition-wise join at finish: per partition, load + index the
  /// right rows, stream-probe the left file. Single-threaded.
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
  /// Codegen view of `table_`, published once per build (see above).
  JoinHashTable::JoinInt64View view_;
  std::atomic<bool> view_published_{false};
  std::vector<std::unique_ptr<SpillFile>> right_parts_;
  std::vector<std::unique_ptr<SpillFile>> left_parts_;
  std::array<std::mutex, kGracePartitions> part_mutex_;
};

}  // namespace bypass

#endif  // BYPASSDB_EXEC_JOIN_H_
