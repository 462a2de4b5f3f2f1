#include "exec/join.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "common/check.h"

namespace bypass {

namespace {

/// Partitions come from the hash's top bits so they stay independent of
/// the low bits the per-partition hash tables mask with.
constexpr int kGracePartitionShift = 60;

/// Value-determined Grace partition of a join key without NULLs: equal
/// keys must land in the same partition no matter which side or column
/// type they come from. Single-column keys structurally equal to an int64
/// (int64, or a double representing one exactly — the classes Int64KeyOf
/// unifies) take the int64 finalizer on both sides; everything else takes
/// the generic row hash, which is itself equality-consistent.
size_t GracePartitionOf(const Row& key) {
  uint64_t hash;
  int64_t k;
  bool is_null;
  if (key.size() == 1 && Int64KeyOf(key[0], &k, &is_null)) {
    hash = HashInt64Key(k);
  } else {
    hash = HashRow(key);
  }
  return static_cast<size_t>(hash >> kGracePartitionShift);
}

/// Appends rows of `file` to `out` until it holds `max_rows`; false once
/// the file is exhausted.
Result<bool> ReadRowsInto(SpillFile* file, size_t max_rows,
                          ColumnStore* out) {
  Row row;
  while (out->num_rows < max_rows) {
    BYPASS_ASSIGN_OR_RETURN(bool more, file->ReadRow(&row));
    if (!more) return false;
    out->AppendRow(row);
  }
  return true;
}

std::vector<uint32_t> AllRows(const ColumnStore& store) {
  std::vector<uint32_t> all(store.num_rows);
  std::iota(all.begin(), all.end(), 0);
  return all;
}

}  // namespace

void JoinHashTable::Clear() {
  index_.Clear();
  offsets_.clear();
  payload_.clear();
}

void JoinHashTable::Build(const ColumnStore& build,
                          const std::vector<int>& key_slots) {
  Clear();
  const size_t n = build.num_rows;
  row_key_.resize(n);
  // A window of rows at a time, so the inserts run with slots prefetched
  // and the index's scratch stays one batch long.
  for (size_t begin = 0; begin < n; begin += kDefaultBatchSize) {
    const size_t end = std::min(n, begin + kDefaultBatchSize);
    index_.FindOrInsertBatch(RowBatch::BorrowedColumns(&build, begin, end),
                             key_slots, row_key_.data() + begin,
                             KeyIndex::Equality::kJoin);
  }
  // Fill pass: prefix sums of the rows per key, then ascending row
  // indices per key.
  offsets_.assign(index_.size() + 1, 0);
  for (uint32_t id : row_key_) {
    if (id != KeyIndex::kNone) ++offsets_[id + 1];
  }
  for (size_t k = 0; k < index_.size(); ++k) offsets_[k + 1] += offsets_[k];
  payload_.resize(offsets_.back());
  std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    if (row_key_[i] == KeyIndex::kNone) continue;
    payload_[cursor[row_key_[i]]++] = static_cast<uint32_t>(i);
  }
}

void JoinHashTable::ProbeBatch(const RowBatch& batch,
                               const std::vector<int>& probe_slots,
                               JoinProbeScratch* scratch) const {
  std::vector<JoinMatches>& hits = scratch->hits;
  hits.clear();
  index_.FindBatch(batch, probe_slots, &scratch->keys,
                   [&](size_t i, uint32_t id) {
                     hits.push_back(JoinMatches{
                         payload_.data() + offsets_[id],
                         offsets_[id + 1] - offsets_[id],
                         static_cast<uint32_t>(i)});
                   });
}

int64_t JoinHashTable::RetainedBytes() const {
  const size_t bytes = offsets_.capacity() * sizeof(uint32_t) +
                       payload_.capacity() * sizeof(uint32_t) +
                       row_key_.capacity() * sizeof(uint32_t);
  return index_.RetainedBytes() + static_cast<int64_t>(bytes);
}

// --------------------------------------------------------------- HashJoin

Status HashJoinOp::Prepare(ExecContext* ctx) {
  BYPASS_RETURN_IF_ERROR(BinaryPhysOp::Prepare(ctx));
  scratch_.resize(static_cast<size_t>(ctx->run().num_worker_slots()));
  return Status::OK();
}

void HashJoinOp::Reset() {
  BinaryPhysOp::Reset();
  table_published_.store(false, std::memory_order_release);
  table_.Clear();
  grace_ = false;
  right_parts_.clear();
  left_parts_.clear();
}

std::string HashJoinOp::Label() const {
  const std::string pred =
      residual_ != nullptr ? " " + residual_->ToString() : std::string();
  if (existence()) {
    const std::string name =
        kind_ == JoinKind::kAnti ? "AntiJoin" : "SemiJoin";
    if (!keyed()) return "NL" + name + pred;
    std::string out = "Hash" + name + " [keys ";
    for (size_t i = 0; i < probe_key_slots_.size(); ++i) {
      if (i > 0) out += ", ";
      out += "l" + std::to_string(probe_key_slots_[i]) + "=r" +
             std::to_string(build_key_slots_[i]);
    }
    return out + "]" + pred;
  }
  const std::string name =
      kind_ == JoinKind::kInner ? "Join" : "LeftOuterJoin";
  std::string out;
  if (keyed()) {
    out = "Hash" + name;
  } else if (kind_ == JoinKind::kInner && residual_ == nullptr) {
    out = "CrossProduct";
  } else {
    out = "NL" + name + pred;
  }
  return out + gather().LabelSuffix();
}

Status HashJoinOp::BuildFromRight() {
  static_assert(kGracePartitions ==
                size_t{1} << (64 - kGracePartitionShift));
  if (!keyed()) return Status::OK();  // every build row is a candidate
  if (right_spilled()) return EnterGraceMode();
  table_.Build(right_columns(), build_key_slots_);
  // The index arrays scale with the build side exactly like the buffered
  // rows (charged on arrival) do, so they pay into the budget too.
  const int64_t bytes = table_.RetainedBytes();
  if (CanSpillRight() && ctx_->run().spill != nullptr) {
    if (!ctx_->run().TryChargeMemory(bytes)) {
      // Drop the arrays, not just the keys: each partition's table
      // reports its capacity to the budget.
      table_ = JoinHashTable();
      return EnterGraceMode();
    }
  } else {
    BYPASS_RETURN_IF_ERROR(ctx_->run().ChargeMemory(bytes));
  }
  // A semi or anti join without a residual reads only match counts, and
  // the table holds its own keys, so the buffered build columns can go.
  if (existence() && residual_ == nullptr) {
    TakeRightColumns();
    ctx_->run().ReleaseMemory(TakeRightCharges());
  }
  // The build is complete and budgeted: publish the table. The release
  // store pairs with codegen_table()'s acquire load — a compiled probe
  // bypasses this operator's internal phase ordering, so it needs its own
  // happens-before edge to the table's arrays.
  table_published_.store(true, std::memory_order_release);
  return Status::OK();
}

Status HashJoinOp::EnterGraceMode() {
  RunContext& run = ctx_->run();
  right_parts_.resize(kGracePartitions);
  left_parts_.resize(kGracePartitions);
  for (size_t p = 0; p < kGracePartitions; ++p) {
    BYPASS_ASSIGN_OR_RETURN(right_parts_[p], run.spill->NewFile("gracer"));
    BYPASS_ASSIGN_OR_RETURN(left_parts_[p], run.spill->NewFile("gracel"));
  }
  run.stats().spill_files += static_cast<int64_t>(2 * kGracePartitions);
  // Repartition the in-memory remainder first, releasing its budget
  // charges, then replay the workers' overflow files a batch at a time.
  {
    const ColumnStore mem = TakeRightColumns();
    const std::vector<uint32_t> all = AllRows(mem);
    BYPASS_RETURN_IF_ERROR(RouteRows(mem, all.data(), all.size(),
                                     build_key_slots_, &right_parts_,
                                     /*lock=*/false));
  }
  run.ReleaseMemory(TakeRightCharges());
  BYPASS_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<SpillFile>> spilled,
                          TakeRightSpillFiles());
  for (const std::unique_ptr<SpillFile>& file : spilled) {
    BYPASS_RETURN_IF_ERROR(file->OpenRead());
    for (bool more = true; more;) {
      ColumnStore chunk;
      BYPASS_ASSIGN_OR_RETURN(more,
                              ReadRowsInto(file.get(), batch_size(), &chunk));
      const std::vector<uint32_t> all = AllRows(chunk);
      BYPASS_RETURN_IF_ERROR(RouteRows(chunk, all.data(), all.size(),
                                       build_key_slots_, &right_parts_,
                                       /*lock=*/false));
    }
  }
  for (std::unique_ptr<SpillFile>& part : right_parts_) {
    BYPASS_RETURN_IF_ERROR(part->FinishWrite());
    run.stats().spilled_bytes += part->bytes_written();
  }
  grace_ = true;
  return Status::OK();
}

Status HashJoinOp::RouteRows(const ColumnStore& store, const uint32_t* idx,
                             size_t n, const std::vector<int>& key_slots,
                             std::vector<std::unique_ptr<SpillFile>>* parts,
                             bool lock) {
  Row key(key_slots.size());
  for (size_t i = 0; i < n; ++i) {
    bool null_key = false;
    for (size_t j = 0; j < key_slots.size(); ++j) {
      key[j] = store.columns[static_cast<size_t>(key_slots[j])].GetValue(
          idx[i]);
      null_key = null_key || key[j].is_null();
    }
    if (null_key) continue;
    const size_t p = GracePartitionOf(key);
    const Row row = store.MaterializeRow(idx[i]);
    std::unique_lock<std::mutex> guard(part_mutex_[p], std::defer_lock);
    if (lock) guard.lock();
    BYPASS_RETURN_IF_ERROR((*parts)[p]->AppendRow(row));
  }
  return Status::OK();
}

Status HashJoinOp::ProbeGracePartitions() {
  ExecStats& stats = ctx_->run().stats();
  for (std::unique_ptr<SpillFile>& part : left_parts_) {
    BYPASS_RETURN_IF_ERROR(part->FinishWrite());
    stats.spilled_bytes += part->bytes_written();
  }
  for (size_t p = 0; p < kGracePartitions; ++p) {
    SpillFile& right = *right_parts_[p];
    SpillFile& left = *left_parts_[p];
    if (right.rows_written() == 0 || left.rows_written() == 0) continue;
    BYPASS_RETURN_IF_ERROR(ctx_->run().CheckBudget());
    ColumnStore build;
    BYPASS_RETURN_IF_ERROR(right.OpenRead());
    BYPASS_RETURN_IF_ERROR(
        ReadRowsInto(&right, right.rows_written(), &build).status());
    // One partition pair is resident at a time; its charges are released
    // before the next partition loads. A single partition that still
    // overflows the budget (extreme key skew) fails rather than thrash.
    const int64_t build_bytes = build.ApproxBytes();
    if (!ctx_->run().TryChargeMemory(build_bytes)) {
      return Status::ResourceExhausted(
          "grace-join partition exceeds the memory budget");
    }
    table_.Build(build, build_key_slots_);
    const int64_t table_bytes = table_.RetainedBytes();
    if (!ctx_->run().TryChargeMemory(table_bytes)) {
      ctx_->run().ReleaseMemory(build_bytes);
      return Status::ResourceExhausted(
          "grace-join partition exceeds the memory budget");
    }
    // The partition's left rows stream through the in-memory path a
    // batch at a time.
    BYPASS_RETURN_IF_ERROR(left.OpenRead());
    Status st = Status::OK();
    for (bool more = true; st.ok() && more;) {
      ColumnStore rows;
      Result<bool> read = ReadRowsInto(&left, batch_size(), &rows);
      if (!read.ok()) {
        st = read.status();
        break;
      }
      more = *read;
      if (rows.num_rows > 0) {
        st = JoinBatch(RowBatch::FromColumns(std::move(rows)), build);
      }
    }
    table_.Clear();
    ctx_->run().ReleaseMemory(build_bytes + table_bytes);
    BYPASS_RETURN_IF_ERROR(st);
    ++stats.join_spill_partitions;
  }
  right_parts_.clear();
  left_parts_.clear();
  return Status::OK();
}

Status HashJoinOp::ProcessLeftBatch(RowBatch batch) {
  if (grace_) {
    return RouteRows(*batch.columns(), batch.selection().data(), batch.size(),
                     probe_key_slots_, &left_parts_, /*lock=*/true);
  }
  return JoinBatch(std::move(batch), right_columns());
}

// A keyed join probes the whole batch through the vectorized
// hash-then-resolve path; a keyless one takes every build row as a
// candidate of every probe row.
Status HashJoinOp::JoinBatch(RowBatch batch, const ColumnStore& build) {
  PairScratch& s = scratch_[static_cast<size_t>(CurrentWorkerId())];
  if (keyed()) table_.ProbeBatch(batch, probe_key_slots_, &s.probe);
  if (existence()) return EmitExistence(std::move(batch), build, &s);
  return EmitPairs(batch, build, &s);
}

Status HashJoinOp::EmitExistence(RowBatch batch, const ColumnStore& build,
                                 PairScratch* s) {
  const size_t n = batch.size();
  std::vector<JoinMatches>& hits = s->probe.hits;
  if (!keyed()) {
    // Every probe row is a hit on every build row.
    hits.clear();
    const uint32_t rows = static_cast<uint32_t>(build.num_rows);
    for (uint32_t i = 0; rows > 0 && i < n; ++i) {
      hits.push_back(JoinMatches{nullptr, rows, i});
    }
  }
  // The positions that pass: every hit without a residual, else the hits
  // with a TRUE pair.
  s->passed.clear();
  if (residual_ == nullptr) {
    for (const JoinMatches& m : hits) s->passed.push_back(m.pos);
  } else {
    const size_t num_hits = hits.size();
    s->matched.assign(num_hits, 0);
    s->next.assign(num_hits, 0);
    s->undecided.resize(num_hits);
    std::iota(s->undecided.begin(), s->undecided.end(), 0);
    int64_t since_check = 0;
    while (!s->undecided.empty()) {
      if (!keyed()) {
        since_check += static_cast<int64_t>(s->undecided.size());
        if (since_check >= 4096) {
          since_check = 0;
          BYPASS_RETURN_IF_ERROR(ctx_->run().CheckBudget());
        }
      }
      // Round: the next candidate of every undecided hit.
      s->pair_probe.clear();
      s->pair_build.clear();
      for (uint32_t h : s->undecided) {
        s->pair_probe.push_back(hits[h].pos);
        s->pair_build.push_back(hits[h].row(s->next[h]));
      }
      const RowBatch pairs =
          RowBatch::FromColumns(GatherPairs(batch, build, s));
      s->sel_true.clear();
      BYPASS_RETURN_IF_ERROR(residual_->PartitionBatch(
          pairs, ctx_->outer_row(), &s->sel_true, nullptr, nullptr));
      size_t t = 0;
      size_t kept = 0;
      for (size_t p = 0; p < s->undecided.size(); ++p) {
        const uint32_t h = s->undecided[p];
        if (t < s->sel_true.size() && s->sel_true[t] == p) {
          ++t;
          s->matched[h] = 1;
        } else if (++s->next[h] < hits[h].count) {
          s->undecided[kept++] = h;
        }
      }
      s->undecided.resize(kept);
    }
    for (size_t h = 0; h < num_hits; ++h) {
      if (s->matched[h] != 0) s->passed.push_back(hits[h].pos);
    }
  }
  // The semi join keeps the passing positions; the anti join keeps the
  // rest, in one cursor walk over the batch.
  const std::vector<uint32_t>& passed = s->passed;
  const std::vector<uint32_t>& sel = batch.selection();
  const bool anti = kind_ == JoinKind::kAnti;
  if (passed.size() == (anti ? 0 : n)) {
    return Emit(kPortOut, std::move(batch));
  }
  s->keep.clear();
  if (anti) {
    size_t p = 0;
    for (uint32_t i = 0; i < n; ++i) {
      if (p < passed.size() && passed[p] == i) {
        ++p;
      } else {
        s->keep.push_back(sel[i]);
      }
    }
  } else {
    for (uint32_t i : passed) s->keep.push_back(sel[i]);
  }
  return Emit(kPortOut, batch.ShareWithSelection(s->keep));
}

Status HashJoinOp::EmitPairs(const RowBatch& batch, const ColumnStore& build,
                             PairScratch* s) {
  const std::vector<JoinMatches>& hits = s->probe.hits;
  const size_t chunk = batch_size();
  s->pair_probe.clear();
  s->pair_build.clear();
  s->pair_probe.reserve(chunk);
  s->pair_build.reserve(chunk);
  s->last_matched = kPad;
  // Records one pair; true once the pairs fill a chunk.
  auto add = [&](uint32_t probe, uint32_t build_row) {
    s->pair_probe.push_back(probe);
    s->pair_build.push_back(build_row);
    return s->pair_probe.size() >= chunk;
  };
  const uint32_t n = static_cast<uint32_t>(batch.size());
  if (!keyed()) {
    // Every build row is a candidate of every probe row. A left outer
    // join pads each row after its pairs when a residual decides the
    // pad, and every row of an empty build.
    const uint32_t rows = static_cast<uint32_t>(build.num_rows);
    const bool pad = kind_ == JoinKind::kLeftOuter &&
                     (residual_ != nullptr || rows == 0);
    for (uint32_t i = 0; i < n; ++i) {
      for (uint32_t k = 0; k < rows; ++k) {
        if (add(i, k)) BYPASS_RETURN_IF_ERROR(FlushPairs(batch, build, s));
      }
      if (pad && add(i, kPad)) {
        BYPASS_RETURN_IF_ERROR(FlushPairs(batch, build, s));
      }
    }
  } else if (kind_ == JoinKind::kInner) {
    for (const JoinMatches& m : hits) {
      for (uint32_t k = 0; k < m.count; ++k) {
        if (add(m.pos, m.data[k])) {
          BYPASS_RETURN_IF_ERROR(FlushPairs(batch, build, s));
        }
      }
    }
  } else {
    // Left outer: a cursor into the hits walks the batch. Without a
    // residual a row is padded exactly when it missed; with one, every
    // row's pad follows its pairs and is decided at the flush, after the
    // row's pairs were evaluated.
    size_t h = 0;
    for (uint32_t i = 0; i < n; ++i) {
      const bool hit = h < hits.size() && hits[h].pos == i;
      if (hit) {
        const JoinMatches m = hits[h++];
        for (uint32_t k = 0; k < m.count; ++k) {
          if (add(i, m.data[k])) {
            BYPASS_RETURN_IF_ERROR(FlushPairs(batch, build, s));
          }
        }
        if (residual_ == nullptr) continue;
      }
      if (add(i, kPad)) BYPASS_RETURN_IF_ERROR(FlushPairs(batch, build, s));
    }
  }
  if (s->pair_probe.empty()) return Status::OK();
  return FlushPairs(batch, build, s);
}

Status HashJoinOp::FlushPairs(const RowBatch& batch, const ColumnStore& build,
                              PairScratch* s) {
  // A keyless join's pairs grow with the build side: a deadline check
  // per chunk.
  if (!keyed()) BYPASS_RETURN_IF_ERROR(ctx_->run().CheckBudget());
  ColumnStore gathered = GatherPairs(batch, build, s);
  const size_t num_pairs = s->pair_probe.size();
  if (residual_ == nullptr) {
    s->pair_probe.clear();
    s->pair_build.clear();
    return Emit(kPortOut, RowBatch::FromColumns(std::move(gathered)));
  }
  s->candidates.clear();
  for (size_t p = 0; p < num_pairs; ++p) {
    if (s->pair_build[p] != kPad) {
      s->candidates.push_back(static_cast<uint32_t>(p));
    }
  }
  RowBatch pairs = RowBatch::FromColumns(std::move(gathered));
  s->sel_true.clear();
  if (!s->candidates.empty()) {
    // Padding rows are never evaluated: a pad is not a candidate pair.
    const RowBatch view = pairs.ShareWithSelection(s->candidates);
    BYPASS_RETURN_IF_ERROR(residual_->PartitionBatch(
        view, ctx_->outer_row(), &s->sel_true, nullptr, nullptr));
  }
  // A pad follows its row's candidates (in this flush or an earlier
  // one), so its row is decided by then.
  s->keep.clear();
  size_t t = 0;
  for (size_t p = 0; p < num_pairs; ++p) {
    const uint32_t i = s->pair_probe[p];
    if (s->pair_build[p] != kPad) {
      if (t < s->sel_true.size() && s->sel_true[t] == p) {
        ++t;
        s->last_matched = i;
        s->keep.push_back(static_cast<uint32_t>(p));
      }
    } else if (s->last_matched != i) {
      s->keep.push_back(static_cast<uint32_t>(p));
    }
  }
  s->pair_probe.clear();
  s->pair_build.clear();
  if (s->keep.empty()) return Status::OK();
  // Drop the predicate-only tail.
  ColumnStore out = pairs.TakeColumns();
  const size_t out_width = gather().out_width();
  if (!gather().is_concat() && out.columns.size() > out_width) {
    out.columns.erase(
        out.columns.begin() + static_cast<ptrdiff_t>(out_width),
        out.columns.end());
  }
  if (s->keep.size() == num_pairs) {
    return Emit(kPortOut, RowBatch::FromColumns(std::move(out)));
  }
  return Emit(kPortOut, RowBatch::FromColumns(std::move(out), s->keep));
}

ColumnStore HashJoinOp::GatherPairs(const RowBatch& batch,
                                    const ColumnStore& build,
                                    PairScratch* s) const {
  const size_t num_pairs = s->pair_probe.size();
  const std::vector<uint32_t>& sel = batch.selection();
  s->storage.resize(num_pairs);
  for (size_t p = 0; p < num_pairs; ++p) {
    s->storage[p] = sel[s->pair_probe[p]];
  }
  return GatherPairs(batch, build, s->storage.data(), s->pair_build.data(),
                     num_pairs);
}

ColumnStore HashJoinOp::GatherPairs(const RowBatch& batch,
                                    const ColumnStore& build_columns,
                                    const uint32_t* probe,
                                    const uint32_t* build,
                                    size_t num_pairs) const {
  const std::vector<GatherCol>* cols = &gather().cols();
  std::vector<GatherCol> concat;
  if (gather().is_concat()) {
    // Every probe column, then every build column.
    const size_t build_width = build_columns.columns.empty()
                                   ? unmatched_right_.size()
                                   : build_columns.columns.size();
    for (size_t c = 0; c < batch.width(); ++c) {
      concat.push_back(GatherCol{JoinSide::kProbe, static_cast<int>(c)});
    }
    for (size_t c = 0; c < build_width; ++c) {
      concat.push_back(GatherCol{JoinSide::kBuild, static_cast<int>(c)});
    }
    cols = &concat;
  }
  ColumnStore out;
  out.num_rows = num_pairs;
  out.columns.reserve(cols->size());
  for (const GatherCol& c : *cols) {
    const size_t slot = static_cast<size_t>(c.slot);
    if (c.side == JoinSide::kProbe) {
      const ColumnVector& src = batch.columns()->columns[slot];
      ColumnVector col = src.EmptyLike();
      col.AppendGather(src, probe, num_pairs);
      out.columns.push_back(std::move(col));
      continue;
    }
    // A build column gathers each run of build rows in one call and
    // appends the pad row's value at each pad. Without build rows (no
    // column to read) every pair is a pad.
    const ColumnVector* src = slot < build_columns.columns.size()
                                  ? &build_columns.columns[slot]
                                  : nullptr;
    ColumnVector col =
        src != nullptr ? src->EmptyLike() : ColumnVector(DataType::kInt64);
    size_t run = 0;
    for (size_t p = 0; p <= num_pairs; ++p) {
      if (p < num_pairs && build[p] != kPad) continue;
      if (p > run) col.AppendGather(*src, build + run, p - run);
      if (p < num_pairs) col.Append(unmatched_right_[slot]);
      run = p + 1;
    }
    out.columns.push_back(std::move(col));
  }
  return out;
}

Status HashJoinOp::FinishBoth() {
  if (grace_) {
    BYPASS_RETURN_IF_ERROR(ProbeGracePartitions());
  }
  return EmitFinish(kPortOut);
}

}  // namespace bypass
