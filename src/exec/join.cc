#include "exec/join.h"

#include <algorithm>
#include <atomic>

#include "common/check.h"

namespace bypass {

namespace {

bool AnyNull(const Row& row, const std::vector<int>& slots) {
  for (int s : slots) {
    if (row[static_cast<size_t>(s)].is_null()) return true;
  }
  return false;
}

/// Value-determined Grace partition hash: equal join keys must land in
/// the same partition no matter which side or representation they come
/// from. Single-column keys structurally equal to an int64 (int64, or a
/// double representing one exactly — the classes Int64KeyOf unifies)
/// take the int64 finalizer on both sides; everything else takes the
/// generic row-slot hash, which is itself equality-consistent.
uint64_t GracePartitionHash(const Row& row, const std::vector<int>& slots) {
  if (slots.size() == 1) {
    int64_t k;
    bool is_null;
    if (Int64KeyOf(row[static_cast<size_t>(slots[0])], &k, &is_null)) {
      return HashInt64Key(k);
    }
  }
  return HashRowSlots(row, slots);
}

/// Partitions come from the hash's top bits so they stay independent of
/// the low bits the per-partition hash tables mask with.
constexpr int kGracePartitionShift = 60;

size_t GracePartitionOf(const Row& row, const std::vector<int>& slots) {
  return static_cast<size_t>(GracePartitionHash(row, slots) >>
                             kGracePartitionShift);
}

}  // namespace

void JoinHashTable::Clear() {
  index_.Clear();
  offsets_.clear();
  payload_.clear();
}

void JoinHashTable::Build(const std::vector<Row>& rows,
                          const std::vector<int>& key_slots) {
  Clear();
  const size_t n = rows.size();
  row_key_.resize(n);
  // A batch of rows at a time, so the inserts run with slots prefetched
  // and the index's scratch stays one batch long.
  for (size_t begin = 0; begin < n; begin += kDefaultBatchSize) {
    const size_t end = std::min(n, begin + kDefaultBatchSize);
    index_.FindOrInsertBatch(RowBatch::Borrowed(&rows, begin, end), key_slots,
                             row_key_.data() + begin,
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
  scratch->matches.assign(batch.size(), JoinMatches{});
  JoinMatches* matches = scratch->matches.data();
  index_.FindBatch(batch, probe_slots, &scratch->keys,
                   [&](size_t i, uint32_t id) {
                     matches[i] = JoinMatches{payload_.data() + offsets_[id],
                                              offsets_[id + 1] - offsets_[id]};
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
  table_.Build(right_rows(), build_key_slots_);
  // The index arrays scale with the build side exactly like the buffered
  // rows (charged on arrival) do, so they pay into the budget too.
  const int64_t bytes = table_.RetainedBytes();
  if (CanSpillRight() && ctx_->run().spill != nullptr) {
    if (!ctx_->run().TryChargeMemory(bytes)) {
      table_.Clear();
      return EnterGraceMode();
    }
  } else {
    BYPASS_RETURN_IF_ERROR(ctx_->run().ChargeMemory(bytes));
  }
  // A semi or anti join without a residual reads only match counts, and
  // the table holds its own keys, so the buffered build rows can go.
  if (existence() && residual_ == nullptr) {
    TakeRightRows();
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
  auto route_right = [&](const Row& row) -> Status {
    // NULL-keyed rows can never match an inner join; dropping them here
    // mirrors the in-memory build skipping them.
    if (AnyNull(row, build_key_slots_)) return Status::OK();
    return right_parts_[GracePartitionOf(row, build_key_slots_)]
        ->AppendRow(row);
  };
  // Repartition the in-memory remainder first, releasing its budget
  // charges, then replay the workers' overflow files.
  {
    std::vector<Row> mem = TakeRightRows();
    for (const Row& row : mem) {
      BYPASS_RETURN_IF_ERROR(route_right(row));
    }
  }
  run.ReleaseMemory(TakeRightCharges());
  BYPASS_ASSIGN_OR_RETURN(std::vector<std::unique_ptr<SpillFile>> spilled,
                          TakeRightSpillFiles());
  Row row;
  for (const std::unique_ptr<SpillFile>& file : spilled) {
    BYPASS_RETURN_IF_ERROR(file->OpenRead());
    while (true) {
      BYPASS_ASSIGN_OR_RETURN(bool more, file->ReadRow(&row));
      if (!more) break;
      BYPASS_RETURN_IF_ERROR(route_right(row));
    }
  }
  for (std::unique_ptr<SpillFile>& part : right_parts_) {
    BYPASS_RETURN_IF_ERROR(part->FinishWrite());
    run.stats().spilled_bytes += part->bytes_written();
  }
  grace_ = true;
  return Status::OK();
}

Status HashJoinOp::RouteLeftRow(const Row& row) {
  if (AnyNull(row, probe_key_slots_)) return Status::OK();
  const size_t p = GracePartitionOf(row, probe_key_slots_);
  std::lock_guard<std::mutex> lock(part_mutex_[p]);
  return left_parts_[p]->AppendRow(row);
}

Status HashJoinOp::ProbeGracePartitions() {
  ExecStats& stats = ctx_->run().stats();
  for (std::unique_ptr<SpillFile>& part : left_parts_) {
    BYPASS_RETURN_IF_ERROR(part->FinishWrite());
    stats.spilled_bytes += part->bytes_written();
  }
  std::vector<Row> build;
  Row row;
  for (size_t p = 0; p < kGracePartitions; ++p) {
    SpillFile& right = *right_parts_[p];
    SpillFile& left = *left_parts_[p];
    if (right.rows_written() == 0 || left.rows_written() == 0) continue;
    BYPASS_RETURN_IF_ERROR(ctx_->run().CheckBudget());
    build.clear();
    build.reserve(static_cast<size_t>(right.rows_written()));
    BYPASS_RETURN_IF_ERROR(right.OpenRead());
    while (true) {
      BYPASS_ASSIGN_OR_RETURN(bool more, right.ReadRow(&row));
      if (!more) break;
      build.push_back(std::move(row));
    }
    // One partition pair is resident at a time; its charges are released
    // before the next partition loads. A single partition that still
    // overflows the budget (extreme key skew) fails rather than thrash.
    const int64_t row_bytes = ApproxRowsBytes(
        build.size(), build.empty() ? 0 : build[0].size());
    if (!ctx_->run().TryChargeMemory(row_bytes)) {
      return Status::ResourceExhausted(
          "grace-join partition exceeds the memory budget");
    }
    table_.Build(build, build_key_slots_);
    const int64_t table_bytes = table_.RetainedBytes();
    if (!ctx_->run().TryChargeMemory(table_bytes)) {
      ctx_->run().ReleaseMemory(row_bytes);
      return Status::ResourceExhausted(
          "grace-join partition exceeds the memory budget");
    }
    // The partition's left rows stream through the in-memory path a
    // batch at a time.
    BYPASS_RETURN_IF_ERROR(left.OpenRead());
    Status st = Status::OK();
    bool more = true;
    while (st.ok() && more) {
      std::vector<Row> rows;
      while (rows.size() < batch_size()) {
        Result<bool> read = left.ReadRow(&row);
        if (!read.ok()) {
          st = read.status();
          break;
        }
        more = *read;
        if (!more) break;
        rows.push_back(std::move(row));
      }
      if (st.ok() && !rows.empty()) {
        st = JoinBatch(RowBatch::FromRows(std::move(rows)), build);
      }
    }
    table_.Clear();
    ctx_->run().ReleaseMemory(row_bytes + table_bytes);
    BYPASS_RETURN_IF_ERROR(st);
    ++stats.join_spill_partitions;
  }
  right_parts_.clear();
  left_parts_.clear();
  return Status::OK();
}

Status HashJoinOp::ProcessLeftBatch(RowBatch batch) {
  if (grace_) {
    const size_t n = batch.size();
    for (size_t i = 0; i < n; ++i) {
      BYPASS_RETURN_IF_ERROR(RouteLeftRow(batch.row(i)));
    }
    return Status::OK();
  }
  return JoinBatch(std::move(batch), right_rows());
}

// A keyed join probes the whole batch through the vectorized
// hash-then-resolve path; a keyless one takes every build row as a
// candidate of every probe row.
Status HashJoinOp::JoinBatch(RowBatch batch,
                             const std::vector<Row>& build_rows) {
  PairScratch& s = scratch_[static_cast<size_t>(CurrentWorkerId())];
  const JoinMatches* matches = nullptr;
  if (keyed()) {
    table_.ProbeBatch(batch, probe_key_slots_, &s.probe);
    matches = s.probe.matches.data();
  }
  if (existence()) {
    return EmitExistence(std::move(batch), matches, build_rows, &s);
  }
  return EmitPairs(batch, matches, build_rows, &s);
}

Status HashJoinOp::EmitExistence(RowBatch batch, const JoinMatches* matches,
                                 const std::vector<Row>& build_rows,
                                 PairScratch* s) {
  const size_t n = batch.size();
  const bool anti = kind_ == JoinKind::kAnti;
  auto count = [&](size_t i) -> size_t {
    return matches != nullptr ? matches[i].count : build_rows.size();
  };
  s->matched.resize(n);
  if (residual_ == nullptr) {
    for (size_t i = 0; i < n; ++i) s->matched[i] = count(i) > 0;
  } else {
    std::fill(s->matched.begin(), s->matched.end(), 0);
    s->undecided.clear();
    s->next.assign(n, 0);
    for (size_t i = 0; i < n; ++i) {
      if (count(i) > 0) s->undecided.push_back(static_cast<uint32_t>(i));
    }
    int64_t since_check = 0;
    while (!s->undecided.empty()) {
      if (matches == nullptr) {
        since_check += static_cast<int64_t>(s->undecided.size());
        if (since_check >= 4096) {
          since_check = 0;
          BYPASS_RETURN_IF_ERROR(ctx_->run().CheckBudget());
        }
      }
      // Round: the next candidate of every undecided row.
      s->pair_probe.assign(s->undecided.begin(), s->undecided.end());
      s->pair_build.clear();
      for (uint32_t i : s->undecided) {
        const uint32_t k = s->next[i];
        s->pair_build.push_back(matches != nullptr ? matches[i].data[k] : k);
      }
      const RowBatch pairs =
          RowBatch::FromColumns(GatherPairs(batch, build_rows, s));
      s->sel_true.clear();
      BYPASS_RETURN_IF_ERROR(residual_->PartitionBatch(
          pairs, ctx_->outer_row(), &s->sel_true, nullptr, nullptr));
      size_t t = 0;
      size_t kept = 0;
      for (size_t p = 0; p < s->pair_probe.size(); ++p) {
        const uint32_t i = s->pair_probe[p];
        if (t < s->sel_true.size() && s->sel_true[t] == p) {
          ++t;
          s->matched[i] = 1;
        } else if (++s->next[i] < count(i)) {
          s->undecided[kept++] = i;
        }
      }
      s->undecided.resize(kept);
    }
  }
  s->keep.clear();
  const std::vector<uint32_t>& sel = batch.selection();
  for (size_t i = 0; i < n; ++i) {
    if ((s->matched[i] != 0) != anti) s->keep.push_back(sel[i]);
  }
  if (s->keep.size() == n) return Emit(kPortOut, std::move(batch));
  return Emit(kPortOut, batch.ShareWithSelection(s->keep));
}

Status HashJoinOp::EmitPairs(const RowBatch& batch, const JoinMatches* matches,
                             const std::vector<Row>& build_rows,
                             PairScratch* s) {
  const size_t n = batch.size();
  const bool pad = kind_ == JoinKind::kLeftOuter;
  const size_t chunk = batch_size();
  s->pair_probe.clear();
  s->pair_build.clear();
  s->pair_probe.reserve(chunk);
  s->pair_build.reserve(chunk);
  if (residual_ != nullptr) s->matched.assign(n, 0);
  int64_t since_check = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t probe = static_cast<uint32_t>(i);
    const size_t count =
        matches != nullptr ? matches[i].count : build_rows.size();
    for (size_t k = 0; k < count; ++k) {
      if (matches == nullptr && ++since_check >= 4096) {
        since_check = 0;
        BYPASS_RETURN_IF_ERROR(ctx_->run().CheckBudget());
      }
      s->pair_probe.push_back(probe);
      s->pair_build.push_back(matches != nullptr
                                  ? matches[i].data[k]
                                  : static_cast<uint32_t>(k));
      if (s->pair_probe.size() >= chunk) {
        BYPASS_RETURN_IF_ERROR(FlushPairs(batch, build_rows, s));
      }
    }
    // Without a residual a row is padded exactly when it has no
    // candidate; with one, the pad is decided at the flush, after the
    // row's candidates were evaluated.
    if (pad && (residual_ != nullptr || count == 0)) {
      s->pair_probe.push_back(probe);
      s->pair_build.push_back(kPad);
      if (s->pair_probe.size() >= chunk) {
        BYPASS_RETURN_IF_ERROR(FlushPairs(batch, build_rows, s));
      }
    }
  }
  if (s->pair_probe.empty()) return Status::OK();
  return FlushPairs(batch, build_rows, s);
}

Status HashJoinOp::FlushPairs(const RowBatch& batch,
                              const std::vector<Row>& build_rows,
                              PairScratch* s) {
  ColumnStore gathered = GatherPairs(batch, build_rows, s);
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
  // A pad follows its row's candidates, so its row is decided by then.
  s->keep.clear();
  size_t t = 0;
  for (size_t p = 0; p < num_pairs; ++p) {
    const uint32_t i = s->pair_probe[p];
    if (s->pair_build[p] != kPad) {
      if (t < s->sel_true.size() && s->sel_true[t] == p) {
        ++t;
        s->matched[i] = 1;
        s->keep.push_back(static_cast<uint32_t>(p));
      }
    } else if (s->matched[i] == 0) {
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
                                    const std::vector<Row>& build_rows,
                                    PairScratch* s) const {
  const size_t num_pairs = s->pair_probe.size();
  const std::vector<uint32_t>& sel = batch.selection();
  s->storage.resize(num_pairs);
  for (size_t p = 0; p < num_pairs; ++p) {
    s->storage[p] = sel[s->pair_probe[p]];
  }
  return GatherPairs(batch, build_rows, s->storage.data(),
                     s->pair_build.data(), num_pairs);
}

ColumnStore HashJoinOp::GatherPairs(const RowBatch& batch,
                                    const std::vector<Row>& build_rows,
                                    const uint32_t* probe,
                                    const uint32_t* build,
                                    size_t num_pairs) const {
  const std::vector<GatherCol>* cols = &gather().cols();
  std::vector<GatherCol> concat;
  if (gather().is_concat()) {
    // Every probe column, then every build column.
    const size_t build_width =
        build_rows.empty() ? unmatched_right_.size() : build_rows[0].size();
    for (size_t c = 0; c < batch.width(); ++c) {
      concat.push_back(GatherCol{JoinSide::kProbe, static_cast<int>(c)});
    }
    for (size_t c = 0; c < build_width; ++c) {
      concat.push_back(GatherCol{JoinSide::kBuild, static_cast<int>(c)});
    }
    cols = &concat;
  }
  const std::vector<DataType>& types = gather().types();
  ColumnStore out;
  out.num_rows = num_pairs;
  out.columns.reserve(cols->size());
  for (size_t j = 0; j < cols->size(); ++j) {
    const GatherCol& c = (*cols)[j];
    const size_t slot = static_cast<size_t>(c.slot);
    if (c.side == JoinSide::kProbe && batch.columns() != nullptr) {
      const ColumnVector& src = batch.columns()->columns[slot];
      ColumnVector col(src.type());
      col.AppendGather(src, probe, num_pairs);
      out.columns.push_back(std::move(col));
      continue;
    }
    auto value = [&](size_t p) -> const Value& {
      if (c.side == JoinSide::kProbe) {
        return batch.storage_row(probe[p])[slot];
      }
      const uint32_t b = build[p];
      return (b == kPad ? unmatched_right_ : build_rows[b])[slot];
    };
    DataType type = DataType::kInt64;
    if (j < types.size()) {
      type = types[j];
    } else {
      // The default gather knows no types: take the first non-NULL's.
      for (size_t p = 0; p < num_pairs; ++p) {
        if (!value(p).is_null()) {
          type = value(p).type();
          break;
        }
      }
    }
    ColumnVector col(type);
    col.Reserve(num_pairs);
    for (size_t p = 0; p < num_pairs; ++p) col.Append(value(p));
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
