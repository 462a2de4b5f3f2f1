#include "exec/phys_op.h"

#include <numeric>
#include <utility>

#include "common/check.h"

namespace bypass {

void PhysOp::AddConsumer(int out_port, PhysOp* consumer, int in_port) {
  BYPASS_CHECK(out_port >= 0 &&
               out_port < static_cast<int>(out_edges_.size()));
  out_edges_[static_cast<size_t>(out_port)].push_back(
      Edge{consumer, in_port});
}

std::vector<PhysOp::ConsumerEdge> PhysOp::consumers(int out_port) const {
  BYPASS_CHECK(out_port >= 0 &&
               out_port < static_cast<int>(out_edges_.size()));
  std::vector<ConsumerEdge> result;
  for (const Edge& e : out_edges_[static_cast<size_t>(out_port)]) {
    result.push_back(ConsumerEdge{e.consumer, e.in_port});
  }
  return result;
}

void PhysOp::ReplaceConsumers(int out_port, PhysOp* consumer,
                              int in_port) {
  BYPASS_CHECK(out_port >= 0 &&
               out_port < static_cast<int>(out_edges_.size()));
  auto& edges = out_edges_[static_cast<size_t>(out_port)];
  edges.clear();
  edges.push_back(Edge{consumer, in_port});
}

Status PhysOp::Prepare(ExecContext* ctx) {
  ctx_ = ctx;
  batch_size_ = ctx->run().batch_size;
  workers_.resize(static_cast<size_t>(ctx->run().num_worker_slots()));
  for (WorkerState& w : workers_) {
    w.ports.resize(static_cast<size_t>(num_out_ports_));
    for (PortState& p : w.ports) {
      p.rows_emitted = 0;
      p.batches_emitted = 0;
    }
  }
  return Status::OK();
}

int64_t PhysOp::rows_emitted(int out_port) const {
  const size_t port = static_cast<size_t>(out_port);
  int64_t total = 0;
  for (const WorkerState& w : workers_) {
    if (port < w.ports.size()) total += w.ports[port].rows_emitted;
  }
  return total;
}

int64_t PhysOp::batches_emitted(int out_port) const {
  const size_t port = static_cast<size_t>(out_port);
  int64_t total = 0;
  for (const WorkerState& w : workers_) {
    if (port < w.ports.size()) total += w.ports[port].batches_emitted;
  }
  return total;
}

Status PhysOp::Emit(int out_port, RowBatch batch) {
  if (batch.empty()) return Status::OK();
  const size_t port = static_cast<size_t>(out_port);
  PortState& counters =
      workers_[static_cast<size_t>(CurrentWorkerId())].ports[port];
  counters.rows_emitted += static_cast<int64_t>(batch.size());
  ++counters.batches_emitted;
  const auto& edges = out_edges_[port];
  if (edges.empty()) return Status::OK();
  // Fan-out consumers share the batch's storage; only the selection
  // vector is duplicated. The last (and in the common single-consumer
  // case, only) edge receives the moved batch. The whole fan-out runs on
  // the calling worker, so consumers see no extra concurrency from it.
  for (size_t i = 0; i + 1 < edges.size(); ++i) {
    BYPASS_RETURN_IF_ERROR(edges[i].consumer->Consume(
        edges[i].in_port,
        batch.ShareWithSelection(batch.selection())));
  }
  return edges.back().consumer->Consume(edges.back().in_port,
                                        std::move(batch));
}

Status PhysOp::EmitFinish(int out_port) {
  for (const Edge& e : out_edges_[static_cast<size_t>(out_port)]) {
    BYPASS_RETURN_IF_ERROR(e.consumer->FinishPort(e.in_port));
  }
  return Status::OK();
}

JoinGather::JoinGather(std::vector<GatherCol> cols, size_t out_width,
                       int logical_width, bool build_is_logical_left)
    : concat_(false),
      cols_(std::move(cols)),
      out_width_(out_width),
      logical_width_(logical_width),
      build_is_logical_left_(build_is_logical_left) {}

std::string JoinGather::LabelSuffix() const {
  if (concat_) return "";
  return std::string(" [build=") +
         (build_is_logical_left_ ? "left" : "right") + ", keep " +
         std::to_string(out_width_) + "/" + std::to_string(logical_width_) +
         "]";
}

Status UnaryPhysOp::FinishPort(int in_port) {
  BYPASS_CHECK(in_port == 0);
  for (int p = 0; p < num_out_ports(); ++p) {
    BYPASS_RETURN_IF_ERROR(EmitFinish(p));
  }
  return Status::OK();
}

Status BinaryPhysOp::Prepare(ExecContext* ctx) {
  BYPASS_RETURN_IF_ERROR(PhysOp::Prepare(ctx));
  buffers_.resize(static_cast<size_t>(ctx->run().num_worker_slots()));
  return Status::OK();
}

void BinaryPhysOp::Reset() {
  for (InputBuffers& b : buffers_) {
    b.right = ColumnStore();
    b.pending_left.clear();
    b.charged = 0;
    b.spill.reset();
  }
  right_ = ColumnStore();
  right_spilled_.store(false, std::memory_order_relaxed);
  right_done_ = false;
  left_done_ = false;
  finished_ = false;
}

Status BinaryPhysOp::SpillRightBuffer(InputBuffers* buffers) {
  if (buffers->right.num_rows == 0) return Status::OK();
  RunContext& run = ctx_->run();
  if (buffers->spill == nullptr) {
    BYPASS_ASSIGN_OR_RETURN(buffers->spill, run.spill->NewFile("build"));
    ++run.stats().spill_files;
  }
  const int64_t bytes_before = buffers->spill->bytes_written();
  for (size_t i = 0; i < buffers->right.num_rows; ++i) {
    BYPASS_RETURN_IF_ERROR(
        buffers->spill->AppendRow(buffers->right.MaterializeRow(i)));
  }
  run.stats().spilled_bytes +=
      buffers->spill->bytes_written() - bytes_before;
  buffers->right = ColumnStore();
  run.ReleaseMemory(buffers->charged);
  buffers->charged = 0;
  right_spilled_.store(true, std::memory_order_relaxed);
  return Status::OK();
}

Result<std::vector<std::unique_ptr<SpillFile>>>
BinaryPhysOp::TakeRightSpillFiles() {
  std::vector<std::unique_ptr<SpillFile>> files;
  for (InputBuffers& b : buffers_) {
    if (b.spill == nullptr) continue;
    BYPASS_RETURN_IF_ERROR(b.spill->FinishWrite());
    files.push_back(std::move(b.spill));
  }
  return files;
}

int64_t BinaryPhysOp::TakeRightCharges() {
  int64_t total = 0;
  for (InputBuffers& b : buffers_) {
    total += b.charged;
    b.charged = 0;
  }
  return total;
}

Status BinaryPhysOp::Consume(int in_port, RowBatch batch) {
  InputBuffers& buffers =
      buffers_[static_cast<size_t>(CurrentWorkerId())];
  if (in_port == kRight) {
    BYPASS_CHECK_MSG(!right_done_, "batch after right-side finish");
    // The build side is retained until the join finishes — the other
    // place a query's footprint scales with an input, so it pays into
    // the memory budget alongside the collector sink, by the bytes its
    // columns grow by.
    ColumnStore& right = buffers.right;
    const int64_t before = right.ApproxBytes();
    if (right.num_rows == 0 && !narrow_right_ && batch.OwnsAllColumns()) {
      right = batch.TakeColumns();
    } else {
      right.AppendGather(*batch.columns(), batch.selection().data(),
                         batch.size(), narrow_right_ ? &right_keep_ : nullptr);
    }
    const int64_t bytes = right.ApproxBytes() - before;
    if (CanSpillRight() && ctx_->run().spill != nullptr) {
      if (ctx_->run().TryChargeMemory(bytes)) {
        buffers.charged += bytes;
        return Status::OK();
      }
      // Over budget: spill the worker's whole buffer (batch included)
      // to release its charges.
      return SpillRightBuffer(&buffers);
    }
    BYPASS_RETURN_IF_ERROR(ctx_->run().ChargeMemory(bytes));
    buffers.charged += bytes;
    return Status::OK();
  }
  BYPASS_CHECK(in_port == kLeft);
  if (!right_done_) {
    // The executor could not schedule the right pipeline first (shared
    // DAG sources); fall back to buffering the left side.
    buffers.pending_left.push_back(std::move(batch));
    return Status::OK();
  }
  return ProcessLeftBatch(std::move(batch));
}

Status BinaryPhysOp::FinishPort(int in_port) {
  if (in_port == kRight) {
    right_done_ = true;
    // Merge the workers' thread-local buffers in worker order — with one
    // worker this is exactly the serial arrival order.
    std::vector<uint32_t> all;
    for (InputBuffers& b : buffers_) {
      if (b.right.num_rows == 0) continue;  // a worker that saw no batch
      if (right_.num_rows == 0) {
        right_ = std::exchange(b.right, {});
        continue;
      }
      all.resize(b.right.num_rows);
      std::iota(all.begin(), all.end(), 0);
      right_.AppendGather(b.right, all.data(), all.size(), nullptr);
      b.right = ColumnStore();
    }
    BYPASS_RETURN_IF_ERROR(BuildFromRight());
    for (InputBuffers& b : buffers_) {
      std::vector<RowBatch> pending = std::move(b.pending_left);
      b.pending_left.clear();
      for (RowBatch& batch : pending) {
        BYPASS_RETURN_IF_ERROR(ProcessLeftBatch(std::move(batch)));
      }
    }
  } else {
    BYPASS_CHECK(in_port == kLeft);
    left_done_ = true;
  }
  return MaybeFinish();
}

Status BinaryPhysOp::MaybeFinish() {
  if (finished_ || !left_done_ || !right_done_) return Status::OK();
  finished_ = true;
  return FinishBoth();
}

}  // namespace bypass
