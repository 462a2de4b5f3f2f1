// Physical operator base. Execution is push-based and batch-at-a-time:
// producers call Consume(port, batch) on their consumers and
// FinishPort(port) at end-of-stream. Push style makes the paper's
// DAG-structured bypass plans natural — a bypass operator simply emits on
// two output ports, and the re-uniting union consumes on two input ports.
// Batches carry a selection vector over shared column storage, so
// selections and bypass splits are zero-copy (see types/row_batch.h).
//
// Threading contract (morsel-driven parallelism, DESIGN.md §5): during a
// source's parallel phase, Consume may be called concurrently by several
// workers, each identified by CurrentWorkerId(). The base class keeps its
// only mutable state, the emitted-row accounting, in per-worker slots, so
// Emit is safe without locks; it forwards the batch on the calling
// worker and buffers nothing. FinishPort and EmitFinish run
// single-threaded (on the driver, after the pool joined the phase): that
// is where pipeline breakers merge their thread-local partials and emit
// their output. A query with num_threads=1 never leaves worker slot 0 and
// reproduces serial execution exactly.
#ifndef BYPASSDB_EXEC_PHYS_OP_H_
#define BYPASSDB_EXEC_PHYS_OP_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "exec/exec_context.h"
#include "storage/spill.h"
#include "types/row_batch.h"

namespace bypass {

/// Output port indices: 0 = (positive) output, 1 = bypass negative stream.
inline constexpr int kPortOut = 0;
inline constexpr int kPortNegative = 1;

class PhysOp {
 public:
  PhysOp() : num_out_ports_(1), out_edges_(1), est_rows_(1, -1.0) {}
  virtual ~PhysOp() = default;
  PhysOp(const PhysOp&) = delete;
  PhysOp& operator=(const PhysOp&) = delete;

  /// Wires `out_port` of this operator into `in_port` of `consumer`.
  void AddConsumer(int out_port, PhysOp* consumer, int in_port);

  /// Called once per execution before any row flows; implementations must
  /// call the base method. Re-invoked (after Reset) for subplan re-runs.
  virtual Status Prepare(ExecContext* ctx);

  /// Clears all accumulated state so the operator can run again.
  virtual void Reset() {}

  /// Receives one non-empty batch on `in_port`. May be called
  /// concurrently (distinct workers) during a parallel scan phase.
  virtual Status Consume(int in_port, RowBatch batch) = 0;

  /// Signals end-of-stream on `in_port`. Always single-threaded: the
  /// driver propagates finishes only after all workers joined the phase.
  virtual Status FinishPort(int in_port) = 0;

  virtual std::string Label() const = 0;

  int num_out_ports() const { return num_out_ports_; }

  /// Consumers wired into `out_port` so far. The planner's zone-map
  /// pass uses this to prove a scan feeds exactly one filter.
  size_t num_consumers(int out_port) const {
    return out_edges_[static_cast<size_t>(out_port)].size();
  }

  /// A consumer edge, as reported by consumers(). The codegen splice
  /// copies a chain terminal's edges onto the compiled operator so both
  /// paths feed the same consumers.
  struct ConsumerEdge {
    PhysOp* consumer;
    int in_port;
  };
  std::vector<ConsumerEdge> consumers(int out_port) const;

  /// Rewires `out_port` to feed exactly `consumer`:`in_port`, dropping
  /// its existing edges. Plan-build-time only (the codegen splice); never
  /// call while rows flow.
  void ReplaceConsumers(int out_port, PhysOp* consumer, int in_port);

  /// Rows / batches emitted on `out_port` during the last execution
  /// (EXPLAIN ANALYZE-style accounting; reset by Prepare). Aggregates the
  /// per-worker counters; read after the run.
  int64_t rows_emitted(int out_port) const;
  int64_t batches_emitted(int out_port) const;

  /// Planner-annotated expected cardinality of `out_port`; negative when
  /// the planner attached no estimate. Compared against rows_emitted
  /// after a run for per-operator q-error reporting and cardinality
  /// feedback.
  double estimated_rows(int out_port) const {
    return est_rows_[static_cast<size_t>(out_port)];
  }
  void set_estimated_rows(int out_port, double rows) {
    est_rows_[static_cast<size_t>(out_port)] = rows;
  }

 protected:
  explicit PhysOp(int num_out_ports)
      : num_out_ports_(num_out_ports),
        out_edges_(static_cast<size_t>(num_out_ports)),
        est_rows_(static_cast<size_t>(num_out_ports), -1.0) {}

  /// Forwards a batch to all consumers of `out_port` — the one way out of
  /// an operator. Empty batches are dropped — consumers never see them.
  /// The last consumer receives the moved batch; earlier consumers get
  /// shared-storage views (cheap: a shared_ptr plus a selection-vector
  /// copy, never a row copy).
  Status Emit(int out_port, RowBatch batch);

  /// Forwards end-of-stream on `out_port`. Single-threaded.
  Status EmitFinish(int out_port);

  /// The execution's configured rows-per-batch: operators that build
  /// their output emit batches of at most this many rows.
  size_t batch_size() const { return batch_size_; }

  /// Number of per-worker state slots (RunContext::num_worker_slots at
  /// Prepare time). Subclasses size their own thread-local state by this.
  int num_worker_slots() const {
    return static_cast<int>(workers_.size());
  }

  ExecContext* ctx_ = nullptr;

 private:
  struct Edge {
    PhysOp* consumer;
    int in_port;
  };
  struct PortState {
    int64_t rows_emitted = 0;
    int64_t batches_emitted = 0;
  };
  /// Cache-line padded so two workers' emit counters never false-share.
  struct alignas(64) WorkerState {
    std::vector<PortState> ports;
  };

  const int num_out_ports_;
  std::vector<std::vector<Edge>> out_edges_;
  std::vector<double> est_rows_;
  std::vector<WorkerState> workers_;
  size_t batch_size_ = kDefaultBatchSize;
};

using PhysOpPtr = std::unique_ptr<PhysOp>;

/// Which input of a join a gathered output column is copied from: the
/// streamed row (left port, the probe side) or the buffered row (right
/// port, the build side — addressed in its narrowed, buffered layout).
enum class JoinSide : uint8_t { kProbe = 0, kBuild = 1 };

struct GatherCol {
  JoinSide side;
  int slot;
};

/// A join's output layout, replacing the concatenation x ◦ y: an ordered
/// list of (side, slot) naming the columns some consumer reads. Columns
/// at and past `out_width` are read only by the join's own predicate and
/// are dropped before the pairs are emitted. A default-constructed gather
/// is the full concatenation (every probe column, then every build
/// column).
class JoinGather {
 public:
  JoinGather() = default;
  /// `logical_width` is the width of the unpruned logical join output and
  /// `build_is_logical_left` records a swapped hash join; both only feed
  /// the label.
  JoinGather(std::vector<GatherCol> cols, size_t out_width,
             int logical_width, bool build_is_logical_left);

  /// True for the default full concatenation (cols() is then empty).
  bool is_concat() const { return concat_; }
  const std::vector<GatherCol>& cols() const { return cols_; }
  /// Columns emitted (the rest is the predicate-only tail).
  size_t out_width() const { return out_width_; }

  /// " [build=left|right, keep k/n]"; empty for the default concatenation.
  std::string LabelSuffix() const;

 private:
  bool concat_ = true;
  std::vector<GatherCol> cols_;
  size_t out_width_ = 0;
  int logical_width_ = 0;
  bool build_is_logical_left_ = false;
};

/// Base for unary streaming operators (single input port).
class UnaryPhysOp : public PhysOp {
 public:
  UnaryPhysOp() = default;
  explicit UnaryPhysOp(int num_out_ports) : PhysOp(num_out_ports) {}

  Status FinishPort(int in_port) override;
};

/// Base for binary operators that logically build from the right input and
/// stream the left one. Buffering rules make execution correct regardless
/// of the order source pipelines run in: the right input is always
/// buffered, as columns; left batches are buffered only while the right
/// input is still open, then replayed. Buffers are thread-local per
/// worker and merged (in worker order) when the corresponding port
/// finishes.
class BinaryPhysOp : public PhysOp {
 public:
  BinaryPhysOp() = default;

  static constexpr int kLeft = 0;
  static constexpr int kRight = 1;

  Status Prepare(ExecContext* ctx) override;
  void Reset() override;
  Status Consume(int in_port, RowBatch batch) final;
  Status FinishPort(int in_port) final;

  /// Buffers the right input narrowed to its columns `slots` (ascending,
  /// distinct): the subclass's build keys, predicates and gather then
  /// address the narrowed layout. Plan-build-time only; without it the
  /// right input is buffered whole.
  void set_right_keep(std::vector<int> slots) {
    right_keep_ = std::move(slots);
    narrow_right_ = true;
  }

  /// Installs the output layout of a joining subclass (see JoinGather).
  void set_gather(JoinGather gather) { gather_ = std::move(gather); }
  const JoinGather& gather() const { return gather_; }

 protected:
  /// Called once when the right input finished, before any left row is
  /// processed; `right_columns()` is complete at this point. Single-threaded
  /// (finish phase); implementations may parallelize internally via
  /// ctx_->pool().
  virtual Status BuildFromRight() { return Status::OK(); }

  /// Called for each left batch after the right side is built. Outputs
  /// go through Emit. Concurrent across workers; implementations must
  /// only read shared build state.
  virtual Status ProcessLeftBatch(RowBatch batch) = 0;

  /// Called when both inputs have finished and all left rows were
  /// processed; must EmitFinish on every output port.
  virtual Status FinishBoth() = 0;

  /// The merged right input; complete once BuildFromRight runs.
  const ColumnStore& right_columns() const { return right_; }

  /// Opt-in for budget-driven spilling of the buffered right side: when
  /// true and the context carries both a memory budget and a spill
  /// manager, a failed charge writes the worker's buffered right rows to
  /// a temp file instead of failing the query. The subclass must then
  /// handle right_spilled() in BuildFromRight (the Grace hash join
  /// does); operators without an external algorithm keep the default and
  /// the exact pre-spill ResourceExhausted behavior.
  virtual bool CanSpillRight() const { return false; }

  /// True once any worker spilled right rows this execution. Stable by
  /// the (single-threaded) finish phase where it is consulted.
  bool right_spilled() const {
    return right_spilled_.load(std::memory_order_relaxed);
  }

  /// Hands the per-worker right-side spill files to the subclass (worker
  /// order, nulls omitted); files are finished for writing.
  Result<std::vector<std::unique_ptr<SpillFile>>> TakeRightSpillFiles();

  /// Moves the merged in-memory right input out (grace repartitioning
  /// consumes it); right_columns() is empty afterwards.
  ColumnStore TakeRightColumns() { return std::exchange(right_, {}); }

  /// Total bytes still charged for the buffered right input, zeroed — the
  /// caller pairs it with RunContext::ReleaseMemory after spilling.
  int64_t TakeRightCharges();

 private:
  /// Per-worker input buffers, padded against false sharing.
  struct alignas(64) InputBuffers {
    ColumnStore right;
    std::vector<RowBatch> pending_left;
    int64_t charged = 0;                ///< bytes charged for `right`
    std::unique_ptr<SpillFile> spill;   ///< spilled right rows, if any
  };

  Status SpillRightBuffer(InputBuffers* buffers);

  JoinGather gather_;
  std::vector<int> right_keep_;
  bool narrow_right_ = false;
  std::vector<InputBuffers> buffers_;
  ColumnStore right_;  // merged at right finish
  std::atomic<bool> right_spilled_{false};
  bool right_done_ = false;
  bool left_done_ = false;
  bool finished_ = false;

  Status MaybeFinish();
};

}  // namespace bypass

#endif  // BYPASSDB_EXEC_PHYS_OP_H_
