// Disjoint multiset union: forwards rows from all input ports unchanged
// and finishes once every input has finished. Re-unites bypass streams —
// the two ports of a binary σ± cascade. Parallel-safe without locking:
// Consume is stateless forwarding, and finished_inputs_ is only touched
// on the finish path, which always runs single-threaded on the driver
// after the worker pool has drained. Determinism is inherited from
// Emit/EmitFinish: each worker's batches forward in arrival order and
// pending rows flush in worker order.
#ifndef BYPASSDB_EXEC_UNION_OP_H_
#define BYPASSDB_EXEC_UNION_OP_H_

#include <string>

#include "exec/phys_op.h"

namespace bypass {

class UnionAllOp : public PhysOp {
 public:
  /// `num_inputs` producers will be wired in; end-of-stream propagates
  /// after that many FinishPort calls.
  explicit UnionAllOp(int num_inputs = 2) : num_inputs_(num_inputs) {}

  void Reset() override { finished_inputs_ = 0; }
  Status Consume(int in_port, RowBatch batch) override;
  Status FinishPort(int in_port) override;
  std::string Label() const override { return "UnionAll"; }

 private:
  const int num_inputs_;
  int finished_inputs_ = 0;
};

}  // namespace bypass

#endif  // BYPASSDB_EXEC_UNION_OP_H_
