// Duplicate elimination over full rows (streaming: first occurrence wins).
// Parallel-safe via a mutex over the global seen-set: dedup must be
// global, and "first occurrence" under concurrent morsels means whichever
// worker inserts first (any one duplicate survives — multiset-equivalent
// to the serial result).
#ifndef BYPASSDB_EXEC_DISTINCT_H_
#define BYPASSDB_EXEC_DISTINCT_H_

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "common/key_index.h"
#include "exec/phys_op.h"

namespace bypass {

class DistinctPhysOp : public UnaryPhysOp {
 public:
  /// Most keys the seen-set reserves up front, whatever the estimate.
  static constexpr size_t kMaxReservedKeys = size_t{1} << 20;

  /// `expected_rows` (the planner's estimate of the input) pre-sizes the
  /// seen-set on the first batch, capped at kMaxReservedKeys.
  explicit DistinctPhysOp(double expected_rows = 0)
      : reserve_(expected_rows > 0
                     ? static_cast<size_t>(std::min(
                           expected_rows,
                           static_cast<double>(kMaxReservedKeys)))
                     : 0) {}

  void Reset() override { seen_.Clear(); }
  Status Consume(int in_port, RowBatch batch) override;
  std::string Label() const override { return "Distinct"; }

 private:
  std::mutex mu_;
  const size_t reserve_;
  KeyIndex seen_;  // packed keys; Rows only for non-int64 shapes
  std::vector<int> slots_;  // every column: the whole row is the key
  std::vector<uint32_t> ids_;
};

}  // namespace bypass

#endif  // BYPASSDB_EXEC_DISTINCT_H_
