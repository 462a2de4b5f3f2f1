// Duplicate elimination over full rows (streaming: first occurrence wins).
// Parallel-safe via a mutex over the global seen-set: dedup must be
// global, and "first occurrence" under concurrent morsels means whichever
// worker inserts first (any one duplicate survives — multiset-equivalent
// to the serial result).
//
// A δ whose input the planner proved duplicate-free (planner/
// uniqueness.h) carries the tables that proof rests on. Prepare checks
// them, so an append after planning is seen by the next execution; when
// every one is duplicate-free, Consume forwards each batch untouched —
// no lock, no seen-set.
#ifndef BYPASSDB_EXEC_DISTINCT_H_
#define BYPASSDB_EXEC_DISTINCT_H_

#include <algorithm>
#include <cstddef>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "catalog/table.h"
#include "common/key_index.h"
#include "exec/phys_op.h"

namespace bypass {

/// The planner's verdict on a δ's input (planner/uniqueness.h).
struct DistinctGate {
  /// The input is duplicate-free when every table in `tables` is.
  bool proven = false;
  std::vector<const Table*> tables;
  /// The proof's plan steps when proven, else why there is no proof;
  /// empty when the input was not analyzed.
  std::string text;
};

class DistinctPhysOp : public UnaryPhysOp {
 public:
  /// Most keys the seen-set reserves up front, whatever the estimate.
  static constexpr size_t kMaxReservedKeys = size_t{1} << 20;

  /// `expected_rows` (the planner's estimate of the input) pre-sizes the
  /// seen-set on the first batch, capped at kMaxReservedKeys.
  explicit DistinctPhysOp(double expected_rows = 0, DistinctGate gate = {})
      : reserve_(expected_rows > 0
                     ? static_cast<size_t>(std::min(
                           expected_rows,
                           static_cast<double>(kMaxReservedKeys)))
                     : 0),
        gate_(std::move(gate)) {}

  Status Prepare(ExecContext* ctx) override;
  void Reset() override { seen_.Clear(); }
  Status Consume(int in_port, RowBatch batch) override;
  /// "Distinct", or with the gate's verdict as of now: "[skipped: <tables>
  /// duplicate-free; <steps>]" or "[kept: <why>]".
  std::string Label() const override;

 private:
  /// The first table of the gate that holds a duplicate row, or nullptr.
  const Table* DuplicateBearingTable() const;

  std::mutex mu_;
  const size_t reserve_;
  const DistinctGate gate_;
  bool skip_ = false;  // set by Prepare, read by concurrent Consumes
  KeyIndex seen_;  // packed keys; Rows only for non-int64 shapes
  std::vector<int> slots_;  // every column: the whole row is the key
  std::vector<uint32_t> ids_;
};

}  // namespace bypass

#endif  // BYPASSDB_EXEC_DISTINCT_H_
