// The codegen splice pass (DESIGN.md §12): after the planner lowered a
// logical plan to a PhysicalPlan, this pass finds each scan-rooted
// straight-line chain of supported filters — optionally terminated by a
// σ± bypass split — lowers the longest compilable prefix to C++
// (codegen/lower_chain.h), submits it to the
// CodegenEngine, and splices a CompiledPipelineOp between the scan and
// the chain's consumers. The interpreted chain stays in the plan, wired
// to the same consumers: it is the fallback path while the async compile
// runs (and forever, if it fails), and it still carries end-of-stream.
#ifndef BYPASSDB_CODEGEN_INSTALL_H_
#define BYPASSDB_CODEGEN_INSTALL_H_

#include <cstdint>

#include "exec/executor.h"

namespace bypass {

class CodegenEngine;
struct QueryOptions;

/// Splices compiled pipelines into `plan`; returns how many were
/// installed (0 when the engine is unavailable or nothing lowered).
/// `stats_epoch` keys the submitted artifacts for ANALYZE invalidation;
/// `options.codegen_synchronous` compiles on the calling thread.
/// `plan_tag` identifies the submitting plan (a hash of its SQL text) so
/// the engine can count cross-plan artifact sharing; 0 = untagged.
int InstallCompiledPipelines(PhysicalPlan* plan, CodegenEngine* engine,
                             const QueryOptions& options,
                             uint64_t stats_epoch, uint64_t plan_tag = 0);

}  // namespace bypass

#endif  // BYPASSDB_CODEGEN_INSTALL_H_
