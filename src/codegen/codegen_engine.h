// CodegenEngine: the JIT tier's compile service (DESIGN.md §12). Plans
// whose filter/bypass chains lower to C++ (codegen/lower_chain.h) submit
// the emitted source here; the engine compiles it with the host
// compiler into a shared object, dlopens it, and publishes the entry point
// through a CompiledFnSlot. Compilation is asynchronous by default — the
// serving path never blocks on the compiler; executions run interpreted
// until the slot flips to ready, then the CompiledPipelineOp swaps the
// native function in per batch.
//
// Artifacts are cached keyed on (source hash, stats epoch): the emitted
// source is itself a fingerprint of the chain's shape (slots, types,
// literals), and the epoch key lets EvictStale drop every artifact built
// against statistics that ANALYZE has since replaced — stale compiled code
// is never served, mirroring the plan cache's ReplanIfStale discipline.
// In-flight executions keep their artifact alive via shared_ptr; eviction
// only stops future reuse.
//
// Temp hygiene follows the SpillFile delete-on-drop discipline
// (storage/spill.h): sources and objects live in one lazily created
// scratch directory, every file is unlinked as soon as the dlopen handle
// exists (the mapped inode survives on POSIX) or the compile fails, and
// the destructor removes the directory — aborted compiles never leak
// artifacts.
//
// Builds without BYPASS_CODEGEN_ENABLED (or hosts whose toolchain probe
// fails — no compiler on PATH, unwritable tempdir, dlopen missing) degrade
// gracefully: Available() returns false and every caller stays on the
// interpreted path.
#ifndef BYPASSDB_CODEGEN_CODEGEN_ENGINE_H_
#define BYPASSDB_CODEGEN_CODEGEN_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/result.h"

namespace bypass {

// --- The emitted-code ABI. The generated translation unit re-declares
//     these layouts verbatim (it includes no headers); kCgAbiVersion is
//     exported by every artifact and checked after dlopen so a layout
//     change can never call into a stale object with mismatched structs.

/// One input column as raw pointers: `data` is the typed array
/// (int64_t/double/uint8_t), `offsets`+`chars` the string arena for
/// kString columns, `nulls` the bitmap words (bit set = NULL; null when
/// the column has no NULLs).
struct CgCol {
  const void* data;
  const uint64_t* offsets;
  const char* chars;
  const uint64_t* nulls;
};

/// One batch: `cols` ordered by the chain's slot-use list, `sel` the
/// selection vector (storage indices), `n` the number of selected rows.
struct CgBatch {
  const CgCol* cols;
  const uint32_t* sel;
  uint64_t n;
};

/// Entry point: routes each selected row to exactly one output port (or
/// drops it), writing storage indices to outs[p] and the per-port counts
/// to counts[p]. The caller sizes each outs[p] to n.
using CgRunFn = void (*)(const CgBatch*, uint32_t* const* outs,
                         uint64_t* counts);

inline constexpr long long kCgAbiVersion = 1;

/// FNV-1a hash of the emitted source — the artifact cache key.
uint64_t CgHashSource(const std::string& source);

/// A dlopened compiled pipeline. Shared-ptr owned: executions in flight
/// keep it alive past cache eviction; the destructor dlcloses the handle
/// (the backing file was already unlinked at load time).
class CompiledArtifact {
 public:
  CompiledArtifact(void* handle, CgRunFn run, uint64_t source_hash,
                   uint64_t stats_epoch, double compile_seconds)
      : handle_(handle),
        run_(run),
        source_hash_(source_hash),
        stats_epoch_(stats_epoch),
        compile_seconds_(compile_seconds) {}
  ~CompiledArtifact();
  CompiledArtifact(const CompiledArtifact&) = delete;
  CompiledArtifact& operator=(const CompiledArtifact&) = delete;

  CgRunFn run() const { return run_; }
  uint64_t source_hash() const { return source_hash_; }
  uint64_t stats_epoch() const { return stats_epoch_; }
  double compile_seconds() const { return compile_seconds_; }

 private:
  void* handle_;
  CgRunFn run_;
  uint64_t source_hash_;
  uint64_t stats_epoch_;
  double compile_seconds_;
};

/// The async handoff between the compile thread and executing pipelines.
/// Write-once: Fulfill/Fail happens exactly once; ready() is a single
/// relaxed-cost atomic load on the per-batch hot path (the slot holds the
/// owning shared_ptr, so the raw pointer stays valid for the slot's
/// lifetime).
class CompiledFnSlot {
 public:
  /// The compiled artifact, or nullptr while compilation is pending (or
  /// after it failed) — the caller then takes the interpreted path.
  const CompiledArtifact* ready() const {
    return ready_.load(std::memory_order_acquire);
  }
  /// True once compilation failed permanently (toolchain error).
  bool failed() const { return failed_.load(std::memory_order_acquire); }
  /// Whether Fulfill served a cached artifact instead of a fresh compile.
  bool from_cache() const {
    return from_cache_.load(std::memory_order_acquire);
  }
  /// Compiler diagnostics after failed(); empty otherwise.
  std::string error() const;

  /// Blocks until the slot is fulfilled or failed; false on timeout.
  /// Test/benchmark aid — the serving path never waits.
  bool WaitReady(std::chrono::milliseconds timeout) const;

 private:
  friend class CodegenEngine;
  void Fulfill(std::shared_ptr<const CompiledArtifact> artifact,
               bool from_cache);
  void Fail(std::string error);

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::shared_ptr<const CompiledArtifact> artifact_;
  std::string error_;
  std::atomic<const CompiledArtifact*> ready_{nullptr};
  std::atomic<bool> failed_{false};
  std::atomic<bool> from_cache_{false};
};
using CompiledFnSlotPtr = std::shared_ptr<CompiledFnSlot>;

struct CodegenStats {
  int64_t compiles = 0;        ///< successful host-compiler invocations
  int64_t compile_errors = 0;  ///< failed invocations (slot → fallback)
  int64_t cache_hits = 0;      ///< submits served from the artifact cache
  /// Cache hits where the submitting plan differs from the plan that
  /// first compiled the artifact (distinct `plan_tag`s) — cross-plan
  /// artifact sharing, the two-queries-one-dlopen case.
  int64_t artifact_shared_hits = 0;
  int64_t artifact_evictions = 0;  ///< artifacts dropped by EvictStale
  size_t cached_artifacts = 0;     ///< currently cached
  /// Wall-clock seconds spent inside the host compiler, summed over all
  /// successful compiles — compile_seconds_total / compiles is the mean
  /// compile latency the break-even analysis amortizes.
  double compile_seconds_total = 0.0;
};

class CodegenEngine {
 public:
  CodegenEngine() = default;
  ~CodegenEngine();
  CodegenEngine(const CodegenEngine&) = delete;
  CodegenEngine& operator=(const CodegenEngine&) = delete;

  /// Compile-time gate: false when the library was built without
  /// BYPASS_ENABLE_CODEGEN (no dlfcn, sanitizer-minimal builds, ...).
  static bool BuiltWithCodegen();

  /// Runtime toolchain probe, cached process-wide after the first call:
  /// compiles and dlopens a trivial translation unit. False ⇒ every
  /// Submit returns nullptr and callers stay interpreted.
  bool Available();

  /// Queues `source` for compilation at `stats_epoch`; returns the slot
  /// the caller polls per batch (nullptr when codegen is unavailable).
  /// A cache hit fulfills the slot immediately. With `synchronous` the
  /// compile runs on the calling thread (tests, benchmarks measuring
  /// compile time); otherwise on the background compile thread.
  /// `plan_tag` identifies the submitting plan (a hash of its SQL text);
  /// a cache hit under a different tag than the artifact's first
  /// submitter counts as an artifact_shared_hit. 0 = untagged.
  CompiledFnSlotPtr Submit(std::string source, uint64_t stats_epoch,
                           bool synchronous, uint64_t plan_tag = 0);

  /// Drops every cached artifact built at an epoch other than
  /// `current_epoch` — the codegen half of the plan cache's stale sweep.
  /// Artifacts leased by in-flight executions die when their last
  /// shared_ptr does.
  void EvictStale(uint64_t current_epoch);

  CodegenStats stats() const;

  /// Blocks until the compile queue is empty and no job is running;
  /// false on timeout. Test aid.
  bool WaitIdle(std::chrono::milliseconds timeout);

  /// Number of files currently present in the scratch directory. Zero
  /// between compiles when the unlink discipline holds (sources and
  /// objects are removed as soon as the dlopen handle exists or the
  /// compile fails); also zero before any compile ran. Test aid.
  int ScratchFileCount() const;

 private:
  struct Pending {
    std::string source;
    uint64_t hash;
    uint64_t epoch;
    uint64_t plan_tag;
    CompiledFnSlotPtr slot;
  };

  void WorkerLoop();
  void ProcessOne(Pending job);
  /// Cache lookup honouring the epoch key; caller holds mu_.
  std::shared_ptr<const CompiledArtifact> LookupLocked(uint64_t hash,
                                                       uint64_t epoch);
  /// Counts a cache hit as cross-plan when the hitting plan_tag differs
  /// from the artifact's first submitter; caller holds mu_.
  void NoteSharedHitLocked(uint64_t hash, uint64_t plan_tag);
  /// Writes, compiles, dlopens, and unlinks; never touches the cache.
  Result<std::shared_ptr<const CompiledArtifact>> Compile(
      const std::string& source, uint64_t hash, uint64_t epoch);
  /// Lazily creates the scratch directory (serialized by mu_).
  Result<std::string> EnsureScratchDir();

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::condition_variable idle_cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  bool worker_started_ = false;
  int active_jobs_ = 0;
  std::thread worker_;
  std::string scratch_dir_;
  uint64_t file_counter_ = 0;
  std::unordered_map<uint64_t, std::shared_ptr<const CompiledArtifact>>
      cache_;
  /// First submitter's plan_tag per cache key; a later hit under a
  /// different tag is a cross-plan shared hit. Pruned with the cache.
  std::unordered_map<uint64_t, uint64_t> first_plan_tag_;
  CodegenStats stats_;
};

}  // namespace bypass

#endif  // BYPASSDB_CODEGEN_CODEGEN_ENGINE_H_
