// Budget-driven spill: temp-file runs for operators that buffer their
// input (hash-join build sides, sort runs, Grace partitions). A
// SpillManager owns one per-query scratch directory — created lazily on
// the first spill, removed in the destructor — so the lifecycle is
// recovery-free: a crashed process leaves only an orphaned temp dir for
// the OS tempdir reaper, never partial table state.
//
// File format: length-prefixed records, each a serialized Row (uint32
// record length, uint32 value count, then per value a type-tag byte and
// a little-endian payload; strings are length-prefixed). Files are
// written once, then read once, by one thread at a time; cross-thread
// handoff is the caller's job (the Grace join serializes writers with a
// per-partition mutex).
#ifndef BYPASSDB_STORAGE_SPILL_H_
#define BYPASSDB_STORAGE_SPILL_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/row.h"

namespace bypass {

class SpillManager;

/// One spill file: append rows, FinishWrite, then read them back in
/// order. Deletes the file on destruction.
class SpillFile {
 public:
  SpillFile(std::string path, SpillManager* manager);
  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  Status AppendRow(const Row& row);
  /// Flushes and closes the write handle. Idempotent.
  Status FinishWrite();
  /// Opens the file for reading from the start (FinishWrite implied).
  Status OpenRead();
  /// Reads the next row into `out`; returns false at end of file, which
  /// comes only after rows_written() rows (an ExecutionError otherwise).
  Result<bool> ReadRow(Row* out);

  int64_t rows_written() const { return rows_written_; }
  int64_t bytes_written() const { return bytes_written_; }

 private:
  Status Flush();

  std::string path_;
  SpillManager* manager_;
  std::FILE* file_ = nullptr;
  std::string write_buf_;
  std::vector<char> read_buf_;
  int64_t rows_written_ = 0;
  int64_t rows_read_ = 0;
  int64_t bytes_written_ = 0;
  bool writing_ = true;
};

/// Factory and accounting hub for a query's spill files. Thread-safe.
class SpillManager {
 public:
  /// `directory` overrides the scratch location; empty means the system
  /// temp directory. Nothing touches the filesystem until NewFile.
  explicit SpillManager(std::string directory = "");
  ~SpillManager();
  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  /// Creates a new spill file; `label` seasons the filename for
  /// debuggability ("build", "sortrun", "gracel3", ...).
  Result<std::unique_ptr<SpillFile>> NewFile(const char* label);

  int64_t total_files() const {
    return total_files_.load(std::memory_order_relaxed);
  }
  int64_t total_bytes() const {
    return total_bytes_.load(std::memory_order_relaxed);
  }
  void AddBytes(int64_t bytes) {
    total_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }

 private:
  std::string base_dir_;
  std::atomic<bool> dir_created_{false};
  std::atomic<int64_t> next_id_{0};
  std::atomic<int64_t> total_files_{0};
  std::atomic<int64_t> total_bytes_{0};
  std::mutex mu_;
};

/// Row serialization shared with the spill tests.
void AppendRowSerialized(const Row& row, std::string* buf);
/// Parses one serialized row record payload (without the record-length
/// prefix); returns false on malformed input.
bool ParseRowSerialized(const char* data, size_t size, Row* out);

}  // namespace bypass

#endif  // BYPASSDB_STORAGE_SPILL_H_
