#include "storage/spill.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <system_error>

namespace bypass {

namespace {

constexpr size_t kFlushThreshold = 256 * 1024;

enum ValueTag : uint8_t {
  kTagNull = 0,
  kTagBool = 1,
  kTagInt64 = 2,
  kTagDouble = 3,
  kTagString = 4,
};

void AppendLe32(uint32_t v, std::string* buf) {
  char bytes[4];
  std::memcpy(bytes, &v, sizeof(v));
  buf->append(bytes, sizeof(v));
}

void AppendLe64(uint64_t v, std::string* buf) {
  char bytes[8];
  std::memcpy(bytes, &v, sizeof(v));
  buf->append(bytes, sizeof(v));
}

bool ReadLe32(const char*& p, const char* end, uint32_t* v) {
  if (end - p < 4) return false;
  std::memcpy(v, p, 4);
  p += 4;
  return true;
}

bool ReadLe64(const char*& p, const char* end, uint64_t* v) {
  if (end - p < 8) return false;
  std::memcpy(v, p, 8);
  p += 8;
  return true;
}

}  // namespace

void AppendRowSerialized(const Row& row, std::string* buf) {
  AppendLe32(static_cast<uint32_t>(row.size()), buf);
  for (const Value& v : row) {
    if (v.is_null()) {
      buf->push_back(static_cast<char>(kTagNull));
    } else if (v.is_bool()) {
      buf->push_back(static_cast<char>(kTagBool));
      buf->push_back(v.bool_value() ? 1 : 0);
    } else if (v.is_int64()) {
      buf->push_back(static_cast<char>(kTagInt64));
      AppendLe64(static_cast<uint64_t>(v.int64_value()), buf);
    } else if (v.is_double()) {
      buf->push_back(static_cast<char>(kTagDouble));
      uint64_t bits;
      const double d = v.double_value();
      std::memcpy(&bits, &d, sizeof(bits));
      AppendLe64(bits, buf);
    } else {
      const std::string& s = v.string_value();
      buf->push_back(static_cast<char>(kTagString));
      AppendLe32(static_cast<uint32_t>(s.size()), buf);
      buf->append(s);
    }
  }
}

bool ParseRowSerialized(const char* data, size_t size, Row* out) {
  const char* p = data;
  const char* end = data + size;
  uint32_t arity = 0;
  if (!ReadLe32(p, end, &arity)) return false;
  out->clear();
  out->reserve(arity);
  for (uint32_t i = 0; i < arity; ++i) {
    if (p >= end) return false;
    const uint8_t tag = static_cast<uint8_t>(*p++);
    switch (tag) {
      case kTagNull:
        out->push_back(Value::Null());
        break;
      case kTagBool:
        if (p >= end) return false;
        out->push_back(Value::Bool(*p++ != 0));
        break;
      case kTagInt64: {
        uint64_t bits = 0;
        if (!ReadLe64(p, end, &bits)) return false;
        out->push_back(Value::Int64(static_cast<int64_t>(bits)));
        break;
      }
      case kTagDouble: {
        uint64_t bits = 0;
        if (!ReadLe64(p, end, &bits)) return false;
        double d;
        std::memcpy(&d, &bits, sizeof(d));
        out->push_back(Value::Double(d));
        break;
      }
      case kTagString: {
        uint32_t len = 0;
        if (!ReadLe32(p, end, &len)) return false;
        if (static_cast<size_t>(end - p) < len) return false;
        out->push_back(Value::String(std::string(p, len)));
        p += len;
        break;
      }
      default:
        return false;
    }
  }
  return p == end;
}

SpillFile::SpillFile(std::string path, SpillManager* manager)
    : path_(std::move(path)), manager_(manager) {}

SpillFile::~SpillFile() {
  if (file_ != nullptr) std::fclose(file_);
  std::error_code ec;
  std::filesystem::remove(path_, ec);
}

Status SpillFile::AppendRow(const Row& row) {
  if (!writing_) {
    return Status::Internal("spill file appended after FinishWrite");
  }
  if (file_ == nullptr) {
    file_ = std::fopen(path_.c_str(), "wb");
    if (file_ == nullptr) {
      return Status::ExecutionError("spill: cannot create " + path_);
    }
  }
  const size_t before = write_buf_.size();
  AppendLe32(0, &write_buf_);  // record length, patched below
  AppendRowSerialized(row, &write_buf_);
  const uint32_t record_len =
      static_cast<uint32_t>(write_buf_.size() - before - 4);
  std::memcpy(write_buf_.data() + before, &record_len, sizeof(record_len));
  ++rows_written_;
  bytes_written_ += static_cast<int64_t>(record_len) + 4;
  if (write_buf_.size() >= kFlushThreshold) return Flush();
  return Status::OK();
}

Status SpillFile::Flush() {
  if (write_buf_.empty() || file_ == nullptr) return Status::OK();
  const size_t n =
      std::fwrite(write_buf_.data(), 1, write_buf_.size(), file_);
  if (n != write_buf_.size()) {
    return Status::ExecutionError("spill: short write to " + path_);
  }
  write_buf_.clear();
  return Status::OK();
}

Status SpillFile::FinishWrite() {
  if (!writing_) return Status::OK();
  BYPASS_RETURN_IF_ERROR(Flush());
  if (file_ != nullptr) {
    if (std::fflush(file_) != 0 || std::fclose(file_) != 0) {
      file_ = nullptr;
      return Status::ExecutionError("spill: flush failed for " + path_);
    }
    file_ = nullptr;
  }
  writing_ = false;
  if (manager_ != nullptr) manager_->AddBytes(bytes_written_);
  return Status::OK();
}

Status SpillFile::OpenRead() {
  BYPASS_RETURN_IF_ERROR(FinishWrite());
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  rows_read_ = 0;
  if (rows_written_ == 0) return Status::OK();  // nothing was created
  file_ = std::fopen(path_.c_str(), "rb");
  if (file_ == nullptr) {
    return Status::ExecutionError("spill: cannot reopen " + path_);
  }
  return Status::OK();
}

Result<bool> SpillFile::ReadRow(Row* out) {
  if (writing_) {
    return Status::Internal("spill file read before OpenRead");
  }
  if (file_ == nullptr) return false;  // empty file was never created
  uint32_t record_len = 0;
  const size_t got = std::fread(&record_len, 1, 4, file_);
  // End of file only once every written row has come back: a read error
  // or a file cut short must not pass for the end.
  if (got == 0 && std::ferror(file_) == 0 && rows_read_ == rows_written_) {
    return false;
  }
  if (got != 4) {
    return Status::ExecutionError("spill: cannot read record " +
                                  std::to_string(rows_read_) + " of " +
                                  std::to_string(rows_written_) + " from " +
                                  path_);
  }
  read_buf_.resize(record_len);
  if (std::fread(read_buf_.data(), 1, record_len, file_) != record_len) {
    return Status::ExecutionError("spill: truncated record body");
  }
  if (!ParseRowSerialized(read_buf_.data(), record_len, out)) {
    return Status::ExecutionError("spill: malformed record");
  }
  ++rows_read_;
  return true;
}

SpillManager::SpillManager(std::string directory)
    : base_dir_(std::move(directory)) {}

SpillManager::~SpillManager() {
  if (!dir_created_.load(std::memory_order_acquire)) return;
  std::error_code ec;
  std::filesystem::remove_all(base_dir_, ec);
}

Result<std::unique_ptr<SpillFile>> SpillManager::NewFile(
    const char* label) {
  if (!dir_created_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!dir_created_.load(std::memory_order_relaxed)) {
      std::error_code ec;
      if (base_dir_.empty()) {
        const std::filesystem::path tmp =
            std::filesystem::temp_directory_path(ec);
        if (ec) {
          return Status::ExecutionError("spill: no temp directory");
        }
        static std::atomic<uint64_t> dir_seq{0};
        base_dir_ = (tmp / ("bypassdb-spill-" +
                            std::to_string(::getpid()) + "-" +
                            std::to_string(dir_seq.fetch_add(1))))
                        .string();
      }
      std::filesystem::create_directories(base_dir_, ec);
      if (ec) {
        return Status::ExecutionError("spill: cannot create scratch dir " +
                                      base_dir_);
      }
      dir_created_.store(true, std::memory_order_release);
    }
  }
  const int64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  total_files_.fetch_add(1, std::memory_order_relaxed);
  std::string path = base_dir_ + "/" + std::string(label) + "-" +
                     std::to_string(id) + ".spill";
  return std::make_unique<SpillFile>(std::move(path), this);
}

}  // namespace bypass
