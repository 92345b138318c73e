#pragma once

// Shared read-only file backing for the zero-copy trace readers: mmap when
// available (MADV_SEQUENTIAL — these files are scanned front to back),
// falling back to a single slurp into a private buffer. Extracted from
// TraceView so the record-framed (NCD1) and packet-framed (NCP1) views
// share one open/release implementation. `write_file` is the write side:
// the trace and corpus writers build a file in memory and write it once.

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace netclients::roots {

/// The bytes of one open file. Move-only; unmaps/frees on destruction.
class FileBytes {
 public:
  enum class Backing {
    kAuto,    // mmap, falling back to a heap buffer
    kMmap,    // mmap only (open fails where mapping is unavailable)
    kBuffer,  // one read() slurp into a private buffer
  };

  /// Opens `path`. mmap is attempted only for files of at least
  /// `min_mmap_size` bytes (zero-length mappings are invalid); smaller
  /// files fall through to the buffer path. Returns nullopt when the file
  /// cannot be opened/read, or when `backing` is kMmap and mapping failed.
  static std::optional<FileBytes> open(const std::string& path,
                                       Backing backing,
                                       std::size_t min_mmap_size = 1);

  FileBytes() = default;
  FileBytes(FileBytes&& other) noexcept { *this = std::move(other); }
  FileBytes& operator=(FileBytes&& other) noexcept;
  FileBytes(const FileBytes&) = delete;
  FileBytes& operator=(const FileBytes&) = delete;
  ~FileBytes();

  const char* data() const { return data_; }
  std::size_t size() const { return size_; }
  /// True when the bytes are an mmap mapping (vs a heap buffer).
  bool mapped() const { return mapped_; }

 private:
  void release();

  const char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::vector<char> buffer_;  // owns the bytes for the buffer backing
};

/// Writes `bytes` as the whole content of `path`. Returns false when the
/// file cannot be opened or any byte fails to reach it — the stream is
/// closed, so a failed final flush (a full disk) counts too.
bool write_file(const std::string& path, std::string_view bytes);

}  // namespace netclients::roots
