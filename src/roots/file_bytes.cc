#include "roots/file_bytes.h"

#include <fstream>

#include "core/obs/obs.h"

#if defined(__unix__) || defined(__APPLE__)
#define NETCLIENTS_TRACE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace netclients::roots {

std::optional<FileBytes> FileBytes::open(const std::string& path,
                                         Backing backing,
                                         std::size_t min_mmap_size) {
  FileBytes bytes;
#ifdef NETCLIENTS_TRACE_MMAP
  if (backing != Backing::kBuffer) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
      struct stat st {};
      if (::fstat(fd, &st) == 0 &&
          st.st_size >= static_cast<off_t>(min_mmap_size)) {
        const auto size = static_cast<std::size_t>(st.st_size);
        void* mem = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
        if (mem != MAP_FAILED) {
          ::madvise(mem, size, MADV_SEQUENTIAL);
          bytes.data_ = static_cast<const char*>(mem);
          bytes.size_ = size;
          bytes.mapped_ = true;
        } else {
          // mmap was genuinely attempted and refused (not small-file
          // policy, not an explicit kBuffer request). The slurp fallback
          // below still works, but the corpus benches need to see when
          // the fast path silently degrades — count it.
          static obs::Counter& fallbacks_metric = obs::Registry::global()
              .counter("roots.io.mmap_fallbacks");
          fallbacks_metric.add(1);
        }
      }
      ::close(fd);
    }
  }
#endif
  if (!bytes.mapped_ && backing == Backing::kMmap) return std::nullopt;
  if (!bytes.mapped_) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    in.seekg(0, std::ios::end);
    const std::streamoff len = in.tellg();
    if (len < 0) return std::nullopt;
    in.seekg(0);
    bytes.buffer_.resize(static_cast<std::size_t>(len));
    if (len > 0) {
      in.read(bytes.buffer_.data(), len);
      if (!in) return std::nullopt;
    }
    bytes.data_ = bytes.buffer_.data();
    bytes.size_ = bytes.buffer_.size();
  }
  return bytes;
}

FileBytes& FileBytes::operator=(FileBytes&& other) noexcept {
  if (this != &other) {
    release();
    buffer_ = std::move(other.buffer_);
    size_ = other.size_;
    mapped_ = other.mapped_;
    data_ = mapped_ ? other.data_ : buffer_.data();
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

FileBytes::~FileBytes() { release(); }

void FileBytes::release() {
#ifdef NETCLIENTS_TRACE_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
}

bool write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();
  return static_cast<bool>(out);
}

}  // namespace netclients::roots
