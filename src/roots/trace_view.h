#pragma once

// Zero-copy ingestion for the binary DITL trace format (NCD1).
//
// Materializing every record — a std::string per label, a std::vector per
// name, the whole trace resident before the scan starts — would make a
// DITL-scale scan (billions of records) allocation-bound long before it is
// CPU-bound. `TraceView` streams instead: the file is mmap-ed (or slurped
// once into a private buffer when mapping is unavailable), the NCD1
// framing is validated once, and records are exposed as `TraceRecordRef`s
// — fixed header fields decoded in place, labels as std::string_views into
// the mapped bytes, zero per-record heap work. Reads are tolerant
// (skip-and-count): the format has no record framing, so the first
// structural error ends the valid prefix and the declared remainder is
// counted as skipped.
//
// Lifetime contract: a TraceRecordRef (and every string_view it hands
// out) borrows the view's mapping and is valid only while the TraceView
// is alive. Consumers that outlive the view must materialize().

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "roots/file_bytes.h"
#include "roots/trace.h"

namespace netclients::roots {

/// A non-owning reference to one validated record inside a TraceView
/// mapping. Fixed fields are decoded on access (unaligned memcpy loads);
/// labels are string_views over the mapped label bytes.
class TraceRecordRef {
 public:
  net::Ipv4Addr source() const { return net::Ipv4Addr(load_u32(p_)); }
  char root_letter() const { return p_[4]; }
  dns::RecordType qtype() const {
    return static_cast<dns::RecordType>(load_u16(p_ + 5));
  }
  net::SimTime timestamp() const { return load_f64(p_ + 7); }

  std::size_t label_count() const {
    return static_cast<unsigned char>(p_[15]);
  }
  bool is_single_label() const { return label_count() == 1; }

  /// First label's bytes — the only label the Chromium signature scan
  /// inspects. Raw file bytes: not canonicalized to lowercase the way a
  /// materialized DnsName is.
  std::string_view first_label() const {
    const unsigned char len = static_cast<unsigned char>(p_[kFixedBytes]);
    return std::string_view(p_ + kFixedBytes + 1, len);
  }

  /// i-th label; O(i) — walks the length bytes. Prefer for_each_label for
  /// full traversal.
  std::string_view label(std::size_t i) const {
    const char* q = p_ + kFixedBytes;
    for (std::size_t skip = 0; skip < i; ++skip) {
      q += 1 + static_cast<unsigned char>(*q);
    }
    const unsigned char len = static_cast<unsigned char>(*q);
    return std::string_view(q + 1, len);
  }

  template <typename Fn>
  void for_each_label(Fn&& fn) const {
    const char* q = p_ + kFixedBytes;
    for (std::size_t i = 0, n = label_count(); i < n; ++i) {
      const unsigned char len = static_cast<unsigned char>(*q);
      fn(std::string_view(q + 1, len));
      q += 1 + len;
    }
  }

  /// Whole-record size on disk (fixed header plus label region).
  std::size_t size_bytes() const { return size_; }

  /// Deep copy into an owning TraceRecord (allocates — the slow path the
  /// view exists to avoid; used by the materializing readers and by
  /// consumers that outlive the mapping).
  TraceRecord materialize() const;

 private:
  friend class TraceView;

  static constexpr std::size_t kFixedBytes = 16;  // u32+u8+u16+f64+u8

  static std::uint32_t load_u32(const char* p) {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static std::uint16_t load_u16(const char* p) {
    std::uint16_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static double load_f64(const char* p) {
    double v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }

  const char* p_ = nullptr;  // fixed header start
  std::size_t size_ = 0;     // validated whole-record byte size
};

/// An open NCD1 trace: header validated once at open(), records decoded
/// lazily through cursors. Move-only; unmaps/frees on destruction.
class TraceView {
 public:
  using Backing = FileBytes::Backing;

  /// Validates magic + count header. Returns nullopt for an unopenable
  /// file or an invalid magic/count header. Damaged record bytes are *not*
  /// an open error — they surface as skip-and-count during cursor
  /// traversal.
  static std::optional<TraceView> open(const std::string& path,
                                       Backing backing = Backing::kAuto);

  /// The header's (untrusted) record count. Traversal never yields more
  /// than this many records, and yields fewer only on a structural error.
  std::uint64_t declared_count() const { return declared_; }
  /// True when the bytes are an mmap mapping (vs a heap buffer).
  bool mapped() const { return bytes_.mapped(); }
  /// Record-region size: file bytes past the 12-byte header.
  std::size_t payload_bytes() const { return bytes_.size() - kHeaderBytes; }

  /// Forward decoder over the record region. Validation rules mirror the
  /// materializing reader exactly (same bounds checks, same label-length
  /// and wire-length limits as DnsName::from_labels), so the two paths
  /// accept byte-identical prefixes of any input.
  class Cursor {
   public:
    /// Byte offset (from the first record) of the next record boundary.
    std::size_t offset() const { return static_cast<std::size_t>(p_ - begin_); }
    /// Records decoded so far (== the index of the next record).
    std::uint64_t index() const { return index_; }

    /// Decodes and validates the record at the cursor into `ref` and
    /// advances. Returns false — without advancing — once `declared_count`
    /// records were read or at the first structural error; the format has
    /// no framing, so a cursor never resyncs past damage.
    bool next(TraceRecordRef* ref) {
      if (index_ >= limit_) return false;
      const char* p = p_;
      if (end_ - p < static_cast<std::ptrdiff_t>(TraceRecordRef::kFixedBytes))
        return false;
      const std::size_t labels = static_cast<unsigned char>(p[15]);
      const char* q = p + TraceRecordRef::kFixedBytes;
      std::size_t wire = 1;  // root terminator
      for (std::size_t i = 0; i < labels; ++i) {
        if (end_ - q < 1) return false;
        const unsigned char len = static_cast<unsigned char>(*q);
        ++q;
        if (len == 0 || len > 63) return false;
        if (end_ - q < static_cast<std::ptrdiff_t>(len)) return false;
        wire += 1 + static_cast<std::size_t>(len);
        q += len;
      }
      if (wire > 255) return false;
      ref->p_ = p;
      ref->size_ = static_cast<std::size_t>(q - p);
      p_ = q;
      ++index_;
      return true;
    }

   private:
    friend class TraceView;
    const char* begin_ = nullptr;
    const char* p_ = nullptr;
    const char* end_ = nullptr;
    std::uint64_t index_ = 0;
    std::uint64_t limit_ = 0;
  };

  /// Cursor at the first record.
  Cursor cursor() const { return cursor_at(0, 0); }

  /// Cursor at a known record boundary — `offset`/`index` must come from a
  /// prior traversal (e.g. a chunk partition); arbitrary offsets would
  /// decode garbage as records.
  Cursor cursor_at(std::size_t offset, std::uint64_t index) const {
    Cursor cur;
    cur.begin_ = bytes_.data() + kHeaderBytes;
    cur.end_ = bytes_.data() + bytes_.size();
    cur.p_ = cur.begin_ + (offset > payload_bytes() ? payload_bytes() : offset);
    cur.index_ = index;
    cur.limit_ = declared_;
    return cur;
  }

  /// One tolerant full walk over every record.
  ReadStats validate() const;

 private:
  TraceView() = default;

  static constexpr std::size_t kHeaderBytes = 12;  // magic + u64 count

  FileBytes bytes_;  // whole file, header included
  std::uint64_t declared_ = 0;
};

}  // namespace netclients::roots
