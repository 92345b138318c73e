#pragma once

// Packet-framed DITL traces (NCP1): the capture-shaped sibling of the
// record-framed NCD1 format. Where NCD1 stores pre-parsed records (fixed
// fields + length-prefixed labels), NCP1 stores each root query as the
// RFC 1035 wire bytes that crossed the wire, preceded by a small capture
// header (source address, root letter, timestamp, packet length). This is
// what a real DITL collection looks like before any parsing has happened,
// and it is the natural sink for packets lifted off the netsim bus.
//
// Framing vs parsing: the view's Cursor validates *framing only* (capture
// header present, declared packet length in bounds). It never parses DNS —
// that keeps boundary discovery cheap enough for the serial partition walk
// the parallel scan does, and keeps chunk boundaries independent of packet
// contents. Consumers pay the honest per-packet `dns::MessageView::parse`
// inside the (parallel) scan passes; a framed-but-malformed packet is a
// scanned non-match, not a framing error.
//
// Lifetime contract: a PacketRecordRef (and the wire span / string_views
// it hands out) borrows the view's mapping and is valid only while the
// PacketTraceView is alive.

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/ipv4.h"
#include "net/sim_time.h"
#include "roots/file_bytes.h"
#include "roots/trace.h"

namespace netclients::roots {

/// A non-owning reference to one framed packet inside a PacketTraceView.
/// Capture fields are decoded on access (unaligned memcpy loads); the DNS
/// payload is a borrowed byte span — parse it with dns::MessageView.
class PacketRecordRef {
 public:
  net::Ipv4Addr source() const { return net::Ipv4Addr(load_u32(p_)); }
  char root_letter() const { return static_cast<char>(p_[4]); }
  net::SimTime timestamp() const { return load_f64(p_ + 5); }

  /// The captured RFC 1035 message bytes (borrowed from the mapping).
  std::span<const std::uint8_t> wire() const {
    return {p_ + kFixedBytes, wire_length()};
  }

  /// Whole-record size on disk (capture header plus packet bytes).
  std::size_t size_bytes() const { return kFixedBytes + wire_length(); }

 private:
  friend class PacketTraceView;

  static constexpr std::size_t kFixedBytes = 15;  // u32+u8+f64+u16

  std::size_t wire_length() const { return load_u16(p_ + 13); }

  static std::uint32_t load_u32(const std::uint8_t* p) {
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static std::uint16_t load_u16(const std::uint8_t* p) {
    std::uint16_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }
  static double load_f64(const std::uint8_t* p) {
    double v;
    std::memcpy(&v, p, sizeof(v));
    return v;
  }

  const std::uint8_t* p_ = nullptr;  // capture header start
};

/// An open NCP1 trace: header validated once at open(), packet frames
/// discovered lazily through cursors. Move-only; unmaps/frees on
/// destruction.
class PacketTraceView {
 public:
  using Backing = FileBytes::Backing;

  /// Validates magic + count header; same tolerant contract as
  /// TraceView::open — damaged frame bytes are not an open error, they
  /// surface as skip-and-count during traversal.
  static std::optional<PacketTraceView> open(const std::string& path,
                                             Backing backing = Backing::kAuto);

  /// The header's (untrusted) record count.
  std::uint64_t declared_count() const { return declared_; }
  bool mapped() const { return bytes_.mapped(); }
  /// Frame-region size: file bytes past the 12-byte header.
  std::size_t payload_bytes() const { return bytes_.size() - kHeaderBytes; }

  /// Forward framing walk. Validates only that each capture header and its
  /// declared packet length fit in the file; the DNS payload is opaque
  /// here. The format has no resync marker, so the first structural error
  /// ends the valid prefix and the declared remainder counts as skipped.
  class Cursor {
   public:
    /// Byte offset (from the first frame) of the next frame boundary.
    std::size_t offset() const { return static_cast<std::size_t>(p_ - begin_); }
    /// Frames decoded so far (== the index of the next frame).
    std::uint64_t index() const { return index_; }

    bool next(PacketRecordRef* ref) {
      if (index_ >= limit_) return false;
      const std::uint8_t* p = p_;
      if (end_ - p <
          static_cast<std::ptrdiff_t>(PacketRecordRef::kFixedBytes)) {
        return false;
      }
      std::uint16_t wire_len;
      std::memcpy(&wire_len, p + 13, sizeof(wire_len));
      const std::uint8_t* q = p + PacketRecordRef::kFixedBytes;
      if (end_ - q < static_cast<std::ptrdiff_t>(wire_len)) return false;
      ref->p_ = p;
      p_ = q + wire_len;
      ++index_;
      return true;
    }

   private:
    friend class PacketTraceView;
    const std::uint8_t* begin_ = nullptr;
    const std::uint8_t* p_ = nullptr;
    const std::uint8_t* end_ = nullptr;
    std::uint64_t index_ = 0;
    std::uint64_t limit_ = 0;
  };

  Cursor cursor() const { return cursor_at(0, 0); }

  /// Cursor at a known frame boundary — `offset`/`index` must come from a
  /// prior traversal (e.g. a chunk partition).
  Cursor cursor_at(std::size_t offset, std::uint64_t index) const {
    Cursor cur;
    cur.begin_ =
        reinterpret_cast<const std::uint8_t*>(bytes_.data()) + kHeaderBytes;
    cur.end_ = reinterpret_cast<const std::uint8_t*>(bytes_.data()) +
               bytes_.size();
    cur.p_ = cur.begin_ + (offset > payload_bytes() ? payload_bytes() : offset);
    cur.index_ = index;
    cur.limit_ = declared_;
    return cur;
  }

  /// One tolerant full framing walk (skipped = declared minus framed).
  ReadStats validate() const;

 private:
  PacketTraceView() = default;

  static constexpr std::size_t kHeaderBytes = 12;  // magic + u64 count

  FileBytes bytes_;  // whole file, header included
  std::uint64_t declared_ = 0;
};

/// Writes `records` as an NCP1 packet trace: each record is encoded as the
/// RD=0 A/qtype query a root server would capture — deterministic message
/// id (low 16 bits of the record index), qname/qtype from the record. Name
/// labels are canonicalized (lowercased) by DnsName, so scans over the
/// packet trace hash the same bytes as scans over the equivalent NCD1
/// trace. Returns false on I/O failure or when a record's query does not
/// fit a single unfragmented packet frame (never the case for valid
/// names).
bool write_packet_trace(const std::string& path,
                        const std::vector<TraceRecord>& records);

}  // namespace netclients::roots
