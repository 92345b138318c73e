#pragma once

// The RFC 1035 wire format: the one DNS representation the library
// reads and writes. Nothing is materialized into per-section vectors or
// per-label strings: packets are read through views and written in place.
//
//  * PacketReader — a bounds-checked forward cursor over immutable wire
//    bytes; every primitive either advances or records the first error.
//  * BufWriter / WireArena — an append writer over arena-owned buffers.
//    The arena keeps its output vector and its name-compression side
//    tables alive across messages, so steady-state writes perform no
//    heap allocation at all.
//  * NameView — a non-owning DNS name: an offset into the packet plus
//    cached label/length counts from validation. Labels are handed out as
//    string_views over the packet bytes; compression pointers are followed
//    on every walk (they were capped and validated once, at parse).
//  * MessageView — a non-owning decoded message: header and EDNS/ECS
//    decoded inline (fixed size), sections exposed as validated offsets
//    iterated on demand. Parsing performs a complete validation pass but
//    touches no heap; decode-inspect-drop costs no copies.
//  * write_query / write_reply — the messages the resolver front ends
//    exchange, written in place: a one-question query into a buffer the
//    caller has sized, and a server's reply straight from the query's
//    view.
//
// Ownership and lifetime: a MessageView (and every NameView/RecordView/
// string_view derived from it) borrows the packet buffer it was parsed
// from and is valid only while those bytes are alive and unmodified.
// Spans returned by BufWriter/write_reply borrow their arena and are
// invalidated by the next write into the same arena.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dns/ecs.h"
#include "dns/name.h"
#include "dns/types.h"
#include "net/ipv4.h"

namespace netclients::dns {

struct Header {
  std::uint16_t id = 0;
  bool qr = false;  // response flag
  bool aa = false;  // authoritative answer
  bool tc = false;  // truncated
  bool rd = false;  // recursion desired — cache snooping sets this to FALSE
  bool ra = false;  // recursion available
  std::uint8_t opcode = 0;
  RCode rcode = RCode::kNoError;

  friend bool operator==(const Header&, const Header&) = default;
};

/// EDNS0 (OPT pseudo-record) state, carrying at most one ECS option.
struct EdnsInfo {
  std::uint16_t udp_payload_size = 4096;
  std::optional<EcsOption> ecs;

  friend bool operator==(const EdnsInfo&, const EdnsInfo&) = default;
};

/// Bounds-checked forward reader over wire bytes. All primitives return
/// false (and latch the first error) instead of reading out of bounds.
class PacketReader {
 public:
  explicit PacketReader(std::span<const std::uint8_t> wire) : wire_(wire) {}

  bool fail(std::string_view why) {
    if (error_.empty()) error_ = why;
    return false;
  }
  const std::string& error() const { return error_; }
  bool failed() const { return !error_.empty(); }

  bool u8(std::uint8_t& out) {
    if (pos_ + 1 > wire_.size()) return fail("truncated u8");
    out = wire_[pos_++];
    return true;
  }
  bool u16(std::uint16_t& out) {
    if (pos_ + 2 > wire_.size()) return fail("truncated u16");
    out = static_cast<std::uint16_t>(wire_[pos_] << 8 | wire_[pos_ + 1]);
    pos_ += 2;
    return true;
  }
  bool u32(std::uint32_t& out) {
    std::uint16_t hi = 0, lo = 0;
    if (!u16(hi) || !u16(lo)) return false;
    out = (std::uint32_t{hi} << 16) | lo;
    return true;
  }
  /// Borrows `count` bytes from the packet (no copy).
  bool bytes(std::size_t count, std::span<const std::uint8_t>& out) {
    if (count > wire_.size() - pos_ || pos_ > wire_.size()) {
      return fail("truncated rdata");
    }
    out = wire_.subspan(pos_, count);
    pos_ += count;
    return true;
  }
  bool skip(std::size_t count) {
    if (count > wire_.size() - pos_) return fail("truncated skip");
    pos_ += count;
    return true;
  }

  std::size_t pos() const { return pos_; }
  void seek(std::size_t pos) { pos_ = pos; }
  std::size_t remaining() const { return wire_.size() - pos_; }
  std::span<const std::uint8_t> wire() const { return wire_; }

 private:
  std::span<const std::uint8_t> wire_;
  std::size_t pos_ = 0;
  std::string error_;
};

/// A non-owning DNS name inside a packet: the packet bytes plus the offset
/// where the name starts. Constructed only by MessageView parsing, which
/// validated the name (bounds, label lengths, 255-octet wire cap, pointer
/// direction, and the 64-hop jump cap) — so walks cannot escape the
/// packet. Labels are raw packet bytes: not lowercased the way a
/// materialized DnsName is; the hashing/equality helpers canonicalize on
/// the fly so lookups agree with DnsName exactly.
class NameView {
 public:
  NameView() = default;

  std::size_t label_count() const { return label_count_; }
  bool is_root() const { return label_count_ == 0; }
  bool is_single_label() const { return label_count_ == 1; }
  /// Uncompressed wire length (label bytes + length octets + terminator).
  std::size_t wire_length() const { return wire_length_; }

  /// First label's bytes (raw case). Precondition: !is_root().
  std::string_view first_label() const;

  /// Visits every label in order, following compression pointers.
  template <typename Fn>
  void for_each_label(Fn&& fn) const {
    std::size_t cursor = offset_;
    int hops = 0;
    while (cursor < wire_.size()) {
      const std::uint8_t len = wire_[cursor];
      if ((len & 0xC0) == 0xC0) {
        if (cursor + 1 >= wire_.size() || ++hops > kMaxPointerHops) return;
        cursor = (static_cast<std::size_t>(len & 0x3F) << 8) |
                 wire_[cursor + 1];
        continue;
      }
      if (len == 0 || (len & 0xC0)) return;
      fn(std::string_view(
          reinterpret_cast<const char*>(wire_.data()) + cursor + 1, len));
      cursor += 1 + len;
    }
  }

  /// The stable hash a materialized DnsName would carry (labels lowercased
  /// on the fly) — what makes heterogeneous map lookups possible.
  std::uint64_t canonical_hash() const;
  /// Case-insensitive comparison against a canonical DnsName.
  bool equals(const DnsName& name) const;

  /// Deep copy into an owning, canonicalized DnsName. Validation at parse
  /// enforced exactly from_labels' structural limits, so this cannot fail.
  DnsName materialize() const;

  /// RFC 1035 §4.1.4 caps pointer chains implicitly (each must point
  /// strictly backwards); we additionally cap hops so a hostile packet
  /// cannot make a walk quadratic.
  static constexpr int kMaxPointerHops = 64;

 private:
  friend class MessageView;
  friend bool parse_name(PacketReader& reader, NameView* out);

  std::span<const std::uint8_t> wire_;
  std::uint32_t offset_ = 0;
  std::uint8_t label_count_ = 0;
  std::uint16_t wire_length_ = 1;
};

/// Validates and indexes the name at the reader's position: truncation,
/// reserved label types, forward pointers, the 64-hop cap, and the
/// 255-octet name limit. Advances the reader past the name's in-place
/// bytes.
bool parse_name(PacketReader& reader, NameView* out);

/// Reusable write state. Keeps the output buffer and the compression
/// side tables warm across messages; after the first few messages the
/// hot path performs no allocation. Not thread-safe — use one arena per
/// thread (the resolver front ends keep one thread_local each).
class WireArena {
 public:
  /// Bytes of the most recent message (valid until the next write).
  std::span<const std::uint8_t> last() const {
    return {out_.data(), out_.size()};
  }

 private:
  friend class BufWriter;

  struct Suffix {
    std::uint32_t pool_offset;  // canonical suffix bytes in pool_
    std::uint16_t pool_length;
    std::uint16_t wire_offset;  // where the suffix was emitted (< 0x3FFF)
  };

  std::vector<std::uint8_t> out_;
  std::vector<Suffix> suffixes_;
  std::vector<char> pool_;
  std::vector<char> scratch_;          // canonical wire form being written
  std::vector<std::uint32_t> starts_;  // per-label offsets into scratch_
};

/// Append-only writer into a WireArena. Big-endian primitives, 16-bit
/// back-patching for RDLENGTH fields, and RFC 1035 §4.1.4 name
/// compression: the longest previously emitted suffix is replaced by a
/// pointer. Suffixes are keyed by their canonical wire form (lower-case,
/// length-prefixed labels), so a label holding a '.' byte never aliases
/// two shorter labels. Compression state lives in the arena (no
/// per-message maps).
class BufWriter {
 public:
  /// Begins a fresh message in `arena`, recycling its buffers.
  explicit BufWriter(WireArena& arena) : arena_(arena) {
    arena_.out_.clear();
    arena_.suffixes_.clear();
    arena_.pool_.clear();
  }

  void u8(std::uint8_t v) { arena_.out_.push_back(v); }
  void u16(std::uint16_t v) {
    arena_.out_.push_back(static_cast<std::uint8_t>(v >> 8));
    arena_.out_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void bytes(std::span<const std::uint8_t> data) {
    arena_.out_.insert(arena_.out_.end(), data.begin(), data.end());
  }
  void patch_u16(std::size_t offset, std::uint16_t v) {
    arena_.out_[offset] = static_cast<std::uint8_t>(v >> 8);
    arena_.out_[offset + 1] = static_cast<std::uint8_t>(v);
  }
  /// Appends `count` bytes for the caller to fill in place; the pointer
  /// is valid until the next write.
  std::uint8_t* extend(std::size_t count) {
    const std::size_t at = arena_.out_.size();
    arena_.out_.resize(at + count);
    return arena_.out_.data() + at;
  }

  /// Writes `name` with compression against previously written names.
  void name(const DnsName& name);
  /// Writes a name viewed in a packet, in canonical lower case, with the
  /// same compression the equal DnsName would get.
  void name(const NameView& name);

  std::size_t size() const { return arena_.out_.size(); }
  std::span<const std::uint8_t> finish() const { return arena_.last(); }

 private:
  /// Writes the name laid out in the arena's scratch_/starts_.
  void write_scratch_name();
  bool emit_pointer_for(std::string_view canonical_suffix);
  void remember_suffix(std::string_view canonical_suffix);

  WireArena& arena_;
};

/// Writes the OPT pseudo-record (root owner, CLASS = UDP payload size,
/// zero TTL) carrying `edns.ecs` as an RFC 7871 option when set.
void encode_opt(BufWriter& writer, const EdnsInfo& edns);

/// The length of the query `write_query` writes.
std::size_t query_length(const DnsName& name,
                         const std::optional<EcsOption>& ecs = std::nullopt);

/// Writes a one-question query in place at `out`, which must hold
/// `query_length(name, ecs)` bytes: the header (`id`, RD as given,
/// QDCOUNT 1, ARCOUNT 1 when `ecs` is set), the name's labels
/// uncompressed, QTYPE, class IN, and, when `ecs` is set, an OPT record
/// (UDP size 4096) carrying it. Returns one past the last byte written.
std::uint8_t* write_query(std::uint8_t* out, std::uint16_t id,
                          const DnsName& name, RecordType type,
                          bool recursion_desired,
                          const std::optional<EcsOption>& ecs = std::nullopt);

/// A non-owning decoded DNS message. See the file comment for the
/// lifetime contract. Parsing runs the full validation pass; accessors
/// re-walk the validated bytes and cannot fail.
class MessageView {
 public:
  /// One question, viewed in place.
  struct QuestionView {
    NameView name;
    RecordType type = RecordType::kA;
    std::uint16_t qclass = kClassIn;
  };

  /// One resource record, viewed in place. `rdata` borrows the packet.
  struct RecordView {
    NameView name;
    RecordType type = RecordType::kA;
    std::uint16_t rclass = kClassIn;
    std::uint32_t ttl = 0;
    std::span<const std::uint8_t> rdata;

    /// Decodes A RDATA (when type/class/length say so).
    std::optional<net::Ipv4Addr> a_address() const;
    /// Concatenates TXT character-strings into `out` (allocates — the
    /// materializing path); returns false on malformed strings.
    bool txt_text(std::string* out) const;
    /// Zero-copy view of the first TXT character-string (empty optional
    /// when the RDATA is empty or the length octet overruns it). Binary
    /// single-segment TXT payloads — the netsvc result blobs — decode
    /// through this without touching the heap.
    std::optional<std::span<const std::uint8_t>> txt_segment() const;
  };

  enum class Section : std::uint8_t { kAnswer, kAuthority, kAdditional };

  /// Full validation pass, no allocation. On rejection `error` (if
  /// given) receives the diagnostic.
  static std::optional<MessageView> parse(std::span<const std::uint8_t> wire,
                                          std::string* error = nullptr);

  const Header& header() const { return header_; }
  std::span<const std::uint8_t> wire() const { return wire_; }

  std::size_t question_count() const { return qd_; }
  /// First question (the only one DNS servers answer). Precondition:
  /// question_count() > 0.
  const QuestionView& first_question() const { return question_; }

  /// Visits every question in wire order.
  template <typename Fn>
  void for_each_question(Fn&& fn) const {
    PacketReader reader(wire_);
    reader.seek(questions_off_);
    for (std::size_t i = 0; i < qd_; ++i) {
      QuestionView q;
      std::uint16_t type = 0;
      if (!parse_name(reader, &q.name)) return;  // unreachable
      reader.u16(type);
      reader.u16(q.qclass);
      q.type = static_cast<RecordType>(type);
      fn(q);
    }
  }

  /// Record count per section, the OPT pseudo-record excluded (it is
  /// lifted into edns()).
  std::size_t record_count(Section section) const;

  /// Visits the section's records in wire order, skipping OPT.
  template <typename Fn>
  void for_each_record(Section section, Fn&& fn) const {
    PacketReader reader(wire_);
    reader.seek(section_offset(section));
    const std::size_t declared = declared_count(section);
    for (std::size_t i = 0; i < declared; ++i) {
      RecordView record;
      bool is_opt = false;
      if (!read_record(reader, record, is_opt)) return;  // unreachable
      if (!is_opt) fn(record);
    }
  }

  /// EDNS state (OPT + ECS), decoded at parse.
  const std::optional<EdnsInfo>& edns() const { return edns_; }

 private:
  std::size_t section_offset(Section section) const;
  std::size_t declared_count(Section section) const;
  bool read_record(PacketReader& reader, RecordView& record,
                   bool& is_opt) const;

  std::span<const std::uint8_t> wire_;
  Header header_;
  QuestionView question_;  // first question, when qd_ > 0
  std::uint16_t qd_ = 0, an_ = 0, ns_ = 0, ar_ = 0;  // declared counts
  std::uint16_t opt_counts_[3] = {0, 0, 0};  // OPTs per record section
  std::uint32_t questions_off_ = 0;
  std::uint32_t answers_off_ = 0;
  std::uint32_t authorities_off_ = 0;
  std::uint32_t additionals_off_ = 0;
  std::optional<EdnsInfo> edns_;
};

/// The one answer record a server's reply carries, owned by the first
/// question's name: an A record for `address`, or a TXT record holding
/// `text`.
struct ReplyRecord {
  RecordType type = RecordType::kA;
  std::uint32_t ttl = 0;
  net::Ipv4Addr address;
  std::string_view text;
};

/// What a reply changes in the query's header besides setting QR.
struct ReplyFlags {
  RCode rcode = RCode::kNoError;
  bool aa = false;  // set AA (else the query's bit is echoed)
  bool ra = false;  // set RA (else the query's bit is echoed)
};

/// Writes a server's reply to `query` into `arena`, straight from the
/// view: the query's header with QR set and `flags` applied; every
/// question echoed in canonical lower case; `answer`, if given; and, when
/// the query carried OPT, an OPT record with UDP size 4096 and the
/// query's ECS option, whose scope byte becomes `ecs_scope` when that is
/// given. The span borrows the arena until the next write into it; the
/// query's bytes must not live in `arena`, which the write reuses.
std::span<const std::uint8_t> write_reply(
    WireArena& arena, const MessageView& query, ReplyFlags flags,
    const ReplyRecord* answer = nullptr,
    std::optional<std::uint8_t> ecs_scope = std::nullopt);

}  // namespace netclients::dns
