#include "dns/packet.h"

#include <cassert>
#include <cstring>

#include "net/prefix.h"
#include "net/rng.h"

namespace netclients::dns {
namespace {

/// FNV-1a + finalizer over a label's packet bytes, lowercased on the fly —
/// bit-identical to net::stable_hash of the canonicalized label.
std::uint64_t lowercased_stable_hash(std::string_view raw_label) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : raw_label) {
    h ^= static_cast<unsigned char>(canonical_lower(c));
    h *= 0x100000001b3ULL;
  }
  return net::mix64(h);
}

}  // namespace

// ----------------------------------------------------------------- NameView

std::string_view NameView::first_label() const {
  std::size_t cursor = offset_;
  int hops = 0;
  while (cursor < wire_.size()) {
    const std::uint8_t len = wire_[cursor];
    if ((len & 0xC0) == 0xC0) {
      if (cursor + 1 >= wire_.size() || ++hops > kMaxPointerHops) break;
      cursor =
          (static_cast<std::size_t>(len & 0x3F) << 8) | wire_[cursor + 1];
      continue;
    }
    if (len == 0 || (len & 0xC0)) break;
    return {reinterpret_cast<const char*>(wire_.data()) + cursor + 1, len};
  }
  return {};  // unreachable for validated non-root names
}

std::uint64_t NameView::canonical_hash() const {
  std::uint64_t h = 0x5851f42d4c957f2dULL;
  for_each_label([&h](std::string_view label) {
    h = net::hash_combine(h, lowercased_stable_hash(label));
  });
  return h;
}

bool NameView::equals(const DnsName& name) const {
  if (name.label_count() != label_count_) return false;
  std::size_t i = 0;
  bool same = true;
  for_each_label([&](std::string_view raw) {
    const std::string& canonical = name.labels()[i++];
    if (raw.size() != canonical.size()) {
      same = false;
      return;
    }
    for (std::size_t b = 0; b < raw.size(); ++b) {
      if (canonical_lower(raw[b]) != canonical[b]) {
        same = false;
        return;
      }
    }
  });
  return same;
}

DnsName NameView::materialize() const {
  std::vector<std::string> labels;
  labels.reserve(label_count_);
  for_each_label([&labels](std::string_view label) {
    labels.emplace_back(label);
  });
  auto name = DnsName::from_labels(std::move(labels));
  assert(name.has_value());  // structural limits enforced at parse
  return std::move(*name);
}

bool parse_name(PacketReader& reader, NameView* out) {
  const std::span<const std::uint8_t> wire = reader.wire();
  std::size_t cursor = reader.pos();
  const std::size_t start = cursor;
  bool jumped = false;
  int hops = 0;
  std::size_t wire_len = 1;
  std::size_t labels = 0;
  while (true) {
    if (cursor >= wire.size()) return reader.fail("truncated name");
    const std::uint8_t len = wire[cursor];
    if ((len & 0xC0) == 0xC0) {
      if (cursor + 1 >= wire.size()) return reader.fail("truncated pointer");
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3F) << 8) | wire[cursor + 1];
      if (!jumped) reader.seek(cursor + 2);
      if (target >= cursor) return reader.fail("forward compression pointer");
      if (++hops > NameView::kMaxPointerHops) {
        return reader.fail("compression pointer loop");
      }
      cursor = target;
      jumped = true;
      continue;
    }
    if (len & 0xC0) return reader.fail("reserved label type");
    if (len == 0) {
      if (!jumped) reader.seek(cursor + 1);
      break;
    }
    if (cursor + 1 + len > wire.size()) return reader.fail("truncated label");
    wire_len += 1 + len;
    if (wire_len > 255) return reader.fail("name too long");
    ++labels;
    cursor += 1 + len;
  }
  if (out != nullptr) {
    out->wire_ = wire;
    out->offset_ = static_cast<std::uint32_t>(start);
    out->label_count_ = static_cast<std::uint8_t>(labels);
    out->wire_length_ = static_cast<std::uint16_t>(wire_len);
  }
  return true;
}

// ---------------------------------------------------------------- BufWriter

bool BufWriter::emit_pointer_for(std::string_view canonical_suffix) {
  for (const WireArena::Suffix& suffix : arena_.suffixes_) {
    if (suffix.pool_length != canonical_suffix.size()) continue;
    std::string_view stored(arena_.pool_.data() + suffix.pool_offset,
                            suffix.pool_length);
    if (stored == canonical_suffix) {
      u16(static_cast<std::uint16_t>(0xC000 | suffix.wire_offset));
      return true;
    }
  }
  return false;
}

void BufWriter::remember_suffix(std::string_view canonical_suffix) {
  if (arena_.out_.size() >= 0x3FFF) return;  // unpointable from here on
  WireArena::Suffix suffix;
  suffix.pool_offset = static_cast<std::uint32_t>(arena_.pool_.size());
  suffix.pool_length = static_cast<std::uint16_t>(canonical_suffix.size());
  suffix.wire_offset = static_cast<std::uint16_t>(arena_.out_.size());
  arena_.pool_.insert(arena_.pool_.end(), canonical_suffix.begin(),
                      canonical_suffix.end());
  arena_.suffixes_.push_back(suffix);
}

void BufWriter::name(const DnsName& name) {
  arena_.scratch_.clear();
  arena_.starts_.clear();
  for (const std::string& label : name.labels()) {
    arena_.starts_.push_back(static_cast<std::uint32_t>(
        arena_.scratch_.size()));
    arena_.scratch_.push_back(static_cast<char>(label.size()));
    arena_.scratch_.insert(arena_.scratch_.end(), label.begin(), label.end());
  }
  write_scratch_name();
}

void BufWriter::name(const NameView& name) {
  arena_.scratch_.clear();
  arena_.starts_.clear();
  name.for_each_label([this](std::string_view label) {
    arena_.starts_.push_back(static_cast<std::uint32_t>(
        arena_.scratch_.size()));
    arena_.scratch_.push_back(static_cast<char>(label.size()));
    for (char c : label) arena_.scratch_.push_back(canonical_lower(c));
  });
  write_scratch_name();
}

void BufWriter::write_scratch_name() {
  // scratch_ holds the name's canonical wire form without the root
  // octet, so every suffix is a view into it and its bytes are the
  // labels to write when no earlier suffix matches.
  const std::size_t labels = arena_.starts_.size();
  for (std::size_t i = 0; i < labels; ++i) {
    const std::size_t begin = arena_.starts_[i];
    const std::string_view suffix(arena_.scratch_.data() + begin,
                                  arena_.scratch_.size() - begin);
    if (emit_pointer_for(suffix)) return;
    remember_suffix(suffix);
    const std::size_t end =
        i + 1 < labels ? arena_.starts_[i + 1] : arena_.scratch_.size();
    bytes({reinterpret_cast<const std::uint8_t*>(suffix.data()),
           end - begin});
  }
  u8(0);  // root
}

// ------------------------------------------------------ in-place messages

namespace {

constexpr std::size_t kHeaderBytes = 12;
// OPT: root owner, TYPE, CLASS, TTL, RDLENGTH.
constexpr std::size_t kOptFixedBytes = 11;

std::uint8_t* put_u16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v >> 8);
  out[1] = static_cast<std::uint8_t>(v);
  return out + 2;
}

std::uint8_t* put_header(std::uint8_t* out, const Header& h,
                         std::uint16_t qd, std::uint16_t an,
                         std::uint16_t ns, std::uint16_t ar) {
  std::uint16_t flags = 0;
  flags |= static_cast<std::uint16_t>(h.qr) << 15;
  flags |= static_cast<std::uint16_t>(h.opcode & 0xF) << 11;
  flags |= static_cast<std::uint16_t>(h.aa) << 10;
  flags |= static_cast<std::uint16_t>(h.tc) << 9;
  flags |= static_cast<std::uint16_t>(h.rd) << 8;
  flags |= static_cast<std::uint16_t>(h.ra) << 7;
  flags |= static_cast<std::uint16_t>(h.rcode) & 0xF;
  out = put_u16(out, h.id);
  out = put_u16(out, flags);
  out = put_u16(out, qd);
  out = put_u16(out, an);
  out = put_u16(out, ns);
  return put_u16(out, ar);
}

unsigned ecs_address_bytes(const EcsOption& ecs) {
  return (ecs.source_prefix_length + 7u) / 8u;
}

std::size_t opt_length(const std::optional<EcsOption>& ecs) {
  return kOptFixedBytes + (ecs ? 8 + ecs_address_bytes(*ecs) : 0);
}

std::uint8_t* put_opt(std::uint8_t* out, std::uint16_t udp_payload_size,
                      const std::optional<EcsOption>& ecs) {
  *out++ = 0;  // root owner name
  out = put_u16(out, static_cast<std::uint16_t>(RecordType::kOpt));
  out = put_u16(out, udp_payload_size);  // CLASS = requestor's UDP size
  out = put_u16(out, 0);                 // extended RCODE/flags
  out = put_u16(out, 0);
  if (!ecs) return put_u16(out, 0);
  const unsigned addr_bytes = ecs_address_bytes(*ecs);
  out = put_u16(out, static_cast<std::uint16_t>(8 + addr_bytes));
  out = put_u16(out, EcsOption::kOptionCode);
  out = put_u16(out, static_cast<std::uint16_t>(4 + addr_bytes));
  out = put_u16(out, EcsOption::kFamilyIpv4);
  *out++ = ecs->source_prefix_length;
  *out++ = ecs->scope_prefix_length;
  const std::uint32_t addr = ecs->address.value();
  for (unsigned i = 0; i < addr_bytes; ++i) {
    *out++ = static_cast<std::uint8_t>(addr >> (24 - 8 * i));
  }
  return out;
}

}  // namespace

void encode_opt(BufWriter& writer, const EdnsInfo& edns) {
  put_opt(writer.extend(opt_length(edns.ecs)), edns.udp_payload_size,
          edns.ecs);
}

std::size_t query_length(const DnsName& name,
                         const std::optional<EcsOption>& ecs) {
  return kHeaderBytes + name.wire_length() + 4 + (ecs ? opt_length(ecs) : 0);
}

std::uint8_t* write_query(std::uint8_t* out, std::uint16_t id,
                          const DnsName& name, RecordType type,
                          bool recursion_desired,
                          const std::optional<EcsOption>& ecs) {
  Header header;
  header.id = id;
  header.rd = recursion_desired;
  out = put_header(out, header, 1, 0, 0, ecs ? 1 : 0);
  for (const std::string& label : name.labels()) {
    *out++ = static_cast<std::uint8_t>(label.size());
    std::memcpy(out, label.data(), label.size());
    out += label.size();
  }
  *out++ = 0;  // root
  out = put_u16(out, static_cast<std::uint16_t>(type));
  out = put_u16(out, kClassIn);
  return ecs ? put_opt(out, EdnsInfo{}.udp_payload_size, ecs) : out;
}

std::span<const std::uint8_t> write_reply(
    WireArena& arena, const MessageView& query, ReplyFlags flags,
    const ReplyRecord* answer, std::optional<std::uint8_t> ecs_scope) {
  Header header = query.header();
  header.qr = true;
  header.rcode = flags.rcode;
  header.aa |= flags.aa;
  header.ra |= flags.ra;
  const std::optional<EdnsInfo>& query_edns = query.edns();
  BufWriter writer(arena);
  put_header(writer.extend(kHeaderBytes), header,
             static_cast<std::uint16_t>(query.question_count()),
             answer != nullptr ? 1 : 0, 0, query_edns ? 1 : 0);
  query.for_each_question([&writer](const MessageView::QuestionView& q) {
    writer.name(q.name);
    writer.u16(static_cast<std::uint16_t>(q.type));
    writer.u16(q.qclass);
  });
  if (answer != nullptr) {
    writer.name(query.first_question().name);
    writer.u16(static_cast<std::uint16_t>(answer->type));
    writer.u16(kClassIn);
    writer.u32(answer->ttl);
    const std::size_t len_at = writer.size();
    writer.u16(0);
    if (answer->type == RecordType::kTxt) {
      // One character-string per 255 bytes (an empty text is one empty
      // string).
      std::string_view rest = answer->text;
      do {
        const std::string_view chunk = rest.substr(0, 255);
        rest.remove_prefix(chunk.size());
        writer.u8(static_cast<std::uint8_t>(chunk.size()));
        writer.bytes({reinterpret_cast<const std::uint8_t*>(chunk.data()),
                      chunk.size()});
      } while (!rest.empty());
    } else {
      writer.u32(answer->address.value());
    }
    writer.patch_u16(len_at,
                     static_cast<std::uint16_t>(writer.size() - len_at - 2));
  }
  if (query_edns) {
    EdnsInfo edns;
    edns.ecs = query_edns->ecs;
    if (edns.ecs && ecs_scope) edns.ecs->scope_prefix_length = *ecs_scope;
    encode_opt(writer, edns);
  }
  return writer.finish();
}

// -------------------------------------------------------------- MessageView

namespace {

bool parse_ecs(std::span<const std::uint8_t> data, EcsOption& out,
               PacketReader& reader) {
  if (data.size() < 4) return reader.fail("short ECS option");
  const std::uint16_t family =
      static_cast<std::uint16_t>(data[0] << 8 | data[1]);
  const std::uint8_t source_len = data[2];
  const std::uint8_t scope_len = data[3];
  if (family != EcsOption::kFamilyIpv4) return reader.fail("non-IPv4 ECS");
  if (source_len > 32 || scope_len > 32) {
    return reader.fail("ECS length > 32");
  }
  const unsigned addr_bytes = (source_len + 7) / 8;
  if (data.size() != 4 + addr_bytes) {
    return reader.fail("bad ECS address size");
  }
  std::uint32_t addr = 0;
  for (unsigned i = 0; i < addr_bytes; ++i) {
    addr |= std::uint32_t{data[4 + i]} << (24 - 8 * i);
  }
  out.address = net::Ipv4Addr(addr & net::Prefix::mask(source_len));
  out.source_prefix_length = source_len;
  out.scope_prefix_length = scope_len;
  return true;
}

/// Validates one record in full — the same accept/reject set as the
/// materializing decoder, including OPT/ECS structure and typed-RDATA
/// shape checks — and lifts EDNS state. Sets `is_opt` so callers can keep
/// per-section record counts that exclude the OPT pseudo-record.
bool validate_record(PacketReader& reader, std::optional<EdnsInfo>& edns,
                     bool& is_opt) {
  NameView name;
  if (!parse_name(reader, &name)) return false;
  std::uint16_t type = 0, rclass = 0, rdlength = 0;
  std::uint32_t ttl = 0;
  if (!reader.u16(type) || !reader.u16(rclass) || !reader.u32(ttl) ||
      !reader.u16(rdlength)) {
    return false;
  }
  std::span<const std::uint8_t> rdata;
  if (!reader.bytes(rdlength, rdata)) return false;

  const auto record_type = static_cast<RecordType>(type);
  is_opt = record_type == RecordType::kOpt;
  if (is_opt) {
    if (!name.is_root()) return reader.fail("OPT owner must be root");
    EdnsInfo info;
    info.udp_payload_size = rclass;
    std::size_t at = 0;
    while (at < rdata.size()) {
      if (at + 4 > rdata.size()) return reader.fail("truncated EDNS option");
      const std::uint16_t code =
          static_cast<std::uint16_t>(rdata[at] << 8 | rdata[at + 1]);
      const std::uint16_t optlen =
          static_cast<std::uint16_t>(rdata[at + 2] << 8 | rdata[at + 3]);
      at += 4;
      if (at + optlen > rdata.size()) {
        return reader.fail("truncated EDNS option");
      }
      if (code == EcsOption::kOptionCode) {
        EcsOption ecs;
        if (!parse_ecs(rdata.subspan(at, optlen), ecs, reader)) return false;
        info.ecs = ecs;
      }
      at += optlen;
    }
    edns = info;
    return true;
  }

  if (record_type == RecordType::kA && rclass == kClassIn) {
    if (rdata.size() != 4) return reader.fail("A rdata must be 4 bytes");
  } else if (record_type == RecordType::kTxt && rclass == kClassIn) {
    std::size_t at = 0;
    while (at < rdata.size()) {
      const std::uint8_t len = rdata[at++];
      if (at + len > rdata.size()) {
        return reader.fail("truncated TXT string");
      }
      at += len;
    }
  }
  return true;
}

}  // namespace

std::optional<net::Ipv4Addr> MessageView::RecordView::a_address() const {
  if (type != RecordType::kA || rclass != kClassIn || rdata.size() != 4) {
    return std::nullopt;
  }
  return net::Ipv4Addr((std::uint32_t{rdata[0]} << 24) |
                       (std::uint32_t{rdata[1]} << 16) |
                       (std::uint32_t{rdata[2]} << 8) |
                       std::uint32_t{rdata[3]});
}

std::optional<std::span<const std::uint8_t>>
MessageView::RecordView::txt_segment() const {
  if (rdata.empty()) return std::nullopt;
  const std::uint8_t len = rdata[0];
  if (std::size_t{len} + 1 > rdata.size()) return std::nullopt;
  return rdata.subspan(1, len);
}

bool MessageView::RecordView::txt_text(std::string* out) const {
  out->clear();
  std::size_t at = 0;
  while (at < rdata.size()) {
    const std::uint8_t len = rdata[at++];
    if (at + len > rdata.size()) return false;
    out->append(reinterpret_cast<const char*>(rdata.data() + at), len);
    at += len;
  }
  return true;
}

std::optional<MessageView> MessageView::parse(
    std::span<const std::uint8_t> wire, std::string* error) {
  MessageView view;
  view.wire_ = wire;
  PacketReader reader(wire);
  auto failure = [&]() -> std::optional<MessageView> {
    if (error != nullptr) *error = reader.error();
    return std::nullopt;
  };

  std::uint16_t flags = 0;
  if (!reader.u16(view.header_.id) || !reader.u16(flags) ||
      !reader.u16(view.qd_) || !reader.u16(view.an_) ||
      !reader.u16(view.ns_) || !reader.u16(view.ar_)) {
    return failure();
  }
  view.header_.qr = flags & 0x8000;
  view.header_.opcode = (flags >> 11) & 0xF;
  view.header_.aa = flags & 0x0400;
  view.header_.tc = flags & 0x0200;
  view.header_.rd = flags & 0x0100;
  view.header_.ra = flags & 0x0080;
  view.header_.rcode = static_cast<RCode>(flags & 0xF);

  view.questions_off_ = static_cast<std::uint32_t>(reader.pos());
  for (std::size_t i = 0; i < view.qd_; ++i) {
    NameView name;
    std::uint16_t type = 0, qclass = 0;
    if (!parse_name(reader, &name) || !reader.u16(type) ||
        !reader.u16(qclass)) {
      return failure();
    }
    if (i == 0) {
      view.question_.name = name;
      view.question_.type = static_cast<RecordType>(type);
      view.question_.qclass = qclass;
    }
  }

  view.answers_off_ = static_cast<std::uint32_t>(reader.pos());
  const std::uint16_t declared[3] = {view.an_, view.ns_, view.ar_};
  std::uint32_t* offsets[3] = {nullptr, &view.authorities_off_,
                               &view.additionals_off_};
  for (int section = 0; section < 3; ++section) {
    if (offsets[section] != nullptr) {
      *offsets[section] = static_cast<std::uint32_t>(reader.pos());
    }
    for (std::size_t i = 0; i < declared[section]; ++i) {
      bool is_opt = false;
      if (!validate_record(reader, view.edns_, is_opt)) return failure();
      if (is_opt) ++view.opt_counts_[section];
    }
  }

  if (reader.remaining() != 0) {
    reader.fail("trailing bytes after message");
    return failure();
  }
  return view;
}

std::size_t MessageView::record_count(Section section) const {
  const auto index = static_cast<std::size_t>(section);
  const std::uint16_t declared[3] = {an_, ns_, ar_};
  return declared[index] - opt_counts_[index];
}

std::size_t MessageView::section_offset(Section section) const {
  switch (section) {
    case Section::kAnswer:
      return answers_off_;
    case Section::kAuthority:
      return authorities_off_;
    case Section::kAdditional:
      return additionals_off_;
  }
  return additionals_off_;
}

std::size_t MessageView::declared_count(Section section) const {
  switch (section) {
    case Section::kAnswer:
      return an_;
    case Section::kAuthority:
      return ns_;
    case Section::kAdditional:
      return ar_;
  }
  return ar_;
}

bool MessageView::read_record(PacketReader& reader, RecordView& record,
                              bool& is_opt) const {
  if (!parse_name(reader, &record.name)) return false;
  std::uint16_t type = 0, rdlength = 0;
  if (!reader.u16(type) || !reader.u16(record.rclass) ||
      !reader.u32(record.ttl) || !reader.u16(rdlength)) {
    return false;
  }
  record.type = static_cast<RecordType>(type);
  is_opt = record.type == RecordType::kOpt;
  return reader.bytes(rdlength, record.rdata);
}

}  // namespace netclients::dns
