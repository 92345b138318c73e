#include "core/snapshot/snapshot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

#include "core/obs/obs.h"
#include "net/crc32.h"
#include "net/rng.h"

namespace netclients::core::snapshot {
namespace {

// ------------------------------------------------------------ wire basics

enum SectionKind : std::uint32_t {
  kEpochHeader = 1,
  kPrefixes = 2,
  kAsAggregates = 3,
  kCountries = 4,
};

/// Epoch-header flag: this epoch's keyed sections are delta-encoded
/// against the immediately preceding epoch in the file.
constexpr std::uint32_t kFlagDelta = 1;

/// Frame: kind (4) + epoch_id (4) + payload_size (8) + crc (4).
constexpr std::size_t kFrameBytes = 20;

/// Upper bound on a sane section payload; a declared size beyond this is
/// frame corruption, not a huge section.
constexpr std::uint64_t kMaxPayload = std::uint64_t{1} << 40;

using net::crc32;

void put_u8(std::string& out, std::uint8_t v) {
  out.push_back(static_cast<char>(v));
}
void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}
void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}
void put_f64(std::string& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}
using detail::get_varint;
using detail::put_varint;

/// Bounded little-endian reader over a section payload. Every accessor
/// sets ok=false instead of reading past the end; callers check `ok`
/// once per logical record, not per byte.
struct Cursor {
  const unsigned char* p = nullptr;
  const unsigned char* end = nullptr;
  bool ok = true;

  explicit Cursor(std::string_view bytes)
      : p(reinterpret_cast<const unsigned char*>(bytes.data())),
        end(p + bytes.size()) {}

  std::size_t remaining() const { return static_cast<std::size_t>(end - p); }
  bool at_end() const { return p == end; }

  std::uint8_t u8() {
    if (remaining() < 1) {
      ok = false;
      return 0;
    }
    return *p++;
  }
  std::uint32_t u32() {
    if (remaining() < 4) {
      ok = false;
      p = end;
      return 0;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= std::uint32_t{p[i]} << (8 * i);
    p += 4;
    return v;
  }
  std::uint64_t u64() {
    if (remaining() < 8) {
      ok = false;
      p = end;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= std::uint64_t{p[i]} << (8 * i);
    p += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  std::uint64_t varint() {
    std::string_view rest(reinterpret_cast<const char*>(p), remaining());
    const std::optional<std::uint64_t> v = get_varint(rest);
    if (!v) {
      ok = false;
      return 0;
    }
    p = end - rest.size();
    return *v;
  }
};

// ------------------------------------------------- keyed-section codecs
//
// Each keyed section serialises a vector sorted by a u64 key. The codec
// structs supply the key mapping and the value encoding; full and delta
// payloads share one grammar (a full payload is a delta with an empty
// removed list applied to an empty base).

struct PrefixCodec {
  using Entry = PrefixEntry;
  static constexpr SectionKind kind = kPrefixes;
  static std::uint64_t key(const Entry& e) {
    return (std::uint64_t{e.prefix.base().value()} << 8) | e.prefix.length();
  }
  static void put_value(std::string& out, const Entry& e) {
    put_f64(out, e.volume);
    put_varint(out, e.asn);
    put_varint(out, e.country);
    put_varint(out, e.domain_mask);
  }
  static bool get(Cursor& c, std::uint64_t key, Entry* out) {
    const std::uint8_t length = static_cast<std::uint8_t>(key & 0xFF);
    const std::uint32_t base = static_cast<std::uint32_t>(key >> 8);
    if (length > 32 || (key >> 40) != 0) return false;
    out->prefix = net::Prefix(net::Ipv4Addr(base), length);
    if (out->prefix.base().value() != base) return false;  // host bits set
    out->volume = c.f64();
    const std::uint64_t asn = c.varint();
    const std::uint64_t country = c.varint();
    const std::uint64_t mask = c.varint();
    if (!c.ok || asn > 0xFFFFFFFFu || country > 0xFFFF ||
        mask > 0xFFFFFFFFu) {
      return false;
    }
    out->asn = static_cast<std::uint32_t>(asn);
    out->country = static_cast<std::uint16_t>(country);
    out->domain_mask = static_cast<std::uint32_t>(mask);
    return true;
  }
};

struct AsCodec {
  using Entry = AsAggregate;
  static constexpr SectionKind kind = kAsAggregates;
  static std::uint64_t key(const Entry& e) { return e.asn; }
  static void put_value(std::string& out, const Entry& e) {
    put_f64(out, e.volume);
    put_varint(out, e.prefixes);
  }
  static bool get(Cursor& c, std::uint64_t key, Entry* out) {
    if (key > 0xFFFFFFFFu) return false;
    out->asn = static_cast<std::uint32_t>(key);
    out->volume = c.f64();
    const std::uint64_t prefixes = c.varint();
    if (!c.ok || prefixes > 0xFFFFFFFFu) return false;
    out->prefixes = static_cast<std::uint32_t>(prefixes);
    return true;
  }
};

struct CountryCodec {
  using Entry = CountryAggregate;
  static constexpr SectionKind kind = kCountries;
  static std::uint64_t key(const Entry& e) { return e.country; }
  static void put_value(std::string& out, const Entry& e) {
    put_f64(out, e.volume);
    put_varint(out, e.prefixes);
  }
  static bool get(Cursor& c, std::uint64_t key, Entry* out) {
    if (key > 0xFFFF) return false;
    out->country = static_cast<std::uint16_t>(key);
    out->volume = c.f64();
    const std::uint64_t prefixes = c.varint();
    if (!c.ok || prefixes > 0xFFFFFFFFu) return false;
    out->prefixes = static_cast<std::uint32_t>(prefixes);
    return true;
  }
};

template <typename Codec>
std::string encode_keyed(const std::vector<typename Codec::Entry>* prev,
                         const std::vector<typename Codec::Entry>& cur) {
  std::string payload;
  put_u8(payload, prev ? 1 : 0);

  // Removed keys: in prev but absent from cur.
  std::string removed;
  std::uint64_t removed_count = 0;
  std::uint64_t last_removed = 0;
  if (prev) {
    std::size_t j = 0;
    for (const auto& entry : *prev) {
      const std::uint64_t key = Codec::key(entry);
      while (j < cur.size() && Codec::key(cur[j]) < key) ++j;
      if (j < cur.size() && Codec::key(cur[j]) == key) continue;
      put_varint(removed, removed_count == 0 ? key : key - last_removed);
      last_removed = key;
      ++removed_count;
    }
  }
  put_varint(payload, removed_count);
  payload += removed;

  // Upserts: new entries, plus entries whose value changed.
  std::string upserts;
  std::uint64_t upsert_count = 0;
  std::uint64_t last_key = 0;
  std::size_t j = 0;
  for (const auto& entry : cur) {
    const std::uint64_t key = Codec::key(entry);
    if (prev) {
      while (j < prev->size() && Codec::key((*prev)[j]) < key) ++j;
      if (j < prev->size() && Codec::key((*prev)[j]) == key &&
          (*prev)[j] == entry) {
        continue;  // unchanged: the delta omits it
      }
    }
    put_varint(upserts, upsert_count == 0 ? key : key - last_key);
    Codec::put_value(upserts, entry);
    last_key = key;
    ++upsert_count;
  }
  put_varint(payload, upsert_count);
  payload += upserts;
  return payload;
}

/// Decodes a keyed payload into `out`. `prev` is the predecessor epoch's
/// vector (required by delta payloads). Returns false on any structural
/// problem; `problem` (when non-null) gets the strict-mode description.
template <typename Codec>
bool decode_keyed(std::string_view payload,
                  const std::vector<typename Codec::Entry>* prev,
                  std::vector<typename Codec::Entry>* out,
                  std::string* problem = nullptr) {
  using Entry = typename Codec::Entry;
  auto fail = [&](const char* what) {
    if (problem) *problem = what;
    return false;
  };
  Cursor c(payload);
  const std::uint8_t encoding = c.u8();
  if (!c.ok || encoding > 1) return fail("bad keyed-section encoding byte");
  if (encoding == 1 && !prev) {
    return fail("delta-encoded section without a usable base epoch");
  }

  const std::uint64_t removed_count = c.varint();
  if (!c.ok || removed_count > c.remaining()) {
    return fail("removed-key count exceeds section bytes");
  }
  std::vector<std::uint64_t> removed;
  // Reserve clamp: never trust the declared count beyond what the bytes
  // on hand could possibly encode (>= 1 byte per key).
  removed.reserve(std::min<std::uint64_t>(removed_count, c.remaining()));
  std::uint64_t key = 0;
  for (std::uint64_t i = 0; i < removed_count; ++i) {
    const std::uint64_t delta = c.varint();
    if (!c.ok) return fail("truncated removed-key list");
    if (i > 0 && delta == 0) return fail("removed keys not ascending");
    key = i == 0 ? delta : key + delta;
    removed.push_back(key);
  }

  const std::uint64_t upsert_count = c.varint();
  if (!c.ok || upsert_count > c.remaining()) {
    return fail("upsert count exceeds section bytes");
  }
  std::vector<Entry> upserts;
  upserts.reserve(std::min<std::uint64_t>(
      upsert_count, c.remaining() / 9 + 1));  // >= key + f64 per upsert
  key = 0;
  for (std::uint64_t i = 0; i < upsert_count; ++i) {
    const std::uint64_t delta = c.varint();
    if (!c.ok) return fail("truncated upsert list");
    if (i > 0 && delta == 0) return fail("upsert keys not ascending");
    key = i == 0 ? delta : key + delta;
    Entry entry;
    if (!Codec::get(c, key, &entry)) return fail("malformed upsert value");
    upserts.push_back(entry);
  }
  if (!c.at_end()) return fail("trailing bytes after keyed payload");

  if (encoding == 0) {
    if (removed_count != 0) return fail("full section with removed keys");
    *out = std::move(upserts);
    return true;
  }

  // Apply the delta: three-way sorted merge of (prev - removed) + upserts.
  out->clear();
  out->reserve(prev->size() + upserts.size());
  std::size_t r = 0, u = 0;
  for (const auto& entry : *prev) {
    const std::uint64_t k = Codec::key(entry);
    while (u < upserts.size() && Codec::key(upserts[u]) < k) {
      out->push_back(upserts[u++]);
    }
    while (r < removed.size() && removed[r] < k) ++r;
    const bool is_removed = r < removed.size() && removed[r] == k;
    const bool is_upserted = u < upserts.size() && Codec::key(upserts[u]) == k;
    if (is_upserted) {
      out->push_back(upserts[u++]);
    } else if (!is_removed) {
      out->push_back(entry);
    }
  }
  while (u < upserts.size()) out->push_back(upserts[u++]);
  return true;
}

void append_section(std::string& out, SectionKind kind,
                    std::uint32_t epoch_id, std::string_view payload) {
  put_u32(out, kind);
  put_u32(out, epoch_id);
  put_u64(out, payload.size());
  put_u32(out, crc32(payload));
  out += payload;
}

std::string encode_header_payload(const EpochRecord& epoch, bool delta) {
  std::string payload;
  put_u32(payload, delta ? kFlagDelta : 0);
  put_u64(payload, epoch.world_seed);
  put_u64(payload, epoch.options_digest);
  put_u8(payload, epoch.domain_count);
  put_u64(payload, epoch.totals.probes_sent);
  put_u64(payload, epoch.totals.cache_hits);
  put_u64(payload, epoch.totals.slash24_lower);
  put_u64(payload, epoch.totals.slash24_upper);
  return payload;
}

bool decode_header_payload(std::string_view payload, EpochRecord* out,
                           bool* delta, std::string* problem = nullptr) {
  Cursor c(payload);
  const std::uint32_t flags = c.u32();
  out->world_seed = c.u64();
  out->options_digest = c.u64();
  out->domain_count = c.u8();
  out->totals.probes_sent = c.u64();
  out->totals.cache_hits = c.u64();
  out->totals.slash24_lower = c.u64();
  out->totals.slash24_upper = c.u64();
  if (!c.ok || !c.at_end() || (flags & ~kFlagDelta)) {
    if (problem) *problem = "malformed epoch header payload";
    return false;
  }
  *delta = flags & kFlagDelta;
  return true;
}

// ----------------------------------------------------------- parse driver

/// One decoded section frame (payload still raw).
struct Frame {
  SectionKind kind;
  std::uint32_t epoch_id = 0;
  std::string_view payload;
};

/// In-flight epoch assembly state.
struct Pending {
  bool active = false;
  bool delta = false;
  EpochRecord rec;
  bool got_prefixes = false;
  bool got_as = false;
  bool got_countries = false;
  bool damaged = false;  // some section skipped: drop at finalize

  bool complete() const {
    return active && !damaged && got_prefixes && got_as && got_countries;
  }
};

}  // namespace

namespace detail {

void put_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

std::optional<std::uint64_t> get_varint(std::string_view& bytes) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const auto byte = static_cast<unsigned char>(bytes[i]);
    // The 10th byte carries only bit 63, and ends the encoding.
    if (i == 9 && byte > 1) return std::nullopt;
    v |= std::uint64_t(byte & 0x7F) << (7 * i);
    if (!(byte & 0x80)) {
      if (byte == 0 && i > 0) return std::nullopt;  // over-long
      bytes.remove_prefix(i + 1);
      return v;
    }
  }
  return std::nullopt;  // truncated
}

}  // namespace detail

const PrefixEntry* EpochRecord::covering(net::Ipv4Addr addr) const {
  auto it = std::upper_bound(
      prefixes.begin(), prefixes.end(), addr.value(),
      [](std::uint32_t value, const PrefixEntry& e) {
        return value < e.prefix.base().value();
      });
  if (it == prefixes.begin()) return nullptr;
  --it;
  return it->prefix.contains(addr) ? &*it : nullptr;
}

std::string encode(const std::vector<EpochRecord>& epochs) {
  static obs::Counter& epochs_metric =
      obs::Registry::global().counter("snapshot.write.epochs");
  static obs::Counter& bytes_metric =
      obs::Registry::global().counter("snapshot.write.bytes");

  std::string out(kMagic, sizeof(kMagic));
  const EpochRecord* prev = nullptr;
  for (const auto& epoch : epochs) {
    const bool delta = prev != nullptr;
    append_section(out, kEpochHeader, epoch.epoch_id,
                   encode_header_payload(epoch, delta));
    append_section(out, kPrefixes, epoch.epoch_id,
                   encode_keyed<PrefixCodec>(prev ? &prev->prefixes : nullptr,
                                             epoch.prefixes));
    append_section(
        out, kAsAggregates, epoch.epoch_id,
        encode_keyed<AsCodec>(prev ? &prev->as_aggregates : nullptr,
                              epoch.as_aggregates));
    append_section(
        out, kCountries, epoch.epoch_id,
        encode_keyed<CountryCodec>(prev ? &prev->countries : nullptr,
                                   epoch.countries));
    prev = &epoch;
  }
  epochs_metric.add(epochs.size());
  bytes_metric.add(out.size());
  return out;
}

std::string_view section_kind_name(std::uint32_t kind) {
  switch (kind) {
    case kEpochHeader:
      return "epoch_header";
    case kPrefixes:
      return "prefixes";
    case kAsAggregates:
      return "as_aggregates";
    case kCountries:
      return "countries";
    default:
      return "unknown";
  }
}

std::optional<std::vector<SectionInfo>> section_sizes(std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }
  std::vector<SectionInfo> sections;
  std::size_t pos = sizeof(kMagic);
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameBytes) break;
    Cursor frame(bytes.substr(pos, kFrameBytes));
    SectionInfo info;
    info.kind = frame.u32();
    info.epoch_id = frame.u32();
    const std::uint64_t payload_size = frame.u64();
    const std::uint32_t crc = frame.u32();
    if (payload_size > kMaxPayload ||
        payload_size > bytes.size() - pos - kFrameBytes) {
      break;
    }
    info.payload_bytes = payload_size;
    info.crc_ok = crc32(bytes.substr(pos + kFrameBytes, payload_size)) == crc;
    sections.push_back(info);
    pos += kFrameBytes + payload_size;
  }
  return sections;
}

std::optional<SnapshotFile> decode(std::string_view bytes) {
  static obs::Counter& sections_metric =
      obs::Registry::global().counter("snapshot.read.sections");
  static obs::Counter& skipped_metric =
      obs::Registry::global().counter("snapshot.read.sections_skipped");
  static obs::Counter& crc_metric =
      obs::Registry::global().counter("snapshot.read.crc_failures");
  static obs::Counter& epochs_metric =
      obs::Registry::global().counter("snapshot.read.epochs");
  static obs::Counter& epochs_skipped_metric =
      obs::Registry::global().counter("snapshot.read.epochs_skipped");

  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return std::nullopt;
  }

  SnapshotFile out;
  // The delta base: the index in out.epochs of the last complete epoch,
  // unset while the chain is broken (until the next full encoding).
  std::optional<std::size_t> base;
  Pending pending;

  auto finalize = [&] {
    if (!pending.active) return;
    if (pending.complete()) {
      base = out.epochs.size();
      out.epochs.push_back(std::move(pending.rec));
      ++out.stats.epochs_read;
    } else {
      // Partial epochs are dropped whole (section damage is detected per
      // section, but the epoch is the unit of data integrity) and cannot
      // serve as a delta base.
      base.reset();
      ++out.stats.epochs_skipped;
    }
    pending = Pending{};
  };

  std::size_t pos = sizeof(kMagic);
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameBytes) {
      out.stats.truncated = true;
      break;
    }
    Cursor frame(bytes.substr(pos, kFrameBytes));
    const std::uint32_t kind = frame.u32();
    const std::uint32_t epoch_id = frame.u32();
    const std::uint64_t payload_size = frame.u64();
    const std::uint32_t crc = frame.u32();
    if (payload_size > kMaxPayload ||
        payload_size > bytes.size() - pos - kFrameBytes) {
      out.stats.truncated = true;
      break;
    }
    const std::string_view payload =
        bytes.substr(pos + kFrameBytes, payload_size);
    pos += kFrameBytes + payload_size;

    if (crc32(payload) != crc) {
      ++out.stats.crc_failures;
      ++out.stats.sections_skipped;
      if (kind == kEpochHeader) {
        // The epoch's identity is lost; its keyed sections that follow
        // become orphans (skipped below) and the delta chain breaks.
        finalize();
        pending.active = true;
        pending.damaged = true;
        pending.rec.epoch_id = epoch_id;
      } else if (pending.active && pending.rec.epoch_id == epoch_id) {
        pending.damaged = true;
      }
      continue;
    }

    switch (kind) {
      case kEpochHeader: {
        finalize();
        pending.active = true;
        pending.rec.epoch_id = epoch_id;
        if (!decode_header_payload(payload, &pending.rec, &pending.delta)) {
          ++out.stats.sections_skipped;
          pending.damaged = true;
        } else {
          ++out.stats.sections_read;
        }
        break;
      }
      case kPrefixes:
      case kAsAggregates:
      case kCountries: {
        if (!pending.active || pending.rec.epoch_id != epoch_id) {
          ++out.stats.sections_skipped;  // orphan section
          break;
        }
        const EpochRecord* prev =
            pending.delta && base ? &out.epochs[*base] : nullptr;
        bool ok = false;
        if (kind == kPrefixes) {
          ok = decode_keyed<PrefixCodec>(
              payload, prev ? &prev->prefixes : nullptr,
              &pending.rec.prefixes);
          pending.got_prefixes = ok;
        } else if (kind == kAsAggregates) {
          ok = decode_keyed<AsCodec>(
              payload, prev ? &prev->as_aggregates : nullptr,
              &pending.rec.as_aggregates);
          pending.got_as = ok;
        } else {
          ok = decode_keyed<CountryCodec>(
              payload, prev ? &prev->countries : nullptr,
              &pending.rec.countries);
          pending.got_countries = ok;
        }
        if (ok) {
          ++out.stats.sections_read;
        } else {
          ++out.stats.sections_skipped;
          pending.damaged = true;
        }
        break;
      }
      default:
        ++out.stats.sections_skipped;  // unknown kind: forward compatible
        break;
    }
  }
  if (pending.active && !pending.complete()) {
    // Truncation (or damage) mid-epoch: the partial epoch is dropped.
    out.stats.truncated = out.stats.truncated || !pending.damaged;
  }
  finalize();

  sections_metric.add(out.stats.sections_read);
  skipped_metric.add(out.stats.sections_skipped);
  crc_metric.add(out.stats.crc_failures);
  epochs_metric.add(out.stats.epochs_read);
  epochs_skipped_metric.add(out.stats.epochs_skipped);
  return out;
}

std::string validate(std::string_view bytes) {
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return "bad magic (not a netclients.snap.v1 file)";
  }
  auto at = [](std::size_t pos, const std::string& what) {
    std::ostringstream msg;
    msg << what << " at byte " << pos;
    return msg.str();
  };

  EpochRecord prev_rec;
  bool have_prev = false;
  Pending pending;
  bool have_epoch_id = false;
  std::uint32_t last_epoch_id = 0;

  auto finalize = [&]() -> std::string {
    if (!pending.active) return "";
    if (!pending.got_prefixes || !pending.got_as || !pending.got_countries) {
      std::ostringstream msg;
      msg << "epoch " << pending.rec.epoch_id << " is missing a section";
      return msg.str();
    }
    prev_rec = std::move(pending.rec);
    have_prev = true;
    pending = Pending{};
    return "";
  };

  std::size_t pos = sizeof(kMagic);
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameBytes) {
      return at(pos, "truncated section frame");
    }
    Cursor frame(bytes.substr(pos, kFrameBytes));
    const std::uint32_t kind = frame.u32();
    const std::uint32_t epoch_id = frame.u32();
    const std::uint64_t payload_size = frame.u64();
    const std::uint32_t crc = frame.u32();
    if (payload_size > kMaxPayload) {
      return at(pos, "implausible section payload size");
    }
    if (payload_size > bytes.size() - pos - kFrameBytes) {
      return at(pos, "section payload extends past end of file");
    }
    const std::string_view payload =
        bytes.substr(pos + kFrameBytes, payload_size);
    if (crc32(payload) != crc) {
      return at(pos, "section CRC mismatch");
    }

    std::string problem;
    switch (kind) {
      case kEpochHeader: {
        if (std::string p = finalize(); !p.empty()) return p;
        if (have_epoch_id && epoch_id <= last_epoch_id) {
          return at(pos, "epoch ids not strictly increasing");
        }
        last_epoch_id = epoch_id;
        have_epoch_id = true;
        pending.active = true;
        pending.rec.epoch_id = epoch_id;
        if (!decode_header_payload(payload, &pending.rec, &pending.delta,
                                   &problem)) {
          return at(pos, problem);
        }
        if (pending.delta && !have_prev) {
          return at(pos, "delta epoch with no predecessor");
        }
        break;
      }
      case kPrefixes:
      case kAsAggregates:
      case kCountries: {
        if (!pending.active) {
          return at(pos, "keyed section before any epoch header");
        }
        if (pending.rec.epoch_id != epoch_id) {
          return at(pos, "section epoch id does not match its header");
        }
        bool ok;
        if (kind == kPrefixes) {
          ok = decode_keyed<PrefixCodec>(
              payload, pending.delta ? &prev_rec.prefixes : nullptr,
              &pending.rec.prefixes, &problem);
          pending.got_prefixes = ok;
        } else if (kind == kAsAggregates) {
          ok = decode_keyed<AsCodec>(
              payload, pending.delta ? &prev_rec.as_aggregates : nullptr,
              &pending.rec.as_aggregates, &problem);
          pending.got_as = ok;
        } else {
          ok = decode_keyed<CountryCodec>(
              payload, pending.delta ? &prev_rec.countries : nullptr,
              &pending.rec.countries, &problem);
          pending.got_countries = ok;
        }
        if (!ok) return at(pos, problem);
        break;
      }
      default:
        return at(pos, "unknown section kind");
    }
    pos += kFrameBytes + payload_size;
  }
  return finalize();
}

// ---------------------------------------------------------- epoch builders

std::uint64_t options_digest(const CacheProbeOptions& options) {
  const ProbePolicy& policy = options.probe;
  std::uint64_t h = net::stable_hash("cacheprobe.options");
  auto mix_f = [&](double v) {
    h = net::hash_combine(h, std::bit_cast<std::uint64_t>(v));
  };
  auto mix_u = [&](std::uint64_t v) { h = net::hash_combine(h, v); };
  mix_f(options.duration_hours);
  mix_f(options.prefixes_per_second_per_domain);
  mix_u(static_cast<std::uint64_t>(policy.transport));
  mix_u(static_cast<std::uint64_t>(policy.redundant_queries));
  mix_u(static_cast<std::uint64_t>(policy.retry.max_attempts));
  mix_u(static_cast<std::uint64_t>(options.max_loops));
  mix_u(options.calibration_sample_target);
  mix_f(options.calibration_max_error_radius_km);
  mix_f(options.service_radius_percentile);
  mix_f(options.default_service_radius_km);
  mix_u(options.use_max_radius_everywhere ? 1 : 0);
  return h;
}

std::uint64_t options_digest(const ChromiumOptions& options) {
  std::uint64_t h = net::stable_hash("chromium.options");
  auto mix_f = [&](double v) {
    h = net::hash_combine(h, std::bit_cast<std::uint64_t>(v));
  };
  auto mix_u = [&](std::uint64_t v) { h = net::hash_combine(h, v); };
  mix_u(options.daily_collision_threshold);
  mix_f(options.sample_rate);
  mix_f(options.trace_days);
  mix_u(options.sketch_width);
  mix_u(static_cast<std::uint64_t>(options.sketch_depth));
  return h;
}

namespace {

/// Origin AS (real ASN) and country of a /24, from the world's public-data
/// tables (Routeviews-style prefix→AS trie; MaxMind-style geo database).
std::pair<std::uint32_t, std::uint16_t> attribute_slash24(
    const sim::World& world, std::uint32_t slash24_index) {
  std::uint32_t asn = 0;
  const auto match =
      world.prefix2as().longest_match(net::Ipv4Addr(slash24_index << 8));
  if (match) asn = world.ases()[*match->second].asn;
  std::uint16_t country = kNoCountry;
  if (const auto geo = world.geodb().lookup(slash24_index)) {
    country = geo->country;
  }
  return {asn, country};
}

/// Fills as_aggregates/countries from the (already sorted) prefix entries.
void fill_aggregates(EpochRecord* epoch) {
  std::map<std::uint32_t, AsAggregate> by_as;
  std::map<std::uint16_t, CountryAggregate> by_country;
  for (const auto& entry : epoch->prefixes) {
    if (entry.asn != 0) {
      auto& agg = by_as[entry.asn];
      agg.asn = entry.asn;
      agg.volume += entry.volume;
      ++agg.prefixes;
    }
    if (entry.country != kNoCountry) {
      auto& agg = by_country[entry.country];
      agg.country = entry.country;
      agg.volume += entry.volume;
      ++agg.prefixes;
    }
  }
  epoch->as_aggregates.reserve(by_as.size());
  for (const auto& [asn, agg] : by_as) epoch->as_aggregates.push_back(agg);
  epoch->countries.reserve(by_country.size());
  for (const auto& [c, agg] : by_country) epoch->countries.push_back(agg);
}

}  // namespace

EpochRecord make_epoch(const CampaignResult& result, const sim::World& world,
                       std::uint32_t epoch_id,
                       const CacheProbeOptions& options) {
  EpochRecord epoch;
  epoch.epoch_id = epoch_id;
  epoch.world_seed = world.config().seed;
  epoch.options_digest = options_digest(options);
  epoch.domain_count =
      static_cast<std::uint8_t>(result.active_by_domain.size());
  epoch.totals.probes_sent = result.probes_sent;
  epoch.totals.cache_hits = result.hits.size();
  epoch.totals.slash24_lower = result.slash24_lower_bound();
  epoch.totals.slash24_upper = result.slash24_upper_bound();

  epoch.prefixes.reserve(result.active.size());
  result.active.for_each([&](net::Prefix p) {
    PrefixEntry entry;
    entry.prefix = p;
    const auto [asn, country] =
        attribute_slash24(world, p.first_slash24_index());
    entry.asn = asn;
    entry.country = country;
    for (std::size_t d = 0; d < result.active_by_domain.size() && d < 32;
         ++d) {
      if (result.active_by_domain[d].intersects(p)) {
        entry.domain_mask |= 1u << d;
      }
    }
    epoch.prefixes.push_back(entry);
  });

  // Volume: cache hits attributed to the covering active prefix, counted
  // in hit order (integer counts — addition order cannot matter).
  for (const auto& hit : result.hits) {
    const net::Ipv4Addr addr = hit.query_scope.base();
    auto it = std::upper_bound(
        epoch.prefixes.begin(), epoch.prefixes.end(), addr.value(),
        [](std::uint32_t value, const PrefixEntry& e) {
          return value < e.prefix.base().value();
        });
    if (it == epoch.prefixes.begin()) continue;
    --it;
    if (it->prefix.contains(addr)) it->volume += 1.0;
  }

  fill_aggregates(&epoch);
  return epoch;
}

EpochRecord make_epoch(const ChromiumResult& result, const sim::World& world,
                       std::uint32_t epoch_id, std::uint64_t opts_digest) {
  EpochRecord epoch;
  epoch.epoch_id = epoch_id;
  epoch.world_seed = world.config().seed;
  epoch.options_digest = opts_digest;
  epoch.domain_count = 0;
  epoch.totals.probes_sent = result.records_scanned;
  epoch.totals.cache_hits = result.signature_matches;

  // probes_by_resolver iterates in unordered (hash) order; sort by address
  // first so per-/24 volume accumulation is deterministic.
  std::vector<std::pair<std::uint32_t, double>> resolvers(
      result.probes_by_resolver.begin(), result.probes_by_resolver.end());
  std::sort(resolvers.begin(), resolvers.end());
  for (const auto& [addr, count] : resolvers) {
    const std::uint32_t slash24 = addr >> 8;
    if (!epoch.prefixes.empty() &&
        epoch.prefixes.back().prefix.first_slash24_index() == slash24) {
      epoch.prefixes.back().volume += count;
      continue;
    }
    PrefixEntry entry;
    entry.prefix = net::Prefix::from_slash24_index(slash24);
    entry.volume = count;
    const auto [asn, country] = attribute_slash24(world, slash24);
    entry.asn = asn;
    entry.country = country;
    epoch.prefixes.push_back(entry);
  }
  epoch.totals.slash24_lower = epoch.prefixes.size();
  epoch.totals.slash24_upper = epoch.prefixes.size();

  fill_aggregates(&epoch);
  return epoch;
}

// -------------------------------------------------------------- file layer

bool write(const std::string& path, const std::vector<EpochRecord>& epochs) {
  const std::string bytes = encode(epochs);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (out) {
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();  // flushes the buffered tail; a failed flush fails here
  }
  if (!out) {
    std::fprintf(stderr, "snapshot: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

namespace {
std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}
}  // namespace

std::optional<SnapshotFile> read(const std::string& path) {
  const auto bytes = slurp(path);
  if (!bytes) return std::nullopt;
  return decode(*bytes);
}

std::string validate_file(const std::string& path) {
  const auto bytes = slurp(path);
  if (!bytes) return "cannot open " + path;
  return validate(*bytes);
}

}  // namespace netclients::core::snapshot
