#pragma once

// Snapshot store for campaign epochs: the `netclients.snap.v1` on-disk
// format. A campaign (or Chromium scan) run is a one-shot process; the
// paper's end product is a *dataset* — which prefixes/ASes host clients —
// and §6 points at longitudinal use. A snapshot file persists a sequence
// of epochs so that dataset survives the process and can be served,
// diffed, and aged (src/core/serve).
//
// File layout (all integers little-endian):
//
//   magic "NCSNAPV1" (8 bytes)
//   Section*
//
//   Section := u32 kind | u32 epoch_id | u64 payload_size
//            | u32 crc32(payload) | payload
//
// Section kinds per epoch (an epoch = header section + keyed sections
// sharing its epoch_id, in file order):
//
//   kEpochHeader   provenance (world seed, options digest), flags,
//                  campaign totals, domain count
//   kPrefixes      keyed by (base << 8 | length): the disjoint active
//                  prefixes with volume / origin AS / country / domain
//                  hit mask
//   kAsAggregates  keyed by ASN: per-AS volume + prefix count
//   kCountries     keyed by country index: per-country volume + count
//
// Keyed-section payload:
//
//   u8 encoding (0 = full, 1 = delta vs the previous epoch)
//   varint removed_count, removed keys (ascending, delta-varint)
//   varint upsert_count, upserts (ascending key delta-varint + value)
//
// Epoch 0 is always full; subsequent epochs are delta-encoded against
// their predecessor (consecutive epochs of the same campaign share most
// of their active set, so deltas are small). Values use fixed 8-byte
// IEEE doubles and LEB128 varints, so identical epochs serialise to
// identical bytes — the determinism tests compare encodings produced at
// different REPRO_THREADS values byte for byte.
//
// The reader is *tolerant*, like roots::TraceView's skip-and-count walk:
// a section whose CRC or structure is damaged is skipped and counted,
// never fatal; truncation mid-section keeps everything before it;
// declared counts are clamped against the bytes actually present before
// any reserve. Damage to an epoch a later delta chains from marks the
// dependent epochs skipped (the chain cannot be reconstructed). decode()
// fails outright only when the magic itself is wrong. `validate()` is
// the strict complement CI gates artifacts with: any framing, CRC, or
// chain problem is reported, not tolerated.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/cacheprobe/cacheprobe.h"
#include "core/chromium/chromium.h"
#include "net/prefix.h"
#include "sim/world.h"

namespace netclients::core::snapshot {

inline constexpr std::string_view kSchemaName = "netclients.snap.v1";
inline constexpr char kMagic[8] = {'N', 'C', 'S', 'N', 'A', 'P', 'V', '1'};

/// Country index marking "geolocation unavailable" (index 0 is a real
/// country in the world's table).
inline constexpr std::uint16_t kNoCountry = 0xFFFF;

/// One disjoint active prefix with everything the serving layer needs.
struct PrefixEntry {
  net::Prefix prefix;
  /// Observed activity volume: cache hits attributed to the prefix
  /// (campaign epochs) or scaled Chromium probe count (DNS-log epochs).
  double volume = 0;
  std::uint32_t asn = 0;  // longest-match origin AS; 0 = unrouted
  std::uint16_t country = kNoCountry;
  /// Bit d set when domain d's probing hit this prefix.
  std::uint32_t domain_mask = 0;

  friend bool operator==(const PrefixEntry&, const PrefixEntry&) = default;
};

struct AsAggregate {
  std::uint32_t asn = 0;
  double volume = 0;
  std::uint32_t prefixes = 0;

  friend bool operator==(const AsAggregate&, const AsAggregate&) = default;
};

struct CountryAggregate {
  std::uint16_t country = kNoCountry;
  double volume = 0;
  std::uint32_t prefixes = 0;

  friend bool operator==(const CountryAggregate&,
                         const CountryAggregate&) = default;
};

struct EpochTotals {
  std::uint64_t probes_sent = 0;
  std::uint64_t cache_hits = 0;
  /// The paper's §4 bounds on active /24s for this epoch.
  std::uint64_t slash24_lower = 0;
  std::uint64_t slash24_upper = 0;

  friend bool operator==(const EpochTotals&, const EpochTotals&) = default;
};

/// One persisted campaign epoch: the inferred active set plus provenance.
struct EpochRecord {
  std::uint32_t epoch_id = 0;
  std::uint64_t world_seed = 0;
  std::uint64_t options_digest = 0;
  std::uint8_t domain_count = 0;

  std::vector<PrefixEntry> prefixes;        // sorted by prefix, disjoint
  std::vector<AsAggregate> as_aggregates;   // sorted by asn
  std::vector<CountryAggregate> countries;  // sorted by country
  EpochTotals totals;

  /// The entry covering `addr`, or nullptr (binary search; entries are
  /// disjoint, so at most one can cover any address).
  const PrefixEntry* covering(net::Ipv4Addr addr) const;

  friend bool operator==(const EpochRecord&, const EpochRecord&) = default;
};

/// Stable digest of the campaign-shaping option fields (the probe seed is
/// excluded: epochs of one series intentionally vary it). Same options ⇒
/// same digest across runs and platforms.
std::uint64_t options_digest(const CacheProbeOptions& options);
std::uint64_t options_digest(const ChromiumOptions& options);

/// Builds an epoch from a completed cache-probing campaign. `world`
/// supplies only its public-data tables (the Routeviews-style prefix→AS
/// trie, the MaxMind-style geo database, and the generation seed as
/// provenance) — never ground truth.
EpochRecord make_epoch(const CampaignResult& result, const sim::World& world,
                       std::uint32_t epoch_id,
                       const CacheProbeOptions& options);

/// Builds an epoch from a Chromium DNS-log scan (per-resolver /24s with
/// scaled probe counts).
EpochRecord make_epoch(const ChromiumResult& result, const sim::World& world,
                       std::uint32_t epoch_id, std::uint64_t opts_digest);

struct ReadStats {
  std::uint64_t sections_read = 0;
  std::uint64_t sections_skipped = 0;  // bad CRC or unparseable payload
  std::uint64_t crc_failures = 0;
  std::uint64_t epochs_read = 0;
  std::uint64_t epochs_skipped = 0;  // header lost, or delta chain broken
  bool truncated = false;            // stream ended mid-section

  friend bool operator==(const ReadStats&, const ReadStats&) = default;
};

struct SnapshotFile {
  std::vector<EpochRecord> epochs;
  ReadStats stats;
};

/// Per-section framing facts surfaced by section_sizes(): enough to render
/// a footprint breakdown (`snapctl inspect`) without decoding payloads.
struct SectionInfo {
  std::uint32_t kind = 0;
  std::uint32_t epoch_id = 0;
  std::uint64_t payload_bytes = 0;  // payload only; the frame adds 20 bytes
  bool crc_ok = true;

  friend bool operator==(const SectionInfo&, const SectionInfo&) = default;
};

/// Stable display name for a section kind ("epoch_header", "prefixes",
/// "as_aggregates", "countries", or "unknown").
std::string_view section_kind_name(std::uint32_t kind);

/// Walks the section frames of a v1 snapshot without decoding payloads,
/// returning one entry per well-framed section in file order. Tolerant the
/// same way decode() is — stops at truncation, flags bad CRCs — and
/// returns nullopt only when the magic is wrong.
std::optional<std::vector<SectionInfo>> section_sizes(std::string_view bytes);

/// Serialises epochs to the v1 wire bytes (epoch 0 full, the rest
/// delta-encoded against their predecessor). Deterministic: equal inputs
/// encode to equal bytes.
std::string encode(const std::vector<EpochRecord>& epochs);

/// Tolerant decode (see the header comment for the contract). Returns
/// nullopt only when `bytes` does not start with the v1 magic.
std::optional<SnapshotFile> decode(std::string_view bytes);

/// Strict structural validation: magic, section framing, CRCs, payload
/// grammar, delta-chain integrity. Empty string when the bytes are a
/// well-formed v1 snapshot, else a description of the first problem.
std::string validate(std::string_view bytes);

namespace detail {

/// The LEB128 u64 codec of the keyed-section payloads. `get_varint` reads
/// one value from the front of `bytes` and advances past it; it returns
/// nullopt for a truncated encoding, one that overflows 64 bits (a 10th
/// byte above 1), or an over-long one (a zero final byte after a
/// continuation, e.g. 0x80 0x00) — every value has exactly one accepted
/// encoding, the one put_varint writes.
void put_varint(std::string& out, std::uint64_t v);
std::optional<std::uint64_t> get_varint(std::string_view& bytes);

}  // namespace detail

/// File wrappers. `write` returns false (after printing to stderr) when
/// the file cannot be written; `read` additionally returns nullopt when
/// the file cannot be opened; `validate_file` reports open failures as
/// validation problems.
bool write(const std::string& path, const std::vector<EpochRecord>& epochs);
std::optional<SnapshotFile> read(const std::string& path);
std::string validate_file(const std::string& path);

}  // namespace netclients::core::snapshot
