#pragma once

// Client-activity serving layer: an immutable in-memory index built from
// persisted campaign epochs (src/core/snapshot) that answers "does this
// address sit in a network with client activity, and how much" at high
// QPS, plus churn analytics between epochs.
//
// One lookup code path, two entry shapes:
//
//  * `lookup_many` — THE serving path (span-style core): queries are
//    processed in fixed-size chunks (optionally in parallel via
//    core/exec) against a direct-mapped /24 slot table built by
//    projecting the prefix set to disjoint intervals (LPM projection)
//    and paging those intervals into one uint32 slot per /24. A query is
//    one array read; only slots with sub-/24 structure fall back to a
//    binary search of the interval table.
//  * `lookup` — the single-query convenience: a count-1 call through the
//    same chunk kernel (same slot table, same hit metrics), so per-call
//    metrics and answers cannot drift from the batched path.
//  * `lookup_reference` — the independent oracle: longest-prefix match
//    through the src/net radix trie, kept solely so tests and benches
//    can cross-check the slot table against a structurally different
//    implementation. The trie is built on the first call, never by
//    `build`: a publish pays only for the structures that serve.
//
// Determinism contract (the repo-wide rule): results are a pure function
// of (index contents, query list). Chunk boundaries depend only on the
// query count, each chunk's answers are written into its own output
// range, and the slot table answers exactly what the trie answers — so
// `lookup_many` output is byte-identical at any REPRO_THREADS, and
// identical to calling `lookup` (or `lookup_reference`) per query.
//
// `ClientIndex` is the *internal build artifact* of the serving tier:
// consumers outside src/core/serve reach it through `serve::Service`
// snapshot handles (service.h), never by constructing one directly.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/snapshot/snapshot.h"
#include "net/ipv4.h"
#include "net/prefix.h"
#include "net/prefix_trie.h"

namespace netclients::core::serve {

/// Answer for one address.
struct LookupResult {
  bool active = false;
  net::Prefix prefix;  // the matched (most specific) active prefix
  double volume = 0;
  std::uint32_t asn = 0;
  std::uint16_t country = snapshot::kNoCountry;
  std::uint32_t domain_mask = 0;

  friend bool operator==(const LookupResult&, const LookupResult&) = default;
};

/// Immutable serving index over one or more snapshot epochs.
///
/// When several epochs are given, their active sets are unioned: volumes
/// of a prefix present in multiple epochs are summed and domain masks
/// OR-ed (serving the longitudinal union, Trufflehunter-style); epochs
/// contribute in epoch order, so the merge is deterministic. Overlapping
/// prefixes from different epochs keep longest-prefix-match semantics.
class ClientIndex {
 public:
  /// Queries per lookup_many chunk. Fixed (never derived from the thread
  /// count) so the partition — and therefore the output — is identical
  /// for every REPRO_THREADS value.
  static constexpr std::size_t kChunkQueries = std::size_t{1} << 16;

  /// Builds the index from a contiguous run of epochs (a std::vector
  /// converts implicitly), never copying the epoch set: each epoch's
  /// prefix list is one sorted run (an unsorted one is sorted on a copy
  /// first), and the runs merge straight into the entry table.
  static ClientIndex build(std::span<const snapshot::EpochRecord> epochs);

  /// Single-query convenience: a count-1 pass through the same chunk
  /// kernel as `lookup_many` (shared slot table and hit metrics).
  LookupResult lookup(net::Ipv4Addr addr) const;

  /// Oracle path: longest-prefix match via the radix trie. Structurally
  /// independent of the slot table — determinism tests and benches assert
  /// it agrees with `lookup`/`lookup_many` answer for answer. The first
  /// call on an index builds the trie (about 0.3 s at 1M prefixes);
  /// concurrent first calls are safe.
  LookupResult lookup_reference(net::Ipv4Addr addr) const;

  /// THE batched entry point: writes one result per query into `out`
  /// (which must hold `addrs.size()` slots), in query order. The
  /// steady-state serving path — callers reuse the output buffer across
  /// batches. `threads <= 0` means exec::thread_count() (the
  /// REPRO_THREADS env var); 1 is serial.
  void lookup_many(std::span<const net::Ipv4Addr> addrs, LookupResult* out,
                   int threads = 0) const;

  /// Thin allocating convenience over the span core: one result per
  /// query, in query order.
  std::vector<LookupResult> lookup_many(std::span<const net::Ipv4Addr> addrs,
                                        int threads = 0) const;

  // Aggregate views (keyed lookups are binary search).
  double as_volume(std::uint32_t asn) const;
  double country_volume(std::uint16_t country) const;
  const std::vector<snapshot::AsAggregate>& as_aggregates() const {
    return as_;
  }
  const std::vector<snapshot::CountryAggregate>& country_aggregates() const {
    return countries_;
  }
  /// The `n` highest-volume ASes, volume-descending (ties by ASN).
  std::vector<snapshot::AsAggregate> top_as(std::size_t n) const;

  std::size_t prefix_count() const { return entries_.size(); }
  std::size_t epoch_count() const { return epoch_count_; }
  double total_volume() const { return total_volume_; }
  /// Size of the flat LPM-projected interval table (diagnostics/bench).
  std::size_t interval_count() const { return flat_.size(); }

 private:
  /// One disjoint address range [begin, last] answered by entries_[entry]
  /// — the LPM projection of the (possibly nested) prefix set.
  struct Interval {
    std::uint32_t begin = 0;
    std::uint32_t last = 0;  // inclusive: avoids overflow at 255.255.255.255
    std::uint32_t entry = 0;
  };

  /// Slot values for the direct-mapped /24 table: an index into canned_
  /// (0 = the miss result, k+1 = entries_[k]'s result) or the mixed
  /// sentinel. Canned indices stay far below the sentinel.
  static constexpr std::uint32_t kEmptySlot = 0;            // canned_[0]
  static constexpr std::uint32_t kMixedSlot = 0xFFFFFFFEu;  // sub-/24 detail

  void lookup_chunk(const net::Ipv4Addr* addrs, std::size_t count,
                    LookupResult* out) const;

  /// lookup_reference's trie (prefix -> entries_ index), filled on its
  /// first call. On the heap so that the index stays movable.
  struct Oracle {
    std::once_flag built;
    net::PrefixTrie<std::uint32_t> trie;
  };

  std::vector<snapshot::PrefixEntry> entries_;  // merged, prefix-sorted
  std::unique_ptr<Oracle> oracle_ = std::make_unique<Oracle>();
  std::vector<Interval> flat_;                  // sorted, disjoint
  /// Direct map: slots_[s - slot_base_] answers /24 index s. Holds the
  /// canned_ index when the whole /24 has one answer (including "none":
  /// kEmptySlot), or kMixedSlot when the /24 has sub-/24 structure
  /// (resolved by binary search of flat_).
  std::vector<std::uint32_t> slots_;
  std::uint32_t slot_base_ = 0;  // /24 index of slots_[0]
  /// canned_[0] is the miss result; canned_[k + 1] == the LookupResult
  /// for entries_[k]. Lets the batched loop answer every query with one
  /// unconditional 32-byte copy.
  std::vector<LookupResult> canned_;
  std::vector<snapshot::AsAggregate> as_;       // sorted by asn
  std::vector<snapshot::CountryAggregate> countries_;  // sorted by country
  std::size_t epoch_count_ = 0;
  double total_volume_ = 0;
};

/// Churn between two epochs (§6's longitudinal view): which prefixes
/// appeared, which aged out, and how much the activity ranking moved.
/// Prefixes match on exact (base, length) equality; a prefix whose scope
/// changed between epochs counts as lost + gained.
struct EpochDiff {
  std::uint32_t from_epoch = 0;
  std::uint32_t to_epoch = 0;

  std::vector<net::Prefix> gained;  // in `to` only, address order
  std::vector<net::Prefix> lost;    // in `from` only, address order
  std::uint64_t persisting = 0;

  double volume_from = 0;
  double volume_to = 0;
  double gained_volume = 0;  // volume of gained prefixes (in `to`)
  double lost_volume = 0;    // volume of lost prefixes (in `from`)

  /// Rank drift over persisting prefixes: each epoch ranks its prefixes
  /// by volume descending (ties by prefix order — the same ordering
  /// core/rank's estimated_rate sort would induce on equal estimates);
  /// `mean_rank_drift` is the mean |rank_from − rank_to|, and
  /// `normalized_rank_drift` divides by the largest possible displacement
  /// (0 = stable ranking, → 1 = fully reshuffled).
  double mean_rank_drift = 0;
  double normalized_rank_drift = 0;
};

EpochDiff diff_epochs(const snapshot::EpochRecord& from,
                      const snapshot::EpochRecord& to);

}  // namespace netclients::core::serve
