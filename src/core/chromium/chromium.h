#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "core/datasets/datasets.h"
#include "dns/name.h"
#include "roots/trace.h"

namespace netclients::roots {
class CorpusView;
}  // namespace netclients::roots

namespace netclients::core::exec {
struct StealTelemetry;
}  // namespace netclients::core::exec

namespace netclients::core {

/// The Chromium DNS-interception-probe signature (§3.2.1): a single label
/// of 7–15 lowercase ASCII letters, no TLD.
bool matches_chromium_signature(const dns::DnsName& name);

/// Byte-wise fast path over a single label's raw bytes, for the zero-copy
/// scan: length 7–15 plus one 256-entry table lookup per byte instead of
/// the per-char compare chain. The caller has already established the name
/// is single-label. Accepts ASCII letters of either case — canonical
/// DnsName labels are always lowercase, but raw trace bytes need not be,
/// and materializing lowercases them — so the two matchers agree on every
/// input. `matches_chromium_signature` routes through this predicate; it
/// is the single source of truth for the label shape.
bool matches_chromium_signature_bytes(std::string_view label);

struct ChromiumOptions {
  /// Per-day occurrence threshold: names queried at least this often
  /// across all usable roots are considered colliding/manufactured, not
  /// Chromium (the paper's empirical simulation found random Chromium
  /// names collide fewer than 7 times per day w.p. 99%).
  std::uint32_t daily_collision_threshold = 7;
  /// Downsampling applied when the trace was generated; counts are scaled
  /// back by 1/sample_rate, and the collision threshold scales with it
  /// (a name sampled k times at rate s was queried ~k/s times in full).
  double sample_rate = 1.0;
  /// No longer affects anything: the scan counts names exactly and draws
  /// no randomness. Kept only because perfbench still sets it.
  std::uint64_t seed = 0xC520;

  /// Parallelism degree for the chunked trace scan. 0 = exec::thread_count()
  /// (the REPRO_THREADS env var); 1 = serial. Same trace ⇒ identical
  /// counts for every value.
  int threads = 0;
  /// Records per scan shard. Fixed (never derived from the thread count)
  /// so the chunk partition — and the chunk-ordered merge — is identical
  /// for every REPRO_THREADS value.
  std::size_t chunk_records = 1 << 15;
};

struct ChromiumResult {
  /// resolver source address → Chromium probe count, scaled to the full
  /// (unsampled) trace.
  std::unordered_map<std::uint32_t, double> probes_by_resolver;

  std::uint64_t records_scanned = 0;
  std::uint64_t signature_matches = 0;
  std::uint64_t rejected_collisions = 0;
  /// Trace records declared by a member's header (or by the manifest, for
  /// an unreadable member) but not scannable: skip-and-count, never crash.
  std::uint64_t records_skipped = 0;

  /// Aggregates resolvers by /24 into a dataset (volume = probe count).
  PrefixDataset to_prefix_dataset(std::string name) const;
};

/// The paper's second technique: counting Chromium interception probes in
/// root DITL traces, per recursive resolver.
///
/// DITL-scale traces cannot be materialized, so the counter scans a
/// `roots::CorpusView` in place: the capture files a DITL collection
/// arrives as, each mapped zero-copy. A lone trace file is a one-member
/// corpus. Each match's (name, day) key is counted exactly, in 4 bytes
/// per match: pass 1 sorts each chunk's 32-bit key fingerprints, a count
/// phase keeps the fingerprints seen at least the threshold times, and
/// pass 2 attributes every other match to its source address. The few
/// matches with a repeated fingerprint are candidates whose full keys are
/// counted at the merge; a key never occurs more often than its
/// fingerprint, so the result is exact.
///
/// Both passes shard the corpus into fixed-size record chunks processed in
/// parallel, and the count into fixed fingerprint ranges; every step is a
/// sort or an integer sum over per-shard results merged in shard order,
/// with no shared mutable state — so counts are identical for every
/// thread count.
class ChromiumCounter {
 public:
  explicit ChromiumCounter(ChromiumOptions options = {})
      : options_(options) {}

  /// The scan over a corpus. Member files are partitioned in parallel
  /// (one boundary walk each, which validates the framing and counts a
  /// damaged tail into records_skipped), the resulting (file, chunk)
  /// tasks — in canonical ascending order — are executed by the
  /// work-stealing scheduler (`exec::steal_map`), and per-task partials
  /// are merged back in that canonical order. The result depends on the
  /// records alone, not on how they are split into members, at any
  /// REPRO_THREADS and any steal interleaving: determinism comes from
  /// merge order, not execution order. NCD1 and NCP1 members may be
  /// mixed; an NCP1 packet that does not parse is a scanned non-match.
  /// Unreadable members were already counted by CorpusView::open; their
  /// declared records land in records_skipped. `telemetry`, when
  /// non-null, receives the summed steal telemetry of both passes (for
  /// the bench's steal-ratio gauge).
  ChromiumResult process_corpus(const roots::CorpusView& corpus,
                                exec::StealTelemetry* telemetry
                                  = nullptr) const;

  const ChromiumOptions& options() const { return options_; }

 private:
  ChromiumOptions options_;
};

/// Monte-Carlo + analytic collision study backing the threshold choice
/// (§3.2.1): with `daily_queries` random signature names per day, the
/// probability that any given name is seen >= `threshold` times.
struct CollisionStudy {
  double expected_per_name = 0;      // mean occurrences of a specific name
  double p_name_below_threshold = 0; // P(one name's count < threshold)
  double observed_p_below = 0;       // Monte-Carlo check
};
CollisionStudy study_collisions(double daily_queries,
                                std::uint32_t threshold,
                                std::uint64_t monte_carlo_names,
                                std::uint64_t seed);

}  // namespace netclients::core
