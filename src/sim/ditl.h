#pragma once

#include <cstdint>
#include <functional>

#include "roots/root_server.h"
#include "roots/trace.h"
#include "sim/world.h"

namespace netclients::sim {

/// Parameters of one simulated DITL collection.
struct DitlOptions {
  double days = 2.0;  // the real DITL captures ~48 hours
  /// Uniform downsampling applied at generation. The real collection keeps
  /// every packet but is processed on DNS-OARC infrastructure; sampling
  /// lets laptop-scale runs keep the same code path. Counts reported by
  /// the pipeline are scaled back by 1/sample_rate (see
  /// core::ChromiumOptions::sample_rate).
  double sample_rate = 1.0;
  std::uint64_t seed = 0xD17Lu;

  // Background (non-Chromium) traffic knobs.
  double typo_queries_per_user_per_day = 0.04;   // dictionary words, no TLD
  double legit_tld_queries_per_user_per_day = 0.25;  // priming/NS refresh
  int dga_families = 24;       // malware families emitting random names
  double dga_queries_per_name = 400;  // each DGA name queried by many hosts
};

struct DitlStats {
  std::uint64_t chromium_probes = 0;  // emitted signature probes (sampled)
  std::uint64_t background = 0;       // emitted non-Chromium records
  std::uint64_t suppressed = 0;       // generated on non-usable letters
};

/// Streams the captured queries of the usable DITL root letters to `sink`,
/// in a fixed order: signature probes source by source, then typo junk,
/// legitimate TLD queries and DGA names. Corpus member boundaries, NCP1
/// query ids and so every corpus byte depend on that order. Sources are:
///   * Chromium interception probes (3 random 7-15 lowercase labels per
///     browser start / network change [35]) from every resolver endpoint,
///     every recursing block-level forwarder, and Google's per-PoP egress;
///   * dictionary "typo" junk (repeated single labels — filtered out by
///     the pipeline's collision threshold);
///   * DGA malware names (random-looking but heavily repeated);
///   * legitimate TLD queries (carry a TLD, never match the signature);
///   * signature-shaped junk from `junk_emitter` hosts (IoT checks,
///     headless browsers) — the false-ish positives that make DNS logs
///     see /24s the CDN resolver view never does.
///
/// Each record's root letter is chosen before its name is built (one
/// `RootSystem::letter_preference` per source, then one pick per query).
/// A record whose letter is not usable is only counted in `suppressed`:
/// it builds nothing and advances its source's RNG by exactly the draws
/// its name would have used, so every captured record is the one a
/// generator building all names would emit.
///
/// Deterministic for a given (world, options): re-invoking replays the
/// identical stream. Callers write it once into a `roots::CorpusWriter`
/// and scan the corpus.
DitlStats generate_ditl(
    const World& world, const roots::RootSystem& roots,
    const DitlOptions& options,
    const std::function<void(const roots::TraceRecord&)>& sink);

/// Ground truth for pipeline validation: expected Chromium probes per day
/// (unsampled) attributable to each resolver source address.
std::unordered_map<std::uint32_t, double> chromium_ground_truth(
    const World& world);

}  // namespace netclients::sim
