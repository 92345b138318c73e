#pragma once

// Mixed-workload driver for the serving tier: replays millions of
// simulated users against a `serve::Service` — with zipf query skew
// (heavy networks and heavy users dominate, net::ZipfSampler) and bursty
// batch arrivals following the sim layer's diurnal shape
// `1 + A·cos(ω(t − peak))` (sim/activity.cc, WorldConfig::
// diurnal_amplitude / diurnal_peak_local_hour) — while a single publisher
// rolls new epochs in between the reader batches.
//
// `replay` is the deterministic schedule: reader batches are issued
// strictly *between* publishes. Results (and the returned digest) are a
// pure function of (epoch sets, workload options, publish cadence) —
// byte-identical at any REPRO_THREADS, and elementwise identical to
// running the same epoch sets through `ClientIndex` directly. This is
// the serving tier's determinism contract, and what test_serve pins.

#include <cstdint>
#include <span>
#include <vector>

#include "core/serve/service.h"
#include "core/snapshot/snapshot.h"
#include "net/ipv4.h"

namespace netclients::core::serve {

struct WorkloadOptions {
  /// Simulated client population. Each user gets a home address inside
  /// an active prefix chosen by zipf rank over prefix volume (or a
  /// uniform background address, see miss_fraction).
  std::size_t users = 1 << 20;
  /// Total lookups in the generated stream.
  std::size_t queries = 1 << 20;
  /// Mean queries per batch (one acquire + one lookup_many per batch).
  std::size_t batch = 256;
  /// Zipf exponent of per-user query skew (1.0 ≈ classic web skew).
  double user_zipf = 1.0;
  /// Zipf exponent ranking active prefixes by volume for user homes.
  double prefix_zipf = 1.0;
  /// Fraction of users whose home address is uniform background traffic
  /// (mostly misses) instead of inside the active set.
  double miss_fraction = 0.25;
  /// Diurnal burst model for batch sizes: batch sizes swing by
  /// ±amplitude around `batch` over a simulated day.
  double burst_amplitude = 0.6;
  /// Batches per simulated day (the ω of the diurnal cosine).
  double batches_per_day = 4096;
  /// Peak local hour of the burst cycle (matches WorldConfig's default).
  double burst_peak_hour = 20.0;
  std::uint64_t seed = 0x5EEDF00DULL;
};

/// Outcome of the deterministic interleaving-free schedule.
struct ReplayResult {
  /// Order-dependent digest over every (version, lookup result) in query
  /// order — byte-identical at any REPRO_THREADS.
  std::uint64_t digest = 0;
  std::uint64_t queries = 0;
  std::uint64_t hits = 0;
  std::uint64_t publishes = 0;
  std::uint64_t final_version = 0;

  friend bool operator==(const ReplayResult&, const ReplayResult&) = default;
};

class WorkloadDriver {
 public:
  /// Generates the full query stream up front (deterministic in
  /// (options, epochs)): user home addresses from the union of
  /// `epochs`' active prefixes, then
  /// `options.queries` zipf-skewed lookups cut into diurnal-bursty
  /// batches.
  WorkloadDriver(WorkloadOptions options,
                 std::span<const snapshot::EpochRecord> epochs);

  std::size_t query_count() const { return queries_.size(); }
  std::size_t batch_count() const { return offsets_.size() - 1; }
  std::size_t max_batch() const { return max_batch_; }
  std::span<const net::Ipv4Addr> batch(std::size_t b) const {
    return std::span<const net::Ipv4Addr>(queries_)
        .subspan(offsets_[b], offsets_[b + 1] - offsets_[b]);
  }

  /// Deterministic schedule: batches run in order; after every
  /// `publish_every` batches (0 = never) the next epoch of `publishes`
  /// is published — strictly between batches, never concurrently.
  /// `lookup_threads` is the intra-batch parallelism (<= 0 =
  /// REPRO_THREADS); the digest is identical for every value.
  ReplayResult replay(Service& service,
                      std::span<const snapshot::EpochRecord> publishes,
                      std::size_t publish_every, int lookup_threads = 0) const;

 private:
  WorkloadOptions options_;
  std::vector<net::Ipv4Addr> queries_;
  std::vector<std::size_t> offsets_;  // batch b = [offsets_[b], offsets_[b+1])
  std::size_t max_batch_ = 0;
};

}  // namespace netclients::core::serve
