#pragma once

// The per-PoP cache prober the calibration and campaign stages drive.
//
// A prober runs redundancy chains: `redundancy` attempts against each of
// a plan's domains, stopping at the first cache hit, repeated loop by
// loop while the chain stays un-hit. One `run` call resolves a batch of
// chains in canonical (loop, submission) order: loop 0 of every chain in
// submission order, then loop 1 of every chain still un-hit, and so on.
// Decisions must follow one fixed order because oracle calls against
// GooglePublicDns are order-sensitive (per-flow token buckets) and the
// circuit breaker is sequential state (see DESIGN.md "Probe engine").
// Each (chain, domain) pair is resolved into a GooglePublicDns probe target
// once, from the upstream scope its chain carries, and every attempt,
// retry and loop probes that target. All prober state is confined to one
// PoP shard, so REPRO_THREADS determinism is inherited from the per-PoP
// fan-out.

#include <cstdint>
#include <span>
#include <vector>

#include "anycast/pop.h"
#include "core/resilience/resilience.h"
#include "googledns/google_dns.h"
#include "net/prefix.h"
#include "sim/domains.h"

namespace netclients::core::engine {

/// What every chain of one `Prober::run` call shares.
struct ChainPlan {
  /// Domains tried in order until one hits (calibration walks the four
  /// Alexa domains; the campaign runs one call per domain).
  std::vector<int> domain_indices;
  int redundancy = 1;
  /// Gap between redundancy attempts on the oracle clock (the campaign's
  /// back-to-back 2 ms; calibration probes all attempts at one timestamp).
  double attempt_spacing_seconds = 0;
  /// Attempt-id stride per loop (the campaign's `loop * 131 + attempt`).
  int attempt_loop_stride = 0;
  /// Loops a chain may run while un-hit (calibration runs one).
  int max_loops = 1;
  double loop_stride_seconds = 0;
};

/// One redundancy chain for a single query scope. Loop `L` runs at
/// `schedule_time + L * loop_stride_seconds` on the oracle clock.
struct Chain {
  net::Prefix scope;
  double schedule_time = 0;
  /// The upstream's scope for `scope` under each plan domain, in
  /// `domain_indices` order. Owned by the stage, which fills its
  /// PoP-independent table before the per-PoP fan-out.
  const googledns::UpstreamScope* upstream = nullptr;
};

/// How a chain resolved: at its first hit, or when the loop budget ran out.
struct ProbeOutcome {
  bool hit = false;
  std::uint8_t return_scope = 0;  // valid when hit
  /// Loop index of the resolving evaluation.
  int loop = 0;
  /// Schedule time of the resolving evaluation — the `when` a CacheHit
  /// records.
  double when = 0;
  /// Rate-limited attempts across every loop of this chain.
  std::uint64_t rate_limited = 0;
};

/// Everything a prober needs about its PoP shard.
struct ProberContext {
  googledns::GooglePublicDns* dns = nullptr;
  const std::vector<sim::DomainInfo>* domains = nullptr;
  anycast::PopId pop = anycast::kNoPop;
  int vp_id = 0;
  googledns::Transport transport = googledns::Transport::kTcp;
  resilience::RetryPolicy retry;
  resilience::BreakerPolicy breaker;
};

/// Runs chains through the retry/timeout/breaker policy. The breaker and
/// the UDP→TCP escalation persist across `run` calls: the campaign makes
/// one call per domain, and a later domain's chains see the state the
/// earlier ones left.
class Prober {
 public:
  explicit Prober(const ProberContext& context);

  /// Resolves `chains` in (loop, submission) order; the outcomes are
  /// index-aligned with `chains`.
  std::vector<ProbeOutcome> run(const ChainPlan& plan,
                                std::span<const Chain> chains);

  /// Shard resilience tallies with the breaker's trips and refusals
  /// folded in.
  resilience::RetryStats stats() const;
  std::uint64_t probes_sent() const { return probes_sent_; }
  /// Chain evaluations, one per (chain, loop), breaker refusals included.
  std::uint64_t evaluations() const { return evaluations_; }

 private:
  struct Evaluation {
    bool hit = false;
    std::uint8_t return_scope = 0;
    std::uint64_t rate_limited = 0;
    bool hard_failure = false;
  };

  Evaluation evaluate(const ChainPlan& plan, const Chain& chain,
                      googledns::ProbeTarget* targets, int loop, double t);
  googledns::ProbeResult probe_with_retries(
      const googledns::ProbeTarget& target, double t, int attempt_id);
  void note_soft_failure();

  ProberContext context_;
  resilience::CircuitBreaker breaker_;
  googledns::Transport transport_;
  int consecutive_soft_failures_ = 0;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t evaluations_ = 0;
  resilience::RetryStats stats_;
  /// Each (chain, plan domain)'s target, built on the chain's first
  /// evaluation that reaches the domain and reused across attempts,
  /// retries and loops; a null `domain` marks one not built yet. Owned
  /// across `run` calls so each call reuses the storage.
  std::vector<googledns::ProbeTarget> targets_;
};

}  // namespace netclients::core::engine
