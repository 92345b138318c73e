#pragma once

// Deterministic, virtual-time, event-driven probe engine.
//
// The paper's campaign fans out across 22 PoPs, but inside one PoP a
// blocking prober is throughput-bound by chain latency: every redundancy
// chain waits out its own RTTs, timeouts and backoffs before the next one
// starts. ZDNS-style measurement gets its speed from keeping thousands of
// queries outstanding; this engine reproduces that architecture in virtual
// time — a bounded in-flight window per PoP, an event loop ordered by
// (virtual_deadline, sequence), and completion-driven requeues — without
// giving up the repo's determinism contract. A window of one is the
// blocking prober: one chain at a time, a serial virtual clock.
//
// Determinism model (see DESIGN.md "Event-driven probe engine"): the
// engine separates the *decision plane* from the *timing plane*. Oracle
// calls against GooglePublicDns are order-sensitive (per-flow token
// buckets) and the circuit breaker is sequential, so the engine evaluates
// every chain's probes in canonical (loop, submission) order the moment
// the chain is popped from the pending queue. Only the *clock* is
// event-driven: each evaluation is assigned a virtual issue time (when a
// window slot and its schedule allow) and a virtual completion deadline
// (issue + modeled chain latency), and completions fire in (deadline,
// sequence) order. Results are therefore byte-identical at any window
// size and any REPRO_THREADS, while the modeled wall clock pipelines up
// to `window` chains deep.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "anycast/pop.h"
#include "core/obs/obs.h"
#include "core/resilience/resilience.h"
#include "googledns/google_dns.h"
#include "net/prefix.h"
#include "sim/domains.h"

namespace netclients::core::engine {

/// How a prober executes submitted chains.
struct EngineOptions {
  /// Bound on outstanding chains per PoP prober; 1 is the blocking
  /// prober. Changing it reshapes the virtual timeline only — results are
  /// byte-identical.
  int window = 64;
};

/// One submitted unit of probing work: a redundancy chain for a single
/// query scope — `redundancy` attempts against each listed domain, stopping
/// at the first cache hit — re-queued up to `max_loops` times while un-hit
/// (the campaign's continuous looping; calibration submits max_loops = 1).
struct ProbeRequest {
  /// Caller correlation id, echoed on the outcome (callers index arrays
  /// with it, so delivery order never influences their results).
  std::uint64_t tag = 0;
  net::Prefix scope;
  /// Campaign-schedule time of the chain's first evaluation; evaluation
  /// `loop` is scheduled at `schedule_time + loop * loop_stride_seconds`.
  double schedule_time = 0;
  /// Domains tried in order until one hits (calibration walks the four
  /// Alexa domains; the campaign submits one chain per domain).
  std::vector<int> domain_indices;
  int redundancy = 1;
  /// Gap between redundancy attempts on the oracle clock (the campaign's
  /// back-to-back 2 ms; calibration probes all attempts at one timestamp).
  double attempt_spacing_seconds = 0;
  /// Attempt-id stride per loop (the campaign's `loop * 131 + attempt`).
  int attempt_loop_stride = 0;
  int max_loops = 1;
  double loop_stride_seconds = 0;
};

/// Final outcome of a chain, delivered to the completion callback once it
/// resolves (first hit, or the loop budget exhausted).
struct ProbeOutcome {
  std::uint64_t tag = 0;
  bool hit = false;
  std::uint8_t return_scope = 0;  // valid when hit
  /// Domain that hit (index into the request's domain_indices target set).
  int domain_index = -1;
  /// Loop index of the resolving evaluation.
  int loop = 0;
  /// Schedule time of the resolving evaluation — the `when` a CacheHit
  /// records.
  double when = 0;
  /// Rate-limited attempts across every evaluation of this chain.
  std::uint64_t rate_limited = 0;
  /// The final evaluation still ended in a hard failure (timeout/SERVFAIL
  /// after retries).
  bool hard_failure = false;
  double issued_at = 0;     // virtual issue time of the final evaluation
  double completed_at = 0;  // virtual completion of the final evaluation
};

/// Virtual-time telemetry of one prober. Merged across PoP shards in shard
/// order: durations and the in-flight peak take the max (PoPs probe
/// concurrently), event counts sum.
struct EngineStats {
  /// Virtual clock after the last drain — the modeled wall time this PoP
  /// spent probing. probes/sec = probes_sent / this.
  double virtual_elapsed_seconds = 0;
  std::uint64_t evaluations = 0;
  /// Evaluations whose issue waited on a free window slot.
  std::uint64_t window_stalls = 0;
  /// Evaluations refused by an open breaker — they complete instantly, so
  /// a tripped breaker drains the PoP's window instead of clogging it.
  std::uint64_t breaker_drained = 0;
  int peak_in_flight = 0;

  void merge(const EngineStats& other);
};

/// Everything a prober needs about its PoP shard. All engine state is
/// confined to the shard, so REPRO_THREADS determinism is inherited from
/// the per-PoP fan-out.
struct ProberContext {
  googledns::GooglePublicDns* dns = nullptr;
  const std::vector<sim::DomainInfo>* domains = nullptr;
  anycast::PopId pop = anycast::kNoPop;
  int vp_id = 0;
  googledns::Transport transport = googledns::Transport::kTcp;
  resilience::RetryPolicy retry;
  resilience::BreakerPolicy breaker;
  /// Optional per-shard sink for completion-latency observations; merged
  /// by the caller in shard order (the obs determinism contract).
  obs::ShardDelta* metrics = nullptr;
  obs::Histogram* completion_latency_ms = nullptr;
};

/// The prober surface the calibrate/run_campaign stages drive: submit
/// chains, drain, receive completions through the function given to
/// `make_prober`. Abstract so that the event loop and the chain evaluator
/// stay out of this header.
class Prober {
 public:
  using CompletionFn = std::function<void(const ProbeOutcome&)>;

  virtual ~Prober() = default;

  virtual void submit(const ProbeRequest& request) = 0;
  /// Runs until every submitted chain has resolved and delivered its
  /// outcome. May be called repeatedly (the campaign drains per domain);
  /// the virtual clock, breaker and escalation state persist across
  /// drains.
  virtual void drain() = 0;

  /// Shard resilience tallies with the breaker's trip count folded in.
  virtual resilience::RetryStats stats() const = 0;
  virtual std::uint64_t probes_sent() const = 0;
  virtual const EngineStats& engine_stats() const = 0;
};

std::unique_ptr<Prober> make_prober(const ProberContext& context,
                                    const EngineOptions& options,
                                    Prober::CompletionFn on_complete = {});

}  // namespace netclients::core::engine
