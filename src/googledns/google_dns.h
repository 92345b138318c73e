#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "anycast/catchment.h"
#include "anycast/pop.h"
#include "anycast/vantage.h"
#include "dns/packet.h"
#include "dnssrv/authoritative.h"
#include "dnssrv/rate_limiter.h"
#include "googledns/activity_model.h"
#include "net/sim_time.h"

namespace netclients::googledns {

enum class Transport { kUdp, kTcp };

/// A half-open window of simulation time.
struct TimeWindow {
  net::SimTime begin = 0;
  net::SimTime end = 0;
  bool contains(net::SimTime t) const { return t >= begin && t < end; }
};

/// Deterministic failure injection for the resolver front end. Every
/// verdict is a pure function of the probe's identity (pop, vantage,
/// domain, scope, attempt, retry, quantized time), so faulty runs stay
/// byte-identical at any REPRO_THREADS. All-zero defaults leave behaviour
/// — and the exported metric name set — exactly as a fault-free build.
struct FailureInjection {
  std::uint64_t seed = 0xFA0117;
  /// Probe unanswered within its timeout (loss anywhere on the path).
  double timeout_probability = 0;
  /// Front end answers SERVFAIL.
  double servfail_probability = 0;
  /// Transient rate-limit surges: inside each surge window, probes are
  /// refused with this probability on top of the token buckets.
  double surge_refusal_probability = 0;
  std::vector<TimeWindow> surge_windows;
  /// Cache-eviction storms: inside each window, the entry a probe would
  /// have found has this probability of having been evicted from its pool
  /// (the probe misses whatever the occupancy model says).
  double eviction_probability = 0;
  std::vector<TimeWindow> eviction_windows;

  bool enabled() const {
    return timeout_probability > 0 || servfail_probability > 0 ||
           (surge_refusal_probability > 0 && !surge_windows.empty()) ||
           (eviction_probability > 0 && !eviction_windows.empty());
  }
};

struct GoogleDnsConfig {
  int pools_per_pop = 4;
  // The paper found repeated UDP probing of the same domains trips a limit
  // far below the documented 1,500 QPS, forcing the campaign onto TCP.
  double udp_repeated_qps_limit = 20.0;
  double tcp_qps_limit = 1500.0;
  std::uint64_t seed = 0x600613;
  // Epoch used when fetching scopes and answers from the authoritative;
  // the probing campaign runs in a later epoch than scope discovery,
  // producing Table 2's drift.
  std::uint32_t epoch = 1;
  // Injectable failure modes; all-zero by default (perfect substrate).
  FailureInjection faults;
};

/// How one cache-snooping probe ended.
enum class ProbeStatus : std::uint8_t { kOk, kRateLimited, kServfail, kTimeout };

/// Outcome of one cache-snooping probe (RD=0, ECS-tagged).
struct ProbeResult {
  ProbeStatus status = ProbeStatus::kOk;
  bool cache_hit = false;
  std::uint8_t return_scope = 0;    // valid when cache_hit
  std::uint32_t remaining_ttl = 0;  // valid when cache_hit
  anycast::PopId pop = anycast::kNoPop;

  /// Hard failures the retry policy acts on (rate limiting is normal
  /// operation: the paper's answer to it was transport choice, not retry).
  bool failed() const {
    return status == ProbeStatus::kServfail || status == ProbeStatus::kTimeout;
  }
};

/// What the authoritative says about one (domain, query scope) at the
/// configured epoch: the domain's zone and the scope its wire reply gives
/// the block. It depends on neither the PoP nor the time, so one value
/// serves every PoP's probes of that target.
struct UpstreamScope {
  /// Null for an unknown zone: nothing could be cached.
  const dnssrv::ZoneConfig* zone = nullptr;
  /// 255 when the upstream gave no scope.
  std::uint8_t scope = 255;
};

/// Everything about one probe target (PoP, domain, query scope) that no
/// probe of it changes: the zone, the upstream's scope, the block the
/// clients' cache entry is keyed by, and the clients' arrival rate there,
/// kept as a value each probe evaluates at its own time. Borrows `domain`
/// and `zone`.
struct ProbeTarget {
  const dns::DnsName* domain = nullptr;
  net::Prefix query_scope;
  const dnssrv::ZoneConfig* zone = nullptr;
  std::uint8_t entry_scope = 255;
  /// `query_scope` widened to `entry_scope`; meaningful only when the zone
  /// is known and the scope has not drifted narrower than the query.
  net::Prefix entry_block;
  /// The PoP's client arrival rate for the entry (all pools together);
  /// zero where no probe could reach the occupancy model.
  ArrivalRate rate;
};

/// Model of Google Public DNS: an anycast fleet of PoPs, each with several
/// independent cache pools, honoring client-supplied ECS prefixes and
/// answering non-recursive (RD=0) queries strictly from cache.
///
/// A probe comes in two parts. `upstream_scope` and `target` resolve, once
/// per target, what no probe changes; they are const and may run on any
/// thread. `probe(pop, target, ...)` is the per-attempt part: the PoP's
/// flow limiter, the fault draws, the pool hash and the occupancy draw.
///
/// Concurrency discipline (see DESIGN.md "Concurrency model"): `probe`
/// and `handle_wire` may be called concurrently as long as concurrent
/// calls target *distinct PoPs*. What the front end mutates — the
/// token-bucket flows — lives in that PoP's own state, created up front
/// for every PopTable entry, so concurrent calls for different PoPs share
/// only read-only data and take no locks. A PoP id outside the table
/// throws std::out_of_range before any counter moves.
///
/// Cache occupancy has one source: the ClientActivityModel. A probe
/// samples whether a Poisson client-arrival process at the model's rate
/// (split across the PoP's pools) would have refreshed the entry within
/// its TTL; without a model every pool is empty.
class GooglePublicDns {
 public:
  GooglePublicDns(const anycast::PopTable* pops,
                  const anycast::CatchmentModel* catchment,
                  const dnssrv::AuthoritativeServer* upstream,
                  GoogleDnsConfig config = {},
                  const ClientActivityModel* activity = nullptr);

  /// Which PoP serves queries from this location/network — the simulated
  /// `dig @8.8.8.8 o-o.myaddr.l.google.com -t TXT`.
  anycast::PopId pop_for(net::LatLon location, std::uint64_t route_key,
                         const anycast::RouteBias& bias = {}) const;

  /// The zone of `domain` and the scope the authoritative currently gives
  /// `query_scope`: one RFC 1035 round trip for a known zone, none for an
  /// unknown one.
  UpstreamScope upstream_scope(const dns::DnsName& domain,
                               net::Prefix query_scope) const;

  /// The target `pop`'s probes of `domain` with ECS = `query_scope` share,
  /// given the upstream's answer for it. Asks the activity model for the
  /// rate only where a probe could reach the occupancy draw. Borrows
  /// `domain` and `upstream.zone`.
  ProbeTarget target(anycast::PopId pop, const dns::DnsName& domain,
                     net::Prefix query_scope,
                     const UpstreamScope& upstream) const;

  /// A cache-snooping probe of `target`: RD=0, ECS = the target's query
  /// scope, sent over `transport` by vantage `vp_id` to PoP `pop` (the
  /// PoP the target was built for). `attempt` selects which cache pool the
  /// query lands in (the paper sends 5 redundant queries to cover multiple
  /// pools). `retry` is the resilience layer's retry index for this
  /// attempt: it re-rolls the fault oracle (loss is transient) but NOT the
  /// pool hash — a retried flow keeps its 5-tuple and lands in the same
  /// pool, so retries can only recover masked answers.
  ProbeResult probe(anycast::PopId pop, const ProbeTarget& target,
                    net::SimTime now, Transport transport, int vp_id,
                    int attempt, int retry = 0);

  /// One probe of a fresh target: `target(pop, domain, query_scope,
  /// upstream_scope(domain, query_scope))`, then the probe above.
  ProbeResult probe(anycast::PopId pop, const dns::DnsName& domain,
                    net::Prefix query_scope, net::SimTime now,
                    Transport transport, int vp_id, int attempt,
                    int retry = 0);

  /// RFC 1035 wire front end for packet-level tests and examples: parses
  /// the query in place, routes it to a PoP by anycast, and writes the
  /// reply into `arena` straight from the view. It serves the myaddr TXT
  /// service, RD=0 snooping through `probe` (attempt = the message id),
  /// and RD=1 recursion, which resolves upstream with the client's /24
  /// (the ECS address, else the route key) and caches nothing. FORMERR
  /// without a question; unparseable queries get an empty span. The span
  /// borrows `arena` until the next write into it; `query_wire` must not
  /// live in `arena`.
  std::span<const std::uint8_t> handle_wire(
      std::span<const std::uint8_t> query_wire, net::LatLon source,
      std::uint64_t route_key, net::SimTime now, Transport transport,
      dns::WireArena& arena, int vp_id = 0,
      const anycast::RouteBias& bias = {});

  const anycast::PopTable& pops() const { return *pops_; }

  const GoogleDnsConfig& config() const { return config_; }

  /// The myaddr service name.
  static const dns::DnsName& myaddr_name();

 private:
  /// Everything the front end mutates on behalf of one PoP. Padded to a
  /// cache line so shards probing neighbouring PoPs never share one.
  struct alignas(64) PopState {
    /// One limiter per (vantage, transport, domain loop): the prober runs a
    /// separate query loop per domain, each its own flow; Google's limits
    /// apply per flow. Each loop's timestamps are monotone.
    std::unordered_map<std::uint64_t, dnssrv::TokenBucket> limiters;
  };

  dnssrv::TokenBucket& limiter(PopState& state, int vp_id,
                               Transport transport,
                               const dns::DnsName& domain) const;

  /// An upstream fetch, one RFC 1035 round trip: `dns::write_query` into
  /// a stack buffer, AuthoritativeServer::handle_wire into a thread_local
  /// arena, zero-copy parse of the reply. Nullopt for an unknown zone.
  /// Counts itself in `googledns.upstream.round_trips`.
  std::optional<dnssrv::EcsAnswer> upstream_resolve(const dns::DnsName& domain,
                                                    net::Prefix source) const;

  /// Lazy occupancy: would a Poisson arrival process at `rate` (per pool)
  /// have an arrival within the TTL window ending at `now`?
  bool analytic_present(anycast::PopId pop, int pool_index,
                        const dns::DnsName& domain, net::Prefix scope_block,
                        std::uint32_t ttl, double pool_rate,
                        net::SimTime now, double* age_out) const;

  const anycast::PopTable* pops_;
  const anycast::CatchmentModel* catchment_;
  const dnssrv::AuthoritativeServer* upstream_;
  GoogleDnsConfig config_;
  const ClientActivityModel* activity_;
  // Indexed by PopId, always through at(): an id outside the table
  // (kNoPop from an all-inactive catchment, a stray RouteBias alternate)
  // must throw in every build, never reach another PoP's state.
  std::vector<PopState> states_;
};

}  // namespace netclients::googledns
