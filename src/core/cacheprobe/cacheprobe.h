#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "anycast/pop.h"
#include "anycast/vantage.h"
#include "core/datasets/datasets.h"
#include "core/resilience/resilience.h"
#include "dnssrv/authoritative.h"
#include "geo/geodb.h"
#include "googledns/google_dns.h"
#include "net/prefix.h"
#include "net/prefix_set.h"
#include "sim/domains.h"

namespace netclients::core {

/// Everything the measurer has access to — the explicit substrate of the
/// campaign. The pipeline deliberately consumes only what a real measurer
/// has: query access to the domains' authoritatives (scope pre-pass), query
/// access to Google Public DNS, a MaxMind-style geolocation database, a
/// vantage-point fleet, and the public /24 space bounds. It never touches
/// the simulator's ground truth. Before each per-PoP fan-out a stage asks
/// the Google front end for the upstream's scope of every (domain, scope)
/// it will probe (`GooglePublicDns::upstream_scope`, a query to the
/// authoritative); it stores those values and hands them to the prober
/// without reading them.
struct ProbeEnvironment {
  const dnssrv::AuthoritativeServer* authoritative = nullptr;
  googledns::GooglePublicDns* google_dns = nullptr;
  const geo::GeoDatabase* geodb = nullptr;
  std::vector<anycast::VantagePoint> vantage_points;
  std::vector<sim::DomainInfo> domains;
  std::uint32_t slash24_begin = 0;
  std::uint32_t slash24_end = 0;
};

/// Everything about how a single probe goes out: transport, redundancy,
/// per-transport timeouts with retry/backoff, and circuit breaking. The
/// single source of truth —
/// the loose `transport`/`redundant_queries` aliases that used to sit
/// directly in CacheProbeOptions are gone (§3.1.1 defaults).
struct ProbePolicy {
  googledns::Transport transport = googledns::Transport::kTcp;
  int redundant_queries = 5;  // cover multiple independent cache pools
  resilience::RetryPolicy retry;
  resilience::BreakerPolicy breaker;
};

/// Tuning of the cache-probing campaign; defaults are the paper's (§3.1.1).
struct CacheProbeOptions {
  double duration_hours = 120;
  double prefixes_per_second_per_domain = 50;
  /// Probe-level policy, consumed directly by the stage code.
  ProbePolicy probe;
  /// Cap on how many times the campaign loops over a PoP's assigned list
  /// (the paper loops continuously for 120h; the cap bounds simulation
  /// cost for small candidate lists).
  int max_loops = 6;

  // Calibration (service-radius estimation).
  std::uint32_t calibration_sample_target = 78637;
  double calibration_max_error_radius_km = 200;
  double service_radius_percentile = 0.90;
  /// Fallback radius when a PoP sees too few calibration hits.
  double default_service_radius_km = 5524;  // the paper's maximum (Zurich)
  /// Ablation switch: ignore calibration and assign every PoP the maximum
  /// radius (the paper's 4.4M-vs-2.4M candidates-per-PoP comparison).
  bool use_max_radius_everywhere = false;

  std::uint64_t seed = 0xCAFE;

  /// Parallelism degree for the sharded stages (scope discovery sharded
  /// over /24 ranges, calibration and the campaign sharded per PoP).
  /// 0 = exec::thread_count() (the REPRO_THREADS env var); 1 = serial.
  /// Same seed ⇒ byte-identical results for every value.
  int threads = 0;
};

/// One cache hit observed by the campaign.
struct CacheHit {
  int domain_index = 0;
  net::Prefix query_scope;
  std::uint8_t return_scope = 0;
  anycast::PopId pop = anycast::kNoPop;
  net::SimTime when = 0;
};

struct PopDiscoveryResult {
  /// vantage index → PoP it reaches.
  std::vector<anycast::PopId> vp_pop;
  /// Deduplicated reachable PoPs, each with one representative VP.
  std::vector<std::pair<anycast::PopId, int>> probed_pops;
};

struct CalibrationResult {
  /// PoP → estimated service radius (km).
  std::unordered_map<anycast::PopId, double> service_radius_km;
  /// PoP → distances (km) of calibration prefixes that returned hits — the
  /// raw series behind Figure 2.
  std::unordered_map<anycast::PopId, std::vector<double>> hit_distances_km;
  std::size_t sampled_prefixes = 0;
};

struct CampaignResult {
  std::vector<CacheHit> hits;
  /// Disjoint union of hit scopes with return scope > 0, across domains.
  net::DisjointPrefixSet active;
  /// Same, per domain (indexes align with the campaign's domain list).
  std::vector<net::DisjointPrefixSet> active_by_domain;
  std::uint64_t probes_sent = 0;
  std::uint64_t rate_limited = 0;
  double average_assigned_per_pop = 0;
  /// Resilience tallies (retries, timeouts, breaker trips, requeues)
  /// merged across PoP shards; all-zero on a fault-free substrate.
  resilience::RetryStats retry_stats;

  /// Lower bound on active /24s: one per disjoint hit prefix (§4).
  std::uint64_t slash24_lower_bound() const { return active.size(); }
  /// Upper bound: every /24 inside every hit prefix.
  std::uint64_t slash24_upper_bound() const {
    return active.slash24_upper_bound();
  }

  /// Expands the upper bound into a /24 dataset (presence-only).
  PrefixDataset to_prefix_dataset(std::string name) const;
};

/// Mean candidates assigned per (PoP, domain) pair, in double — the
/// integer-division truncation this replaces underreported Figure 2's
/// 2.4M-vs-4.4M comparison at small scales.
double mean_assigned_per_pop(std::uint64_t total_assigned, std::size_t pops,
                             std::size_t domains);

// ---------------------------------------------------------------------------
// Stage API. Each stage is a pure function of its explicit inputs: what a
// stage learns travels only through its returned value, never through
// hidden mutable state — which is what lets shards run independently.
// (`env.google_dns` is the measured system; probing it is the measurement
// itself, not hidden pipeline state.) The stages run in this order;
// `run_probing` chains stages 2–4 for callers that want all three, and a
// sweep of many campaigns over one environment calls them itself, running
// stages 1 and 2 once: scope discovery reads only the authoritative (a
// fault-free one answers every first attempt, so a cell's retry budget
// goes unused) and PoP discovery only the catchment and the vantage fleet,
// so neither answer moves with a cell's options or Google-side faults.

/// Stage 1 — scope discovery (§3.1.1, validated in Appendix A.2): queries
/// the authoritative for every /24 in the environment's range and collapses
/// runs sharing a response scope into one candidate, the query scope (==
/// the discovered response scope). Sharded over fixed /24 chunks; the
/// ordered merge drops candidates a preceding chunk's final (overshooting)
/// candidate already covers.
std::vector<net::Prefix> discover_scopes(const ProbeEnvironment& env,
                                         const CacheProbeOptions& options,
                                         int domain_index);

/// Stage 1 for every domain, in the environment's domain order: the lists
/// `run_campaign` takes.
std::vector<std::vector<net::Prefix>> discover_scopes(
    const ProbeEnvironment& env, const CacheProbeOptions& options);

/// Stage 2 — PoP discovery: `dig @8.8.8.8 o-o.myaddr...` from every VP.
PopDiscoveryResult discover_pops(const ProbeEnvironment& env);

/// Stage 3 — service-radius calibration: probes a geolocated random sample
/// from each reached PoP and takes the 90th-percentile hit distance
/// (Figure 2). Sharded per PoP.
CalibrationResult calibrate(const ProbeEnvironment& env,
                            const CacheProbeOptions& options,
                            const PopDiscoveryResult& pops);

/// Stage 4 — the 120-hour campaign: each PoP probes the candidates whose
/// geolocation (+ error radius) falls within its service radius, with
/// redundant queries over TCP. Sharded per PoP (the paper fans out across
/// 22 PoPs at once); per-shard hit lists and counters are merged in PoP
/// order, so the result is byte-identical to a serial run. When
/// `scopes_by_domain` is non-null (the lists of `discover_scopes(env,
/// options)`) the internal scope discovery is skipped and the result
/// equals the discovering call's.
CampaignResult run_campaign(
    const ProbeEnvironment& env, const CacheProbeOptions& options,
    const PopDiscoveryResult& pops, const CalibrationResult& calibration,
    const std::vector<std::vector<net::Prefix>>* scopes_by_domain = nullptr);

/// What the paper's first technique, ECS cache probing of Google Public
/// DNS, produces: the reached PoPs, their calibrated radii and the
/// campaign's hits.
struct CampaignArtifacts {
  PopDiscoveryResult pops;
  CalibrationResult calibration;
  CampaignResult result;
};

/// Stages 2–4 in order (`discover_pops` → `calibrate` → `run_campaign`,
/// which discovers scopes internally).
CampaignArtifacts run_probing(const ProbeEnvironment& env,
                              const CacheProbeOptions& options);

}  // namespace netclients::core
