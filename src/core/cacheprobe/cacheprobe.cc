#include "core/cacheprobe/cacheprobe.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/engine/engine.h"
#include "core/exec/exec.h"
#include "core/obs/obs.h"
#include "net/rng.h"

namespace netclients::core {

using anycast::PopId;

namespace {

// Campaign-stage telemetry. Counters are bumped post-merge (the merged
// totals are already deterministic); double-valued histograms are fed by
// per-shard ShardDeltas merged in shard order, so their sums replay the
// serial accumulation sequence at any REPRO_THREADS.
struct CampaignMetrics {
  obs::Counter& scope_candidates =
      obs::Registry::global().counter("cacheprobe.scopes.candidates");
  obs::Counter& pops_probed =
      obs::Registry::global().counter("cacheprobe.pops.probed");
  obs::Counter& calibration_sampled =
      obs::Registry::global().counter("cacheprobe.calibration.sampled");
  obs::Counter& campaign_hits =
      obs::Registry::global().counter("cacheprobe.campaign.hits");
  obs::Counter& campaign_probes =
      obs::Registry::global().counter("cacheprobe.campaign.probes_sent");
  obs::Counter& campaign_rate_limited =
      obs::Registry::global().counter("cacheprobe.campaign.rate_limited");
  obs::Counter& campaign_assigned =
      obs::Registry::global().counter("cacheprobe.campaign.assigned");
  obs::Histogram& hit_distance_km = obs::Registry::global().histogram(
      "cacheprobe.calibration.hit_distance_km",
      {100, 250, 500, 1000, 2000, 4000, 8000, 16000});
  obs::Histogram& assigned_per_pop_domain = obs::Registry::global().histogram(
      "cacheprobe.campaign.assigned_per_pop_domain",
      {0, 10, 100, 1000, 10000, 100000, 1000000});

  static CampaignMetrics& get() {
    static CampaignMetrics metrics;
    return metrics;
  }
};

/// Registers a stage's merged chain-evaluation count. The name registers
/// only when nonzero (the total is REPRO_THREADS-independent, so the
/// exported name set stays deterministic).
void publish_evaluations(std::uint64_t evaluations) {
  if (evaluations) {
    obs::Registry::global().counter("engine.evaluations").add(evaluations);
  }
}

/// The prober of one (PoP, vantage) pair, built from the probe policy. Its
/// breaker and escalation state are confined to the shard.
engine::Prober shard_prober(const ProbeEnvironment& env,
                            const ProbePolicy& policy, anycast::PopId pop,
                            int vp_id) {
  engine::ProberContext context;
  context.dns = env.google_dns;
  context.domains = &env.domains;
  context.pop = pop;
  context.vp_id = vp_id;
  context.transport = policy.transport;
  context.retry = policy.retry;
  context.breaker = policy.breaker;
  return engine::Prober(context);
}

}  // namespace

PrefixDataset CampaignResult::to_prefix_dataset(std::string name) const {
  PrefixDataset out(std::move(name));
  active.for_each([&](net::Prefix p) {
    const std::uint32_t first = p.first_slash24_index();
    const std::uint64_t count = p.slash24_count();
    for (std::uint64_t i = 0; i < count; ++i) {
      out.add(first + static_cast<std::uint32_t>(i));
    }
  });
  return out;
}

double mean_assigned_per_pop(std::uint64_t total_assigned, std::size_t pops,
                             std::size_t domains) {
  const double cells = static_cast<double>(pops) * static_cast<double>(domains);
  return cells > 0 ? static_cast<double>(total_assigned) / cells : 0.0;
}

namespace {

/// /24s per scope-discovery shard. Fixed (never derived from the thread
/// count) so the shard partition — and therefore the merged candidate
/// list — is identical for every REPRO_THREADS value.
constexpr std::size_t kScopeScanChunk = 1 << 14;

/// Upstream-scope table entries per shard; fixed for the same reason.
constexpr std::size_t kUpstreamChunk = 1 << 10;

/// The upstream's scope for each of `entries` (domain, query scope)
/// pairs, `entry(e)` naming the e-th: one wire round trip per entry of a
/// known zone, filled in parallel over fixed chunks before a per-PoP
/// fan-out. A scope depends on (domain, block, epoch), not on the PoP, so
/// every PoP's chains read the one table. The stage only stores these
/// values and hands them to the prober; it never reads them.
template <typename Entry>
std::vector<googledns::UpstreamScope> upstream_table(
    const ProbeEnvironment& env, std::size_t entries, int threads,
    Entry entry) {
  std::vector<googledns::UpstreamScope> table(entries);
  exec::parallel_for_chunks(
      0, entries, kUpstreamChunk, threads, [&](exec::ChunkRange range) {
        for (std::size_t e = range.begin; e < range.end; ++e) {
          const auto [domain_index, scope] = entry(e);
          table[e] = env.google_dns->upstream_scope(
              env.domains[static_cast<std::size_t>(domain_index)].name,
              scope);
        }
        return range.end - range.begin;
      });
  return table;
}

}  // namespace

std::vector<ProbeCandidate> discover_scopes(const ProbeEnvironment& env,
                                            const CacheProbeOptions& options,
                                            int domain_index) {
  obs::StageSpan span("cacheprobe.discover_scopes");
  const sim::DomainInfo& domain =
      env.domains[static_cast<std::size_t>(domain_index)];
  const int max_attempts = std::max(1, options.probe.retry.max_attempts);

  // Each shard runs the serial scan over its own /24 range. A shard's
  // first candidate may also be covered by the previous shard's final
  // candidate (scopes are not aligned to shard seams) — the ordered merge
  // below drops those, mirroring the slight overlaps real unaligned
  // authoritative scopes produce anyway.
  struct ChunkScan {
    std::vector<ProbeCandidate> out;
    resilience::RetryStats stats;
    std::uint64_t skipped = 0;  // /24s abandoned after exhausted retries
  };
  const auto chunks = exec::parallel_for_chunks(
      env.slash24_begin, env.slash24_end, kScopeScanChunk, options.threads,
      [&](exec::ChunkRange range) {
        ChunkScan scan;
        std::uint32_t idx = static_cast<std::uint32_t>(range.begin);
        while (idx < range.end) {
          const net::Prefix slash24 = net::Prefix::from_slash24_index(idx);
          // The authoritative edge can SERVFAIL or time out under injected
          // faults; retry within the attempt budget, then skip-and-count
          // the /24 (a fault-free server answers the first attempt, with
          // no extra calls and no RNG draws).
          bool answered = true;
          for (int attempt = 0;; ++attempt) {
            const dnssrv::QueryOutcome outcome = env.authoritative->query_outcome(
                domain.name, slash24, /*epoch=*/0,
                static_cast<std::uint64_t>(attempt));
            if (outcome == dnssrv::QueryOutcome::kOk) break;
            ++scan.stats.upstream_failures;
            if (outcome == dnssrv::QueryOutcome::kTimeout) {
              ++scan.stats.timeouts;
            } else {
              ++scan.stats.servfails;
            }
            if (attempt + 1 >= max_attempts) {
              ++scan.stats.exhausted;
              answered = false;
              break;
            }
            ++scan.stats.retries;
          }
          if (!answered) {
            ++scan.skipped;
            ++idx;
            continue;
          }
          const auto scope = env.authoritative->scope_for(domain.name, slash24,
                                                          /*epoch=*/0);
          if (!scope || *scope == 0) {
            // Non-ECS answer: the whole address space shares one cache
            // entry, so there is nothing prefix-specific to learn — skip
            // the domain's /24.
            ++idx;
            continue;
          }
          const std::uint8_t scope_len = std::min<std::uint8_t>(*scope, 24);
          const net::Prefix candidate = slash24.widen_to(scope_len);
          scan.out.push_back(ProbeCandidate{candidate});
          // All /24s inside the returned scope share the cache entry.
          idx = candidate.first_slash24_index() +
                static_cast<std::uint32_t>(candidate.slash24_count());
        }
        return scan;
      });

  std::vector<ProbeCandidate> candidates;
  resilience::RetryStats edge_stats;
  std::uint64_t skipped = 0;
  std::uint32_t covered_to = 0;
  for (const ChunkScan& chunk : chunks) {
    edge_stats.merge(chunk.stats);
    skipped += chunk.skipped;
    for (const ProbeCandidate& candidate : chunk.out) {
      const std::uint32_t end =
          candidate.scope.first_slash24_index() +
          static_cast<std::uint32_t>(candidate.scope.slash24_count());
      if (end <= covered_to) continue;  // seam overlap: already covered
      candidates.push_back(candidate);
      covered_to = end;
    }
  }
  CampaignMetrics::get().scope_candidates.add(candidates.size());
  edge_stats.publish();
  if (skipped) {
    obs::Registry::global().counter("cacheprobe.scopes.skipped").add(skipped);
  }
  return candidates;
}

PopDiscoveryResult discover_pops(const ProbeEnvironment& env) {
  obs::StageSpan span("cacheprobe.discover_pops");
  PopDiscoveryResult result;
  result.vp_pop.reserve(env.vantage_points.size());
  for (const auto& vp : env.vantage_points) {
    // Equivalent of `dig @8.8.8.8 o-o.myaddr.l.google.com -t TXT`.
    const PopId pop =
        env.google_dns->pop_for(vp.location, vp.address.value());
    result.vp_pop.push_back(pop);
    const bool seen =
        std::any_of(result.probed_pops.begin(), result.probed_pops.end(),
                    [&](const auto& entry) { return entry.first == pop; });
    if (!seen) result.probed_pops.emplace_back(pop, vp.id);
  }
  std::sort(result.probed_pops.begin(), result.probed_pops.end());
  CampaignMetrics::get().pops_probed.add(result.probed_pops.size());
  return result;
}

CalibrationResult calibrate(const ProbeEnvironment& env,
                            const CacheProbeOptions& options,
                            const PopDiscoveryResult& pops) {
  obs::StageSpan span("cacheprobe.calibrate");
  CalibrationResult result;
  // Random sample of geolocatable /24s with tight error radius. The target
  // count scales with the address space so the density matches the paper's
  // 78,637-of-15.5M sample. Drawn once, serially, before the fan-out: all
  // PoP shards probe the same sample.
  const double space_fraction =
      static_cast<double>(env.slash24_end - env.slash24_begin) / 15527909.0;
  const double target =
      std::max(64.0, options.calibration_sample_target * space_fraction);

  std::vector<std::pair<std::uint32_t, net::LatLon>> sample;
  {
    std::size_t eligible = 0;
    env.geodb->for_each([&](std::uint32_t, const geo::GeoRecord& rec) {
      if (rec.error_radius_km < options.calibration_max_error_radius_km) {
        ++eligible;
      }
    });
    if (eligible == 0) return result;
    const double p = std::min(1.0, target / static_cast<double>(eligible));
    net::Rng rng(net::stable_seed(options.seed, 0xCA11u));
    env.geodb->for_each([&](std::uint32_t idx, const geo::GeoRecord& rec) {
      if (rec.error_radius_km < options.calibration_max_error_radius_km &&
          rng.bernoulli(p)) {
        sample.emplace_back(idx, rec.location);
      }
    });
  }
  result.sampled_prefixes = sample.size();
  CampaignMetrics::get().calibration_sampled.add(sample.size());

  // Calibration probes the four Alexa domains (§3.1.1); the Microsoft CDN
  // domain is reserved for validation. Every sample becomes one chain (the
  // four domains at one schedule slot, first hit wins), and every PoP
  // probes the same chains. The schedule is accumulated, not computed as
  // s / rate: the oracles read the probe time (the fault draw by its
  // millisecond), so the rounding of the sum is part of the pinned
  // results.
  const ProbePolicy& policy = options.probe;
  engine::ChainPlan plan;
  plan.redundancy = policy.redundant_queries;
  for (std::size_t d = 0; d < env.domains.size(); ++d) {
    if (!env.domains[d].is_microsoft_cdn) {
      plan.domain_indices.push_back(static_cast<int>(d));
    }
  }
  const std::size_t plan_domains = plan.domain_indices.size();
  const std::vector<googledns::UpstreamScope> upstream = upstream_table(
      env, sample.size() * plan_domains, options.threads,
      [&](std::size_t e) {
        return std::pair{plan.domain_indices[e % plan_domains],
                         net::Prefix::from_slash24_index(
                             sample[e / plan_domains].first)};
      });
  std::vector<engine::Chain> chains(sample.size());
  double t = 0;
  for (std::size_t s = 0; s < sample.size(); ++s) {
    chains[s] = {net::Prefix::from_slash24_index(sample[s].first), t,
                 &upstream[s * plan_domains]};
    t += 1.0 / options.prefixes_per_second_per_domain;
  }

  // One shard per PoP: each shard drives its own vantage point's flows and
  // its own PoP's cache pools, so shards never contend on substrate state.
  struct PopCalibration {
    std::vector<double> distances;
    double radius = 0;
    resilience::RetryStats retry_stats;
    std::uint64_t evaluations = 0;
    obs::ShardDelta metrics;  // merged in PoP order below
  };
  std::vector<PopCalibration> shards = exec::parallel_map(
      pops.probed_pops.size(), options.threads, [&](std::size_t i) {
        const auto& [pop, vp_id] = pops.probed_pops[i];
        PopCalibration shard;
        engine::Prober prober = shard_prober(env, policy, pop, vp_id);
        const std::vector<engine::ProbeOutcome> outcomes =
            prober.run(plan, chains);
        for (std::size_t s = 0; s < sample.size(); ++s) {
          if (!outcomes[s].hit) continue;
          shard.distances.push_back(net::haversine_km(
              sample[s].second, env.google_dns->pops().site(pop).location));
          shard.metrics.observe(CampaignMetrics::get().hit_distance_km,
                                shard.distances.back());
        }
        shard.retry_stats = prober.stats();
        shard.evaluations = prober.evaluations();
        if (shard.distances.size() >= 10) {
          std::vector<double> sorted = shard.distances;
          std::sort(sorted.begin(), sorted.end());
          const std::size_t rank = static_cast<std::size_t>(
              options.service_radius_percentile *
              static_cast<double>(sorted.size() - 1));
          shard.radius = sorted[rank];
        } else {
          shard.radius = options.default_service_radius_km;
        }
        return shard;
      });

  // Ordered merge in PoP order (probed_pops is sorted).
  std::vector<resilience::RetryStats> shard_stats;
  shard_stats.reserve(shards.size());
  std::uint64_t evaluations = 0;
  for (std::size_t i = 0; i < shards.size(); ++i) {
    const PopId pop = pops.probed_pops[i].first;
    result.hit_distances_km[pop] = std::move(shards[i].distances);
    result.service_radius_km[pop] = shards[i].radius;
    shard_stats.push_back(shards[i].retry_stats);
    evaluations += shards[i].evaluations;
    shards[i].metrics.merge();
  }
  resilience::RetryStats::merge_shards(shard_stats).publish();
  publish_evaluations(evaluations);
  return result;
}

namespace {

/// One probed PoP's assigned candidates, one list of indices into the
/// domain's candidate list per domain.
using PopAssignment = std::vector<std::vector<std::uint32_t>>;

/// Assigns each probed PoP the candidates MaxMind places possibly within
/// its service radius (location + reported error radius). Sharded per PoP;
/// element i belongs to pops.probed_pops[i].
std::vector<PopAssignment> assign_candidates(
    const ProbeEnvironment& env, const CacheProbeOptions& options,
    const PopDiscoveryResult& pops, const CalibrationResult& calibration,
    const std::vector<std::vector<ProbeCandidate>>& candidates_by_domain) {
  return exec::parallel_map(
      pops.probed_pops.size(), options.threads, [&](std::size_t i) {
        const PopId pop = pops.probed_pops[i].first;
        const net::LatLon pop_location =
            env.google_dns->pops().site(pop).location;
        const double radius =
            !options.use_max_radius_everywhere &&
                    calibration.service_radius_km.contains(pop)
                ? calibration.service_radius_km.at(pop)
                : options.default_service_radius_km;
        PopAssignment assigned(candidates_by_domain.size());
        for (std::size_t d = 0; d < candidates_by_domain.size(); ++d) {
          const std::vector<ProbeCandidate>& candidates =
              candidates_by_domain[d];
          for (std::size_t c = 0; c < candidates.size(); ++c) {
            const auto rec =
                env.geodb->lookup(candidates[c].scope.first_slash24_index());
            if (!rec) continue;  // not geolocatable: not assigned anywhere
            if (net::haversine_km(rec->location, pop_location) <=
                radius + rec->error_radius_km) {
              assigned[d].push_back(static_cast<std::uint32_t>(c));
            }
          }
        }
        return assigned;
      });
}

}  // namespace

CampaignResult run_campaign(
    const ProbeEnvironment& env, const CacheProbeOptions& options,
    const PopDiscoveryResult& pops, const CalibrationResult& calibration,
    const std::vector<std::vector<ProbeCandidate>>* scopes_by_domain) {
  obs::StageSpan span("cacheprobe.run_campaign");
  CampaignResult result;
  result.active_by_domain.resize(env.domains.size());
  const double duration = options.duration_hours * net::kHour;

  // Scope discovery once per domain (itself sharded over /24 ranges)
  // unless the caller passed a prior kStageScopes artifact; the per-PoP
  // assignment below reuses the lists read-only.
  std::vector<std::vector<ProbeCandidate>> discovered;
  if (scopes_by_domain == nullptr) {
    discovered.reserve(env.domains.size());
    for (std::size_t d = 0; d < env.domains.size(); ++d) {
      discovered.push_back(discover_scopes(env, options, static_cast<int>(d)));
    }
    scopes_by_domain = &discovered;
  }
  const auto& candidates_by_domain = *scopes_by_domain;

  const std::vector<PopAssignment> assignments = assign_candidates(
      env, options, pops, calibration, candidates_by_domain);

  // Every candidate's upstream scope, one table per domain, index-aligned
  // with its candidate list.
  std::vector<std::vector<googledns::UpstreamScope>> upstream;
  upstream.reserve(candidates_by_domain.size());
  for (std::size_t d = 0; d < candidates_by_domain.size(); ++d) {
    const std::vector<ProbeCandidate>& candidates = candidates_by_domain[d];
    upstream.push_back(upstream_table(
        env, candidates.size(), options.threads, [&](std::size_t c) {
          return std::pair{static_cast<int>(d), candidates[c].scope};
        }));
  }

  // One shard per PoP — the paper's own fan-out unit (22 PoPs probed at
  // once). Probe outcomes are pure functions of (entry, time) oracles, a
  // PoP's cache pools and its VP's rate-limiter flows are confined to its
  // shard, so shard results are independent of interleaving — and of the
  // order shards run in. Per-PoP work is heavy-tailed, so shards start
  // largest-first (total assigned candidates, ties by PoP index): the
  // heaviest PoPs never start last and set the makespan. Within a shard
  // the prober runs each domain's chain list to resolution, and the walk
  // after it emits hits in (loop, submission) order, the order the prober
  // evaluated them in.
  std::vector<std::size_t> load(assignments.size(), 0);
  for (std::size_t i = 0; i < assignments.size(); ++i) {
    for (const auto& assigned : assignments[i]) load[i] += assigned.size();
  }
  std::vector<std::size_t> order(assignments.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return load[a] > load[b];
                   });
  const ProbePolicy& policy = options.probe;
  struct PopShard {
    std::vector<CacheHit> hits;
    std::uint64_t probes_sent = 0;
    std::uint64_t rate_limited = 0;
    resilience::RetryStats retry_stats;
    std::uint64_t evaluations = 0;
    obs::ShardDelta metrics;  // merged in PoP order below
  };
  std::vector<PopShard> by_rank = exec::parallel_map(
      order.size(), options.threads, [&](std::size_t rank) {
        const std::size_t i = order[rank];
        const auto& [pop, vp_id] = pops.probed_pops[i];
        PopShard shard;
        engine::Prober prober = shard_prober(env, policy, pop, vp_id);
        std::vector<engine::Chain> chains;
        for (std::size_t d = 0; d < env.domains.size(); ++d) {
          const std::vector<std::uint32_t>& assigned = assignments[i][d];
          shard.metrics.observe(
              CampaignMetrics::get().assigned_per_pop_domain,
              static_cast<double>(assigned.size()));
          if (assigned.empty()) continue;

          const double cycle_seconds =
              static_cast<double>(assigned.size()) /
              options.prefixes_per_second_per_domain;
          const int loops =
              std::clamp(static_cast<int>(duration / cycle_seconds), 1,
                         options.max_loops);
          // One chain per assigned candidate: `redundant_queries` attempts
          // back-to-back (2 ms apart, keeping the flow's timestamps
          // monotone within the 20 ms per-prefix budget of the 50 pps
          // loop), repeated every cycle until it hits or the loop budget
          // runs out. One run per domain: each domain's list is probed to
          // completion before the next.
          engine::ChainPlan plan;
          plan.domain_indices = {static_cast<int>(d)};
          plan.redundancy = policy.redundant_queries;
          plan.attempt_spacing_seconds = 0.002;
          plan.attempt_loop_stride = 131;
          plan.max_loops = loops;
          plan.loop_stride_seconds = cycle_seconds;
          chains.resize(assigned.size());
          for (std::size_t j = 0; j < assigned.size(); ++j) {
            const std::uint32_t c = assigned[j];
            chains[j] = {candidates_by_domain[d][c].scope,
                         static_cast<double>(j) /
                             options.prefixes_per_second_per_domain,
                         &upstream[d][c]};
          }
          const std::vector<engine::ProbeOutcome> outcomes =
              prober.run(plan, chains);
          for (int loop = 0; loop < loops; ++loop) {
            for (std::size_t j = 0; j < assigned.size(); ++j) {
              const engine::ProbeOutcome& outcome = outcomes[j];
              if (!outcome.hit || outcome.loop != loop) continue;
              CacheHit hit;
              hit.domain_index = static_cast<int>(d);
              hit.query_scope = chains[j].scope;
              hit.return_scope = outcome.return_scope;
              hit.pop = pop;
              hit.when = outcome.when;
              shard.hits.push_back(hit);
            }
          }
          for (const engine::ProbeOutcome& outcome : outcomes) {
            shard.rate_limited += outcome.rate_limited;
          }
        }
        shard.probes_sent = prober.probes_sent();
        shard.retry_stats = prober.stats();
        shard.evaluations = prober.evaluations();
        return shard;
      });
  std::vector<PopShard> shards(by_rank.size());
  for (std::size_t rank = 0; rank < by_rank.size(); ++rank) {
    shards[order[rank]] = std::move(by_rank[rank]);
  }

  // Ordered merge in PoP order — the exact sequence a serial run visits,
  // so hit vectors and prefix-set insertions are byte-identical for any
  // thread count. The retry merge is explicitly shard-order independent
  // (commutative integer sums — see RetryStats::merge_shards).
  const std::uint64_t total_assigned =
      std::accumulate(load.begin(), load.end(), std::uint64_t{0});
  std::vector<resilience::RetryStats> shard_stats;
  shard_stats.reserve(shards.size());
  std::uint64_t evaluations = 0;
  for (PopShard& shard : shards) {
    result.probes_sent += shard.probes_sent;
    result.rate_limited += shard.rate_limited;
    shard_stats.push_back(shard.retry_stats);
    evaluations += shard.evaluations;
    shard.metrics.merge();
    for (CacheHit& hit : shard.hits) {
      const net::Prefix active_prefix(
          hit.query_scope.base(),
          std::min<std::uint8_t>(hit.return_scope, 24));
      result.active.insert(active_prefix);
      result.active_by_domain[static_cast<std::size_t>(hit.domain_index)]
          .insert(active_prefix);
      result.hits.push_back(hit);
    }
  }
  result.retry_stats = resilience::RetryStats::merge_shards(shard_stats);
  if (!pops.probed_pops.empty()) {
    result.average_assigned_per_pop = mean_assigned_per_pop(
        total_assigned, pops.probed_pops.size(), env.domains.size());
  }
  CampaignMetrics& metrics = CampaignMetrics::get();
  metrics.campaign_hits.add(result.hits.size());
  metrics.campaign_probes.add(result.probes_sent);
  metrics.campaign_rate_limited.add(result.rate_limited);
  metrics.campaign_assigned.add(total_assigned);
  result.retry_stats.publish();
  publish_evaluations(evaluations);
  return result;
}

CampaignArtifacts CacheProbeCampaign::run(unsigned stages,
                                          CampaignArtifacts reuse) const {
  CampaignArtifacts artifacts = std::move(reuse);
  if (stages & kStageScopes) {
    artifacts.scopes_by_domain.clear();
    artifacts.scopes_by_domain.reserve(env_.domains.size());
    for (std::size_t d = 0; d < env_.domains.size(); ++d) {
      artifacts.scopes_by_domain.push_back(
          discover_scopes(env_, options_, static_cast<int>(d)));
    }
  }
  if (stages & kStagePops) {
    artifacts.pops = discover_pops(env_);
  }
  if (stages & kStageCalibration) {
    artifacts.calibration = calibrate(env_, options_, artifacts.pops);
  }
  if (stages & kStageCampaign) {
    // A prior kStageScopes artifact saves the campaign its internal scope
    // discovery; a partial list (domain set changed between runs) is not
    // reusable.
    const bool scopes_usable =
        artifacts.scopes_by_domain.size() == env_.domains.size();
    artifacts.result =
        run_campaign(env_, options_, artifacts.pops, artifacts.calibration,
                     scopes_usable ? &artifacts.scopes_by_domain : nullptr);
  }
  return artifacts;
}

}  // namespace netclients::core
