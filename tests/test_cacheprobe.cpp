// Tests for the cache-probing pipeline: scope discovery, PoP discovery,
// service-radius calibration, the probing campaign, and active-prefix
// inference — validated against the simulator's ground truth at small
// scale.

#include <gtest/gtest.h>

#include <memory>
#include <unordered_set>

#include "anycast/vantage.h"
#include "core/cacheprobe/cacheprobe.h"
#include "core/obs/obs.h"
#include "sim/activity.h"
#include "sim/world.h"

namespace netclients::core {
namespace {

struct Pipeline {
  explicit Pipeline(double scale_denominator = 512,
                    CacheProbeOptions options = {}) {
    sim::WorldConfig config;
    config.scale = 1.0 / scale_denominator;
    world = sim::World::generate(config);
    activity = std::make_unique<sim::WorldActivityModel>(&world);
    gdns = std::make_unique<googledns::GooglePublicDns>(
        &world.pops(), &world.catchment(), &world.authoritative(),
        googledns::GoogleDnsConfig{}, activity.get());
    campaign = std::make_unique<CacheProbeCampaign>(environment(), options);
  }

  ProbeEnvironment environment() {
    ProbeEnvironment env;
    env.authoritative = &world.authoritative();
    env.google_dns = gdns.get();
    env.geodb = &world.geodb();
    env.vantage_points = anycast::default_vantage_fleet();
    env.domains = world.domains();
    env.slash24_begin = 1u << 16;
    env.slash24_end = world.address_space_end();
    return env;
  }

  sim::World world;
  std::unique_ptr<sim::WorldActivityModel> activity;
  std::unique_ptr<googledns::GooglePublicDns> gdns;
  std::unique_ptr<CacheProbeCampaign> campaign;
};

Pipeline& pipeline() {
  static Pipeline p;
  return p;
}

const CampaignArtifacts& full_run() {
  static const CampaignArtifacts run = pipeline().campaign->run();
  return run;
}

// Scope discovery is a kStageScopes run; one shared artifact covers every
// domain the scope tests inspect.
const std::vector<ProbeCandidate>& scopes(int domain_index) {
  static const CampaignArtifacts artifacts =
      pipeline().campaign->run(kStageScopes);
  return artifacts.scopes_by_domain[static_cast<std::size_t>(domain_index)];
}

// ----------------------------------------------------------- scope discovery

TEST(ScopeDiscovery, CandidatesCoverTheScannedSpace) {
  // Response scopes from a real authoritative are not perfectly aligned
  // (our topology clamp reproduces that), so consecutive candidates may
  // overlap slightly — but together they must cover every /24 scanned,
  // with strictly advancing ends.
  const auto& candidates = scopes(0);
  ASSERT_FALSE(candidates.empty());
  std::uint32_t covered_to = 1u << 16;
  for (const ProbeCandidate& c : candidates) {
    EXPECT_LE(c.scope.first_slash24_index(), covered_to)
        << "gap before " << c.scope.to_string();
    const std::uint32_t end =
        c.scope.first_slash24_index() +
        static_cast<std::uint32_t>(c.scope.slash24_count());
    EXPECT_GT(end, covered_to) << "non-advancing " << c.scope.to_string();
    covered_to = end;
  }
  EXPECT_GE(covered_to, pipeline().world.address_space_end());
}

TEST(ScopeDiscovery, CandidatesMostlyMatchAuthoritativeScopes) {
  const auto& candidates = scopes(1);
  const auto& domain = pipeline().world.domains()[1].name;
  std::size_t checked = 0, exact = 0;
  for (std::size_t i = 0; i < candidates.size(); i += 7) {
    const auto scope = pipeline().world.authoritative().scope_for(
        domain, candidates[i].scope, 0);
    ASSERT_TRUE(scope.has_value());
    ++checked;
    if (*scope == candidates[i].scope.length()) {
      ++exact;
    } else {
      // Mismatches only come from the announcement clamp, which always
      // makes the re-queried scope more specific.
      EXPECT_GT(*scope, candidates[i].scope.length());
    }
  }
  ASSERT_GT(checked, 50u);
  EXPECT_GT(static_cast<double>(exact) / checked, 0.9);
}

TEST(ScopeDiscovery, FewerCandidatesThanSlash24s) {
  // The whole point of the pre-pass: one query per scope, not per /24.
  const auto& candidates = scopes(0);
  const std::uint32_t slash24s =
      pipeline().world.address_space_end() - (1u << 16);
  EXPECT_LT(candidates.size(), slash24s);
}

TEST(ScopeDiscovery, WikipediaScopesWiderThanGoogle) {
  // Table 5's structural cause: Wikipedia answers /16-18, Google /20-24.
  const auto& google = scopes(0);
  const auto& wikipedia = scopes(sim::kDomainWikipedia);
  EXPECT_GT(google.size(), wikipedia.size() * 2);
}

// -------------------------------------------------------------- pop discovery

TEST(PopDiscovery, Reaches22Pops) {
  const auto& pops = full_run().pops;
  EXPECT_EQ(pops.probed_pops.size(), 22u);
  EXPECT_EQ(pops.vp_pop.size(), anycast::default_vantage_fleet().size());
}

TEST(PopDiscovery, RepresentativeVpActuallyReachesPop) {
  const auto& pops = full_run().pops;
  const auto fleet = anycast::default_vantage_fleet();
  for (const auto& [pop, vp_id] : pops.probed_pops) {
    const auto& vp = fleet[static_cast<std::size_t>(vp_id)];
    EXPECT_EQ(pipeline().gdns->pop_for(vp.location, vp.address.value()), pop);
  }
}

// ---------------------------------------------------------------- calibration

TEST(Calibration, RadiiWithinPhysicalBounds) {
  const auto& calibration = full_run().calibration;
  EXPECT_EQ(calibration.service_radius_km.size(), 22u);
  for (const auto& [pop, radius] : calibration.service_radius_km) {
    EXPECT_GT(radius, 0);
    EXPECT_LE(radius, 5524);  // the paper's max (Zurich fallback)
  }
}

TEST(Calibration, HitDistancesBelowRadiusForMost) {
  const auto& calibration = full_run().calibration;
  for (const auto& [pop, distances] : calibration.hit_distances_km) {
    if (distances.size() < 20) continue;
    const double radius = calibration.service_radius_km.at(pop);
    std::size_t within = 0;
    for (double km : distances) within += km <= radius;
    const double fraction =
        static_cast<double>(within) / static_cast<double>(distances.size());
    EXPECT_NEAR(fraction, 0.9, 0.08) << "PoP " << pop;
  }
}

// ------------------------------------------------------------------- campaign

TEST(Campaign, TcpProbesAreNotRateLimited) {
  EXPECT_EQ(full_run().result.rate_limited, 0u);
  EXPECT_GT(full_run().result.probes_sent, 1000u);
}

TEST(Campaign, HitsCarryPositiveReturnScope) {
  for (const CacheHit& hit : full_run().result.hits) {
    EXPECT_GT(hit.return_scope, 0);
    EXPECT_LE(hit.return_scope, 24);
    EXPECT_LE(hit.return_scope, hit.query_scope.length());
  }
}

TEST(Campaign, BoundsAreOrdered) {
  const auto& result = full_run().result;
  EXPECT_GT(result.slash24_lower_bound(), 0u);
  EXPECT_LE(result.slash24_lower_bound(), result.slash24_upper_bound());
}

TEST(Campaign, PerDomainSetsUnionIntoTotal) {
  const auto& result = full_run().result;
  for (const auto& domain_set : result.active_by_domain) {
    domain_set.for_each([&](net::Prefix p) {
      EXPECT_TRUE(result.active.intersects(p));
    });
  }
}

TEST(Campaign, HighPrecisionAgainstGroundTruth) {
  // <1% of hit scopes should lack any ground-truth client /24 (§4: 99.1%
  // of scopes contain at least one Microsoft-client /24).
  const auto& result = full_run().result;
  std::uint64_t scopes = 0, with_clients = 0;
  result.active.for_each([&](net::Prefix p) {
    ++scopes;
    const auto [first, last] = pipeline().world.block_range(p);
    for (std::size_t b = first; b < last; ++b) {
      if (pipeline().world.blocks()[b].clients() > 0) {
        ++with_clients;
        return;
      }
    }
  });
  ASSERT_GT(scopes, 50u);
  EXPECT_GT(static_cast<double>(with_clients) / scopes, 0.97);
}

TEST(Campaign, RecallOnBusyGoogleDnsBlocks) {
  // Blocks with many Google-DNS users at probed PoPs must be found.
  const auto& result = full_run().result;
  std::unordered_set<anycast::PopId> probed;
  for (const auto& [pop, vp] : full_run().pops.probed_pops) {
    probed.insert(pop);
  }
  std::size_t busy = 0, found = 0;
  for (const sim::Slash24Block& block : pipeline().world.blocks()) {
    if (block.users < 400 || !probed.contains(block.gdns_pop)) continue;
    const sim::AsEntry& as = pipeline().world.ases()[block.as_index];
    if (as.google_dns_share < 0.2) continue;
    if (pipeline().world.country_domain_multiplier(block.country, 0) < 0.5) {
      continue;
    }
    ++busy;
    found += result.active.covers(net::Prefix::from_slash24_index(
        block.index));
  }
  ASSERT_GT(busy, 20u);
  EXPECT_GT(static_cast<double>(found) / busy, 0.9);
}

TEST(Campaign, ExpandedDatasetMatchesUpperBound) {
  const auto& result = full_run().result;
  const PrefixDataset ds = result.to_prefix_dataset("cache probing");
  EXPECT_EQ(ds.size(), result.slash24_upper_bound());
}

TEST(ProbePolicy, DefaultsMatchThePaper) {
  // ProbePolicy is the single source of truth for per-probe behavior; the
  // loose aliases that used to shadow it on CacheProbeOptions are gone.
  const CacheProbeOptions defaults;
  EXPECT_EQ(defaults.probe.transport, googledns::Transport::kTcp);
  EXPECT_EQ(defaults.probe.redundant_queries, 5);
}

TEST(Campaign, UdpCampaignIsRateLimited) {
  // §3.1.1: probing over UDP trips a limit far below 1,500 qps — the
  // reason the real campaign uses TCP.
  Pipeline p(4096);
  CacheProbeOptions options;
  options.probe.transport = googledns::Transport::kUdp;
  options.max_loops = 1;
  CacheProbeCampaign campaign(p.environment(), options);
  const auto result = campaign.run().result;
  EXPECT_GT(result.rate_limited, result.probes_sent / 2);
}

TEST(Campaign, DeterministicAcrossRuns) {
  Pipeline a(4096), b(4096);
  const auto result_a = a.campaign->run().result;
  const auto result_b = b.campaign->run().result;
  EXPECT_EQ(result_a.hits.size(), result_b.hits.size());
  EXPECT_EQ(result_a.slash24_upper_bound(), result_b.slash24_upper_bound());
}

TEST(Campaign, StageMaskReusesPriorArtifacts) {
  // run(kStageCampaign, prior) re-probes on top of the prior run's scopes,
  // PoPs and calibration without recomputing them — and lands on the same
  // result as the all-in-one run.
  Pipeline p(4096);
  CampaignArtifacts staged = p.campaign->run(kStagesAll & ~kStageCampaign);
  ASSERT_EQ(staged.scopes_by_domain.size(), p.campaign->domains().size());
  ASSERT_FALSE(staged.pops.probed_pops.empty());
  staged = p.campaign->run(kStageCampaign, std::move(staged));

  Pipeline q(4096);
  const CampaignArtifacts whole = q.campaign->run();
  EXPECT_EQ(staged.result.hits.size(), whole.result.hits.size());
  EXPECT_EQ(staged.result.probes_sent, whole.result.probes_sent);
  EXPECT_EQ(staged.result.slash24_upper_bound(),
            whole.result.slash24_upper_bound());
}

TEST(CacheProbe, UpstreamRoundTripsEqualTableSize) {
  // Calibration and the campaign each resolve every (domain, scope) they
  // probe once, in one table that all PoPs read: the upstream round trips
  // are the sample times the four calibration domains, then one per
  // candidate, at any thread count.
  obs::Counter& round_trips =
      obs::Registry::global().counter("googledns.upstream.round_trips");
  for (const int threads : {1, 4}) {
    Pipeline p(4096);
    CacheProbeOptions options;
    options.threads = threads;
    const ProbeEnvironment env = p.environment();
    const PopDiscoveryResult pops = discover_pops(env);
    ASSERT_GT(pops.probed_pops.size(), 1u);

    std::uint64_t before = round_trips.value();
    const CalibrationResult calibration = calibrate(env, options, pops);
    ASSERT_GT(calibration.sampled_prefixes, 0u);
    EXPECT_EQ(round_trips.value() - before, calibration.sampled_prefixes * 4)
        << threads << " threads";

    std::vector<std::vector<ProbeCandidate>> scopes;
    std::uint64_t candidates = 0;
    for (std::size_t d = 0; d < env.domains.size(); ++d) {
      scopes.push_back(discover_scopes(env, options, static_cast<int>(d)));
      candidates += scopes.back().size();
    }
    ASSERT_GT(candidates, 0u);
    before = round_trips.value();
    run_campaign(env, options, pops, calibration, &scopes);
    EXPECT_EQ(round_trips.value() - before, candidates)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace netclients::core
