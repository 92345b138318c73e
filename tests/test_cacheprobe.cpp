// Tests for the cache-probing pipeline: scope discovery, PoP discovery,
// service-radius calibration, the probing campaign, and active-prefix
// inference — validated against the simulator's ground truth at small
// scale.

#include <gtest/gtest.h>

#include <unordered_set>

#include "anycast/vantage.h"
#include "core/cacheprobe/cacheprobe.h"
#include "core/obs/obs.h"
#include "core/scenario/scenario.h"

namespace netclients::core {
namespace {

Scenario build(double scale_denominator = 512,
               const CacheProbeOptions& options = {}) {
  return ScenarioBuilder()
      .scale_denominator(scale_denominator)
      .probe_options(options)
      .build();
}

const Scenario& scenario() {
  static const Scenario s = build();
  return s;
}

const CampaignArtifacts& full_run() {
  static const CampaignArtifacts run =
      run_probing(scenario().env, scenario().options);
  return run;
}

// One scope discovery covers every domain the scope tests inspect.
const std::vector<net::Prefix>& scopes(int domain_index) {
  static const std::vector<std::vector<net::Prefix>> lists =
      discover_scopes(scenario().env, scenario().options);
  return lists[static_cast<std::size_t>(domain_index)];
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
  for (const net::Prefix& c : candidates) {
    EXPECT_LE(c.first_slash24_index(), covered_to)
        << "gap before " << c.to_string();
    const std::uint32_t end = c.first_slash24_index() +
                              static_cast<std::uint32_t>(c.slash24_count());
    EXPECT_GT(end, covered_to) << "non-advancing " << c.to_string();
    covered_to = end;
  }
  EXPECT_GE(covered_to, scenario().world().address_space_end());
}

TEST(ScopeDiscovery, CandidatesMostlyMatchAuthoritativeScopes) {
  const auto& candidates = scopes(1);
  const auto& domain = scenario().world().domains()[1].name;
  std::size_t checked = 0, exact = 0;
  for (std::size_t i = 0; i < candidates.size(); i += 7) {
    const auto scope = scenario().world().authoritative().scope_for(
        domain, candidates[i], 0);
    ASSERT_TRUE(scope.has_value());
    ++checked;
    if (*scope == candidates[i].length()) {
      ++exact;
    } else {
      // Mismatches only come from the announcement clamp, which always
      // makes the re-queried scope more specific.
      EXPECT_GT(*scope, candidates[i].length());
    }
  }
  ASSERT_GT(checked, 50u);
  EXPECT_GT(static_cast<double>(exact) / checked, 0.9);
}

TEST(ScopeDiscovery, FewerCandidatesThanSlash24s) {
  // The whole point of the pre-pass: one query per scope, not per /24.
  const auto& candidates = scopes(0);
  const std::uint32_t slash24s =
      scenario().world().address_space_end() - (1u << 16);
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
    EXPECT_EQ(scenario().google_dns->pop_for(vp.location, vp.address.value()),
              pop);
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
    const auto [first, last] = scenario().world().block_range(p);
    for (std::size_t b = first; b < last; ++b) {
      if (scenario().world().blocks()[b].clients() > 0) {
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
  for (const sim::Slash24Block& block : scenario().world().blocks()) {
    if (block.users < 400 || !probed.contains(block.gdns_pop)) continue;
    const sim::AsEntry& as = scenario().world().ases()[block.as_index];
    if (as.google_dns_share < 0.2) continue;
    if (scenario().world().country_domain_multiplier(block.country, 0) < 0.5) {
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
  CacheProbeOptions options;
  options.probe.transport = googledns::Transport::kUdp;
  options.max_loops = 1;
  const Scenario s = build(4096, options);
  const auto result = run_probing(s.env, s.options).result;
  EXPECT_GT(result.rate_limited, result.probes_sent / 2);
}

TEST(Campaign, DeterministicAcrossRuns) {
  const Scenario a = build(4096), b = build(4096);
  const auto result_a = run_probing(a.env, a.options).result;
  const auto result_b = run_probing(b.env, b.options).result;
  EXPECT_EQ(result_a.hits.size(), result_b.hits.size());
  EXPECT_EQ(result_a.slash24_upper_bound(), result_b.slash24_upper_bound());
}

std::vector<net::Prefix> active_prefixes(const CampaignResult& result) {
  std::vector<net::Prefix> out;
  result.active.for_each([&](net::Prefix p) { out.push_back(p); });
  return out;
}

TEST(Campaign, PassedScopesEqualInternalDiscovery) {
  // A sweep discovers scopes once and passes them to every campaign: the
  // result must be the discovering call's, hit for hit. Each run gets a
  // fresh substrate so neither sees the other's probes.
  for (const int threads : {1, 4}) {
    CacheProbeOptions options;
    options.threads = threads;
    const Scenario a = build(4096, options), b = build(4096, options);
    const PopDiscoveryResult pops = discover_pops(a.env);
    const CalibrationResult calibration = calibrate(a.env, options, pops);
    const CampaignResult discovering =
        run_campaign(a.env, options, pops, calibration);

    const auto scopes = discover_scopes(b.env, options);
    ASSERT_EQ(scopes.size(), b.env.domains.size());
    const CalibrationResult b_calibration = calibrate(b.env, options, pops);
    const CampaignResult passed =
        run_campaign(b.env, options, pops, b_calibration, &scopes);

    SCOPED_TRACE(testing::Message() << threads << " threads");
    ASSERT_GT(discovering.hits.size(), 0u);
    ASSERT_EQ(passed.hits.size(), discovering.hits.size());
    for (std::size_t i = 0; i < passed.hits.size(); ++i) {
      const CacheHit& x = passed.hits[i];
      const CacheHit& y = discovering.hits[i];
      EXPECT_EQ(x.domain_index, y.domain_index) << "hit " << i;
      EXPECT_EQ(x.query_scope, y.query_scope) << "hit " << i;
      EXPECT_EQ(x.return_scope, y.return_scope) << "hit " << i;
      EXPECT_EQ(x.pop, y.pop) << "hit " << i;
      EXPECT_EQ(x.when, y.when) << "hit " << i;
    }
    EXPECT_EQ(passed.probes_sent, discovering.probes_sent);
    EXPECT_EQ(passed.rate_limited, discovering.rate_limited);
    EXPECT_EQ(active_prefixes(passed), active_prefixes(discovering));
  }
}

TEST(CacheProbe, UpstreamRoundTripsEqualTableSize) {
  // Calibration and the campaign each resolve every (domain, scope) they
  // probe once, in one table that all PoPs read: the upstream round trips
  // are the sample times the four calibration domains, then one per
  // candidate, at any thread count.
  obs::Counter& round_trips =
      obs::Registry::global().counter("googledns.upstream.round_trips");
  for (const int threads : {1, 4}) {
    CacheProbeOptions options;
    options.threads = threads;
    const Scenario s = build(4096, options);
    const ProbeEnvironment& env = s.env;
    const PopDiscoveryResult pops = discover_pops(env);
    ASSERT_GT(pops.probed_pops.size(), 1u);

    std::uint64_t before = round_trips.value();
    const CalibrationResult calibration = calibrate(env, options, pops);
    ASSERT_GT(calibration.sampled_prefixes, 0u);
    EXPECT_EQ(round_trips.value() - before, calibration.sampled_prefixes * 4)
        << threads << " threads";

    const auto scopes = discover_scopes(env, options);
    std::uint64_t candidates = 0;
    for (const auto& list : scopes) candidates += list.size();
    ASSERT_GT(candidates, 0u);
    before = round_trips.value();
    run_campaign(env, options, pops, calibration, &scopes);
    EXPECT_EQ(round_trips.value() - before, candidates)
        << threads << " threads";
  }
}

}  // namespace
}  // namespace netclients::core
