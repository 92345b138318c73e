// Tests for the Google Public DNS model (labels: determinism, tsan): RD=0
// cache-snooping semantics, ECS scope matching, pool redundancy, rate
// limiting, the o-o.myaddr service, consistency between the explicit
// (event-driven) cache and the analytic occupancy model, and the per-PoP
// concurrency contract.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/obs/obs.h"
#include "dns/packet.h"
#include "dns/wire.h"
#include "googledns/google_dns.h"
#include "net/rng.h"

namespace netclients::googledns {
namespace {

class FixedRateActivity final : public ClientActivityModel {
 public:
  explicit FixedRateActivity(double rate) : rate_(rate) {}
  double arrival_rate(anycast::PopId, const dns::DnsName&,
                      net::Prefix) const override {
    return rate_;
  }

 private:
  double rate_;
};

struct Fixture {
  explicit Fixture(double analytic_rate = -1, std::uint8_t min_scope = 20,
                   std::uint8_t max_scope = 24, double drift = 0.0)
      : pops(anycast::PopTable::google_default()),
        catchment(&pops, 42, 0.22) {
    dnssrv::ZoneConfig zone;
    zone.name = *dns::DnsName::parse("www.example.com");
    zone.ttl_seconds = 300;
    zone.min_scope = min_scope;
    zone.max_scope = max_scope;
    zone.scope_drift_probability = drift;
    zone.seed = 99;
    auth.add_zone(zone);
    dnssrv::ZoneConfig no_ecs;
    no_ecs.name = *dns::DnsName::parse("noecs.example.com");
    no_ecs.supports_ecs = false;
    no_ecs.ttl_seconds = 300;
    auth.add_zone(no_ecs);
    if (analytic_rate >= 0) {
      activity = std::make_unique<FixedRateActivity>(analytic_rate);
    }
    gdns = std::make_unique<GooglePublicDns>(&pops, &catchment, &auth,
                                             GoogleDnsConfig{},
                                             activity.get());
  }

  anycast::PopTable pops;
  anycast::CatchmentModel catchment;
  dnssrv::AuthoritativeServer auth;
  std::unique_ptr<FixedRateActivity> activity;
  std::unique_ptr<GooglePublicDns> gdns;
  const dns::DnsName domain = *dns::DnsName::parse("www.example.com");
};

net::Prefix scope_block_for(Fixture& f, net::Ipv4Addr client) {
  const auto scope = f.auth.scope_for(f.domain,
                                      net::Prefix::slash24_of(client),
                                      f.gdns->config().epoch);
  return net::Prefix::slash24_of(client).widen_to(*scope);
}

TEST(GoogleDns, SnoopMissesEmptyCache) {
  Fixture f;
  const auto probe = f.gdns->probe(0, f.domain,
                                   *net::Prefix::parse("10.1.2.0/24"), 1.0,
                                   Transport::kTcp, 0, 0);
  EXPECT_FALSE(probe.cache_hit);
  EXPECT_EQ(probe.status, ProbeStatus::kOk);
}

TEST(GoogleDns, ClientQueryThenSnoopHits) {
  Fixture f;
  const net::Ipv4Addr client = *net::Ipv4Addr::parse("100.64.5.9");
  // Redundant attempts (paper: 5) cover the independent cache pools.
  f.gdns->client_query(0, f.domain, client, 10.0);
  bool hit = false;
  std::uint8_t return_scope = 0;
  for (int attempt = 0; attempt < 16 && !hit; ++attempt) {
    const auto probe = f.gdns->probe(0, f.domain, scope_block_for(f, client),
                                     20.0, Transport::kTcp, 0, attempt);
    hit = probe.cache_hit;
    return_scope = probe.return_scope;
  }
  EXPECT_TRUE(hit);
  EXPECT_GT(return_scope, 0);
}

TEST(GoogleDns, HitExpiresWithTtl) {
  Fixture f;
  const net::Ipv4Addr client = *net::Ipv4Addr::parse("100.64.5.9");
  f.gdns->client_query(0, f.domain, client, 10.0);
  bool hit = false;
  for (int attempt = 0; attempt < 16 && !hit; ++attempt) {
    hit = f.gdns->probe(0, f.domain, scope_block_for(f, client), 10.0 + 400,
                        Transport::kTcp, 0, attempt)
              .cache_hit;
  }
  EXPECT_FALSE(hit) << "entry outlived its 300s TTL";
}

TEST(GoogleDns, CacheIsPerPop) {
  Fixture f;
  const net::Ipv4Addr client = *net::Ipv4Addr::parse("100.64.5.9");
  f.gdns->client_query(3, f.domain, client, 10.0);
  bool hit_other_pop = false;
  for (int attempt = 0; attempt < 16; ++attempt) {
    hit_other_pop |= f.gdns->probe(7, f.domain, scope_block_for(f, client),
                                   20.0, Transport::kTcp, 0, attempt)
                         .cache_hit;
  }
  EXPECT_FALSE(hit_other_pop)
      << "anycast PoPs have independent caches (§3.1.1)";
}

TEST(GoogleDns, QueryScopeNarrowerThanEntryStillHits) {
  // RFC 7871: a cached /20-scoped entry answers queries with /24 sources
  // inside it. Probing the /24 therefore works even when the entry is
  // wider — the calibration stage relies on this.
  Fixture f;
  const net::Ipv4Addr client = *net::Ipv4Addr::parse("100.64.5.9");
  f.gdns->client_query(0, f.domain, client, 10.0);
  bool hit = false;
  for (int attempt = 0; attempt < 16 && !hit; ++attempt) {
    hit = f.gdns->probe(0, f.domain, net::Prefix::slash24_of(client), 20.0,
                        Transport::kTcp, 0, attempt)
              .cache_hit;
  }
  EXPECT_TRUE(hit);
}

TEST(GoogleDns, QueryScopeWiderThanEntryMisses) {
  // The inverse direction must miss: an entry scoped /20+ cannot answer a
  // query whose ECS source is the /16 containing it.
  Fixture f;
  const net::Ipv4Addr client = *net::Ipv4Addr::parse("100.64.5.9");
  f.gdns->client_query(0, f.domain, client, 10.0);
  bool hit = false;
  for (int attempt = 0; attempt < 16; ++attempt) {
    hit |= f.gdns->probe(0, f.domain, net::Prefix(client, 16), 20.0,
                         Transport::kTcp, 0, attempt)
               .cache_hit;
  }
  EXPECT_FALSE(hit);
}

TEST(GoogleDns, NonEcsDomainReturnsScopeZero) {
  Fixture f(10.0);  // analytic activity everywhere
  const auto name = *dns::DnsName::parse("noecs.example.com");
  const auto probe = f.gdns->probe(0, name,
                                   *net::Prefix::parse("10.1.2.0/24"), 50.0,
                                   Transport::kTcp, 0, 0);
  // Whatever the occupancy, a hit must carry scope 0 — which the pipeline
  // discards as carrying no per-prefix signal.
  if (probe.cache_hit) {
    EXPECT_EQ(probe.return_scope, 0);
  }
}

TEST(GoogleDns, UnknownDomainNeverHits) {
  Fixture f(10.0);
  const auto probe = f.gdns->probe(0, *dns::DnsName::parse("nope.example"),
                                   *net::Prefix::parse("10.1.2.0/24"), 50.0,
                                   Transport::kTcp, 0, 0);
  EXPECT_FALSE(probe.cache_hit);
}

TEST(GoogleDns, UnknownZoneCountedPerProbeAndSeenOnceAdded) {
  // The scope memo holds only known zones: every probe of an unknown
  // domain counts, and a zone added later is seen by the next probe.
  Fixture f(10.0);  // analytic activity everywhere
  auto& registry = obs::Registry::global();
  obs::Counter& unknown = registry.counter("googledns.probe.unknown_zone");
  obs::Counter& sent = registry.counter("googledns.probe.sent");
  const std::uint64_t unknown_before = unknown.value();
  const std::uint64_t sent_before = sent.value();
  const auto name = *dns::DnsName::parse("late.example.com");
  const auto scope = *net::Prefix::parse("10.1.2.0/24");
  for (double t : {50.0, 51.0}) {
    EXPECT_FALSE(
        f.gdns->probe(0, name, scope, t, Transport::kTcp, 0, 0).cache_hit);
  }
  EXPECT_EQ(unknown.value() - unknown_before, 2u);
  EXPECT_EQ(sent.value() - sent_before, 2u);

  dnssrv::ZoneConfig zone;
  zone.name = name;
  zone.ttl_seconds = 300;
  zone.min_scope = 24;
  zone.max_scope = 24;
  f.auth.add_zone(zone);
  EXPECT_TRUE(
      f.gdns->probe(0, name, scope, 52.0, Transport::kTcp, 0, 0).cache_hit);
  EXPECT_EQ(unknown.value() - unknown_before, 2u);
  EXPECT_EQ(sent.value() - sent_before, 3u);
}

TEST(GoogleDns, AnalyticHighRateHits) {
  Fixture f(10.0);  // 10 qps per (pop, block): cache effectively always warm
  int hits = 0;
  net::Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    const net::Prefix block(net::Ipv4Addr(static_cast<std::uint32_t>(rng())),
                            24);
    const net::Prefix query =
        block.widen_to(*f.auth.scope_for(f.domain, block, 1));
    hits += f.gdns
                ->probe(0, f.domain, query, 1000.0 + i, Transport::kTcp, 0, 0)
                .cache_hit;
  }
  EXPECT_GT(hits, 45);
}

TEST(GoogleDns, AnalyticZeroRateNeverHits) {
  Fixture f(0.0);
  net::Rng rng(2);
  for (int i = 0; i < 50; ++i) {
    const net::Prefix block(net::Ipv4Addr(static_cast<std::uint32_t>(rng())),
                            24);
    EXPECT_FALSE(
        f.gdns->probe(0, f.domain, block, 1000.0 + i, Transport::kTcp, 0, 0)
            .cache_hit);
  }
}

TEST(GoogleDns, AnalyticOccupancyConsistentAcrossRepeatedProbes) {
  Fixture f(0.01);
  const net::Prefix block = *net::Prefix::parse("10.4.0.0/24");
  const net::Prefix query =
      block.widen_to(*f.auth.scope_for(f.domain, block, 1));
  const auto first = f.gdns->probe(0, f.domain, query, 500.0,
                                   Transport::kTcp, 0, 3);
  const auto second = f.gdns->probe(0, f.domain, query, 500.0,
                                    Transport::kTcp, 0, 3);
  EXPECT_EQ(first.cache_hit, second.cache_hit);
  EXPECT_EQ(first.return_scope, second.return_scope);
}

TEST(GoogleDns, AnalyticHitFrequencyMatchesRenewalModel) {
  // P(entry present) for Poisson arrivals at rate λ per pool with TTL T is
  // 1 - exp(-λT). Probe many distinct blocks once each and compare.
  const double rate = 0.002;  // per block; /4 pools => λ=0.0005, T=300
  Fixture f(rate);
  const double per_pool = rate / f.gdns->config().pools_per_pop;
  const double expected = 1.0 - std::exp(-per_pool * 300.0);
  net::Rng rng(3);
  int hits = 0;
  const int n = 3000;
  for (int i = 0; i < n; ++i) {
    const net::Prefix block(net::Ipv4Addr(static_cast<std::uint32_t>(rng())),
                            24);
    const net::Prefix query =
        block.widen_to(*f.auth.scope_for(f.domain, block, 1));
    hits += f.gdns
                ->probe(0, f.domain, query, 1e4 + i * 7.0, Transport::kTcp,
                        0, 0)
                .cache_hit;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, expected, 0.02);
}

TEST(GoogleDns, UdpRateLimitTripsTcpDoesNot) {
  Fixture f;
  int udp_limited = 0, tcp_limited = 0;
  for (int i = 0; i < 2000; ++i) {
    const double t = i * 0.002;  // 500 qps
    udp_limited += f.gdns
                       ->probe(0, f.domain,
                               *net::Prefix::parse("10.0.0.0/24"), t,
                               Transport::kUdp, 1, i)
                       .status == ProbeStatus::kRateLimited;
    tcp_limited += f.gdns
                       ->probe(0, f.domain,
                               *net::Prefix::parse("10.0.0.0/24"), t,
                               Transport::kTcp, 1, i)
                       .status == ProbeStatus::kRateLimited;
  }
  EXPECT_GT(udp_limited, 1500) << "repeated-domain UDP limit should trip";
  EXPECT_EQ(tcp_limited, 0) << "TCP stays under the 1500 qps limit";
}

TEST(GoogleDns, MyaddrWireServiceReportsPop) {
  Fixture f;
  const auto query = dns::make_query(1, GooglePublicDns::myaddr_name(),
                                     dns::RecordType::kTxt, true);
  const net::LatLon groningen{53.2, 6.6};
  const auto response =
      f.gdns->handle(query, groningen, 77, 0.0, Transport::kUdp);
  ASSERT_EQ(response.answers.size(), 1u);
  const auto& txt = std::get<dns::TxtData>(response.answers[0].rdata);
  const anycast::PopId expected = f.gdns->pop_for(groningen, 77);
  EXPECT_EQ(txt.text, f.pops.site(expected).city);
}

TEST(GoogleDns, WireSnoopPathMatchesDirectProbe) {
  Fixture f;
  const net::Ipv4Addr client = *net::Ipv4Addr::parse("100.64.5.9");
  const net::LatLon vp_loc{39.0, -77.5};
  const anycast::PopId pop = f.gdns->pop_for(vp_loc, 1);
  f.gdns->client_query(pop, f.domain, client, 10.0);
  // Snoop over the wire: RD=0 + ECS, via encode/decode round trip.
  bool hit = false;
  for (std::uint16_t id = 0; id < 16 && !hit; ++id) {
    auto query = dns::make_query(
        id, f.domain, dns::RecordType::kA, false,
        dns::EcsOption::for_query(scope_block_for(f, client)));
    const auto wire = dns::encode(query);
    const auto decoded = dns::decode(wire);
    ASSERT_TRUE(decoded.ok);
    const auto response =
        f.gdns->handle(decoded.message, vp_loc, 1, 20.0, Transport::kTcp, 1);
    hit = !response.answers.empty();
    if (hit) {
      ASSERT_TRUE(response.edns && response.edns->ecs);
      EXPECT_GT(response.edns->ecs->scope_prefix_length, 0);
    }
  }
  EXPECT_TRUE(hit);
}

TEST(GoogleDns, RecursiveWireQueryPopulatesCache) {
  Fixture f;
  auto query = dns::make_query(
      5, f.domain, dns::RecordType::kA, true,
      dns::EcsOption::for_query(*net::Prefix::parse("100.64.5.0/24")));
  const auto response =
      f.gdns->handle(query, {39.0, -77.5}, 2, 1.0, Transport::kUdp);
  EXPECT_EQ(response.answers.size(), 1u);
  EXPECT_GE(f.gdns->explicit_entries(), 1u);
}

TEST(GoogleDns, UpstreamProbeStreamPinned) {
  // Client fills and snoops over an ECS zone, an ECS-oblivious zone and an
  // unknown one: every upstream fetch is an RFC 1035 round trip to the
  // authoritative. Each probe's outcome is folded into a pinned digest,
  // and every hit must carry the scope the authoritative assigns the
  // client's /24.
  Fixture f;
  net::Rng rng(0x31u);
  const auto noecs = *dns::DnsName::parse("noecs.example.com");
  const auto unknown = *dns::DnsName::parse("nope.example");
  std::uint64_t digest = 0;
  int hits = 0;
  for (int i = 0; i < 60; ++i) {
    const net::Ipv4Addr client(static_cast<std::uint32_t>(rng()));
    const dns::DnsName& domain = i % 5 == 3   ? noecs
                                 : i % 7 == 6 ? unknown
                                              : f.domain;
    const auto pop = static_cast<anycast::PopId>(rng.below(4));
    const double t = 10.0 + i;
    f.gdns->client_query(pop, domain, client, t);
    for (int attempt = 0; attempt < 6; ++attempt) {
      const auto query_scope = domain == f.domain
                                   ? scope_block_for(f, client)
                                   : net::Prefix::slash24_of(client);
      const auto probe = f.gdns->probe(pop, domain, query_scope, t + 5,
                                       Transport::kTcp, 0, attempt);
      digest = net::stable_seed(digest, probe.cache_hit, probe.return_scope,
                                probe.remaining_ttl,
                                static_cast<std::uint64_t>(probe.status),
                                static_cast<std::uint64_t>(probe.pop));
      if (!probe.cache_hit) continue;
      ++hits;
      const auto scope = f.auth.scope_for(
          domain, net::Prefix::slash24_of(client), f.gdns->config().epoch);
      ASSERT_TRUE(scope.has_value()) << "iter " << i;
      EXPECT_EQ(probe.return_scope, *scope) << "iter " << i;
    }
  }
  EXPECT_EQ(hits, 106);
  EXPECT_EQ(digest, 17292499017138000010ull);
}

TEST(GoogleDns, HandleWireByteIdenticalToStructuredPath) {
  // Two fixtures fed the identical query stream, one through handle_wire,
  // one through decode → handle → encode: stateful effects (cache fills,
  // rate limiting) evolve in lockstep, so every response must be
  // byte-identical. (handle() mutates state, so replaying both entry
  // points on one instance would double-charge it.)
  Fixture f, ref;
  dns::WireArena arena;
  const net::LatLon vp_loc{39.0, -77.5};
  net::Rng rng(0x77);
  for (int i = 0; i < 60; ++i) {
    std::optional<dns::EcsOption> ecs;
    if (rng.bernoulli(0.7)) {
      ecs = dns::EcsOption::for_query(
          net::Prefix(net::Ipv4Addr(static_cast<std::uint32_t>(rng())), 24));
    }
    const bool myaddr = rng.bernoulli(0.2);
    const auto query = dns::make_query(
        static_cast<std::uint16_t>(rng()),
        myaddr ? GooglePublicDns::myaddr_name() : f.domain,
        myaddr ? dns::RecordType::kTxt : dns::RecordType::kA,
        rng.bernoulli(0.5), ecs);
    const auto query_wire = dns::encode(query);
    const double now = 1.0 + i;
    const auto transport = rng.bernoulli(0.5) ? Transport::kUdp
                                              : Transport::kTcp;
    const auto decoded = dns::decode(query_wire);
    ASSERT_TRUE(decoded.ok);
    const auto expected = dns::encode(
        ref.gdns->handle(decoded.message, vp_loc, 7, now, transport, 1));
    const auto got = f.gdns->handle_wire(query_wire, vp_loc, 7, now,
                                         transport, arena, 1);
    EXPECT_EQ(expected, std::vector<std::uint8_t>(got.begin(), got.end()));
  }
}

// One PoP's probe stream: client fills, then UDP probes fast enough to
// trip the repeated-query limit and TCP probes with scopes discovered one
// epoch before the probing epoch, so some have drifted.
std::vector<ProbeResult> probe_one_pop(Fixture& f, anycast::PopId pop) {
  std::vector<ProbeResult> results;
  net::Rng rng(net::stable_seed(0xD15C, static_cast<std::uint64_t>(pop)));
  for (int i = 0; i < 300; ++i) {
    const net::Ipv4Addr client(static_cast<std::uint32_t>(rng()));
    const net::Prefix block = net::Prefix::slash24_of(client);
    const net::Prefix query = block.widen_to(*f.auth.scope_for(
        f.domain, block, f.gdns->config().epoch - 1));
    const double t = 10.0 + i * 0.01;
    if (i % 3 == 0) f.gdns->client_query(pop, f.domain, client, t);
    for (int attempt = 0; attempt < 3; ++attempt) {
      const Transport transport =
          attempt == 0 ? Transport::kUdp : Transport::kTcp;
      results.push_back(f.gdns->probe(pop, f.domain, query, t + 0.001 * attempt,
                                      transport, pop, attempt));
    }
  }
  return results;
}

TEST(GoogleDns, ConcurrentDistinctPopsMatchSerial) {
  // PoP state is partitioned, so four threads each driving their own PoP
  // must observe exactly what one thread driving the PoPs in turn does.
  constexpr anycast::PopId kPops = 4;
  const auto limited = [] {
    return obs::Registry::global()
        .counter("googledns.probe.rate_limited")
        .value();
  };
  const auto analytic = [] {
    return obs::Registry::global()
        .counter("googledns.probe.hit_analytic")
        .value();
  };
  const auto drifted = [] {
    return obs::Registry::global()
        .counter("googledns.probe.scope_drift_miss")
        .value();
  };
  Fixture serial(0.05, 16, 24, 0.5), concurrent(0.05, 16, 24, 0.5);
  const auto limited0 = limited(), analytic0 = analytic(),
             drifted0 = drifted();
  std::vector<std::vector<ProbeResult>> expected;
  for (anycast::PopId pop = 0; pop < kPops; ++pop) {
    expected.push_back(probe_one_pop(serial, pop));
  }
  // The stream exercises all three per-PoP paths.
  EXPECT_GT(limited(), limited0);
  EXPECT_GT(analytic(), analytic0);
  EXPECT_GT(drifted(), drifted0);

  std::vector<std::vector<ProbeResult>> got(kPops);
  std::vector<std::thread> threads;
  for (anycast::PopId pop = 0; pop < kPops; ++pop) {
    threads.emplace_back([&, pop] {
      got[static_cast<std::size_t>(pop)] = probe_one_pop(concurrent, pop);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (std::size_t p = 0; p < expected.size(); ++p) {
    ASSERT_EQ(got[p].size(), expected[p].size());
    for (std::size_t i = 0; i < expected[p].size(); ++i) {
      const ProbeResult& a = expected[p][i];
      const ProbeResult& b = got[p][i];
      ASSERT_EQ(a.status, b.status) << "pop " << p << " probe " << i;
      EXPECT_EQ(a.cache_hit, b.cache_hit);
      EXPECT_EQ(a.return_scope, b.return_scope);
      EXPECT_EQ(a.remaining_ttl, b.remaining_ttl);
      EXPECT_EQ(a.pop, b.pop);
    }
  }
  EXPECT_EQ(concurrent.gdns->explicit_entries(),
            serial.gdns->explicit_entries());
}

TEST(GoogleDns, OutOfRangePopIdIsRejected) {
  // kNoPop is what an all-inactive catchment returns; a RouteBias
  // alternate can hold any id. Either must throw before touching any
  // state or counter — never alias or invent a PoP's caches.
  Fixture f(10.0);
  const anycast::PopId past_end = static_cast<anycast::PopId>(f.pops.size());
  obs::Counter& sent =
      obs::Registry::global().counter("googledns.probe.sent");
  obs::Counter& client_sent =
      obs::Registry::global().counter("googledns.client_query.sent");
  const auto sent0 = sent.value();
  const auto client_sent0 = client_sent.value();
  const net::Ipv4Addr client = *net::Ipv4Addr::parse("100.64.5.9");
  for (const anycast::PopId pop : {anycast::kNoPop, past_end}) {
    EXPECT_THROW(f.gdns->probe(pop, f.domain, net::Prefix::slash24_of(client),
                               1.0, Transport::kTcp, 0, 0),
                 std::out_of_range);
    EXPECT_THROW(f.gdns->client_query(pop, f.domain, client, 1.0),
                 std::out_of_range);

    anycast::RouteBias misroute;
    misroute.misroute_probability = 1.0;
    misroute.alternates = {pop};
    const auto snoop = dns::make_query(
        1, f.domain, dns::RecordType::kA, false,
        dns::EcsOption::for_query(net::Prefix::slash24_of(client)));
    const auto recurse = dns::make_query(
        2, f.domain, dns::RecordType::kA, true,
        dns::EcsOption::for_query(net::Prefix::slash24_of(client)));
    const auto myaddr = dns::make_query(3, GooglePublicDns::myaddr_name(),
                                        dns::RecordType::kTxt, true);
    for (const dns::DnsMessage& query : {snoop, recurse, myaddr}) {
      EXPECT_THROW(f.gdns->handle(query, {39.0, -77.5}, 7, 1.0,
                                  Transport::kUdp, 0, misroute),
                   std::out_of_range);
    }
  }
  EXPECT_EQ(sent.value(), sent0);
  EXPECT_EQ(client_sent.value(), client_sent0);
  EXPECT_EQ(f.gdns->explicit_entries(), 0u);
}

TEST(GoogleDns, ExplicitEntriesCountsCacheContents) {
  Fixture f;
  EXPECT_EQ(f.gdns->explicit_entries(), 0u);
  f.gdns->client_query(0, f.domain, *net::Ipv4Addr::parse("100.64.5.9"), 1);
  f.gdns->client_query(0, f.domain, *net::Ipv4Addr::parse("200.1.2.3"), 1);
  EXPECT_EQ(f.gdns->explicit_entries(), 2u);
}

}  // namespace
}  // namespace netclients::googledns
