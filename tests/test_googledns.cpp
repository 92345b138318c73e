// Tests for the Google Public DNS model (labels: determinism, tsan): RD=0
// cache-snooping semantics over the activity model's occupancy (clients
// planted per PoP, domain and scope block, or a flat rate), ECS scope
// matching, pool redundancy, rate limiting, the o-o.myaddr service, the
// in-place wire front end against the reference server in dns_testing.h,
// and the per-PoP concurrency contract.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <span>
#include <thread>
#include <vector>

#include "core/obs/obs.h"
#include "dns/packet.h"
#include "dns_testing.h"
#include "googledns/google_dns.h"
#include "net/rng.h"
#include "sim/activity.h"
#include "sim/world.h"

namespace netclients::googledns {
namespace {

class FixedRateActivity final : public ClientActivityModel {
 public:
  explicit FixedRateActivity(double rate) : rate_(rate) {}
  ArrivalRate rate(anycast::PopId, const dns::DnsName&,
                   net::Prefix) const override {
    return {.flat = rate_};
  }

 private:
  double rate_;
};

// A flat `analytic_rate` everywhere when it is >= 0; otherwise the clients
// planted in `planted` (none until a test plants them).
struct Fixture {
  explicit Fixture(double analytic_rate = -1, std::uint8_t min_scope = 20,
                   std::uint8_t max_scope = 24, double drift = 0.0,
                   GoogleDnsConfig config = {})
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
    gdns = std::make_unique<GooglePublicDns>(
        &pops, &catchment, &auth, config,
        activity ? static_cast<const ClientActivityModel*>(activity.get())
                 : &planted);
  }

  anycast::PopTable pops;
  anycast::CatchmentModel catchment;
  dnssrv::AuthoritativeServer auth;
  std::unique_ptr<FixedRateActivity> activity;
  dns_testing::PlantedActivity planted;
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

/// The reply `f` writes for `query`, read back through the oracle.
dns::DnsMessage wire_reply(Fixture& f, const dns::DnsMessage& query,
                           net::LatLon source, std::uint64_t route_key,
                           net::SimTime now, Transport transport,
                           int vp_id = 0) {
  dns::WireArena arena;
  const auto decoded = dns::decode(f.gdns->handle_wire(
      dns::encode(query), source, route_key, now, transport, arena, vp_id));
  EXPECT_TRUE(decoded.ok) << decoded.error;
  return decoded.message;
}

TEST(GoogleDns, PlantedClientsThenSnoopHits) {
  Fixture f;
  const net::Ipv4Addr client = *net::Ipv4Addr::parse("100.64.5.9");
  // Redundant attempts (paper: 5) cover the independent cache pools.
  f.planted.plant(0, f.domain, scope_block_for(f, client), 1.0);
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

TEST(GoogleDns, CacheIsPerPop) {
  Fixture f;
  const net::Ipv4Addr client = *net::Ipv4Addr::parse("100.64.5.9");
  f.planted.plant(3, f.domain, scope_block_for(f, client), 1.0);
  bool hit_own_pop = false, hit_other_pop = false;
  for (int attempt = 0; attempt < 16; ++attempt) {
    hit_own_pop |= f.gdns->probe(3, f.domain, scope_block_for(f, client),
                                 20.0, Transport::kTcp, 0, attempt)
                       .cache_hit;
    hit_other_pop |= f.gdns->probe(7, f.domain, scope_block_for(f, client),
                                   20.0, Transport::kTcp, 0, attempt)
                         .cache_hit;
  }
  EXPECT_TRUE(hit_own_pop);
  EXPECT_FALSE(hit_other_pop)
      << "anycast PoPs have independent caches (§3.1.1)";
}

TEST(GoogleDns, QueryScopeNarrowerThanEntryStillHits) {
  // RFC 7871: a cached /20-scoped entry answers queries with /24 sources
  // inside it. Probing the /24 therefore works even when the entry is
  // wider — the calibration stage relies on this.
  Fixture f;
  const net::Ipv4Addr client = *net::Ipv4Addr::parse("100.64.5.9");
  f.planted.plant(0, f.domain, scope_block_for(f, client), 1.0);
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
  f.planted.plant(0, f.domain, scope_block_for(f, client), 1.0);
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
  // Every probe of an unknown domain counts, and since each probe of a
  // fresh target asks the authoritative again, a zone added later is seen
  // by the next probe.
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

TEST(GoogleDns, ReusedTargetMatchesFreshTargetOverTime) {
  // A diurnal world: the clients' rate swings over the day, so one target
  // probed across two days must answer exactly as a fresh target built
  // for each probe does. A target that froze the rate at its first probe
  // would drift from the fresh ones. Both front ends see the same probe
  // stream, so their flow limiters evolve in lockstep.
  sim::WorldConfig config;
  config.scale = 1.0 / 2048;
  config.diurnal_amplitude = 0.65;
  const sim::World world = sim::World::generate(config);
  const sim::WorldActivityModel activity(&world);
  GooglePublicDns reused(&world.pops(), &world.catchment(),
                         &world.authoritative(), {}, &activity);
  GooglePublicDns fresh(&world.pops(), &world.catchment(),
                        &world.authoritative(), {}, &activity);
  const dns::DnsName& domain = world.domains()[0].name;
  const double pools = reused.config().pools_per_pop;

  // The first busy block whose clients refill a pool about once per TTL
  // on average: probes at the peak and at the trough then differ.
  const sim::Slash24Block* busy = nullptr;
  ProbeTarget target;
  for (const sim::Slash24Block& block : world.blocks()) {
    if (block.users < 50 || block.gdns_pop == anycast::kNoPop) continue;
    const net::Prefix slash24 = net::Prefix::from_slash24_index(block.index);
    target = reused.target(block.gdns_pop, domain, slash24,
                           reused.upstream_scope(domain, slash24));
    if (target.zone == nullptr) continue;
    const double per_ttl =
        target.rate.mean * target.zone->ttl_seconds / pools;
    if (per_ttl > 0.3 && per_ttl < 3.0) {
      busy = &block;
      break;
    }
  }
  ASSERT_NE(busy, nullptr);
  ASSERT_GT(target.rate.amplitude, 0);
  EXPECT_NE(target.rate.at(0.0), target.rate.at(net::kDay / 2));

  const anycast::PopId pop = busy->gdns_pop;
  int hits = 0;
  int probes = 0;
  for (int slot = 0; slot < 96; ++slot) {
    const double t = 1e5 + slot * 1800.0;
    for (int attempt = 0; attempt < 5; ++attempt) {
      const double now = t + attempt * 0.002;
      const ProbeResult a =
          reused.probe(pop, target, now, Transport::kTcp, 0, attempt);
      const ProbeResult b = fresh.probe(pop, domain, target.query_scope, now,
                                        Transport::kTcp, 0, attempt);
      ASSERT_EQ(a.status, b.status) << "slot " << slot;
      ASSERT_EQ(a.cache_hit, b.cache_hit) << "slot " << slot;
      EXPECT_EQ(a.return_scope, b.return_scope);
      EXPECT_EQ(a.remaining_ttl, b.remaining_ttl) << "slot " << slot;
      hits += a.cache_hit;
      ++probes;
    }
  }
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, probes);
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
      wire_reply(f, query, groningen, 77, 0.0, Transport::kUdp);
  ASSERT_EQ(response.answers.size(), 1u);
  const auto& txt = std::get<dns::TxtData>(response.answers[0].rdata);
  const anycast::PopId expected = f.gdns->pop_for(groningen, 77);
  EXPECT_EQ(txt.text, f.pops.site(expected).city);
}

TEST(GoogleDns, WireSnoopPathMatchesDirectProbe) {
  // RD=0 ECS snoops over the wire answer exactly what `probe` gives a
  // second front end with the same planted clients: a hit is one A record
  // with the remaining TTL and the ECS option carrying the return scope.
  Fixture f, direct;
  const net::Ipv4Addr client = *net::Ipv4Addr::parse("100.64.5.9");
  const net::LatLon vp_loc{39.0, -77.5};
  const anycast::PopId pop = f.gdns->pop_for(vp_loc, 1);
  const net::Prefix block = scope_block_for(f, client);
  f.planted.plant(pop, f.domain, block, 0.01);
  direct.planted.plant(pop, f.domain, block, 0.01);
  int hits = 0;
  for (std::uint16_t id = 0; id < 16; ++id) {
    const double now = 20.0 + 40.0 * id;
    const auto response = wire_reply(
        f,
        dns::make_query(id, f.domain, dns::RecordType::kA, false,
                        dns::EcsOption::for_query(block)),
        vp_loc, 1, now, Transport::kTcp, 1);
    const auto probe = direct.gdns->probe(pop, f.domain, block, now,
                                          Transport::kTcp, 1, id);
    ASSERT_EQ(response.answers.size(), probe.cache_hit ? 1u : 0u)
        << "id " << id;
    ASSERT_TRUE(response.edns && response.edns->ecs);
    if (!probe.cache_hit) continue;
    ++hits;
    EXPECT_EQ(response.answers[0].ttl, probe.remaining_ttl);
    EXPECT_EQ(response.edns->ecs->scope_prefix_length, probe.return_scope);
    EXPECT_GT(probe.return_scope, 0);
  }
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, 16);
}

TEST(GoogleDns, RecursiveWireQueryResolvesWithoutCaching) {
  // RD=1 resolves upstream with the client's /24 and answers with the
  // authoritative's record and scope, but caches nothing: a snoop of the
  // answer's scope block misses until clients are planted there.
  Fixture f;
  const net::LatLon source{39.0, -77.5};
  const net::Prefix slash24 = *net::Prefix::parse("100.64.5.0/24");
  const auto response = wire_reply(
      f,
      dns::make_query(5, f.domain, dns::RecordType::kA, true,
                      dns::EcsOption::for_query(slash24)),
      source, 2, 1.0, Transport::kUdp);
  const auto expected =
      f.auth.resolve(f.domain, slash24, f.gdns->config().epoch);
  ASSERT_TRUE(expected.has_value());
  EXPECT_EQ(response.header.rcode, dns::RCode::kNoError);
  EXPECT_TRUE(response.header.ra);
  ASSERT_EQ(response.answers.size(), 1u);
  EXPECT_EQ(response.answers[0].ttl, expected->ttl);
  EXPECT_EQ(std::get<dns::AData>(response.answers[0].rdata).address,
            expected->address);
  ASSERT_TRUE(response.edns && response.edns->ecs);
  EXPECT_EQ(response.edns->ecs->scope_prefix_length, expected->scope_length);

  const anycast::PopId pop = f.gdns->pop_for(source, 2);
  const net::Prefix block = slash24.widen_to(expected->scope_length);
  const auto snoop_hits = [&](double now) {
    int hits = 0;
    for (int attempt = 0; attempt < 8; ++attempt) {
      hits += f.gdns->probe(pop, f.domain, block, now, Transport::kTcp, 0,
                            attempt)
                  .cache_hit;
    }
    return hits;
  };
  EXPECT_EQ(snoop_hits(2.0), 0);
  f.planted.plant(pop, f.domain, block, 1.0);
  EXPECT_GT(snoop_hits(3.0), 0);
}

TEST(GoogleDns, UpstreamProbeStreamPinned) {
  // Snoops over an ECS zone, an ECS-oblivious zone and an unknown one,
  // with clients planted at each known zone's scope block at a low or a
  // high rate: every upstream fetch is an RFC 1035 round trip to the
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
    const net::Prefix slash24 = net::Prefix::slash24_of(client);
    const auto scope =
        f.auth.scope_for(domain, slash24, f.gdns->config().epoch);
    if (scope) {
      f.planted.plant(pop, domain, slash24.widen_to(*scope),
                      i % 3 == 0 ? 0.002 : 0.05);
    }
    for (int attempt = 0; attempt < 6; ++attempt) {
      const auto query_scope =
          domain == f.domain ? scope_block_for(f, client) : slash24;
      const auto probe = f.gdns->probe(pop, domain, query_scope, t + 5,
                                       Transport::kTcp, 0, attempt);
      digest = net::stable_seed(digest, probe.cache_hit, probe.return_scope,
                                probe.remaining_ttl,
                                static_cast<std::uint64_t>(probe.status),
                                static_cast<std::uint64_t>(probe.pop));
      if (!probe.cache_hit) continue;
      ++hits;
      ASSERT_TRUE(scope.has_value()) << "iter " << i;
      EXPECT_EQ(probe.return_scope, *scope) << "iter " << i;
    }
  }
  EXPECT_EQ(hits, 105);
  EXPECT_EQ(digest, 9503693147333419034ull);
}

TEST(GoogleDns, HandleWireByteIdenticalToStructuredPath) {
  // Two fixtures fed the identical query stream, one through handle_wire,
  // one through the reference server: the probe state (the rate limiters'
  // flows) evolves in lockstep, so every reply must be the oracle's
  // bytes. The corner cases come first, for the snooped zone and
  // the myaddr name, then a random stream. Clients at a flat rate make
  // about half the snoops hit, and injected faults give SERVFAILs.
  GoogleDnsConfig config;
  config.faults.servfail_probability = 0.05;
  config.faults.timeout_probability = 0.05;
  Fixture f(0.01, 20, 24, 0.0, config), ref(0.01, 20, 24, 0.0, config);
  dns::WireArena arena;
  const net::LatLon vp_loc{39.0, -77.5};
  std::map<dns::RCode, int> rcodes;
  int answered = 0;
  const auto expect_oracle_bytes = [&](std::span<const std::uint8_t> query,
                                       double now, Transport transport) {
    const auto got =
        f.gdns->handle_wire(query, vp_loc, 7, now, transport, arena, 1);
    const auto decoded = dns::decode(query);
    if (!decoded.ok) {
      EXPECT_TRUE(got.empty());
      return;
    }
    const auto expected = dns::encode(dns_testing::reference_reply(
        *ref.gdns, ref.auth, decoded.message, vp_loc, 7, now, transport, 1));
    EXPECT_EQ(expected, std::vector<std::uint8_t>(got.begin(), got.end()));
    const auto reply = dns::decode(got);
    ASSERT_TRUE(reply.ok);
    ++rcodes[reply.message.header.rcode];
    answered += !reply.message.answers.empty();
  };
  double now = 1.0;
  int k = 0;
  for (const dns::DnsName& name : {f.domain, GooglePublicDns::myaddr_name()}) {
    for (const bool rd : {false, true}) {
      for (const auto& query : dns_testing::corner_case_queries(name, rd)) {
        expect_oracle_bytes(query, now += 0.001,
                            k++ % 3 ? Transport::kUdp : Transport::kTcp);
      }
    }
  }
  // Back-to-back UDP snoops trip the repeated-query limit.
  for (std::uint16_t id = 0; id < 32; ++id) {
    expect_oracle_bytes(
        dns::encode(dns::make_query(id, f.domain, dns::RecordType::kA, false,
                                    dns::EcsOption::for_query(
                                        *net::Prefix::parse("10.1.2.0/24")))),
        now, Transport::kUdp);
  }
  net::Rng rng(0x77);
  for (int i = 0; i < 200; ++i) {
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
    const auto transport = rng.bernoulli(0.5) ? Transport::kUdp
                                              : Transport::kTcp;
    expect_oracle_bytes(dns::encode(query), now += 1.0, transport);
  }
  // Every branch was taken: answers, misses, FORMERR, REFUSED, SERVFAIL.
  EXPECT_GT(answered, 0);
  EXPECT_GT(rcodes[dns::RCode::kNoError], answered);
  EXPECT_GT(rcodes[dns::RCode::kFormErr], 0);
  EXPECT_GT(rcodes[dns::RCode::kRefused], 0);
  EXPECT_GT(rcodes[dns::RCode::kServFail], 0);
}

// One PoP's probe stream: UDP probes fast enough to trip the
// repeated-query limit and TCP probes with scopes discovered one epoch
// before the probing epoch, so some have drifted.
std::vector<ProbeResult> probe_one_pop(Fixture& f, anycast::PopId pop) {
  std::vector<ProbeResult> results;
  net::Rng rng(net::stable_seed(0xD15C, static_cast<std::uint64_t>(pop)));
  for (int i = 0; i < 300; ++i) {
    const net::Ipv4Addr client(static_cast<std::uint32_t>(rng()));
    const net::Prefix block = net::Prefix::slash24_of(client);
    const net::Prefix query = block.widen_to(*f.auth.scope_for(
        f.domain, block, f.gdns->config().epoch - 1));
    const double t = 10.0 + i * 0.01;
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
}

TEST(GoogleDns, OutOfRangePopIdIsRejected) {
  // kNoPop is what an all-inactive catchment returns; a RouteBias
  // alternate can hold any id. Either must throw before touching any
  // state or counter — never alias or invent a PoP's state — on every
  // branch of the wire front end too.
  Fixture f(10.0);
  const anycast::PopId past_end = static_cast<anycast::PopId>(f.pops.size());
  obs::Counter& sent =
      obs::Registry::global().counter("googledns.probe.sent");
  obs::Counter& round_trips =
      obs::Registry::global().counter("googledns.upstream.round_trips");
  const auto sent0 = sent.value();
  const auto round_trips0 = round_trips.value();
  const net::Ipv4Addr client = *net::Ipv4Addr::parse("100.64.5.9");
  dns::WireArena arena;
  for (const anycast::PopId pop : {anycast::kNoPop, past_end}) {
    EXPECT_THROW(f.gdns->probe(pop, f.domain, net::Prefix::slash24_of(client),
                               1.0, Transport::kTcp, 0, 0),
                 std::out_of_range);
    EXPECT_THROW(f.gdns->target(pop, f.domain,
                                net::Prefix::slash24_of(client), {}),
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
      EXPECT_THROW(f.gdns->handle_wire(dns::encode(query), {39.0, -77.5}, 7,
                                       1.0, Transport::kUdp, arena, 0,
                                       misroute),
                   std::out_of_range);
    }
  }
  EXPECT_EQ(sent.value(), sent0);
  EXPECT_EQ(round_trips.value(), round_trips0);
}

}  // namespace
}  // namespace netclients::googledns
