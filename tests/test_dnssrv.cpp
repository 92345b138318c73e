// Tests for the resolver-side substrate: the ECS-aware authoritative
// server (scope consistency, drift, and its in-place wire replies checked
// against the reference server in dns_testing.h) and the token-bucket
// rate limiter.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "dns/packet.h"
#include "dns_testing.h"
#include "dnssrv/authoritative.h"
#include "dnssrv/rate_limiter.h"
#include "net/rng.h"

namespace netclients::dnssrv {
namespace {

ZoneConfig test_zone(std::uint8_t min_scope = 16, std::uint8_t max_scope = 24,
                     double drift = 0.0, std::uint64_t seed = 7) {
  ZoneConfig zone;
  zone.name = *dns::DnsName::parse("www.example.com");
  zone.ttl_seconds = 300;
  zone.min_scope = min_scope;
  zone.max_scope = max_scope;
  zone.scope_drift_probability = drift;
  zone.seed = seed;
  return zone;
}

// ------------------------------------------------------------ authoritative

TEST(Authoritative, ServesOnlyConfiguredZones) {
  AuthoritativeServer server;
  server.add_zone(test_zone());
  EXPECT_TRUE(server.serves(*dns::DnsName::parse("www.example.com")));
  EXPECT_FALSE(server.serves(*dns::DnsName::parse("other.example.com")));
  EXPECT_FALSE(server
                   .resolve(*dns::DnsName::parse("other.example.com"),
                            *net::Prefix::parse("1.2.3.0/24"))
                   .has_value());
}

TEST(Authoritative, ZoneLookupByNameViewAvoidsMaterializing) {
  // The transparent map lookup: a NameView straight off a packet finds the
  // zone (case-insensitively) without building a DnsName.
  AuthoritativeServer server;
  server.add_zone(test_zone());
  const auto query =
      dns::make_query(1, *dns::DnsName::parse("WWW.Example.COM"),
                      dns::RecordType::kA, false);
  const auto wire = dns::encode(query);
  const auto view = dns::MessageView::parse(wire);
  ASSERT_TRUE(view.has_value());
  const ZoneConfig* zone = server.zone(view->first_question().name);
  ASSERT_NE(zone, nullptr);
  EXPECT_EQ(zone->name, *dns::DnsName::parse("www.example.com"));
  // Unknown names miss through the same transparent path.
  const auto other =
      dns::encode(dns::make_query(2, *dns::DnsName::parse("nope.example"),
                                  dns::RecordType::kA, false));
  const auto other_view = dns::MessageView::parse(other);
  ASSERT_TRUE(other_view.has_value());
  EXPECT_EQ(server.zone(other_view->first_question().name), nullptr);
}

/// The server's wire reply to `query`, decoded by the oracle.
dns::DecodeResult wire_reply(const AuthoritativeServer& server,
                             const dns::DnsMessage& query,
                             std::uint32_t epoch = 0) {
  dns::WireArena arena;
  return dns::decode(server.handle_wire(dns::encode(query), epoch, arena));
}

TEST(Authoritative, HandleWireByteIdenticalToStructuredPath) {
  // Every reply must be the oracle's bytes: encode(reference_reply(
  // decode(query))). The corner cases first — upper-case and compressed
  // questions, OPT with and without ECS, records and flags in the query,
  // non-A questions, the root name, no question, an unparseable packet —
  // for a served zone and an unknown one, then a random stream.
  AuthoritativeServer server;
  server.add_zone(test_zone());
  dns::WireArena arena;
  const auto expect_oracle_bytes = [&](std::span<const std::uint8_t> query,
                                       std::uint32_t epoch) {
    const auto got = server.handle_wire(query, epoch, arena);
    const auto decoded = dns::decode(query);
    if (!decoded.ok) {
      EXPECT_TRUE(got.empty());
      return;
    }
    EXPECT_EQ(dns::encode(dns_testing::reference_reply(
                  server, decoded.message, epoch)),
              std::vector<std::uint8_t>(got.begin(), got.end()));
  };
  for (const char* name : {"www.example.com", "unknown.example"}) {
    for (const bool rd : {false, true}) {
      for (const auto& query : dns_testing::corner_case_queries(
               *dns::DnsName::parse(name), rd)) {
        expect_oracle_bytes(query, rd ? 1 : 0);
      }
    }
  }
  net::Rng rng(0xD11);
  for (int i = 0; i < 200; ++i) {
    const auto qname = rng.bernoulli(0.7)
                           ? *dns::DnsName::parse("www.example.com")
                           : *dns::DnsName::parse("unknown.example");
    std::optional<dns::EcsOption> ecs;
    if (rng.bernoulli(0.8)) {
      ecs = dns::EcsOption::for_query(
          net::Prefix(net::Ipv4Addr(static_cast<std::uint32_t>(rng())),
                      static_cast<std::uint8_t>(rng.below(25))));
    }
    const auto query = dns::make_query(static_cast<std::uint16_t>(rng()),
                                       qname, dns::RecordType::kA,
                                       rng.bernoulli(0.5), ecs);
    expect_oracle_bytes(dns::encode(query),
                        static_cast<std::uint32_t>(rng.below(3)));
  }
}

TEST(Authoritative, HandleWireKeepsDottedLabelsApart) {
  // A query naming "a.b" + "c" (a label holding a '.' byte), then "a" +
  // "b" + "c": the reply must echo them as the two-label and the
  // three-label names they are, not compress the second into the first.
  AuthoritativeServer server;
  ZoneConfig zone = test_zone();
  zone.name = *dns::DnsName::from_labels({"a.b", "c"});
  server.add_zone(zone);
  const std::vector<std::uint8_t> query = {
      0x12, 0x34, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      3, 'a', '.', 'b', 1, 'c', 0, 0x00, 0x01, 0x00, 0x01,
      1, 'a', 1, 'b', 1, 'c', 0, 0x00, 0x01, 0x00, 0x01};
  dns::WireArena arena;
  const auto reply = server.handle_wire(query, 0, arena);
  const auto decoded = dns::decode(reply);
  ASSERT_TRUE(decoded.ok) << decoded.error;
  ASSERT_EQ(decoded.message.questions.size(), 2u);
  EXPECT_EQ(decoded.message.questions[0].name, zone.name);
  EXPECT_EQ(decoded.message.questions[1].name,
            *dns::DnsName::from_labels({"a", "b", "c"}));
  ASSERT_EQ(decoded.message.answers.size(), 1u);
  EXPECT_EQ(decoded.message.answers[0].name, zone.name);
  // The second question shares only "c" with the first (a pointer at
  // offset 16), and the answer's owner is a pointer at the first.
  const std::vector<std::uint8_t> expected = {
      3, 'a', '.', 'b', 1, 'c', 0, 0x00, 0x01, 0x00, 0x01,
      1, 'a', 1, 'b', 0xC0, 16, 0x00, 0x01, 0x00, 0x01,
      0xC0, 12};
  ASSERT_GE(reply.size(), 12 + expected.size());
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(),
                         reply.begin() + 12));
}

TEST(Authoritative, HandleWireDropsUnparseableQueries) {
  AuthoritativeServer server;
  server.add_zone(test_zone());
  dns::WireArena arena;
  const std::vector<std::uint8_t> garbage = {0xFF, 0x00, 0x01};
  EXPECT_TRUE(server.handle_wire(garbage, 0, arena).empty());
}

TEST(Authoritative, ScopeWithinConfiguredBounds) {
  AuthoritativeServer server;
  server.add_zone(test_zone(18, 22));
  net::Rng rng(1);
  for (int i = 0; i < 500; ++i) {
    const net::Prefix p(net::Ipv4Addr(static_cast<std::uint32_t>(rng())), 24);
    const auto scope =
        server.scope_for(*dns::DnsName::parse("www.example.com"), p);
    ASSERT_TRUE(scope.has_value());
    EXPECT_GE(*scope, 18);
    EXPECT_LE(*scope, 22);
  }
}

TEST(Authoritative, NonEcsZoneReturnsScopeZero) {
  AuthoritativeServer server;
  ZoneConfig zone = test_zone();
  zone.supports_ecs = false;
  server.add_zone(zone);
  EXPECT_EQ(*server.scope_for(zone.name, *net::Prefix::parse("1.2.3.0/24")),
            0);
}

// The property the probe-reduction preprocessing relies on (§3.1.1): every
// /24 inside a returned scope block is assigned exactly that scope.
class ScopeConsistency : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ScopeConsistency, AllSlash24sInBlockShareScope) {
  AuthoritativeServer server;
  server.add_zone(test_zone(16, 24, 0.0, GetParam()));
  const auto name = *dns::DnsName::parse("www.example.com");
  net::Rng rng(GetParam() ^ 0x55);
  for (int i = 0; i < 50; ++i) {
    const net::Prefix probe(net::Ipv4Addr(static_cast<std::uint32_t>(rng())),
                            24);
    const std::uint8_t scope = *server.scope_for(name, probe);
    const net::Prefix block = probe.widen_to(scope);
    // Sample /24s within the block; all must agree.
    for (int j = 0; j < 16; ++j) {
      const std::uint32_t offset = static_cast<std::uint32_t>(
          rng.below(block.slash24_count()));
      const net::Prefix inner = net::Prefix::from_slash24_index(
          block.first_slash24_index() + offset);
      EXPECT_EQ(*server.scope_for(name, inner), scope)
          << block.to_string() << " inner " << inner.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScopeConsistency,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(Authoritative, ScopeStableWithoutDrift) {
  AuthoritativeServer server;
  server.add_zone(test_zone(16, 24, 0.0));
  const auto name = *dns::DnsName::parse("www.example.com");
  const net::Prefix p = *net::Prefix::parse("100.64.5.0/24");
  EXPECT_EQ(*server.scope_for(name, p, 0), *server.scope_for(name, p, 1));
  EXPECT_EQ(*server.scope_for(name, p, 1), *server.scope_for(name, p, 7));
}

TEST(Authoritative, DriftChangesSomeScopesBetweenEpochs) {
  AuthoritativeServer server;
  server.add_zone(test_zone(16, 24, 0.15));
  const auto name = *dns::DnsName::parse("www.example.com");
  net::Rng rng(3);
  int changed = 0;
  const int total = 2000;
  for (int i = 0; i < total; ++i) {
    const net::Prefix p(net::Ipv4Addr(static_cast<std::uint32_t>(rng())), 24);
    if (*server.scope_for(name, p, 0) != *server.scope_for(name, p, 1)) {
      ++changed;
    }
  }
  // Drift is applied per scope-block, so the per-/24 rate is in the same
  // ballpark as the configured probability.
  EXPECT_GT(changed, total * 0.05);
  EXPECT_LT(changed, total * 0.35);
}

TEST(Authoritative, ResolveReturnsConsistentAnswerPerScopeBlock) {
  AuthoritativeServer server;
  server.add_zone(test_zone());
  const auto name = *dns::DnsName::parse("www.example.com");
  const net::Prefix p = *net::Prefix::parse("100.64.5.0/24");
  const auto a = server.resolve(name, p);
  ASSERT_TRUE(a.has_value());
  const net::Prefix block = p.widen_to(a->scope_length);
  const net::Prefix sibling = net::Prefix::from_slash24_index(
      block.first_slash24_index() +
      static_cast<std::uint32_t>(block.slash24_count()) - 1);
  const auto b = server.resolve(name, sibling);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->address, b->address);
  EXPECT_EQ(a->scope_length, b->scope_length);
}

TEST(Authoritative, WireHandleAnswersWithEcsScope) {
  AuthoritativeServer server;
  server.add_zone(test_zone());
  const auto query = dns::make_query(
      99, *dns::DnsName::parse("www.example.com"), dns::RecordType::kA, true,
      dns::EcsOption::for_query(*net::Prefix::parse("100.64.5.0/24")));
  const auto reply = wire_reply(server, query);
  ASSERT_TRUE(reply.ok) << reply.error;
  const dns::DnsMessage& response = reply.message;
  EXPECT_EQ(response.header.rcode, dns::RCode::kNoError);
  EXPECT_TRUE(response.header.aa);
  ASSERT_EQ(response.answers.size(), 1u);
  EXPECT_EQ(response.answers[0].ttl, 300u);
  ASSERT_TRUE(response.edns && response.edns->ecs);
  EXPECT_GE(response.edns->ecs->scope_prefix_length, 16);
  EXPECT_LE(response.edns->ecs->scope_prefix_length, 24);
}

TEST(Authoritative, WireHandleNxdomainForUnknownZone) {
  AuthoritativeServer server;
  server.add_zone(test_zone());
  const auto query = dns::make_query(
      1, *dns::DnsName::parse("nope.example.net"), dns::RecordType::kA, true);
  EXPECT_EQ(wire_reply(server, query).message.header.rcode,
            dns::RCode::kNxDomain);
}

TEST(Authoritative, WireHandleFormErrForEmptyQuestion) {
  AuthoritativeServer server;
  dns::DnsMessage query;
  EXPECT_EQ(wire_reply(server, query).message.header.rcode,
            dns::RCode::kFormErr);
}

TEST(Authoritative, TopologyClampNeverWidensPastAnnouncement) {
  // With a routing table attached, response scopes must be at least as
  // specific as the announcement containing the client — a CDN never
  // aggregates across BGP boundaries.
  AuthoritativeServer server;
  server.add_zone(test_zone(16, 24));
  net::PrefixTrie<std::uint32_t> topology;
  topology.insert(*net::Prefix::parse("100.64.0.0/22"), 1);
  topology.insert(*net::Prefix::parse("100.64.4.0/24"), 2);
  server.set_topology(&topology);
  const auto name = *dns::DnsName::parse("www.example.com");
  for (std::uint32_t i = 0; i < 4; ++i) {
    const auto scope = server.scope_for(
        name, net::Prefix::from_slash24_index((0x6440u << 8 | 0) / 256 + i));
    (void)scope;
  }
  EXPECT_GE(*server.scope_for(name, *net::Prefix::parse("100.64.1.0/24")),
            22);
  EXPECT_GE(*server.scope_for(name, *net::Prefix::parse("100.64.4.0/24")),
            24);
  // Unannounced space stays unclamped (walk bounds only).
  const auto unrouted =
      *server.scope_for(name, *net::Prefix::parse("100.65.0.0/24"));
  EXPECT_GE(unrouted, 16);
  EXPECT_LE(unrouted, 24);
}

// ------------------------------------------------------------ token bucket

TEST(TokenBucket, AllowsBurstThenLimits) {
  TokenBucket bucket(10, 5);  // 10/s, burst 5
  int allowed = 0;
  for (int i = 0; i < 20; ++i) allowed += bucket.allow(0.0);
  EXPECT_EQ(allowed, 5);
}

TEST(TokenBucket, RefillsAtRate) {
  TokenBucket bucket(10, 5);
  for (int i = 0; i < 5; ++i) bucket.allow(0.0);
  EXPECT_FALSE(bucket.allow(0.0));
  EXPECT_TRUE(bucket.allow(0.1));   // one token refilled
  EXPECT_FALSE(bucket.allow(0.1));
  EXPECT_TRUE(bucket.allow(1.0));
}

TEST(TokenBucket, SustainedRateMatchesConfig) {
  TokenBucket bucket(50, 50);
  int allowed = 0;
  for (int i = 0; i < 1000; ++i) {
    allowed += bucket.allow(i * 0.01);  // 100 attempts/s for 10s
  }
  // ~50/s sustained plus the initial burst.
  EXPECT_NEAR(allowed, 550, 30);
}

TEST(TokenBucket, ClockResetStartsNewEpoch) {
  TokenBucket bucket(1000, 1000);
  for (int i = 0; i < 600; ++i) EXPECT_TRUE(bucket.allow(i * 0.001));
  // A new measurement stage restarts its schedule at t=0; the limiter must
  // keep refilling rather than starving the stage.
  int allowed = 0;
  for (int i = 0; i < 2000; ++i) allowed += bucket.allow(i * 0.001);
  EXPECT_GT(allowed, 1900);
}

TEST(TokenBucket, RefillExactlyAtTokenBoundary) {
  // Draining the burst then asking again exactly when one token's worth of
  // time has elapsed must admit exactly one query — no off-by-one at the
  // refill boundary in either direction.
  TokenBucket bucket(10, 1);
  EXPECT_TRUE(bucket.allow(0.0));
  EXPECT_FALSE(bucket.allow(0.0999));  // 1 µs early: still empty
  EXPECT_TRUE(bucket.allow(0.1));      // exactly one token accrued
  EXPECT_FALSE(bucket.allow(0.1));     // and only one
}

TEST(TokenBucket, RefillCapsAtBurstAcrossLongIdle) {
  TokenBucket bucket(100, 5);
  for (int i = 0; i < 5; ++i) bucket.allow(0.0);
  // An hour idle refills to the burst cap, not rate × elapsed.
  EXPECT_NEAR(bucket.tokens(3600.0), 5.0, 1e-9);
  int allowed = 0;
  for (int i = 0; i < 50; ++i) allowed += bucket.allow(3600.0);
  EXPECT_EQ(allowed, 5);
}

TEST(TokenBucket, SameTimestampWindowSharesOneRefill) {
  // Many queries carrying an identical timestamp (one campaign scheduling
  // window) draw from a single refill, not one refill each.
  TokenBucket bucket(10, 2);
  for (int i = 0; i < 2; ++i) EXPECT_TRUE(bucket.allow(5.0));
  EXPECT_FALSE(bucket.allow(5.0));
  EXPECT_FALSE(bucket.allow(5.0));
}

// ------------------------------------------------------- upstream faults

TEST(UpstreamFaults, DisabledMeansAlwaysOk) {
  AuthoritativeServer auth;
  ZoneConfig zone;
  zone.name = *dns::DnsName::parse("www.example.com");
  auth.add_zone(zone);
  const auto prefix = *net::Prefix::parse("100.64.5.0/24");
  for (int attempt = 0; attempt < 10; ++attempt) {
    EXPECT_EQ(auth.query_outcome(zone.name, prefix, 0, attempt),
              QueryOutcome::kOk);
  }
}

TEST(UpstreamFaults, OutcomeIsDeterministicPerKey) {
  AuthoritativeServer auth;
  ZoneConfig zone;
  zone.name = *dns::DnsName::parse("www.example.com");
  auth.add_zone(zone);
  UpstreamFaults faults;
  faults.servfail_probability = 0.3;
  faults.timeout_probability = 0.3;
  auth.set_faults(faults);
  const auto prefix = *net::Prefix::parse("100.64.5.0/24");
  for (int attempt = 0; attempt < 20; ++attempt) {
    const auto first = auth.query_outcome(zone.name, prefix, 0, attempt);
    EXPECT_EQ(first, auth.query_outcome(zone.name, prefix, 0, attempt));
  }
  // A different attempt index re-rolls: over many attempts all three
  // outcomes appear at these rates.
  int ok = 0, servfail = 0, timeout = 0;
  for (int attempt = 0; attempt < 300; ++attempt) {
    switch (auth.query_outcome(zone.name, prefix, 0, attempt)) {
      case QueryOutcome::kOk: ++ok; break;
      case QueryOutcome::kServfail: ++servfail; break;
      case QueryOutcome::kTimeout: ++timeout; break;
    }
  }
  EXPECT_GT(ok, 60);
  EXPECT_GT(servfail, 30);
  EXPECT_GT(timeout, 30);
}

}  // namespace
}  // namespace netclients::dnssrv
