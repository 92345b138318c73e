// Tests for the synthetic-Internet generator: structural invariants of the
// address plan, AS/resolver wiring, activity rates, determinism, and the
// DITL trace generator's ground-truth accounting.

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <unordered_set>

#include "net/rng.h"

#include "roots/root_server.h"
#include "sim/activity.h"
#include "sim/ditl.h"
#include "sim/world.h"
#include "world_testing.h"

namespace netclients::sim {
namespace {

const World& small_world() {
  static const World world = [] {
    WorldConfig config;
    config.scale = 1.0 / 1024;
    return World::generate(config);
  }();
  return world;
}

TEST(World, BlocksSortedAndUnique) {
  const World& w = small_world();
  for (std::size_t i = 1; i < w.blocks().size(); ++i) {
    EXPECT_LT(w.blocks()[i - 1].index, w.blocks()[i].index);
  }
}

TEST(World, EveryRoutedBlockBelongsToAnnouncingAs) {
  const World& w = small_world();
  for (const Slash24Block& block : w.blocks()) {
    if (!block.routed) continue;
    ASSERT_NE(block.as_index, Slash24Block::kNoAs);
    const AsEntry& as = w.ases()[block.as_index];
    bool inside = false;
    for (const net::Prefix& p : as.announced) {
      inside |= p.contains(net::Prefix::from_slash24_index(block.index));
    }
    EXPECT_TRUE(inside) << "block " << block.index << " outside its AS";
  }
}

TEST(World, Prefix2AsMatchesBlockOwnership) {
  const World& w = small_world();
  for (const Slash24Block& block : w.blocks()) {
    const auto match =
        w.prefix2as().longest_match(net::Ipv4Addr(block.index << 8));
    if (block.routed) {
      ASSERT_TRUE(match.has_value());
      EXPECT_EQ(*match->second, block.as_index);
    }
  }
}

TEST(World, AnnouncedPrefixesDoNotOverlapAcrossAses) {
  const World& w = small_world();
  std::vector<net::Prefix> all;
  for (const AsEntry& as : w.ases()) {
    all.insert(all.end(), as.announced.begin(), as.announced.end());
  }
  std::sort(all.begin(), all.end());
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_FALSE(all[i - 1].overlaps(all[i]))
        << all[i - 1].to_string() << " overlaps " << all[i].to_string();
  }
}

TEST(World, UserTotalsMatchScaledCountries) {
  const World& w = small_world();
  double expected = 0;
  for (const CountryInfo& c : w.countries()) {
    expected += c.internet_users * w.config().scale;
  }
  // Hosting/content/transit weights divert ~2% into bot populations.
  EXPECT_NEAR(w.total_users(), expected, expected * 0.05);
}

TEST(World, UnroutedFractionRoughlyConfigured) {
  const World& w = small_world();
  double routed = 0, unrouted = 0;
  for (const Slash24Block& block : w.blocks()) {
    (block.routed ? routed : unrouted) += 1;
  }
  const double fraction = unrouted / (routed + unrouted);
  EXPECT_GT(fraction, 0.08);
  EXPECT_LT(fraction, 0.45);
}

TEST(World, GoogleEgressOnePerActivePop) {
  const World& w = small_world();
  int google_endpoints = 0;
  std::set<anycast::PopId> pops_seen;
  for (const ResolverEndpoint& ep : w.resolver_endpoints()) {
    if (ep.owner_as == w.google_as()) {
      ++google_endpoints;
      EXPECT_TRUE(ep.sends_ecs);
      ASSERT_NE(ep.pop, anycast::kNoPop);
      pops_seen.insert(ep.pop);
    } else {
      EXPECT_FALSE(ep.sends_ecs);
    }
  }
  EXPECT_EQ(google_endpoints, 27);  // active PoPs
  EXPECT_EQ(pops_seen.size(), 27u);
}

TEST(World, ResolverEndpointsLiveInHostAsSpace) {
  const World& w = small_world();
  for (const ResolverEndpoint& ep : w.resolver_endpoints()) {
    const AsEntry& host = w.ases()[ep.host_as];
    bool inside = false;
    for (const net::Prefix& p : host.announced) {
      inside |= p.contains(ep.address);
    }
    EXPECT_TRUE(inside);
  }
}

TEST(World, SomeResolversAreOutsourcedToHosting) {
  WorldConfig config;
  config.scale = 1.0 / 256;
  config.resolver_outsourced_probability = 0.3;
  const World w = World::generate(config);
  int outsourced = 0;
  for (const ResolverEndpoint& ep : w.resolver_endpoints()) {
    outsourced += ep.host_as != ep.owner_as;
  }
  EXPECT_GT(outsourced, 0);
}

TEST(World, DeterministicForSeed) {
  WorldConfig config;
  config.scale = 1.0 / 2048;
  const World a = World::generate(config);
  const World b = World::generate(config);
  ASSERT_EQ(a.blocks().size(), b.blocks().size());
  ASSERT_EQ(a.ases().size(), b.ases().size());
  for (std::size_t i = 0; i < a.blocks().size(); ++i) {
    EXPECT_EQ(a.blocks()[i].index, b.blocks()[i].index);
    EXPECT_EQ(a.blocks()[i].users, b.blocks()[i].users);
    EXPECT_EQ(a.blocks()[i].gdns_pop, b.blocks()[i].gdns_pop);
  }
}

TEST(World, GenerationIsPinned) {
  // Every field of a small world folded into one digest and pinned: a
  // generator change that moves any block, AS, resolver endpoint or
  // geolocation record fails here, not only one that moves the three
  // fields DeterministicForSeed compares.
  WorldConfig config;
  config.scale = 1.0 / 2048;
  EXPECT_EQ(world_testing::world_digest(World::generate(config)),
            16309603065802775614ULL);
}

TEST(World, DifferentSeedsDiffer) {
  WorldConfig a_config;
  a_config.scale = 1.0 / 2048;
  WorldConfig b_config = a_config;
  b_config.seed = 777;
  const World a = World::generate(a_config);
  const World b = World::generate(b_config);
  bool any_difference = a.blocks().size() != b.blocks().size();
  for (std::size_t i = 0;
       !any_difference && i < std::min(a.blocks().size(), b.blocks().size());
       ++i) {
    any_difference = a.blocks()[i].index != b.blocks()[i].index ||
                     a.blocks()[i].users != b.blocks()[i].users;
  }
  EXPECT_TRUE(any_difference);
}

TEST(World, BlockLookupAndRange) {
  const World& w = small_world();
  const Slash24Block& probe = w.blocks()[w.blocks().size() / 2];
  const Slash24Block* found = w.block_at(probe.index);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->index, probe.index);
  EXPECT_EQ(w.block_at(0xFFFFFF), nullptr);

  const auto [first, last] =
      w.block_range(net::Prefix::from_slash24_index(probe.index).widen_to(16));
  EXPECT_LE(first, last);
  for (std::size_t i = first; i < last; ++i) {
    EXPECT_EQ(w.blocks()[i].index >> 8, probe.index >> 8);
  }
}

TEST(World, GdnsRateScalesWithUsersAndShare) {
  const World& w = small_world();
  const Slash24Block* busy = nullptr;
  for (const Slash24Block& block : w.blocks()) {
    if (block.users > 10 && (!busy || block.users > busy->users)) {
      busy = &block;
    }
  }
  ASSERT_NE(busy, nullptr);
  EXPECT_GT(w.gdns_rate(*busy, kDomainGoogle), 0);
  EXPECT_GE(w.total_domain_rate(*busy, kDomainGoogle),
            w.gdns_rate(*busy, kDomainGoogle));
}

TEST(World, ChinaGoogleTrafficSuppressed) {
  const World& w = small_world();
  std::size_t cn = 0;
  for (std::size_t c = 0; c < w.countries().size(); ++c) {
    if (w.countries()[c].code == "CN") cn = c;
  }
  EXPECT_LT(
      w.country_domain_multiplier(static_cast<std::uint16_t>(cn),
                                  kDomainGoogle),
      0.2);
}

TEST(Activity, ArrivalRateSumsBlocksServedByPop) {
  const World& w = small_world();
  const WorldActivityModel model(&w);
  // Find a busy block and check its PoP's rate over its /24 is exactly the
  // block's own rate.
  for (const Slash24Block& block : w.blocks()) {
    if (block.users > 50) {
      const double rate =
          model
              .rate(block.gdns_pop, w.domains()[kDomainGoogle].name,
                    net::Prefix::from_slash24_index(block.index))
              .at(0.0);
      EXPECT_NEAR(rate, w.gdns_rate(block, kDomainGoogle), 1e-12);
      return;
    }
  }
  FAIL() << "no busy block found";
}

TEST(Activity, UnknownDomainHasZeroRate) {
  const World& w = small_world();
  const WorldActivityModel model(&w);
  EXPECT_EQ(model
                .rate(0, *dns::DnsName::parse("nope.example"),
                      *net::Prefix::parse("1.0.0.0/16"))
                .at(0.0),
            0);
}

TEST(Activity, DiurnalRateBitsPinned) {
  // The rate a probe evaluates in a diurnal world, bit for bit, at /24 and
  // /16 scope blocks (the /16 sums many blocks, so the summation order is
  // pinned too) and at four times of day. The values are the ones the
  // model gave when it memoized per-PoP Fourier sums and evaluated them
  // per probe; the value it now hands out must evaluate to the same bits.
  WorldConfig config;
  config.scale = 1.0 / 2048;
  config.diurnal_amplitude = 0.65;
  const World world = World::generate(config);
  const WorldActivityModel model(&world);
  struct Pin {
    std::uint32_t block;
    anycast::PopId pop;
    std::uint8_t scope_length;
    int domain;
    double t;
    std::uint64_t bits;
  };
  const Pin pins[] = {
      {65792, 3, 24, kDomainGoogle, 0.0, 0x3f832a2f1d0522b2ull},
      {65792, 3, 24, kDomainGoogle, 26280.0, 0x3f77cb61ebda9cb3ull},
      {65792, 3, 16, kDomainGoogle, 100123.4, 0x3fc5e5672453c9a8ull},
      {65792, 3, 16, kDomainFacebook, 500000.0, 0x3f92ff83993560b4ull},
      {65793, 4, 24, kDomainFacebook, 26280.0, 0x3f50fecb73751769ull},
      {65793, 4, 16, kDomainGoogle, 0.0, 0x3fdf1579c91b76f6ull},
      {65793, 4, 16, kDomainGoogle, 500000.0, 0x3fd0b1cda24a4307ull},
      {65793, 4, 16, kDomainFacebook, 100123.4, 0x3fb6ee7c9fc91767ull},
  };
  for (const Pin& pin : pins) {
    const net::Prefix block = net::Prefix::from_slash24_index(pin.block)
                                  .widen_to(pin.scope_length);
    const double rate =
        model
            .rate(pin.pop,
                  world.domains()[static_cast<std::size_t>(pin.domain)].name,
                  block)
            .at(pin.t);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(rate), pin.bits)
        << block.to_string() << " domain " << pin.domain << " t " << pin.t
        << " rate " << rate;
  }
}

TEST(Ditl, GroundTruthCoversEndpointsAndRecursers) {
  const World& w = small_world();
  const auto truth = chromium_ground_truth(w);
  std::unordered_set<std::uint32_t> truth_sources;
  for (const auto& [addr, rate] : truth) truth_sources.insert(addr);
  int endpoints_with_users = 0;
  for (const ResolverEndpoint& ep : w.resolver_endpoints()) {
    if (ep.served_chromium_users > 0) {
      ++endpoints_with_users;
      EXPECT_TRUE(truth_sources.contains(ep.address.value()));
    }
  }
  EXPECT_GT(endpoints_with_users, 0);
}

TEST(Ditl, GeneratorRespectsSampling) {
  const World& w = small_world();
  const roots::RootSystem roots = roots::RootSystem::ditl_2020(1);
  DitlOptions coarse;
  coarse.sample_rate = 0.02;
  std::uint64_t coarse_count = 0;
  generate_ditl(w, roots, coarse, [&](const roots::TraceRecord&) {
    ++coarse_count;
  });
  DitlOptions fine;
  fine.sample_rate = 0.005;
  std::uint64_t fine_count = 0;
  generate_ditl(w, roots, fine, [&](const roots::TraceRecord&) {
    ++fine_count;
  });
  ASSERT_GT(coarse_count, 0u);
  EXPECT_NEAR(static_cast<double>(fine_count) / coarse_count, 0.25, 0.05);
}

TEST(Ditl, GeneratorIsReplayable) {
  const World& w = small_world();
  const roots::RootSystem roots = roots::RootSystem::ditl_2020(1);
  DitlOptions options;
  options.sample_rate = 0.005;
  std::vector<roots::TraceRecord> first, second;
  generate_ditl(w, roots, options, [&](const roots::TraceRecord& rec) {
    first.push_back(rec);
  });
  generate_ditl(w, roots, options, [&](const roots::TraceRecord& rec) {
    second.push_back(rec);
  });
  EXPECT_EQ(first, second);
}

TEST(Ditl, OnlyUsableLettersEmitted) {
  const World& w = small_world();
  const roots::RootSystem roots = roots::RootSystem::ditl_2020(1);
  const auto usable_letters = roots.usable_ditl_letters();
  const std::set<char> usable(usable_letters.begin(), usable_letters.end());
  DitlOptions options;
  options.sample_rate = 0.005;
  DitlStats stats =
      generate_ditl(w, roots, options, [&](const roots::TraceRecord& rec) {
        EXPECT_TRUE(usable.contains(rec.root_letter));
      });
  EXPECT_GT(stats.suppressed, 0u) << "some traffic lands on other letters";
}

TEST(Ditl, StreamDigestAndStatsArePinned) {
  // Corpus bytes (member boundaries, NCP1 query ids) follow the record
  // stream exactly, so its order and content are pinned, not just its
  // statistics: a generator change that reorders or re-draws records fails
  // here even when every distributional test still passes.
  const World& w = small_world();
  const roots::RootSystem roots = roots::RootSystem::ditl_2020(1);
  DitlOptions options;
  options.sample_rate = 0.005;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  auto fold = [&digest](std::uint64_t word) {
    digest = net::hash_combine(digest, word);
  };
  std::uint64_t records = 0;
  const DitlStats stats =
      generate_ditl(w, roots, options, [&](const roots::TraceRecord& rec) {
        ++records;
        fold(rec.source.value());
        fold(static_cast<std::uint64_t>(rec.root_letter));
        fold(static_cast<std::uint64_t>(rec.qtype));
        fold(std::bit_cast<std::uint64_t>(rec.timestamp));
        fold(net::stable_hash(rec.qname.to_string()));
      });
  EXPECT_EQ(records, stats.chromium_probes + stats.background);
  EXPECT_EQ(stats.chromium_probes, 136763u);
  EXPECT_EQ(stats.background, 5864u);
  EXPECT_EQ(stats.suppressed, 121718u);
  EXPECT_EQ(digest, 15267730526279523413ULL);
}

}  // namespace
}  // namespace netclients::sim
