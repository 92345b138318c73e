// Tests for the relative activity ranker (§6 future work implemented):
// renewal-model inversion, monotonicity against planted rates, and the
// end-to-end ranking of a campaign's active prefixes.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/rank/activity_rank.h"
#include "core/scenario/scenario.h"

namespace netclients::core {
namespace {

// Activity model with a per-block planted rate keyed by the block base.
class PlantedActivity final : public googledns::ClientActivityModel {
 public:
  void plant(net::Prefix block, double rate) {
    rates_[block.base().value()] = rate;
  }
  googledns::ArrivalRate rate(anycast::PopId, const dns::DnsName&,
                              net::Prefix block) const override {
    auto it = rates_.find(block.base().value());
    return {.flat = it == rates_.end() ? 0.0 : it->second};
  }

 private:
  std::unordered_map<std::uint32_t, double> rates_;
};

struct Fixture {
  Fixture()
      : pops(anycast::PopTable::google_default()), catchment(&pops, 42) {
    for (const sim::DomainInfo& d : sim::default_domains()) {
      dnssrv::ZoneConfig zone;
      zone.name = d.name;
      zone.ttl_seconds = d.ttl_seconds;
      zone.min_scope = 24;  // 1 block per scope: rates stay planted
      zone.max_scope = 24;
      auth.add_zone(zone);
      domains.push_back(d);
    }
    gdns = std::make_unique<googledns::GooglePublicDns>(
        &pops, &catchment, &auth, googledns::GoogleDnsConfig{}, &activity);
  }

  anycast::PopTable pops;
  anycast::CatchmentModel catchment;
  dnssrv::AuthoritativeServer auth;
  PlantedActivity activity;
  std::vector<sim::DomainInfo> domains;
  std::unique_ptr<googledns::GooglePublicDns> gdns;
};

TEST(Rank, ZeroRatePrefixScoresZero) {
  Fixture f;
  ActivityRanker ranker(f.gdns.get(), f.domains);
  const auto row =
      ranker.rank_prefix(*net::Prefix::parse("10.0.0.0/24"), 0, 0);
  EXPECT_EQ(row.estimated_rate, 0);
  for (double rate : row.hit_rate) EXPECT_EQ(rate, 0);
}

TEST(Rank, EstimateGrowsWithPlantedRate) {
  Fixture f;
  const net::Prefix slow = *net::Prefix::parse("10.0.0.0/24");
  const net::Prefix medium = *net::Prefix::parse("10.0.1.0/24");
  const net::Prefix fast = *net::Prefix::parse("10.0.2.0/24");
  f.activity.plant(slow, 0.0005);
  f.activity.plant(medium, 0.004);
  f.activity.plant(fast, 0.03);
  RankOptions options;
  options.rounds = 48;
  ActivityRanker ranker(f.gdns.get(), f.domains, options);
  const double est_slow = ranker.rank_prefix(slow, 0, 0).estimated_rate;
  const double est_medium = ranker.rank_prefix(medium, 0, 0).estimated_rate;
  const double est_fast = ranker.rank_prefix(fast, 0, 0).estimated_rate;
  EXPECT_LT(est_slow, est_medium);
  EXPECT_LT(est_medium, est_fast);
}

TEST(Rank, InversionRecoversRateWithinFactor) {
  Fixture f;
  const net::Prefix target = *net::Prefix::parse("10.0.0.0/24");
  const double planted = 0.003;  // per (pop, block), q/s
  f.activity.plant(target, planted);
  RankOptions options;
  options.rounds = 96;
  ActivityRanker ranker(f.gdns.get(), f.domains, options);
  const auto row = ranker.rank_prefix(target, 0, 0);
  EXPECT_GT(row.estimated_rate, planted / 3);
  EXPECT_LT(row.estimated_rate, planted * 3);
}

TEST(Rank, SaturatedPrefixStillFinite) {
  Fixture f;
  const net::Prefix hot = *net::Prefix::parse("10.0.0.0/24");
  f.activity.plant(hot, 50.0);  // always cached
  ActivityRanker ranker(f.gdns.get(), f.domains);
  const auto row = ranker.rank_prefix(hot, 0, 0);
  EXPECT_TRUE(std::isfinite(row.estimated_rate));
  EXPECT_GT(row.estimated_rate, 0);
  for (double rate : row.hit_rate) EXPECT_GT(rate, 0.9);
}

TEST(Rank, DayNightContrastSeparatesHumanFromFlat) {
  // A diurnal world: plant two /24s at the same longitude, one human-like
  // (oscillating via a custom model) and one flat, and check the
  // phase-locked contrast separates them. We reuse the real world model
  // for an end-to-end version of this in `bench_paper diurnal`; here we
  // drive the Google front end with the sim's own activity model.
  sim::WorldConfig config;
  config.scale = 1.0 / 512;
  config.diurnal_amplitude = 0.65;
  const sim::World world = sim::World::generate(config);
  sim::WorldActivityModel activity(&world);
  googledns::GooglePublicDns gdns(&world.pops(), &world.catchment(),
                                  &world.authoritative(),
                                  googledns::GoogleDnsConfig{}, &activity);
  ActivityRanker ranker(&gdns, world.domains());

  // A busy human block and a busy bot block.
  const sim::Slash24Block* human = nullptr;
  const sim::Slash24Block* bot = nullptr;
  for (const sim::Slash24Block& block : world.blocks()) {
    if (!human && block.users > 300 &&
        world.ases()[block.as_index].google_dns_share > 0.25) {
      human = &block;
    }
    if ((!bot || block.bot_users > bot->bot_users) && block.bot_users > 5) {
      bot = &block;
    }
  }
  ASSERT_NE(human, nullptr);
  ASSERT_NE(bot, nullptr);
  const double human_contrast = ranker.day_night_contrast(
      net::Prefix::from_slash24_index(human->index), human->gdns_pop, 0,
      human->location.lon_deg, 16);
  const double bot_contrast = ranker.day_night_contrast(
      net::Prefix::from_slash24_index(bot->index), bot->gdns_pop, 0,
      bot->location.lon_deg, 16);
  EXPECT_GT(human_contrast, 0.3);
  EXPECT_LT(std::fabs(bot_contrast), 0.3);
}

TEST(Rank, StationaryWorldHasNoContrast) {
  // diurnal_amplitude defaults to 0.
  const Scenario scenario = ScenarioBuilder().scale_denominator(2048).build();
  const sim::World& world = scenario.world();
  ActivityRanker ranker(scenario.google_dns.get(), world.domains());
  const sim::Slash24Block* busy = nullptr;
  for (const sim::Slash24Block& block : world.blocks()) {
    if (block.users > 300) {
      busy = &block;
      break;
    }
  }
  ASSERT_NE(busy, nullptr);
  const double contrast = ranker.day_night_contrast(
      net::Prefix::from_slash24_index(busy->index), busy->gdns_pop, 0,
      busy->location.lon_deg, 16);
  EXPECT_LT(std::fabs(contrast), 0.35);
}

TEST(Rank, EndToEndRankingCorrelatesWithTruth) {
  const Scenario scenario = ScenarioBuilder().scale_denominator(1024).build();
  const sim::World& world = scenario.world();
  const auto artifacts = run_probing(scenario.env, scenario.options);
  const auto& result = artifacts.result;
  ASSERT_GT(result.active.size(), 20u);

  ActivityRanker ranker(scenario.google_dns.get(), world.domains());
  const auto ranked = ranker.rank(result, artifacts.pops);
  ASSERT_GT(ranked.size(), 20u);
  // Sorted descending by estimate.
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].estimated_rate, ranked[i].estimated_rate);
  }
  // Top-quartile prefixes should hold more true activity than the bottom
  // quartile.
  auto truth_of = [&](const PrefixActivity& row) {
    double rate = 0;
    const auto [first, last] = world.block_range(row.prefix);
    for (std::size_t b = first; b < last; ++b) {
      rate += world.gdns_rate(world.blocks()[b], 0);
    }
    return rate;
  };
  const std::size_t quarter = ranked.size() / 4;
  double top = 0, bottom = 0;
  for (std::size_t i = 0; i < quarter; ++i) {
    top += truth_of(ranked[i]);
    bottom += truth_of(ranked[ranked.size() - 1 - i]);
  }
  EXPECT_GT(top, bottom * 2);
}

}  // namespace
}  // namespace netclients::core
