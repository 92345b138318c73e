// §6 temporal-signal experiment: separating human prefixes from bot
// prefixes by their diurnal activity swing. The world is generated with a
// human day/night cycle (bots flat); the classifier probes each prefix's
// activity at several times of day and thresholds the relative swing.
//
// This is the forward-looking experiment the paper sketches ("using
// signals such as ... patterns over time (e.g., diurnal patterns)") — no
// paper figure exists, so ground-truth precision/recall is the deliverable.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "anycast/vantage.h"
#include "common.h"
#include "core/rank/activity_rank.h"
#include "sim/activity.h"

using namespace netclients;

int main(int argc, char** argv) {
  obs::MetricsOutGuard metrics_out(&argc, argv);
  sim::WorldConfig config;
  config.scale = 1.0 / bench::scale_denominator(256);
  config.diurnal_amplitude = 0.65;
  const sim::World world = sim::World::generate(config);
  sim::WorldActivityModel activity(&world);
  googledns::GooglePublicDns gdns(&world.pops(), &world.catchment(),
                                  &world.authoritative(),
                                  googledns::GoogleDnsConfig{}, &activity);
  core::ProbeEnvironment probe_env;
  probe_env.authoritative = &world.authoritative();
  probe_env.google_dns = &gdns;
  probe_env.geodb = &world.geodb();
  probe_env.vantage_points = anycast::default_vantage_fleet();
  probe_env.domains = world.domains();
  probe_env.slash24_begin = 1u << 16;
  probe_env.slash24_end = world.address_space_end();
  core::CacheProbeCampaign campaign(std::move(probe_env));
  const auto artifacts = campaign.run();
  const auto& pops = artifacts.pops;
  const auto& probing = artifacts.result;
  std::fprintf(stderr, "[diurnal] %zu active prefixes\n",
               probing.active.size());

  std::unordered_map<anycast::PopId, int> vp_of;
  for (const auto& [pop, vp] : pops.probed_pops) vp_of.emplace(pop, vp);
  std::unordered_map<std::uint32_t, anycast::PopId> pop_of;
  for (const core::CacheHit& hit : probing.hits) {
    pop_of.emplace(hit.query_scope.base().value(), hit.pop);
  }

  core::ActivityRanker ranker(&gdns, world.domains());
  // Phase-locked contrast: the prober geolocates the prefix (MaxMind) and
  // compares activity estimates at its local evening vs pre-dawn.
  const double threshold = 0.30;  // contrast above this => human
  int human_total = 0, human_flagged = 0;
  int bot_total = 0, bot_flagged = 0;
  std::vector<std::vector<std::string>> csv;
  probing.active.for_each([&](net::Prefix prefix) {
    const auto pop_it = pop_of.find(prefix.base().value());
    if (pop_it == pop_of.end() || !vp_of.contains(pop_it->second)) return;
    const auto geo = world.geodb().lookup(prefix.first_slash24_index());
    if (!geo) return;
    // Ground truth composition of the prefix.
    double humans = 0, bots = 0;
    const auto [first, last] = world.block_range(prefix);
    for (std::size_t b = first; b < last; ++b) {
      humans += world.blocks()[b].users;
      bots += world.blocks()[b].bot_users;
    }
    const bool truly_human = humans > bots;
    const double contrast = ranker.day_night_contrast(
        prefix, pop_it->second, vp_of.at(pop_it->second),
        geo->location.lon_deg);
    const bool flagged_human = contrast > threshold;
    (truly_human ? human_total : bot_total) += 1;
    if (truly_human) {
      human_flagged += flagged_human;
    } else {
      bot_flagged += flagged_human;
    }
    csv.push_back({prefix.to_string(), truly_human ? "human" : "bot",
                   core::fixed(contrast, 4)});
  });

  std::printf("Human-vs-bot classification by day/night contrast "
              "(threshold %.2f)\n\n", threshold);
  std::printf("  ground truth   prefixes   flagged human   rate\n");
  std::printf("  human        %10d %15d %5.1f%%   (recall)\n", human_total,
              human_flagged,
              human_total ? 100.0 * human_flagged / human_total : 0);
  std::printf("  bot          %10d %15d %5.1f%%   (false-positive "
              "rate)\n",
              bot_total, bot_flagged,
              bot_total ? 100.0 * bot_flagged / bot_total : 0);
  std::printf("\n(no paper reference — §6 sketches this as future work; the "
              "signal exists\n because human query rates swing with local "
              "time of day while bots are flat)\n");
  core::write_csv(bench::out_path("diurnal_swings.csv"),
                  {"prefix", "truth", "swing"}, csv);
  return 0;
}
