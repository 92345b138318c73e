// Outage impact assessment — the paper's opening motivation ("does an
// outage impact any users?").
//
// Scenario: a routing incident takes down a set of prefixes. Without an
// activity map, all you can report is "N /24s unreachable". With the
// cache-probing activity map, you can weight the outage by whether those
// prefixes actually host clients — and the simulator's ground truth lets
// us check the assessment.
//
// Run:  build/examples/outage_impact [scale-denominator]

#include <cstdio>
#include <utility>
#include <cstdlib>

#include "core/obs/export.h"
#include "core/scenario/scenario.h"
#include "net/rng.h"

using namespace netclients;

int main(int argc, char** argv) {
  obs::MetricsOutGuard metrics_out(&argc, argv);
  double denominator = 256;
  if (argc > 1) denominator = std::atof(argv[1]);
  const core::Scenario scenario =
      core::ScenarioBuilder().scale_denominator(denominator).build();
  const sim::World& world = scenario.world();

  // Build the activity map once (this is what an operator would keep
  // refreshed in production).
  const auto result =
      core::run_probing(scenario.env, scenario.options).result;
  std::printf("activity map ready: [%llu, %llu] active /24s\n\n",
              static_cast<unsigned long long>(result.slash24_lower_bound()),
              static_cast<unsigned long long>(result.slash24_upper_bound()));

  // Simulate three outages: a dense eyeball AS, a hosting AS, and an
  // unrouted block (e.g. a bogus hijack alarm).
  struct Outage {
    const char* label;
    std::vector<net::Prefix> prefixes;
    double true_users = 0;
  };
  std::vector<Outage> outages;
  for (const sim::AsEntry& as : world.ases()) {
    if (outages.size() == 0 && as.type == sim::AsType::kIspEyeball &&
        as.users > 5000) {
      outages.push_back({"regional ISP outage", as.announced, 0});
    } else if (outages.size() == 1 &&
               as.type == sim::AsType::kHostingCloud &&
               as.bot_users > 100) {
      outages.push_back({"hosting provider outage", as.announced, 0});
    } else if (outages.size() == 2) {
      break;
    }
  }
  // Unrouted space "outage".
  for (const sim::Slash24Block& block : world.blocks()) {
    if (!block.routed) {
      outages.push_back(
          {"unrouted space (false alarm)",
           {net::Prefix::from_slash24_index(block.index).widen_to(20)},
           0});
      break;
    }
  }

  std::printf("%-28s %10s %14s %14s %12s\n", "incident", "/24s down",
              "active (map)", "active share", "true users");
  for (Outage& outage : outages) {
    std::uint64_t total = 0, active = 0;
    for (const net::Prefix& p : outage.prefixes) {
      const std::uint32_t first = p.first_slash24_index();
      for (std::uint64_t k = 0; k < p.slash24_count(); ++k) {
        ++total;
        active += result.active.covers(net::Prefix::from_slash24_index(
            first + static_cast<std::uint32_t>(k)));
      }
      const auto [lo, hi] = world.block_range(p);
      for (std::size_t b = lo; b < hi; ++b) {
        outage.true_users += world.blocks()[b].users;
      }
    }
    std::printf("%-28s %10llu %14llu %13.0f%% %12.0f\n", outage.label,
                static_cast<unsigned long long>(total),
                static_cast<unsigned long long>(active),
                total ? 100.0 * active / total : 0, outage.true_users);
  }
  std::printf(
      "\nReading: raw \"/24s down\" counts rank the incidents wrongly; the\n"
      "activity map separates the user-affecting outage from infrastructure\n"
      "noise, matching the ground-truth user counts.\n");
  return 0;
}
