// Coverage diagnosis: why does cache probing miss the client volume it
// misses? For every ground-truth client /24 the tool attributes the miss
// to one of the pipeline's failure modes:
//   1. the /24's Google queries are served by an unprobed PoP;
//   2. the serving PoP is probed, but geolocation placed the prefix
//      outside that PoP's service radius, so it was never assigned there;
//   3. it was probed at the right PoP but never returned a cache hit
//      (activity too low for the domains' TTL windows, or non-Google-DNS
//      clients only).
//
// This is the kind of introspection the paper's §6 roadmap calls for; it
// requires ground truth, so it only exists in simulation.
//
// Run:  build/examples/coverage_diagnosis [scale-denominator]

#include <cstdio>
#include <utility>
#include <cstdlib>
#include <unordered_set>

#include "core/obs/export.h"
#include "core/scenario/scenario.h"
#include "net/geo.h"

using namespace netclients;

int main(int argc, char** argv) {
  obs::MetricsOutGuard metrics_out(&argc, argv);
  double denominator = 256;
  if (argc > 1) denominator = std::atof(argv[1]);
  const core::Scenario scenario =
      core::ScenarioBuilder().scale_denominator(denominator).build();
  const sim::World& world = scenario.world();

  const auto artifacts =
      core::run_probing(scenario.env, scenario.options);
  const auto& pops = artifacts.pops;
  const auto& calibration = artifacts.calibration;
  const auto& result = artifacts.result;

  std::unordered_set<anycast::PopId> probed;
  for (const auto& [pop, vp] : pops.probed_pops) probed.insert(pop);

  double covered = 0, unprobed_pop = 0, unassigned = 0, no_hit = 0;
  double total = 0;
  for (const sim::Slash24Block& block : world.blocks()) {
    const double volume = block.clients();
    if (volume <= 0) continue;
    total += volume;
    if (result.active.covers(net::Prefix::from_slash24_index(block.index))) {
      covered += volume;
      continue;
    }
    if (!probed.contains(block.gdns_pop)) {
      unprobed_pop += volume;
      continue;
    }
    // Was any domain's scope block for this /24 assigned to the serving
    // PoP? Approximate with the top domain's scope and the calibrated
    // radius check the campaign uses.
    const auto rec = world.geodb().lookup(block.index);
    bool assignable = false;
    if (rec) {
      const double radius =
          calibration.service_radius_km.contains(block.gdns_pop)
              ? calibration.service_radius_km.at(block.gdns_pop)
              : 0;
      const double km = net::haversine_km(
          rec->location, world.pops().site(block.gdns_pop).location);
      assignable = km <= radius + rec->error_radius_km;
    }
    (assignable ? no_hit : unassigned) += volume;
  }

  std::printf("client volume (ground truth, weighted by clients):\n");
  std::printf("  covered by cache probing : %5.1f%%\n", 100 * covered / total);
  std::printf("  served by unprobed PoP   : %5.1f%%\n",
              100 * unprobed_pop / total);
  std::printf("  outside service radius   : %5.1f%%\n",
              100 * unassigned / total);
  std::printf("  probed but never hit     : %5.1f%%\n", 100 * no_hit / total);
  std::printf("\nper-PoP service radii (km):\n");
  for (const auto& [pop, radius] : calibration.service_radius_km) {
    std::printf("  %-16s %7.0f  (%zu calibration hits)\n",
                world.pops().site(pop).city.c_str(), radius,
                calibration.hit_distances_km.at(pop).size());
  }
  return 0;
}
