// Geolocation trust scoring — the paper's second motivating use case:
// "geolocation databases like MaxMind are more accurate for end-user
// networks [16], so knowing which networks host end-users provides insight
// into which geolocation results are trustworthy."
//
// This example classifies every geolocatable /24 as client-active or not
// (using the cache-probing map) and measures the database's true error in
// each class against simulator ground truth.
//
// Run:  build/examples/geolocation_confidence [scale-denominator]

#include <cstdio>
#include <utility>
#include <cstdlib>
#include <vector>

#include "core/obs/export.h"
#include "core/compare/compare.h"
#include "core/scenario/scenario.h"

using namespace netclients;

int main(int argc, char** argv) {
  obs::MetricsOutGuard metrics_out(&argc, argv);
  double denominator = 256;
  if (argc > 1) denominator = std::atof(argv[1]);
  const core::Scenario scenario =
      core::ScenarioBuilder().scale_denominator(denominator).build();
  const sim::World& world = scenario.world();

  const auto result =
      core::run_probing(scenario.env, scenario.options).result;

  std::vector<double> active_errors, inactive_errors;
  for (const sim::Slash24Block& block : world.blocks()) {
    const auto rec = world.geodb().lookup(block.index);
    if (!rec) continue;
    const double error_km = net::haversine_km(block.location, rec->location);
    if (result.active.covers(net::Prefix::from_slash24_index(block.index))) {
      active_errors.push_back(error_km);
    } else {
      inactive_errors.push_back(error_km);
    }
  }
  const core::Cdf active_cdf(std::move(active_errors));
  const core::Cdf inactive_cdf(std::move(inactive_errors));

  std::printf("MaxMind-style geolocation error vs ground truth, split by\n"
              "cache-probing client activity (%zu active, %zu inactive "
              "/24s):\n\n",
              active_cdf.size(), inactive_cdf.size());
  std::printf("  quantile   client-active /24s   other /24s\n");
  for (double q : {0.5, 0.75, 0.9, 0.95}) {
    std::printf("  p%-8.0f %17.0f km %9.0f km\n", q * 100,
                active_cdf.quantile(q), inactive_cdf.quantile(q));
  }
  std::printf("\nReading: geolocation of prefixes the activity map marks as\n"
              "client-hosting is substantially more accurate — a database\n"
              "consumer can use the map as a per-prefix confidence signal.\n");
  return 0;
}
