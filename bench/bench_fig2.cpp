// Figure 2: CDF of the distance between calibration-hit prefixes and the
// PoP answering them, for three geographically diverse PoPs, plus the
// 90th-percentile "service radius" the campaign derives. Paper: radii
// range from 478 km (dense Europe) to 3273 km, max 5524 km (Zurich).

#include <cstdio>

#include "common.h"

using namespace netclients;

int main(int argc, char** argv) {
  obs::MetricsOutGuard metrics_out(&argc, argv);
  bench::Pipelines p =
      bench::PipelineBuilder().with_cache_probing().build();

  const std::vector<std::string> focus = {"Groningen", "The Dalles",
                                          "Charleston"};
  std::printf("Figure 2 — distance from cache-hit prefixes to their PoP\n"
              "(paper service radii ranged 478-3273 km for these PoPs)\n\n");

  std::vector<std::vector<std::string>> csv;
  for (const std::string& city : focus) {
    const auto pop = p.world().pops().find_by_city(city);
    if (!pop || !p.calibration.hit_distances_km.contains(*pop)) {
      std::printf("  %-12s (no calibration hits)\n", city.c_str());
      continue;
    }
    const core::Cdf cdf(p.calibration.hit_distances_km.at(*pop));
    std::printf("  %-12s hits=%4zu  p50=%6.0f km  p90=%6.0f km  "
                "radius=%6.0f km\n",
                city.c_str(), cdf.size(), cdf.quantile(0.5),
                cdf.quantile(0.9), p.calibration.service_radius_km.at(*pop));
    for (const auto& [km, frac] : cdf.points(50)) {
      csv.push_back({city, core::fixed(km, 1), core::fixed(frac, 4)});
    }
  }

  std::printf("\nall probed PoPs (90th-percentile service radius):\n");
  std::vector<std::pair<double, std::string>> radii;
  for (const auto& [pop, radius] : p.calibration.service_radius_km) {
    radii.emplace_back(radius, p.world().pops().site(pop).city);
  }
  std::sort(radii.begin(), radii.end());
  for (const auto& [radius, city] : radii) {
    std::printf("  %-16s %7.0f km\n", city.c_str(), radius);
  }
  std::printf("\nper-PoP assignment average: %.1f candidates "
              "(paper: 2.4M per PoP with per-PoP radii vs 4.4M with the "
              "5524 km max radius)\n",
              p.probing.average_assigned_per_pop);

  core::write_csv(bench::out_path("fig2_distance_cdf.csv"),
                  {"pop", "distance_km", "cumulative_fraction"}, csv);
  return 0;
}
