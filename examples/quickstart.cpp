// Quickstart: generate a small synthetic Internet, run both measurement
// techniques (Google Public DNS cache probing and Chromium root-trace
// counting), and cross-compare against the CDN's privileged view — the
// whole paper in one file.
//
// Run:  build/examples/quickstart [scale-denominator]

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "core/obs/export.h"
#include "apnic/apnic.h"
#include "cdn/cdn.h"
#include "core/chromium/chromium.h"
#include "core/compare/compare.h"
#include "core/report/report.h"
#include "core/scenario/scenario.h"

using namespace netclients;

int main(int argc, char** argv) {
  obs::MetricsOutGuard metrics_out(&argc, argv);
  double denominator = 256;
  if (argc > 1) denominator = std::atof(argv[1]);

  // 1. A synthetic Internet plus the probe substrate, wired once.
  const core::Scenario scenario =
      core::ScenarioBuilder().scale_denominator(denominator).build();
  const sim::World& world = scenario.world();
  std::printf("world: %zu ASes, %zu allocated /24s, %.0f users\n",
              world.ases().size(), world.blocks().size(),
              world.total_users());

  // 2. Technique 1 — cache probing Google Public DNS.
  const auto artifacts =
      core::run_probing(scenario.env, scenario.options);
  const auto& pops = artifacts.pops;
  const auto& probing = artifacts.result;
  std::printf("cache probing: %zu vantage points reach %zu PoPs\n",
              pops.vp_pop.size(), pops.probed_pops.size());
  std::printf(
      "cache probing: %llu probes, %zu hits, active /24s in [%llu, %llu]\n",
      static_cast<unsigned long long>(probing.probes_sent),
      probing.hits.size(),
      static_cast<unsigned long long>(probing.slash24_lower_bound()),
      static_cast<unsigned long long>(probing.slash24_upper_bound()));

  // 3. Technique 2 — Chromium probes in root DITL traces. DITL is
  // captured with uniform sampling (the pipeline scales counts back up);
  // see DESIGN.md on laptop-scale trace handling. The capture is written
  // as a corpus of NCD1 files, the shape a DITL collection arrives in,
  // scanned in place, and removed.
  const std::string manifest = "quickstart_ditl.manifest";
  const std::optional<core::ChromiumResult> scanned =
      scenario.dns_logs(1.0 / 64, manifest);
  if (!scanned) {
    std::fprintf(stderr, "cannot write or read back %s\n", manifest.c_str());
    return 1;
  }
  const core::ChromiumResult& chromium = *scanned;
  std::printf(
      "DNS logs: %llu records, %llu matches, %llu collision-rejected, "
      "%zu resolvers\n",
      static_cast<unsigned long long>(chromium.records_scanned),
      static_cast<unsigned long long>(chromium.signature_matches),
      static_cast<unsigned long long>(chromium.rejected_collisions),
      chromium.probes_by_resolver.size());

  // 4. Validation datasets + cross-comparison.
  const cdn::CdnObservation ms = cdn::observe_cdn(world, {});
  core::PrefixDataset probing_ds =
      probing.to_prefix_dataset("cache probing");
  core::PrefixDataset logs_ds = chromium.to_prefix_dataset("DNS logs");
  core::PrefixDataset clients_ds("Microsoft clients");
  for (const auto& [idx, volume] : ms.client_volume) {
    clients_ds.add(idx, volume);
  }
  const auto matrix = core::prefix_overlap(
      {&probing_ds, &logs_ds, &clients_ds});
  std::printf("\n%s\n", core::render_overlap(matrix).c_str());
  std::printf("volume coverage: %.1f%% of CDN requests are in prefixes "
              "cache probing marks active\n",
              core::prefix_volume_share(clients_ds, probing_ds));

  const auto apnic_est = apnic::estimate_population(world, {});
  std::printf("APNIC publishes estimates for %zu of %zu ASes\n",
              apnic_est.users_by_as.size(), world.ases().size());
  return 0;
}
