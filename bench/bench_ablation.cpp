// Ablations of the campaign's design choices (DESIGN.md): redundant-query
// count, per-PoP service radii vs one max radius, transport, and campaign
// duration (loop count). Run at a reduced scale so the sweep stays fast;
// set REPRO_SCALE to override.

#include <cstdio>

#include "common.h"
#include "core/scenario/scenario.h"

using namespace netclients;

namespace {

core::CampaignResult run_with(const core::Scenario& s,
                              const core::CacheProbeOptions& opts,
                              double* assigned = nullptr) {
  core::CacheProbeCampaign campaign(s.env, opts);
  auto result = campaign.run().result;
  if (assigned) *assigned = result.average_assigned_per_pop;
  return result;
}

double truth_coverage(const core::Scenario& s,
                      const core::CampaignResult& r) {
  double covered = 0, total = 0;
  for (const sim::Slash24Block& block : s.world().blocks()) {
    if (block.clients() <= 0) continue;
    total += block.clients();
    if (r.active.covers(net::Prefix::from_slash24_index(block.index))) {
      covered += block.clients();
    }
  }
  return total > 0 ? 100.0 * covered / total : 0;
}

}  // namespace

int main(int argc, char** argv) {
  obs::MetricsOutGuard metrics_out(&argc, argv);
  const core::Scenario s = core::ScenarioBuilder()
                               .scale_denominator(bench::scale_denominator(256))
                               .build();
  std::fprintf(stderr, "[ablation] world: %zu /24s\n",
               s.world().blocks().size());

  // ---- 1. Redundant queries (the paper uses 5 to cover cache pools) ----
  std::printf("Ablation 1 — redundant queries per (PoP, prefix, domain)\n");
  std::printf("  %-10s %12s %14s %12s\n", "redundant", "probes", "client cov",
              "upper bound");
  for (int redundant : {1, 2, 3, 5, 8}) {
    core::CacheProbeOptions opts;
    opts.probe.redundant_queries = redundant;
    opts.max_loops = 3;
    const auto result = run_with(s, opts);
    std::printf("  %-10d %12llu %13.1f%% %12llu\n", redundant,
                static_cast<unsigned long long>(result.probes_sent),
                truth_coverage(s, result),
                static_cast<unsigned long long>(
                    result.slash24_upper_bound()));
  }

  // ---- 2. Per-PoP radii vs one max radius ------------------------------
  // The paper: per-PoP radii average 2.4M candidates per PoP vs 4.4M with
  // the 5,524 km maximum everywhere.
  std::printf("\nAblation 2 — service-radius policy\n");
  std::printf("  %-22s %16s %12s %14s\n", "policy", "assigned/PoP",
              "probes", "client cov");
  {
    core::CacheProbeOptions per_pop;
    per_pop.max_loops = 3;
    double assigned = 0;
    const auto result = run_with(s, per_pop, &assigned);
    std::printf("  %-22s %16.1f %12llu %13.1f%%\n", "per-PoP (paper)",
                assigned,
                static_cast<unsigned long long>(result.probes_sent),
                truth_coverage(s, result));
  }
  {
    core::CacheProbeOptions max_radius;
    max_radius.max_loops = 3;
    max_radius.use_max_radius_everywhere = true;
    const auto result = run_with(s, max_radius, nullptr);
    std::printf("  %-22s %16.1f %12llu %13.1f%%\n", "max radius everywhere",
                result.average_assigned_per_pop,
                static_cast<unsigned long long>(result.probes_sent),
                truth_coverage(s, result));
  }

  // ---- 3. Transport ------------------------------------------------------
  std::printf("\nAblation 3 — transport (why the campaign uses TCP)\n");
  std::printf("  %-6s %12s %14s %14s\n", "proto", "probes", "rate-limited",
              "client cov");
  for (auto transport :
       {googledns::Transport::kTcp, googledns::Transport::kUdp}) {
    core::CacheProbeOptions opts;
    opts.probe.transport = transport;
    opts.max_loops = 3;
    const auto result = run_with(s, opts);
    std::printf("  %-6s %12llu %14llu %13.1f%%\n",
                transport == googledns::Transport::kTcp ? "TCP" : "UDP",
                static_cast<unsigned long long>(result.probes_sent),
                static_cast<unsigned long long>(result.rate_limited),
                truth_coverage(s, result));
  }

  // ---- 4. Campaign duration (loops over the assigned list) --------------
  std::printf("\nAblation 4 — campaign duration (loop count; the paper "
              "loops for 120h)\n");
  std::printf("  %-6s %12s %14s\n", "loops", "probes", "client cov");
  for (int loops : {1, 2, 4, 6}) {
    core::CacheProbeOptions opts;
    opts.max_loops = loops;
    const auto result = run_with(s, opts);
    std::printf("  %-6d %12llu %13.1f%%\n", loops,
                static_cast<unsigned long long>(result.probes_sent),
                truth_coverage(s, result));
  }
  return 0;
}
