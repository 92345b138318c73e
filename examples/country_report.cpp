// Per-country Internet activity report: combines both techniques with the
// APNIC baseline into the kind of per-country summary the paper's Figure 3
// is built from — APNIC population, ASes detected by each technique, and
// coverage of the population.
//
// Run:  build/examples/country_report [scale-denominator] [country-code]

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "core/obs/export.h"
#include "apnic/apnic.h"
#include "core/chromium/chromium.h"
#include "core/compare/compare.h"
#include "core/report/report.h"
#include "core/scenario/scenario.h"

using namespace netclients;

int main(int argc, char** argv) {
  obs::MetricsOutGuard metrics_out(&argc, argv);
  double denominator = 256;
  if (argc > 1) denominator = std::atof(argv[1]);
  const char* focus = argc > 2 ? argv[2] : nullptr;

  const core::Scenario scenario =
      core::ScenarioBuilder().scale_denominator(denominator).build();
  const sim::World& world = scenario.world();

  const auto probing =
      core::run_probing(scenario.env, scenario.options).result;
  const auto probing_as = core::to_as_dataset(
      "cache probing", probing.to_prefix_dataset("p"), world);

  // The sampled DITL capture, written as a corpus of NCD1 files (the
  // shape a DITL collection arrives in), scanned in place, and removed.
  const std::string manifest = "country_report_ditl.manifest";
  const std::optional<core::ChromiumResult> chromium =
      scenario.dns_logs(1.0 / 64, manifest);
  if (!chromium) {
    std::fprintf(stderr, "cannot write or read back %s\n", manifest.c_str());
    return 1;
  }
  const auto logs_as = core::to_as_dataset(
      "DNS logs", chromium->to_prefix_dataset("l"), world);

  const auto apnic_est = apnic::estimate_population(world, {});
  const auto coverage =
      core::country_coverage(world, apnic_est.users_by_as, probing_as);

  // Per-country AS tallies.
  std::unordered_map<std::uint16_t, int> total_ases, probing_hits, log_hits;
  for (const sim::AsEntry& as : world.ases()) {
    ++total_ases[as.country];
    probing_hits[as.country] += probing_as.contains(as.asn);
    log_hits[as.country] += logs_as.contains(as.asn);
  }
  std::unordered_map<std::string, std::uint16_t> index_of;
  for (std::uint16_t c = 0; c < world.countries().size(); ++c) {
    index_of[world.countries()[c].code] = c;
  }

  core::TextTable table;
  table.set_header({"country", "APNIC users", "ASes", "probing", "DNS logs",
                    "APNIC pop covered"});
  for (const auto& row : coverage) {
    if (focus && std::strcmp(row.code.c_str(), focus) != 0) continue;
    const std::uint16_t c = index_of[row.code];
    table.add_row({row.name, core::human_count(row.apnic_users),
                   std::to_string(total_ases[c]),
                   std::to_string(probing_hits[c]),
                   std::to_string(log_hits[c]),
                   core::pct(100 * row.covered_fraction)});
  }
  std::printf("%s", table.to_string().c_str());
  return 0;
}
