// The paper's tables, figures and headline claims (DESIGN.md's experiment
// index), rendered from one measurement study.
//
// Run:  build/bench/bench_paper [id ...]
//
// Each id names one section: table1..table5, fig1..fig7, headline,
// collisions, rank, ablation, diurnal. With no id every section renders;
// with ids, those do, always in the table's order. Each section prints a
// `== <id> ==` line, then its paper-style table on stdout, and writes its
// CSV series under bench_out/.
//
// The sections that read the study share one world, campaign, DITL crawl
// and validation datasets (`Pipelines`), built when the first of them
// renders. `collisions` needs no world; `ablation` and `diurnal` build
// their own scenario, at 1/256 scale unless REPRO_SCALE is set, since they
// run many campaigns or need a diurnal world. REPRO_SCALE, REPRO_THREADS
// and `--metrics-out` (common.h) apply to every section, REPRO_DITL_SAMPLE
// to the shared DITL crawl.

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "apnic/apnic.h"
#include "cdn/cdn.h"
#include "common.h"
#include "core/cacheprobe/cacheprobe.h"
#include "core/chromium/chromium.h"
#include "core/compare/compare.h"
#include "core/datasets/datasets.h"
#include "core/exec/exec.h"
#include "core/obs/obs.h"
#include "core/rank/activity_rank.h"
#include "core/report/report.h"
#include "core/scenario/scenario.h"
#include "googledns/google_dns.h"
#include "sim/world.h"

using namespace netclients;

namespace {

// ---- The shared study ----------------------------------------------------

/// Every stage's output and the datasets the shared sections read.
struct Pipelines {
  /// The wired world + probe substrate (core::ScenarioBuilder output).
  core::Scenario scenario;

  const sim::World& world() const { return scenario.world(); }
  googledns::GooglePublicDns* google_dns() const {
    return scenario.google_dns.get();
  }

  core::PopDiscoveryResult pops;
  core::CalibrationResult calibration;
  core::CampaignResult probing;

  core::ChromiumResult chromium;
  cdn::CdnObservation ms;
  apnic::ApnicEstimate apnic;

  // /24-level datasets (Table 1 naming).
  core::PrefixDataset probing_prefixes{"cache probing"};
  core::PrefixDataset logs_prefixes{"DNS logs"};
  core::PrefixDataset union_prefixes{"cache probing + DNS logs"};
  core::PrefixDataset clients_prefixes{"Microsoft clients"};
  core::PrefixDataset resolvers_prefixes{"Microsoft resolvers"};
  core::PrefixDataset ecs_prefixes{"cloud ECS prefixes"};

  // AS-level datasets (Tables 3/4 naming).
  core::AsDataset probing_as{"cache probing"};
  core::AsDataset logs_as{"DNS logs"};
  core::AsDataset union_as{"cache probing + DNS logs"};
  core::AsDataset apnic_as{"APNIC"};
  core::AsDataset clients_as{"Microsoft clients"};
  core::AsDataset resolvers_as{"Microsoft resolvers"};
};

/// World → campaign → DITL crawl → CDN/APNIC, each stage timed with
/// obs::StageSpan: the narration on stderr and the spans exported via
/// `--metrics-out` come from the same registry records.
Pipelines build_pipelines() {
  obs::Registry& registry = obs::Registry::global();
  Pipelines p;
  const int threads = core::exec::thread_count();
  registry.gauge("bench.scale_denominator").set(bench::scale_denominator());
  {
    obs::StageSpan span("bench.world_generation");
    std::fprintf(stderr, "[bench] scale 1/%.0f, %d threads\n",
                 bench::scale_denominator(), threads);
    p.scenario = core::ScenarioBuilder()
                     .scale_denominator(bench::scale_denominator())
                     .threads(threads)
                     .build();
    std::fprintf(stderr, "[bench] %zu ASes, %zu /24s, %.0f users\n",
                 p.world().ases().size(), p.world().blocks().size(),
                 p.world().total_users());
    registry.gauge("bench.world.ases")
        .set(static_cast<double>(p.world().ases().size()));
    registry.gauge("bench.world.slash24s")
        .set(static_cast<double>(p.world().blocks().size()));
    registry.gauge("bench.world.users").set(p.world().total_users());
  }

  {
    obs::StageSpan span("bench.cache_probing_campaign");
    core::CampaignArtifacts artifacts = p.scenario.campaign().run();
    p.pops = std::move(artifacts.pops);
    p.calibration = std::move(artifacts.calibration);
    p.probing = std::move(artifacts.result);
    p.probing_prefixes = p.probing.to_prefix_dataset("cache probing");
    std::fprintf(stderr, "[bench] %llu probes, %zu hits\n",
                 static_cast<unsigned long long>(p.probing.probes_sent),
                 p.probing.hits.size());
  }

  {
    obs::StageSpan span("bench.ditl_crawl");
    const std::string manifest = bench::out_path("ditl.manifest");
    std::optional<core::ChromiumResult> logs = p.scenario.dns_logs(
        1.0 / bench::ditl_sample_denominator(), manifest);
    if (!logs) {
      std::fprintf(stderr, "[bench] cannot write or open the DITL corpus %s\n",
                   manifest.c_str());
      std::exit(1);
    }
    p.chromium = std::move(*logs);
    p.logs_prefixes = p.chromium.to_prefix_dataset("DNS logs");
  }

  {
    obs::StageSpan span("bench.cdn_apnic_observation");
    p.ms = cdn::observe_cdn(p.world(), {});
    p.apnic = apnic::estimate_population(p.world(), {});
    for (const auto& [idx, volume] : p.ms.client_volume) {
      p.clients_prefixes.add(idx, volume);
    }
    for (const auto& [idx, clients] : p.ms.resolver_clients) {
      p.resolvers_prefixes.add(idx, clients);
    }
    for (std::uint32_t idx : p.ms.ecs_prefixes) p.ecs_prefixes.add(idx);
    for (const auto& [asn, users] : p.apnic.users_by_as) {
      p.apnic_as.add(asn, users);
    }
  }

  p.union_prefixes = core::PrefixDataset::union_of(
      "cache probing + DNS logs", p.probing_prefixes, p.logs_prefixes);
  p.probing_as = core::to_as_dataset("cache probing", p.probing_prefixes,
                                     p.world());
  p.logs_as = core::to_as_dataset("DNS logs", p.logs_prefixes, p.world());
  p.union_as = core::AsDataset::union_of("cache probing + DNS logs",
                                         p.probing_as, p.logs_as);
  p.clients_as =
      core::to_as_dataset("Microsoft clients", p.clients_prefixes, p.world());
  p.resolvers_as = core::to_as_dataset("Microsoft resolvers",
                                       p.resolvers_prefixes, p.world());
  return p;
}

/// The shared study, built by the first section that reads it.
class Study {
 public:
  const Pipelines& pipelines() {
    if (!pipelines_) pipelines_.emplace(build_pipelines());
    return *pipelines_;
  }

 private:
  std::optional<Pipelines> pipelines_;
};

/// One CSV row per (row, column) cell of an overlap matrix (Tables 1, 3).
void write_overlap_csv(const core::OverlapMatrix& matrix,
                       const std::string& name) {
  std::vector<std::vector<std::string>> rows;
  for (std::size_t r = 0; r < matrix.names.size(); ++r) {
    for (std::size_t c = 0; c < matrix.names.size(); ++c) {
      rows.push_back({matrix.names[r], matrix.names[c],
                      std::to_string(matrix.cells[r][c]),
                      core::fixed(matrix.row_pct(r, c), 2)});
    }
  }
  core::write_csv(bench::out_path(name),
                  {"row", "column", "intersection", "row_pct"}, rows);
}

// ---- Table 1 ---------------------------------------------------------------
// /24-prefix overlap between {cache probing, DNS logs, their union,
// Microsoft clients, Microsoft resolvers}. Paper reference (full scale):
// cache probing 9712.2K, DNS logs 692.2K, union 9753.9K, clients 8849.9K,
// resolvers 967.7K; clients∩probing = 74.7% of clients row.

void table1(Study& study) {
  const Pipelines& p = study.pipelines();
  const std::vector<const core::PrefixDataset*> sets = {
      &p.probing_prefixes, &p.logs_prefixes, &p.union_prefixes,
      &p.clients_prefixes, &p.resolvers_prefixes};
  const core::OverlapMatrix matrix = core::prefix_overlap(sets);

  std::printf("Table 1 — /24 prefix overlap (row: count in both, %% of row "
              "dataset also in column)\n\n%s\n",
              core::render_overlap(matrix).c_str());

  std::printf("paper reference (%% of row in column):\n");
  std::printf("  Microsoft clients in cache probing : paper 74.7%%\n");
  std::printf("  DNS logs in Microsoft clients      : paper 95.5%%\n");
  std::printf("  cache probing in Microsoft clients : paper 68.1%%\n");
  std::printf("  Microsoft resolvers in union       : paper 98.6%%\n");

  write_overlap_csv(matrix, "table1.csv");
}

// ---- Table 2 ---------------------------------------------------------------
// Stability of ECS scopes — for each probed domain, how many cache hits
// returned a response scope equal to the (earlier-discovered) query scope,
// within 2 bits, or within 4. Paper: 90% exact, 97% within 2, 99% within 4
// overall.

void table2(Study& study) {
  const Pipelines& p = study.pipelines();
  const std::size_t domains = p.world().domains().size();
  std::vector<std::uint64_t> total(domains, 0), exact(domains, 0),
      within2(domains, 0), within4(domains, 0);
  for (const core::CacheHit& hit : p.probing.hits) {
    const auto d = static_cast<std::size_t>(hit.domain_index);
    const int diff = std::abs(static_cast<int>(hit.query_scope.length()) -
                              static_cast<int>(hit.return_scope));
    ++total[d];
    if (diff == 0) ++exact[d];
    if (diff <= 2) ++within2[d];
    if (diff <= 4) ++within4[d];
  }

  core::TextTable table;
  std::vector<std::string> header{"Scope difference"};
  for (const auto& domain : p.world().domains()) {
    header.push_back(domain.name.to_string());
  }
  header.push_back("Overall");
  table.set_header(std::move(header));

  auto add_row = [&](const char* label,
                     const std::vector<std::uint64_t>& counts) {
    std::vector<std::string> row{label};
    std::uint64_t sum = 0, denom = 0;
    for (std::size_t d = 0; d < domains; ++d) {
      sum += counts[d];
      denom += total[d];
      const double share =
          total[d] == 0 ? 0 : 100.0 * counts[d] / total[d];
      row.push_back(std::to_string(counts[d]) + " (" +
                    core::pct(share, 0) + ")");
    }
    row.push_back(std::to_string(sum) + " (" +
                  core::pct(denom == 0 ? 0 : 100.0 * sum / denom, 0) + ")");
    table.add_row(std::move(row));
  };
  add_row("Exact match", exact);
  add_row("Within 2", within2);
  add_row("Within 4", within4);

  std::printf("Table 2 — query scope vs response scope of cache hits\n"
              "(paper: 90%% exact, 97%% within 2, 99%% within 4 overall)\n\n"
              "%s\n",
              table.to_string().c_str());

  std::vector<std::vector<std::string>> rows;
  for (std::size_t d = 0; d < domains; ++d) {
    rows.push_back({p.world().domains()[d].name.to_string(),
                    std::to_string(total[d]), std::to_string(exact[d]),
                    std::to_string(within2[d]), std::to_string(within4[d])});
  }
  core::write_csv(bench::out_path("table2.csv"),
                  {"domain", "hits", "exact", "within2", "within4"}, rows);
}

// ---- Table 3 ---------------------------------------------------------------
// AS-level overlap between the two techniques, their union, APNIC,
// Microsoft clients and Microsoft resolvers. Paper diagonal: 36,989 /
// 39,652 / 51,859 / 23,344 / 64,766 / 40,394 (scale-dependent); headline
// ratios: APNIC misses 64% of Microsoft-client ASes, the union misses only
// ~23%.

void table3(Study& study) {
  const Pipelines& p = study.pipelines();
  const std::vector<const core::AsDataset*> sets = {
      &p.probing_as, &p.logs_as,      &p.union_as,
      &p.apnic_as,   &p.clients_as,   &p.resolvers_as};
  const core::OverlapMatrix matrix = core::as_overlap(sets);

  std::printf("Table 3 — AS overlap (count, %% of row dataset also in "
              "column)\n\n%s\n",
              core::render_overlap(matrix, /*human=*/false).c_str());

  const auto pct_of = [&](std::size_t row, std::size_t col) {
    return matrix.row_pct(row, col);
  };
  std::printf("headline ratios (ours vs paper):\n");
  std::printf("  APNIC coverage of Microsoft clients   : %5.1f%%  (paper "
              "35.9%%)\n", pct_of(4, 3));
  std::printf("  union coverage of Microsoft clients   : %5.1f%%  (paper "
              "77.2%%)\n", pct_of(4, 2));
  std::printf("  cache probing found in MS clients     : %5.1f%%  (paper "
              "97.1%%)\n", pct_of(0, 4));
  std::printf("  DNS logs found in MS clients          : %5.1f%%  (paper "
              "97.8%%)\n", pct_of(1, 4));
  std::printf("  union coverage of APNIC               : %5.1f%%  (paper "
              "93.8%%)\n", pct_of(3, 2));
  std::printf("  technique overlap (probing in logs)   : %5.1f%%  (paper "
              "67.0%%)\n", pct_of(0, 1));

  write_overlap_csv(matrix, "table3.csv");
}

// ---- Table 4 ---------------------------------------------------------------
// Percent of each dataset's activity *volume* in ASes that also appear in
// each other dataset. Rows need a volume measure, so cache probing and the
// union appear only as columns (as in the paper). Paper: DNS-logs ASes hold
// 97.6% of APNIC population; union holds 98.8% of Microsoft clients volume
// and 100.0% of Microsoft resolvers volume.

void table4(Study& study) {
  const Pipelines& p = study.pipelines();
  const std::vector<const core::AsDataset*> rows = {
      &p.logs_as, &p.apnic_as, &p.clients_as, &p.resolvers_as};
  const std::vector<const core::AsDataset*> cols = {
      &p.probing_as, &p.logs_as,    &p.union_as,
      &p.apnic_as,   &p.clients_as, &p.resolvers_as};
  const auto volume = core::as_volume_overlap(rows, cols);

  core::TextTable table;
  std::vector<std::string> header{""};
  for (const auto* ds : cols) header.push_back(ds->name());
  table.set_header(std::move(header));
  for (std::size_t r = 0; r < rows.size(); ++r) {
    std::vector<std::string> row{rows[r]->name()};
    for (std::size_t c = 0; c < cols.size(); ++c) {
      row.push_back(core::pct(volume[r][c]));
    }
    table.add_row(std::move(row));
  }
  std::printf("Table 4 — %% of row dataset's activity volume in ASes also "
              "observed by column dataset\n\n%s\n",
              table.to_string().c_str());

  std::printf("paper reference:\n");
  std::printf("  APNIC volume in cache-probing ASes      : paper 97.6%%, "
              "ours %.1f%%\n", volume[1][0]);
  std::printf("  APNIC volume in DNS-logs ASes           : paper 97.6%%, "
              "ours %.1f%%\n", volume[1][1]);
  std::printf("  MS clients volume in union ASes         : paper 98.8%%, "
              "ours %.1f%%\n", volume[2][2]);
  std::printf("  MS clients volume in APNIC ASes         : paper 92.0%%, "
              "ours %.1f%%\n", volume[2][3]);
  std::printf("  MS resolvers volume in union ASes       : paper 100.0%%, "
              "ours %.1f%%\n", volume[3][2]);

  std::vector<std::vector<std::string>> csv;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    for (std::size_t c = 0; c < cols.size(); ++c) {
      csv.push_back({rows[r]->name(), cols[c]->name(),
                     core::fixed(volume[r][c], 2)});
    }
  }
  core::write_csv(bench::out_path("table4.csv"),
                  {"row", "column", "volume_pct"}, csv);
}

// ---- Table 5 (Appendix B.4) ------------------------------------------------
// Per-domain cache-probing results — total and unique active prefixes /
// ASes per probed domain, plus pairwise containment-aware prefix overlap.
// Paper highlights: Wikipedia returns far fewer (but much wider, /16-18)
// prefixes yet contributes many unique ASes; YouTube adds little beyond
// Google (89% of its prefixes are also Google hits); Facebook adds least.

void table5(Study& study) {
  const Pipelines& p = study.pipelines();
  const auto& domains = p.world().domains();
  const std::size_t n = domains.size();
  const auto& by_domain = p.probing.active_by_domain;

  // AS sets per domain.
  std::vector<std::unordered_set<std::uint32_t>> as_sets(n);
  for (std::size_t d = 0; d < n; ++d) {
    by_domain[d].for_each([&](net::Prefix prefix) {
      if (auto match = p.world().prefix2as().longest_match(prefix.base())) {
        as_sets[d].insert(p.world().ases()[*match->second].asn);
      }
    });
  }

  // Unique prefixes/ASes: present for this domain only (containment-aware
  // for prefixes, since scopes differ across domains).
  std::vector<std::uint64_t> unique_prefixes(n, 0), unique_ases(n, 0);
  for (std::size_t d = 0; d < n; ++d) {
    by_domain[d].for_each([&](net::Prefix prefix) {
      for (std::size_t other = 0; other < n; ++other) {
        if (other != d && by_domain[other].intersects(prefix)) return;
      }
      ++unique_prefixes[d];
    });
    for (std::uint32_t asn : as_sets[d]) {
      bool elsewhere = false;
      for (std::size_t other = 0; other < n && !elsewhere; ++other) {
        elsewhere = other != d && as_sets[other].contains(asn);
      }
      if (!elsewhere) ++unique_ases[d];
    }
  }

  core::TextTable top;
  std::vector<std::string> header{""};
  for (const auto& domain : domains) header.push_back(domain.name.to_string());
  top.set_header(header);
  auto add = [&](const char* label, auto value_of) {
    std::vector<std::string> row{label};
    for (std::size_t d = 0; d < n; ++d) row.push_back(value_of(d));
    top.add_row(std::move(row));
  };
  add("Total prefixes", [&](std::size_t d) {
    return std::to_string(by_domain[d].size());
  });
  add("Unique prefixes", [&](std::size_t d) {
    const double share = by_domain[d].size() == 0
                             ? 0
                             : 100.0 * unique_prefixes[d] /
                                   by_domain[d].size();
    return std::to_string(unique_prefixes[d]) + " (" + core::pct(share) +
           ")";
  });
  add("Total ASes", [&](std::size_t d) {
    return std::to_string(as_sets[d].size());
  });
  add("Unique ASes", [&](std::size_t d) {
    const double share =
        as_sets[d].empty() ? 0 : 100.0 * unique_ases[d] / as_sets[d].size();
    return std::to_string(unique_ases[d]) + " (" + core::pct(share, 0) + ")";
  });
  std::printf("Table 5 (top) — per-domain discovery\n\n%s\n",
              top.to_string().c_str());

  // Bottom half: prefixes of row domain that also intersect column domain.
  core::TextTable bottom;
  bottom.set_header(header);
  for (std::size_t r = 0; r < n; ++r) {
    std::vector<std::string> row{domains[r].name.to_string()};
    for (std::size_t c = 0; c < n; ++c) {
      std::uint64_t common = 0;
      by_domain[r].for_each([&](net::Prefix prefix) {
        if (by_domain[c].intersects(prefix)) ++common;
      });
      const double share =
          by_domain[r].size() == 0 ? 0 : 100.0 * common / by_domain[r].size();
      row.push_back(std::to_string(common) + " (" + core::pct(share, 0) +
                    ")");
    }
    bottom.add_row(std::move(row));
  }
  std::printf("Table 5 (bottom) — containment-aware prefix overlap between "
              "domains\n(paper: 89%% of YouTube prefixes also hit for "
              "Google)\n\n%s\n",
              bottom.to_string().c_str());

  std::vector<std::vector<std::string>> csv;
  for (std::size_t d = 0; d < n; ++d) {
    csv.push_back({domains[d].name.to_string(),
                   std::to_string(by_domain[d].size()),
                   std::to_string(unique_prefixes[d]),
                   std::to_string(as_sets[d].size()),
                   std::to_string(unique_ases[d])});
  }
  core::write_csv(bench::out_path("table5.csv"),
                  {"domain", "total_prefixes", "unique_prefixes",
                   "total_ases", "unique_ases"},
                  csv);
}

// ---- Figure 1 --------------------------------------------------------------
// Geographic density of prefixes detected as active by cache probing
// (MaxMind locations, /24-expanded), plus the probed PoPs. The paper's
// qualitative observations: Europe lights up more than China, and within
// regions density follows population. Output: a coarse ASCII density map,
// per-region totals, and a CSV of 5°x5° bins for plotting.

void fig1(Study& study) {
  const Pipelines& p = study.pipelines();
  // Bin active /24s by MaxMind geolocation.
  std::map<std::pair<int, int>, std::uint64_t> bins;  // (lat5, lon5)
  std::vector<double> region_counts(p.world().countries().size(), 0);
  p.probing.active.for_each([&](net::Prefix prefix) {
    const std::uint32_t first = prefix.first_slash24_index();
    const std::uint64_t count = prefix.slash24_count();
    for (std::uint64_t k = 0; k < count; ++k) {
      const auto rec =
          p.world().geodb().lookup(first + static_cast<std::uint32_t>(k));
      if (!rec) continue;
      const int lat = static_cast<int>(rec->location.lat_deg / 5.0);
      const int lon = static_cast<int>(rec->location.lon_deg / 5.0);
      ++bins[{lat, lon}];
      region_counts[rec->country] += 1;
    }
  });

  // ASCII world map: 36 columns (lon) x 18 rows (lat), log brightness.
  std::printf("Figure 1 — active-prefix density (log scale; "
              "'.':1+ ':':10+ '+':100+ '#':1000+  o = probed PoP)\n\n");
  std::array<std::array<char, 38>, 19> canvas;
  for (auto& row : canvas) row.fill(' ');
  for (const auto& [key, count] : bins) {
    const int row = 17 - (key.first + 18) / 2;  // lat -90..90 -> 18 rows
    const int col = (key.second + 36) / 2;      // lon -180..180 -> 36 cols
    if (row < 0 || row > 17 || col < 0 || col > 35) continue;
    char mark = '.';
    if (count >= 1000) {
      mark = '#';
    } else if (count >= 100) {
      mark = '+';
    } else if (count >= 10) {
      mark = ':';
    }
    canvas[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] =
        mark;
  }
  for (const auto& [pop, vp] : p.pops.probed_pops) {
    const auto loc = p.world().pops().site(pop).location;
    const int row = 17 - (static_cast<int>(loc.lat_deg / 5.0) + 18) / 2;
    const int col = (static_cast<int>(loc.lon_deg / 5.0) + 36) / 2;
    if (row >= 0 && row <= 17 && col >= 0 && col <= 35) {
      canvas[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)] =
          'o';
    }
  }
  for (const auto& row : canvas) {
    std::printf("%.*s\n", 36, row.data());
  }

  // Country ranking (the paper's Europe-vs-China observation).
  std::vector<std::pair<double, std::string>> ranked;
  for (std::size_t c = 0; c < region_counts.size(); ++c) {
    if (region_counts[c] > 0) {
      ranked.emplace_back(region_counts[c], p.world().countries()[c].name);
    }
  }
  std::sort(ranked.rbegin(), ranked.rend());
  std::printf("\nactive /24s by country (top 15):\n");
  for (std::size_t i = 0; i < ranked.size() && i < 15; ++i) {
    std::printf("  %-20s %8.0f\n", ranked[i].second.c_str(),
                ranked[i].first);
  }

  std::vector<std::vector<std::string>> csv;
  for (const auto& [key, count] : bins) {
    csv.push_back({std::to_string(key.first * 5),
                   std::to_string(key.second * 5), std::to_string(count)});
  }
  core::write_csv(bench::out_path("fig1_density.csv"),
                  {"lat_bin", "lon_bin", "active_slash24"}, csv);
}

// ---- Figure 2 --------------------------------------------------------------
// CDF of the distance between calibration-hit prefixes and the PoP
// answering them, for three geographically diverse PoPs, plus the
// 90th-percentile "service radius" the campaign derives. Paper: radii range
// from 478 km (dense Europe) to 3273 km, max 5524 km (Zurich).

void fig2(Study& study) {
  const Pipelines& p = study.pipelines();
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
}

// ---- Figure 3 --------------------------------------------------------------
// Per-country fraction of APNIC-estimated Internet users that live in ASes
// where cache probing detected client activity. The paper finds ~100% in
// the US, 99% in India, 98% in China, with the notable gaps concentrated in
// South America (Bolivia, Ecuador, Peru, ...).

void fig3(Study& study) {
  const Pipelines& p = study.pipelines();
  const auto rows = core::country_coverage(p.world(), p.apnic.users_by_as,
                                           p.probing_as);

  std::printf("Figure 3 — fraction of APNIC population in ASes detected by "
              "cache probing\n\n");
  core::TextTable table;
  table.set_header({"country", "region", "APNIC users", "covered"});
  std::unordered_map<std::string, std::string> region_of;
  for (const auto& c : p.world().countries()) region_of[c.code] = c.region;
  std::vector<std::vector<std::string>> csv;
  for (const auto& row : rows) {
    table.add_row({row.name, region_of[row.code],
                   core::human_count(row.apnic_users),
                   core::pct(100 * row.covered_fraction)});
    csv.push_back({row.code, row.name,
                   core::fixed(row.apnic_users, 0),
                   core::fixed(row.covered_fraction, 4)});
  }
  std::printf("%s\n", table.to_string().c_str());

  double sa_total = 0, sa_covered = 0, other_total = 0, other_covered = 0;
  for (const auto& row : rows) {
    const bool is_sa = region_of[row.code] == "SA";
    (is_sa ? sa_total : other_total) += row.apnic_users;
    (is_sa ? sa_covered : other_covered) +=
        row.apnic_users * row.covered_fraction;
  }
  std::printf("South America coverage : %5.1f%%   (the paper's problem "
              "region)\n",
              sa_total > 0 ? 100 * sa_covered / sa_total : 0);
  std::printf("Rest of world coverage : %5.1f%%\n",
              other_total > 0 ? 100 * other_covered / other_total : 0);

  core::write_csv(bench::out_path("fig3_country_coverage.csv"),
                  {"code", "country", "apnic_users", "covered_fraction"},
                  csv);
}

// ---- Figure 4 --------------------------------------------------------------
// CDF over ASes of the fraction of announced /24s detected as active by
// cache probing, with the lower bound (one /24 per hit prefix) and upper
// bound (all /24s in every hit prefix). Paper: bounds are wide — the median
// AS could be anywhere between 25% and 100% active — and at least 15% of
// ASes have most prefixes inactive.

void fig4(Study& study) {
  const Pipelines& p = study.pipelines();
  const auto bounds = core::per_as_active_fraction(p.world(), p.probing.active);

  std::vector<double> lower, upper;
  lower.reserve(bounds.size());
  upper.reserve(bounds.size());
  for (const auto& row : bounds) {
    lower.push_back(static_cast<double>(row.lower) /
                    static_cast<double>(row.announced_slash24));
    upper.push_back(static_cast<double>(row.upper) /
                    static_cast<double>(row.announced_slash24));
  }
  const core::Cdf lower_cdf(std::move(lower));
  const core::Cdf upper_cdf(std::move(upper));

  std::printf("Figure 4 — fraction of each AS's announced /24s detected "
              "active (%zu ASes)\n\n", bounds.size());
  std::printf("  quantile   lower bound   upper bound\n");
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    std::printf("  p%-8.0f %10.2f %13.2f\n", q * 100,
                lower_cdf.quantile(q), upper_cdf.quantile(q));
  }
  std::printf("\nmedian AS active fraction is in [%.0f%%, %.0f%%] "
              "(paper: [25%%, 100%%])\n",
              100 * lower_cdf.quantile(0.5), 100 * upper_cdf.quantile(0.5));
  std::printf("ASes with upper bound < 50%% of prefixes: %.1f%% "
              "(paper: \"most prefixes in at least 15%% of ASes do not "
              "contain clients\")\n",
              100 * [&] {
                std::size_t below = 0;
                for (const auto& row : bounds) {
                  if (row.upper * 2 < row.announced_slash24) ++below;
                }
                return static_cast<double>(below) / bounds.size();
              }());

  std::vector<std::vector<std::string>> csv;
  for (const auto& [value, frac] : lower_cdf.points(100)) {
    csv.push_back({"lower", core::fixed(value, 4), core::fixed(frac, 4)});
  }
  for (const auto& [value, frac] : upper_cdf.points(100)) {
    csv.push_back({"upper", core::fixed(value, 4), core::fixed(frac, 4)});
  }
  core::write_csv(bench::out_path("fig4_active_fraction.csv"),
                  {"bound", "active_fraction", "cumulative_fraction"}, csv);
}

// ---- Figure 5 (Appendix A.1) -----------------------------------------------
// Classification of the 45 Google Public DNS PoPs — probed & verified (22),
// unprobed but verified as serving clients via the CDN's resolver logs (5),
// unprobed & unverified / inactive (18). Also checks the paper's load
// split: probed PoPs carry ~95% of Google query volume, the
// unprobed-but-verified ones ~5%.

void fig5(Study& study) {
  const Pipelines& p = study.pipelines();
  std::unordered_set<anycast::PopId> probed;
  for (const auto& [pop, vp] : p.pops.probed_pops) probed.insert(pop);

  int probed_verified = 0, unprobed_verified = 0, unprobed_unverified = 0;
  double probed_clients = 0, unprobed_clients = 0;
  core::TextTable table;
  table.set_header({"PoP", "country", "class", "CDN-observed clients"});
  for (const auto& site : p.world().pops().sites()) {
    const bool is_probed = probed.contains(site.id);
    const auto it = p.ms.google_pop_clients.find(site.id);
    const double clients = it == p.ms.google_pop_clients.end() ? 0
                                                               : it->second;
    std::string cls;
    if (is_probed) {
      cls = "probed & verified";
      ++probed_verified;
      probed_clients += clients;
    } else if (clients > 0) {
      cls = "unprobed, verified";
      ++unprobed_verified;
      unprobed_clients += clients;
    } else {
      cls = "unprobed, unverified";
      ++unprobed_unverified;
    }
    table.add_row({site.city, site.country_code, cls,
                   core::human_count(clients)});
  }
  std::printf("Figure 5 — PoP coverage classes\n\n%s\n",
              table.to_string().c_str());
  std::printf("probed & verified      : %2d   (paper: 22)\n",
              probed_verified);
  std::printf("unprobed, verified     : %2d   (paper:  5)\n",
              unprobed_verified);
  std::printf("unprobed, unverified   : %2d   (paper: 18)\n",
              unprobed_unverified);
  const double total = probed_clients + unprobed_clients;
  std::printf("\nGoogle DNS clients at probed PoPs   : %5.1f%%  "
              "(paper: 95%%)\n",
              total > 0 ? 100 * probed_clients / total : 0);
  std::printf("Google DNS clients at unprobed PoPs : %5.1f%%  "
              "(paper:  5%%)\n",
              total > 0 ? 100 * unprobed_clients / total : 0);
}

// ---- Figure 6 (Appendix B.3) -----------------------------------------------
// Distribution across ASes of *relative* client activity as estimated by
// DNS logs (Chromium query counts), Microsoft resolvers (client counts per
// resolver AS), and APNIC (user estimates). Paper: DNS logs and Microsoft
// resolvers have similar distributions — both measure at the resolver —
// while APNIC has far fewer ASes with tiny volumes.

void fig6(Study& study) {
  const Pipelines& p = study.pipelines();
  struct Series {
    const char* label;
    std::unordered_map<std::uint32_t, double> shares;
  };
  std::vector<Series> series;
  series.push_back({"DNS logs", core::relative_volumes(p.logs_as)});
  series.push_back(
      {"Microsoft resolvers", core::relative_volumes(p.resolvers_as)});
  series.push_back({"APNIC", core::relative_volumes(p.apnic_as)});

  std::printf("Figure 6 — CDF of per-AS relative volume (log10 shares)\n\n");
  std::printf("  %-20s %8s %9s %9s %9s %9s\n", "", "ASes", "p10", "p50",
              "p90", "p99");
  std::vector<std::vector<std::string>> csv;
  for (const auto& s : series) {
    std::vector<double> values;
    values.reserve(s.shares.size());
    for (const auto& [asn, share] : s.shares) values.push_back(share);
    core::Cdf cdf(std::move(values));
    std::printf("  %-20s %8zu %9.2e %9.2e %9.2e %9.2e\n", s.label,
                cdf.size(), cdf.quantile(0.10), cdf.quantile(0.50),
                cdf.quantile(0.90), cdf.quantile(0.99));
    for (const auto& [value, frac] : cdf.points(100)) {
      csv.push_back({s.label, core::fixed(std::log10(value + 1e-12), 4),
                     core::fixed(frac, 4)});
    }
  }
  std::printf("\n(expect DNS logs ≈ Microsoft resolvers; APNIC shifted "
              "toward larger shares)\n");
  core::write_csv(bench::out_path("fig6_relative_volume.csv"),
                  {"series", "log10_share", "cumulative_fraction"}, csv);
}

// ---- Figure 7 (Appendix B.3) -----------------------------------------------
// Per-AS differences in relative volume between pairs of activity
// estimates. Paper: the datasets disagree by at most 1e-5 for 90% of ASes,
// and DNS logs tracks Microsoft resolvers more closely than APNIC tracks
// either (both resolver-based signals).

void fig7(Study& study) {
  const Pipelines& p = study.pipelines();
  const auto logs = core::relative_volumes(p.logs_as);
  const auto resolvers = core::relative_volumes(p.resolvers_as);
  const auto apnic = core::relative_volumes(p.apnic_as);

  struct Pair {
    const char* label;
    std::vector<double> diffs;
  };
  std::vector<Pair> pairs;
  pairs.push_back(
      {"Microsoft resolvers - APNIC", core::volume_differences(resolvers,
                                                               apnic)});
  pairs.push_back({"Microsoft resolvers - DNS logs",
                   core::volume_differences(resolvers, logs)});
  pairs.push_back({"APNIC - DNS logs", core::volume_differences(apnic,
                                                                logs)});

  std::printf("Figure 7 — per-AS difference in relative volume\n\n");
  std::printf("  %-32s %8s %12s %12s\n", "", "ASes", "|diff| p90",
              "|diff| p99");
  std::vector<std::vector<std::string>> csv;
  for (auto& pair : pairs) {
    std::vector<double> magnitudes;
    magnitudes.reserve(pair.diffs.size());
    for (double d : pair.diffs) magnitudes.push_back(std::fabs(d));
    core::Cdf cdf(std::move(magnitudes));
    std::printf("  %-32s %8zu %12.2e %12.2e\n", pair.label, cdf.size(),
                cdf.quantile(0.90), cdf.quantile(0.99));
    core::Cdf signed_cdf(std::move(pair.diffs));
    for (const auto& [value, frac] : signed_cdf.points(200)) {
      csv.push_back({pair.label, core::fixed(value, 9),
                     core::fixed(frac, 4)});
    }
  }
  std::printf("\n(paper: datasets disagree by <= 1e-5 for 90%% of ASes at "
              "full scale;\n scaled worlds concentrate volume in fewer "
              "ASes, so magnitudes shift up)\n");
  core::write_csv(bench::out_path("fig7_volume_differences.csv"),
                  {"pair", "difference", "cumulative_fraction"}, csv);
}

// ---- Headline scalars (§1, §4) ---------------------------------------------
//   * techniques identify client activity in ASes responsible for 98.8% of
//     Microsoft CDN traffic, and prefixes responsible for 95.2%;
//   * <1% of cache-probing scope prefixes contain no /24 that contacts
//     Microsoft (99.1% scope-level precision);
//   * cache probing recovers 91% of the ground-truth ECS /24s of a
//     Microsoft-hosted domain;
//   * DNS activity is a good proxy for web activity: client /24s seen over
//     HTTP cover 97.2% of ECS DNS activity and ECS prefixes cover 92% of
//     HTTP volume;
//   * 29,973 ASes detected by the techniques are absent from APNIC; ASdb
//     categorizes 92.7% of them (39.5% ISPs, 17.4% hosting, 6.2% schools).

void headline(Study& study) {
  const Pipelines& p = study.pipelines();
  // --- volume coverage ------------------------------------------------
  const auto as_vol = core::as_volume_overlap({&p.clients_as}, {&p.union_as});
  std::printf("AS-level CDN volume covered by techniques    : %5.1f%%  "
              "(paper 98.8%%)\n", as_vol[0][0]);
  std::printf("prefix-level CDN volume covered              : %5.1f%%  "
              "(paper 95.2%%)\n",
              core::prefix_volume_share(p.clients_prefixes,
                                        p.union_prefixes));

  // --- scope-level precision -------------------------------------------
  std::uint64_t scopes = 0, scopes_with_client = 0;
  p.probing.active.for_each([&](net::Prefix prefix) {
    ++scopes;
    const std::uint32_t first = prefix.first_slash24_index();
    const std::uint64_t count = prefix.slash24_count();
    for (std::uint64_t k = 0; k < count; ++k) {
      if (p.clients_prefixes.contains(first + static_cast<std::uint32_t>(k))) {
        ++scopes_with_client;
        return;
      }
    }
  });
  std::printf("hit scopes containing >=1 Microsoft client /24: %5.1f%%  "
              "(paper 99.1%%)\n",
              scopes ? 100.0 * scopes_with_client / scopes : 0);

  // --- ground-truth ECS recovery (the Microsoft CDN domain) -------------
  int ms_domain = -1;
  for (std::size_t d = 0; d < p.world().domains().size(); ++d) {
    if (p.world().domains()[d].is_microsoft_cdn) ms_domain = static_cast<int>(d);
  }
  std::uint64_t recovered = 0;
  for (std::uint32_t idx : p.ms.ecs_prefixes) {
    if (p.probing.active_by_domain[static_cast<std::size_t>(ms_domain)]
            .intersects(net::Prefix::from_slash24_index(idx))) {
      ++recovered;
    }
  }
  std::printf("ground-truth ECS /24s recovered by probing   : %5.1f%%  "
              "(paper 91%%)\n",
              p.ms.ecs_prefixes.empty()
                  ? 0
                  : 100.0 * recovered / p.ms.ecs_prefixes.size());

  // --- DNS as a proxy for HTTP ------------------------------------------
  std::uint64_t ecs_with_http = 0;
  for (std::uint32_t idx : p.ms.ecs_prefixes) {
    if (p.clients_prefixes.contains(idx)) ++ecs_with_http;
  }
  std::printf("ECS (DNS) prefixes with HTTP activity        : %5.1f%%  "
              "(paper 97.2%% by DNS volume)\n",
              p.ms.ecs_prefixes.empty()
                  ? 0
                  : 100.0 * ecs_with_http / p.ms.ecs_prefixes.size());
  std::printf("HTTP volume from prefixes seen in ECS DNS    : %5.1f%%  "
              "(paper 92%%)\n",
              core::prefix_volume_share(p.clients_prefixes,
                                        p.ecs_prefixes));

  // --- who does APNIC miss? ---------------------------------------------
  std::unordered_set<std::uint32_t> missed;
  for (const auto& [asn, volume] : p.union_as.entries()) {
    if (!p.apnic_as.contains(asn)) missed.insert(asn);
  }
  std::size_t categorized = 0;
  std::unordered_map<asdb::AsCategory, std::size_t> by_category;
  for (std::uint32_t asn : missed) {
    if (auto category = p.world().asdb().lookup(asn)) {
      ++categorized;
      ++by_category[*category];
    }
  }
  std::printf("\nASes detected by techniques but not in APNIC : %zu "
              "(paper 29,973 at full scale)\n", missed.size());
  std::printf("  categorized by ASdb : %5.1f%%  (paper 92.7%%)\n",
              missed.empty() ? 0 : 100.0 * categorized / missed.size());
  auto category_pct = [&](asdb::AsCategory c) {
    return categorized == 0 ? 0 : 100.0 * by_category[c] / categorized;
  };
  std::printf("  ISPs                : %5.1f%%  (paper 39.5%%)\n",
              category_pct(asdb::AsCategory::kIsp) +
                  category_pct(asdb::AsCategory::kMobileCarrier));
  std::printf("  hosting/cloud       : %5.1f%%  (paper 17.4%%)\n",
              category_pct(asdb::AsCategory::kHostingCloud));
  std::printf("  education           : %5.1f%%  (paper  6.2%%)\n",
              category_pct(asdb::AsCategory::kEducation));

  // --- technique totals ----------------------------------------------
  std::printf("\ntechnique totals at this scale:\n");
  std::printf("  cache probing /24 bounds  : [%llu, %llu]\n",
              static_cast<unsigned long long>(p.probing.slash24_lower_bound()),
              static_cast<unsigned long long>(
                  p.probing.slash24_upper_bound()));
  std::printf("  DNS logs resolvers        : %zu\n",
              p.chromium.probes_by_resolver.size());
  std::printf("  union ASes                : %zu (%.1f%% of all-dataset "
              "ASes seen by Microsoft clients at paper scale: 97%%)\n",
              p.union_as.size(),
              p.clients_as.size()
                  ? 100.0 * p.union_as.size() / p.clients_as.size()
                  : 0);
}

// ---- §3.2.1 collision analysis ---------------------------------------------
// The DNS-logs technique separates Chromium probes from other traffic with
// a per-name daily occurrence threshold. The paper's empirical simulation
// found random 7-15 letter names collide fewer than 7 times per day across
// all roots with 99% probability; this section reproduces that analysis
// analytically and by Monte Carlo, at the real root-traffic magnitude and
// at the bench world's.

void collisions(Study&) {
  // 2020-era Chromium load on the roots: roughly half of ~60B daily root
  // queries (the paper's B-root check: "a few percent" post-fix, ~30% of
  // its 2020 level).
  const double real_daily = 25e9;

  std::printf("Chromium name-collision analysis (threshold = 7/day)\n\n");
  std::printf("  %-28s %14s %18s %14s\n", "daily signature queries",
              "E[collisions]", "P(name < 7) exact", "Monte Carlo");
  for (double daily : {real_daily, real_daily / 10, real_daily * 10}) {
    const auto study = core::study_collisions(daily, 7, 200000, 0x90);
    std::printf("  %-28.3g %14.4f %18.6f %14.6f\n", daily,
                study.expected_per_name, study.p_name_below_threshold,
                study.observed_p_below);
  }

  std::printf("\nthreshold sweep at 25e9 queries/day:\n");
  std::printf("  %-10s %20s\n", "threshold", "P(name below)");
  for (std::uint32_t threshold : {2u, 3u, 5u, 7u, 10u, 15u}) {
    const auto study = core::study_collisions(real_daily, threshold, 50000,
                                              0x91);
    std::printf("  %-10u %20.6f\n", threshold,
                study.p_name_below_threshold);
  }
  std::printf("\n(paper: fewer than 7 collisions/day with 99%% "
              "probability — i.e. P(name < 7) >= 0.99)\n");
}

// ---- §6 extension: activity ranking ----------------------------------------
// Relative activity ranking of active prefixes by repeated cache probing
// (the roadmap the paper sketches and [20] prototypes). Validated against
// ground truth: the estimated per-prefix query rate should rank prefixes
// like their true Google-DNS client rates. It probes the shared front end
// after the campaign; no other section probes.

double true_rate(const Pipelines& p, net::Prefix prefix) {
  double rate = 0;
  const auto [first, last] = p.world().block_range(prefix);
  for (std::size_t b = first; b < last; ++b) {
    for (std::size_t d = 0; d < p.world().domains().size(); ++d) {
      rate += p.world().gdns_rate(p.world().blocks()[b], static_cast<int>(d));
    }
  }
  return rate;
}

double spearman(std::vector<std::pair<double, double>> xy) {
  auto ranks = [](std::vector<double> v) {
    std::vector<std::size_t> order(v.size());
    for (std::size_t i = 0; i < v.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return v[a] < v[b]; });
    std::vector<double> rank(v.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      rank[order[i]] = static_cast<double>(i);
    }
    return rank;
  };
  std::vector<double> xs, ys;
  for (const auto& [x, y] : xy) {
    xs.push_back(x);
    ys.push_back(y);
  }
  const auto rx = ranks(xs), ry = ranks(ys);
  const double n = static_cast<double>(xy.size());
  double mean = (n - 1) / 2, num = 0, dx = 0, dy = 0;
  for (std::size_t i = 0; i < xy.size(); ++i) {
    num += (rx[i] - mean) * (ry[i] - mean);
    dx += (rx[i] - mean) * (rx[i] - mean);
    dy += (ry[i] - mean) * (ry[i] - mean);
  }
  return num / std::sqrt(dx * dy);
}

void rank(Study& study) {
  const Pipelines& p = study.pipelines();
  core::ActivityRanker ranker(p.google_dns(), p.world().domains());
  std::fprintf(stderr, "[bench] ranking %zu active prefixes...\n",
               p.probing.active.size());
  const auto ranked = ranker.rank(p.probing, p.pops);

  std::vector<std::pair<double, double>> est_vs_truth;
  for (const auto& row : ranked) {
    est_vs_truth.emplace_back(row.estimated_rate, true_rate(p, row.prefix));
  }
  std::printf("Activity ranking (%zu prefixes, %d rounds each)\n\n",
              ranked.size(), core::RankOptions{}.rounds);

  // Decile view: mean true rate per estimated-rank decile should decrease.
  std::printf("  estimated-rank decile   mean true client rate (q/s)\n");
  const std::size_t per_decile = std::max<std::size_t>(1, ranked.size() / 10);
  std::vector<std::vector<std::string>> csv;
  for (int decile = 0; decile < 10; ++decile) {
    double total = 0;
    std::size_t count = 0;
    for (std::size_t i = decile * per_decile;
         i < std::min(ranked.size(), (decile + 1) * per_decile); ++i) {
      total += est_vs_truth[i].second;
      ++count;
    }
    if (count == 0) continue;
    std::printf("  %2d %32.5f\n", decile + 1, total / count);
    csv.push_back({std::to_string(decile + 1),
                   core::fixed(total / count, 6)});
  }

  const double rho = spearman(est_vs_truth);
  std::printf("\nSpearman rank correlation (estimate vs ground truth): "
              "%.3f\n", rho);
  std::printf("(the paper leaves this as future work; [20] reports initial "
              "validation of the approach)\n");
  core::write_csv(bench::out_path("rank_deciles.csv"),
                  {"decile", "mean_true_rate"}, csv);
}

// ---- Ablations (ours) ------------------------------------------------------
// The campaign's design choices (DESIGN.md): redundant-query count, per-PoP
// service radii vs one max radius, transport, and campaign duration (loop
// count). Run at a reduced scale so the sweep stays fast; REPRO_SCALE
// overrides it.

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

void ablation(Study&) {
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
}

// ---- §6 temporal signal: diurnal classification ----------------------------
// Separating human prefixes from bot prefixes by their diurnal activity
// swing. The world is generated with a human day/night cycle (bots flat);
// the classifier probes each prefix's activity at several times of day and
// thresholds the relative swing. This is the forward-looking experiment the
// paper sketches ("using signals such as ... patterns over time (e.g.,
// diurnal patterns)") — no paper figure exists, so ground-truth
// precision/recall is the deliverable.

void diurnal(Study&) {
  sim::WorldConfig config;
  config.scale = 1.0 / bench::scale_denominator(256);
  config.diurnal_amplitude = 0.65;
  const core::Scenario s = core::ScenarioBuilder().world_config(config).build();
  const sim::World& world = s.world();
  const auto artifacts = s.campaign().run();
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

  core::ActivityRanker ranker(s.google_dns.get(), world.domains());
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
}

// ---- The sections, in DESIGN.md's experiment-index order -------------------

struct Section {
  const char* id;
  void (*render)(Study&);
};

constexpr Section kSections[] = {
    {"table1", table1},
    {"table2", table2},
    {"table3", table3},
    {"table4", table4},
    {"table5", table5},
    {"fig1", fig1},
    {"fig2", fig2},
    {"fig3", fig3},
    {"fig4", fig4},
    {"fig5", fig5},
    {"fig6", fig6},
    {"fig7", fig7},
    {"headline", headline},
    {"collisions", collisions},
    {"rank", rank},
    {"ablation", ablation},
    {"diurnal", diurnal},
};

}  // namespace

int main(int argc, char** argv) {
  obs::MetricsOutGuard metrics_out(&argc, argv);
  // Every stage span, the shared study's and the sections' own, narrates
  // to stderr; stdout stays the tables alone.
  obs::set_span_logger(obs::SpanLogger{
      [](std::string_view name) {
        std::fprintf(stderr, "[bench] %.*s...\n",
                     static_cast<int>(name.size()), name.data());
      },
      [](std::string_view name, double ms) {
        std::fprintf(stderr, "[bench] %.*s: %.0f ms\n",
                     static_cast<int>(name.size()), name.data(), ms);
      }});

  const std::size_t n = std::size(kSections);
  std::vector<bool> selected(n, argc <= 1);
  for (int i = 1; i < argc; ++i) {
    const auto it = std::find_if(
        std::begin(kSections), std::end(kSections),
        [&](const Section& s) { return std::strcmp(s.id, argv[i]) == 0; });
    if (it == std::end(kSections)) {
      std::fprintf(stderr, "bench_paper: unknown section '%s'; valid ids:",
                   argv[i]);
      for (const Section& s : kSections) std::fprintf(stderr, " %s", s.id);
      std::fprintf(stderr, "\n");
      return 2;
    }
    selected[static_cast<std::size_t>(it - std::begin(kSections))] = true;
  }

  Study study;
  for (std::size_t i = 0; i < n; ++i) {
    if (!selected[i]) continue;
    std::printf("== %s ==\n", kSections[i].id);
    kSections[i].render(study);
  }
  return 0;
}
