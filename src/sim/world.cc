#include "sim/world.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <unordered_set>

#include "core/exec/exec.h"
#include "net/rng.h"
#include "net/sim_time.h"

namespace netclients::sim {
namespace {

/// Per-type modelling parameters.
struct TypeParams {
  double users_per_active24;  // client density in active /24s
  double active_frac;         // mean fraction of announced /24s with clients
  double resolver_prob;       // runs its own resolver service
  double geo_quality;         // MaxMind accuracy (eyeballs locate well)
  double eyeball_weight;      // share multiplier when splitting country users
  bool bots;                  // client population is non-human
};

TypeParams params(AsType type) {
  // Densities follow the paper's aggregate ratio: ~4.2B users generate
  // client activity in ~8.9M /24s (≈475 users per active /24, NAT/CGN
  // included), and ~74% of routed /24s show client traffic.
  switch (type) {
    case AsType::kIspEyeball:
      return {450, 0.85, 0.92, 0.88, 1.0, false};
    case AsType::kMobileCarrier:
      return {900, 0.88, 0.88, 0.60, 0.55, false};
    case AsType::kEducation:
      return {150, 0.60, 0.80, 0.85, 0.050, false};
    case AsType::kEnterprise:
      return {60, 0.55, 0.32, 0.80, 0.022, false};
    case AsType::kGovernment:
      return {60, 0.55, 0.50, 0.80, 0.010, false};
    case AsType::kHostingCloud:
      return {30, 0.55, 0.55, 0.35, 0.006, true};
    case AsType::kContentCdn:
      return {60, 0.40, 0.40, 0.30, 0.001, true};
    case AsType::kTransit:
      return {40, 0.25, 0.30, 0.25, 0.0005, true};
    case AsType::kPublicDns:
      return {0, 0.0, 1.0, 0.30, 0.0, false};
  }
  return {};
}

asdb::AsCategory category_of(AsType type) {
  switch (type) {
    case AsType::kIspEyeball: return asdb::AsCategory::kIsp;
    case AsType::kMobileCarrier: return asdb::AsCategory::kMobileCarrier;
    case AsType::kHostingCloud: return asdb::AsCategory::kHostingCloud;
    case AsType::kEducation: return asdb::AsCategory::kEducation;
    case AsType::kEnterprise: return asdb::AsCategory::kEnterprise;
    case AsType::kGovernment: return asdb::AsCategory::kGovernment;
    case AsType::kContentCdn: return asdb::AsCategory::kContentCdn;
    case AsType::kTransit: return asdb::AsCategory::kTransit;
    case AsType::kPublicDns: return asdb::AsCategory::kHostingCloud;
  }
  return asdb::AsCategory::kOther;
}

AsType sample_type(net::Rng& rng) {
  const double u = rng.uniform();
  if (u < 0.30) return AsType::kIspEyeball;
  if (u < 0.36) return AsType::kMobileCarrier;
  if (u < 0.53) return AsType::kHostingCloud;
  if (u < 0.61) return AsType::kEducation;
  if (u < 0.86) return AsType::kEnterprise;
  if (u < 0.90) return AsType::kGovernment;
  if (u < 0.92) return AsType::kContentCdn;
  return AsType::kTransit;
}

/// Uniform point within `radius_km` of a centroid (disk area measure).
net::LatLon jitter_location(net::LatLon centroid, double radius_km,
                            net::Rng& rng) {
  const double r = radius_km * std::sqrt(rng.uniform());
  return net::destination_point(centroid, rng.uniform(0, 360), r);
}

constexpr std::uint32_t kFirstSlash24 = 1u << 16;  // 1.0.0.0

// Blocks per shard of the catchment and geolocation pass. A constant, so
// the shards depend on the block count alone.
constexpr std::size_t kBlocksPerChunk = 4096;

}  // namespace

World World::generate(const WorldConfig& config) {
  World w;
  w.config_ = config;
  w.countries_ = builtin_countries();
  w.domains_ = default_domains();

  // --- authoritative zones for the probe-able domains ---------------------
  for (std::size_t d = 0; d < w.domains_.size(); ++d) {
    const DomainInfo& info = w.domains_[d];
    dnssrv::ZoneConfig zone;
    zone.name = info.name;
    zone.ttl_seconds = info.ttl_seconds;
    zone.supports_ecs = info.supports_ecs;
    zone.min_scope = info.min_scope;
    zone.max_scope = info.max_scope;
    zone.stop_probability = info.scope_stop_probability;
    zone.scope_drift_probability = info.scope_drift_probability;
    zone.seed = net::stable_seed(config.seed ^ 0x5C09Eu, d);
    w.auth_.add_zone(zone);
  }

  w.pops_ = std::make_unique<anycast::PopTable>(
      anycast::PopTable::google_default());
  w.catchment_ = std::make_unique<anycast::CatchmentModel>(
      w.pops_.get(), net::stable_seed(config.seed, 0xCA7C),
      config.catchment_detour_sigma);

  net::Rng rng(net::stable_seed(config.seed, 0x301D));

  // --- AS skeleton ---------------------------------------------------------
  const std::size_t num_countries = w.countries_.size();
  std::vector<double> country_users(num_countries);
  for (std::size_t c = 0; c < num_countries; ++c) {
    country_users[c] = w.countries_[c].internet_users * config.scale;
  }

  // Every country fields at least one AS, so tiny worlds can't shrink
  // below one-AS-per-country.
  const std::uint32_t target_ases = std::max<std::uint32_t>(
      config.num_ases(), static_cast<std::uint32_t>(num_countries));
  std::vector<std::uint32_t> ases_per_country(num_countries, 1);
  {
    double weight_total = 0;
    std::vector<double> weights(num_countries);
    for (std::size_t c = 0; c < num_countries; ++c) {
      weights[c] = std::pow(w.countries_[c].internet_users, 0.62);
      weight_total += weights[c];
    }
    std::uint32_t assigned = static_cast<std::uint32_t>(num_countries);
    const double spare =
        static_cast<double>(target_ases) - static_cast<double>(num_countries);
    for (std::size_t c = 0; c < num_countries; ++c) {
      const std::uint32_t extra =
          static_cast<std::uint32_t>(spare * weights[c] / weight_total);
      ases_per_country[c] += extra;
      assigned += extra;
    }
    // Largest-country catch-up for rounding remainder.
    while (assigned < target_ases) {
      ases_per_country[0] += 1;
      ++assigned;
    }
  }

  // Special ASes: Google Public DNS and a Cloudflare-style public resolver.
  {
    AsEntry google;
    google.asn = 15169;
    google.country = 0;  // US is first in the table
    google.type = AsType::kPublicDns;
    google.runs_resolver = true;
    w.google_as_ = 0;
    w.ases_.push_back(google);

    AsEntry other;
    other.asn = 13335;
    other.country = 0;
    other.type = AsType::kPublicDns;
    other.runs_resolver = true;
    w.other_public_as_ = 1;
    w.ases_.push_back(other);
  }

  std::uint32_t as_counter = 0;
  for (std::size_t c = 0; c < num_countries; ++c) {
    const CountryInfo& country = w.countries_[c];
    net::Rng crng(net::stable_seed(config.seed, 0xC0u, c));
    const std::uint32_t n = ases_per_country[c];
    std::vector<double> weights(n);
    std::vector<AsEntry> entries(n);
    double weight_total = 0;
    for (std::uint32_t k = 0; k < n; ++k) {
      AsEntry a;
      a.asn = 1000 + (as_counter++) * 7 +
              static_cast<std::uint32_t>(crng.below(5));
      a.country = static_cast<std::uint16_t>(c);
      // Every country gets at least one eyeball ISP; the rest sample the
      // global type mix.
      a.type = k == 0 ? AsType::kIspEyeball : sample_type(crng);
      const TypeParams tp = params(a.type);
      a.google_dns_share = std::clamp(
          country.google_dns_share + crng.normal(0, 0.08), 0.02, 0.85);
      a.other_public_share = std::clamp(
          config.other_public_dns_share + crng.normal(0, 0.04), 0.01, 0.30);
      a.chromium_share = std::clamp(
          config.chromium_share + crng.normal(0, 0.08), 0.20, 0.95);
      a.runs_resolver = crng.bernoulli(tp.resolver_prob);
      if (country.misroute_probability > 0 &&
          crng.bernoulli(country.misroute_probability) &&
          !country.misroute_cities.empty()) {
        const auto& city = country.misroute_cities[crng.below(
            country.misroute_cities.size())];
        if (auto pop = w.pops_->find_by_city(city)) a.forced_pop = *pop;
      }
      // Heavy-tailed share of the country's users: a Pareto head (the
      // handful of dominant eyeball ISPs) on top of a lognormal body that
      // stretches the tail across many orders of magnitude — the real AS
      // ecosystem has tens of thousands of ASes with only dozens of users,
      // which is exactly the population APNIC's ad sampling misses (§4).
      weights[k] = tp.eyeball_weight * crng.pareto(1.0, 0.75) *
                   crng.lognormal(0.0, 3.0);
      weight_total += weights[k];
      entries[k] = std::move(a);
    }
    for (std::uint32_t k = 0; k < n; ++k) {
      const TypeParams tp = params(entries[k].type);
      const double mass = country_users[c] * weights[k] / weight_total;
      if (tp.bots) {
        entries[k].bot_users = mass;
      } else {
        entries[k].users = mass;
      }
      w.total_users_ += entries[k].users;
      w.ases_.push_back(std::move(entries[k]));
    }
  }

  // --- Address plan + /24 ground truth ------------------------------------
  std::uint32_t cursor = kFirstSlash24;
  auto align_up = [](std::uint32_t value, std::uint32_t alignment) {
    return (value + alignment - 1) / alignment * alignment;
  };
  auto allocate_prefix = [&](std::uint32_t slash24s) {
    cursor = align_up(cursor, slash24s);
    const std::uint32_t base = cursor;
    cursor += slash24s;
    return base;
  };

  for (std::size_t as_index = 0; as_index < w.ases_.size(); ++as_index) {
    AsEntry& as = w.ases_[as_index];
    net::Rng arng(net::stable_seed(config.seed, 0xA5u, as_index));
    const TypeParams tp = params(as.type);
    const CountryInfo& country = w.countries_[as.country];

    if (as.type == AsType::kPublicDns) {
      // One /19 of infrastructure; front-end /24s are assigned per-PoP in
      // the resolver pass below.
      const std::uint32_t base = allocate_prefix(32);
      as.announced.push_back(
          net::Prefix(net::Ipv4Addr(base << 8), 19));
      for (std::uint32_t i = 0; i < 32; ++i) {
        Slash24Block block;
        block.index = base + i;
        block.as_index = static_cast<std::uint32_t>(as_index);
        block.country = as.country;
        block.routed = true;
        block.resolver_infra = true;
        block.location = jitter_location(country.centroid, 300, arng);
        w.blocks_.push_back(block);
      }
      continue;
    }

    const double clients = as.total_clients();
    std::uint32_t n_active = clients > 0 && tp.users_per_active24 > 0
        ? static_cast<std::uint32_t>(
              std::ceil(clients / tp.users_per_active24))
        : 0;
    std::uint32_t n_announced = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               std::ceil(n_active / std::max(0.05, tp.active_frac) *
                         arng.uniform(1.0, 1.35))));
    // Keep single ASes from swallowing the address plan.
    n_announced = std::min(n_announced, 1u << 14);
    n_active = std::min(n_active, n_announced);

    // Split the announced budget into CIDR prefixes (/16../24).
    std::uint32_t remaining = n_announced;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> spans;  // base, size
    while (remaining > 0) {
      std::uint32_t k = 0;
      while ((2u << k) <= remaining && k < 8) ++k;  // largest 2^k <= remaining
      if (k > 0 && arng.bernoulli(0.4)) --k;        // fragmentation jitter
      const std::uint32_t size = std::min(remaining, 1u << k);
      const std::uint32_t base = allocate_prefix(1u << k);
      spans.emplace_back(base, 1u << k);
      as.announced.push_back(net::Prefix(net::Ipv4Addr(base << 8),
                                         static_cast<std::uint8_t>(24 - k)));
      remaining -= size;
    }

    // Which /24s get clients: fill a prefix-clustered selection. Walk the
    // spans, giving each span a Beta-flavored local density so activity is
    // clustered (some prefixes dense, some empty) — the property behind
    // Figure 4's wide per-AS spread.
    std::vector<std::uint32_t> active_indices;
    active_indices.reserve(n_active);
    {
      std::unordered_set<std::uint32_t> chosen;
      std::uint32_t still_needed = n_active;
      for (const auto& [base, size] : spans) {
        if (still_needed == 0) break;
        const double density =
            std::clamp(tp.active_frac * arng.uniform(0.3, 1.9), 0.02, 1.0);
        for (std::uint32_t i = 0; i < size && still_needed > 0; ++i) {
          if (arng.bernoulli(density)) {
            active_indices.push_back(base + i);
            chosen.insert(base + i);
            --still_needed;
          }
        }
      }
      // Top up deterministically if the random walk under-filled.
      for (const auto& [base, size] : spans) {
        if (still_needed == 0) break;
        for (std::uint32_t i = 0; i < size && still_needed > 0; ++i) {
          const std::uint32_t idx = base + i;
          if (chosen.insert(idx).second) {
            active_indices.push_back(idx);
            --still_needed;
          }
        }
      }
      std::sort(active_indices.begin(), active_indices.end());
    }

    // Client mass per active /24: lognormal weights.
    std::vector<double> block_weights(active_indices.size());
    double weight_total = 0;
    for (auto& bw : block_weights) {
      bw = arng.lognormal(0.0, 0.9);
      weight_total += bw;
    }

    std::size_t active_at = 0;
    for (const auto& [base, size] : spans) {
      for (std::uint32_t i = 0; i < size; ++i) {
        Slash24Block block;
        block.index = base + i;
        block.as_index = static_cast<std::uint32_t>(as_index);
        block.country = as.country;
        block.routed = true;
        block.location =
            jitter_location(country.centroid, country.spread_km, arng);
        if (active_at < active_indices.size() &&
            active_indices[active_at] == block.index) {
          const double mass =
              clients * block_weights[active_at] / weight_total;
          if (tp.bots) {
            block.bot_users = static_cast<float>(mass);
          } else {
            block.users = static_cast<float>(mass);
          }
          ++active_at;
        }
        block.gdns_pop = as.forced_pop;  // the catchment pass fills the rest
        // Resolver visibility flags (see Slash24Block docs).
        if (block.users > 0.5) {
          net::Rng brng(net::stable_seed(config.seed, 0xB10Cu, block.index));
          block.ms_visible_resolver = brng.bernoulli(0.10);
          block.resolver_recurses =
              block.ms_visible_resolver && brng.bernoulli(0.40);
          block.junk_emitter = brng.bernoulli(0.03);
        } else {
          net::Rng brng(net::stable_seed(config.seed, 0xB10Du, block.index));
          block.junk_emitter = brng.bernoulli(0.004);
        }
        w.blocks_.push_back(block);
      }
    }

    // Allocated-but-unrouted space interleaved with routed space (the
    // paper: 15.5M public /24s, ~12M routed).
    if (arng.bernoulli(0.5)) {
      const double ghost_ratio =
          config.unrouted_fraction / (1.0 - config.unrouted_fraction);
      std::uint32_t ghost = static_cast<std::uint32_t>(
          n_announced * ghost_ratio * 2.0 * arng.uniform(0.5, 1.5));
      while (ghost > 0) {
        std::uint32_t k = 0;
        while ((2u << k) <= ghost && k < 8) ++k;
        const std::uint32_t size = 1u << k;
        const std::uint32_t base = allocate_prefix(size);
        for (std::uint32_t i = 0; i < size; ++i) {
          Slash24Block block;
          block.index = base + i;
          block.as_index = Slash24Block::kNoAs;
          block.country = as.country;
          block.routed = false;
          block.location =
              jitter_location(country.centroid, country.spread_km, arng);
          w.blocks_.push_back(block);
        }
        ghost -= std::min(ghost, size);
      }
    }
  }
  w.space_end_ = cursor;

  assert(std::is_sorted(w.blocks_.begin(), w.blocks_.end(),
                        [](const Slash24Block& a, const Slash24Block& b) {
                          return a.index < b.index;
                        }));

  // --- Catchment + geolocation --------------------------------------------
  // Both are pure in a block's own fields (location, index, country, AS
  // type), so fixed-size block chunks compute them on the pool: the serving
  // PoP of every routed block without a forced one, and every block's
  // MaxMind-style record. What consumes them runs serially in block order,
  // so each per-PoP double is summed in one order at any thread count.
  std::vector<geo::GeoRecord> geo_records(w.blocks_.size());
  core::exec::parallel_for_chunks(
      0, w.blocks_.size(), kBlocksPerChunk, /*threads=*/0,
      [&](core::exec::ChunkRange range) {
        for (std::size_t b = range.begin; b < range.end; ++b) {
          Slash24Block& block = w.blocks_[b];
          if (block.routed && block.gdns_pop == anycast::kNoPop) {
            block.gdns_pop = w.catchment_->pop_for(
                block.location, net::stable_seed(config.seed, block.index));
          }
          net::Rng grng(net::stable_seed(config.seed, 0x6E0u, block.index));
          const double quality =
              block.as_index == Slash24Block::kNoAs
                  ? 0.25
                  : params(w.ases_[block.as_index].type).geo_quality;
          geo_records[b] = geo::GeoDatabase::observe(
              block.location, block.country, quality, grng);
        }
        return 0;
      });

  // Per-PoP Google Public DNS load.
  std::vector<double> google_pop_users(w.pops_->size(), 0.0);
  std::vector<double> google_pop_chromium(w.pops_->size(), 0.0);
  for (const Slash24Block& block : w.blocks_) {
    if (block.clients() <= 0 || block.gdns_pop == anycast::kNoPop) continue;
    const AsEntry& as = w.ases_[block.as_index];
    const auto pop = static_cast<std::size_t>(block.gdns_pop);
    google_pop_users[pop] +=
        block.users * as.google_dns_share + block.bot_users * 0.45;
    google_pop_chromium[pop] +=
        block.users * as.google_dns_share * as.chromium_share;
  }
  for (std::size_t b = 0; b < w.blocks_.size(); ++b) {
    w.geodb_.add(w.blocks_[b].index, geo_records[b]);
  }

  // --- Routeviews-style prefix→AS table -----------------------------------
  for (std::size_t as_index = 0; as_index < w.ases_.size(); ++as_index) {
    for (const net::Prefix& p : w.ases_[as_index].announced) {
      w.prefix2as_->insert(p, static_cast<std::uint32_t>(as_index));
    }
  }
  // ECS scopes follow routing aggregates (see set_topology docs).
  w.auth_.set_topology(w.prefix2as_.get());

  // --- Resolver pass -------------------------------------------------------
  // Upstream resolver selection for delegating ASes: the biggest resolver-
  // running ISP in the same country (fallback: biggest worldwide).
  std::vector<std::uint32_t> country_isp(num_countries, 0);
  std::uint32_t biggest_isp = 0;
  double biggest_users = -1;
  {
    std::vector<double> best(num_countries, -1);
    for (std::size_t i = 0; i < w.ases_.size(); ++i) {
      const AsEntry& as = w.ases_[i];
      if (!as.runs_resolver ||
          (as.type != AsType::kIspEyeball &&
           as.type != AsType::kMobileCarrier)) {
        continue;
      }
      if (as.users > best[as.country]) {
        best[as.country] = as.users;
        country_isp[as.country] = static_cast<std::uint32_t>(i);
      }
      if (as.users > biggest_users) {
        biggest_users = as.users;
        biggest_isp = static_cast<std::uint32_t>(i);
      }
    }
    for (std::size_t c = 0; c < num_countries; ++c) {
      if (best[c] < 0) country_isp[c] = biggest_isp;
    }
  }
  std::vector<std::uint32_t> hosting_ases;
  for (std::size_t i = 0; i < w.ases_.size(); ++i) {
    if (w.ases_[i].type == AsType::kHostingCloud) {
      hosting_ases.push_back(static_cast<std::uint32_t>(i));
    }
  }

  // Central-resolved user mass per resolver-owning AS.
  std::vector<double> central_users(w.ases_.size(), 0.0);
  std::vector<double> central_chromium(w.ases_.size(), 0.0);
  {
    // Users behind recursing block-level forwarders never reach centrals.
    std::vector<double> own_users(w.ases_.size(), 0.0);
    for (const Slash24Block& block : w.blocks_) {
      if (block.as_index == Slash24Block::kNoAs || block.resolver_recurses) {
        continue;
      }
      own_users[block.as_index] += block.users;
    }
    for (std::size_t i = 0; i < w.ases_.size(); ++i) {
      AsEntry& as = w.ases_[i];
      const double isp_share =
          std::max(0.0, 1.0 - as.google_dns_share - as.other_public_share);
      const double mass = own_users[i] * isp_share;
      const std::uint32_t owner =
          as.runs_resolver ? static_cast<std::uint32_t>(i)
                           : country_isp[as.country];
      as.upstream_resolver_as = owner;
      central_users[owner] += mass;
      central_chromium[owner] += mass * as.chromium_share;
    }
  }

  // Materialize central resolver endpoints.
  for (std::size_t i = 0; i < w.ases_.size(); ++i) {
    AsEntry& as = w.ases_[i];
    if (!as.runs_resolver || as.type == AsType::kPublicDns) continue;
    as.central_resolved_users = central_users[i];
    as.central_resolved_chromium_users = central_chromium[i];
    net::Rng rrng(net::stable_seed(config.seed, 0x2E50u, i));
    as.resolver_host_as = static_cast<std::uint32_t>(i);
    if (!hosting_ases.empty() && as.type != AsType::kIspEyeball &&
        as.type != AsType::kMobileCarrier &&
        rrng.bernoulli(config.resolver_outsourced_probability)) {
      as.resolver_host_as = hosting_ases[rrng.below(hosting_ases.size())];
    }
    int endpoints = 1 + (as.central_resolved_users > 5e3 ? 1 : 0) +
                    (as.central_resolved_users > 5e4 ? 1 : 0);
    const AsEntry& host = w.ases_[as.resolver_host_as];
    for (int e = 0; e < endpoints; ++e) {
      const net::Prefix& home =
          host.announced[static_cast<std::size_t>(e) % host.announced.size()];
      ResolverEndpoint ep;
      ep.address = net::Ipv4Addr(home.base().value() + 10 +
                                 static_cast<std::uint32_t>(e));
      ep.owner_as = static_cast<std::uint32_t>(i);
      ep.host_as = as.resolver_host_as;
      ep.served_users = as.central_resolved_users / endpoints;
      ep.served_chromium_users = as.central_resolved_chromium_users / endpoints;
      w.resolver_endpoints_.push_back(ep);
    }
  }

  // Google Public DNS per-PoP egress endpoints.
  {
    const AsEntry& google = w.ases_[w.google_as_];
    const std::uint32_t base24 = google.announced.front().first_slash24_index();
    std::uint32_t next = 0;
    for (const auto& site : w.pops_->sites()) {
      if (!site.active) continue;
      ResolverEndpoint ep;
      ep.address = net::Ipv4Addr(((base24 + next) << 8) + 1);
      ep.owner_as = w.google_as_;
      ep.host_as = w.google_as_;
      ep.sends_ecs = true;
      ep.pop = site.id;
      ep.served_users =
          google_pop_users[static_cast<std::size_t>(site.id)];
      ep.served_chromium_users =
          google_pop_chromium[static_cast<std::size_t>(site.id)];
      w.resolver_endpoints_.push_back(ep);
      ++next;
    }
  }

  // Other-public resolver endpoints: four shards worldwide, no ECS.
  {
    const AsEntry& other = w.ases_[w.other_public_as_];
    double other_users = 0;
    double other_chromium = 0;
    for (const Slash24Block& block : w.blocks_) {
      if (block.as_index == Slash24Block::kNoAs || block.users <= 0) continue;
      const AsEntry& as = w.ases_[block.as_index];
      other_users += block.users * as.other_public_share;
      other_chromium +=
          block.users * as.other_public_share * as.chromium_share;
    }
    const std::uint32_t base24 = other.announced.front().first_slash24_index();
    for (int shard = 0; shard < 4; ++shard) {
      ResolverEndpoint ep;
      ep.address = net::Ipv4Addr(
          ((base24 + 4u + static_cast<std::uint32_t>(shard)) << 8) + 1);
      ep.owner_as = w.other_public_as_;
      ep.host_as = w.other_public_as_;
      ep.served_users = other_users / 4;
      ep.served_chromium_users = other_chromium / 4;
      w.resolver_endpoints_.push_back(ep);
    }
  }

  // --- ASdb business categories (the geodb is filled with the catchment) --
  {
    net::Rng drng(net::stable_seed(config.seed, 0xA5DBu));
    for (const AsEntry& as : w.ases_) {
      if (drng.bernoulli(0.927)) {
        w.asdb_.add(as.asn, category_of(as.type));
      }
    }
  }
  return w;
}

const Slash24Block* World::block_at(std::uint32_t slash24_index) const {
  auto it = std::lower_bound(
      blocks_.begin(), blocks_.end(), slash24_index,
      [](const Slash24Block& b, std::uint32_t idx) { return b.index < idx; });
  if (it == blocks_.end() || it->index != slash24_index) return nullptr;
  return &*it;
}

std::pair<std::size_t, std::size_t> World::block_range(
    net::Prefix prefix) const {
  const std::uint32_t first = prefix.first_slash24_index();
  const std::uint32_t last =
      first + static_cast<std::uint32_t>(prefix.slash24_count());
  auto lo = std::lower_bound(
      blocks_.begin(), blocks_.end(), first,
      [](const Slash24Block& b, std::uint32_t idx) { return b.index < idx; });
  auto hi = std::lower_bound(
      blocks_.begin(), blocks_.end(), last,
      [](const Slash24Block& b, std::uint32_t idx) { return b.index < idx; });
  return {static_cast<std::size_t>(lo - blocks_.begin()),
          static_cast<std::size_t>(hi - blocks_.begin())};
}

double World::country_domain_multiplier(std::uint16_t country,
                                        int domain_index) const {
  return countries_[country].domain_multiplier[domain_index];
}

double World::gdns_human_rate(const Slash24Block& block,
                              int domain_index) const {
  if (block.as_index == Slash24Block::kNoAs) return 0;
  const AsEntry& as = ases_[block.as_index];
  const DomainInfo& domain = domains_[static_cast<std::size_t>(domain_index)];
  const double mult = country_domain_multiplier(block.country, domain_index);
  return block.users * as.google_dns_share *
         domain.queries_per_user_per_day * mult / net::kDay;
}

double World::gdns_bot_rate(const Slash24Block& block,
                            int domain_index) const {
  if (block.as_index == Slash24Block::kNoAs) return 0;
  const DomainInfo& domain = domains_[static_cast<std::size_t>(domain_index)];
  // Bots live disproportionately on cloud-friendly resolvers and hammer
  // CDN-ish domains; humans follow the country's popularity profile.
  const double bot_mult = domain.is_microsoft_cdn ? 1.0 : 0.25;
  return block.bot_users * 0.45 * domain.queries_per_user_per_day *
         bot_mult / net::kDay;
}

double World::total_domain_rate(const Slash24Block& block,
                                int domain_index) const {
  if (block.as_index == Slash24Block::kNoAs) return 0;
  const DomainInfo& domain = domains_[static_cast<std::size_t>(domain_index)];
  const double mult = country_domain_multiplier(block.country, domain_index);
  const double human =
      block.users * domain.queries_per_user_per_day * mult;
  const double bot_mult = domain.is_microsoft_cdn ? 1.0 : 0.25;
  const double bot =
      block.bot_users * domain.queries_per_user_per_day * bot_mult;
  return (human + bot) / net::kDay;
}

}  // namespace netclients::sim
