#include "core/rank/activity_rank.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace netclients::core {

ActivityRanker::ActivityRanker(googledns::GooglePublicDns* google_dns,
                               std::vector<sim::DomainInfo> domains,
                               RankOptions options)
    : google_dns_(google_dns),
      domains_(std::move(domains)),
      options_(options) {}

std::vector<googledns::ProbeTarget> ActivityRanker::targets_of(
    net::Prefix prefix, anycast::PopId pop) const {
  std::vector<googledns::ProbeTarget> targets;
  targets.reserve(domains_.size());
  for (const sim::DomainInfo& domain : domains_) {
    targets.push_back(google_dns_->target(
        pop, domain.name, prefix,
        google_dns_->upstream_scope(domain.name, prefix)));
  }
  return targets;
}

template <typename RoundTime>
ActivityRanker::DomainEstimate ActivityRanker::estimate_domain(
    const googledns::ProbeTarget& target, std::size_t d, anycast::PopId pop,
    int vp_id, int rounds, int attempt_stride, RoundTime round_time) const {
  const int pools = google_dns_->config().pools_per_pop;
  const double ttl = domains_[d].ttl_seconds;
  int hits = 0;
  double age_total = 0;
  for (int round = 0; round < rounds; ++round) {
    const double t = round_time(round) + static_cast<double>(d) * 0.05;
    for (int attempt = 0; attempt < options_.redundant_queries; ++attempt) {
      const auto probe =
          google_dns_->probe(pop, target, t + attempt * 0.002,
                             options_.transport, vp_id,
                             attempt_stride * round + attempt);
      if (probe.cache_hit && probe.return_scope > 0) {
        ++hits;
        age_total += std::max(0.5, ttl - probe.remaining_ttl);
        break;
      }
    }
  }
  DomainEstimate out;
  out.hit_rate = static_cast<double>(hits) / static_cast<double>(rounds);
  if (hits == 0) return out;
  const double saturation = 1.0 - 0.5 / static_cast<double>(rounds);
  if (out.hit_rate >= saturation) {
    // Busy prefixes are always cached, so the hit rate stops carrying
    // signal; the *age* of the record still does (a Trufflehunter-style
    // estimate [31]): at λ_pool·T >> 1 the expected age of a live entry
    // approaches 1/λ_pool.
    const double mean_age = age_total / hits;
    out.rate = pools / mean_age;
  } else {
    // A round's redundant attempts cover ~k of the P pools, so the
    // round-level hit probability is h ≈ 1 - exp(-λ k T / P) and
    // λ̂ = -(P / (k T)) ln(1 - h).
    const double k = std::min<double>(pools, options_.redundant_queries);
    out.rate = -(pools / (k * ttl)) * std::log1p(-out.hit_rate);
  }
  return out;
}

PrefixActivity ActivityRanker::rank_prefix(net::Prefix prefix,
                                           anycast::PopId pop,
                                           int vp_id) const {
  PrefixActivity out;
  out.prefix = prefix;
  out.pop = pop;
  out.hit_rate.assign(domains_.size(), 0.0);
  const std::vector<googledns::ProbeTarget> targets = targets_of(prefix, pop);
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    const double ttl = domains_[d].ttl_seconds;
    const DomainEstimate estimate = estimate_domain(
        targets[d], d, pop, vp_id, options_.rounds, 977, [&](int round) {
          return options_.start_time +
                 round * ttl * options_.round_spacing_ttls;
        });
    out.hit_rate[d] = estimate.hit_rate;
    out.estimated_rate += estimate.rate / static_cast<double>(domains_.size());
  }
  return out;
}

double ActivityRanker::estimate_at(
    const std::vector<googledns::ProbeTarget>& targets, anycast::PopId pop,
    int vp_id, net::SimTime start, int rounds,
    double round_spacing_seconds) const {
  const auto round_time = [&](int round) {
    return start + round * round_spacing_seconds;
  };
  double estimate = 0;
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    estimate += estimate_domain(targets[d], d, pop, vp_id, rounds, 1583,
                                round_time)
                    .rate;
  }
  return estimate / static_cast<double>(domains_.size());
}

double ActivityRanker::day_night_contrast(net::Prefix prefix,
                                          anycast::PopId pop, int vp_id,
                                          double longitude_deg,
                                          int days) const {
  // Local time leads UTC by longitude/15 hours; sample the local evening
  // peak (20:00) and pre-dawn trough (08:00 opposite phase).
  const double lead = longitude_deg / 360.0 * 86400.0;
  // Absolute simulated time is phase-aligned to UTC midnight at t = 0, so
  // anchor the schedule at the first day boundary after start_time.
  const double day_base =
      std::ceil(options_.start_time / 86400.0) * 86400.0;
  auto utc_of_local_hour = [&](double hour) {
    double t = hour * 3600.0 - lead;
    while (t < 0) t += 86400.0;
    return t;
  };
  const std::vector<googledns::ProbeTarget> targets = targets_of(prefix, pop);
  const double evening = estimate_at(
      targets, pop, vp_id, day_base + utc_of_local_hour(20.0), days, 86400.0);
  const double dawn = estimate_at(
      targets, pop, vp_id, day_base + utc_of_local_hour(8.0), days, 86400.0);
  const double total = evening + dawn;
  return total > 0 ? (evening - dawn) / total : 0.0;
}

std::vector<PrefixActivity> ActivityRanker::rank(
    const CampaignResult& campaign, const PopDiscoveryResult& pops) const {
  // Representative VP per probed PoP.
  std::unordered_map<anycast::PopId, int> vp_of;
  for (const auto& [pop, vp_id] : pops.probed_pops) vp_of.emplace(pop, vp_id);

  // Serving PoP per active prefix: from the campaign's hits.
  std::unordered_map<std::uint32_t, anycast::PopId> pop_of;
  for (const CacheHit& hit : campaign.hits) {
    pop_of.emplace(hit.query_scope.base().value(), hit.pop);
  }

  std::vector<PrefixActivity> out;
  campaign.active.for_each([&](net::Prefix prefix) {
    const auto pop_it = pop_of.find(prefix.base().value());
    if (pop_it == pop_of.end()) return;
    const auto vp_it = vp_of.find(pop_it->second);
    if (vp_it == vp_of.end()) return;
    out.push_back(rank_prefix(prefix, pop_it->second, vp_it->second));
  });
  std::sort(out.begin(), out.end(),
            [](const PrefixActivity& a, const PrefixActivity& b) {
              return a.estimated_rate > b.estimated_rate;
            });
  return out;
}

}  // namespace netclients::core
