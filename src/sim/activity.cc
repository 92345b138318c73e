#include "sim/activity.h"

#include <cmath>
#include <numbers>

#include "net/rng.h"
#include "net/sim_time.h"

namespace netclients::sim {
namespace {

constexpr double kOmega = 2.0 * std::numbers::pi / net::kDay;

/// Phase offset of a block's diurnal cycle: local time leads UTC by
/// longitude/15 hours, and the cycle peaks at the configured local hour.
double phase_of(const Slash24Block& block, double peak_local_hour) {
  const double local_lead_seconds = block.location.lon_deg / 360.0 * net::kDay;
  return kOmega * (local_lead_seconds - peak_local_hour * 3600.0);
}

}  // namespace

WorldActivityModel::WorldActivityModel(const World* world)
    : world_(world), memo_(world->pops().size()) {
  const auto& domains = world_->domains();
  for (std::size_t d = 0; d < domains.size(); ++d) {
    domain_index_.emplace(domains[d].name, static_cast<int>(d));
  }
}

int WorldActivityModel::domain_index(const dns::DnsName& domain) const {
  auto it = domain_index_.find(domain);
  return it == domain_index_.end() ? -1 : it->second;
}

const WorldActivityModel::RateParts& WorldActivityModel::parts(
    anycast::PopId pop, const dns::DnsName& domain,
    net::Prefix scope_block) const {
  static const RateParts kZero{};
  auto& memo = memo_.at(static_cast<std::size_t>(pop)).rates;
  // Keyed by the name's precomputed hash, so a memo hit never touches the
  // DnsName-keyed index map; only a fill resolves the domain's index.
  const std::uint64_t key = net::stable_seed(
      0x4A7Eu, static_cast<std::uint64_t>(pop), domain.hash(),
      std::uint64_t{scope_block.base().value()},
      std::uint64_t{scope_block.length()});
  if (auto it = memo.find(key); it != memo.end()) return it->second;
  const int d = domain_index(domain);
  if (d < 0) return kZero;

  RateParts parts;
  const double peak = world_->config().diurnal_peak_local_hour;
  const auto [first, last] = world_->block_range(scope_block);
  const auto& blocks = world_->blocks();
  for (std::size_t b = first; b < last; ++b) {
    if (blocks[b].gdns_pop != pop) continue;
    const double human = world_->gdns_human_rate(blocks[b], d);
    parts.human += human;
    parts.bot += world_->gdns_bot_rate(blocks[b], d);
    if (human > 0 && world_->config().diurnal_amplitude > 0) {
      const double phase = phase_of(blocks[b], peak);
      parts.hcos += human * std::cos(phase);
      parts.hsin += human * std::sin(phase);
    }
  }
  return memo.emplace(key, parts).first->second;
}

double WorldActivityModel::arrival_rate(anycast::PopId pop,
                                        const dns::DnsName& domain,
                                        net::Prefix scope_block) const {
  const RateParts& p = parts(pop, domain, scope_block);
  return p.human + p.bot;
}

double WorldActivityModel::arrival_rate_at(anycast::PopId pop,
                                           const dns::DnsName& domain,
                                           net::Prefix scope_block,
                                           net::SimTime t) const {
  const RateParts& p = parts(pop, domain, scope_block);
  const double amplitude = world_->config().diurnal_amplitude;
  if (amplitude <= 0) return p.human + p.bot;
  // Σ_b h_b (1 + A cos(ωt + φ_b)) = H + A (cos ωt Σ h_b cos φ_b
  //                                        - sin ωt Σ h_b sin φ_b).
  const double modulated =
      p.human + amplitude * (std::cos(kOmega * t) * p.hcos -
                             std::sin(kOmega * t) * p.hsin);
  return std::max(0.0, modulated) + p.bot;
}

}  // namespace netclients::sim
