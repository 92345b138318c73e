#include "sim/activity.h"

#include <cmath>

#include "net/sim_time.h"

namespace netclients::sim {
namespace {

/// Phase offset of a block's diurnal cycle: local time leads UTC by
/// longitude/15 hours, and the cycle peaks at the configured local hour.
double phase_of(const Slash24Block& block, double peak_local_hour) {
  const double local_lead_seconds = block.location.lon_deg / 360.0 * net::kDay;
  return googledns::kDailyOmega *
         (local_lead_seconds - peak_local_hour * 3600.0);
}

}  // namespace

WorldActivityModel::WorldActivityModel(const World* world) : world_(world) {
  const auto& domains = world_->domains();
  for (std::size_t d = 0; d < domains.size(); ++d) {
    domain_index_.emplace(domains[d].name, static_cast<int>(d));
  }
}

int WorldActivityModel::domain_index(const dns::DnsName& domain) const {
  auto it = domain_index_.find(domain);
  return it == domain_index_.end() ? -1 : it->second;
}

googledns::ArrivalRate WorldActivityModel::rate(
    anycast::PopId pop, const dns::DnsName& domain,
    net::Prefix scope_block) const {
  googledns::ArrivalRate rate;
  const int d = domain_index(domain);
  if (d < 0) return rate;
  // The human rate cycles; the bot rate is flat.
  const double amplitude = world_->config().diurnal_amplitude;
  const double peak = world_->config().diurnal_peak_local_hour;
  const auto [first, last] = world_->block_range(scope_block);
  const auto& blocks = world_->blocks();
  for (std::size_t b = first; b < last; ++b) {
    if (blocks[b].gdns_pop != pop) continue;
    const double human = world_->gdns_human_rate(blocks[b], d);
    rate.mean += human;
    rate.flat += world_->gdns_bot_rate(blocks[b], d);
    if (human > 0 && amplitude > 0) {
      const double phase = phase_of(blocks[b], peak);
      rate.cos_sum += human * std::cos(phase);
      rate.sin_sum += human * std::sin(phase);
    }
  }
  rate.amplitude = amplitude;
  return rate;
}

}  // namespace netclients::sim
