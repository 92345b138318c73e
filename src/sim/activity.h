#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "googledns/activity_model.h"
#include "sim/world.h"

namespace netclients::sim {

/// Bridges the generated world to the Google Public DNS front end: the
/// aggregate client query rate for (PoP, domain, scope block) is the sum of
/// per-/24 Google-DNS rates of blocks inside the scope block whose anycast
/// catchment is that PoP.
///
/// Rates are memoized per (pop, domain, block) — the probing campaign
/// revisits each combination dozens of times (redundant queries × loop
/// iterations). The memo is split into one map per PoP, so calls may run
/// concurrently as long as concurrent calls target *distinct PoPs* (the
/// front end's own contract); a PoP id outside the world's PoP table
/// throws std::out_of_range.
class WorldActivityModel final : public googledns::ClientActivityModel {
 public:
  explicit WorldActivityModel(const World* world);

  double arrival_rate(anycast::PopId pop, const dns::DnsName& domain,
                      net::Prefix scope_block) const override;

  /// Diurnal-aware rate: the human component of a block oscillates with
  /// its local time of day (WorldConfig::diurnal_amplitude), bots stay
  /// flat. Aggregation across a scope block's /24s stays O(1) per probe:
  /// the per-block phases are folded into two memoized Fourier sums.
  double arrival_rate_at(anycast::PopId pop, const dns::DnsName& domain,
                         net::Prefix scope_block,
                         net::SimTime t) const override;

  /// Index of a probeable domain in world.domains(), or -1.
  int domain_index(const dns::DnsName& domain) const;

 private:
  struct RateParts {
    double human = 0;   // mean human rate
    double hcos = 0;    // Σ human_b · cos(phase_b)
    double hsin = 0;    // Σ human_b · sin(phase_b)
    double bot = 0;     // flat bot rate
  };
  const RateParts& parts(anycast::PopId pop, const dns::DnsName& domain,
                         net::Prefix scope_block) const;

  const World* world_;
  std::unordered_map<dns::DnsName, int> domain_index_;
  // One map per PoP, indexed by PopId and padded to a cache line so
  // shards of neighbouring PoPs never share one; each value is a pure
  // function of its key.
  struct alignas(64) PopMemo {
    std::unordered_map<std::uint64_t, RateParts> rates;
  };
  mutable std::vector<PopMemo> memo_;
};

}  // namespace netclients::sim
