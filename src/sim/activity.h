#pragma once

#include <unordered_map>

#include "googledns/activity_model.h"
#include "sim/world.h"

namespace netclients::sim {

/// Bridges the generated world to the Google Public DNS front end: the
/// aggregate client query rate for (PoP, domain, scope block) is the sum of
/// per-/24 Google-DNS rates of blocks inside the scope block whose anycast
/// catchment is that PoP.
///
/// Diurnal-aware: the human component of a block oscillates with its local
/// time of day (WorldConfig::diurnal_amplitude), bots stay flat. The
/// per-block phases fold into the rate's two Fourier sums, so each probe
/// evaluates a scope block's rate in O(1).
///
/// The model holds no mutable state: `rate` may run on any thread for any
/// PoP. The front end asks it once per probe target, not once per probe.
class WorldActivityModel final : public googledns::ClientActivityModel {
 public:
  explicit WorldActivityModel(const World* world);

  googledns::ArrivalRate rate(anycast::PopId pop, const dns::DnsName& domain,
                              net::Prefix scope_block) const override;

  /// Index of a probeable domain in world.domains(), or -1.
  int domain_index(const dns::DnsName& domain) const;

 private:
  const World* world_;
  std::unordered_map<dns::DnsName, int> domain_index_;
};

}  // namespace netclients::sim
