#pragma once

#include "anycast/pop.h"
#include "dns/name.h"
#include "net/prefix.h"
#include "net/sim_time.h"

namespace netclients::googledns {

/// Source of client-driven DNS arrival rates, implemented by the world
/// model (sim::WorldActivityModel).
///
/// `arrival_rate` returns the aggregate Poisson rate (queries per second)
/// at which clients whose queries anycast to `pop` resolve `domain` with an
/// ECS scope falling in `scope_block`. The Google front end divides this
/// across its independent cache pools and lazily samples cache occupancy
/// from the implied renewal process — the trick that lets a laptop stand in
/// for the Internet without simulating billions of queries (see DESIGN.md).
///
/// Concurrency: the front end calls in from its PoP shards, so
/// implementations must allow concurrent calls that target *distinct
/// PoPs*; calls for the same PoP are never concurrent. That lets an
/// implementation keep per-PoP memo state without locks.
class ClientActivityModel {
 public:
  virtual ~ClientActivityModel() = default;

  /// Long-run mean arrival rate.
  virtual double arrival_rate(anycast::PopId pop, const dns::DnsName& domain,
                              net::Prefix scope_block) const = 0;

  /// Instantaneous rate at simulated time `t` (diurnal cycles etc.).
  /// Defaults to the stationary rate.
  virtual double arrival_rate_at(anycast::PopId pop,
                                 const dns::DnsName& domain,
                                 net::Prefix scope_block,
                                 net::SimTime /*t*/) const {
    return arrival_rate(pop, domain, scope_block);
  }
};

}  // namespace netclients::googledns
