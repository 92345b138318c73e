#pragma once

#include <algorithm>
#include <cmath>
#include <numbers>

#include "anycast/pop.h"
#include "dns/name.h"
#include "net/prefix.h"
#include "net/sim_time.h"

namespace netclients::googledns {

/// Angular frequency of the daily cycle (rad/s).
inline constexpr double kDailyOmega = 2.0 * std::numbers::pi / net::kDay;

/// A Poisson arrival rate (queries per second) as a function of simulated
/// time: a part that follows a daily cycle plus a flat part. The cycling
/// part sums per-block cycles of phase φ_b and mean m_b,
///   Σ_b m_b (1 + A cos(ωt + φ_b)) = mean + A (cos ωt · C − sin ωt · S),
/// with C = Σ m_b cos φ_b and S = Σ m_b sin φ_b, so evaluating it at any
/// time costs two trig calls however many blocks it covers.
struct ArrivalRate {
  double mean = 0;
  double cos_sum = 0;  // C
  double sin_sum = 0;  // S
  /// The cycle's relative swing A; `<= 0` leaves the rate stationary.
  double amplitude = 0;
  double flat = 0;

  double at(net::SimTime t) const {
    if (amplitude <= 0) return mean + flat;
    const double cycling =
        mean + amplitude * (std::cos(kDailyOmega * t) * cos_sum -
                            std::sin(kDailyOmega * t) * sin_sum);
    return std::max(0.0, cycling) + flat;
  }
};

/// Source of client-driven DNS arrival rates, implemented by the world
/// model (sim::WorldActivityModel).
///
/// `rate` returns the aggregate arrival rate at which clients whose queries
/// anycast to `pop` resolve `domain` with an ECS scope falling in
/// `scope_block`. The Google front end asks once per probe target,
/// evaluates the value at each probe's time, divides it across its
/// independent cache pools and lazily samples cache occupancy from the
/// implied renewal process — the trick that lets a laptop stand in for the
/// Internet without simulating billions of queries (see DESIGN.md).
///
/// Concurrency: `rate` is const and keeps no state, so any thread may call
/// it for any PoP at any time.
class ClientActivityModel {
 public:
  virtual ~ClientActivityModel() = default;

  virtual ArrivalRate rate(anycast::PopId pop, const dns::DnsName& domain,
                           net::Prefix scope_block) const = 0;
};

}  // namespace netclients::googledns
