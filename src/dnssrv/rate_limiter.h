#pragma once

#include <algorithm>

#include "core/obs/obs.h"
#include "net/sim_time.h"

namespace netclients::dnssrv {

/// Token-bucket rate limiter in simulated time.
///
/// Google Public DNS rate-limits clients at ~1,500 QPS normally, but the
/// paper found repeated UDP queries for the same domains trip a much lower
/// limit — which is why the probing campaign uses TCP (§3.1.1). The Google
/// front end instantiates one limiter per (transport, vantage point).
class TokenBucket {
 public:
  TokenBucket(double rate_per_second, double burst)
      : rate_(rate_per_second), burst_(burst), tokens_(burst) {}

  /// Consumes one token if available. Callers must pass non-decreasing
  /// times. The bucket is thread-confined to the flow's shard.
  bool allow(net::SimTime now) {
    // Fleet-wide limiter telemetry across every flow's bucket (integer
    // counters: deterministic in total from concurrent shards).
    static obs::Counter& allowed_total =
        obs::Registry::global().counter("dnssrv.ratelimiter.allowed");
    static obs::Counter& dropped_total =
        obs::Registry::global().counter("dnssrv.ratelimiter.dropped");
    refill(now);
    if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
      allowed_total.add();
      return true;
    }
    dropped_total.add();
    return false;
  }

  double tokens(net::SimTime now) {
    refill(now);
    return tokens_;
  }

  double rate() const { return rate_; }

 private:
  void refill(net::SimTime now) {
    if (now > last_) {
      tokens_ = std::min(burst_, tokens_ + (now - last_) * rate_);
      last_ = now;
    } else if (now < last_) {
      // Campaign stages restart their schedule clocks (a new connection /
      // measurement phase); carry the token balance forward and resume
      // refilling from the new epoch.
      last_ = now;
    }
  }

  double rate_;
  double burst_;
  double tokens_;
  net::SimTime last_ = 0;
};

}  // namespace netclients::dnssrv
