#pragma once

#include <cstdint>
#include <vector>

#include "core/cacheprobe/cacheprobe.h"
#include "googledns/google_dns.h"
#include "sim/domains.h"

namespace netclients::core {

/// Options for the activity-ranking pass (§6 / the contemporaneous
/// traffic-map workshop paper [20]).
struct RankOptions {
  /// Probe rounds per prefix. Rounds are spaced several TTLs apart so each
  /// samples an independent cache window.
  int rounds = 24;
  double round_spacing_ttls = 3.0;
  int redundant_queries = 5;
  googledns::Transport transport = googledns::Transport::kTcp;
  net::SimTime start_time = 1.0e6;  // after the discovery campaign
  std::uint64_t seed = 0x4A4E4B;
};

/// Relative-activity estimate for one active prefix.
struct PrefixActivity {
  net::Prefix prefix;
  anycast::PopId pop = anycast::kNoPop;
  /// Fraction of probe rounds with a cache hit, per domain index.
  std::vector<double> hit_rate;
  /// Combined client query-rate estimate (queries/sec toward Google
  /// Public DNS), inverted from the renewal model.
  double estimated_rate = 0;
};

/// The paper's §6 roadmap, implemented: turn the binary active/inactive
/// signal into a *relative activity ranking* by probing each active prefix
/// repeatedly over time and across domains.
///
/// For Poisson client arrivals at rate λ into P independent cache pools
/// with record TTL T, the per-probe hit probability is
///   h = 1 - exp(-λ T / P),
/// so the observed hit rate across independent windows inverts to
///   λ̂ = -(P / T) · ln(1 - h).
/// Estimates are combined across domains (each domain's TTL and popularity
/// differ, so each contributes an independent view of the same underlying
/// client population).
class ActivityRanker {
 public:
  ActivityRanker(googledns::GooglePublicDns* google_dns,
                 std::vector<sim::DomainInfo> domains,
                 RankOptions options = {});

  /// Ranks the hit prefixes of a completed campaign. `pops` supplies the
  /// vantage that reaches each serving PoP. Output is sorted by
  /// estimated_rate descending.
  std::vector<PrefixActivity> rank(const CampaignResult& campaign,
                                   const PopDiscoveryResult& pops) const;

  /// Ranks one prefix at one PoP (building block, also used by tests).
  PrefixActivity rank_prefix(net::Prefix prefix, anycast::PopId pop,
                             int vp_id) const;

  /// §6's "infer which prefixes with client activity likely include
  /// (human) user activity, using ... patterns over time (e.g., diurnal
  /// patterns)": estimates the prefix's activity at several times of day
  /// and scores the relative swing. Human populations show a strong
  /// day/night cycle; bot farms are flat.
  struct DiurnalProfile {
    net::Prefix prefix;
    std::vector<double> rate_by_slot;  // λ̂ per time-of-day slot
    /// (max - min) / mean across slots; ~0 for bots.
    double swing = 0;
  };
  DiurnalProfile diurnal_profile(net::Prefix prefix, anycast::PopId pop,
                                 int vp_id, int slots = 6,
                                 int days = 12) const;

  /// Phase-locked variant: using the prefix's (geolocated) longitude, the
  /// prober knows *when* its local evening and pre-dawn are, and contrasts
  /// activity estimates at exactly those phases:
  ///   contrast = (λ̂_evening − λ̂_dawn) / (λ̂_evening + λ̂_dawn).
  /// Far more noise-robust than the unlocked swing: human prefixes score
  /// strongly positive, bots near zero.
  double day_night_contrast(net::Prefix prefix, anycast::PopId pop,
                            int vp_id, double longitude_deg,
                            int days = 12) const;

 private:
  /// One probe target per domain for `prefix` at `pop`, built once per
  /// public call and probed by all its rounds, so each domain's upstream
  /// round trip and activity rate are resolved once.
  std::vector<googledns::ProbeTarget> targets_of(net::Prefix prefix,
                                                 anycast::PopId pop) const;
  double estimate_at(const std::vector<googledns::ProbeTarget>& targets,
                     anycast::PopId pop, int vp_id, net::SimTime start,
                     int rounds, double round_spacing_seconds) const;

  googledns::GooglePublicDns* google_dns_;
  std::vector<sim::DomainInfo> domains_;
  RankOptions options_;
};

}  // namespace netclients::core
