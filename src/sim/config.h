#pragma once

#include <cstdint>

namespace netclients::sim {

/// Generation parameters for the synthetic Internet. All knobs have
/// defaults chosen so the pipelines reproduce the *shape* of the paper's
/// results (see EXPERIMENTS.md); `scale` shrinks the world uniformly so the
/// full campaign runs in seconds.
struct WorldConfig {
  std::uint64_t seed = 42;

  /// Fraction of the real Internet's size: the paper's world has ~15.5M
  /// public /24s, ~12M routed, and ~66.8K ASes seen by at least one
  /// technique. Counts scale linearly; percentages are scale-free.
  double scale = 1.0 / 32;

  // ---- Population / browsers -------------------------------------------
  double chromium_share = 0.72;  // of web users (Chrome+Edge+Brave+Opera)
  double browser_starts_per_user_per_day = 2.0;
  double network_changes_per_user_per_day = 0.7;  // also trigger probes
  double sessions_per_user_per_day = 9.0;

  // ---- Resolver ecosystem ----------------------------------------------
  /// Default country-level share of clients using Google Public DNS
  /// (overridden per country, then jittered per AS).
  double google_dns_share = 0.30;
  /// Share using some other public resolver (Cloudflare-like, no ECS
  /// pass-through, invisible to cache probing).
  double other_public_dns_share = 0.08;
  /// Probability that an AS that runs "its own" resolver actually hosts it
  /// in a third-party hosting AS (makes DNS logs attribute activity to
  /// ASes without eyeballs — one cause of the low cache∩logs overlap).
  double resolver_outsourced_probability = 0.12;

  // ---- CDN / validation-side activity ----------------------------------
  double ms_cdn_http_per_user_per_day = 9.0;
  double ms_cdn_dns_per_user_per_day = 1.6;

  // ---- Temporal structure -------------------------------------------------
  /// Relative amplitude of the human diurnal cycle: client query rates
  /// swing by ±amplitude around the mean, peaking in the local evening.
  /// Bots are flat. Defaults to 0 (stationary) — the §6 temporal-signal
  /// experiments (`bench_paper diurnal`) turn it on explicitly.
  double diurnal_amplitude = 0.0;
  double diurnal_peak_local_hour = 20.0;

  // ---- Anycast ----------------------------------------------------------
  double catchment_detour_sigma = 0.22;

  // ---- Address plan ------------------------------------------------------
  /// Fraction of allocated /24 space that is not announced (the paper: 15.5M
  /// public vs ~12M routed).
  double unrouted_fraction = 0.22;

  // ---- Derived magnitudes (at scale = 1) ---------------------------------
  std::uint32_t ases_at_full_scale = 66800;
  double world_users_at_full_scale = 4.2e9;

  std::uint32_t num_ases() const {
    auto n = static_cast<std::uint32_t>(ases_at_full_scale * scale);
    return n < 16 ? 16 : n;
  }
};

}  // namespace netclients::sim
