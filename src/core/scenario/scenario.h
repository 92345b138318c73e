#pragma once

// One-stop wiring of a measurement scenario: the synthetic world plus the
// substrate a campaign probes (activity model, Google Public DNS front
// end, probe environment), owned once by ScenarioBuilder with paper-parameter
// defaults, and the DNS-logs crawl over that world (Scenario::dns_logs)
// that the benches, the examples and the end-to-end tests share.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/cacheprobe/cacheprobe.h"
#include "core/chromium/chromium.h"
#include "core/snapshot/snapshot.h"
#include "googledns/google_dns.h"
#include "sim/activity.h"
#include "sim/config.h"
#include "sim/world.h"

namespace netclients::core {

/// A fully wired scenario. The world lives on the heap so the raw
/// pointers inside `env` stay valid when the Scenario itself is moved.
struct Scenario {
  std::unique_ptr<sim::World> world_ptr;
  std::unique_ptr<sim::WorldActivityModel> activity;
  std::unique_ptr<googledns::GooglePublicDns> google_dns;
  ProbeEnvironment env;
  CacheProbeOptions options;
  /// The front-end config the builder wired; run_epochs re-keys it per
  /// epoch to give each measurement window its own cache timeline.
  googledns::GoogleDnsConfig google_config;

  sim::World& world() { return *world_ptr; }
  const sim::World& world() const { return *world_ptr; }

  /// Runs the full campaign `epochs` times (at least once) and persists
  /// each run as a snapshot EpochRecord. Epoch 0 probes the scenario's own
  /// front end with the scenario's seed — run_epochs(1) records
  /// run_probing(env, options) — and each later epoch re-keys both the
  /// probe RNG streams and the Google-DNS cache timeline (fresh
  /// GooglePublicDns with a re-keyed seed and an advanced authoritative
  /// epoch), modelling independent measurement windows over the same
  /// world: marginally active blocks drop in and out and scope drift
  /// shifts attribution, so the inferred active sets overlap heavily but
  /// not exactly — exactly the churn the analytics in core/serve quantify.
  std::vector<snapshot::EpochRecord> run_epochs(int epochs) const;

  /// The DNS-logs technique over this world: generates the sampled DITL
  /// capture (RootSystem::ditl_2020 of the world seed) into an NCD1
  /// corpus at `manifest`, the shape a DITL collection arrives in (a new
  /// member every 2^18 records), scans it at `options.threads`, and
  /// removes every member and the manifest. Returns nullopt when the
  /// corpus cannot be written or a member is skipped.
  std::optional<ChromiumResult> dns_logs(double sample_rate,
                                         const std::string& manifest) const;
};

/// Fluent assembly of a Scenario, the one place that wires a
/// ProbeEnvironment. Defaults are the paper's parameters at the examples'
/// 1/256 world scale; benches pass their REPRO_SCALE.
class ScenarioBuilder {
 public:
  /// World size as the denominator of the scale fraction.
  ScenarioBuilder& scale_denominator(double denominator) {
    scale_denominator_ = denominator;
    return *this;
  }
  /// Full world-config override (wins over scale_denominator).
  ScenarioBuilder& world_config(const sim::WorldConfig& config) {
    config_ = config;
    config_set_ = true;
    return *this;
  }
  ScenarioBuilder& probe_options(const CacheProbeOptions& options) {
    options_ = options;
    return *this;
  }
  /// Parallelism for the sharded stages; overrides probe_options.threads.
  ScenarioBuilder& threads(int n) {
    threads_ = n;
    return *this;
  }
  ScenarioBuilder& google_config(const googledns::GoogleDnsConfig& config) {
    google_config_ = config;
    return *this;
  }

  Scenario build() const;

 private:
  sim::WorldConfig config_{};
  bool config_set_ = false;
  double scale_denominator_ = 256;
  CacheProbeOptions options_{};
  googledns::GoogleDnsConfig google_config_{};
  int threads_ = -1;  // < 0: leave options.threads as given
};

}  // namespace netclients::core
