// Tests for the event-driven probe engine: its campaigns are pinned, and
// byte-identical at any in-flight window and any thread count — under
// faults, breaker trips and UDP→TCP escalation included — while a wider
// window compresses the modeled wall clock by the pipelining factor. A
// window of one is the blocking prober. The engine's own campaign
// timeline is pinned too.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine/engine.h"
#include "core/obs/obs.h"
#include "core/scenario/scenario.h"
#include "net/rng.h"

namespace netclients::core {
namespace {

constexpr double kScale = 4096;

// Full structural fingerprint: headline counters, every hit in order, and
// the complete retry tally. Anything the engine could plausibly perturb.
std::string fingerprint(const CampaignResult& result) {
  std::ostringstream out;
  out << result.probes_sent << '|' << result.rate_limited << '|'
      << result.slash24_lower_bound() << '|'
      << result.slash24_upper_bound() << '\n';
  const resilience::RetryStats& rs = result.retry_stats;
  out << rs.retries << ',' << rs.timeouts << ',' << rs.servfails << ','
      << rs.exhausted << ',' << rs.escalations << ',' << rs.breaker_opened
      << ',' << rs.breaker_skipped << ',' << rs.requeued << ','
      << rs.waited_ms << '\n';
  for (const CacheHit& hit : result.hits) {
    out << hit.domain_index << ',' << hit.query_scope.base().value() << '/'
        << static_cast<int>(hit.query_scope.length()) << ','
        << static_cast<int>(hit.return_scope) << ',' << hit.pop << ','
        << hit.when << '\n';
  }
  return out.str();
}

struct RunConfig {
  googledns::FailureInjection faults;
  int window = 64;
  int threads = 0;
  int retry_attempts = 3;
  googledns::Transport transport = googledns::Transport::kTcp;
  bool escalate = false;
  int breaker_threshold = 8;
};

Scenario build_scenario(const RunConfig& cfg) {
  googledns::GoogleDnsConfig config;
  config.faults = cfg.faults;
  CacheProbeOptions options;
  options.max_loops = 2;
  options.probe.transport = cfg.transport;
  options.probe.retry.max_attempts = cfg.retry_attempts;
  options.probe.retry.escalate_udp_to_tcp = cfg.escalate;
  options.probe.breaker.failure_threshold = cfg.breaker_threshold;
  options.probe.engine.window = cfg.window;
  return ScenarioBuilder()
      .scale_denominator(kScale)
      .google_config(config)
      .probe_options(options)
      .threads(cfg.threads)
      .build();
}

CampaignResult run_campaign(const RunConfig& cfg) {
  return build_scenario(cfg).campaign().run().result;
}

// The campaign stage's engine timeline as exported: the virtual-seconds
// gauge, the event-loop counters and the in-flight peak gauge.
struct CampaignTimeline {
  double virtual_seconds = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t window_stalls = 0;
  std::uint64_t breaker_drained = 0;
  double peak_in_flight = 0;
};

CampaignTimeline campaign_timeline(const RunConfig& cfg) {
  const Scenario scenario = build_scenario(cfg);
  const CampaignArtifacts probed =
      scenario.campaign().run(kStagePops | kStageCalibration);
  // Calibration publishes into the same engine metrics; isolate the
  // campaign's share.
  obs::Registry::global().reset();
  scenario.campaign().run(kStageCampaign, probed);
  const obs::Snapshot snapshot = obs::Registry::global().snapshot();
  CampaignTimeline out;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "engine.evaluations") out.evaluations = value;
    if (name == "engine.window.stalls") out.window_stalls = value;
    if (name == "engine.breaker.drained") out.breaker_drained = value;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    if (name == "engine.campaign.virtual_seconds") out.virtual_seconds = value;
    if (name == "engine.inflight.peak") out.peak_in_flight = value;
  }
  return out;
}

TEST(Engine, CampaignFingerprintPinned) {
  // Every campaign result, pinned per substrate: the window and the thread
  // count reshape the virtual timeline only, so each substrate has one
  // value across its grid. The values are a blocking prober's (one chain
  // at a time, serial clock), which window 1 reproduces bit for bit.
  enum class Substrate { kClean, kLossy, kTripping, kEscalating };
  struct Expected {
    Substrate substrate;
    std::vector<int> threads;
    std::vector<int> windows;
    std::uint64_t fingerprint_hash;
  };
  const Expected cases[] = {
      {Substrate::kClean, {1, 2, 8}, {64}, 7764206722308091417ull},
      {Substrate::kLossy, {1, 8}, {1, 4, 64}, 5717804462742634770ull},
      // A hair-trigger breaker under heavy loss trips constantly; refused
      // evaluations complete instantly, draining the window.
      {Substrate::kTripping, {1}, {64}, 8693225612445803293ull},
      // Lossy UDP with escalation: flows migrate to TCP mid-run (the
      // paper's forced migration), state the engine carries across loops
      // and domains.
      {Substrate::kEscalating, {1}, {64}, 6560135225316931594ull},
  };
  for (const Expected& expected : cases) {
    RunConfig cfg;
    switch (expected.substrate) {
      case Substrate::kClean:
        break;
      case Substrate::kLossy:
        cfg.faults.timeout_probability = 0.3;
        cfg.faults.servfail_probability = 0.1;
        break;
      case Substrate::kTripping:
        cfg.faults.timeout_probability = 0.9;
        cfg.retry_attempts = 1;
        cfg.breaker_threshold = 2;
        break;
      case Substrate::kEscalating:
        cfg.faults.timeout_probability = 0.4;
        cfg.transport = googledns::Transport::kUdp;
        cfg.escalate = true;
        break;
    }
    for (const int threads : expected.threads) {
      for (const int window : expected.windows) {
        cfg.threads = threads;
        cfg.window = window;
        SCOPED_TRACE(::testing::Message()
                     << "substrate=" << static_cast<int>(expected.substrate)
                     << " threads=" << threads << " window=" << window);
        const CampaignResult result = run_campaign(cfg);
        EXPECT_EQ(net::stable_hash(fingerprint(result)),
                  expected.fingerprint_hash);
        const resilience::RetryStats& rs = result.retry_stats;
        if (expected.substrate == Substrate::kLossy) {
          EXPECT_GT(rs.retries, 0u);
        }
        if (expected.substrate == Substrate::kTripping) {
          EXPECT_GT(rs.breaker_opened, 0u);
          EXPECT_GT(rs.breaker_skipped, 0u);
        }
        if (expected.substrate == Substrate::kEscalating) {
          EXPECT_GT(rs.escalations, 0u);
        }
      }
    }
  }
}

TEST(Engine, WindowSweepIsByteIdenticalAndMonotone) {
  // Widening the window may only compress the virtual timeline — never
  // change results, never slow the modeled clock down.
  RunConfig cfg;
  cfg.faults.timeout_probability = 0.25;
  cfg.threads = 1;
  std::string baseline;
  double previous_duration = 0;
  for (int window : {1, 2, 8, 64}) {
    cfg.window = window;
    const CampaignResult result = run_campaign(cfg);
    ASSERT_GT(result.virtual_duration_seconds, 0.0);
    if (baseline.empty()) {
      baseline = fingerprint(result);
      previous_duration = result.virtual_duration_seconds;
      continue;
    }
    EXPECT_EQ(fingerprint(result), baseline) << "window " << window;
    EXPECT_LE(result.virtual_duration_seconds, previous_duration)
        << "window " << window << " slowed the virtual clock down";
    previous_duration = result.virtual_duration_seconds;
  }
}

TEST(Engine, CampaignTimelinePinned) {
  // The fingerprints above pin outcomes only; this pins the timing plane
  // itself. Any change to the pending queue's pop order, the issue
  // clock or the window accounting moves at least one of these values.
  enum class Substrate { kClean, kLossy, kTripping };
  struct Expected {
    Substrate substrate;
    int window;
    CampaignTimeline timeline;
  };
  const Expected cases[] = {
      {Substrate::kClean, 1, {1345.7499999999989, 52357, 52335, 0, 1}},
      {Substrate::kClean, 4, {336.92000000000013, 52357, 52267, 0, 4}},
      {Substrate::kClean, 64, {46.390000000000001, 52357, 37144, 0, 64}},
      {Substrate::kLossy, 1, {52335.242372464032, 52361, 52339, 0, 1}},
      {Substrate::kLossy, 4, {13108.376325000967, 52361, 52272, 0, 4}},
      {Substrate::kLossy, 64, {926.07290045764887, 52361, 49710, 0, 64}},
      {Substrate::kTripping, 64, {50.019999999999996, 52532, 19180, 52507, 64}},
  };
  for (const Expected& expected : cases) {
    RunConfig cfg;
    if (expected.substrate == Substrate::kLossy) {
      cfg.faults.timeout_probability = 0.3;
      cfg.faults.servfail_probability = 0.1;
    } else if (expected.substrate == Substrate::kTripping) {
      // CampaignFingerprintPinned's hair-trigger breaker.
      cfg.faults.timeout_probability = 0.9;
      cfg.retry_attempts = 1;
      cfg.breaker_threshold = 2;
    }
    cfg.window = expected.window;
    cfg.threads = 2;
    const CampaignTimeline got = campaign_timeline(cfg);
    SCOPED_TRACE(::testing::Message()
                 << "substrate=" << static_cast<int>(expected.substrate)
                 << " window=" << expected.window);
    EXPECT_DOUBLE_EQ(got.virtual_seconds, expected.timeline.virtual_seconds);
    EXPECT_EQ(got.evaluations, expected.timeline.evaluations);
    EXPECT_EQ(got.window_stalls, expected.timeline.window_stalls);
    EXPECT_EQ(got.breaker_drained, expected.timeline.breaker_drained);
    EXPECT_EQ(got.peak_in_flight, expected.timeline.peak_in_flight);
  }
}

TEST(Engine, EventEngineCompressesVirtualTime) {
  // The point of the engine: same probes, far less modeled wall time than
  // the blocking prober (window 1) — chain latency (timeouts, backoffs,
  // RTTs) becomes pipeline depth.
  RunConfig cfg;
  cfg.faults.timeout_probability = 0.25;
  cfg.threads = 1;
  cfg.window = 1;
  const CampaignResult blocking = run_campaign(cfg);
  EXPECT_EQ(net::stable_hash(fingerprint(blocking)), 5626799578607806459ull);
  EXPECT_DOUBLE_EQ(blocking.virtual_duration_seconds, 36860.922611622897);
  cfg.window = 64;
  const CampaignResult pipelined = run_campaign(cfg);
  EXPECT_EQ(fingerprint(pipelined), fingerprint(blocking));
  ASSERT_GT(pipelined.virtual_duration_seconds, 0.0);
  EXPECT_LE(pipelined.virtual_duration_seconds * 3,
            blocking.virtual_duration_seconds);
}

}  // namespace
}  // namespace netclients::core
