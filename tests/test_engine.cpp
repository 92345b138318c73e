// Tests for the event-driven probe engine: the event mode must produce
// byte-identical campaigns to the legacy-sync adapter at any in-flight
// window and any thread count — under faults, breaker trips and UDP→TCP
// escalation included — while compressing the modeled wall clock by the
// pipelining factor. The engine's own campaign timeline is pinned too.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/engine/engine.h"
#include "core/obs/obs.h"
#include "core/scenario/scenario.h"

namespace netclients::core {
namespace {

constexpr double kScale = 4096;

using engine::EngineOptions;

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
  EngineOptions::Mode mode = EngineOptions::Mode::kEvent;
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
  options.probe.engine.mode = cfg.mode;
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

TEST(Engine, MatchesSyncFaultFree) {
  RunConfig sync;
  sync.mode = EngineOptions::Mode::kSync;
  sync.threads = 1;
  const std::string baseline = fingerprint(run_campaign(sync));
  for (int threads : {1, 2, 8}) {
    RunConfig event;
    event.mode = EngineOptions::Mode::kEvent;
    event.threads = threads;
    EXPECT_EQ(fingerprint(run_campaign(event)), baseline)
        << "event engine diverged at " << threads << " threads";
  }
}

TEST(Engine, MatchesSyncUnderFaults) {
  RunConfig sync;
  sync.faults.timeout_probability = 0.3;
  sync.faults.servfail_probability = 0.1;
  sync.mode = EngineOptions::Mode::kSync;
  sync.threads = 1;
  const CampaignResult sync_result = run_campaign(sync);
  const std::string baseline = fingerprint(sync_result);
  ASSERT_GT(sync_result.retry_stats.retries, 0u);
  for (int threads : {1, 8}) {
    for (int window : {1, 4, 64}) {
      RunConfig event = sync;
      event.mode = EngineOptions::Mode::kEvent;
      event.threads = threads;
      event.window = window;
      EXPECT_EQ(fingerprint(run_campaign(event)), baseline)
          << "diverged at threads=" << threads << " window=" << window;
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

TEST(Engine, BreakerDrainMatchesSync) {
  // A hair-trigger breaker under heavy loss trips constantly; refused
  // evaluations complete instantly (draining the window) and the tallies
  // must still match the sync adapter exactly.
  RunConfig cfg;
  cfg.faults.timeout_probability = 0.9;
  cfg.retry_attempts = 1;
  cfg.breaker_threshold = 2;
  cfg.threads = 1;
  cfg.mode = EngineOptions::Mode::kSync;
  const CampaignResult sync_result = run_campaign(cfg);
  ASSERT_GT(sync_result.retry_stats.breaker_opened, 0u);
  ASSERT_GT(sync_result.retry_stats.breaker_skipped, 0u);
  cfg.mode = EngineOptions::Mode::kEvent;
  const CampaignResult event_result = run_campaign(cfg);
  EXPECT_EQ(fingerprint(event_result), fingerprint(sync_result));
}

TEST(Engine, EscalationUnderFaultMatchesSync) {
  // Lossy UDP with escalation enabled: flows migrate to TCP mid-run (the
  // paper's forced migration) — a per-chain state change the engine must
  // carry across loops and domains identically to the sync adapter.
  RunConfig cfg;
  cfg.faults.timeout_probability = 0.4;
  cfg.transport = googledns::Transport::kUdp;
  cfg.escalate = true;
  cfg.threads = 1;
  cfg.mode = EngineOptions::Mode::kSync;
  const CampaignResult sync_result = run_campaign(cfg);
  ASSERT_GT(sync_result.retry_stats.escalations, 0u);
  cfg.mode = EngineOptions::Mode::kEvent;
  const CampaignResult event_result = run_campaign(cfg);
  EXPECT_EQ(fingerprint(event_result), fingerprint(sync_result));
}

TEST(Engine, CampaignTimelinePinned) {
  // The parity tests above compare outcomes only; this pins the timing
  // plane itself. Any change to the pending queue's pop order, the issue
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
      // BreakerDrainMatchesSync's hair-trigger breaker.
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
  // The point of the redesign: same probes, far less modeled wall time —
  // chain latency (timeouts, backoffs, RTTs) becomes pipeline depth.
  RunConfig cfg;
  cfg.faults.timeout_probability = 0.25;
  cfg.threads = 1;
  cfg.mode = EngineOptions::Mode::kSync;
  const CampaignResult sync_result = run_campaign(cfg);
  cfg.mode = EngineOptions::Mode::kEvent;
  const CampaignResult event_result = run_campaign(cfg);
  ASSERT_EQ(event_result.probes_sent, sync_result.probes_sent);
  ASSERT_GT(sync_result.virtual_duration_seconds, 0.0);
  ASSERT_GT(event_result.virtual_duration_seconds, 0.0);
  EXPECT_LE(event_result.virtual_duration_seconds * 3,
            sync_result.virtual_duration_seconds);
  EXPECT_GE(event_result.virtual_probes_per_second(),
            3 * sync_result.virtual_probes_per_second());
}

}  // namespace
}  // namespace netclients::core
