// Tests for the per-PoP prober: its campaigns are pinned and
// byte-identical at any thread count — under faults, breaker trips and
// UDP→TCP escalation included — and so are the campaign's chain
// evaluations and breaker refusals as exported.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

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
  return ScenarioBuilder()
      .scale_denominator(kScale)
      .google_config(config)
      .probe_options(options)
      .threads(cfg.threads)
      .build();
}

CampaignResult run_campaign(const RunConfig& cfg) {
  const Scenario scenario = build_scenario(cfg);
  return run_probing(scenario.env, scenario.options).result;
}

// The campaign stage's exported evaluation and breaker-refusal counts.
struct CampaignCounts {
  std::uint64_t evaluations = 0;
  std::uint64_t breaker_skipped = 0;
};

CampaignCounts campaign_counts(const RunConfig& cfg) {
  const Scenario scenario = build_scenario(cfg);
  const PopDiscoveryResult pops = discover_pops(scenario.env);
  const CalibrationResult calibration =
      calibrate(scenario.env, scenario.options, pops);
  // Calibration publishes into the same metrics; isolate the campaign's
  // share.
  obs::Registry::global().reset();
  core::run_campaign(scenario.env, scenario.options, pops, calibration);
  const obs::Snapshot snapshot = obs::Registry::global().snapshot();
  CampaignCounts out;
  for (const auto& [name, value] : snapshot.counters) {
    if (name == "engine.evaluations") out.evaluations = value;
    if (name == "resilience.breaker.skipped") out.breaker_skipped = value;
  }
  return out;
}

TEST(Engine, CampaignFingerprintPinned) {
  // Every campaign result, pinned per substrate: the thread count never
  // changes a decision, so each substrate has one value across its
  // thread counts.
  enum class Substrate {
    kClean,
    kLossy,
    kTripping,
    kEscalating,
    kQuarterLoss
  };
  struct Expected {
    Substrate substrate;
    std::vector<int> threads;
    std::uint64_t fingerprint_hash;
  };
  const Expected cases[] = {
      {Substrate::kClean, {1, 2, 8}, 7764206722308091417ull},
      {Substrate::kLossy, {1, 8}, 5717804462742634770ull},
      // A hair-trigger breaker under heavy loss trips constantly; refused
      // evaluations stay un-hit and are revisited a loop later.
      {Substrate::kTripping, {1}, 8693225612445803293ull},
      // Lossy UDP with escalation: flows migrate to TCP mid-run (the
      // paper's forced migration), state the prober carries across loops
      // and domains.
      {Substrate::kEscalating, {1}, 6560135225316931594ull},
      {Substrate::kQuarterLoss, {1}, 5626799578607806459ull},
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
      case Substrate::kQuarterLoss:
        cfg.faults.timeout_probability = 0.25;
        break;
    }
    for (const int threads : expected.threads) {
      cfg.threads = threads;
      SCOPED_TRACE(::testing::Message()
                   << "substrate=" << static_cast<int>(expected.substrate)
                   << " threads=" << threads);
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

TEST(Engine, CampaignEvaluationsAndBreakerRefusalsPinned) {
  // The fingerprints above pin outcomes; this pins the exported counts of
  // the decisions behind them. A change to the evaluation order or to the
  // loop bookkeeping moves the evaluations; a breaker refusal counted
  // twice, or not at all, moves the refusals.
  enum class Substrate { kClean, kLossy, kTripping };
  struct Expected {
    Substrate substrate;
    CampaignCounts counts;
  };
  const Expected cases[] = {
      {Substrate::kClean, {52357, 0}},
      {Substrate::kLossy, {52361, 0}},
      {Substrate::kTripping, {52532, 52507}},
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
    cfg.threads = 2;
    const CampaignCounts got = campaign_counts(cfg);
    SCOPED_TRACE(::testing::Message()
                 << "substrate=" << static_cast<int>(expected.substrate));
    EXPECT_EQ(got.evaluations, expected.counts.evaluations);
    EXPECT_EQ(got.breaker_skipped, expected.counts.breaker_skipped);
  }
}

}  // namespace
}  // namespace netclients::core
