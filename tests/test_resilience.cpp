// Tests for the resilience layer (retry/backoff policy, circuit breaker)
// and for fault injection end to end: a fault-free substrate must yield
// byte-identical campaigns whatever the retry policy, faulty runs must be
// byte-identical across thread counts, and recall must degrade
// monotonically with injected loss while retries claw part of it back.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/resilience/resilience.h"
#include "core/scenario/scenario.h"

namespace netclients::core {
namespace {

// ------------------------------------------------------------ retry policy

TEST(RetryPolicy, BackoffGrowsExponentiallyAndCaps) {
  resilience::RetryPolicy policy;
  policy.jitter_fraction = 0;  // pure schedule
  policy.initial_backoff_seconds = 0.05;
  policy.backoff_multiplier = 2.0;
  policy.max_backoff_seconds = 0.3;
  EXPECT_NEAR(policy.backoff_before(1, 1), 0.05, 1e-12);
  EXPECT_NEAR(policy.backoff_before(2, 1), 0.10, 1e-12);
  EXPECT_NEAR(policy.backoff_before(3, 1), 0.20, 1e-12);
  EXPECT_NEAR(policy.backoff_before(4, 1), 0.30, 1e-12);  // capped
  EXPECT_NEAR(policy.backoff_before(9, 1), 0.30, 1e-12);
}

TEST(RetryPolicy, JitterIsDeterministicPerKeyAndBounded) {
  resilience::RetryPolicy policy;  // jitter_fraction = 0.5
  bool varied = false;
  double first_value = -1;
  for (std::uint64_t key = 0; key < 64; ++key) {
    const double backoff = policy.backoff_before(1, key);
    EXPECT_EQ(backoff, policy.backoff_before(1, key));  // repeatable
    // backoff * (1 - f + f*u) with u in [0, 1).
    EXPECT_GE(backoff, policy.initial_backoff_seconds * 0.5 - 1e-12);
    EXPECT_LE(backoff, policy.initial_backoff_seconds + 1e-12);
    if (first_value < 0) first_value = backoff;
    varied |= backoff != first_value;
  }
  EXPECT_TRUE(varied);
}

TEST(RetryPolicy, TimeoutsArePerTransport) {
  resilience::RetryPolicy policy;
  policy.udp_timeout_seconds = 1.5;
  policy.tcp_timeout_seconds = 3.5;
  EXPECT_EQ(policy.timeout_for(googledns::Transport::kUdp), 1.5);
  EXPECT_EQ(policy.timeout_for(googledns::Transport::kTcp), 3.5);
}

// --------------------------------------------------------- circuit breaker

TEST(CircuitBreaker, OpensAfterThresholdThenRecloses) {
  resilience::BreakerPolicy policy;
  policy.failure_threshold = 3;
  policy.open_seconds = 10.0;
  resilience::CircuitBreaker breaker(policy);
  EXPECT_EQ(breaker.state(0), resilience::CircuitBreaker::State::kClosed);
  breaker.record_failure(0);
  breaker.record_failure(0);
  EXPECT_TRUE(breaker.allow(0));  // still closed below the threshold
  breaker.record_failure(0);
  EXPECT_EQ(breaker.state(1.0), resilience::CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker.allow(1.0));
  EXPECT_EQ(breaker.skipped(), 1u);
  EXPECT_EQ(breaker.opened(), 1u);
  // Open window elapsed: one trial probe is admitted (half-open)...
  EXPECT_EQ(breaker.state(10.0),
            resilience::CircuitBreaker::State::kHalfOpen);
  EXPECT_TRUE(breaker.allow(10.0));
  // ...and its success recloses the breaker.
  breaker.record_success();
  EXPECT_EQ(breaker.state(10.1), resilience::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker.allow(10.1));
}

TEST(CircuitBreaker, FailedTrialReopensFreshWindow) {
  resilience::BreakerPolicy policy;
  policy.failure_threshold = 2;
  policy.open_seconds = 5.0;
  resilience::CircuitBreaker breaker(policy);
  breaker.record_failure(0);
  breaker.record_failure(0);
  EXPECT_FALSE(breaker.allow(1.0));
  EXPECT_TRUE(breaker.allow(5.0));   // trial
  breaker.record_failure(5.0);       // trial failed: re-open from now
  EXPECT_FALSE(breaker.allow(9.0));  // inside the fresh window
  EXPECT_TRUE(breaker.allow(10.0));
  EXPECT_EQ(breaker.opened(), 2u);
}

TEST(CircuitBreaker, SuccessResetsConsecutiveCount) {
  resilience::BreakerPolicy policy;
  policy.failure_threshold = 3;
  resilience::CircuitBreaker breaker(policy);
  for (int round = 0; round < 10; ++round) {
    breaker.record_failure(0);
    breaker.record_failure(0);
    breaker.record_success();  // never three in a row
  }
  EXPECT_EQ(breaker.state(0), resilience::CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.opened(), 0u);
}

TEST(CircuitBreaker, DisabledThresholdNeverOpens) {
  resilience::BreakerPolicy policy;
  policy.failure_threshold = 0;  // disabled
  resilience::CircuitBreaker breaker(policy);
  for (int i = 0; i < 100; ++i) breaker.record_failure(0);
  EXPECT_TRUE(breaker.allow(0));
  EXPECT_EQ(breaker.opened(), 0u);
}

TEST(RetryStats, MergeSumsFieldwise) {
  resilience::RetryStats a, b;
  a.retries = 2;
  a.timeouts = 1;
  a.requeued = 4;
  b.retries = 3;
  b.servfails = 5;
  b.breaker_opened = 1;
  a.merge(b);
  EXPECT_EQ(a.retries, 5u);
  EXPECT_EQ(a.timeouts, 1u);
  EXPECT_EQ(a.servfails, 5u);
  EXPECT_EQ(a.requeued, 4u);
  EXPECT_EQ(a.breaker_opened, 1u);
}

TEST(RetryStats, MergeShardsIsOrderIndependent) {
  // The campaign's cross-shard merge is a commutative integer sum: any
  // permutation (and any regrouping into fewer or more shards) lands on the
  // same totals, which is what makes retry_stats independent of thread and
  // shard count.
  resilience::RetryStats a, b, c;
  a.retries = 2;
  a.waited_ms = 120;
  b.timeouts = 7;
  b.escalations = 1;
  c.servfails = 3;
  c.breaker_skipped = 9;
  const auto forward = resilience::RetryStats::merge_shards({a, b, c});
  const auto backward = resilience::RetryStats::merge_shards({c, b, a});
  EXPECT_EQ(forward, backward);
  // Regrouped: {a+b} then {c} — the same totals as three singleton shards.
  resilience::RetryStats ab = a;
  ab.merge(b);
  EXPECT_EQ(resilience::RetryStats::merge_shards({ab, c}), forward);
  EXPECT_EQ(resilience::RetryStats::merge_shards({}), resilience::RetryStats{});
}

// ----------------------------------------------------- campaign integration

constexpr double kScale = 4096;

std::string fingerprint(const CampaignResult& result) {
  std::ostringstream out;
  out << result.probes_sent << '|' << result.rate_limited << '|'
      << result.slash24_lower_bound() << '|'
      << result.slash24_upper_bound() << '\n';
  for (const CacheHit& hit : result.hits) {
    out << hit.domain_index << ',' << hit.query_scope.base().value() << '/'
        << static_cast<int>(hit.query_scope.length()) << ','
        << static_cast<int>(hit.return_scope) << ',' << hit.pop << ','
        << hit.when << '\n';
  }
  return out.str();
}

CampaignResult run_campaign(const googledns::FailureInjection& faults,
                            int retry_attempts, int threads) {
  googledns::GoogleDnsConfig config;
  config.faults = faults;
  CacheProbeOptions options;
  options.max_loops = 2;
  options.probe.retry.max_attempts = retry_attempts;
  const Scenario scenario = ScenarioBuilder()
                                .scale_denominator(kScale)
                                .google_config(config)
                                .probe_options(options)
                                .threads(threads)
                                .build();
  return run_probing(scenario.env, scenario.options).result;
}

TEST(FaultFreeRuns, RetryPolicyCannotPerturbResults) {
  // With zero fault rates no retry path ever triggers, so wildly different
  // retry/breaker budgets must yield byte-identical campaigns.
  const auto baseline = run_campaign({}, 3, 0);
  const auto cranked = [] {
    googledns::GoogleDnsConfig config;  // no faults
    CacheProbeOptions options;
    options.max_loops = 2;
    options.probe.retry.max_attempts = 9;
    options.probe.retry.initial_backoff_seconds = 1.0;
    options.probe.retry.udp_timeout_seconds = 0.25;
    options.probe.retry.tcp_timeout_seconds = 0.25;
    options.probe.breaker.failure_threshold = 1;
    const Scenario scenario = ScenarioBuilder()
                                  .scale_denominator(kScale)
                                  .google_config(config)
                                  .probe_options(options)
                                  .build();
    return run_probing(scenario.env, scenario.options).result;
  }();
  EXPECT_EQ(fingerprint(baseline), fingerprint(cranked));
  EXPECT_EQ(baseline.retry_stats.retries, 0u);
  EXPECT_EQ(cranked.retry_stats.retries, 0u);
  EXPECT_EQ(cranked.retry_stats.breaker_opened, 0u);
}

TEST(FaultyRuns, ByteIdenticalAcrossThreadCounts) {
  googledns::FailureInjection faults;
  faults.timeout_probability = 0.3;
  faults.servfail_probability = 0.1;
  const auto serial = run_campaign(faults, 3, 1);
  const auto parallel = run_campaign(faults, 3, 8);
  EXPECT_EQ(fingerprint(serial), fingerprint(parallel));
  // The retry tally must be fully shard-count independent, not just in the
  // headline fields — merge_shards is a commutative sum.
  EXPECT_EQ(serial.retry_stats, parallel.retry_stats);
  EXPECT_GT(serial.retry_stats.retries, 0u);
}

TEST(FaultyRuns, RecallDegradesMonotonicallyWithLoss) {
  auto hits_at = [](double loss) {
    googledns::FailureInjection faults;
    faults.timeout_probability = loss;
    return run_campaign(faults, 3, 0).hits.size();
  };
  const auto clean = hits_at(0.0);
  const auto lossy = hits_at(0.4);
  const auto drowning = hits_at(0.8);
  EXPECT_GE(clean, lossy);
  EXPECT_GE(lossy, drowning);
  EXPECT_GT(clean, drowning);  // strict across the full sweep
}

TEST(FaultyRuns, RetriesRecoverPartOfTheLoss) {
  googledns::FailureInjection faults;
  faults.timeout_probability = 0.5;
  const auto no_retries = run_campaign(faults, 1, 0);
  const auto with_retries = run_campaign(faults, 3, 0);
  EXPECT_GE(with_retries.hits.size(), no_retries.hits.size());
  EXPECT_GT(with_retries.hits.size(), 0u);
  EXPECT_EQ(no_retries.retry_stats.retries, 0u);
  EXPECT_GT(with_retries.retry_stats.retries, 0u);
  // The retry budget must actually close part of the recall gap left by
  // single-shot probing under 50% probe loss.
  const auto clean = run_campaign({}, 1, 0);
  EXPECT_GT(clean.hits.size(), no_retries.hits.size());
}

TEST(FaultyRuns, SurgeWindowRefusalsAreCountedNotRetried) {
  googledns::FailureInjection faults;
  faults.surge_refusal_probability = 0.9;
  faults.surge_windows.push_back({0.0, 1e9});  // always surging
  const auto result = run_campaign(faults, 3, 0);
  EXPECT_GT(result.rate_limited, 0u);
  // Rate-limit refusals are normal operation, not hard failures: no
  // retries, no breaker trips.
  EXPECT_EQ(result.retry_stats.retries, 0u);
  EXPECT_EQ(result.retry_stats.breaker_opened, 0u);
}

}  // namespace
}  // namespace netclients::core
