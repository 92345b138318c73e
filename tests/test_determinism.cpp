// Determinism suite for the parallel execution layer (labels:
// determinism, tsan): same seed ⇒ byte-identical results regardless of
// thread count, for every sharded stage — scope discovery, calibration,
// the probing campaign, and the Chromium DITL scan. Also covers the exec
// primitives themselves and the mean_assigned_per_pop truncation fix.

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/cacheprobe/cacheprobe.h"
#include "core/chromium/chromium.h"
#include "core/exec/exec.h"
#include "core/exec/steal.h"
#include "core/obs/export.h"
#include "core/obs/obs.h"
#include "core/scenario/scenario.h"
#include "roots/corpus.h"
#include "roots/root_server.h"
#include "scan_testing.h"
#include "sim/ditl.h"
#include "sim/world.h"
#include "world_testing.h"

namespace netclients::core {
namespace {

// ------------------------------------------------------------- exec basics

TEST(Exec, ParallelMapReturnsResultsInIndexOrder) {
  const auto results =
      exec::parallel_map(257, 8, [](std::size_t i) { return i * i; });
  ASSERT_EQ(results.size(), 257u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i], i * i);
  }
}

TEST(Exec, SerialAndParallelMapAgree) {
  const auto serial =
      exec::parallel_map(100, 1, [](std::size_t i) { return 31 * i + 7; });
  const auto parallel =
      exec::parallel_map(100, 8, [](std::size_t i) { return 31 * i + 7; });
  EXPECT_EQ(serial, parallel);
}

TEST(Exec, ChunkPartitionDependsOnlyOnInputs) {
  // Chunk boundaries must be a pure function of (begin, end, chunk_size):
  // identical for any thread count.
  const auto cut = [](int threads) {
    return exec::parallel_for_chunks(
        100, 1000, 64, threads, [](exec::ChunkRange r) {
          return std::make_pair(r.begin, r.end);
        });
  };
  const auto one = cut(1);
  const auto eight = cut(8);
  ASSERT_EQ(one, eight);
  std::size_t covered = 100;
  for (const auto& [begin, end] : one) {
    EXPECT_EQ(begin, covered);
    EXPECT_GT(end, begin);
    covered = end;
  }
  EXPECT_EQ(covered, 1000u);
}

TEST(Exec, ShardSeedIsStableAndPerShard) {
  // The per-shard stream is keyed by the logical shard id, so it is the
  // same value on every call — and distinct across shards and seeds.
  EXPECT_EQ(exec::shard_seed(0xCAFE, 3), exec::shard_seed(0xCAFE, 3));
  EXPECT_NE(exec::shard_seed(0xCAFE, 3), exec::shard_seed(0xCAFE, 4));
  EXPECT_NE(exec::shard_seed(0xCAFE, 3), exec::shard_seed(0xBEEF, 3));
  net::Rng a = exec::shard_rng(0xCAFE, 5);
  net::Rng b = exec::shard_rng(0xCAFE, 5);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a(), b());
}

TEST(Exec, ThreadCountReadsReproThreadsEnv) {
  ::setenv("REPRO_THREADS", "3", 1);
  EXPECT_EQ(exec::thread_count(), 3);
  ::setenv("REPRO_THREADS", "0", 1);  // clamped to >= 1
  EXPECT_EQ(exec::thread_count(), 1);
  ::unsetenv("REPRO_THREADS");
  EXPECT_GE(exec::thread_count(), 1);
}

TEST(Exec, ParallelMapPropagatesExceptions) {
  EXPECT_THROW(exec::parallel_map(64, 8,
                                  [](std::size_t i) {
                                    if (i == 13) {
                                      throw std::runtime_error("boom");
                                    }
                                    return i;
                                  }),
               std::runtime_error);
}

TEST(Exec, BackToBackFanOutsNeverOutliveTheirCaller) {
  // The caller's completion mutex and condition variable live on its
  // stack, so the last worker must be done with them before the caller
  // can see the fan-out finish and return. Thousands of trivial fan-outs
  // in a row give tsan many chances to catch a worker that is not.
  for (int i = 0; i < 5000; ++i) {
    const auto mapped =
        exec::parallel_map(4, 4, [](std::size_t j) { return j; });
    ASSERT_EQ(mapped.back(), 3u);
    const auto stolen = exec::steal_map(4, 4, [](std::size_t j) { return j; });
    ASSERT_EQ(stolen.back(), 3u);
  }
}

// --------------------------------------------- truncation-bugfix regression

TEST(MeanAssigned, ComputedInDoubleNotInteger) {
  // 7 candidates over 2 PoPs x 2 domains is 1.75 — the old integer
  // division reported 1.
  EXPECT_DOUBLE_EQ(mean_assigned_per_pop(7, 2, 2), 1.75);
  EXPECT_DOUBLE_EQ(mean_assigned_per_pop(0, 5, 3), 0.0);
  EXPECT_DOUBLE_EQ(mean_assigned_per_pop(10, 0, 2), 0.0);  // no PoPs: defined
}

// ------------------------------------------------- campaign thread-count
// One full probing pipeline per (seed, threads); the substrate (world +
// Google front end) is rebuilt fresh each run because probing itself warms
// the caches being measured.

struct RunArtifacts {
  std::vector<std::string> scopes;        // stage-1 candidates, domain 0
  std::vector<std::string> hits;          // every CacheHit field, in order
  std::vector<net::SimTime> hit_times;    // compared bit-exactly, not via
                                          // to_string's rounding
  std::unordered_map<anycast::PopId, double> radii;
  std::unordered_map<anycast::PopId, std::vector<double>> hit_distances;
  std::uint64_t probes_sent = 0;
  std::uint64_t rate_limited = 0;
  double average_assigned_per_pop = 0;
  std::uint64_t lower = 0, upper = 0;
};

RunArtifacts run_pipeline(std::uint64_t seed, int threads) {
  CacheProbeOptions options;
  options.seed = seed;
  options.threads = threads;
  options.max_loops = 2;
  const Scenario scenario =
      ScenarioBuilder().scale_denominator(2048).probe_options(options).build();
  const ProbeEnvironment& env = scenario.env;

  RunArtifacts out;
  for (const net::Prefix& scope : discover_scopes(env, options, 0)) {
    out.scopes.push_back(scope.to_string());
  }
  const auto pops = discover_pops(env);
  const auto calibration = calibrate(env, options, pops);
  out.radii = calibration.service_radius_km;
  out.hit_distances = calibration.hit_distances_km;
  const auto result = run_campaign(env, options, pops, calibration);
  for (const CacheHit& hit : result.hits) {
    out.hits.push_back(std::to_string(hit.domain_index) + " " +
                       hit.query_scope.to_string() + " " +
                       std::to_string(hit.return_scope) + " " +
                       std::to_string(hit.pop));
    out.hit_times.push_back(hit.when);
  }
  out.probes_sent = result.probes_sent;
  out.rate_limited = result.rate_limited;
  out.average_assigned_per_pop = result.average_assigned_per_pop;
  out.lower = result.slash24_lower_bound();
  out.upper = result.slash24_upper_bound();
  return out;
}

void expect_identical(const RunArtifacts& serial, const RunArtifacts& mt) {
  EXPECT_EQ(serial.scopes, mt.scopes);
  EXPECT_EQ(serial.hits, mt.hits);  // byte-identical hit stream
  EXPECT_EQ(serial.hit_times, mt.hit_times);
  EXPECT_EQ(serial.radii, mt.radii);
  EXPECT_EQ(serial.hit_distances, mt.hit_distances);
  EXPECT_EQ(serial.probes_sent, mt.probes_sent);
  EXPECT_EQ(serial.rate_limited, mt.rate_limited);
  EXPECT_DOUBLE_EQ(serial.average_assigned_per_pop,
                   mt.average_assigned_per_pop);
  EXPECT_EQ(serial.lower, mt.lower);
  EXPECT_EQ(serial.upper, mt.upper);
}

TEST(Determinism, CampaignIdenticalAcrossThreadCounts) {
  // 3 is odd on purpose: the campaign starts its PoP shards largest-first,
  // so an odd worker count splits the heavy shards unevenly.
  for (const std::uint64_t seed : {0xCAFEull, 0xBEEFull}) {
    const RunArtifacts serial = run_pipeline(seed, 1);
    ASSERT_FALSE(serial.hits.empty());
    for (const int threads : {3, 8}) {
      SCOPED_TRACE(::testing::Message() << threads << " threads");
      expect_identical(serial, run_pipeline(seed, threads));
    }
  }
}

TEST(Determinism, CampaignRespectsReproThreadsEnv) {
  // threads = 0 defers to REPRO_THREADS; 1 and 5 must agree.
  ::setenv("REPRO_THREADS", "1", 1);
  const RunArtifacts serial = run_pipeline(0xCAFE, 0);
  ::setenv("REPRO_THREADS", "5", 1);
  const RunArtifacts mt = run_pipeline(0xCAFE, 0);
  ::unsetenv("REPRO_THREADS");
  ASSERT_FALSE(serial.hits.empty());
  expect_identical(serial, mt);
}

TEST(Determinism, DifferentSeedsDiffer) {
  // The seed must actually steer the pipeline (otherwise the cross-seed
  // assertions above prove nothing). It drives the calibration sample, so
  // the raw hit-distance series must differ between seeds.
  const RunArtifacts a = run_pipeline(0xCAFE, 8);
  const RunArtifacts b = run_pipeline(0xBEEF, 8);
  EXPECT_NE(a.hit_distances, b.hit_distances);
}

// ------------------------------------------------------ world generation

TEST(Determinism, WorldIdenticalAcrossThreadCounts) {
  // World::generate computes its catchment and geolocation on the pool;
  // the world must not depend on how many threads that pass ran on.
  const char* previous = std::getenv("REPRO_THREADS");
  const std::string saved = previous ? previous : "";
  sim::WorldConfig config;
  config.scale = 1.0 / 2048;
  std::vector<std::uint64_t> digests;
  for (const char* threads : {"1", "3", "8"}) {
    ::setenv("REPRO_THREADS", threads, 1);
    digests.push_back(
        sim::world_testing::world_digest(sim::World::generate(config)));
  }
  if (previous) {
    ::setenv("REPRO_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("REPRO_THREADS");
  }
  EXPECT_EQ(digests[1], digests[0]) << "3 threads";
  EXPECT_EQ(digests[2], digests[0]) << "8 threads";
}

// ------------------------------------------------- metrics thread-count

/// A 1/2048 world's DITL at 1/16 sampling, written once as a 3-member
/// NCD1 corpus for the Chromium cases below.
const std::string& chromium_corpus() {
  static const std::string manifest = [] {
    sim::WorldConfig config;
    config.scale = 1.0 / 2048;
    const sim::World world = sim::World::generate(config);
    const roots::RootSystem roots =
        roots::RootSystem::ditl_2020(config.seed);
    sim::DitlOptions ditl;
    ditl.sample_rate = 1.0 / 16;
    std::vector<roots::TraceRecord> trace;
    sim::generate_ditl(world, roots, ditl, [&](const roots::TraceRecord& r) {
      trace.push_back(r);
    });
    EXPECT_FALSE(trace.empty());
    return scan_testing::write_test_corpus("determinism_ditl", trace, 3);
  }();
  return manifest;
}

class ChromiumCorpusCleanup : public ::testing::Environment {
 public:
  void TearDown() override { scan_testing::remove_corpus(chromium_corpus()); }
};
const auto* const kChromiumCorpusCleanup =
    ::testing::AddGlobalTestEnvironment(new ChromiumCorpusCleanup);

ChromiumResult scan_chromium_corpus(int threads) {
  const auto corpus = roots::CorpusView::open(chromium_corpus());
  EXPECT_TRUE(corpus && corpus->stats().members_opened == 3);
  ChromiumOptions options;
  options.sample_rate = 1.0 / 16;
  options.chunk_records = 1 << 10;  // many chunks even on this small trace
  options.threads = threads;
  return corpus ? ChromiumCounter(options).process_corpus(*corpus)
                : ChromiumResult{};
}

TEST(Determinism, MetricsJsonIdenticalAcrossThreadCounts) {
  // The observability layer follows the same discipline as the pipelines:
  // for a fixed seed, the exported metrics JSON (timings excluded — span
  // wall-clock is the one intentionally nondeterministic field) is
  // byte-identical between a serial and an 8-way run. The Chromium scan is
  // included over a multi-member corpus with small chunks on purpose: its
  // tasks run under the work-stealing scheduler, so any metric keyed to
  // steals, workers or fan-out *calls* (rather than tasks) would diverge
  // here.
  chromium_corpus();  // written before the first reset, so its metrics
                      // land in neither export

  const auto metrics_json_for = [&](int threads) {
    obs::Registry::global().reset();
    run_pipeline(0xCAFE, threads);
    scan_chromium_corpus(threads);
    obs::ExportOptions options;
    options.include_timings = false;
    return obs::to_json(obs::Registry::global().snapshot(), options);
  };
  const std::string serial = metrics_json_for(1);
  const std::string parallel = metrics_json_for(8);
  EXPECT_EQ(serial, parallel);
  // The export actually covers the instrumented subsystems.
  for (const char* metric :
       {"googledns.probe.sent", "dnssrv.ratelimiter.allowed",
        "cacheprobe.campaign.probes_sent",
        "cacheprobe.calibration.hit_distance_km", "cacheprobe.run_campaign",
        "chromium.records_scanned", "exec.steal.tasks"}) {
    EXPECT_NE(serial.find(metric), std::string::npos) << metric;
  }
}

// --------------------------------------------------- chromium thread-count

TEST(Determinism, ChromiumCountsIdenticalAcrossThreadCounts) {
  const ChromiumResult serial = scan_chromium_corpus(1);
  ASSERT_FALSE(serial.probes_by_resolver.empty());
  for (const int threads : {3, 8}) {
    scan_testing::expect_identical(scan_chromium_corpus(threads), serial,
                                   "threads=" + std::to_string(threads));
  }
}

}  // namespace
}  // namespace netclients::core
