// Observability-layer suite (labels: determinism, tsan): registry
// metrics, histogram bucket-boundary edge cases, shard-ordered delta
// merging (byte-identical exported JSON serial vs 8 threads), exporter
// round-trip parsing, schema validation, and the --metrics-out plumbing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/exec/exec.h"
#include "core/obs/export.h"
#include "core/obs/obs.h"

namespace netclients::obs {
namespace {

// ---------------------------------------------------------------- metrics

TEST(Obs, CounterAccumulatesAndResets) {
  Registry registry;
  Counter& c = registry.counter("test.counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_EQ(&registry.counter("test.counter"), &c);  // stable identity
  registry.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Obs, CounterCellsSumExactlyPastTheirCount) {
  // More threads than cells: every cell gets hit, several are shared, and
  // the sum must still be exact. Each thread adds a distinct amount, so a
  // lost or double-counted cell cannot cancel out.
  Registry registry;
  Counter& c = registry.counter("test.cells");
  constexpr std::uint64_t kThreads = 2 * Counter::kCells + 3;
  constexpr std::uint64_t kAdds = 1000;
  std::vector<std::thread> threads;
  for (std::uint64_t t = 1; t <= kThreads; ++t) {
    threads.emplace_back([&c, t] {
      for (std::uint64_t i = 0; i < kAdds; ++i) c.add(t);
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(c.value(), kAdds * kThreads * (kThreads + 1) / 2);

  // reset() clears every cell, not just the calling thread's: the cells
  // other threads filled would otherwise survive into the sum.
  c.reset();
  EXPECT_EQ(c.value(), 0u);
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST(Obs, GaugeKeepsLastValue) {
  Registry registry;
  Gauge& g = registry.gauge("test.gauge");
  g.set(1.5);
  g.set(-3.25);
  EXPECT_DOUBLE_EQ(g.value(), -3.25);
}

TEST(Obs, HistogramBucketBoundariesAreInclusiveUpperEdges) {
  Registry registry;
  Histogram& h = registry.histogram("test.hist", {1.0, 2.0, 4.0});
  // Exactly on an edge lands in that edge's bucket (le semantics)...
  h.observe(1.0);
  // ...just above an edge spills into the next bucket...
  h.observe(1.0000001);
  // ...the last finite edge is still inclusive...
  h.observe(4.0);
  // ...everything above goes to the overflow bucket...
  h.observe(4.5);
  // ...and values below the first edge (negatives included) go to bucket 0.
  h.observe(-7.0);
  EXPECT_EQ(h.buckets(), (std::vector<std::uint64_t>{2, 1, 1, 1}));
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 1.0 + 1.0000001 + 4.0 + 4.5 - 7.0);
}

TEST(Obs, HistogramWithNoFiniteEdgesHasOnlyOverflow) {
  Registry registry;
  Histogram& h = registry.histogram("test.overflow_only", {});
  h.observe(123.0);
  EXPECT_EQ(h.buckets(), (std::vector<std::uint64_t>{1}));
}

TEST(Obs, HistogramReregistrationKeepsOriginalBounds) {
  Registry registry;
  Histogram& a = registry.histogram("test.hist", {1.0, 2.0});
  Histogram& b = registry.histogram("test.hist", {9.0});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(b.bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(Obs, SnapshotIsSortedByName) {
  Registry registry;
  registry.counter("zzz");
  registry.counter("aaa");
  registry.counter("mmm");
  const Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  EXPECT_EQ(snap.counters[0].first, "aaa");
  EXPECT_EQ(snap.counters[1].first, "mmm");
  EXPECT_EQ(snap.counters[2].first, "zzz");
}

TEST(Obs, StageSpanRecordsCountAndElapsed) {
  Registry registry;
  { StageSpan span("test.stage", registry); }
  { StageSpan span("test.stage", registry); }
  const Snapshot snap = registry.snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  EXPECT_EQ(snap.spans[0].name, "test.stage");
  EXPECT_EQ(snap.spans[0].count, 2u);
  EXPECT_GE(snap.spans[0].total_ms, 0.0);
}

// ----------------------------------------------------- shard-merge discipline

TEST(Obs, ShardDeltaMergeMatchesDirectObservation) {
  Registry registry;
  Counter& c = registry.counter("test.counter");
  Histogram& h = registry.histogram("test.hist", {1.0, 10.0});
  ShardDelta delta;
  delta.add(c, 3);
  delta.add(c);  // coalesces with the first entry
  delta.observe(h, 0.5);
  delta.observe(h, 5.0);
  delta.observe(h, 50.0);
  EXPECT_EQ(c.value(), 0u);  // buffered, not yet applied
  delta.merge();
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(c.value(), 4u);
  EXPECT_EQ(h.buckets(), (std::vector<std::uint64_t>{1, 1, 1}));
  EXPECT_DOUBLE_EQ(h.sum(), 55.5);
}

TEST(Obs, ShardOrderedMergeIsByteIdenticalAcrossThreadCounts) {
  // Ill-conditioned double sums: per-value accumulation order changes the
  // last bits, so byte-identical JSON proves the shard-ordered merge
  // replays the serial sequence exactly.
  const auto run = [](int threads) {
    Registry registry;
    Histogram& h =
        registry.histogram("test.values", {1e-8, 1e-4, 1.0, 1e4});
    Counter& c = registry.counter("test.count");
    auto deltas =
        core::exec::parallel_map(64, threads, [&](std::size_t shard) {
          ShardDelta delta;
          net::Rng rng = core::exec::shard_rng(0xD157, shard);
          for (int i = 0; i < 100; ++i) {
            delta.observe(h, rng.uniform() * std::pow(10.0, i % 19 - 9));
            delta.add(c);
          }
          return delta;
        });
    for (ShardDelta& delta : deltas) delta.merge();  // shard order
    return to_json(registry.snapshot());
  };
  const std::string serial = run(1);
  const std::string parallel = run(8);
  EXPECT_EQ(serial, parallel);
  EXPECT_NE(serial.find("\"test.values\""), std::string::npos);
}

// ---------------------------------------------------------------- exporters

Snapshot example_snapshot() {
  Registry registry;
  registry.counter("probe.sent").add(12345678901234ull);
  registry.gauge("world.scale").set(0.015625);
  Histogram& h = registry.histogram("probe.distance_km", {100.0, 1000.0});
  h.observe(50.0);
  h.observe(250.5);
  h.observe(5000.0);
  registry.record_span("stage.one", 12.5);
  registry.record_span("stage.one", 7.25);
  return registry.snapshot();
}

TEST(Obs, JsonRoundTripsExactly) {
  const Snapshot original = example_snapshot();
  const std::string json = to_json(original);
  const auto parsed = parse_json(json);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, original);
  // Serialising the parsed snapshot reproduces the bytes too.
  EXPECT_EQ(to_json(*parsed), json);
}

TEST(Obs, JsonValidates) {
  const std::string json = to_json(example_snapshot());
  EXPECT_EQ(validate_metrics_json(json), "");
}

TEST(Obs, EmptyRegistryStillValidates) {
  Registry registry;
  const std::string json = to_json(registry.snapshot());
  EXPECT_EQ(validate_metrics_json(json), "");
}

TEST(Obs, ValidationCatchesCorruption) {
  const std::string json = to_json(example_snapshot());
  EXPECT_NE(validate_metrics_json("{"), "");
  EXPECT_NE(validate_metrics_json("[]"), "");
  EXPECT_NE(validate_metrics_json("{\"schema\": \"other.v9\"}"), "");
  // Bucket counts no longer summing to the histogram count is caught.
  std::string broken = json;
  const auto pos = broken.find("\"count\": 3");
  ASSERT_NE(pos, std::string::npos);
  broken.replace(pos, 10, "\"count\": 4");
  EXPECT_NE(validate_metrics_json(broken), "");
}

TEST(Obs, TiminglessExportDropsSpanDurationsOnly) {
  const Snapshot snapshot = example_snapshot();
  ExportOptions options;
  options.include_timings = false;
  const std::string json = to_json(snapshot, options);
  EXPECT_EQ(json.find("total_ms"), std::string::npos);
  EXPECT_NE(json.find("\"stage.one\""), std::string::npos);
  EXPECT_EQ(validate_metrics_json(json), "");
  const auto parsed = parse_json(json);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->spans.size(), 1u);
  EXPECT_EQ(parsed->spans[0].count, 2u);
  EXPECT_DOUBLE_EQ(parsed->spans[0].total_ms, 0.0);
}

// ------------------------------------------------------------- CLI plumbing

TEST(Obs, MetricsOutGuardStripsFlagAndWritesFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "obs_guard_test.json")
          .string();
  std::filesystem::remove(path);
  {
    std::string a0 = "prog", a1 = "--metrics-out", a2 = path, a3 = "64";
    char* argv[] = {a0.data(), a1.data(), a2.data(), a3.data(), nullptr};
    int argc = 4;
    MetricsOutGuard guard(&argc, argv);
    EXPECT_EQ(guard.path(), path);
    // Positionals keep their places once the flag is stripped.
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "64");
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(validate_metrics_json(buffer.str()), "");
  std::filesystem::remove(path);
}

TEST(Obs, MetricsOutGuardAcceptsEqualsForm) {
  std::string a0 = "prog", a1 = "--metrics-out=/dev/null";
  char* argv[] = {a0.data(), a1.data(), nullptr};
  int argc = 2;
  MetricsOutGuard guard(&argc, argv);
  EXPECT_EQ(guard.path(), "/dev/null");
  EXPECT_EQ(argc, 1);
}

}  // namespace
}  // namespace netclients::obs
