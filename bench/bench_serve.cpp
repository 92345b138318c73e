// Serving-tier check: persist a multi-epoch campaign to a
// netclients.snap.v1 snapshot, load it back, seed a `serve::Service`, and
// check the serving determinism contract through snapshot handles:
// handle lookups must be identical at threads=1 and threads=8 and
// elementwise-equal to per-query lookup() and to the trie reference
// oracle, and WorkloadDriver::replay digests (single publisher, reader
// batches between publishes) must match at 1 and 8 lookup threads. Any
// mismatch is a hard failure (exit 1).
//
// Nothing here is timed, so stdout repeats byte for byte across runs and
// thread counts. Serving speed is measured by perfbench's serve_churn
// workload.
//
// Output: the checks' results on stdout, the snapshot left at
// bench_out/serve.snap (CI validates it and serves it over the wire), and
// the `snapshot.*` / `serve.*` counters via --metrics-out.
//
// Run:  build/bench/bench_serve [--queries=1048576] [--epochs=2]
//                               [--workload-queries=1048576]
//                               [--snap-out=bench_out/serve.snap]

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "core/scenario/scenario.h"
#include "core/serve/service.h"
#include "core/serve/workload.h"
#include "core/snapshot/snapshot.h"
#include "net/rng.h"

using namespace netclients;
namespace snapshot = core::snapshot;
namespace serve = core::serve;

namespace {

using bench::flag_string;
using bench::flag_value;

/// Query mix for the lookup checks: half the addresses land inside
/// known-active prefixes (the hot serving case), half are uniform over
/// the probed address range.
std::vector<net::Ipv4Addr> make_queries(
    std::size_t count, const std::vector<snapshot::EpochRecord>& epochs,
    std::uint32_t space_begin, std::uint32_t space_end,
    std::uint64_t seed) {
  std::vector<net::Prefix> actives;
  for (const auto& epoch : epochs) {
    for (const auto& entry : epoch.prefixes) actives.push_back(entry.prefix);
  }
  net::Rng rng(seed);
  std::vector<net::Ipv4Addr> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (!actives.empty() && (i & 1)) {
      const net::Prefix p = actives[rng() % actives.size()];
      const std::uint32_t span =
          ~net::Prefix::mask(p.length());  // host bits
      queries.push_back(net::Ipv4Addr(
          p.base().value() + static_cast<std::uint32_t>(rng()) % (span + 1u)));
    } else {
      const std::uint64_t span =
          (std::uint64_t{space_end} << 8) - (std::uint64_t{space_begin} << 8);
      queries.push_back(net::Ipv4Addr(static_cast<std::uint32_t>(
          (std::uint64_t{space_begin} << 8) + rng() % span)));
    }
  }
  return queries;
}

}  // namespace

int main(int argc, char** argv) {
  obs::MetricsOutGuard metrics_out(&argc, argv);
  const std::size_t queries_n = static_cast<std::size_t>(
      flag_value(argc, argv, "--queries", 1 << 20));
  const int epochs_n =
      static_cast<int>(flag_value(argc, argv, "--epochs", 2));
  const std::string snap_path = flag_string(
      argc, argv, "--snap-out", bench::out_path("serve.snap"));
  const auto workload_queries = static_cast<std::size_t>(
      flag_value(argc, argv, "--workload-queries", 1 << 20));

  // ---- 1. Multi-epoch campaign -> snapshot -----------------------------
  const core::Scenario scenario = core::ScenarioBuilder()
                                      .scale_denominator(
                                          bench::scale_denominator())
                                      .epochs(epochs_n)
                                      .build();
  std::fprintf(stderr, "[serve] world: %zu /24s, %d epoch(s)\n",
               scenario.world().blocks().size(), epochs_n);

  std::vector<snapshot::EpochRecord> records;
  {
    obs::StageSpan span("serve.bench.campaign_epochs");
    records = scenario.run_epochs();
  }
  {
    obs::StageSpan span("serve.bench.snapshot_write");
    if (!snapshot::write(snap_path, records)) return 1;
  }
  std::optional<snapshot::SnapshotFile> loaded;
  {
    obs::StageSpan span("serve.bench.snapshot_read");
    loaded = snapshot::read(snap_path);
  }
  if (!loaded || loaded->epochs.size() != records.size()) {
    std::fprintf(stderr, "[serve] snapshot round-trip failed\n");
    return 1;
  }
  std::printf("snapshot: %zu epoch(s) at %s\n", loaded->epochs.size(),
              snap_path.c_str());
  for (const auto& epoch : loaded->epochs) {
    std::printf("  epoch %u: %zu active prefixes, /24s in [%llu, %llu]\n",
                epoch.epoch_id, epoch.prefixes.size(),
                static_cast<unsigned long long>(epoch.totals.slash24_lower),
                static_cast<unsigned long long>(epoch.totals.slash24_upper));
  }

  if (loaded->epochs.size() >= 2) {
    const serve::EpochDiff diff =
        serve::diff_epochs(loaded->epochs.front(), loaded->epochs.back());
    std::printf("churn %u -> %u: +%zu gained, -%zu lost, %llu persisting, "
                "rank drift %.2f\n",
                diff.from_epoch, diff.to_epoch, diff.gained.size(),
                diff.lost.size(),
                static_cast<unsigned long long>(diff.persisting),
                diff.mean_rank_drift);
  }

  const std::span<const snapshot::EpochRecord> chain(loaded->epochs);

  // ---- 2. Seed the serving tier ----------------------------------------
  // One bulk publish = one index build; everything below reads through
  // pinned snapshot handles, never a directly constructed ClientIndex.
  serve::Service service;
  {
    obs::StageSpan span("serve.bench.index_build");
    service.publish(chain);
  }
  const serve::SnapshotHandle handle = service.acquire();
  const serve::ClientIndex& index = handle->index();
  std::printf("service: version %llu, %zu prefixes, %zu intervals, "
              "%zu ASes\n",
              static_cast<unsigned long long>(handle->version()),
              index.prefix_count(), index.interval_count(),
              index.as_aggregates().size());

  const auto queries =
      make_queries(queries_n, loaded->epochs, scenario.env.slash24_begin,
                   scenario.env.slash24_end, 0x5E27E);

  // ---- 3. Determinism checks -------------------------------------------
  const auto serial = handle->lookup_many(queries, 1);
  const auto parallel = handle->lookup_many(queries, 8);
  if (serial != parallel) {
    std::fprintf(stderr,
                 "[serve] FAIL: lookup_many differs between threads=1 "
                 "and threads=8\n");
    return 1;
  }
  for (std::size_t i = 0; i < queries.size(); i += 997) {
    if (handle->lookup(queries[i]) != serial[i] ||
        index.lookup_reference(queries[i]) != serial[i]) {
      std::fprintf(stderr,
                   "[serve] FAIL: lookup()/lookup_reference() and "
                   "lookup_many() disagree at query %zu\n",
                   i);
      return 1;
    }
  }
  std::size_t active = 0;
  for (const serve::LookupResult& result : serial) active += result.active;
  std::printf("lookups: %zu queries, %zu active (identical at 1 and 8 "
              "threads)\n",
              queries.size(), active);

  serve::WorkloadOptions workload_options;
  workload_options.queries = workload_queries;
  const serve::WorkloadDriver driver(workload_options, chain);

  // Replay the interleaving-free schedule (single publisher, batches
  // between publishes) at two intra-batch parallelism levels: the
  // digests must be byte-identical — the determinism contract under a
  // fixed churn schedule.
  const auto replay_digest = [&](int lookup_threads) {
    serve::Service replay_service;
    replay_service.publish(loaded->epochs.front());
    return driver.replay(replay_service, chain.subspan(1),
                         /*publish_every=*/driver.batch_count() /
                             (loaded->epochs.size() + 1),
                         lookup_threads);
  };
  const serve::ReplayResult replay_one = replay_digest(1);
  const serve::ReplayResult replay_eight = replay_digest(8);
  if (replay_one != replay_eight) {
    std::fprintf(stderr,
                 "[serve] FAIL: replay digest differs between "
                 "lookup_threads=1 and 8\n");
    return 1;
  }
  std::printf("replay: digest %016llx over %llu queries, %llu publishes "
              "(identical at 1 and 8 lookup threads)\n",
              static_cast<unsigned long long>(replay_one.digest),
              static_cast<unsigned long long>(replay_one.queries),
              static_cast<unsigned long long>(replay_one.publishes));
  return 0;
}
