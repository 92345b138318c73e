// Serving-tier suite (labels: determinism, tsan).
//
// Pins the `serve::Service` contracts the snapshot-handle API promises:
//
//  * Handle lifetime — a handle pinned before a publish keeps answering
//    from its epoch set across any number of later publishes, and a
//    superseded snapshot retires (on_retire fires) only when its last
//    handle drops, never earlier.
//  * Replay determinism — WorkloadDriver::replay digests are
//    byte-identical at any intra-batch parallelism and any
//    REPRO_THREADS, and handle lookups equal the single-query path and
//    the trie reference oracle elementwise.
//  * Concurrent publish/read — real reader threads acquire and look up
//    while a publisher swaps epochs in; per-thread snapshot versions are
//    monotone (shard stores happen in shard order), every batch is
//    answered by exactly one version, and each fresh snapshot's oracle
//    builds its trie under concurrent first calls. Run under tsan via
//    the suite's `tsan` label.
//  * Build pin — the built index (sizes, aggregates, answers) digests to
//    fixed values for the fixture chain, for the chain with every
//    epoch's prefixes reversed, and for a re-attributed chain.
//
// One shared fixture runs the two-epoch campaign once; every case reads
// from it. Campaigns are expensive — keep the world at kScale.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario/scenario.h"
#include "core/serve/service.h"
#include "core/serve/workload.h"
#include "core/snapshot/snapshot.h"
#include "net/rng.h"

namespace netclients::core {
namespace {

constexpr double kScale = 2048;

class ServeSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ =
        new Scenario(ScenarioBuilder().scale_denominator(kScale).build());
    epochs_ =
        new std::vector<snapshot::EpochRecord>(scenario_->run_epochs(2));
  }
  static void TearDownTestSuite() {
    delete epochs_;
    delete scenario_;
    epochs_ = nullptr;
    scenario_ = nullptr;
  }

  static const Scenario& scenario() { return *scenario_; }
  static const std::vector<snapshot::EpochRecord>& epochs() {
    return *epochs_;
  }
  static std::span<const snapshot::EpochRecord> chain() {
    return std::span<const snapshot::EpochRecord>(*epochs_);
  }
  /// A copy of epoch `i` re-keyed to a fresh epoch_id, as the churn
  /// publisher would roll in.
  static snapshot::EpochRecord rekeyed(std::size_t i, std::uint32_t id) {
    snapshot::EpochRecord record = epochs()[i % epochs().size()];
    record.epoch_id = id;
    return record;
  }

  static std::vector<net::Ipv4Addr> make_queries(std::size_t count,
                                                 std::uint64_t seed) {
    net::Rng rng(seed);
    std::vector<net::Ipv4Addr> queries;
    queries.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      queries.push_back(net::Ipv4Addr(static_cast<std::uint32_t>(rng())));
    }
    return queries;
  }

 private:
  static Scenario* scenario_;
  static std::vector<snapshot::EpochRecord>* epochs_;
};

Scenario* ServeSuite::scenario_ = nullptr;
std::vector<snapshot::EpochRecord>* ServeSuite::epochs_ = nullptr;

/// Runs `fn` with REPRO_THREADS pinned to `threads`, restoring the
/// previous value afterwards.
template <typename Fn>
auto with_threads(int threads, Fn&& fn) {
  const char* prev = std::getenv("REPRO_THREADS");
  const std::string saved = prev ? prev : "";
  ::setenv("REPRO_THREADS", std::to_string(threads).c_str(), 1);
  auto result = fn();
  if (prev) {
    ::setenv("REPRO_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("REPRO_THREADS");
  }
  return result;
}

/// Thread-safe recorder handed to ServiceOptions::on_retire.
struct RetireLog {
  std::mutex mu;
  std::vector<std::uint64_t> versions;

  void record(std::uint64_t version) {
    std::lock_guard<std::mutex> lock(mu);
    versions.push_back(version);
  }
  bool contains(std::uint64_t version) {
    std::lock_guard<std::mutex> lock(mu);
    return std::find(versions.begin(), versions.end(), version) !=
           versions.end();
  }
};

// ---------------------------------------------------------- handle lifetime

TEST_F(ServeSuite, HandlePinsItsEpochSetAcrossPublishes) {
  serve::Service service;
  service.publish(epochs()[0]);
  const serve::SnapshotHandle pinned = service.acquire();
  ASSERT_EQ(pinned->version(), 1u);
  ASSERT_EQ(pinned->epoch_count(), 1u);

  const auto queries = make_queries(20000, 0x9140);
  const auto before = pinned->lookup_many(queries, 1);

  // Two publishes roll past the pinned handle.
  service.publish(epochs()[1]);
  service.publish(rekeyed(0, 7));
  EXPECT_EQ(service.version(), 3u);
  EXPECT_EQ(service.acquire()->version(), 3u);
  EXPECT_EQ(service.acquire()->epoch_count(), 3u);

  // The pinned handle still answers from the one-epoch world, bit for
  // bit — an immutable view, not a cache that drifted.
  EXPECT_EQ(pinned->version(), 1u);
  EXPECT_EQ(pinned->epoch_count(), 1u);
  EXPECT_EQ(pinned->lookup_many(queries, 1), before);
}

TEST_F(ServeSuite, RetireFiresOnlyWhenLastHandleDrops) {
  auto log = std::make_shared<RetireLog>();
  serve::ServiceOptions options;
  options.on_retire = [log](std::uint64_t version) { log->record(version); };
  serve::Service service(options);

  service.publish(epochs()[0]);  // version 1; empty version 0 retires now
  EXPECT_TRUE(log->contains(0));

  serve::SnapshotHandle first = service.acquire();
  serve::SnapshotHandle second = first;  // two pins on version 1

  service.publish(epochs()[1]);   // version 2 supersedes 1
  service.publish(rekeyed(0, 9));  // version 3 supersedes 2
  // Version 2 had no handles: it retires as soon as version 3 lands.
  EXPECT_TRUE(log->contains(2));
  // Version 1 is still pinned twice — dropping one handle is not enough.
  EXPECT_FALSE(log->contains(1));
  first.reset();
  EXPECT_FALSE(log->contains(1));
  // The LAST pin dropping frees it (deleter runs on the dropping thread).
  second.reset();
  EXPECT_TRUE(log->contains(1));
}

TEST_F(ServeSuite, EmptyServiceServesVersionZeroMisses) {
  serve::Service service;
  EXPECT_EQ(service.version(), 0u);
  const serve::SnapshotHandle handle = service.acquire();
  ASSERT_NE(handle, nullptr);
  EXPECT_EQ(handle->version(), 0u);
  EXPECT_EQ(handle->epoch_count(), 0u);
  EXPECT_FALSE(handle->lookup(net::Ipv4Addr(0x08080808)).active);
}

TEST_F(ServeSuite, MaxEpochsWindowAgesOldestOut) {
  serve::ServiceOptions options;
  options.max_epochs = 2;
  serve::Service service(options);
  service.publish(epochs()[0]);
  service.publish(epochs()[1]);
  service.publish(rekeyed(0, 11));
  EXPECT_EQ(service.version(), 3u);
  EXPECT_EQ(service.chain_length(), 2u);
  const serve::SnapshotHandle handle = service.acquire();
  EXPECT_EQ(handle->epoch_count(), 2u);
  EXPECT_EQ(handle->latest_epoch(), 11u);
}

TEST_F(ServeSuite, AllShardsServeTheSameVersionBetweenPublishes) {
  serve::ServiceOptions options;
  options.shards = 8;
  serve::Service service(options);
  ASSERT_EQ(service.shard_count(), 8u);
  service.publish(chain());
  for (std::size_t shard = 0; shard < service.shard_count(); ++shard) {
    EXPECT_EQ(service.acquire(shard)->version(), 1u) << "shard " << shard;
  }
}

// ------------------------------------------------------ replay determinism

TEST_F(ServeSuite, ReplayDigestIdenticalAcrossParallelism) {
  serve::WorkloadOptions options;
  options.users = 1 << 14;
  options.queries = 1 << 16;
  options.batch = 128;
  const serve::WorkloadDriver driver(options, chain());
  ASSERT_GT(driver.query_count(), 0u);

  const auto replay_at = [&](int lookup_threads) {
    serve::Service service;
    service.publish(epochs()[0]);
    return driver.replay(service, chain().subspan(1),
                         /*publish_every=*/driver.batch_count() / 3,
                         lookup_threads);
  };
  const serve::ReplayResult one = replay_at(1);
  const serve::ReplayResult two = replay_at(2);
  const serve::ReplayResult eight = replay_at(8);
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, eight);
  EXPECT_GT(one.publishes, 0u);
  EXPECT_GT(one.hits, 0u);
  EXPECT_EQ(one.final_version, 1u + chain().size() - 1);

  // REPRO_THREADS env form (lookup_threads = 0) must agree too.
  const auto env_one = with_threads(1, [&] { return replay_at(0); });
  const auto env_eight = with_threads(8, [&] { return replay_at(0); });
  EXPECT_EQ(env_one, env_eight);
  EXPECT_EQ(one, env_one);
}

TEST_F(ServeSuite, HandleLookupsMatchSingleQueryAndReferenceOracle) {
  serve::Service service;
  service.publish(chain());
  const serve::SnapshotHandle handle = service.acquire();
  const auto queries = make_queries(50000, 0x04AC1E);
  const auto batched = handle->lookup_many(queries, 4);
  for (std::size_t i = 0; i < queries.size(); i += 61) {
    ASSERT_EQ(handle->lookup(queries[i]), batched[i]) << "query " << i;
    ASSERT_EQ(handle->index().lookup_reference(queries[i]), batched[i])
        << "query " << i;
  }
}

TEST_F(ServeSuite, WorkloadGenerationIsDeterministicInOptions) {
  serve::WorkloadOptions options;
  options.users = 1 << 12;
  options.queries = 1 << 14;
  options.batch = 64;
  const serve::WorkloadDriver a(options, chain());
  const serve::WorkloadDriver b(options, chain());
  ASSERT_EQ(a.query_count(), b.query_count());
  ASSERT_EQ(a.batch_count(), b.batch_count());
  for (std::size_t i = 0; i < a.batch_count(); ++i) {
    const auto batch_a = a.batch(i);
    const auto batch_b = b.batch(i);
    ASSERT_EQ(batch_a.size(), batch_b.size()) << "batch " << i;
    ASSERT_TRUE(std::equal(batch_a.begin(), batch_a.end(), batch_b.begin()))
        << "batch " << i;
  }

  // The diurnal burst model must actually modulate batch sizes…
  EXPECT_GT(a.max_batch(), options.batch);
  // …and a re-seeded driver must produce a different stream.
  serve::WorkloadOptions reseeded = options;
  reseeded.seed ^= 0xDEADBEEF;
  const serve::WorkloadDriver c(reseeded, chain());
  bool any_difference = false;
  const auto batch_a0 = a.batch(0);
  const auto batch_c0 = c.batch(0);
  for (std::size_t i = 0; i < std::min(batch_a0.size(), batch_c0.size());
       ++i) {
    any_difference |= !(batch_a0[i] == batch_c0[i]);
  }
  EXPECT_TRUE(any_difference);
}

// ------------------------------------------------- concurrent publish/read

TEST_F(ServeSuite, ConcurrentPublishReadStress) {
  serve::Service service;
  service.publish(epochs()[0]);

  constexpr int kReaders = 4;
  constexpr int kIterations = 200;
  constexpr int kPublishes = 32;
  const auto queries = make_queries(512, 0x57E55);

  std::atomic<bool> start{false};
  std::vector<std::thread> readers;
  std::vector<std::string> failures(kReaders);
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) {
      }
      std::vector<serve::LookupResult> out(queries.size());
      std::uint64_t last_version = 0;
      for (int i = 0; i < kIterations; ++i) {
        const serve::SnapshotHandle handle = service.acquire();
        // acquire() pins this thread to one shard, and a publish stores
        // shard by shard — so the versions one thread observes never go
        // backwards.
        if (handle->version() < last_version) {
          failures[t] = "version went backwards";
          return;
        }
        last_version = handle->version();
        handle->lookup_many(queries, out.data(), 1);
        for (const auto& result : out) {
          if (result.active && result.prefix.length() == 0) {
            failures[t] = "active result with empty prefix";
            return;
          }
        }
        // The oracle builds its trie on first use: every fresh snapshot
        // takes concurrent first calls from the readers that pin it.
        for (std::size_t q = static_cast<std::size_t>(t); q < queries.size();
             q += 97) {
          if (handle->index().lookup_reference(queries[q]) != out[q]) {
            failures[t] = "lookup_reference disagrees with lookup_many";
            return;
          }
        }
      }
    });
  }

  start.store(true, std::memory_order_release);
  for (int p = 0; p < kPublishes; ++p) {
    service.publish(rekeyed(p, 100 + static_cast<std::uint32_t>(p)));
  }
  for (auto& thread : readers) thread.join();
  for (int t = 0; t < kReaders; ++t) {
    EXPECT_EQ(failures[t], "") << "reader " << t;
  }
  EXPECT_EQ(service.version(), 1u + kPublishes);
  EXPECT_EQ(service.acquire()->version(), 1u + kPublishes);
}

// ------------------------------------------------------------ pinned build

/// A digest of an index's observable state: its sizes, total volume,
/// every aggregate, and lookup_many's answers over `queries`, in order.
std::uint64_t index_digest(const serve::ClientIndex& index,
                           std::span<const net::Ipv4Addr> queries) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto fold = [&digest](std::uint64_t word) {
    digest = net::hash_combine(digest, word);
  };
  const auto fold_double = [&fold](double value) {
    fold(std::bit_cast<std::uint64_t>(value));
  };
  fold(index.prefix_count());
  fold(index.interval_count());
  fold(index.epoch_count());
  fold_double(index.total_volume());
  for (const auto& as : index.as_aggregates()) {
    fold(as.asn);
    fold_double(as.volume);
    fold(as.prefixes);
  }
  for (const auto& country : index.country_aggregates()) {
    fold(country.country);
    fold_double(country.volume);
    fold(country.prefixes);
  }
  for (const auto& r : index.lookup_many(queries, 1)) {
    fold(r.active);
    fold(r.prefix.base().value());
    fold(r.prefix.length());
    fold_double(r.volume);
    fold(r.asn);
    fold(r.country);
    fold(r.domain_mask);
  }
  return digest;
}

TEST_F(ServeSuite, IndexBuildIsPinned) {
  // Every entry's edges (its base, its last address, the address below
  // its base) and a uniform sample: the nesting, the slot-table paging
  // and the misses around both.
  std::vector<net::Ipv4Addr> queries;
  for (const auto& epoch : epochs()) {
    for (const auto& entry : epoch.prefixes) {
      const std::uint32_t base = entry.prefix.base().value();
      queries.push_back(net::Ipv4Addr(base));
      queries.push_back(entry.prefix.last_address());
      queries.push_back(net::Ipv4Addr(base - 1));
    }
  }
  const auto sample = make_queries(200000, 0x91AE);
  queries.insert(queries.end(), sample.begin(), sample.end());

  const auto digest_of = [&](std::span<const snapshot::EpochRecord> input) {
    serve::Service service;
    service.publish(input);
    return index_digest(service.acquire()->index(), queries);
  };

  // Epochs reversed in place: the build must sort them back first.
  std::vector<snapshot::EpochRecord> reversed = epochs();
  for (auto& epoch : reversed) {
    std::reverse(epoch.prefixes.begin(), epoch.prefixes.end());
  }
  // Epoch 1 re-attributed to ASes and countries in reversed key order,
  // published ahead of the chain: its attribution must win every tie, and
  // the aggregates must still come out sorted by key.
  std::vector<snapshot::EpochRecord> reattributed{epochs()[1]};
  for (auto& entry : reattributed.front().prefixes) {
    if (entry.asn != 0) entry.asn = ~entry.asn;
    if (entry.country != snapshot::kNoCountry) {
      entry.country =
          static_cast<std::uint16_t>(snapshot::kNoCountry - 1 - entry.country);
    }
  }
  reattributed.insert(reattributed.end(), epochs().begin(), epochs().end());

  // The digests of the indexes built by sorting the concatenated epochs.
  constexpr std::uint64_t kPinned = 0x5A87B547011B2DC4ULL;
  constexpr std::uint64_t kPinnedReattributed = 0x7A8D76D2327465DEULL;
  const std::uint64_t sorted = digest_of(chain());
  const std::uint64_t from_reversed = digest_of(reversed);
  const std::uint64_t from_reattributed = digest_of(reattributed);
  EXPECT_EQ(sorted, kPinned) << std::hex << sorted;
  EXPECT_EQ(from_reversed, kPinned) << std::hex << from_reversed;
  EXPECT_EQ(from_reattributed, kPinnedReattributed)
      << std::hex << from_reattributed;
}

// ------------------------------------------------------------- API surface

TEST_F(ServeSuite, SpanLookupManyIsTheOnlyBatchedSurface) {
  // PR 8's deprecated ptr+count shim is gone; the span core answers
  // identically through the handle passthrough and the raw index.
  serve::Service service;
  service.publish(chain());
  const serve::SnapshotHandle handle = service.acquire();
  const auto queries = make_queries(4096, 0x5411);
  const auto expected = handle->lookup_many(queries, 1);

  std::vector<serve::LookupResult> via_index(queries.size());
  handle->index().lookup_many(std::span<const net::Ipv4Addr>(queries),
                              via_index.data(), 1);
  EXPECT_EQ(via_index, expected);
}

TEST_F(ServeSuite, RecordByRecordPublishesConvergeOnBulkSeed) {
  // Epoch-by-epoch publishes, the rolling sequence of swaps a live
  // deployment sees, must converge on the same index a bulk seed of the
  // same records builds.
  serve::Service rolling;
  for (const snapshot::EpochRecord& record : chain()) {
    rolling.publish(record);
  }
  EXPECT_EQ(rolling.version(), 2u);
  EXPECT_EQ(rolling.chain_length(), 2u);
  const serve::SnapshotHandle handle = rolling.acquire();
  EXPECT_EQ(handle->epoch_count(), 2u);
  EXPECT_GT(handle->index().prefix_count(), 0u);
  serve::Service bulk;
  bulk.publish(chain());
  const auto queries = make_queries(20000, 0x5CE7A);
  EXPECT_EQ(handle->lookup_many(queries, 1),
            bulk.acquire()->lookup_many(queries, 1));
}

}  // namespace
}  // namespace netclients::core
