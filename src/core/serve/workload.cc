#include "core/serve/workload.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <thread>
#include <utility>

#include "core/exec/exec.h"
#include "core/obs/obs.h"
#include "net/rng.h"
#include "net/zipf.h"

namespace netclients::core::serve {
namespace {

constexpr double kPi = 3.14159265358979323846;

std::uint64_t fold_result(std::uint64_t digest, const LookupResult& r) {
  digest = net::hash_combine(
      digest, (std::uint64_t{r.active} << 32) | std::uint64_t{r.asn});
  digest = net::hash_combine(
      digest, std::uint64_t{r.prefix.base().value()} |
                  (std::uint64_t{r.prefix.length()} << 32));
  digest = net::hash_combine(digest, std::bit_cast<std::uint64_t>(r.volume));
  digest = net::hash_combine(
      digest,
      (std::uint64_t{r.country} << 32) | std::uint64_t{r.domain_mask});
  return digest;
}

LatencySummary summarize(std::vector<double>& latencies_us) {
  LatencySummary summary;
  if (latencies_us.empty()) return summary;
  std::sort(latencies_us.begin(), latencies_us.end());
  const auto pick = [&](double q) {
    const auto n = latencies_us.size();
    const std::size_t i = static_cast<std::size_t>(
        std::llround(q * static_cast<double>(n - 1)));
    return latencies_us[std::min(i, n - 1)];
  };
  summary.p50_us = pick(0.50);
  summary.p99_us = pick(0.99);
  summary.p999_us = pick(0.999);
  summary.max_us = latencies_us.back();
  return summary;
}

double seconds_between(std::chrono::steady_clock::time_point a,
                       std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace

WorkloadDriver::WorkloadDriver(WorkloadOptions options,
                               std::span<const snapshot::EpochRecord> epochs)
    : options_(std::move(options)) {
  // ---- Active-set ranking ---------------------------------------------
  // Union the epochs' prefixes (duplicates combine volume) and rank by
  // volume descending — the zipf head lands on the heaviest networks.
  struct Active {
    net::Prefix prefix;
    double volume = 0;
  };
  std::vector<Active> actives;
  {
    struct Keyed {
      std::uint64_t key;
      std::uint32_t seq;
      const snapshot::PrefixEntry* entry;
    };
    std::vector<Keyed> keyed;
    std::size_t total = 0;
    for (const auto& epoch : epochs) total += epoch.prefixes.size();
    keyed.reserve(total);
    std::uint32_t seq = 0;
    for (const auto& epoch : epochs) {
      for (const auto& entry : epoch.prefixes) {
        keyed.push_back(
            Keyed{(std::uint64_t{entry.prefix.base().value()} << 8) |
                      entry.prefix.length(),
                  seq++, &entry});
      }
    }
    std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
      if (a.key != b.key) return a.key < b.key;
      return a.seq < b.seq;
    });
    actives.reserve(keyed.size());
    for (std::size_t i = 0; i < keyed.size();) {
      Active a{keyed[i].entry->prefix, keyed[i].entry->volume};
      for (++i; i < keyed.size() && keyed[i].key == keyed[i - 1].key; ++i) {
        a.volume += keyed[i].entry->volume;
      }
      actives.push_back(a);
    }
  }
  std::vector<std::uint32_t> rank_to_active(actives.size());
  for (std::uint32_t i = 0; i < rank_to_active.size(); ++i) {
    rank_to_active[i] = i;
  }
  std::sort(rank_to_active.begin(), rank_to_active.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              if (actives[a].volume != actives[b].volume) {
                return actives[a].volume > actives[b].volume;
              }
              return actives[a].prefix < actives[b].prefix;
            });

  // ---- Simulated users -------------------------------------------------
  // A user's home: zipf rank over the active prefixes, uniform inside the
  // chosen prefix; a miss_fraction slice gets uniform background
  // addresses over the whole space instead.
  net::Rng user_rng(net::stable_seed(options_.seed, 0x55534552u /* USER */));
  std::vector<net::Ipv4Addr> user_addr;
  user_addr.reserve(options_.users);
  if (!actives.empty() && options_.users > 0) {
    const net::ZipfSampler prefix_zipf(actives.size(), options_.prefix_zipf);
    for (std::size_t u = 0; u < options_.users; ++u) {
      if (user_rng.uniform() < options_.miss_fraction) {
        user_addr.push_back(
            net::Ipv4Addr(static_cast<std::uint32_t>(user_rng())));
        continue;
      }
      const Active& home =
          actives[rank_to_active[prefix_zipf.sample(user_rng)]];
      const std::uint32_t span = ~net::Prefix::mask(home.prefix.length());
      user_addr.push_back(net::Ipv4Addr(
          home.prefix.base().value() +
          static_cast<std::uint32_t>(user_rng()) % (span + 1u)));
    }
  } else {
    for (std::size_t u = 0; u < std::max<std::size_t>(options_.users, 1);
         ++u) {
      user_addr.push_back(
          net::Ipv4Addr(static_cast<std::uint32_t>(user_rng())));
    }
  }

  // ---- Query stream ----------------------------------------------------
  net::Rng query_rng(net::stable_seed(options_.seed, 0x51555259u /* QURY */));
  const net::ZipfSampler user_zipf(user_addr.size(), options_.user_zipf);
  queries_.reserve(options_.queries);
  for (std::size_t q = 0; q < options_.queries; ++q) {
    queries_.push_back(user_addr[user_zipf.sample(query_rng)]);
  }

  // ---- Bursty batch boundaries ----------------------------------------
  // Batch sizes follow the sim layer's diurnal shape (activity.cc):
  // intensity(h) = 1 + A·cos(2π (h − peak)/24), with batch index mapped
  // onto simulated hours via batches_per_day. Boundaries are a pure
  // function of the options — never of thread count or timing.
  offsets_.push_back(0);
  const double mean = static_cast<double>(std::max<std::size_t>(
      std::min(options_.batch, queries_.size()), 1));
  const double day = std::max(options_.batches_per_day, 1.0);
  std::size_t b = 0;
  while (offsets_.back() < queries_.size()) {
    const double hour =
        std::fmod(24.0 * static_cast<double>(b) / day, 24.0);
    const double intensity =
        1.0 + options_.burst_amplitude *
                  std::cos(2.0 * kPi * (hour - options_.burst_peak_hour) /
                           24.0);
    const auto size = static_cast<std::size_t>(std::max<long long>(
        1, std::llround(mean * std::max(intensity, 0.0))));
    offsets_.push_back(
        std::min(queries_.size(), offsets_.back() + size));
    max_batch_ = std::max(max_batch_, offsets_.back() - offsets_[b]);
    ++b;
  }
  if (offsets_.size() == 1) offsets_.push_back(0);  // zero-query stream
}

ReplayResult WorkloadDriver::replay(
    Service& service, std::span<const snapshot::EpochRecord> publishes,
    std::size_t publish_every, int lookup_threads) const {
  ReplayResult result;
  std::vector<LookupResult> out(std::max<std::size_t>(max_batch_, 1));
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t next_publish = 0;
  for (std::size_t b = 0; b < batch_count(); ++b) {
    if (publish_every > 0 && b > 0 && b % publish_every == 0 &&
        next_publish < publishes.size()) {
      service.publish(publishes[next_publish++]);
      ++result.publishes;
    }
    const SnapshotHandle handle = service.acquire();
    const auto batch_queries = batch(b);
    handle->lookup_many(batch_queries, out.data(), lookup_threads);
    digest = net::hash_combine(digest, handle->version());
    for (std::size_t i = 0; i < batch_queries.size(); ++i) {
      digest = fold_result(digest, out[i]);
      result.hits += out[i].active;
    }
    result.queries += batch_queries.size();
  }
  result.digest = digest;
  result.final_version = service.version();
  return result;
}

PhaseStats WorkloadDriver::run_phase(
    Service& service, std::string name,
    std::span<const snapshot::EpochRecord> churn_epochs) const {
  PhaseStats phase;
  phase.name = std::move(name);

  int readers = options_.reader_threads;
  if (readers <= 0) readers = std::clamp(exec::thread_count() - 1, 1, 16);
  const std::size_t batches = batch_count();

  struct ReaderStats {
    std::vector<double> latency_us;
    std::uint64_t queries = 0;
    std::uint64_t batches = 0;
    std::uint64_t hits = 0;
    std::uint64_t version_min = ~std::uint64_t{0};
    std::uint64_t version_max = 0;
  };
  std::vector<ReaderStats> stats(static_cast<std::size_t>(readers));

  const auto phase_start = std::chrono::steady_clock::now();

  // The churn publisher starts *before* the readers and publishes
  // immediately, so even the first batches overlap a swap; it then keeps
  // rolling (re-keyed) epochs in, paced by publish_pause_us, until the
  // readers drain. Pacing matters: epochs swap per measurement window in
  // a deployment, and an unpaced publisher would turn the phase into an
  // index-build memory-bandwidth benchmark.
  std::atomic<bool> readers_done{false};
  std::thread publisher;
  std::uint64_t publishes = 0;
  if (!churn_epochs.empty()) {
    publisher = std::thread([&] {
      std::uint32_t max_id = 0;
      for (const auto& epoch : churn_epochs) {
        max_id = std::max(max_id, epoch.epoch_id);
      }
      const double min_pause_s =
          std::max(options_.publish_pause_us, 0.0) * 1e-6;
      const double duty = std::clamp(options_.publish_duty, 0.001, 1.0);
      std::uint64_t k = 0;
      // At least one publish per churn phase, even when the readers drain
      // before this thread first runs (an oversubscribed host).
      do {
        snapshot::EpochRecord next = churn_epochs[k % churn_epochs.size()];
        next.epoch_id = max_id + 1 + static_cast<std::uint32_t>(k);
        const auto publish_start = std::chrono::steady_clock::now();
        service.publish(std::move(next));
        const double busy_s =
            seconds_between(publish_start, std::chrono::steady_clock::now());
        ++k;
        const double pause_s =
            std::max(min_pause_s, busy_s * (1.0 / duty - 1.0));
        if (pause_s > 0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double>(pause_s));
        }
      } while (!readers_done.load(std::memory_order_acquire));
      publishes = k;
    });
  }

  std::vector<std::thread> reader_threads;
  reader_threads.reserve(static_cast<std::size_t>(readers));
  for (int t = 0; t < readers; ++t) {
    reader_threads.emplace_back([&, t] {
      ReaderStats& s = stats[static_cast<std::size_t>(t)];
      s.latency_us.reserve(batches / static_cast<std::size_t>(readers) + 1);
      std::vector<LookupResult> out(std::max<std::size_t>(max_batch_, 1));
      for (std::size_t b = static_cast<std::size_t>(t); b < batches;
           b += static_cast<std::size_t>(readers)) {
        const auto batch_start = std::chrono::steady_clock::now();
        const SnapshotHandle handle = service.acquire();
        const auto batch_queries = batch(b);
        // Intra-batch parallelism is 1: the reader thread *is* the
        // parallelism; the front end scales by adding readers.
        handle->lookup_many(batch_queries, out.data(), 1);
        std::uint64_t hits = 0;
        for (std::size_t i = 0; i < batch_queries.size(); ++i) {
          hits += out[i].active;
        }
        const auto batch_end = std::chrono::steady_clock::now();
        s.latency_us.push_back(1e6 *
                               seconds_between(batch_start, batch_end));
        s.queries += batch_queries.size();
        s.batches += 1;
        s.hits += hits;
        s.version_min = std::min(s.version_min, handle->version());
        s.version_max = std::max(s.version_max, handle->version());
      }
    });
  }

  for (auto& thread : reader_threads) thread.join();
  const auto phase_end = std::chrono::steady_clock::now();
  readers_done.store(true, std::memory_order_release);
  if (publisher.joinable()) publisher.join();

  // Merge per-reader stats in thread order (single-threaded, so the
  // histogram's double accumulation replays a fixed sequence).
  static obs::Histogram& latency_histogram =
      obs::Registry::global().histogram(
          "serve.workload.batch_latency_us",
          {10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000});
  std::vector<double> all_latencies;
  phase.version_min = ~std::uint64_t{0};
  for (ReaderStats& s : stats) {
    phase.queries += s.queries;
    phase.batches += s.batches;
    phase.hits += s.hits;
    phase.version_min = std::min(phase.version_min, s.version_min);
    phase.version_max = std::max(phase.version_max, s.version_max);
    for (const double us : s.latency_us) latency_histogram.observe(us);
    all_latencies.insert(all_latencies.end(), s.latency_us.begin(),
                         s.latency_us.end());
  }
  if (phase.version_min == ~std::uint64_t{0}) phase.version_min = 0;
  phase.seconds = seconds_between(phase_start, phase_end);
  phase.qps = phase.seconds > 0
                  ? static_cast<double>(phase.queries) / phase.seconds
                  : 0;
  phase.latency = summarize(all_latencies);
  phase.publishes = publishes;

  static obs::Counter& queries_metric =
      obs::Registry::global().counter("serve.workload.queries");
  static obs::Counter& batches_metric =
      obs::Registry::global().counter("serve.workload.batches");
  queries_metric.add(phase.queries);
  batches_metric.add(phase.batches);
  return phase;
}

WorkloadReport WorkloadDriver::run_under_churn(
    Service& service,
    std::span<const snapshot::EpochRecord> churn_epochs) const {
  WorkloadReport report;
  report.steady = run_phase(service, "steady", {});
  report.churn = run_phase(service, "churn", churn_epochs);
  report.churn_ratio =
      report.steady.qps > 0 ? report.churn.qps / report.steady.qps : 0;
  obs::Registry::global()
      .gauge("serve.workload.churn_publishes")
      .set(static_cast<double>(report.churn.publishes));
  return report;
}

}  // namespace netclients::core::serve
