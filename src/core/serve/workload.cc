#include "core/serve/workload.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

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

}  // namespace netclients::core::serve
