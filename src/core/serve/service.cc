#include "core/serve/service.h"

#include <algorithm>
#include <utility>

#include "core/exec/exec.h"
#include "core/obs/obs.h"

namespace netclients::core::serve {
namespace {

int clamp_shards(int requested) {
  if (requested <= 0) requested = exec::thread_count();
  return std::clamp(requested, 1, 64);
}

/// Deleter attached to every published ServingSnapshot: retirement is
/// *observed* at the moment the last handle (or shard slot) drops. The
/// obs Counter lives in the process-wide registry, so the pointer stays
/// valid however long handles outlive the Service.
struct Retirer {
  obs::Counter* retired;
  std::function<void(std::uint64_t)> on_retire;
  std::uint64_t version;

  void operator()(const ServingSnapshot* snapshot) const {
    retired->add(1);
    if (on_retire) on_retire(version);
    delete snapshot;
  }
};

}  // namespace

Service::Service(ServiceOptions options)
    : options_(std::move(options)),
      shards_(static_cast<std::size_t>(clamp_shards(options_.shards))) {
  // Pre-publish state: every shard pins the empty version-0 snapshot, so
  // acquire() never sees a null and lookups before the first publish are
  // well-defined misses.
  std::lock_guard<std::mutex> lock(publish_mu_);
  auto* raw = new ServingSnapshot();
  raw->index_ = ClientIndex::build({});
  std::shared_ptr<const ServingSnapshot> empty(
      raw, Retirer{&obs::Registry::global().counter("serve.service.retired"),
                   options_.on_retire, 0});
  for (Shard& shard : shards_) {
    shard.snap = empty;
  }
}

SnapshotHandle Service::acquire() const {
  // Stable per-thread shard slot: spreads the shared_ptr refcount
  // traffic of concurrent readers across cache lines. Which shard a
  // thread lands on never affects answers — all shards point at the same
  // snapshot between publishes.
  return acquire(obs::thread_slot());
}

SnapshotHandle Service::acquire(std::size_t shard_hint) const {
  static obs::Counter& acquires_metric =
      obs::Registry::global().counter("serve.service.acquires");
  acquires_metric.add(1);
  const Shard& shard = shards_[shard_hint % shards_.size()];
  std::shared_lock<std::shared_mutex> lock(shard.mu);
  return shard.snap;
}

std::uint64_t Service::publish(snapshot::EpochRecord epoch) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  chain_.push_back(std::move(epoch));
  return swap_in_locked();
}

std::uint64_t Service::publish(std::span<const snapshot::EpochRecord> epochs) {
  std::lock_guard<std::mutex> lock(publish_mu_);
  chain_.insert(chain_.end(), epochs.begin(), epochs.end());
  return swap_in_locked();
}

std::uint64_t Service::swap_in_locked() {
  static obs::Counter& publishes_metric =
      obs::Registry::global().counter("serve.service.publishes");
  static obs::Counter& aged_metric =
      obs::Registry::global().counter("serve.service.epochs_aged_out");

  if (options_.max_epochs > 0 && chain_.size() > options_.max_epochs) {
    const std::size_t drop = chain_.size() - options_.max_epochs;
    chain_.erase(chain_.begin(),
                 chain_.begin() + static_cast<std::ptrdiff_t>(drop));
    aged_metric.add(drop);
  }

  // The expensive part — building the successor index from the delta
  // chain — happens here, on the publisher's thread, while every reader
  // keeps serving from the still-pinned predecessor.
  const std::uint64_t version = version_.load(std::memory_order_relaxed) + 1;
  auto* raw = new ServingSnapshot();
  {
    obs::StageSpan span("serve.service.publish_build");
    raw->index_ = ClientIndex::build(chain_);
  }
  raw->version_ = version;
  raw->epoch_count_ = chain_.size();
  raw->latest_epoch_ = chain_.empty() ? 0 : chain_.back().epoch_id;
  std::shared_ptr<const ServingSnapshot> next(
      raw,
      Retirer{&obs::Registry::global().counter("serve.service.retired"),
              options_.on_retire, version});

  // RCU swap: one pointer store per shard, in shard order, each under
  // that shard's writer lock for just the assignment. Readers keep
  // whatever they already pinned; new acquires see the new snapshot. The
  // predecessor's shard pins drop here — it retires the instant its last
  // reader handle does.
  for (Shard& shard : shards_) {
    std::shared_ptr<const ServingSnapshot> previous;
    {
      std::unique_lock<std::shared_mutex> lock(shard.mu);
      previous = std::exchange(shard.snap, next);
    }
    // `previous`'s pin drops outside the lock: if this store released
    // the predecessor's last reference, its Retirer (and the user's
    // on_retire hook) must not run under a shard lock readers take.
  }
  version_.store(version, std::memory_order_release);
  publishes_metric.add(1);
  obs::Registry::global()
      .gauge("serve.service.version")
      .set(static_cast<double>(version));
  obs::Registry::global()
      .gauge("serve.service.chain_epochs")
      .set(static_cast<double>(chain_.size()));
  return version;
}

std::size_t Service::chain_length() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  return chain_.size();
}

}  // namespace netclients::core::serve
