#pragma once

// Concurrent epoch-swap serving tier: `serve::Service`.
//
// The paper's end product is a continuously refreshed map of client
// networks; serving it means answering "is this address in a client
// network" at millions of QPS *while new campaign epochs roll in
// underneath the readers*. `ClientIndex` (serve.h) stays the immutable
// build artifact; this layer makes it hot-swappable:
//
//  * `Service::acquire()` returns a `SnapshotHandle` — a cheap
//    `shared_ptr` pin of the current `ServingSnapshot`. A handle is an
//    immutable view: every lookup through one handle answers from one
//    consistent epoch set, no matter how many publishes happen while it
//    is held.
//  * `Service::publish(EpochRecord)` appends the epoch to the service's
//    delta chain (optionally a sliding window of the last `max_epochs`),
//    builds the next `ClientIndex` on the *publisher's* thread — readers
//    never pay for an index build — and swaps it in with an RCU-style
//    pointer store. Readers are never stalled by a build: acquire is one
//    pinned-pointer copy, and a publish holds a shard's writer lock only
//    for the pointer assignment itself, never while building.
//  * Retirement is reference-driven: a superseded snapshot stays alive
//    exactly as long as the last handle pinning it, then its deleter
//    runs (bumping `serve.service.retired` and the optional `on_retire`
//    instrumentation hook) on whichever thread dropped the last pin.
//
// The front end is *sharded*: the service keeps one cache-line-padded
// atomic snapshot pointer per shard, and `acquire()` spreads callers
// across shards (stable per-thread slot). All shards always point at the
// same snapshot between publishes — sharding only spreads the shared_ptr
// refcount traffic, it never changes answers. A publish stores the new
// pointer shard by shard in shard order; a reader that re-acquires from
// its own shard therefore observes versions in monotonic order.
//
// Determinism contract under churn: on any interleaving-free schedule —
// a single publisher, with reader batches issued *between* publishes
// (WorkloadDriver::replay is the canonical driver) — lookup results are
// a pure function of (published epochs, query list) and byte-identical
// at any REPRO_THREADS. Under truly concurrent publish/read (test_serve's
// tsan-labelled stress test, perfbench's serve_churn workload) each
// *individual* batch is still answered by exactly one snapshot version;
// only which version a batch lands on is timing-dependent.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <vector>

#include "core/serve/serve.h"
#include "core/snapshot/snapshot.h"

namespace netclients::core::serve {

/// One immutable published state of the serving tier: the index built
/// from the service's epoch chain at publish time, plus provenance.
/// Reachable only through `SnapshotHandle`s; never mutated after publish.
class ServingSnapshot {
 public:
  const ClientIndex& index() const { return index_; }
  /// Publish sequence number: 0 is the empty pre-publish snapshot, the
  /// n-th publish creates version n.
  std::uint64_t version() const { return version_; }
  /// Epochs in the chain this snapshot serves (the union ClientIndex
  /// merged).
  std::size_t epoch_count() const { return epoch_count_; }
  /// epoch_id of the newest chained epoch (0 when empty).
  std::uint32_t latest_epoch() const { return latest_epoch_; }

  // Lookup passthroughs, so handle->lookup(...) reads naturally.
  LookupResult lookup(net::Ipv4Addr addr) const { return index_.lookup(addr); }
  void lookup_many(std::span<const net::Ipv4Addr> addrs, LookupResult* out,
                   int threads = 0) const {
    index_.lookup_many(addrs, out, threads);
  }
  std::vector<LookupResult> lookup_many(std::span<const net::Ipv4Addr> addrs,
                                        int threads = 0) const {
    return index_.lookup_many(addrs, threads);
  }

 private:
  friend class Service;
  ServingSnapshot() = default;

  ClientIndex index_;
  std::uint64_t version_ = 0;
  std::size_t epoch_count_ = 0;
  std::uint32_t latest_epoch_ = 0;
};

/// A pinned, immutable view of the serving state. Copy/hold freely;
/// the pinned snapshot (and the epoch memory backing it) outlives every
/// handle pointing at it and is freed when the last one drops.
using SnapshotHandle = std::shared_ptr<const ServingSnapshot>;

struct ServiceOptions {
  /// Front-end shards (refcount spreading). <= 0: one per
  /// exec::thread_count(), clamped to [1, 64].
  int shards = 0;
  /// Sliding epoch window: publishes beyond this many epochs age the
  /// oldest out of the chain (0 = unbounded union of everything ever
  /// published — the Trufflehunter-style longitudinal view).
  std::size_t max_epochs = 0;
  /// Test instrumentation: called with the retiring snapshot's version
  /// when its last handle drops (from whichever thread drops it). The
  /// callable is copied into each snapshot's deleter, so it must stay
  /// valid until every handle ever issued is gone — including past the
  /// Service's own destruction.
  std::function<void(std::uint64_t version)> on_retire;
};

class Service {
 public:
  explicit Service(ServiceOptions options = {});
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Pins the current snapshot: one shared_ptr copy from this thread's
  /// shard. Never waits on an index build; never returns null (before
  /// the first publish it pins the empty version-0 snapshot).
  SnapshotHandle acquire() const;
  /// Same, from an explicit shard (stress tests pin readers to shards).
  SnapshotHandle acquire(std::size_t shard_hint) const;

  /// Appends one epoch to the delta chain, builds the successor index on
  /// the calling thread, and swaps it into every shard. Returns the new
  /// version. Publishers serialise against each other; readers never
  /// wait.
  std::uint64_t publish(snapshot::EpochRecord epoch);
  /// Bulk form: appends every epoch, then builds + swaps once. Seeding a
  /// service from a loaded snapshot chain is one index build, not one
  /// per epoch.
  std::uint64_t publish(std::span<const snapshot::EpochRecord> epochs);

  /// Version of the most recently completed publish (0 = none yet).
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }
  std::size_t shard_count() const { return shards_.size(); }
  /// Epochs currently in the chain (publisher's view).
  std::size_t chain_length() const;

 private:
  // Each shard guards its snapshot pointer with a shared_mutex rather
  // than std::atomic<shared_ptr>: libstdc++'s _Sp_atomic is itself a
  // per-object spinlock (same cost profile), but its raw-pointer member
  // trips tsan in GCC 12. The reader critical section is one shared_ptr
  // copy; the writer's is one pointer assignment — the index build
  // never happens under a shard lock.
  struct alignas(64) Shard {
    mutable std::shared_mutex mu;
    std::shared_ptr<const ServingSnapshot> snap;
  };

  /// Builds the snapshot for the current chain and stores it into every
  /// shard. Caller holds publish_mu_.
  std::uint64_t swap_in_locked();

  ServiceOptions options_;
  mutable std::vector<Shard> shards_;

  std::atomic<std::uint64_t> version_{0};
  mutable std::mutex publish_mu_;  // serialises publishers; readers never take it
  std::vector<snapshot::EpochRecord> chain_;
};

}  // namespace netclients::core::serve
