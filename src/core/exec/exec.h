#pragma once

// Deterministic parallel-execution layer for the probe/scan pipelines.
//
// Every construct here preserves the repo's core invariant: same seed ⇒
// byte-identical output regardless of thread count. The rules that make
// that hold:
//
//  * Work is split into *shards* whose boundaries depend only on the input
//    size (fixed chunk sizes), never on the thread count or scheduling.
//  * Results are collected *by shard index* and merged in shard order —
//    an ordered merge, not first-come-first-served.
//  * Any randomness a shard needs comes from `shard_seed(seed, shard_id)`
//    — a stable hash of the logical shard, never of thread identity.
//  * Shared accumulators are either commutative over integers (atomic
//    counter increments) or per-shard partials merged in shard order.
//
// `REPRO_THREADS` (env) selects the parallelism degree; `1` forces the
// serial path (the shard loop runs inline on the calling thread, visiting
// shards in index order — which is exactly the order the merge replays, so
// serial and parallel runs are identical by construction).

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/obs/obs.h"
#include "net/rng.h"

namespace netclients::core::exec {

/// Parallelism degree: REPRO_THREADS when set (clamped to >= 1), otherwise
/// std::thread::hardware_concurrency. Re-read on every call so tests can
/// flip the env var in-process.
int thread_count();

/// Fixed-size thread pool. Workers are started once and run until
/// destruction; tasks are plain fire-and-forget closures (parallel_map
/// layers its own completion tracking on top).
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task);
  int size() const { return static_cast<int>(workers_.size()); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::function<void()>> queue_;
  std::size_t next_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

/// The process-wide pool the pipelines share. Sized once at first use;
/// parallel_map caps its effective parallelism at pool size + 1 (the
/// calling thread participates), so REPRO_THREADS larger than the pool
/// still runs — just with less actual concurrency, and identical results.
ThreadPool& shared_pool();

/// Seed for the RNG stream of shard `shard_id` under master `seed`.
/// Derived by stable hashing of the logical shard id — never by thread
/// identity — so a shard's stream is the same whichever thread runs it.
constexpr std::uint64_t shard_seed(std::uint64_t seed,
                                   std::uint64_t shard_id) {
  return net::stable_seed(seed ^ 0x5AADD5EEDULL, shard_id);
}

/// Ready-made per-shard generator.
inline net::Rng shard_rng(std::uint64_t seed, std::uint64_t shard_id) {
  return net::Rng(shard_seed(seed, shard_id));
}

/// Runs fn(i) for every i in [0, n) across `threads` workers and returns
/// the results *in index order*. `threads <= 0` means thread_count();
/// 1 (or n <= 1) runs inline, in index order, on the calling thread.
///
/// fn must not itself call parallel_map/parallel_for_chunks: nested waits
/// could exhaust the fixed pool. The pipelines parallelise one stage at a
/// time, sequentially.
template <typename Fn>
auto parallel_map(std::size_t n, int threads, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using R = decltype(fn(std::size_t{0}));
  // Fan-out telemetry. Only the total shard count is recorded: it depends
  // on the input size alone. Neither the worker split nor the number of
  // parallel_map *calls* qualifies — a caller may legally batch its work
  // into thread-count-sized calls — and recording either would break the
  // byte-identical-export-at-any-REPRO_THREADS contract.
  static obs::Counter& shards_metric =
      obs::Registry::global().counter("exec.parallel_map.shards");
  shards_metric.add(n);
  std::vector<R> results(n);
  if (n == 0) return results;
  if (threads <= 0) threads = thread_count();
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(threads), n);
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) results[i] = fn(i);
    return results;
  }

  std::atomic<std::size_t> next{0};
  // Guarded by done_mu, decremented and broadcast under it: the caller can
  // only see 0 once the last worker has released done_mu for good, so
  // returning (and destroying these stack locals) never races a worker
  // still about to lock or notify them.
  std::size_t remaining = workers;
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::mutex error_mu;
  std::exception_ptr error;

  auto body = [&] {
    std::size_t i;
    while ((i = next.fetch_add(1, std::memory_order_relaxed)) < n) {
      try {
        results[i] = fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
      }
    }
    std::lock_guard<std::mutex> lock(done_mu);
    if (--remaining == 0) done_cv.notify_all();
  };

  for (std::size_t w = 1; w < workers; ++w) shared_pool().submit(body);
  body();  // the calling thread is worker 0
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }
  if (error) std::rethrow_exception(error);
  return results;
}

/// A contiguous shard of an index range.
struct ChunkRange {
  std::size_t index = 0;  // shard id — feed this to shard_seed, not a tid
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// A record-aligned shard of a byte stream: `[begin, end)` are byte
/// offsets cut exactly at record boundaries, `first_record`/`records` the
/// corresponding record range. Produced by RecordChunker; consumed by
/// scans that fan chunks out via parallel_map and merge per-chunk partials
/// in chunk order.
struct RecordChunk {
  std::size_t index = 0;  // shard id — feed this to shard_seed, not a tid
  std::size_t begin = 0;
  std::size_t end = 0;
  std::uint64_t first_record = 0;
  std::uint64_t records = 0;
};

/// Builds a record-aligned chunk partition of a variable-length-record
/// byte stream during one serial boundary scan: call note() once per
/// record (in stream order) with the record's begin offset, then finish()
/// with the end offset of the last record. A boundary is cut every
/// `records_per_chunk` records, so the partition depends only on the
/// record stream and the chunk size — never on the thread count — and a
/// chunk-ordered merge of per-chunk partials is byte-identical at any
/// REPRO_THREADS. (parallel_for_chunks covers fixed-size elements, where
/// offsets are index arithmetic; this is its variable-length sibling.)
class RecordChunker {
 public:
  explicit RecordChunker(std::size_t records_per_chunk)
      : per_chunk_(records_per_chunk == 0 ? 1 : records_per_chunk) {}

  void note(std::size_t begin_offset) {
    if (records_ % per_chunk_ == 0) starts_.push_back(begin_offset);
    ++records_;
  }

  std::uint64_t records() const { return records_; }

  std::vector<RecordChunk> finish(std::size_t end_offset) const {
    std::vector<RecordChunk> chunks;
    chunks.reserve(starts_.size());
    for (std::size_t i = 0; i < starts_.size(); ++i) {
      RecordChunk chunk;
      chunk.index = i;
      chunk.begin = starts_[i];
      chunk.end = i + 1 < starts_.size() ? starts_[i + 1] : end_offset;
      chunk.first_record = static_cast<std::uint64_t>(i) * per_chunk_;
      chunk.records =
          std::min<std::uint64_t>(per_chunk_, records_ - chunk.first_record);
      chunks.push_back(chunk);
    }
    return chunks;
  }

 private:
  std::size_t per_chunk_;
  std::uint64_t records_ = 0;
  std::vector<std::size_t> starts_;
};

/// Splits [begin, end) into chunks of `chunk_size` (the last may be
/// short), runs fn(ChunkRange) on each, and returns the per-chunk results
/// in chunk order. Chunk boundaries depend only on (begin, end,
/// chunk_size) — the same partition for any thread count.
template <typename Fn>
auto parallel_for_chunks(std::size_t begin, std::size_t end,
                         std::size_t chunk_size, int threads, Fn&& fn)
    -> std::vector<decltype(fn(ChunkRange{}))> {
  if (chunk_size == 0) chunk_size = 1;
  const std::size_t span = end > begin ? end - begin : 0;
  const std::size_t chunks = (span + chunk_size - 1) / chunk_size;
  return parallel_map(chunks, threads, [&](std::size_t i) {
    ChunkRange range;
    range.index = i;
    range.begin = begin + i * chunk_size;
    range.end = std::min(end, range.begin + chunk_size);
    return fn(range);
  });
}

}  // namespace netclients::core::exec
