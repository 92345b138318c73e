#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <stdexcept>
#include <vector>

#include "net/rng.h"

namespace netclients::core {

/// Count-min sketch over 64-bit keys: a fixed-memory frequency estimator
/// with one-sided (over-estimating) error.
///
/// The Chromium pipeline must know, for every signature-shaped name, how
/// often it was queried that day across all roots — on real DITL volumes
/// (tens of billions of queries, nearly all with unique names) an exact
/// name→count map does not fit in memory. The sketch bounds memory at
/// width × depth counters while keeping the collision filter conservative:
/// over-estimates can only cause a name to be *rejected* as a collision,
/// never accepted.
class CountMinSketch {
 public:
  /// Throws std::invalid_argument for width 0 or depth < 1: a zero-width
  /// row has no cell to hash into, and a sketch with no rows would
  /// estimate every key at UINT32_MAX (rejecting every Chromium match).
  CountMinSketch(std::size_t width, int depth, std::uint64_t seed)
      : width_(width),
        rows_(depth < 1 ? 0 : static_cast<std::size_t>(depth)),
        // Power-of-two widths (the default) reduce the per-row slot to a
        // mask; the 64-bit divide otherwise rivals the cache miss itself
        // on the scan's hot path. mask_ = 0 selects the modulo fallback.
        mask_((width & (width - 1)) == 0 ? width - 1 : 0) {
    if (width_ == 0) {
      throw std::invalid_argument("CountMinSketch: width must be >= 1");
    }
    if (rows_ == 0) {
      throw std::invalid_argument("CountMinSketch: depth must be >= 1");
    }
    if (width_ > std::numeric_limits<std::size_t>::max() / rows_) {
      throw std::invalid_argument("CountMinSketch: width * depth overflows");
    }
    cells_ = width_ * rows_;
    // calloc, not a zero-filling vector: at the default 64 MiB glibc maps
    // fresh zero pages, so nothing is written here and pass 1's workers
    // first-touch the pages in parallel instead of this thread memsetting
    // them serially.
    counters_.reset(static_cast<std::uint32_t*>(
        std::calloc(cells_, sizeof(std::uint32_t))));
    if (!counters_) throw std::bad_alloc();
    seeds_.reserve(rows_);
    net::Rng rng(seed);
    for (std::size_t r = 0; r < rows_; ++r) seeds_.push_back(rng());
  }

  /// Safe to call concurrently: cell increments are atomic, and integer
  /// addition is commutative, so the final sketch is identical for any
  /// thread count or interleaving. (Estimates read during a concurrent add
  /// phase would be racy — the pipeline separates its passes.)
  void add(std::uint64_t key, std::uint32_t count = 1) {
    for (std::size_t r = 0; r < rows_; ++r) {
      std::atomic_ref<std::uint32_t>(counters_[slot(r, key)])
          .fetch_add(count, std::memory_order_relaxed);
    }
  }

  /// Hints `key`'s cells toward cache ahead of an add/estimate. The
  /// depth row accesses are independent DRAM misses; a scan that batches
  /// keys and prefetches a window ahead overlaps them instead of paying
  /// them serially per key. Pure hint: no observable effect on counts.
  void prefetch(std::uint64_t key) const {
#if defined(__GNUC__) || defined(__clang__)
    for (std::size_t r = 0; r < rows_; ++r) {
      __builtin_prefetch(&counters_[slot(r, key)], 1, 1);
    }
#else
    (void)key;
#endif
  }

  /// Serial-phase add: plain increments, no atomic RMW (each locked add
  /// is a full fence on x86, and the fences dominate a scatter loop).
  /// Only for callers that know no other thread touches the sketch —
  /// e.g. a scan shard loop running inline at parallelism 1. The cell
  /// values are identical to add()'s.
  void add_serial(std::uint64_t key, std::uint32_t count = 1) {
    for (std::size_t r = 0; r < rows_; ++r) counters_[slot(r, key)] += count;
  }

  /// Upper bound on the true count of `key`.
  std::uint32_t estimate(std::uint64_t key) const {
    std::uint32_t best = std::numeric_limits<std::uint32_t>::max();
    for (std::size_t r = 0; r < rows_; ++r) {
      best = std::min(best, counters_[slot(r, key)]);
    }
    return best;
  }

  /// Exactly `estimate(key) < threshold`, with an early exit: the min
  /// over rows is below the threshold as soon as any row is, and in an
  /// under-loaded sketch most non-colliding keys decide on the first row
  /// — one cache miss instead of depth.
  bool below(std::uint64_t key, std::uint32_t threshold) const {
    for (std::size_t r = 0; r < rows_; ++r) {
      if (counters_[slot(r, key)] < threshold) return true;
    }
    return false;
  }

  void clear() { std::fill_n(counters_.get(), cells_, 0u); }

  std::size_t memory_bytes() const { return cells_ * sizeof(std::uint32_t); }

 private:
  std::size_t slot(std::size_t row, std::uint64_t key) const {
    const std::uint64_t h = net::hash_combine(seeds_[row], key);
    return row * width_ +
           static_cast<std::size_t>(mask_ ? (h & mask_) : (h % width_));
  }

  struct FreeDeleter {
    void operator()(std::uint32_t* p) const { std::free(p); }
  };

  std::size_t width_;
  std::size_t rows_;
  std::uint64_t mask_;
  std::size_t cells_ = 0;
  std::unique_ptr<std::uint32_t[], FreeDeleter> counters_;
  std::vector<std::uint64_t> seeds_;
};

}  // namespace netclients::core
