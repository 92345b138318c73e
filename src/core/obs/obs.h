#pragma once

// Process-wide observability layer for the measurement pipelines: monotonic
// counters, gauges, fixed-bucket histograms, and scoped stage spans, plus a
// deterministic snapshot the exporters (export.h) serialise.
//
// Determinism contract (mirrors the RNG-stream discipline in
// src/core/exec): exported totals are byte-identical at any REPRO_THREADS.
// The rules that make that hold:
//
//  * Counters are unsigned-integer atomics, striped into per-thread
//    cells that `value()` sums. Integer addition is commutative, so
//    concurrent increments from any interleaving of shards sum to the
//    same total — counters may be bumped directly from inside a shard,
//    and on the hot path: threads add into distinct cache lines, so a
//    bump never contends with another thread's.
//  * Histograms accumulate a double `sum`, and double addition is NOT
//    commutative in the last bits — so shards never observe into a shared
//    histogram directly. Each shard records into its own ShardDelta and
//    the caller merges the deltas *in shard order*, replaying exactly the
//    sequence a serial run produces.
//  * Span wall-clock durations are inherently nondeterministic; the
//    exporter's deterministic mode (ExportOptions::include_timings =
//    false) emits span names and invocation counts only.
//
// Metric naming scheme: dotted lower_snake paths,
// `<subsystem>.<object>.<event>` — e.g. `googledns.probe.cache_hit`,
// `cacheprobe.calibration.hit_distance_km`, `dnssrv.ratelimiter.dropped`.
// Units ride in the final segment (`_km`, `_ms`, `_seconds`) when the
// value isn't a plain count.

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace netclients::obs {

namespace detail {
std::size_t next_thread_slot();  // 0, 1, 2, ... one per call
}  // namespace detail

/// A small integer fixed for the calling thread's lifetime: threads get
/// 0, 1, 2, ... in the order they first ask. Spreads per-thread traffic
/// (counter cells, serve::Service shards) across cache lines; never an
/// input to anything observable.
inline std::size_t thread_slot() {
  thread_local const std::size_t slot = detail::next_thread_slot();
  return slot;
}

/// Monotonic counter: a fixed array of cache-line-padded cells, each
/// thread adding into the cell its thread_slot() picks, so concurrent
/// shards bump without sharing a line. More threads than cells share
/// cells, still exactly. Relaxed atomics: safe (and deterministic in
/// total) from concurrent shards; value() sums the cells.
class Counter {
 public:
  static constexpr std::size_t kCells = 16;

  void add(std::uint64_t n = 1) {
    cells_[thread_slot() % kCells].value.fetch_add(n,
                                                   std::memory_order_relaxed);
  }
  std::uint64_t value() const;
  void reset();

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> value{0};
  };
  std::array<Cell, kCells> cells_;
};

/// Last-write-wins scalar. Set from single-threaded contexts (stage
/// epilogues, merge loops); reads are always safe.
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0};
};

/// Fixed-bucket histogram. `bounds` are inclusive upper edges (`le`); one
/// implicit overflow bucket catches everything above the last edge.
/// `observe` is internally locked but its double `sum` makes concurrent
/// observation nondeterministic — shards must go through ShardDelta.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double value);

  std::size_t bucket_index(double value) const;
  const std::vector<double>& bounds() const { return bounds_; }
  std::vector<std::uint64_t> buckets() const;
  std::uint64_t count() const;
  double sum() const;
  void reset();

 private:
  friend class ShardDelta;
  void merge_delta(const std::vector<std::uint64_t>& buckets,
                   std::uint64_t count, double sum);

  std::vector<double> bounds_;
  mutable std::mutex mu_;
  std::vector<std::uint64_t> buckets_;  // bounds_.size() + 1 (overflow last)
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

struct HistogramSnapshot {
  std::string name;
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1, overflow last
  std::uint64_t count = 0;
  double sum = 0;

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

struct SpanSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double total_ms = 0;

  friend bool operator==(const SpanSnapshot&, const SpanSnapshot&) = default;
};

/// A point-in-time copy of every registered metric, sorted by name (the
/// registry stores metrics in ordered maps, so snapshot order — and
/// therefore export order — never depends on registration order).
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;
  std::vector<SpanSnapshot> spans;

  friend bool operator==(const Snapshot&, const Snapshot&) = default;
};

/// Metric registry. `global()` is the process-wide instance every pipeline
/// records into; tests may build private registries. Metric objects live
/// for the registry's lifetime — cache the returned references (typically
/// in function-local statics) instead of re-looking-up on hot paths.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` are inclusive upper edges and must be strictly increasing;
  /// re-registration with the same name returns the existing histogram
  /// (the original bounds win).
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Accumulates one stage-span invocation (StageSpan calls this).
  void record_span(std::string_view name, double elapsed_ms);

  Snapshot snapshot() const;

  /// Zeroes every metric's value. Registered metric objects stay alive
  /// (references remain valid); only their values reset. For tests and
  /// benches that isolate per-run exports.
  void reset();

 private:
  struct SpanStats {
    std::uint64_t count = 0;
    double total_ms = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
  std::map<std::string, SpanStats, std::less<>> spans_;
};

/// Thread-local (shard-confined) metric delta buffer. A shard records into
/// its own delta and returns it with the shard's result; the caller calls
/// `merge()` on each delta *in shard order*, which replays double
/// accumulation in the exact sequence a serial run produces.
class ShardDelta {
 public:
  void add(Counter& counter, std::uint64_t n = 1);
  void observe(Histogram& histogram, double value);

  /// Applies the buffered deltas to their metrics and clears the buffer.
  /// Call in shard order.
  void merge();

  bool empty() const { return counters_.empty() && histograms_.empty(); }

 private:
  struct HistogramDelta {
    Histogram* histogram = nullptr;
    std::vector<std::uint64_t> buckets;
    std::uint64_t count = 0;
    double sum = 0;
  };

  std::vector<std::pair<Counter*, std::uint64_t>> counters_;
  std::vector<HistogramDelta> histograms_;
};

/// Sink for live span begin/end narration (the bench harness points this
/// at stderr). Nullable; spans always record into the registry regardless.
struct SpanLogger {
  std::function<void(std::string_view name)> on_begin;
  std::function<void(std::string_view name, double elapsed_ms)> on_end;
};

/// Installs the process-wide span logger (pass {} to silence). Not
/// thread-safe against concurrently running spans — install once at
/// startup.
void set_span_logger(SpanLogger logger);

/// RAII stage span: times its scope on the steady clock and records
/// (count, total_ms) under `name` in the registry on destruction — the one
/// source of truth for per-stage timing.
class StageSpan {
 public:
  explicit StageSpan(std::string_view name,
                     Registry& registry = Registry::global());
  ~StageSpan();
  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

  /// Milliseconds elapsed so far.
  double elapsed_ms() const;

 private:
  std::string name_;
  Registry* registry_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace netclients::obs
