#include "core/obs/obs.h"

#include <algorithm>
#include <cassert>

namespace netclients::obs {

// --------------------------------------------------------------- Counter

std::size_t detail::next_thread_slot() {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t Counter::value() const {
  std::uint64_t total = 0;
  for (const Cell& cell : cells_) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

void Counter::reset() {
  for (Cell& cell : cells_) cell.value.store(0, std::memory_order_relaxed);
}

// ------------------------------------------------------------- Histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
  buckets_.assign(bounds_.size() + 1, 0);
}

std::size_t Histogram::bucket_index(double value) const {
  // First bucket whose inclusive upper edge admits the value; everything
  // above the last edge lands in the overflow bucket.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void Histogram::observe(double value) {
  std::lock_guard<std::mutex> lock(mu_);
  ++buckets_[bucket_index(value)];
  ++count_;
  sum_ += value;
}

std::vector<std::uint64_t> Histogram::buckets() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buckets_;
}

std::uint64_t Histogram::count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return count_;
}

double Histogram::sum() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  sum_ = 0;
}

void Histogram::merge_delta(const std::vector<std::uint64_t>& buckets,
                            std::uint64_t count, double sum) {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += buckets[i];
  count_ += count;
  sum_ += sum;
}

// --------------------------------------------------------------- Registry

Registry& Registry::global() {
  static Registry instance;
  return instance;
}

Counter& Registry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

void Registry::record_span(std::string_view name, double elapsed_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = spans_.find(name);
  if (it == spans_.end()) {
    it = spans_.emplace(std::string(name), SpanStats{}).first;
  }
  ++it->second.count;
  it->second.total_ms += elapsed_ms;
}

Snapshot Registry::snapshot() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    HistogramSnapshot h;
    h.name = name;
    h.bounds = histogram->bounds();
    h.buckets = histogram->buckets();
    h.count = histogram->count();
    h.sum = histogram->sum();
    snap.histograms.push_back(std::move(h));
  }
  snap.spans.reserve(spans_.size());
  for (const auto& [name, stats] : spans_) {
    snap.spans.push_back(SpanSnapshot{name, stats.count, stats.total_ms});
  }
  return snap;
}

void Registry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
  for (auto& [name, stats] : spans_) stats = SpanStats{};
}

// ------------------------------------------------------------- ShardDelta

void ShardDelta::add(Counter& counter, std::uint64_t n) {
  for (auto& [c, delta] : counters_) {
    if (c == &counter) {
      delta += n;
      return;
    }
  }
  counters_.emplace_back(&counter, n);
}

void ShardDelta::observe(Histogram& histogram, double value) {
  HistogramDelta* delta = nullptr;
  for (auto& h : histograms_) {
    if (h.histogram == &histogram) {
      delta = &h;
      break;
    }
  }
  if (!delta) {
    histograms_.push_back(HistogramDelta{});
    delta = &histograms_.back();
    delta->histogram = &histogram;
    delta->buckets.assign(histogram.bounds().size() + 1, 0);
  }
  ++delta->buckets[histogram.bucket_index(value)];
  ++delta->count;
  delta->sum += value;
}

void ShardDelta::merge() {
  for (const auto& [counter, delta] : counters_) counter->add(delta);
  for (const auto& h : histograms_) {
    h.histogram->merge_delta(h.buckets, h.count, h.sum);
  }
  counters_.clear();
  histograms_.clear();
}

// -------------------------------------------------------------- StageSpan

namespace {
SpanLogger& span_logger() {
  static SpanLogger logger;
  return logger;
}
}  // namespace

void set_span_logger(SpanLogger logger) { span_logger() = std::move(logger); }

StageSpan::StageSpan(std::string_view name, Registry& registry)
    : name_(name),
      registry_(&registry),
      start_(std::chrono::steady_clock::now()) {
  if (span_logger().on_begin) span_logger().on_begin(name_);
}

double StageSpan::elapsed_ms() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

StageSpan::~StageSpan() {
  const double ms = elapsed_ms();
  registry_->record_span(name_, ms);
  if (span_logger().on_end) span_logger().on_end(name_, ms);
}

}  // namespace netclients::obs
