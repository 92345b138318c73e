#pragma once

// Span recording for the traced run. The benchmark opens a span around
// each public library call it makes; spans nest per thread (the span open
// on a thread is the parent of the next one opened there), live in
// memory, and are written out as Chrome trace-event JSON when the run
// ends (opens in Perfetto or chrome://tracing).
//
// A layer's self time is a span's duration minus the durations of its
// children. Calls too short to span one by one (per-request wire calls,
// per-record corpus writes) are either sampled (Span with a null tracer)
// or folded into one aggregate child with `add_aggregate`.
//
// A null `Tracer*` turns every span into a no-op, so the untraced
// measurement runs the same code with nothing recorded.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(std::uint32_t run_id);

  class Span {
   public:
    Span(Tracer* tracer, std::string_view name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// Seconds since the span opened (valid with a null tracer too).
    double elapsed() const;

   private:
    Tracer* tracer_;
    std::int64_t id_ = -1;
    std::int64_t parent_ = -1;
    std::int64_t start_ns_ = 0;
  };

  /// Records `seconds` of work done inside the current span by `calls`
  /// calls too fine-grained to span individually (each timed with two
  /// clock reads), as one child named `name`.
  void add_aggregate(std::string_view name, double seconds,
                     std::uint64_t calls);

  /// The tracing's own cost under the first span named `root`: its
  /// descendant spans times the measured cost of one span, plus the
  /// calls timed into aggregates times the measured cost of timing one.
  double overhead_seconds(std::string_view root) const;

  /// Summed self time (duration minus children) per span name, seconds.
  std::map<std::string, double> self_seconds() const;
  /// Sum of the self times of every span nested under the first span
  /// named `root` (the root's own self time excluded).
  double child_self_seconds(std::string_view root) const;
  /// Duration of the first span named `name` (0 when absent).
  double first_duration(std::string_view name) const;

  std::size_t span_count() const;
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;  // -1 while open
    std::int64_t parent = -1;
    std::uint32_t thread = 0;
    std::uint64_t calls = 0;  // timed calls folded into an aggregate
  };

  std::int64_t open(std::string_view name, std::int64_t parent,
                    std::int64_t start_ns);
  void close(std::int64_t id, std::int64_t end_ns);
  // Both expect mu_ held.
  std::vector<double> self_by_record() const;
  std::vector<std::size_t> descendants(std::string_view root) const;

  std::uint32_t run_id_;
  std::int64_t epoch_ns_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

}  // namespace perfbench
