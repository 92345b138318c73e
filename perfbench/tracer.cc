#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The innermost open span on this thread (one tracer is live at a time).
thread_local std::int64_t t_current = -1;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Tracer(std::uint32_t run_id) : run_id_(run_id), epoch_ns_(now_ns()) {}

Tracer::Span::Span(Tracer* tracer, std::string_view name)
    : tracer_(tracer), start_ns_(now_ns()) {
  if (!tracer_) return;
  parent_ = t_current;
  id_ = tracer_->open(name, parent_, start_ns_);
  t_current = id_;
}

Tracer::Span::~Span() {
  if (!tracer_) return;
  tracer_->close(id_, now_ns());
  t_current = parent_;
}

double Tracer::Span::elapsed() const {
  return static_cast<double>(now_ns() - start_ns_) * 1e-9;
}

std::int64_t Tracer::open(std::string_view name, std::int64_t parent,
                          std::int64_t start_ns) {
  std::lock_guard lock(mu_);
  records_.push_back({std::string(name), start_ns, -1, parent, thread_index()});
  return static_cast<std::int64_t>(records_.size()) - 1;
}

void Tracer::close(std::int64_t id, std::int64_t end_ns) {
  std::lock_guard lock(mu_);
  records_[static_cast<std::size_t>(id)].end_ns = end_ns;
}

void Tracer::add_aggregate(std::string_view name, double seconds,
                           std::uint64_t calls) {
  const std::int64_t parent = t_current;
  std::lock_guard lock(mu_);
  // Placed at the parent's start: the timeline shows the total, not when
  // the individual calls ran.
  const std::int64_t start =
      parent >= 0 ? records_[static_cast<std::size_t>(parent)].start_ns
                  : now_ns();
  records_.push_back({std::string(name), start,
                      start + static_cast<std::int64_t>(seconds * 1e9),
                      parent, thread_index(), calls});
}

std::vector<double> Tracer::self_by_record() const {
  std::vector<double> self(records_.size(), 0.0);
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;
    const double duration = static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    self[i] += duration;
    if (r.parent >= 0) self[static_cast<std::size_t>(r.parent)] -= duration;
  }
  return self;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::lock_guard lock(mu_);
  const std::vector<double> self = self_by_record();
  std::map<std::string, double> totals;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    totals[records_[i].name] += self[i];
  }
  return totals;
}

std::vector<std::size_t> Tracer::descendants(std::string_view root) const {
  std::int64_t root_id = -1;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].name == root) {
      root_id = static_cast<std::int64_t>(i);
      break;
    }
  }
  std::vector<std::size_t> out;
  if (root_id < 0) return out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    // Walk up to see whether the root is an ancestor.
    for (std::int64_t p = records_[i].parent; p >= 0;
         p = records_[static_cast<std::size_t>(p)].parent) {
      if (p == root_id) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

double Tracer::child_self_seconds(std::string_view root) const {
  std::lock_guard lock(mu_);
  const std::vector<double> self = self_by_record();
  double sum = 0;
  for (const std::size_t i : descendants(root)) sum += self[i];
  return sum;
}

double Tracer::overhead_seconds(std::string_view root) const {
  // Cost of one span and of one timed call, measured here on a scratch
  // tracer: the median of several rounds, each the mean of many calls.
  constexpr int kCalls = 1 << 12;
  std::vector<double> span_s;
  std::vector<double> timed_s;
  for (int round = 0; round < 9; ++round) {
    Tracer scratch(0);
    std::int64_t start = now_ns();
    for (int i = 0; i < kCalls; ++i) Span span(&scratch, "calibration");
    span_s.push_back(static_cast<double>(now_ns() - start) * 1e-9 / kCalls);
    std::int64_t timed_ns = 0;
    start = now_ns();
    for (int i = 0; i < kCalls; ++i) {
      const std::int64_t t = now_ns();
      timed_ns += now_ns() - t;
    }
    timed_s.push_back(static_cast<double>(now_ns() - start) * 1e-9 / kCalls);
    static_cast<void>(timed_ns);
  }
  std::sort(span_s.begin(), span_s.end());
  std::sort(timed_s.begin(), timed_s.end());
  const double span_cost = span_s[span_s.size() / 2];
  const double timed_cost = timed_s[timed_s.size() / 2];

  std::lock_guard lock(mu_);
  double sum = 0;
  for (const std::size_t i : descendants(root)) {
    const Record& r = records_[i];
    sum += r.calls ? static_cast<double>(r.calls) * timed_cost : span_cost;
  }
  return sum;
}

double Tracer::first_duration(std::string_view name) const {
  std::lock_guard lock(mu_);
  for (const Record& r : records_) {
    if (r.name == name && r.end_ns >= 0) {
      return static_cast<double>(r.end_ns - r.start_ns) * 1e-9;
    }
  }
  return 0;
}

std::size_t Tracer::span_count() const {
  std::lock_guard lock(mu_);
  return records_.size();
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::lock_guard lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_ns < 0) continue;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": %u, "
                 "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"id\": %zu, \"parent\": %lld}}",
                 first ? "" : ",\n", r.name.c_str(), run_id_, r.thread,
                 static_cast<double>(r.start_ns - epoch_ns_) * 1e-3,
                 static_cast<double>(r.end_ns - r.start_ns) * 1e-3, i,
                 static_cast<long long>(r.parent));
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
