#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>

#include "core/obs/obs.h"
#include "tracer.h"

namespace perfbench {

void Report::check(bool ok, std::string_view what) {
  tally(1, ok ? 0 : 1, what);
}

void Report::tally(std::uint64_t attempted, std::uint64_t failed,
                   std::string_view what) {
  attempted_ += attempted;
  if (failed == 0) return;
  failed_ += failed;
  correct_ = false;
  std::fprintf(stderr, "[perfbench] FAILED: %llu of %llu %.*s\n",
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(attempted),
               static_cast<int>(what.size()), what.data());
}

void Report::require(bool ok, std::string_view what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "[perfbench] CHECK FAILED: %.*s\n",
               static_cast<int>(what.size()), what.data());
}

void Report::metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::print_table(std::string_view title) const {
  std::fprintf(stderr, "[perfbench] %.*s: %llu attempted, %llu failed, %s\n",
               static_cast<int>(title.size()), title.data(),
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_),
               correct_ ? "correct" : "INCORRECT");
  for (const Metric& m : metrics_) {
    std::fprintf(stderr, "  %-40s %18.6g %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
  }
}

void Report::print_json() const {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct_ ? "true" : "false",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // Non-finite values are not JSON; they print as null and fail the
    // smoke test rather than the parser.
    if (std::isfinite(m.value)) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    } else {
      std::printf("%s\"%s\": {\"value\": null, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.unit.c_str());
    }
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double median(std::vector<double> values) { return percentile(values, 0.5); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  if (p >= 1) return values.back();
  // Nearest rank: the smallest value with at least p of the sample at or
  // below it; the median of an even sample averages the middle pair.
  if (p == 0.5 && values.size() % 2 == 0) {
    const std::size_t mid = values.size() / 2;
    return 0.5 * (values[mid - 1] + values[mid]);
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  return values[rank == 0 ? 0 : rank - 1];
}

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : slots_(capacity, 0.0), rng_(seed) {}

void Reservoir::add(double value) {
  if (seen_ < slots_.size()) {
    slots_[seen_++] = value;
    return;
  }
  ++seen_;
  const std::uint64_t j = rng_() % seen_;
  if (j < slots_.size()) slots_[j] = value;
}

std::vector<double> Reservoir::values() const {
  const auto n = static_cast<std::size_t>(
      std::min<std::uint64_t>(seen_, slots_.size()));
  return {slots_.begin(), slots_.begin() + static_cast<std::ptrdiff_t>(n)};
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t counter(std::string_view name) {
  return netclients::obs::Registry::global().counter(name).value();
}

double gauge(std::string_view name) {
  return netclients::obs::Registry::global().gauge(name).value();
}

void Digest::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (word >> (8 * i)) & 0xFF;
    h_ *= 0x100000001b3ull;
  }
}

void Digest::add_bytes(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ull;
  }
}

WrittenCorpus write_ditl_corpus(
    const netclients::sim::World& world,
    const netclients::roots::RootSystem& roots,
    const netclients::sim::DitlOptions& ditl, const std::string& manifest,
    const netclients::roots::CorpusWriter::Options& options, Tracer* tracer,
    std::string_view write_span) {
  netclients::roots::CorpusWriter writer(manifest, options);
  double write_s = 0;
  std::uint64_t calls = 0;
  netclients::sim::generate_ditl(
      world, roots, ditl, [&](const netclients::roots::TraceRecord& record) {
        if (!tracer) return writer.add(record);
        const auto start = Clock::now();
        writer.add(record);
        write_s += seconds_since(start);
        ++calls;
      });
  const auto start = Clock::now();
  WrittenCorpus corpus;
  corpus.ok = writer.finish();
  write_s += seconds_since(start);
  if (tracer) tracer->add_aggregate(write_span, write_s, calls + 1);
  corpus.records = writer.manifest().total_records();
  corpus.members = writer.manifest().members.size();
  return corpus;
}

void remove_work_files(const std::string& dir, std::string_view prefix) {
  std::error_code ignored;
  for (const auto& entry :
       std::filesystem::directory_iterator(dir, ignored)) {
    if (entry.path().filename().string().starts_with(prefix)) {
      std::filesystem::remove(entry.path(), ignored);
    }
  }
}

}  // namespace perfbench
