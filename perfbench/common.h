#pragma once

// Shared plumbing of the benchmark binary: command-line settings, the
// result report (the JSON line that ends stdout), sample statistics,
// and small helpers for reading the library's obs registry.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "net/rng.h"
#include "roots/corpus.h"
#include "roots/root_server.h"
#include "sim/ditl.h"

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Parsed command line. `smoke` shrinks every input to a seconds-long
/// run for the benchmark's own tests; the measured configuration is the
/// default.
struct Settings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  /// Scratch directory for corpora and timelines (inside the checkout).
  std::string work_dir = ".bench_build/work";
};

/// The run's outcome: operations attempted and failed, and the metrics
/// printed as the final JSON line.
class Report {
 public:
  /// Counts one operation; a false `ok` marks it failed and the run
  /// incorrect, with `what` logged to stderr.
  void check(bool ok, std::string_view what);
  /// Counts `attempted` operations of which `failed` failed.
  void tally(std::uint64_t attempted, std::uint64_t failed,
             std::string_view what);
  /// A correctness check that is not itself an operation (invariants of
  /// set-up, reference agreement): failing it marks the run incorrect.
  void require(bool ok, std::string_view what);

  void metric(std::string name, double value, std::string unit);

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Human-readable metric table on stderr.
  void print_table(std::string_view title) const;
  /// The single-line JSON result on stdout.
  void print_json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 1].
double percentile(std::vector<double> values, double p);

/// A fixed-capacity uniform sample of a latency stream (Algorithm R).
/// Storage is allocated and touched up front, so a faster run (more
/// samples) does not grow the process and move `peak_rss_mib`.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed);
  void add(double value);
  std::uint64_t seen() const { return seen_; }
  std::vector<double> values() const;

 private:
  std::vector<double> slots_;
  std::uint64_t seen_ = 0;
  netclients::net::Rng rng_;
};

/// Peak resident set size of this process (getrusage ru_maxrss), MiB.
double peak_rss_mib();

/// Current value of a registry counter / gauge (registering it if new).
std::uint64_t counter(std::string_view name);
double gauge(std::string_view name);

/// Ratio that reads 0 instead of NaN on an empty base.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Order-sensitive 64-bit digest (FNV-1a over mixed words).
class Digest {
 public:
  void add(std::uint64_t word);
  void add_bytes(std::string_view bytes);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// A corpus as `write_ditl_corpus` left it.
struct WrittenCorpus {
  std::uint64_t records = 0;
  std::size_t members = 0;
  bool ok = false;
};

/// Generates the DITL capture of `world` and streams it record by record
/// through a `CorpusWriter` into the corpus at `manifest`, so the records
/// are never materialised. Generation and writing interleave, so with a
/// tracer the writer calls are timed one by one and folded into one
/// aggregate child of the current span, named `write_span`.
WrittenCorpus write_ditl_corpus(
    const netclients::sim::World& world,
    const netclients::roots::RootSystem& roots,
    const netclients::sim::DitlOptions& ditl, const std::string& manifest,
    const netclients::roots::CorpusWriter::Options& options, Tracer* tracer,
    std::string_view write_span);

/// Removes the files of `dir` whose names start with `prefix`.
void remove_work_files(const std::string& dir, std::string_view prefix);

int run_paper_pipeline(const Settings& settings, Report& report,
                       Tracer* tracer);
int run_ditl_scan(const Settings& settings, Report& report, Tracer* tracer);
int run_serve_churn(const Settings& settings, Report& report,
                    Tracer* tracer);

}  // namespace perfbench
