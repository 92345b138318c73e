// Trace-ingestion benchmark: generate a sampled DITL capture, write it as
// the `--scale` preset's NCD1 corpus (1 member at paper scale, 4 or 16 at
// the internet presets), then time the Chromium scan over it — open plus
// `process_corpus` under the work-stealing scheduler — and report
// records/sec. At the internet presets the same records are also written
// as a one-member corpus, the single-file baseline the multi-member scan
// is compared against at equal threads.
//
// The bench *checks* the parity contract before it times anything: the
// preset's corpus, scanned at threads 1/2/8, must be byte-identical to the
// 1-thread scan of the one-member corpus; any mismatch is a hard failure
// (exit 1).
//
// Output: a throughput table on stdout, rows in
// bench_out/scan_throughput.csv (CI uploads it), and gauges
// `chromium.scan.corpus_records_per_sec` / `chromium.scan.steal_ratio`
// (plus `chromium.scan.corpus_speedup` at the internet presets) via
// --metrics-out. `--require-speedup=X` (CI passes 1.0 at internet-lite)
// exits 1 when, at an internet preset, the multi-member corpus scan is
// less than X times the one-member scan.
//
// Run:  build/bench/bench_scan [--scale=paper|internet-lite|internet]
//                              [--reps=3] [--require-speedup=0]

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common.h"
#include "core/exec/steal.h"
#include "roots/corpus.h"

using namespace netclients;

namespace {

using bench::flag_value;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool identical(const core::ChromiumResult& a, const core::ChromiumResult& b) {
  if (a.records_scanned != b.records_scanned ||
      a.signature_matches != b.signature_matches ||
      a.rejected_collisions != b.rejected_collisions ||
      a.probes_by_resolver.size() != b.probes_by_resolver.size()) {
    return false;
  }
  for (const auto& [addr, count] : a.probes_by_resolver) {
    const auto it = b.probes_by_resolver.find(addr);
    if (it == b.probes_by_resolver.end() || it->second != count) return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  obs::MetricsOutGuard metrics_out(&argc, argv);
  const bench::ScaleSpec spec = bench::parse_scale(argc, argv);
  const int reps = static_cast<int>(flag_value(argc, argv, "--reps", 3));
  const double require_speedup =
      flag_value(argc, argv, "--require-speedup", 0);

  // ---- 1. Capture a sampled DITL as corpora ---------------------------
  const core::Scenario scenario =
      core::ScenarioBuilder()
          .scale_denominator(bench::scale_denominator())
          .build();
  const sim::World& world = scenario.world();
  const roots::RootSystem roots =
      roots::RootSystem::ditl_2020(world.config().seed);
  sim::DitlOptions ditl;
  ditl.sample_rate = 1.0 / bench::ditl_sample_denominator();

  std::vector<roots::TraceRecord> records;
  {
    obs::StageSpan span("scan.bench.capture");
    sim::generate_ditl(world, roots, ditl,
                       [&](const roots::TraceRecord& rec) {
                         records.push_back(rec);
                       });
  }
  // The preset's corpus (1 member at paper scale), and at the internet
  // presets the one-member baseline of the same records.
  const std::string manifest_path = bench::out_path("scan.manifest");
  const std::string single_path = bench::out_path("scan_single.manifest");
  {
    obs::StageSpan span("scan.bench.corpus_write");
    if (!roots::write_corpus(manifest_path, records, spec.corpus_files) ||
        (spec.internet() && !roots::write_corpus(single_path, records, 1))) {
      std::fprintf(stderr, "[scan] cannot write corpus %s\n",
                   manifest_path.c_str());
      return 1;
    }
  }
  const std::string& baseline_path =
      spec.internet() ? single_path : manifest_path;
  const auto corpus = roots::CorpusView::open(manifest_path);
  const auto baseline = roots::CorpusView::open(baseline_path);
  if (!corpus || corpus->stats().members_skipped != 0 || !baseline ||
      baseline->stats().members_skipped != 0) {
    std::fprintf(stderr, "[scan] corpus open failed for %s\n",
                 manifest_path.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "[scan] corpus: %zu member file(s), %llu records, %llu "
               "payload bytes\n",
               corpus->members().size(),
               static_cast<unsigned long long>(corpus->declared_records()),
               static_cast<unsigned long long>(corpus->payload_bytes()));

  core::ChromiumOptions options;
  options.sample_rate = ditl.sample_rate;

  // ---- 2. Parity checks (before timing) --------------------------------
  // The acceptance contract: the multi-member work-stealing scan must be
  // byte-identical to the serial one-member scan at every thread count,
  // regardless of steal interleaving.
  core::ChromiumOptions serial = options;
  serial.threads = 1;
  const core::ChromiumResult reference =
      core::ChromiumCounter(serial).process_corpus(*baseline);
  for (const int threads : {1, 2, 8}) {
    core::ChromiumOptions check = options;
    check.threads = threads;
    if (!identical(core::ChromiumCounter(check).process_corpus(*corpus),
                   reference)) {
      std::fprintf(stderr,
                   "[scan] FAIL: the %zu-member corpus scan differs from "
                   "the one-member scan at threads=%d\n",
                   corpus->members().size(), threads);
      return 1;
    }
  }

  // ---- 3. Throughput: manifest -> ChromiumResult, best of --reps -------
  const core::ChromiumCounter counter(options);
  std::uint64_t sink = 0;  // keeps the timed results observable
  // Best rep of open + scan for one corpus, with that rep's scheduler
  // telemetry.
  struct Best {
    double seconds = 1e30;
    core::exec::StealTelemetry steal;
  };
  const auto time_rep = [&](const std::string& path, Best* best) {
    const auto start = std::chrono::steady_clock::now();
    const auto timed = roots::CorpusView::open(path);
    if (!timed) return false;
    core::exec::StealTelemetry steal;
    sink += counter.process_corpus(*timed, &steal).signature_matches;
    const double seconds = seconds_since(start);
    if (seconds < best->seconds) *best = Best{seconds, steal};
    return true;
  };
  // The two corpora alternate rep by rep, so host drift hits both alike.
  Best corpus_best;
  Best single_best;
  for (int rep = 0; rep < reps; ++rep) {
    if (!time_rep(manifest_path, &corpus_best) ||
        (spec.internet() && !time_rep(single_path, &single_best))) {
      std::fprintf(stderr, "[scan] corpus reopen failed\n");
      return 1;
    }
  }
  const auto n = static_cast<double>(records.size());
  const double corpus_seconds = corpus_best.seconds;
  const double corpus_rps = n / corpus_seconds;
  const double single_seconds = spec.internet() ? single_best.seconds : 0;
  const double single_rps = spec.internet() ? n / single_seconds : 0;
  const double corpus_speedup = single_rps > 0 ? corpus_rps / single_rps : 0;
  const core::exec::StealTelemetry& steal = corpus_best.steal;
  const double steal_ratio =
      steal.tasks > 0
          ? static_cast<double>(steal.stolen_tasks) / steal.tasks
          : 0;

  std::printf("trace scan throughput (%zu records, %zu corpus file(s), "
              "best of %d)\n",
              records.size(), corpus->members().size(), reps);
  std::printf("  %-12s %10s %16s\n", "corpus", "seconds", "records/sec");
  std::printf("  %-12s %10.3f %16.0f\n", spec.name.c_str(), corpus_seconds,
              corpus_rps);
  if (spec.internet()) {
    std::printf("  %-12s %10.3f %16.0f\n", "one-member", single_seconds,
                single_rps);
    std::printf("  corpus/one-member speedup: %.2fx\n", corpus_speedup);
  }
  std::printf("  steal scheduler: %zu tasks over %zu workers, %zu "
              "steal(s) moved %zu task(s) (ratio %.3f, checksum %llu)\n",
              steal.tasks, steal.workers, steal.steals, steal.stolen_tasks,
              steal_ratio, static_cast<unsigned long long>(sink));

  obs::Registry& registry = obs::Registry::global();
  registry.gauge("chromium.scan.corpus_records_per_sec").set(corpus_rps);
  registry.gauge("chromium.scan.steal_ratio").set(steal_ratio);
  if (spec.internet()) {
    registry.gauge("chromium.scan.corpus_speedup").set(corpus_speedup);
  }

  if (std::FILE* csv =
          std::fopen(bench::out_path("scan_throughput.csv").c_str(), "w")) {
    std::fprintf(csv,
                 "path,scale,files,records,payload_bytes,seconds,"
                 "records_per_sec\n");
    std::fprintf(csv, "corpus,%s,%zu,%zu,%llu,%.6f,%.0f\n", spec.name.c_str(),
                 corpus->members().size(), records.size(),
                 static_cast<unsigned long long>(corpus->payload_bytes()),
                 corpus_seconds, corpus_rps);
    if (spec.internet()) {
      std::fprintf(csv, "one_member,%s,1,%zu,%llu,%.6f,%.0f\n",
                   spec.name.c_str(), records.size(),
                   static_cast<unsigned long long>(baseline->payload_bytes()),
                   single_seconds, single_rps);
    }
    std::fclose(csv);
  }
  // The CSV and the preset's corpus are the artifacts, not the baseline.
  if (spec.internet()) {
    for (const auto& member : baseline->members()) {
      std::filesystem::remove(
          std::filesystem::path(single_path).parent_path() /
          member.meta.file);
    }
    std::filesystem::remove(single_path);
  }

  if (require_speedup > 0 && spec.internet() &&
      corpus_speedup < require_speedup) {
    std::fprintf(stderr,
                 "[scan] FAIL: the %zu-member corpus scan is %.2fx the "
                 "one-member scan, below the required %.2fx\n",
                 corpus->members().size(), corpus_speedup, require_speedup);
    return 1;
  }
  return 0;
}
