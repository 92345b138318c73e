#pragma once

// The snapshot exporter for the metrics registry: JSON (the stable
// machine-readable schema CI's bench-smoke job checks), plus a
// parser/validator for that schema and the `--metrics-out <path>`
// plumbing benches and examples share.
//
// JSON schema (`netclients.metrics.v1`):
//
//   {
//     "schema": "netclients.metrics.v1",
//     "counters":   [{"name": "...", "value": 123}, ...],
//     "gauges":     [{"name": "...", "value": 1.5}, ...],
//     "histograms": [{"name": "...", "count": 7, "sum": 12.5,
//                     "buckets": [{"le": 1, "count": 2}, ...,
//                                 {"le": "+inf", "count": 1}]}, ...],
//     "spans":      [{"name": "...", "count": 2, "total_ms": 31.5}, ...]
//   }
//
// Sections are always present (possibly empty) and sorted by metric name;
// every numeric field is emitted with shortest-round-trip formatting, so
// identical snapshots serialise to identical bytes. With
// `include_timings = false` the span objects carry name and count only —
// the deterministic subset compared across REPRO_THREADS values.

#include <optional>
#include <string>

#include "core/obs/obs.h"

namespace netclients::obs {

struct ExportOptions {
  /// When false, span wall-clock totals (the one nondeterministic field)
  /// are omitted — the export is then byte-identical for a fixed seed at
  /// any thread count.
  bool include_timings = true;
};

std::string to_json(const Snapshot& snapshot, const ExportOptions& = {});

/// Parses text produced by `to_json` back into a Snapshot (round-trip:
/// parse(to_json(s)) == s when timings are included). Returns nullopt on
/// malformed input or schema mismatch.
std::optional<Snapshot> parse_json(const std::string& text);

/// Schema check: parses and structurally validates (version string,
/// required sections, per-histogram bucket/count consistency). Returns an
/// empty string on success, else a description of the first problem.
std::string validate_metrics_json(const std::string& text);

/// Writes the registry snapshot to `path` as JSON. Returns false (after
/// printing to stderr) when the file cannot be written.
bool write_metrics(const std::string& path, const ExportOptions& = {},
                   Registry& registry = Registry::global());

/// Shared CLI plumbing: strips `--metrics-out <path>` (or
/// `--metrics-out=<path>`) from argv so positional arguments keep their
/// places, falls back to the REPRO_METRICS_OUT env var, and writes the
/// global registry on scope exit. Benches and examples put one of these at
/// the top of main().
class MetricsOutGuard {
 public:
  /// Consumes recognised flags from (argc, argv).
  MetricsOutGuard(int* argc, char** argv);
  explicit MetricsOutGuard(std::string path) : path_(std::move(path)) {}
  ~MetricsOutGuard();
  MetricsOutGuard(const MetricsOutGuard&) = delete;
  MetricsOutGuard& operator=(const MetricsOutGuard&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace netclients::obs
