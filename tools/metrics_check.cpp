// Schema gate for exported measurement artifacts (CI's bench-smoke job):
//
//   metrics_check [--snap <file.snap>]... [<metrics.json>
//                                          [requirement...]]
//
// Each `--snap` file is strictly validated as netclients.snap.v1
// (header magic, section framing, CRCs, delta-chain integrity). The
// metrics JSON, when given, must parse as netclients.metrics.v1 and
// satisfy every requirement:
//
//   name          the metric exists (counter, gauge, histogram, span)
//   name>=value   the counter/gauge exists AND its value is >= value
//   name<=value   ... value is <= value
//
// Threshold forms gate measured quantities — e.g.
// `netsvc.bench.recall_gap>=0.05` turns "retries buy back lost answers"
// into a CI failure. They apply to counters and gauges (the scalar
// metrics); histogram/span requirements are presence-only. Prints every
// problem and exits 1 on any failure.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/obs/export.h"
#include "core/snapshot/snapshot.h"

namespace {

/// Scalar value of a counter or gauge; nullopt for histograms/spans
/// (which have no single value to threshold) and unknown names.
std::optional<double> scalar_value(const netclients::obs::Snapshot& snapshot,
                                   const std::string& name) {
  for (const auto& [metric, value] : snapshot.counters) {
    if (metric == name) return static_cast<double>(value);
  }
  for (const auto& [metric, value] : snapshot.gauges) {
    if (metric == name) return value;
  }
  return std::nullopt;
}

bool check_requirement(const netclients::obs::Snapshot& snapshot,
                       const std::vector<std::string>& names,
                       const char* metrics_path, const std::string& spec) {
  std::string name = spec;
  enum { kExists, kAtLeast, kAtMost } mode = kExists;
  double bound = 0;
  for (const char* op : {">=", "<="}) {
    const auto at = spec.find(op);
    if (at != std::string::npos) {
      name = spec.substr(0, at);
      bound = std::atof(spec.c_str() + at + 2);
      mode = op[0] == '>' ? kAtLeast : kAtMost;
      break;
    }
  }

  if (mode == kExists) {
    if (std::find(names.begin(), names.end(), name) == names.end()) {
      std::fprintf(stderr, "metrics_check: %s: missing required metric %s\n",
                   metrics_path, name.c_str());
      return false;
    }
    return true;
  }

  const std::optional<double> value = scalar_value(snapshot, name);
  if (!value) {
    std::fprintf(stderr,
                 "metrics_check: %s: %s is not a counter or gauge (required "
                 "by '%s')\n",
                 metrics_path, name.c_str(), spec.c_str());
    return false;
  }
  const bool ok = mode == kAtLeast ? *value >= bound : *value <= bound;
  if (!ok) {
    std::fprintf(stderr, "metrics_check: %s: %s = %g violates '%s'\n",
                 metrics_path, name.c_str(), *value, spec.c_str());
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<const char*> snaps;
  int arg = 1;
  while (arg + 1 < argc && std::strcmp(argv[arg], "--snap") == 0) {
    snaps.push_back(argv[arg + 1]);
    arg += 2;
  }
  if (snaps.empty() && arg >= argc) {
    std::fprintf(stderr,
                 "usage: metrics_check [--snap <file.snap>]... "
                 "[<metrics.json> [name | name>=value | name<=value]...]\n");
    return 1;
  }

  for (const char* snap : snaps) {
    const std::string problem =
        netclients::core::snapshot::validate_file(snap);
    if (!problem.empty()) {
      std::fprintf(stderr, "metrics_check: %s: %s\n", snap, problem.c_str());
      return 1;
    }
    std::printf("%s: ok (netclients.snap.v1)\n", snap);
  }
  if (arg >= argc) return 0;

  std::ifstream in(argv[arg]);
  if (!in) {
    std::fprintf(stderr, "metrics_check: cannot open %s\n", argv[arg]);
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  const std::string problem = netclients::obs::validate_metrics_json(text);
  if (!problem.empty()) {
    std::fprintf(stderr, "metrics_check: %s: %s\n", argv[arg],
                 problem.c_str());
    return 1;
  }

  const auto snapshot = netclients::obs::parse_json(text);
  std::vector<std::string> names;
  for (const auto& [name, value] : snapshot->counters) names.push_back(name);
  for (const auto& [name, value] : snapshot->gauges) names.push_back(name);
  for (const auto& h : snapshot->histograms) names.push_back(h.name);
  for (const auto& s : snapshot->spans) names.push_back(s.name);

  bool ok = true;
  for (int i = arg + 1; i < argc; ++i) {
    ok &= check_requirement(*snapshot, names, argv[arg], argv[i]);
  }
  if (!ok) return 1;

  std::printf(
      "%s: ok (%zu counters, %zu gauges, %zu histograms, %zu spans)\n",
      argv[arg], snapshot->counters.size(), snapshot->gauges.size(),
      snapshot->histograms.size(), snapshot->spans.size());
  return 0;
}
