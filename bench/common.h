#pragma once

// Shared scaffolding for the per-table / per-figure bench binaries.
//
// Every bench generates the same deterministic world (size controlled by
// the REPRO_SCALE env var: the denominator of the scale fraction, default
// 64 — i.e. a 1/64-size Internet) and runs whichever pipelines it needs.
// Output: a paper-style table on stdout plus CSV series under bench_out/.
// Every bench also accepts `--metrics-out <path>` (or the
// REPRO_METRICS_OUT env var) and writes the run's metrics-registry
// snapshot there on exit — JSON by default, CSV for *.csv paths.

#include <cstdint>
#include <memory>
#include <string>

#include "apnic/apnic.h"
#include "cdn/cdn.h"
#include "core/cacheprobe/cacheprobe.h"
#include "core/chromium/chromium.h"
#include "core/compare/compare.h"
#include "core/datasets/datasets.h"
#include "core/obs/export.h"
#include "core/report/report.h"
#include "core/scenario/scenario.h"
#include "googledns/google_dns.h"
#include "roots/root_server.h"
#include "sim/activity.h"
#include "sim/ditl.h"
#include "sim/world.h"

namespace netclients::bench {

/// Denominator of the world scale: the REPRO_SCALE env var, or `fallback`
/// when it is unset, not a number, or not positive.
double scale_denominator(double fallback = 64);

/// DITL downsampling used at bench scale (REPRO_DITL_SAMPLE, default 64).
double ditl_sample_denominator();

// ---- Shared flag parsing ------------------------------------------------
// Every bench takes `--name=value` flags; these are the one implementation
// (the per-bench copies predating them drifted on details like whether
// argv[0] was scanned).

/// Numeric `--name=value`; `fallback` when absent.
double flag_value(int argc, char** argv, const char* name, double fallback);

/// String `--name=value`; `fallback` when absent.
std::string flag_string(int argc, char** argv, const char* name,
                        const std::string& fallback);

struct Pipelines {
  /// The wired world + probe substrate (core::ScenarioBuilder output).
  core::Scenario scenario;
  std::unique_ptr<core::CacheProbeCampaign> campaign;

  sim::World& world() { return scenario.world(); }
  const sim::World& world() const { return scenario.world(); }
  googledns::GooglePublicDns* google_dns() const {
    return scenario.google_dns.get();
  }

  core::PopDiscoveryResult pops;
  core::CalibrationResult calibration;
  core::CampaignResult probing;

  core::ChromiumResult chromium;
  cdn::CdnObservation ms;
  apnic::ApnicEstimate apnic;

  // /24-level datasets (Table 1 naming).
  core::PrefixDataset probing_prefixes{"cache probing"};
  core::PrefixDataset logs_prefixes{"DNS logs"};
  core::PrefixDataset union_prefixes{"cache probing + DNS logs"};
  core::PrefixDataset clients_prefixes{"Microsoft clients"};
  core::PrefixDataset resolvers_prefixes{"Microsoft resolvers"};
  core::PrefixDataset ecs_prefixes{"cloud ECS prefixes"};

  // AS-level datasets (Tables 3/4 naming).
  core::AsDataset probing_as{"cache probing"};
  core::AsDataset logs_as{"DNS logs"};
  core::AsDataset union_as{"cache probing + DNS logs"};
  core::AsDataset apnic_as{"APNIC"};
  core::AsDataset clients_as{"Microsoft clients"};
  core::AsDataset resolvers_as{"Microsoft resolvers"};
};

/// Declarative pipeline assembly: each bench binary states exactly the
/// stages it needs and gets one generated world reused across them.
///
///   Pipelines p = PipelineBuilder()
///                     .with_cache_probing()
///                     .with_chromium()
///                     .threads(8)   // optional; default REPRO_THREADS
///                     .build();
///
/// build() times every stage with obs::StageSpan — the narration printed
/// to stderr and the spans exported via `--metrics-out` come from the same
/// registry records, so reported and measured stage boundaries cannot
/// drift (table output on stdout stays clean). `bench_table1` et al.
/// thereby double as pipeline-build speed reports.
class PipelineBuilder {
 public:
  PipelineBuilder& with_cache_probing() {
    cache_probing_ = true;
    return *this;
  }
  PipelineBuilder& with_chromium() {
    chromium_ = true;
    return *this;
  }
  /// CDN + APNIC validation datasets.
  PipelineBuilder& with_validation() {
    validation_ = true;
    return *this;
  }
  /// Parallelism for the sharded stages; 0 = REPRO_THREADS env (default
  /// hardware_concurrency), 1 = serial.
  PipelineBuilder& threads(int n) {
    threads_ = n;
    return *this;
  }

  Pipelines build() const;

 private:
  bool cache_probing_ = false;
  bool chromium_ = false;
  bool validation_ = false;
  int threads_ = 0;
};

/// Creates bench_out/ (if needed) and returns "bench_out/<name>".
std::string out_path(const std::string& name);

}  // namespace netclients::bench
