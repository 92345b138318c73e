#pragma once

// Shared scaffolding for the bench binaries: bench_paper (every paper
// table and figure, one section per id) and the systems benches
// (bench_faults, bench_serve, bench_netserve).
//
// They read the REPRO_SCALE env var (the denominator of the world scale,
// default 64 — i.e. a 1/64-size Internet) and write paper-style tables on
// stdout plus CSV series under bench_out/. Every bench also accepts
// `--metrics-out <path>` (or the REPRO_METRICS_OUT env var) and writes the
// run's metrics-registry snapshot there on exit — JSON by default, CSV for
// *.csv paths.

#include <string>

#include "core/obs/export.h"

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

/// Creates bench_out/ (if needed) and returns "bench_out/<name>".
std::string out_path(const std::string& name);

}  // namespace netclients::bench
