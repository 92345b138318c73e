// perfbench: the repo benchmark. Runs one workload against the netclients
// libraries, checks its outputs, and prints one JSON line as the last line
// of stdout:
//
//   {"correct": true, "attempted": N, "failed": 0,
//    "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// Usage:
//   perfbench --workload paper_pipeline|ditl_scan|serve_churn --seed N
//             --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
//
// --trace 0 measures the named workload untraced and reports the
// end-to-end metrics. --trace 1 is the traced run: it runs all three
// workloads with span recording on (each per-layer metric comes from the
// workload that exercises its layer), reports the per-layer metrics, and
// writes the spans as Chrome trace-event JSON into the work directory.
// --smoke shrinks every input to a seconds-long run for the tests.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "common.h"
#include "tracer.h"

namespace {

using perfbench::Report;
using perfbench::Settings;
using perfbench::Tracer;

using WorkloadFn = int (*)(const Settings&, Report&, Tracer*);

struct Workload {
  const char* name;
  WorkloadFn run;
  /// Parallelism of the library calls. The benchmark passes it to every
  /// call that takes a thread count and pins REPRO_THREADS to it for the
  /// calls that read the environment, so nothing is inherited.
  int threads;
};

constexpr Workload kWorkloads[] = {
    {"paper_pipeline", perfbench::run_paper_pipeline, 4},
    {"ditl_scan", perfbench::run_ditl_scan, 4},
    {"serve_churn", perfbench::run_serve_churn, 1},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_pipeline|ditl_scan|serve_churn --seed N --seconds S "
               "--trace 0|1 [--smoke] [--work-dir DIR]\n",
               why);
  return 2;
}

int run(const Workload& workload, const Settings& settings, Report& report,
        Tracer* tracer) {
  setenv("REPRO_THREADS", std::to_string(workload.threads).c_str(), 1);
  return workload.run(settings, report, tracer);
}

}  // namespace

int main(int argc, char** argv) {
  Settings settings;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--smoke") {
      settings.smoke = true;
    } else if (arg == "--workload" && has_value) {
      settings.workload = argv[++i];
      have_workload = true;
    } else if (arg == "--seed" && has_value) {
      settings.seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      settings.seconds = std::atof(argv[++i]);
      have_seconds = settings.seconds > 0;
    } else if (arg == "--trace" && has_value) {
      const std::string value = argv[++i];
      settings.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--work-dir" && has_value) {
      settings.work_dir = argv[++i];
    } else {
      return usage(("unknown or incomplete argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("missing a required argument");
  }
  const Workload* selected = nullptr;
  for (const Workload& w : kWorkloads) {
    if (settings.workload == w.name) selected = &w;
  }
  if (!selected) return usage("unknown workload");
  std::error_code error;
  std::filesystem::create_directories(settings.work_dir, error);
  if (error) return usage("cannot create the work directory");

  Report report;
  if (!settings.trace) {
    if (const int rc = run(*selected, settings, report, nullptr); rc != 0) {
      return rc;
    }
    report.metric("peak_rss_mib", perfbench::peak_rss_mib(), "MiB");
  } else {
    Tracer tracer(static_cast<std::uint32_t>(settings.seed));
    for (const Workload& w : kWorkloads) {
      const auto start = perfbench::Clock::now();
      if (const int rc = run(w, settings, report, &tracer); rc != 0) {
        return rc;
      }
      std::fprintf(stderr, "[perfbench] traced %s in %.1f s\n", w.name,
                   perfbench::seconds_since(start));
    }
    report.metric("trace.spans", static_cast<double>(tracer.span_count()),
                  "count");
    const std::string timeline = settings.work_dir + "/trace-" +
                                 settings.workload + "-" +
                                 std::to_string(settings.seed) + ".json";
    report.require(tracer.write_chrome_json(timeline),
                   "trace timeline written");
    std::fprintf(stderr, "[perfbench] timeline: %s\n", timeline.c_str());
  }
  report.print_table(settings.workload);
  report.print_json();
  // The result is out; skip static destructors. Tearing down the
  // library's shared thread pool at exit now and then hangs (one run in
  // about fifty hung after printing its result), which would lose a
  // finished run.
  std::_Exit(0);
}
