// corpusctl — generate, inspect, verify, and scan sharded NCCORPUS
// trace corpora (a manifest plus N NCD1/NCP1 member files).
//
//   corpusctl generate <manifest> [--files=N] [--format=ncd1|ncp1]
//                                 [--seed=N]
//       capture a sampled DITL from the deterministic world (REPRO_SCALE /
//       REPRO_DITL_SAMPLE sized, like the benches) and shard it into N
//       member files next to the manifest
//   corpusctl inspect  <manifest>  per-member table + totals (tolerant:
//                                  unreadable members are reported, not
//                                  fatal)
//   corpusctl verify   <manifest>  strict gate: re-reads every member,
//                                  checks the manifest CRCs and record
//                                  framing; exit 1 on the first problem
//   corpusctl scan     <manifest> [--threads=N]
//                                  run the cross-file work-stealing
//                                  Chromium scan and print the result +
//                                  steal telemetry
//
// `inspect` and `scan` read tolerantly (the pipeline contract: damaged
// members are skipped and counted); `verify` is the strict complement CI
// can gate artifacts on.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/chromium/chromium.h"
#include "core/exec/steal.h"
#include "core/scenario/scenario.h"
#include "roots/corpus.h"
#include "roots/root_server.h"
#include "sim/ditl.h"
#include "sim/world.h"

using namespace netclients;

namespace {

double flag_value(int argc, char** argv, const char* name, double fallback) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::atof(argv[i] + prefix.size());
    }
  }
  return fallback;
}

std::string flag_string(int argc, char** argv, const char* name,
                        const std::string& fallback) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return fallback;
}

double env_denominator(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (!value) return fallback;
  const double parsed = std::atof(value);
  return parsed > 0 ? parsed : fallback;
}

int run_generate(const char* manifest, int argc, char** argv) {
  const auto files = static_cast<std::size_t>(
      flag_value(argc, argv, "--files", 4));
  const std::string format_name =
      flag_string(argc, argv, "--format", "ncd1");
  const auto seed =
      static_cast<std::uint64_t>(flag_value(argc, argv, "--seed", 42));
  roots::CorpusFormat format;
  if (format_name == "ncd1") {
    format = roots::CorpusFormat::kNcd1;
  } else if (format_name == "ncp1") {
    format = roots::CorpusFormat::kNcp1;
  } else {
    std::fprintf(stderr, "corpusctl: unknown --format=%s\n",
                 format_name.c_str());
    return 2;
  }

  sim::WorldConfig world_config;
  world_config.seed = seed;
  world_config.scale = 1.0 / env_denominator("REPRO_SCALE", 64);
  const core::Scenario scenario =
      core::ScenarioBuilder().world_config(world_config).build();
  const roots::RootSystem roots_system =
      roots::RootSystem::ditl_2020(scenario.world().config().seed);
  sim::DitlOptions ditl;
  ditl.sample_rate = 1.0 / env_denominator("REPRO_DITL_SAMPLE", 64);

  std::vector<roots::TraceRecord> records;
  sim::generate_ditl(scenario.world(), roots_system, ditl,
                     [&](const roots::TraceRecord& rec) {
                       records.push_back(rec);
                     });
  if (!roots::write_corpus(manifest, records, files, format)) {
    std::fprintf(stderr, "corpusctl: cannot write corpus at %s\n", manifest);
    return 1;
  }
  const auto written = roots::CorpusManifest::read(manifest);
  std::printf("%s: %zu member(s), %llu records, %llu bytes (%s, "
              "sample 1/%.0f)\n",
              manifest, written ? written->members.size() : 0,
              static_cast<unsigned long long>(
                  written ? written->total_records() : 0),
              static_cast<unsigned long long>(
                  written ? written->total_bytes() : 0),
              format_name.c_str(), 1.0 / ditl.sample_rate);
  return 0;
}

int run_inspect(const char* manifest, int, char**) {
  const auto parsed = roots::CorpusManifest::read(manifest);
  if (!parsed) {
    std::fprintf(stderr, "corpusctl: %s is not a readable NCCORPUS "
                 "manifest\n", manifest);
    return 1;
  }
  const auto view = roots::CorpusView::open(manifest);
  std::printf("%s: %zu member(s), %llu records, %llu bytes declared\n",
              manifest, parsed->members.size(),
              static_cast<unsigned long long>(parsed->total_records()),
              static_cast<unsigned long long>(parsed->total_bytes()));
  std::printf("  %-28s %6s %12s %12s %10s %s\n", "file", "fmt", "records",
              "bytes", "crc32", "state");
  for (std::size_t i = 0; i < parsed->members.size(); ++i) {
    const roots::CorpusMember& member = parsed->members[i];
    const bool readable =
        view && i < view->members().size() && view->members()[i].readable();
    std::printf("  %-28s %6s %12llu %12llu   %08x %s\n",
                member.file.c_str(),
                std::string(roots::corpus_format_name(member.format)).c_str(),
                static_cast<unsigned long long>(member.records),
                static_cast<unsigned long long>(member.bytes), member.crc,
                readable ? "ok" : "SKIPPED");
  }
  if (view && view->stats().members_skipped > 0) {
    std::printf("  warnings: %llu member(s) unreadable, %llu declared "
                "record(s) lost\n",
                static_cast<unsigned long long>(view->stats().members_skipped),
                static_cast<unsigned long long>(
                    view->stats().records_skipped));
  }
  return 0;
}

int run_verify(const char* manifest, int, char**) {
  roots::CorpusView::OpenOptions options;
  options.verify_crc = true;
  const auto view = roots::CorpusView::open(manifest, options);
  if (!view) {
    std::fprintf(stderr, "corpusctl: %s is not a readable NCCORPUS "
                 "manifest\n", manifest);
    return 1;
  }
  const auto& stats = view->stats();
  if (stats.members_skipped > 0) {
    std::fprintf(stderr,
                 "corpusctl: %s: %llu member(s) failed (%llu CRC "
                 "mismatches), %llu records unavailable\n",
                 manifest,
                 static_cast<unsigned long long>(stats.members_skipped),
                 static_cast<unsigned long long>(stats.crc_mismatches),
                 static_cast<unsigned long long>(stats.records_skipped));
    return 1;
  }
  // CRCs cover the bytes; validate() walks the record framing too.
  for (const auto& member : view->members()) {
    roots::ReadStats framing;
    if (member.trace) framing = member.trace->validate();
    if (member.packets) framing = member.packets->validate();
    if (framing.records_skipped > 0 || framing.truncated) {
      std::fprintf(stderr,
                   "corpusctl: %s: %llu damaged record(s)%s in %s\n",
                   manifest,
                   static_cast<unsigned long long>(framing.records_skipped),
                   framing.truncated ? " (truncated)" : "",
                   member.meta.file.c_str());
      return 1;
    }
  }
  std::printf("%s: ok (%zu member(s), %llu records, CRCs verified)\n",
              manifest, view->members().size(),
              static_cast<unsigned long long>(view->declared_records()));
  return 0;
}

int run_scan(const char* manifest, int argc, char** argv) {
  core::ChromiumOptions options;
  options.threads = static_cast<int>(flag_value(argc, argv, "--threads", 0));
  options.sample_rate =
      1.0 / env_denominator("REPRO_DITL_SAMPLE", 64);
  const auto corpus = roots::CorpusView::open(manifest);
  if (!corpus) {
    std::fprintf(stderr, "corpusctl: %s is not a readable NCCORPUS "
                 "manifest\n", manifest);
    return 1;
  }
  core::exec::StealTelemetry steal;
  const core::ChromiumResult result =
      core::ChromiumCounter(options).process_corpus(*corpus, &steal);
  std::printf("%s: %llu records scanned, %llu signature matches, "
              "%llu collision-rejected, %llu skipped\n",
              manifest,
              static_cast<unsigned long long>(result.records_scanned),
              static_cast<unsigned long long>(result.signature_matches),
              static_cast<unsigned long long>(result.rejected_collisions),
              static_cast<unsigned long long>(result.records_skipped));
  std::printf("  %zu resolver source address(es) attributed\n",
              result.probes_by_resolver.size());
  const double ratio =
      steal.tasks > 0
          ? static_cast<double>(steal.stolen_tasks) / steal.tasks
          : 0;
  std::printf("  scheduler: %zu chunk task(s) over %zu worker(s), %zu "
              "steal(s) moved %zu task(s) (ratio %.3f)\n",
              steal.tasks, steal.workers, steal.steals, steal.stolen_tasks,
              ratio);
  return 0;
}

/// One row per subcommand; main() is just a table walk (the snapctl
/// pattern), so adding a command is one entry plus its run_* function.
struct Command {
  const char* name;
  const char* usage;
  int (*run)(const char* manifest, int argc, char** argv);
};

constexpr Command kCommands[] = {
    {"generate",
     "corpusctl generate <manifest> [--files=N] [--format=ncd1|ncp1] "
     "[--seed=N]",
     run_generate},
    {"inspect", "corpusctl inspect  <manifest>", run_inspect},
    {"verify", "corpusctl verify   <manifest>", run_verify},
    {"scan", "corpusctl scan     <manifest> [--threads=N]", run_scan},
};

int usage() {
  std::fprintf(stderr, "usage:\n");
  for (const Command& command : kCommands) {
    std::fprintf(stderr, "  %s\n", command.usage);
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  for (const Command& command : kCommands) {
    if (std::strcmp(argv[1], command.name) == 0) {
      return command.run(argv[2], argc - 3, argv + 3);
    }
  }
  return usage();
}
