// Workload `ditl_scan`: the DNS-logs technique on a packet capture of
// about 10.9M records. Set-up generates the world and streams its DITL
// capture through `CorpusWriter::add` into a 4-member NCP1 packet corpus
// (never materialising the records). The timed unit (`work_ms`) is one
// pass of `CorpusView::open` + `ChromiumCounter::process_corpus` at 4
// threads, repeated for the run's duration against the page-cache-warm
// files.
//
// Correctness: every pass must equal a 1-thread scan of the same corpus,
// scan every record the writer wrote, and skip no member or record.

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/chromium/chromium.h"
#include "core/exec/steal.h"
#include "dns/packet.h"
#include "roots/corpus.h"
#include "roots/root_server.h"
#include "sim/ditl.h"
#include "sim/world.h"
#include "tracer.h"

namespace perfbench {

namespace nc = netclients;
namespace core = netclients::core;
using Span = Tracer::Span;

namespace {

constexpr int kThreads = 4;

struct Config {
  /// Fixed world, seeded capture: see paper_pipeline.cc's Config.
  std::uint64_t world_seed = 42;
  double scale_denominator = 64;
  double ditl_sample_denominator = 32;
  /// Rotation size: about a quarter of the capture, so the corpus has
  /// four members.
  std::uint64_t records_per_member = 3'200'000;
  /// Each set-up writes ~460 MB, and now and then the disk stalls one of
  /// them for seconds; the median of three ignores a single stall.
  int setup_reps = 3;
  int min_passes = 5;
};

bool identical(const core::ChromiumResult& a, const core::ChromiumResult& b) {
  return a.records_scanned == b.records_scanned &&
         a.signature_matches == b.signature_matches &&
         a.rejected_collisions == b.rejected_collisions &&
         a.records_skipped == b.records_skipped &&
         a.probes_by_resolver == b.probes_by_resolver;
}

/// Generates the world and streams its DITL capture into the corpus.
WrittenCorpus write_corpus(const Config& config, std::uint64_t seed,
                           const std::string& manifest, Tracer* tracer) {
  std::optional<nc::sim::World> world;
  {
    Span span(tracer, "sim.world_generate.ditl");
    nc::sim::WorldConfig world_config;
    world_config.scale = 1.0 / config.scale_denominator;
    world_config.seed = config.world_seed;
    world.emplace(nc::sim::World::generate(world_config));
  }
  Span span(tracer, "sim.ditl_generate.ditl");
  nc::sim::DitlOptions ditl;
  ditl.sample_rate = 1.0 / config.ditl_sample_denominator;
  ditl.seed = nc::net::stable_seed(seed, 0x4449544Cu /* "DITL" */);
  return write_ditl_corpus(
      *world, nc::roots::RootSystem::ditl_2020(config.world_seed), ditl,
      manifest, {nc::roots::CorpusFormat::kNcp1, config.records_per_member},
      tracer, "roots.trace_write.ncp1");
}

/// Serial `dns::MessageView::parse` over every packet of the first
/// member: the per-packet parse cost the scan pays inside its shards.
double parse_ns_per_packet(const nc::roots::CorpusView& view) {
  const auto& member = view.members().front();
  if (!member.packets) return 0;
  std::uint64_t packets = 0;
  std::uint64_t parsed = 0;
  const auto start = Clock::now();
  auto cursor = member.packets->cursor();
  nc::roots::PacketRecordRef ref;
  while (cursor.next(&ref)) {
    ++packets;
    if (nc::dns::MessageView::parse(ref.wire())) ++parsed;
  }
  const double seconds = seconds_since(start);
  return packets && parsed == packets ? seconds * 1e9 / packets : 0;
}

}  // namespace

int run_ditl_scan(const Settings& settings, Report& report, Tracer* tracer) {
  Config config;
  if (settings.smoke) {
    config.scale_denominator = 4096;
    config.ditl_sample_denominator = 64;
    config.records_per_member = 16'384;
    config.setup_reps = 2;
    config.min_passes = 2;
  }
  if (tracer) config.setup_reps = 1;
  std::filesystem::create_directories(settings.work_dir);
  const std::string manifest = settings.work_dir + "/ditl.manifest";

  // Set-up, repeated: each repetition rewrites the same corpus.
  std::vector<double> setup_s;
  WrittenCorpus corpus;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    const auto start = Clock::now();
    corpus = write_corpus(config, settings.seed, manifest, tracer);
    setup_s.push_back(seconds_since(start));
    report.require(corpus.ok, "ditl_scan: corpus written");
  }

  std::fprintf(stderr,
               "[perfbench] ditl_scan: set-up median %.2f s over %zu, %llu "
               "records\n",
               median(setup_s), setup_s.size(),
               static_cast<unsigned long long>(corpus.records));

  core::ChromiumOptions options;
  options.sample_rate = 1.0 / config.ditl_sample_denominator;
  options.seed = nc::net::stable_seed(settings.seed, 0xC520u);
  options.threads = 1;
  core::ChromiumResult reference;
  {
    const auto view = nc::roots::CorpusView::open(manifest);
    report.require(view && view->stats().members_skipped == 0 &&
                       view->members().size() == corpus.members &&
                       view->declared_records() == corpus.records,
                   "ditl_scan: corpus opens with every member");
    if (!view) return 1;
    reference = core::ChromiumCounter(options).process_corpus(*view);
    report.require(reference.records_scanned == corpus.records &&
                       reference.records_skipped == 0 &&
                       !reference.probes_by_resolver.empty(),
                   "ditl_scan: 1-thread reference scans every record");
  }

  std::fprintf(stderr, "[perfbench] ditl_scan: 1-thread reference done\n");

  options.threads = kThreads;
  const core::ChromiumCounter counter(options);
  // One pass: open the corpus, scan it and close it again, checked
  // against the reference. Returns the pass's wall time.
  const auto pass = [&](Tracer* pass_tracer, core::exec::StealTelemetry* steal,
                        double* open_s, double* scan_s,
                        core::ChromiumResult* out) {
    const auto start = Clock::now();
    bool ok = false;
    {
      std::optional<nc::roots::CorpusView> view;
      {
        Span span(pass_tracer, "roots.corpus_open");
        view = nc::roots::CorpusView::open(manifest);
        *open_s = span.elapsed();
      }
      if (view) {
        Span span(pass_tracer, "chromium.scan.ncp1");
        *out = counter.process_corpus(*view, steal);
        *scan_s = span.elapsed();
        ok = view->stats().members_skipped == 0;
      }
    }
    const double seconds = seconds_since(start);
    report.check(ok && identical(*out, reference),
                 "ditl_scan: 4-thread scan equals 1-thread scan");
    return seconds;
  };

  std::vector<double> pass_s;
  core::ChromiumResult result;
  const int min_passes = tracer ? 0 : config.min_passes;
  const double seconds = tracer ? 0 : settings.seconds;
  const auto loop_start = Clock::now();
  while (static_cast<int>(pass_s.size()) < min_passes ||
         seconds_since(loop_start) < seconds) {
    double open_s = 0;
    double scan_s = 0;
    pass_s.push_back(pass(nullptr, nullptr, &open_s, &scan_s, &result));
  }

  if (tracer) {
    // Two traced passes; the per-pass layer times are their means.
    constexpr int kTracedPasses = 2;
    double open_total = 0;
    double scan_total = 0;
    core::exec::StealTelemetry steal_total;
    for (int i = 0; i < kTracedPasses; ++i) {
      core::exec::StealTelemetry steal;
      double open_s = 0;
      double scan_s = 0;
      pass(tracer, &steal, &open_s, &scan_s, &result);
      open_total += open_s;
      scan_total += scan_s;
      steal_total.tasks += steal.tasks;
      steal_total.stolen_tasks += steal.stolen_tasks;
    }
    const double scan_s = scan_total / kTracedPasses;
    const auto view = nc::roots::CorpusView::open(manifest);
    const auto self = tracer->self_seconds();
    const auto at = [&](const char* name) {
      const auto it = self.find(name);
      return it == self.end() ? 0.0 : it->second;
    };
    report.metric("sim.world_generate_s.ditl", at("sim.world_generate.ditl"),
                  "s");
    report.metric("sim.ditl_generate_s.ditl", at("sim.ditl_generate.ditl"),
                  "s");
    report.metric("roots.trace_write_s.ncp1", at("roots.trace_write.ncp1"),
                  "s");
    report.metric("roots.corpus_records", corpus.records, "count");
    report.metric("roots.corpus_members", corpus.members, "count");
    report.metric("roots.corpus_open_s", open_total / kTracedPasses, "s");
    report.metric("chromium.scan_s", scan_s, "s");
    report.metric("chromium.records_per_s",
                  ratio(result.records_scanned, scan_s), "records/s");
    report.metric("chromium.bytes_per_s",
                  ratio(view ? view->payload_bytes() : 0, scan_s), "B/s");
    report.metric("chromium.match_ratio",
                  ratio(result.signature_matches, result.records_scanned),
                  "ratio");
    report.metric("chromium.rejected_collisions", result.rejected_collisions,
                  "count");
    report.metric("chromium.resolvers", result.probes_by_resolver.size(),
                  "count");
    report.metric("exec.steal.tasks", steal_total.tasks / kTracedPasses,
                  "count");
    report.metric("exec.steal.steal_ratio",
                  ratio(steal_total.stolen_tasks, steal_total.tasks), "ratio");
    report.metric("dns.parse_ns_per_packet",
                  view ? parse_ns_per_packet(*view) : 0, "ns");
  }

  remove_work_files(settings.work_dir, "ditl.");

  const double work = median(pass_s);
  std::fprintf(stderr,
               "[perfbench] ditl_scan: %llu records in %zu members, %zu "
               "passes, min %.3f / median %.3f / max %.3f s\n",
               static_cast<unsigned long long>(corpus.records),
               corpus.members, pass_s.size(), percentile(pass_s, 0),
               work, percentile(pass_s, 1));
  if (!tracer) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("work_ms", work * 1e3, "ms");
    report.metric("items_per_s", ratio(corpus.records, work), "items/s");
  }
  return 0;
}

}  // namespace perfbench
