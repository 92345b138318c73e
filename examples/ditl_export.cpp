// DITL export / re-import: streams a sampled DITL capture into an NCD1
// corpus (a manifest plus capture files, the shape a DITL collection
// arrives in), re-runs the Chromium pipeline from the manifest, then
// persists the analysis as a netclients.snap.v1 snapshot — the workflow a
// researcher with DNS-OARC access would use (collect once, analyze many
// times, serve the result).
//
// Run:  build/examples/ditl_export [scale-denominator] [out.manifest]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/obs/export.h"
#include "core/chromium/chromium.h"
#include "core/scenario/scenario.h"
#include "core/serve/service.h"
#include "core/snapshot/snapshot.h"
#include "roots/corpus.h"
#include "roots/root_server.h"
#include "sim/ditl.h"

using namespace netclients;

int main(int argc, char** argv) {
  obs::MetricsOutGuard metrics_out(&argc, argv);
  double denominator = 512;
  if (argc > 1) denominator = std::atof(argv[1]);
  const std::string path = argc > 2 ? argv[2] : "ditl_sample.manifest";

  const core::Scenario scenario =
      core::ScenarioBuilder().scale_denominator(denominator).build();
  const sim::World& world = scenario.world();
  const roots::RootSystem roots =
      roots::RootSystem::ditl_2020(world.config().seed);

  sim::DitlOptions ditl;
  ditl.sample_rate = 1.0 / 64;
  roots::CorpusWriter writer(
      path, {roots::CorpusFormat::kNcd1, std::uint64_t{1} << 18});
  const auto stats = sim::generate_ditl(
      world, roots, ditl,
      [&](const roots::TraceRecord& rec) { writer.add(rec); });
  const bool written = writer.finish();
  const roots::CorpusManifest& manifest = writer.manifest();
  // The capture's files are removed on every exit path below.
  const auto remove_capture = [&] {
    const std::string dir = path.substr(0, path.find_last_of('/') + 1);
    for (const auto& member : manifest.members) {
      std::remove((dir + member.file).c_str());
    }
    std::remove(path.c_str());
  };
  if (!written) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    remove_capture();
    return 1;
  }
  std::printf("captured %llu records (%llu suppressed on non-DITL letters)\n",
              static_cast<unsigned long long>(manifest.total_records()),
              static_cast<unsigned long long>(stats.suppressed));
  std::printf("wrote %s (%zu capture file(s))\n", path.c_str(),
              manifest.members.size());

  // Re-import and analyze, as a separate consumer would — from the
  // manifest alone: each capture file is mmap-ed (buffered where mapping
  // is unavailable) and scanned in place, never materialized. The read is
  // tolerant: a capture damaged in transit still yields every record
  // before the corruption, with the rest counted as skipped.
  core::ChromiumOptions options;
  options.sample_rate = ditl.sample_rate;
  const auto corpus = roots::CorpusView::open(path);
  if (!corpus) {
    std::fprintf(stderr, "cannot read back %s\n", path.c_str());
    remove_capture();
    return 1;
  }
  const core::ChromiumResult result =
      core::ChromiumCounter(options).process_corpus(*corpus);
  std::printf("re-analyzed from disk (%zu file(s), zero-copy): "
              "%llu records (%llu skipped), "
              "%llu signature matches, %llu collision-rejected, "
              "%zu resolvers with Chromium activity\n",
              corpus->members().size(),
              static_cast<unsigned long long>(result.records_scanned),
              static_cast<unsigned long long>(result.records_skipped),
              static_cast<unsigned long long>(result.signature_matches),
              static_cast<unsigned long long>(result.rejected_collisions),
              result.probes_by_resolver.size());
  remove_capture();

  // Top resolvers by (scaled) Chromium volume.
  std::vector<std::pair<double, std::uint32_t>> top;
  for (const auto& [addr, count] : result.probes_by_resolver) {
    top.emplace_back(count, addr);
  }
  std::sort(top.rbegin(), top.rend());
  std::printf("\ntop resolvers by estimated Chromium probes (2 days):\n");
  for (std::size_t i = 0; i < top.size() && i < 8; ++i) {
    std::printf("  %-18s %12.0f\n",
                net::Ipv4Addr(top[i].second).to_string().c_str(),
                top[i].first);
  }

  // Persist the analysis as a serving-ready snapshot epoch and read it
  // back — the "analyze many times" half of the workflow keeps the
  // (small) snapshot, not the (large) raw trace.
  const std::string snap_path = path + ".snap";
  const core::snapshot::EpochRecord epoch = core::snapshot::make_epoch(
      result, world, 0, core::snapshot::options_digest(options));
  if (!core::snapshot::write(snap_path, {epoch})) {
    std::fprintf(stderr, "cannot write %s\n", snap_path.c_str());
    return 1;
  }
  const auto snap = core::snapshot::read(snap_path);
  std::remove(snap_path.c_str());
  if (!snap || snap->epochs.size() != 1) {
    std::fprintf(stderr, "cannot read back %s\n", snap_path.c_str());
    return 1;
  }
  // Serve the re-imported epoch the way a deployment would: publish it
  // into a Service and read through a pinned snapshot handle.
  core::serve::Service service;
  service.publish(std::span<const core::snapshot::EpochRecord>(snap->epochs));
  const core::serve::SnapshotHandle handle = service.acquire();
  std::printf("\nsnapshot %s: %zu resolver /24s, %zu ASes, "
              "total volume %.0f (serving version %llu)\n",
              snap_path.c_str(), handle->index().prefix_count(),
              handle->index().as_aggregates().size(),
              handle->index().total_volume(),
              static_cast<unsigned long long>(handle->version()));
  return 0;
}
