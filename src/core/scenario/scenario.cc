#include "core/scenario/scenario.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "anycast/vantage.h"
#include "net/rng.h"
#include "roots/corpus.h"
#include "roots/root_server.h"
#include "sim/ditl.h"

namespace netclients::core {

std::vector<snapshot::EpochRecord> Scenario::run_epochs(int epochs) const {
  if (epochs <= 0) epochs = std::max(1, epoch_count);
  std::vector<snapshot::EpochRecord> records;
  records.reserve(epochs);
  for (int e = 0; e < epochs; ++e) {
    CacheProbeOptions epoch_options = options;
    ProbeEnvironment epoch_env = env;
    std::unique_ptr<googledns::GooglePublicDns> epoch_dns;
    // Epoch 0 keeps the scenario's seed and front end (run_epochs(1) ==
    // campaign().run()); each later epoch re-keys the probe streams AND stands
    // up its own Google-DNS front end with a re-keyed cache timeline and
    // an advanced authoritative epoch. The world's mean activity is
    // unchanged, but which marginal blocks happen to hold a cache entry
    // during the window differs — that sampling noise plus scope drift
    // is the churn diff_epochs measures.
    if (e > 0) {
      epoch_options.seed = net::stable_seed(
          options.seed, 0x45504F43u /* "EPOC" */, static_cast<uint64_t>(e));
      googledns::GoogleDnsConfig epoch_config = google_config;
      epoch_config.seed = net::stable_seed(
          google_config.seed, 0x45504F43u, static_cast<uint64_t>(e));
      epoch_config.epoch += static_cast<std::uint32_t>(e);
      epoch_dns = std::make_unique<googledns::GooglePublicDns>(
          &world().pops(), &world().catchment(), &world().authoritative(),
          epoch_config, activity.get());
      epoch_env.google_dns = epoch_dns.get();
    }
    const CampaignResult result =
        CacheProbeCampaign(std::move(epoch_env), epoch_options).run().result;
    records.push_back(snapshot::make_epoch(
        result, world(), static_cast<std::uint32_t>(e), epoch_options));
  }
  return records;
}

std::unique_ptr<serve::Service> Scenario::serve_epochs(
    int epochs, serve::ServiceOptions options) const {
  auto service = std::make_unique<serve::Service>(std::move(options));
  // Epoch-by-epoch publishes (not the bulk seed): the serving tier sees
  // the same rolling sequence of swaps a live deployment would.
  for (auto& record : run_epochs(epochs)) {
    service->publish(std::move(record));
  }
  return service;
}

std::optional<ChromiumResult> Scenario::dns_logs(
    double sample_rate, const std::string& manifest) const {
  const roots::RootSystem root_system =
      roots::RootSystem::ditl_2020(world().config().seed);
  sim::DitlOptions ditl;
  ditl.sample_rate = sample_rate;
  roots::CorpusWriter writer(
      manifest, {roots::CorpusFormat::kNcd1, std::uint64_t{1} << 18});
  sim::generate_ditl(world(), root_system, ditl,
                     [&](const roots::TraceRecord& rec) { writer.add(rec); });
  std::optional<ChromiumResult> result;
  if (writer.finish()) {
    const auto corpus = roots::CorpusView::open(manifest);
    if (corpus && corpus->stats().members_skipped == 0) {
      ChromiumOptions chromium;
      chromium.sample_rate = sample_rate;
      chromium.threads = options.threads;
      result = ChromiumCounter(chromium).process_corpus(*corpus);
    }
  }
  const std::filesystem::path dir =
      std::filesystem::path(manifest).parent_path();
  for (const roots::CorpusMember& member : writer.manifest().members) {
    std::filesystem::remove(dir / member.file);
  }
  std::filesystem::remove(manifest);
  return result;
}

Scenario ScenarioBuilder::build() const {
  Scenario scenario;
  sim::WorldConfig config = config_;
  if (!config_set_) config.scale = 1.0 / scale_denominator_;
  scenario.world_ptr =
      std::make_unique<sim::World>(sim::World::generate(config));
  sim::World& world = *scenario.world_ptr;
  if (auth_faults_) {
    world.authoritative_mutable().set_faults(*auth_faults_);
  }
  scenario.activity = std::make_unique<sim::WorldActivityModel>(&world);
  scenario.google_dns = std::make_unique<googledns::GooglePublicDns>(
      &world.pops(), &world.catchment(), &world.authoritative(),
      google_config_, scenario.activity.get());
  scenario.env.authoritative = &world.authoritative();
  scenario.env.google_dns = scenario.google_dns.get();
  scenario.env.geodb = &world.geodb();
  scenario.env.vantage_points = anycast::default_vantage_fleet();
  scenario.env.domains = world.domains();
  scenario.env.slash24_begin = 1u << 16;
  scenario.env.slash24_end = world.address_space_end();
  scenario.options = options_;
  if (threads_ >= 0) scenario.options.threads = threads_;
  scenario.google_config = google_config_;
  scenario.epoch_count = epochs_;
  return scenario;
}

}  // namespace netclients::core
