// End-to-end integration tests: the full measurement study on a small
// world — both techniques, the validation datasets, and the paper's
// qualitative claims checked against ground truth. Also exercises the
// packet-level (wire format) path through the full stack.

#include <gtest/gtest.h>

#include <memory>

#include "apnic/apnic.h"
#include "cdn/cdn.h"
#include "core/cacheprobe/cacheprobe.h"
#include "core/chromium/chromium.h"
#include "core/compare/compare.h"
#include "core/datasets/datasets.h"
#include "core/scenario/scenario.h"
#include "dns_testing.h"
#include "sim/world.h"

namespace netclients {
namespace {

struct Study {
  Study() {
    sim::WorldConfig config;
    config.scale = 1.0 / 512;
    scenario = core::ScenarioBuilder().world_config(config).build();
    probing = scenario.campaign().run().result;
    // The capture streamed into an NCD1 corpus, the shape DITL arrives in,
    // sampled at 1/16 (counts scaled back), scanned and removed.
    const auto logs =
        scenario.dns_logs(1.0 / 16, "integration_ditl.manifest");
    EXPECT_TRUE(logs.has_value());
    if (logs) chromium = *logs;
    ms = cdn::observe_cdn(world(), {});
    apnic_est = apnic::estimate_population(world(), {});
  }

  const sim::World& world() const { return scenario.world(); }

  core::Scenario scenario;
  core::CampaignResult probing;
  core::ChromiumResult chromium;
  cdn::CdnObservation ms;
  apnic::ApnicEstimate apnic_est;
};

const Study& study() {
  static const Study s;
  return s;
}

core::PrefixDataset clients_dataset() {
  core::PrefixDataset ds("Microsoft clients");
  for (const auto& [idx, volume] : study().ms.client_volume) {
    ds.add(idx, volume);
  }
  return ds;
}

TEST(EndToEnd, TechniquesDetectMostCdnVolume) {
  const auto clients = clients_dataset();
  const auto probing_ds = study().probing.to_prefix_dataset("cache probing");
  const auto logs_ds = study().chromium.to_prefix_dataset("DNS logs");
  const auto unified = core::PrefixDataset::union_of("union", probing_ds,
                                                     logs_ds);
  // Paper: 95.2% of CDN volume in detected prefixes. Accept the same
  // ballpark at small scale.
  EXPECT_GT(core::prefix_volume_share(clients, unified), 80.0);
}

TEST(EndToEnd, DnsLogsHasHighPrecision) {
  const auto clients = clients_dataset();
  const auto logs_ds = study().chromium.to_prefix_dataset("DNS logs");
  std::size_t in_clients = 0;
  for (const auto& [idx, count] : logs_ds.entries()) {
    in_clients += clients.contains(idx);
  }
  ASSERT_GT(logs_ds.size(), 20u);
  // Paper: 95.5% of DNS-logs prefixes are Microsoft-client prefixes.
  EXPECT_GT(static_cast<double>(in_clients) / logs_ds.size(), 0.85);
}

TEST(EndToEnd, CacheProbingUpperBoundIsGenerous) {
  // Paper: only 74.7% of upper-bound /24s are CDN client /24s — the bound
  // deliberately over-counts. Verify it over-counts but not absurdly.
  const auto clients = clients_dataset();
  const auto probing_ds = study().probing.to_prefix_dataset("cache probing");
  std::size_t in_clients = 0;
  for (const auto& [idx, v] : probing_ds.entries()) {
    in_clients += clients.contains(idx);
  }
  const double precision =
      static_cast<double>(in_clients) / probing_ds.size();
  EXPECT_GT(precision, 0.4);
  EXPECT_LT(precision, 0.95);
}

TEST(EndToEnd, UnionBeatsEitherTechniqueAtAsLevel) {
  const auto probing_as = core::to_as_dataset(
      "cache probing", study().probing.to_prefix_dataset("p"), study().world());
  const auto logs_as = core::to_as_dataset(
      "DNS logs", study().chromium.to_prefix_dataset("l"), study().world());
  const auto union_as =
      core::AsDataset::union_of("union", probing_as, logs_as);
  EXPECT_GT(union_as.size(), probing_as.size());
  EXPECT_GT(union_as.size(), logs_as.size());
}

TEST(EndToEnd, ApnicMissesAsesTheTechniquesFind) {
  const auto probing_as = core::to_as_dataset(
      "cache probing", study().probing.to_prefix_dataset("p"), study().world());
  std::size_t missed_by_apnic = 0;
  for (const auto& [asn, v] : probing_as.entries()) {
    missed_by_apnic += !study().apnic_est.users_by_as.contains(asn);
  }
  EXPECT_GT(missed_by_apnic, 0u)
      << "the paper found 29,973 such ASes at full scale";
}

TEST(EndToEnd, GroundTruthEcsRecoveredByMsCdnDomain) {
  // §4: cache probing recovers 91% of the ground-truth ECS prefixes of the
  // Microsoft-hosted domain (clients using Google Public DNS).
  int ms_domain = -1;
  for (std::size_t d = 0; d < study().world().domains().size(); ++d) {
    if (study().world().domains()[d].is_microsoft_cdn) {
      ms_domain = static_cast<int>(d);
    }
  }
  ASSERT_GE(ms_domain, 0);
  std::uint64_t recovered = 0;
  for (std::uint32_t idx : study().ms.ecs_prefixes) {
    recovered += study()
                     .probing.active_by_domain[static_cast<std::size_t>(
                         ms_domain)]
                     .intersects(net::Prefix::from_slash24_index(idx));
  }
  ASSERT_FALSE(study().ms.ecs_prefixes.empty());
  const double recall =
      static_cast<double>(recovered) / study().ms.ecs_prefixes.size();
  EXPECT_GT(recall, 0.6);  // paper: 0.91 at full scale
}

TEST(EndToEnd, ResolverCentricDatasetsAgree) {
  // DNS logs and Microsoft resolvers both observe recursive resolvers, so
  // their AS sets overlap far more than either does with APNIC (B.3).
  const auto logs_as = core::to_as_dataset(
      "DNS logs", study().chromium.to_prefix_dataset("l"), study().world());
  core::AsDataset resolvers_as("Microsoft resolvers");
  {
    core::PrefixDataset resolver_prefixes("r");
    for (const auto& [idx, clients] : study().ms.resolver_clients) {
      resolver_prefixes.add(idx, clients);
    }
    resolvers_as = core::to_as_dataset("Microsoft resolvers",
                                       resolver_prefixes, study().world());
  }
  std::size_t in_resolvers = 0, in_apnic = 0;
  for (const auto& [asn, v] : logs_as.entries()) {
    in_resolvers += resolvers_as.contains(asn);
    in_apnic += study().apnic_est.users_by_as.contains(asn);
  }
  EXPECT_GT(in_resolvers, in_apnic);
}

TEST(EndToEnd, WirePacketFlowThroughFullStack) {
  // A miniature packet-level run: a client resolves through the recursive
  // front end, a prober discovers its PoP via myaddr and snoops the
  // client's scope block there, where clients are planted — all as wire
  // packets written and read by the oracle codec.
  const sim::World& world = study().world();
  dns_testing::PlantedActivity planted;
  auto gdns = std::make_unique<googledns::GooglePublicDns>(
      &world.pops(), &world.catchment(), &world.authoritative(),
      googledns::GoogleDnsConfig{}, &planted);
  dns::WireArena arena;
  const auto exchange = [&](const dns::DnsMessage& query, net::LatLon source,
                            std::uint64_t route_key, net::SimTime now,
                            googledns::Transport transport, int vp_id) {
    const auto decoded = dns::decode(gdns->handle_wire(
        dns::encode(query), source, route_key, now, transport, arena,
        vp_id));
    EXPECT_TRUE(decoded.ok) << decoded.error;
    return decoded.message;
  };

  // Pick a real client block.
  const sim::Slash24Block* block = nullptr;
  for (const auto& b : world.blocks()) {
    if (b.users > 100) {
      block = &b;
      break;
    }
  }
  ASSERT_NE(block, nullptr);
  const net::Ipv4Addr client((block->index << 8) + 77);
  const auto& domain = world.domains()[0].name;

  // 1. Client resolves through Google Public DNS (RD=1).
  const auto resolved = exchange(
      dns::make_query(1, domain, dns::RecordType::kA, true,
                      dns::EcsOption::for_query(
                          net::Prefix::slash24_of(client))),
      block->location, block->index, 100.0, googledns::Transport::kUdp, 0);
  ASSERT_EQ(resolved.answers.size(), 1u);

  // 2. Prober finds the client's PoP with a myaddr query from the client's
  // own location (we cheat the VP location to guarantee the same PoP).
  const auto myaddr = exchange(
      dns::make_query(2, googledns::GooglePublicDns::myaddr_name(),
                      dns::RecordType::kTxt, true),
      block->location, block->index, 101.0, googledns::Transport::kUdp, 0);
  ASSERT_EQ(myaddr.answers.size(), 1u);
  const anycast::PopId pop = gdns->pop_for(block->location, block->index);
  EXPECT_EQ(std::get<dns::TxtData>(myaddr.answers[0].rdata).text,
            world.pops().site(pop).city);

  // 3. RD=0 ECS snoop for the client's scope block hits once its clients
  // are active at that PoP.
  const auto scope = world.authoritative().scope_for(
      domain, net::Prefix::slash24_of(client), gdns->config().epoch);
  ASSERT_TRUE(scope.has_value());
  const net::Prefix scope_block =
      net::Prefix::slash24_of(client).widen_to(*scope);
  planted.plant(pop, domain, scope_block, 1.0);
  bool hit = false;
  for (std::uint16_t id = 0; id < 16 && !hit; ++id) {
    const auto response = exchange(
        dns::make_query(id, domain, dns::RecordType::kA, false,
                        dns::EcsOption::for_query(scope_block)),
        block->location, block->index, 102.0, googledns::Transport::kTcp, 1);
    hit = !response.answers.empty();
  }
  EXPECT_TRUE(hit);
}

}  // namespace
}  // namespace netclients
