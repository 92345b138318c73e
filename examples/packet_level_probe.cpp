// Packet-level cache snooping: the full §3.1 flow as actual DNS datagrams
// on the message bus — a client resolves through Google Public DNS with an
// RD=1 query while its neighbours keep the domain warm in the cache of
// their PoP, the prober identifies that PoP with a myaddr TXT lookup, then
// snoops with RD=0 ECS queries over TCP. Every message crosses the bus as
// RFC 1035 wire bytes: queries written in place with dns::write_query,
// replies read through dns::MessageView.
//
// Run:  build/examples/packet_level_probe

#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/obs/export.h"
#include "dns/packet.h"
#include "googledns/google_dns.h"
#include "netsim/bus.h"
#include "netsim/dns_endpoint.h"

using namespace netclients;

namespace {

/// The client's neighbours: everyone in its scope block who resolves the
/// domain through its PoP, at a steady Poisson rate. Every other (PoP,
/// domain, block) is idle.
struct NeighbourActivity final : googledns::ClientActivityModel {
  anycast::PopId pop = anycast::kNoPop;
  dns::DnsName domain;
  net::Prefix block;
  double queries_per_second = 0;

  googledns::ArrivalRate rate(anycast::PopId p, const dns::DnsName& d,
                              net::Prefix b) const override {
    const bool neighbours = p == pop && b == block && d == domain;
    return {.flat = neighbours ? queries_per_second : 0.0};
  }
};

std::vector<std::uint8_t> query(std::uint16_t id, const dns::DnsName& name,
                                dns::RecordType type, bool recursion_desired,
                                std::optional<dns::EcsOption> ecs = {}) {
  std::vector<std::uint8_t> wire(dns::query_length(name, ecs));
  dns::write_query(wire.data(), id, name, type, recursion_desired, ecs);
  return wire;
}

}  // namespace

int main(int argc, char** argv) {
  obs::MetricsOutGuard metrics_out(&argc, argv);
  // A miniature world: one zone and the real PoP table/catchment.
  anycast::PopTable pops = anycast::PopTable::google_default();
  anycast::CatchmentModel catchment(&pops, 42);
  dnssrv::AuthoritativeServer auth;
  const auto domain = *dns::DnsName::parse("www.example.com");
  {
    dnssrv::ZoneConfig zone;
    zone.name = domain;
    zone.min_scope = 20;
    zone.max_scope = 24;
    auth.add_zone(zone);
  }

  netsim::MessageBus bus;
  const auto google_addr = *net::Ipv4Addr::parse("8.8.8.8");
  const auto client_addr = *net::Ipv4Addr::parse("100.64.5.9");
  const auto prober_addr = *net::Ipv4Addr::parse("198.18.0.1");
  const net::LatLon client_loc{52.5, 13.4};   // Berlin-ish eyeball
  const net::LatLon prober_loc{53.2, 6.6};    // Groningen cloud VM

  // The activity the prober will detect: the client's scope block
  // resolves the domain about every ten seconds at the client's PoP.
  const googledns::GoogleDnsConfig config;
  const net::Prefix client_slash24 = net::Prefix::slash24_of(client_addr);
  const net::Prefix scope_block = client_slash24.widen_to(
      *auth.scope_for(domain, client_slash24, config.epoch));
  NeighbourActivity neighbours;
  neighbours.pop = catchment.pop_for(client_loc, client_addr.value());
  neighbours.domain = domain;
  neighbours.block = scope_block;
  neighbours.queries_per_second = 0.1;
  googledns::GooglePublicDns gdns(&pops, &catchment, &auth, config,
                                  &neighbours);

  // Google's front end on the bus: location/route key are derived from
  // the source address (who is asking), as anycast would. The endpoint
  // answers straight from wire bytes: the reply is written from the
  // parsed query, in place.
  netsim::GoogleEndpointOptions google_opts;
  google_opts.vp_id = 1;
  google_opts.locate = [&](net::Ipv4Addr src) {
    return src == client_addr ? client_loc : prober_loc;
  };
  netsim::attach_google_dns(bus, google_addr, gdns, google_opts);

  // The scene starts one TTL into the simulated day: the occupancy model
  // counts client arrivals from time 0 on, so by then every pool holds a
  // full TTL of the neighbours' queries.
  const net::SimTime start = 300.0;

  // The client resolves normally (RD=1).
  constexpr auto kAnswers = dns::MessageView::Section::kAnswer;
  bus.attach(client_addr, [&](const netsim::Datagram& d, net::SimTime) {
    const auto reply = dns::MessageView::parse(d.payload);
    if (!reply) return;
    reply->for_each_record(kAnswers, [](const auto& answer) {
      std::printf("[client ] got answer, ttl=%u\n", answer.ttl);
    });
  });
  bus.send(client_addr, google_addr, netsim::Proto::kUdp,
           query(1, domain, dns::RecordType::kA, true,
                 dns::EcsOption::for_query(client_slash24)),
           start, 0.01);

  // The prober: myaddr first, then RD=0 ECS snoops with rising attempt ids
  // to cover the cache pools.
  int snoop_hits = 0;
  std::uint16_t next_id = 100;
  bus.attach(prober_addr, [&](const netsim::Datagram& d, net::SimTime) {
    const auto reply = dns::MessageView::parse(d.payload);
    if (!reply) return;
    const auto& edns = reply->edns();
    reply->for_each_record(kAnswers, [&](const auto& answer) {
      if (answer.type == dns::RecordType::kTxt) {
        std::string city;
        answer.txt_text(&city);
        std::printf("[prober ] myaddr says PoP = %s\n", city.c_str());
      } else if (edns && edns->ecs && edns->ecs->scope_prefix_length > 0) {
        ++snoop_hits;
        std::printf("[prober ] cache HIT, scope /%d, remaining ttl %u\n",
                    edns->ecs->scope_prefix_length, answer.ttl);
      }
    });
  });
  bus.send(prober_addr, google_addr, netsim::Proto::kUdp,
           query(99, googledns::GooglePublicDns::myaddr_name(),
                 dns::RecordType::kTxt, true),
           start + 0.5, 0.01);

  for (int attempt = 0; attempt < 8; ++attempt) {
    bus.send(prober_addr, google_addr, netsim::Proto::kTcp,
             query(next_id++, domain, dns::RecordType::kA, false,
                   dns::EcsOption::for_query(scope_block)),
             start + 1.0 + attempt * 0.1, 0.01);
  }
  bus.run_until(start + 10.0);
  bus.stats().publish();  // netsim.bus.* counters into the metrics export
  std::printf("\nbus: %llu datagrams delivered, snoop hits: %d "
              "(the client's activity is visible without its cooperation)\n",
              static_cast<unsigned long long>(bus.stats().delivered),
              snoop_hits);
  return snoop_hits > 0 ? 0 : 1;
}
