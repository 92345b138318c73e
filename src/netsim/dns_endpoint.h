#pragma once

// DNS services as bus endpoints. The bus has always carried raw bytes;
// these helpers put the two resolver front ends behind addresses so that
// every query/response crosses the wire as an RFC 1035 packet: the front
// end's `handle_wire` parses the incoming packet in place and writes the
// reply straight from that view into the endpoint's arena (no
// per-message allocation; the bus still owns its payload copies).
// Unparseable queries are dropped (no reply).

#include <cstdint>
#include <functional>

#include "dnssrv/authoritative.h"
#include "googledns/google_dns.h"
#include "net/ipv4.h"
#include "netsim/bus.h"

namespace netclients::netsim {

/// Options for a Google Public DNS bus endpoint.
struct GoogleEndpointOptions {
  int vp_id = 0;
  /// Seconds between receiving a query and the reply leaving.
  double reply_latency = 0.01;
  /// Maps a datagram's source address to the client's location — the
  /// anycast ingress signal. Required.
  std::function<net::LatLon(net::Ipv4Addr)> locate;
};

/// Attaches `server` to the bus at `address`. Replies ride the incoming
/// datagram's transport back to its source. The server must outlive the
/// bus registration.
void attach_google_dns(MessageBus& bus, net::Ipv4Addr address,
                       googledns::GooglePublicDns& server,
                       GoogleEndpointOptions options);

/// Options for an authoritative-server bus endpoint.
struct AuthoritativeEndpointOptions {
  std::uint32_t epoch = 0;
  double reply_latency = 0.01;
};

/// Attaches `server` to the bus at `address` (outliving the registration).
void attach_authoritative(MessageBus& bus, net::Ipv4Addr address,
                          const dnssrv::AuthoritativeServer& server,
                          AuthoritativeEndpointOptions options = {});

}  // namespace netclients::netsim
