#include "netsvc/server.h"

#include <algorithm>

#include "core/obs/obs.h"
#include "netsim/endpoint.h"

namespace netclients::netsvc {

void ServerStats::publish() const {
  obs::Registry& registry = obs::Registry::global();
  registry.counter("netsvc.server.udp_requests").add(udp_requests);
  registry.counter("netsvc.server.tcp_requests").add(tcp_requests);
  registry.counter("netsvc.server.responses").add(responses);
  registry.counter("netsvc.server.lookups").add(lookups);
  registry.counter("netsvc.server.truncated").add(truncated);
  registry.counter("netsvc.server.malformed").add(malformed);
  registry.counter("netsvc.server.formerr").add(formerr);
  registry.counter("netsvc.server.backpressure_dropped")
      .add(backpressure_dropped);
  registry.counter("netsvc.server.window_stalls").add(window_stalls);
}

Server::Server(netsim::MessageBus& bus, const core::serve::Service& service,
               net::Ipv4Addr address, ServerOptions options)
    : bus_(bus),
      service_(service),
      address_(address),
      options_(options),
      stream_(bus, address, options.stream) {
  stream_.on_frame([this](net::Ipv4Addr peer, std::uint32_t conn,
                          std::span<const std::uint8_t> frame,
                          net::SimTime now) {
    ++stats_.tcp_requests;
    // Per-connection backpressure: replies still in flight on this
    // connection fill its window; excess requests are dropped and the
    // client's retry policy owns recovery.
    auto& outstanding = conn_outstanding_[StreamSocket::key(peer, conn)];
    std::erase_if(outstanding, [now](double done_at) { return done_at <= now; });
    if (static_cast<int>(outstanding.size()) >= options_.per_conn_window) {
      ++stats_.backpressure_dropped;
      return;
    }
    double delay = 0;
    const auto reply = process(frame, now, /*udp_capped=*/false, &delay);
    if (reply.empty()) return;
    outstanding.push_back(now + delay);
    stream_.send_frame(peer, conn, reply, now, delay);
  });
  netsim::attach_payload_endpoint(
      bus_, address_,
      [this](const netsim::Datagram& d, net::SimTime now)
          -> netsim::PayloadReply {
        if (d.proto == netsim::Proto::kTcp) {
          stream_.ingest(d, now);
          return {};
        }
        ++stats_.udp_requests;
        double delay = 0;
        const auto reply =
            process(d.payload, now, /*udp_capped=*/true, &delay);
        return {reply, delay};
      });
}

Server::~Server() { bus_.detach(address_); }

std::span<const std::uint8_t> Server::process(
    std::span<const std::uint8_t> request, net::SimTime now, bool udp_capped,
    double* delay) {
  switch (parse_query(request, &query_)) {
    case ParseStatus::kDrop:
      ++stats_.malformed;
      return {};
    case ParseStatus::kFormErr:
      ++stats_.formerr;
      *delay = service_delay(now, 0);
      return encode_formerr(query_.id, arena_);
    case ParseStatus::kOk:
      break;
  }
  // One snapshot pin for the whole batch: every question is answered
  // from the same epoch set even while a publisher churns underneath.
  const core::serve::SnapshotHandle snapshot = service_.acquire();
  results_.resize(query_.addrs.size());
  snapshot->lookup_many(query_.addrs, results_.data(),
                        options_.lookup_threads);
  stats_.lookups += query_.addrs.size();
  *delay = service_delay(now, query_.addrs.size());
  auto reply = encode_response(query_, results_, arena_);
  if (udp_capped && reply.size() > options_.udp_payload_cap) {
    ++stats_.truncated;
    reply = encode_truncated(query_, arena_);
  }
  ++stats_.responses;
  return reply;
}

double Server::service_delay(net::SimTime now, std::size_t question_count) {
  // Slots whose completion deadline has passed are free again.
  while (!slots_.empty() && slots_.top() <= now) slots_.pop();
  double issue_at = now;
  if (static_cast<int>(slots_.size()) >= std::max(1, options_.window)) {
    // Window full: the request queues until the earliest in-flight
    // service completes (that slot is consumed by this request).
    issue_at = slots_.top();
    slots_.pop();
    ++stats_.window_stalls;
  }
  const double done_at = issue_at + options_.base_service_seconds +
                         static_cast<double>(question_count) *
                             options_.per_query_service_seconds;
  slots_.push(done_at);
  return (done_at - now) + options_.reply_latency;
}

}  // namespace netclients::netsvc
