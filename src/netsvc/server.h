#pragma once

// The network query server: `serve::Service` behind a bus address.
//
// One address serves both transports. UDP queries arrive as datagrams
// through `netsim::attach_payload_endpoint` (the same plumbing the DNS
// resolver endpoints ride); TCP queries arrive as length-framed messages
// through a `StreamSocket` multiplexed on the same address. Either way a
// request is parsed against the NCS1 profile (protocol.h), answered from
// exactly one `SnapshotHandle` pinned for the whole batch — live
// `publish()` churn never blocks the batch and never splits it across
// epochs — and encoded back onto the transport it arrived on. Responses
// that would not fit the UDP payload cap are replaced by a TC=1 header
// so the client escalates the chunk to TCP.
//
// Timing rides the bus's virtual clock: the server owns a bounded window
// of service slots, kept as a min-heap of slot-completion deadlines. A
// request issues when a slot is free (or at the earliest slot-completion
// deadline when the window is full — counted as a window stall),
// completes after a batch-size-dependent service time, and its reply
// leaves at completion; the client's timeouts and retries run against
// that delay. Per-connection backpressure bounds how many replies may be
// in flight per TCP connection; excess requests are dropped
// (skip-and-count — the client's retry policy owns recovery). Every
// decision is a pure function of the deterministic bus delivery order, so
// serving runs are byte-identical at any REPRO_THREADS.

#include <cstdint>
#include <functional>
#include <queue>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "core/serve/service.h"
#include "dns/packet.h"
#include "net/ipv4.h"
#include "netsim/bus.h"
#include "netsvc/protocol.h"
#include "netsvc/transport.h"

namespace netclients::netsvc {

struct ServerOptions {
  /// Largest UDP response payload; bigger answers become TC=1 replies.
  /// Matches the bus's classic DNS MTU by default.
  std::size_t udp_payload_cap = 512;
  /// Threads for each batch's lookup_many (<= 0: REPRO_THREADS).
  int lookup_threads = 0;
  /// Concurrent service slots (the in-flight window of the virtual-time
  /// service model). Reshapes latency only, never answers.
  int window = 8;
  /// Modeled service time: fixed per request + linear per question.
  double base_service_seconds = 100e-6;
  double per_query_service_seconds = 2e-6;
  /// Propagation latency of a reply datagram/segment.
  double reply_latency = 0.01;
  /// Max replies in flight per TCP connection; requests beyond it are
  /// dropped (backpressure — the client retries).
  int per_conn_window = 4;
  StreamOptions stream;
};

/// Event counts of one server. Opt-in publish(), BusStats-style.
struct ServerStats {
  std::uint64_t udp_requests = 0;
  std::uint64_t tcp_requests = 0;
  std::uint64_t responses = 0;
  /// Addresses looked up (sum of batch sizes).
  std::uint64_t lookups = 0;
  /// UDP responses replaced by a TC=1 header.
  std::uint64_t truncated = 0;
  /// Requests dropped for failing DNS validation.
  std::uint64_t malformed = 0;
  /// DNS-valid requests refused with FORMERR for violating NCS1.
  std::uint64_t formerr = 0;
  /// TCP requests dropped by per-connection backpressure.
  std::uint64_t backpressure_dropped = 0;
  /// Requests whose issue waited on a free service slot.
  std::uint64_t window_stalls = 0;

  /// Registers the values as `netsvc.server.*` counters in the global
  /// registry. Call once per run.
  void publish() const;
};

class Server {
 public:
  /// Attaches to `bus` at `address`. `service` (and the bus) must outlive
  /// the server; the server detaches on destruction.
  Server(netsim::MessageBus& bus, const core::serve::Service& service,
         net::Ipv4Addr address, ServerOptions options = {});
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  net::Ipv4Addr address() const { return address_; }
  const ServerStats& stats() const { return stats_; }
  const StreamStats& stream_stats() const { return stream_.stats(); }

 private:
  /// Parses and answers one request; returns the reply bytes (empty:
  /// drop) and writes the modeled reply delay into `*delay`. `udp_capped`
  /// selects the truncation rule.
  std::span<const std::uint8_t> process(std::span<const std::uint8_t> request,
                                        net::SimTime now, bool udp_capped,
                                        double* delay);

  /// Virtual-time service model: returns the reply delay (service
  /// completion − now + propagation) for a `question_count`-question
  /// batch arriving at `now`.
  double service_delay(net::SimTime now, std::size_t question_count);

  netsim::MessageBus& bus_;
  const core::serve::Service& service_;
  net::Ipv4Addr address_;
  ServerOptions options_;
  StreamSocket stream_;
  dns::WireArena arena_;
  QueryView query_;                                  // reused per request
  std::vector<core::serve::LookupResult> results_;   // reused per request
  /// Completion deadlines of occupied service slots, earliest on top.
  std::priority_queue<double, std::vector<double>, std::greater<>> slots_;
  /// Outstanding reply deadlines per TCP connection (pruned as the
  /// clock passes them).
  std::unordered_map<std::uint64_t, std::vector<double>> conn_outstanding_;
  ServerStats stats_;
};

}  // namespace netclients::netsvc
