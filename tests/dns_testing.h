#pragma once

// The structured DNS codec and the reference servers: the test oracle for
// the library's one DNS representation, wire bytes read through
// `dns::MessageView` and written in place (`dns::write_query`,
// `dns::write_reply`, the front ends' `handle_wire`).
//
// A DnsMessage holds every section as owning vectors; `encode` writes it
// through BufWriter's name compression and `decode` is `MessageView::parse`
// plus `materialize`, which copies the view out through its public
// accessors. The reference servers answer a DnsMessage from the servers'
// public calls the way the structured front ends did, so a wire reply can
// be checked byte for byte against `encode(reference_reply(decode(query)))`.
//
// Tests, the seed generator in tools/ and fuzz/fuzz_wire link this; the
// library, benches and examples do not.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "anycast/pop.h"
#include "dns/ecs.h"
#include "dns/name.h"
#include "dns/packet.h"
#include "dns/types.h"
#include "dnssrv/authoritative.h"
#include "googledns/activity_model.h"
#include "googledns/google_dns.h"
#include "net/ipv4.h"
#include "net/rng.h"

namespace netclients::dns {

struct Question {
  DnsName name;
  RecordType type = RecordType::kA;
  std::uint16_t qclass = kClassIn;

  friend bool operator==(const Question&, const Question&) = default;
};

/// RDATA payloads. Anything the codec doesn't model natively round-trips
/// through RawData untouched.
struct AData {
  net::Ipv4Addr address;
  friend bool operator==(const AData&, const AData&) = default;
};
struct TxtData {
  std::string text;  // single character-string; split at 255 bytes on wire
  friend bool operator==(const TxtData&, const TxtData&) = default;
};
struct RawData {
  std::vector<std::uint8_t> bytes;
  friend bool operator==(const RawData&, const RawData&) = default;
};
using RData = std::variant<AData, TxtData, RawData>;

struct ResourceRecord {
  DnsName name;
  RecordType type = RecordType::kA;
  std::uint16_t rclass = kClassIn;
  std::uint32_t ttl = 0;
  RData rdata;

  friend bool operator==(const ResourceRecord&,
                         const ResourceRecord&) = default;
};

/// A DNS message. The OPT record is lifted out of the additional section
/// into `edns` on decode and re-synthesized on encode.
struct DnsMessage {
  Header header;
  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additionals;  // excluding OPT
  std::optional<EdnsInfo> edns;

  friend bool operator==(const DnsMessage&, const DnsMessage&) = default;
};

/// Builds a query. `recursion_desired = false` is the cache-snooping mode.
DnsMessage make_query(std::uint16_t id, const DnsName& name, RecordType type,
                      bool recursion_desired,
                      std::optional<EcsOption> ecs = std::nullopt);

/// Builds a response skeleton: the query's header with QR and `rcode`,
/// its questions, and, when the query had OPT, an OPT record of UDP size
/// 4096 echoing the query's ECS option.
DnsMessage make_response(const DnsMessage& query, RCode rcode);

/// Result of decoding: either a message or a diagnostic.
struct DecodeResult {
  bool ok = false;
  DnsMessage message;
  std::string error;

  static DecodeResult success(DnsMessage msg) {
    return {true, std::move(msg), {}};
  }
  static DecodeResult failure(std::string why) {
    return {false, {}, std::move(why)};
  }
};

/// Encodes into `arena`. Owner names in all sections are compressed
/// against previously written names; the OPT pseudo-record is emitted in
/// the additional section when `edns` is set. The span borrows the arena.
std::span<const std::uint8_t> encode_into(const DnsMessage& message,
                                          WireArena& arena);

/// `encode_into` copied out of a thread_local arena.
std::vector<std::uint8_t> encode(const DnsMessage& message);

/// Deep copy of a parsed view into the owning form: names canonicalized,
/// A and TXT RDATA typed, everything else kept as RawData.
DnsMessage materialize(const MessageView& view);

/// `MessageView::parse` plus `materialize`.
DecodeResult decode(std::span<const std::uint8_t> wire);

}  // namespace netclients::dns

namespace netclients::dns_testing {

/// The authoritative's reply to `query`: FORMERR without a question,
/// NXDOMAIN when `resolve` knows no zone, else an AA NOERROR with an A
/// record for an A question and the query's ECS echoed at the answer's
/// scope.
dns::DnsMessage reference_reply(const dnssrv::AuthoritativeServer& server,
                                const dns::DnsMessage& query,
                                std::uint32_t epoch = 0);

/// Google Public DNS's reply to `query` from `source`: the myaddr TXT
/// service, RD=1 recursion through `upstream.resolve` at the front end's
/// epoch, and RD=0 snooping through `google.probe` (attempt = message id).
/// Like the front end it mutates the probe state, so a comparison drives a
/// second GooglePublicDns with the same stream.
dns::DnsMessage reference_reply(googledns::GooglePublicDns& google,
                                const dnssrv::AuthoritativeServer& upstream,
                                const dns::DnsMessage& query,
                                net::LatLon source, std::uint64_t route_key,
                                net::SimTime now,
                                googledns::Transport transport,
                                int vp_id = 0,
                                const anycast::RouteBias& bias = {});

/// Queries for `name` that a wire front end must answer exactly as the
/// oracle does: upper-case labels, a second question compressed to a
/// pointer at the first, OPT without ECS (UDP size 1232), ECS sources /0
/// and /32, an ECS scope byte already set, answer and authority records
/// in the query, TC, AA and RA set with opcode 2, TXT and AAAA questions,
/// the root name, and no question at all; each with RD as given, after
/// the empty (unparseable) packet.
std::vector<std::vector<std::uint8_t>> corner_case_queries(
    const dns::DnsName& name, bool recursion_desired);

/// Client activity planted per (PoP, domain, scope block); every other
/// triple has no clients.
class PlantedActivity final : public googledns::ClientActivityModel {
 public:
  void plant(anycast::PopId pop, const dns::DnsName& domain,
             net::Prefix block, double rate) {
    rates_[key(pop, domain, block)] = rate;
  }
  googledns::ArrivalRate rate(anycast::PopId pop, const dns::DnsName& domain,
                              net::Prefix block) const override {
    const auto it = rates_.find(key(pop, domain, block));
    return {.flat = it == rates_.end() ? 0.0 : it->second};
  }

 private:
  static std::uint64_t key(anycast::PopId pop, const dns::DnsName& domain,
                           net::Prefix block) {
    return net::stable_seed(static_cast<std::uint64_t>(pop), domain.hash(),
                            std::uint64_t{block.base().value()},
                            std::uint64_t{block.length()});
  }

  std::unordered_map<std::uint64_t, double> rates_;
};

}  // namespace netclients::dns_testing
