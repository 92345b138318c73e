#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "dns/packet.h"
#include "net/prefix.h"
#include "net/prefix_trie.h"
#include "net/rng.h"

namespace netclients::dnssrv {

/// Configuration of one ECS-aware zone served by an authoritative server.
///
/// Scope behaviour models what the paper measured on real authoritatives
/// (§3.1.1, Appendix A.2): responses carry a scope that is often *less
/// specific* than the /24 query scope (Wikipedia answers /16–/18, Google/
/// YouTube/Facebook /20–/24), scopes are consistent across queries within
/// the same scope block, and they are *mostly* stable over time — an epoch
/// re-roll with probability `scope_drift_probability` reproduces the ~10%
/// of hits whose response scope differs from the discovered query scope
/// (Table 2).
struct ZoneConfig {
  dns::DnsName name;
  std::uint32_t ttl_seconds = 300;
  bool supports_ecs = true;
  std::uint8_t min_scope = 16;  // least specific scope the zone ever returns
  std::uint8_t max_scope = 24;  // most specific
  double stop_probability = 0.45;  // per-level chance the scope stops early
  double scope_drift_probability = 0.0;
  std::uint64_t seed = 0;
};

/// The answer an authoritative gives for an ECS query, in direct-API form.
struct EcsAnswer {
  net::Ipv4Addr address;      // the A record (synthetic, scope-dependent)
  std::uint8_t scope_length;  // RFC 7871 scope the answer is valid for
  std::uint32_t ttl;
};

/// Outcome of one query attempt against the server's front end.
enum class QueryOutcome : std::uint8_t { kOk, kServfail, kTimeout };

/// Deterministic failure injection at the server's query edge. Outcomes
/// are pure functions of (seed, zone, prefix, epoch, attempt) — the zone
/// data and the scope computation stay untouched, so a retry (a new
/// attempt number) can deterministically succeed where the first try
/// failed, and runs stay byte-identical at any REPRO_THREADS. All-zero
/// defaults mean every query succeeds, exactly as before.
struct UpstreamFaults {
  double servfail_probability = 0;
  double timeout_probability = 0;
  std::uint64_t seed = 0x5EFA11;

  bool enabled() const {
    return servfail_probability > 0 || timeout_probability > 0;
  }
};

/// An ECS-enabled authoritative DNS server for a set of zones.
///
/// Deterministic: the scope returned for a given (zone, prefix, epoch) is a
/// pure function of the zone seed, so the scope-discovery pass of the
/// cache-probing pipeline sees exactly what Google Public DNS caches later
/// (minus deliberate drift).
class AuthoritativeServer {
 public:
  void add_zone(ZoneConfig config);
  bool serves(const dns::DnsName& name) const;
  const ZoneConfig* zone(const dns::DnsName& name) const;

  /// Heterogeneous lookup straight from packet bytes: hashes/compares the
  /// in-packet name (lowercasing on the fly) without materializing a
  /// DnsName — the zero-copy front door for wire-mode consumers.
  const ZoneConfig* zone(const dns::NameView& name) const;

  /// Injectable failure modes (SERVFAIL / timeout) applied at the query
  /// edge. Consumers ask `query_outcome` before resolve/scope_for; a
  /// default-constructed UpstreamFaults restores perfect service.
  void set_faults(UpstreamFaults faults) { faults_ = faults; }
  const UpstreamFaults& faults() const { return faults_; }

  /// The fate of attempt `attempt` of a query for (name, prefix) in
  /// `epoch`. Pure function of the fault seed and its arguments.
  QueryOutcome query_outcome(const dns::DnsName& name,
                             net::Prefix client_prefix, std::uint32_t epoch,
                             std::uint64_t attempt) const;

  /// Optional BGP topology (announced prefix → opaque value). Real CDN
  /// mapping systems derive ECS scopes from routing aggregates, so a scope
  /// never spans multiple announcements: when set, response scopes are
  /// clamped to be at least as specific as the announced prefix containing
  /// the client. The pointee must outlive the server.
  void set_topology(const net::PrefixTrie<std::uint32_t>* topology) {
    topology_ = topology;
  }

  /// Direct-API resolution: the answer `handle_wire` puts on the wire for
  /// the same name, client prefix and epoch. `epoch` distinguishes the
  /// scope-discovery pass from the probing campaign (Table 2 measures the
  /// drift between them). Returns nullopt for unknown zones.
  std::optional<EcsAnswer> resolve(const dns::DnsName& name,
                                   net::Prefix client_prefix,
                                   std::uint32_t epoch = 0) const;

  /// The scope length the zone would assign to `client_prefix` (without the
  /// synthetic answer). Exposed separately because scope discovery is a
  /// first-class pipeline stage.
  std::optional<std::uint8_t> scope_for(const dns::DnsName& name,
                                        net::Prefix client_prefix,
                                        std::uint32_t epoch = 0) const;

  /// RFC 1035 wire front end: parses the query packet in place and writes
  /// the reply into `arena` straight from the view (no allocation at
  /// steady state). FORMERR without a question, NXDOMAIN for an unknown
  /// zone; otherwise an AA answer — an A record for an A question — and
  /// the query's ECS option echoed with the assigned scope. Returns an
  /// empty span for unparseable queries. The reply depends only on the
  /// query's header, questions and EDNS state, so its RR sections stay
  /// unread. The result borrows the arena and is invalidated by the next
  /// write into it; `query_wire` must not live in `arena`.
  std::span<const std::uint8_t> handle_wire(
      std::span<const std::uint8_t> query_wire, std::uint32_t epoch,
      dns::WireArena& arena) const;

 private:
  /// Transparent hashing so `zones_` accepts both owning DnsName keys and
  /// borrowed NameView probes (which canonicalize raw packet bytes on the
  /// fly to the identical hash).
  struct ZoneKeyHash {
    using is_transparent = void;
    std::size_t operator()(const dns::DnsName& name) const {
      return static_cast<std::size_t>(name.hash());
    }
    std::size_t operator()(const dns::NameView& name) const {
      return static_cast<std::size_t>(name.canonical_hash());
    }
  };
  struct ZoneKeyEq {
    using is_transparent = void;
    bool operator()(const dns::DnsName& a, const dns::DnsName& b) const {
      return a == b;
    }
    bool operator()(const dns::NameView& a, const dns::DnsName& b) const {
      return a.equals(b);
    }
    bool operator()(const dns::DnsName& a, const dns::NameView& b) const {
      return b.equals(a);
    }
  };

  EcsAnswer answer_for(const ZoneConfig& zone, net::Prefix client_prefix,
                       std::uint32_t epoch) const;
  std::uint8_t base_scope(const ZoneConfig& zone,
                          net::Prefix client_prefix) const;
  std::uint8_t scoped(const ZoneConfig& zone, net::Prefix client_prefix,
                          std::uint32_t epoch) const;

  std::unordered_map<dns::DnsName, ZoneConfig, ZoneKeyHash, ZoneKeyEq> zones_;
  const net::PrefixTrie<std::uint32_t>* topology_ = nullptr;
  UpstreamFaults faults_;
};

}  // namespace netclients::dnssrv
