#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "anycast/catchment.h"
#include "anycast/pop.h"
#include "asdb/asdb.h"
#include "dnssrv/authoritative.h"
#include "geo/geodb.h"
#include "net/prefix.h"
#include "net/prefix_trie.h"
#include "sim/config.h"
#include "sim/country.h"
#include "sim/domains.h"

namespace netclients::sim {

/// Business type of a synthetic AS; maps onto the ASdb taxonomy for the
/// §4 "who does APNIC miss" analysis.
enum class AsType : std::uint8_t {
  kIspEyeball,
  kMobileCarrier,
  kHostingCloud,
  kEducation,
  kEnterprise,
  kGovernment,
  kContentCdn,
  kTransit,
  kPublicDns,  // Google Public DNS / other public resolver operators
};

struct AsEntry {
  std::uint32_t asn = 0;
  std::uint16_t country = 0;  // index into World::countries()
  AsType type = AsType::kIspEyeball;

  double users = 0;      // ground-truth human web users
  double bot_users = 0;  // machine clients (hosting/cloud)

  std::vector<net::Prefix> announced;

  /// Resolver configuration of this AS's clients.
  double google_dns_share = 0.3;
  double other_public_share = 0.08;
  double chromium_share = 0.72;

  bool runs_resolver = false;
  /// AS index hosting this AS's resolver endpoints (self unless
  /// outsourced to a hosting provider).
  std::uint32_t resolver_host_as = 0;
  /// For ASes without their own resolver: index of the (same-country ISP)
  /// AS whose resolver their non-public-DNS clients use.
  std::uint32_t upstream_resolver_as = 0;

  /// Users whose queries flow through this AS's *central* resolver
  /// endpoints (own users + delegating child ASes, minus users behind
  /// block-level recursing forwarders and public-DNS users). Filled in the
  /// resolver pass.
  double central_resolved_users = 0;
  double central_resolved_chromium_users = 0;

  /// Anycast pathology: when set, all Google-DNS queries from this AS land
  /// on this PoP regardless of geography.
  anycast::PopId forced_pop = anycast::kNoPop;

  double total_clients() const { return users + bot_users; }
};

/// Ground truth for one allocated /24.
struct Slash24Block {
  std::uint32_t index = 0;  // address >> 8
  std::uint32_t as_index = kNoAs;
  std::uint16_t country = 0;
  bool routed = false;
  bool resolver_infra = false;  // hosts central resolver endpoints
  /// This client block contains a resolver visible to the CDN's
  /// authoritative DNS (CPE forwarder / enterprise resolver).
  bool ms_visible_resolver = false;
  /// That resolver recurses directly (hits the roots itself) rather than
  /// forwarding to the AS's central resolver.
  bool resolver_recurses = false;
  /// An unrelated host here emits root queries matching the Chromium
  /// signature (IoT connectivity checks, headless Chromium on servers):
  /// visible to DNS logs but not to the CDN's resolver view.
  bool junk_emitter = false;

  float users = 0;      // human web users in this /24
  float bot_users = 0;  // non-human web clients
  net::LatLon location;             // ground-truth location
  anycast::PopId gdns_pop = anycast::kNoPop;  // serving Google PoP

  static constexpr std::uint32_t kNoAs = 0xFFFFFFFF;

  double clients() const { return users + bot_users; }
};

/// A recursive-resolver endpoint as seen by authoritatives and roots.
struct ResolverEndpoint {
  net::Ipv4Addr address;
  std::uint32_t owner_as = 0;  // whose clients it serves
  std::uint32_t host_as = 0;   // where the address lives
  bool sends_ecs = false;      // Google Public DNS only
  anycast::PopId pop = anycast::kNoPop;  // for per-PoP Google egress
  double served_users = 0;
  double served_chromium_users = 0;
};

/// The fully generated synthetic Internet. Immutable after generate();
/// every downstream observation (CDN logs, APNIC estimates, DITL traces,
/// cache occupancy) is a deterministic function of this plus a seed.
class World {
 public:
  /// An empty world; populate via `generate`. Public so aggregates can
  /// default-construct and assign.
  World() = default;

  static World generate(const WorldConfig& config);

  const WorldConfig& config() const { return config_; }
  const std::vector<CountryInfo>& countries() const { return countries_; }
  const std::vector<AsEntry>& ases() const { return ases_; }
  const std::vector<Slash24Block>& blocks() const { return blocks_; }
  const std::vector<ResolverEndpoint>& resolver_endpoints() const {
    return resolver_endpoints_;
  }
  const anycast::PopTable& pops() const { return *pops_; }
  const anycast::CatchmentModel& catchment() const { return *catchment_; }
  const std::vector<DomainInfo>& domains() const { return domains_; }
  const dnssrv::AuthoritativeServer& authoritative() const { return auth_; }
  const geo::GeoDatabase& geodb() const { return geodb_; }
  const asdb::AsdbDatabase& asdb() const { return asdb_; }
  const net::PrefixTrie<std::uint32_t>& prefix2as() const {
    return *prefix2as_;
  }
  std::uint32_t google_as() const { return google_as_; }
  std::uint32_t other_public_as() const { return other_public_as_; }

  /// Binary search for a /24's ground truth; nullptr if unallocated.
  const Slash24Block* block_at(std::uint32_t slash24_index) const;

  /// Positions [first, last) in blocks() covered by `prefix`.
  std::pair<std::size_t, std::size_t> block_range(net::Prefix prefix) const;

  /// Client DNS query rate (queries/second) from this block for domain
  /// `d`, restricted to clients using Google Public DNS.
  double gdns_rate(const Slash24Block& block, int domain_index) const {
    return gdns_human_rate(block, domain_index) +
           gdns_bot_rate(block, domain_index);
  }
  /// The human component (subject to the diurnal cycle) and the bot
  /// component (flat) of gdns_rate.
  double gdns_human_rate(const Slash24Block& block, int domain_index) const;
  double gdns_bot_rate(const Slash24Block& block, int domain_index) const;

  /// Same, for all resolvers (used by the CDN's authoritative view).
  double total_domain_rate(const Slash24Block& block, int domain_index) const;

  double country_domain_multiplier(std::uint16_t country,
                                   int domain_index) const;

  /// Total ground-truth users (scaled world).
  double total_users() const { return total_users_; }

  /// The last allocated /24 index + 1 (scan upper bound).
  std::uint32_t address_space_end() const { return space_end_; }

 private:
  WorldConfig config_;
  std::vector<CountryInfo> countries_;
  std::vector<AsEntry> ases_;
  std::vector<Slash24Block> blocks_;  // sorted by index
  std::vector<ResolverEndpoint> resolver_endpoints_;
  std::unique_ptr<anycast::PopTable> pops_;
  std::unique_ptr<anycast::CatchmentModel> catchment_;
  std::vector<DomainInfo> domains_;
  dnssrv::AuthoritativeServer auth_;
  geo::GeoDatabase geodb_;
  asdb::AsdbDatabase asdb_;
  // Heap-allocated: the authoritative server keeps a topology pointer to
  // it, which must stay valid when the World is moved.
  std::unique_ptr<net::PrefixTrie<std::uint32_t>> prefix2as_ =
      std::make_unique<net::PrefixTrie<std::uint32_t>>();
  std::uint32_t google_as_ = 0;
  std::uint32_t other_public_as_ = 0;
  double total_users_ = 0;
  std::uint32_t space_end_ = 0;
};

}  // namespace netclients::sim
