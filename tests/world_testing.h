#pragma once

// A digest over everything `sim::World::generate` fills: every block
// (float and location bits included), every AS with its ASdb entry, every
// resolver endpoint, every geolocation record and the world's totals. Two
// worlds with one digest look the same to every consumer in the tree, so
// the suites pin it and compare it across thread counts.

#include <bit>
#include <cstdint>

#include "net/rng.h"
#include "sim/world.h"

namespace netclients::sim::world_testing {

inline std::uint64_t world_digest(const World& world) {
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  const auto fold = [&digest](std::uint64_t word) {
    digest = net::hash_combine(digest, word);
  };
  const auto fold_float = [&fold](float value) {
    fold(std::bit_cast<std::uint32_t>(value));
  };
  const auto fold_double = [&fold](double value) {
    fold(std::bit_cast<std::uint64_t>(value));
  };
  const auto fold_location = [&fold_double](net::LatLon location) {
    fold_double(location.lat_deg);
    fold_double(location.lon_deg);
  };
  const auto fold_pop = [&fold](anycast::PopId pop) {
    fold(static_cast<std::uint64_t>(static_cast<std::int64_t>(pop)));
  };

  fold(world.blocks().size());
  for (const Slash24Block& block : world.blocks()) {
    fold(block.index);
    fold(block.as_index);
    fold(block.country);
    fold(block.routed);
    fold(block.resolver_infra);
    fold(block.ms_visible_resolver);
    fold(block.resolver_recurses);
    fold(block.junk_emitter);
    fold_float(block.users);
    fold_float(block.bot_users);
    fold_location(block.location);
    fold_pop(block.gdns_pop);
  }

  fold(world.ases().size());
  for (const AsEntry& as : world.ases()) {
    fold(as.asn);
    fold(as.country);
    fold(static_cast<std::uint64_t>(as.type));
    fold_double(as.users);
    fold_double(as.bot_users);
    fold(as.announced.size());
    for (const net::Prefix& prefix : as.announced) {
      fold(prefix.base().value());
      fold(prefix.length());
    }
    fold_double(as.google_dns_share);
    fold_double(as.other_public_share);
    fold_double(as.chromium_share);
    fold(as.runs_resolver);
    fold(as.resolver_host_as);
    fold(as.upstream_resolver_as);
    fold_double(as.central_resolved_users);
    fold_double(as.central_resolved_chromium_users);
    fold_pop(as.forced_pop);
    const auto category = world.asdb().lookup(as.asn);
    fold(category ? static_cast<std::uint64_t>(*category) + 1 : 0);
  }
  fold(world.asdb().size());

  fold(world.resolver_endpoints().size());
  for (const ResolverEndpoint& ep : world.resolver_endpoints()) {
    fold(ep.address.value());
    fold(ep.owner_as);
    fold(ep.host_as);
    fold(ep.sends_ecs);
    fold_pop(ep.pop);
    fold_double(ep.served_users);
    fold_double(ep.served_chromium_users);
  }

  fold(world.geodb().size());
  world.geodb().for_each([&](std::uint32_t index, const geo::GeoRecord& rec) {
    fold(index);
    fold_location(rec.location);
    fold_double(rec.error_radius_km);
    fold(rec.country);
  });

  fold_double(world.total_users());
  fold(world.address_space_end());
  return digest;
}

}  // namespace netclients::sim::world_testing
