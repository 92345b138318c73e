#include "dnssrv/authoritative.h"

#include <algorithm>

namespace netclients::dnssrv {

void AuthoritativeServer::add_zone(ZoneConfig config) {
  zones_.insert_or_assign(config.name, std::move(config));
}

bool AuthoritativeServer::serves(const dns::DnsName& name) const {
  return zones_.contains(name);
}

const ZoneConfig* AuthoritativeServer::zone(const dns::DnsName& name) const {
  auto it = zones_.find(name);
  return it == zones_.end() ? nullptr : &it->second;
}

const ZoneConfig* AuthoritativeServer::zone(const dns::NameView& name) const {
  auto it = zones_.find(name);
  return it == zones_.end() ? nullptr : &it->second;
}

QueryOutcome AuthoritativeServer::query_outcome(const dns::DnsName& name,
                                                net::Prefix client_prefix,
                                                std::uint32_t epoch,
                                                std::uint64_t attempt) const {
  if (!faults_.enabled()) return QueryOutcome::kOk;
  net::Rng rng(net::stable_seed(
      faults_.seed, name.hash(), std::uint64_t{client_prefix.base().value()},
      std::uint64_t{client_prefix.length()}, std::uint64_t{epoch}, attempt));
  const double draw = rng.uniform();
  if (draw < faults_.timeout_probability) return QueryOutcome::kTimeout;
  if (draw < faults_.timeout_probability + faults_.servfail_probability) {
    return QueryOutcome::kServfail;
  }
  return QueryOutcome::kOk;
}

std::uint8_t AuthoritativeServer::base_scope(const ZoneConfig& zone,
                                             net::Prefix prefix) const {
  // Hierarchical stop-walk: starting at the least specific scope the zone
  // uses, each enclosing block decides (deterministically, keyed by its own
  // identity) whether the scope "stops" at its level. Because the decision
  // for level L depends only on the level-L block containing the client
  // prefix, every /24 inside a returned scope block maps to the same scope —
  // the consistency property the probe-reduction preprocessing relies on.
  for (std::uint8_t level = zone.min_scope; level < zone.max_scope; ++level) {
    const std::uint32_t block =
        prefix.base().value() & net::Prefix::mask(level);
    const std::uint64_t h =
        net::stable_seed(zone.seed, std::uint64_t{block}, std::uint64_t{level});
    net::Rng rng(h);
    if (rng.uniform() < zone.stop_probability) return level;
  }
  return zone.max_scope;
}

std::uint8_t AuthoritativeServer::scoped(const ZoneConfig& zone,
                                         net::Prefix prefix,
                                         std::uint32_t epoch) const {
  std::uint8_t scope = base_scope(zone, prefix);
  if (zone.scope_drift_probability > 0 && epoch != 0) {
    // Occasionally the authoritative re-assigns a block's scope between
    // epochs. The drift magnitude is geometric-ish: mostly ±1..2, rarely
    // more — matching Table 2 where 90% of hits match exactly, 97% are
    // within 2, and 99% within 4.
    const std::uint32_t block =
        prefix.base().value() & net::Prefix::mask(scope);
    net::Rng rng(net::stable_seed(zone.seed ^ 0xd1f7u, std::uint64_t{block},
                                  std::uint64_t{epoch}));
    if (rng.uniform() < zone.scope_drift_probability) {
      int delta = 1 + static_cast<int>(rng.exponential(0.9));
      if (rng.bernoulli(0.5)) delta = -delta;
      int drifted = std::clamp<int>(scope + delta, zone.min_scope, 24);
      scope = static_cast<std::uint8_t>(drifted);
    }
  }
  if (topology_) {
    // Scopes follow routing aggregates: never wider than the announcement
    // containing the client prefix.
    if (auto match = topology_->longest_match(prefix.base())) {
      scope = std::max(scope, match->first.length());
    }
  }
  return scope;
}

std::optional<std::uint8_t> AuthoritativeServer::scope_for(
    const dns::DnsName& name, net::Prefix client_prefix,
    std::uint32_t epoch) const {
  const ZoneConfig* z = zone(name);
  if (!z) return std::nullopt;
  if (!z->supports_ecs) return 0;
  return scoped(*z, client_prefix, epoch);
}

std::optional<EcsAnswer> AuthoritativeServer::resolve(
    const dns::DnsName& name, net::Prefix client_prefix,
    std::uint32_t epoch) const {
  const ZoneConfig* z = zone(name);
  if (!z) return std::nullopt;
  return answer_for(*z, client_prefix, epoch);
}

EcsAnswer AuthoritativeServer::answer_for(const ZoneConfig& zone,
                                          net::Prefix client_prefix,
                                          std::uint32_t epoch) const {
  EcsAnswer answer{};
  answer.ttl = zone.ttl_seconds;
  answer.scope_length =
      zone.supports_ecs ? scoped(zone, client_prefix, epoch) : 0;
  // Synthetic CDN mapping: the answer address is a deterministic function of
  // the zone and the scope block, mimicking per-region CDN front ends.
  const std::uint32_t block =
      client_prefix.base().value() & net::Prefix::mask(answer.scope_length);
  answer.address = net::Ipv4Addr(static_cast<std::uint32_t>(
      net::stable_seed(zone.seed ^ 0xA0u, std::uint64_t{block})));
  return answer;
}

std::span<const std::uint8_t> AuthoritativeServer::handle_wire(
    std::span<const std::uint8_t> query_wire, std::uint32_t epoch,
    dns::WireArena& arena) const {
  const auto view = dns::MessageView::parse(query_wire);
  if (!view) return {};
  if (view->question_count() == 0) {
    return dns::write_reply(arena, *view, {.rcode = dns::RCode::kFormErr});
  }
  const dns::MessageView::QuestionView& q = view->first_question();
  const ZoneConfig* z = zone(q.name);
  if (!z) {
    return dns::write_reply(arena, *view, {.rcode = dns::RCode::kNxDomain});
  }
  net::Prefix client_prefix;  // 0.0.0.0/0 when no ECS attached
  if (view->edns() && view->edns()->ecs) {
    client_prefix = view->edns()->ecs->source_prefix();
  }
  const EcsAnswer a = answer_for(*z, client_prefix, epoch);
  const dns::ReplyRecord record{dns::RecordType::kA, a.ttl, a.address, {}};
  return dns::write_reply(arena, *view, {.aa = true},
                          q.type == dns::RecordType::kA ? &record : nullptr,
                          a.scope_length);
}

}  // namespace netclients::dnssrv
