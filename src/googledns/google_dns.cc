#include "googledns/google_dns.h"

#include <algorithm>
#include <cmath>

#include "core/obs/obs.h"
#include "dns/packet.h"

namespace netclients::googledns {

using anycast::PopId;

namespace {

// Per-probe outcome telemetry. Counters only (integer-commutative, so
// concurrent PoP shards stay deterministic in total); every counter is
// bumped exactly once per probe/client_query call, never on memo fills or
// other interleaving-dependent events.
struct ProbeMetrics {
  obs::Counter& sent = obs::Registry::global().counter("googledns.probe.sent");
  obs::Counter& rate_limited =
      obs::Registry::global().counter("googledns.probe.rate_limited");
  obs::Counter& unknown_zone =
      obs::Registry::global().counter("googledns.probe.unknown_zone");
  obs::Counter& scope_zero =
      obs::Registry::global().counter("googledns.probe.scope_zero");
  obs::Counter& scope_drift_miss =
      obs::Registry::global().counter("googledns.probe.scope_drift_miss");
  obs::Counter& hit_explicit =
      obs::Registry::global().counter("googledns.probe.hit_explicit");
  obs::Counter& hit_analytic =
      obs::Registry::global().counter("googledns.probe.hit_analytic");
  obs::Counter& miss = obs::Registry::global().counter("googledns.probe.miss");
  obs::Counter& client_queries =
      obs::Registry::global().counter("googledns.client_query.sent");
  obs::Counter& client_cached =
      obs::Registry::global().counter("googledns.client_query.cached");

  static ProbeMetrics& get() {
    static ProbeMetrics metrics;
    return metrics;
  }
};

// Injected-fault telemetry. Looked up (and therefore registered) only on
// the failure paths, so a fault-free run's exported metric name set is
// byte-identical to a build without fault injection.
obs::Counter& fault_counter(const char* name) {
  return obs::Registry::global().counter(name);
}

bool in_window(const std::vector<TimeWindow>& windows, net::SimTime now) {
  for (const TimeWindow& w : windows) {
    if (w.contains(now)) return true;
  }
  return false;
}

}  // namespace

GooglePublicDns::GooglePublicDns(const anycast::PopTable* pops,
                                 const anycast::CatchmentModel* catchment,
                                 const dnssrv::AuthoritativeServer* upstream,
                                 GoogleDnsConfig config,
                                 const ClientActivityModel* activity)
    : pops_(pops),
      catchment_(catchment),
      upstream_(upstream),
      config_(config),
      activity_(activity),
      states_(pops->size()) {
  for (PopState& state : states_) {
    state.pools.assign(static_cast<std::size_t>(config_.pools_per_pop),
                       dnssrv::DnsCache(config_.pool_capacity));
  }
}

const dns::DnsName& GooglePublicDns::myaddr_name() {
  static const dns::DnsName name =
      *dns::DnsName::parse("o-o.myaddr.l.google.com");
  return name;
}

PopId GooglePublicDns::pop_for(net::LatLon location, std::uint64_t route_key,
                               const anycast::RouteBias& bias) const {
  return catchment_->pop_for(location, route_key, bias);
}

dnssrv::TokenBucket& GooglePublicDns::limiter(
    PopState& state, int vp_id, Transport transport,
    const dns::DnsName& domain) const {
  const std::uint64_t key = net::hash_combine(
      domain.hash(), (static_cast<std::uint64_t>(vp_id) << 1) |
                         (transport == Transport::kTcp ? 1u : 0u));
  auto it = state.limiters.find(key);
  if (it == state.limiters.end()) {
    const double qps = transport == Transport::kTcp
                           ? config_.tcp_qps_limit
                           : config_.udp_repeated_qps_limit;
    it = state.limiters.try_emplace(key, qps, qps).first;
  }
  return it->second;
}

std::optional<dnssrv::EcsAnswer> GooglePublicDns::upstream_resolve(
    const dns::DnsName& domain, net::Prefix source) const {
  // One RFC 1035 round trip. Arenas are per-thread so concurrent PoP
  // shards never share encode state, and the reply view borrows the reply
  // arena only within this frame.
  thread_local dns::WireArena query_arena;
  thread_local dns::WireArena reply_arena;
  const auto id = static_cast<std::uint16_t>(net::stable_seed(
      config_.seed ^ 0x3135u, domain.hash(),
      std::uint64_t{source.base().value()}, std::uint64_t{source.length()},
      std::uint64_t{config_.epoch}));
  const dns::DnsMessage query =
      dns::make_query(id, domain, dns::RecordType::kA, /*recursion_desired=*/
                      false, dns::EcsOption::for_query(source));
  const auto reply = upstream_->handle_wire(
      dns::encode_into(query, query_arena), config_.epoch, reply_arena);
  const auto view = dns::MessageView::parse(reply);
  if (!view || view->header().rcode != dns::RCode::kNoError) {
    return std::nullopt;  // unknown zone (NXDOMAIN) or unparseable reply
  }
  dnssrv::EcsAnswer answer{};
  bool have_a = false;
  view->for_each_record(
      dns::MessageView::Section::kAnswer,
      [&](const dns::MessageView::RecordView& record) {
        if (have_a) return;
        if (auto a = record.a_address()) {
          answer.address = *a;
          answer.ttl = record.ttl;
          have_a = true;
        }
      });
  if (!have_a) return std::nullopt;
  if (view->edns() && view->edns()->ecs) {
    answer.scope_length = view->edns()->ecs->scope_prefix_length;
  }
  return answer;
}

std::optional<std::uint8_t> GooglePublicDns::upstream_scope(
    const dns::DnsName& domain, net::Prefix block) const {
  // The authoritative's wire reply scopes its answer exactly as scope_for
  // would (scope 0 for ECS-oblivious zones, NXDOMAIN for unknown ones).
  auto answer = upstream_resolve(domain, block);
  if (!answer) return std::nullopt;
  return answer->scope_length;
}

void GooglePublicDns::client_query(PopId pop, const dns::DnsName& domain,
                                   net::Ipv4Addr client, net::SimTime now) {
  PopState& pop_state = states_.at(static_cast<std::size_t>(pop));
  // Google forwards the client's /24 as the ECS source (rarely more
  // specific, per [34]) and caches under the scope the authoritative
  // returns.
  const net::Prefix source = net::Prefix::slash24_of(client);
  ProbeMetrics::get().client_queries.add();
  auto answer = upstream_resolve(domain, source);
  if (!answer) return;
  ProbeMetrics::get().client_cached.add();
  const net::Prefix scope_block = source.widen_to(answer->scope_length);
  const int pool_index = static_cast<int>(net::stable_seed(
                             config_.seed ^ 0xC11E27u, client.value(),
                             static_cast<std::uint64_t>(now * 1000)) %
                         static_cast<std::uint64_t>(config_.pools_per_pop));
  dnssrv::CacheKey key{domain, dns::RecordType::kA, scope_block};
  dnssrv::CacheEntry entry;
  entry.rdata = dns::AData{answer->address};
  entry.scope_length = answer->scope_length;
  entry.original_ttl = answer->ttl;
  entry.expires_at = now + answer->ttl;
  pop_state.pools[static_cast<std::size_t>(pool_index)].insert(key, entry);
}

bool GooglePublicDns::analytic_present(PopId pop, int pool_index,
                                       const dns::DnsName& domain,
                                       net::Prefix scope_block,
                                       std::uint32_t ttl, double pool_rate,
                                       net::SimTime now,
                                       double* age_out) const {
  if (pool_rate <= 0 || ttl == 0) return false;
  const double window = ttl;
  const auto entry_seed = [&](std::int64_t window_index) {
    return net::stable_seed(
        config_.seed ^ 0x9E1Fu, static_cast<std::uint64_t>(pop),
        static_cast<std::uint64_t>(pool_index),
        std::hash<dns::DnsName>{}(domain),
        std::uint64_t{scope_block.base().value()},
        std::uint64_t{scope_block.length()},
        static_cast<std::uint64_t>(window_index));
  };
  const std::int64_t w = static_cast<std::int64_t>(std::floor(now / window));

  // Latest client arrival at or before `now`, looking back one TTL. Window
  // arrivals are Poisson(rate × window), uniform within the window; we
  // materialize the few points we need deterministically per window, so
  // repeated probes observe a consistent cache timeline.
  double latest = -1.0;
  for (std::int64_t x = w; x >= w - 1; --x) {
    net::Rng rng(entry_seed(x));
    const std::uint64_t n = rng.poisson(pool_rate * window);
    if (n == 0) continue;
    const double start = static_cast<double>(x) * window;
    if (n <= 16) {
      for (std::uint64_t i = 0; i < n; ++i) {
        const double at = start + window * rng.uniform();
        if (at <= now && at > latest) latest = at;
      }
    } else {
      // Dense window: the maximum of n uniforms, thinned to those <= now.
      const double cut = std::clamp((now - start) / window, 0.0, 1.0);
      if (cut > 0) {
        const double frac =
            cut * std::pow(rng.uniform(), 1.0 / (static_cast<double>(n) * cut));
        const double at = start + window * frac;
        if (at > latest) latest = at;
      }
    }
    if (latest >= 0) break;  // later window already gave the latest arrival
  }
  if (latest < 0 || now - latest >= ttl) return false;
  if (age_out) *age_out = now - latest;
  return true;
}

ProbeResult GooglePublicDns::probe(PopId pop, const dns::DnsName& domain,
                                   net::Prefix query_scope, net::SimTime now,
                                   Transport transport, int vp_id,
                                   int attempt, int retry) {
  PopState& pop_state = states_.at(static_cast<std::size_t>(pop));
  ProbeResult result;
  result.pop = pop;
  result.rtt_seconds = config_.rtt_for(transport);
  ProbeMetrics::get().sent.add();
  if (!limiter(pop_state, vp_id, transport, domain).allow(now)) {
    ProbeMetrics::get().rate_limited.add();
    result.status = ProbeStatus::kRateLimited;
    return result;
  }
  // Injected faults, decided by a per-probe oracle keyed on the probe's
  // identity (time quantized to the millisecond — finer than any two
  // distinct probes of one flow ever get). The draws happen in a fixed
  // order so enabling one fault class never perturbs another's stream.
  bool evicted = false;
  if (config_.faults.enabled()) {
    const FailureInjection& faults = config_.faults;
    net::Rng rng(net::stable_seed(
        faults.seed, static_cast<std::uint64_t>(pop),
        static_cast<std::uint64_t>(vp_id),
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(attempt)),
        static_cast<std::uint64_t>(static_cast<std::uint32_t>(retry)),
        domain.hash(), std::uint64_t{query_scope.base().value()},
        std::uint64_t{query_scope.length()},
        static_cast<std::uint64_t>(now * 1000.0)));
    const double failure_draw = rng.uniform();
    const double surge_draw = rng.uniform();
    const double evict_draw = rng.uniform();
    if (failure_draw < faults.timeout_probability) {
      fault_counter("googledns.fault.timeout").add();
      result.status = ProbeStatus::kTimeout;
      result.rtt_seconds = 0;  // nothing came back to clock an RTT against
      return result;
    }
    if (failure_draw <
        faults.timeout_probability + faults.servfail_probability) {
      fault_counter("googledns.fault.servfail").add();
      result.status = ProbeStatus::kServfail;
      return result;
    }
    if (faults.surge_refusal_probability > 0 &&
        in_window(faults.surge_windows, now) &&
        surge_draw < faults.surge_refusal_probability) {
      fault_counter("googledns.fault.surge_refused").add();
      result.status = ProbeStatus::kRateLimited;
      return result;
    }
    evicted = faults.eviction_probability > 0 &&
              in_window(faults.eviction_windows, now) &&
              evict_draw < faults.eviction_probability;
  }
  // The prober cannot choose the pool its query lands in; redundant
  // attempts hash to (possibly repeated) pools.
  const int pool_index = static_cast<int>(
      net::stable_seed(config_.seed ^ 0x9001u, static_cast<std::uint64_t>(pop),
                       static_cast<std::uint64_t>(vp_id),
                       static_cast<std::uint64_t>(attempt),
                       std::hash<dns::DnsName>{}(domain),
                       std::uint64_t{query_scope.base().value()}) %
      static_cast<std::uint64_t>(config_.pools_per_pop));

  // The scope the authoritative *currently* assigns to this block. Client
  // queries landing here were cached under that scope's block. RFC 7871:
  // a cached entry answers a query only when the entry's scope block
  // contains the query's source prefix — so if the scope drifted to be
  // more specific than our (previously discovered) query scope, we miss.
  // The memo holds the zone too, so a known zone is looked up once per
  // (domain, scope), not once per probe.
  const std::uint64_t memo_key = net::stable_seed(
      domain.hash(), std::uint64_t{query_scope.base().value()},
      std::uint64_t{query_scope.length()});
  auto memo = pop_state.scope_memo.find(memo_key);
  if (memo == pop_state.scope_memo.end()) {
    const dnssrv::ZoneConfig* zone = upstream_->zone(domain);
    if (!zone) {
      ProbeMetrics::get().unknown_zone.add();
      return result;  // unknown zone: nothing could be cached
    }
    memo = pop_state.scope_memo
               .emplace(memo_key,
                        ScopeMemo{zone, upstream_scope(domain, query_scope)
                                            .value_or(255)})
               .first;
  }
  const dnssrv::ZoneConfig& zone = *memo->second.zone;
  const std::uint8_t entry_scope = memo->second.scope;
  if (entry_scope == 0) ProbeMetrics::get().scope_zero.add();
  if (entry_scope > query_scope.length()) {
    ProbeMetrics::get().scope_drift_miss.add();
    return result;
  }
  const net::Prefix entry_block = query_scope.widen_to(entry_scope);

  // Eviction storm: the entry this probe would have found is gone from its
  // pool, whatever either occupancy source says.
  if (evicted) {
    fault_counter("googledns.fault.evicted").add();
    ProbeMetrics::get().miss.add();
    return result;
  }

  // Explicit (event-driven) pool contents take precedence: exact state.
  dnssrv::DnsCache& pool =
      pop_state.pools[static_cast<std::size_t>(pool_index)];
  if (const dnssrv::CacheEntry* entry = pool.lookup(
          dnssrv::CacheKeyRef{domain, dns::RecordType::kA, entry_block},
          now)) {
    ProbeMetrics::get().hit_explicit.add();
    result.cache_hit = true;
    result.return_scope = entry->scope_length;
    result.remaining_ttl = entry->remaining_ttl(now);
    return result;
  }

  // Analytic occupancy from the world's client activity. The rate is
  // sampled at probe time, so diurnal worlds expose time-of-day structure
  // to the prober (the §6 temporal signal).
  if (activity_) {
    const double rate =
        activity_->arrival_rate_at(pop, domain, entry_block, now) /
        static_cast<double>(config_.pools_per_pop);
    double age = 0;
    if (analytic_present(pop, pool_index, domain, entry_block,
                         zone.ttl_seconds, rate, now, &age)) {
      ProbeMetrics::get().hit_analytic.add();
      result.cache_hit = true;
      result.return_scope = entry_scope;
      result.remaining_ttl = static_cast<std::uint32_t>(
          std::max(0.0, zone.ttl_seconds - age));
    }
  }
  if (!result.cache_hit) ProbeMetrics::get().miss.add();
  return result;
}

std::size_t GooglePublicDns::explicit_entries() const {
  std::size_t total = 0;
  for (const PopState& pop_state : states_) {
    for (const dnssrv::DnsCache& p : pop_state.pools) total += p.size();
  }
  return total;
}

dns::DnsMessage GooglePublicDns::handle(const dns::DnsMessage& query,
                                        net::LatLon source,
                                        std::uint64_t route_key,
                                        net::SimTime now, Transport transport,
                                        int vp_id,
                                        const anycast::RouteBias& bias) {
  if (query.questions.empty()) {
    return dns::make_response(query, dns::RCode::kFormErr);
  }
  const dns::Question& q = query.questions.front();
  const PopId pop = pop_for(source, route_key, bias);

  // PoP identification service: TXT o-o.myaddr.l.google.com.
  if (q.name == myaddr_name() && q.type == dns::RecordType::kTxt) {
    dns::DnsMessage response = dns::make_response(query, dns::RCode::kNoError);
    response.header.ra = true;
    response.answers.push_back(dns::ResourceRecord{
        q.name, dns::RecordType::kTxt, dns::kClassIn, 60,
        dns::TxtData{pops_->site(pop).city}});
    return response;
  }

  if (query.header.rd) {
    // Full recursion: resolve and cache (explicit mode).
    net::Ipv4Addr client(static_cast<std::uint32_t>(route_key));
    if (query.edns && query.edns->ecs) {
      client = query.edns->ecs->address;
    }
    client_query(pop, q.name, client, now);
    auto answer = upstream_resolve(q.name, net::Prefix::slash24_of(client));
    if (!answer) return dns::make_response(query, dns::RCode::kNxDomain);
    dns::DnsMessage response = dns::make_response(query, dns::RCode::kNoError);
    response.header.ra = true;
    response.answers.push_back(dns::ResourceRecord{
        q.name, dns::RecordType::kA, dns::kClassIn, answer->ttl,
        dns::AData{answer->address}});
    if (response.edns && response.edns->ecs) {
      response.edns->ecs->scope_prefix_length = answer->scope_length;
    }
    return response;
  }

  // RD=0: cache snooping.
  net::Prefix query_scope;  // defaults to 0.0.0.0/0
  if (query.edns && query.edns->ecs) {
    query_scope = query.edns->ecs->source_prefix();
  }
  ProbeResult pr = probe(pop, q.name, query_scope, now, transport, vp_id,
                         query.header.id);
  if (pr.status == ProbeStatus::kRateLimited) {
    return dns::make_response(query, dns::RCode::kRefused);
  }
  if (pr.status == ProbeStatus::kServfail) {
    return dns::make_response(query, dns::RCode::kServFail);
  }
  // An injected timeout has no wire answer at all; the closest in-band
  // signal for the synchronous front end is SERVFAIL after the wait.
  if (pr.status == ProbeStatus::kTimeout) {
    return dns::make_response(query, dns::RCode::kServFail);
  }
  dns::DnsMessage response = dns::make_response(query, dns::RCode::kNoError);
  response.header.ra = true;
  if (pr.cache_hit) {
    auto answer = upstream_resolve(q.name, query_scope);
    response.answers.push_back(dns::ResourceRecord{
        q.name, dns::RecordType::kA, dns::kClassIn, pr.remaining_ttl,
        dns::AData{answer ? answer->address : net::Ipv4Addr(0)}});
    if (response.edns && response.edns->ecs) {
      response.edns->ecs->scope_prefix_length = pr.return_scope;
    }
  }
  return response;
}

std::span<const std::uint8_t> GooglePublicDns::handle_wire(
    std::span<const std::uint8_t> query_wire, net::LatLon source,
    std::uint64_t route_key, net::SimTime now, Transport transport,
    dns::WireArena& arena, int vp_id, const anycast::RouteBias& bias) {
  auto view = dns::MessageView::parse(query_wire);
  if (!view) return {};
  // handle() reads only the header, the questions, and the EDNS state, so
  // the query's RR sections are never materialized.
  dns::DnsMessage query;
  query.header = view->header();
  query.questions.reserve(view->question_count());
  view->for_each_question([&query](const dns::MessageView::QuestionView& q) {
    query.questions.push_back(
        dns::Question{q.name.materialize(), q.type, q.qclass});
  });
  query.edns = view->edns();
  return dns::encode_into(
      handle(query, source, route_key, now, transport, vp_id, bias), arena);
}

}  // namespace netclients::googledns
