#include "googledns/google_dns.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "core/obs/obs.h"
#include "dns/packet.h"

namespace netclients::googledns {

using anycast::PopId;

namespace {

// Per-probe outcome telemetry. Counters only (integer-commutative, so
// concurrent PoP shards stay deterministic in total); every counter is
// bumped at most once per probe call, never on interleaving-dependent
// events. `round_trips` counts upstream fetches, one per target the
// callers resolve plus the wire front end's answers: a fact about the
// input at any thread count.
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
  obs::Counter& hit_analytic =
      obs::Registry::global().counter("googledns.probe.hit_analytic");
  obs::Counter& miss = obs::Registry::global().counter("googledns.probe.miss");
  obs::Counter& round_trips =
      obs::Registry::global().counter("googledns.upstream.round_trips");

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
      states_(pops->size()) {}

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
  // One RFC 1035 round trip. The reply arena is per-thread so concurrent
  // callers never share write state, and the reply view borrows it only
  // within this frame.
  thread_local dns::WireArena reply_arena;
  ProbeMetrics::get().round_trips.add();
  const auto id = static_cast<std::uint16_t>(net::stable_seed(
      config_.seed ^ 0x3135u, domain.hash(),
      std::uint64_t{source.base().value()}, std::uint64_t{source.length()},
      std::uint64_t{config_.epoch}));
  // A name is at most 255 octets; with the header, the question's tail and
  // an OPT+ECS record a query stays well under 512 bytes.
  std::array<std::uint8_t, 512> query{};
  const std::uint8_t* end =
      dns::write_query(query.data(), id, domain, dns::RecordType::kA,
                       /*recursion_desired=*/false,
                       dns::EcsOption::for_query(source));
  const auto reply = upstream_->handle_wire(
      {query.data(), end}, config_.epoch, reply_arena);
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

UpstreamScope GooglePublicDns::upstream_scope(const dns::DnsName& domain,
                                              net::Prefix query_scope) const {
  const dnssrv::ZoneConfig* zone = upstream_->zone(domain);
  if (!zone) return {};
  // The authoritative's wire reply scopes its answer exactly as scope_for
  // would (scope 0 for ECS-oblivious zones).
  const auto answer = upstream_resolve(domain, query_scope);
  return {zone, answer ? answer->scope_length : std::uint8_t{255}};
}

ProbeTarget GooglePublicDns::target(PopId pop, const dns::DnsName& domain,
                                    net::Prefix query_scope,
                                    const UpstreamScope& upstream) const {
  (void)states_.at(static_cast<std::size_t>(pop));
  ProbeTarget target;
  target.domain = &domain;
  target.query_scope = query_scope;
  target.zone = upstream.zone;
  target.entry_scope = upstream.scope;
  // The scope the authoritative *currently* assigns to this block. Client
  // queries landing here were cached under that scope's block. RFC 7871:
  // a cached entry answers a query only when the entry's scope block
  // contains the query's source prefix — so if the scope drifted to be
  // more specific than our (previously discovered) query scope, every
  // probe misses and no rate is needed.
  if (!target.zone || target.entry_scope > query_scope.length()) {
    return target;
  }
  target.entry_block = query_scope.widen_to(target.entry_scope);
  if (activity_) target.rate = activity_->rate(pop, domain, target.entry_block);
  return target;
}

ProbeResult GooglePublicDns::probe(PopId pop, const ProbeTarget& target,
                                   net::SimTime now, Transport transport,
                                   int vp_id, int attempt, int retry) {
  PopState& pop_state = states_.at(static_cast<std::size_t>(pop));
  const dns::DnsName& domain = *target.domain;
  const net::Prefix query_scope = target.query_scope;
  ProbeResult result;
  result.pop = pop;
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

  if (!target.zone) {
    ProbeMetrics::get().unknown_zone.add();
    return result;  // unknown zone: nothing could be cached
  }
  if (target.entry_scope == 0) ProbeMetrics::get().scope_zero.add();
  if (target.entry_scope > query_scope.length()) {
    ProbeMetrics::get().scope_drift_miss.add();
    return result;
  }

  // Eviction storm: the entry this probe would have found is gone from its
  // pool, whatever the occupancy model says.
  if (evicted) {
    fault_counter("googledns.fault.evicted").add();
    ProbeMetrics::get().miss.add();
    return result;
  }

  // Analytic occupancy from the world's client activity. The rate is
  // evaluated at probe time, so diurnal worlds expose time-of-day
  // structure to the prober (the §6 temporal signal).
  const double rate = target.rate.at(now) /
                      static_cast<double>(config_.pools_per_pop);
  if (rate > 0) {
    // The prober cannot choose the pool its query lands in; redundant
    // attempts hash to (possibly repeated) pools.
    const int pool_index = static_cast<int>(
        net::stable_seed(config_.seed ^ 0x9001u,
                         static_cast<std::uint64_t>(pop),
                         static_cast<std::uint64_t>(vp_id),
                         static_cast<std::uint64_t>(attempt), domain.hash(),
                         std::uint64_t{query_scope.base().value()}) %
        static_cast<std::uint64_t>(config_.pools_per_pop));
    const std::uint32_t ttl = target.zone->ttl_seconds;
    double age = 0;
    if (analytic_present(pop, pool_index, domain, target.entry_block, ttl,
                         rate, now, &age)) {
      ProbeMetrics::get().hit_analytic.add();
      result.cache_hit = true;
      result.return_scope = target.entry_scope;
      result.remaining_ttl =
          static_cast<std::uint32_t>(std::max(0.0, ttl - age));
    }
  }
  if (!result.cache_hit) ProbeMetrics::get().miss.add();
  return result;
}

ProbeResult GooglePublicDns::probe(PopId pop, const dns::DnsName& domain,
                                   net::Prefix query_scope, net::SimTime now,
                                   Transport transport, int vp_id,
                                   int attempt, int retry) {
  // An out-of-table PoP throws before the round trip counts.
  (void)states_.at(static_cast<std::size_t>(pop));
  return probe(pop,
               target(pop, domain, query_scope,
                      upstream_scope(domain, query_scope)),
               now, transport, vp_id, attempt, retry);
}

std::span<const std::uint8_t> GooglePublicDns::handle_wire(
    std::span<const std::uint8_t> query_wire, net::LatLon source,
    std::uint64_t route_key, net::SimTime now, Transport transport,
    dns::WireArena& arena, int vp_id, const anycast::RouteBias& bias) {
  const auto view = dns::MessageView::parse(query_wire);
  if (!view) return {};
  if (view->question_count() == 0) {
    return dns::write_reply(arena, *view, {.rcode = dns::RCode::kFormErr});
  }
  const dns::MessageView::QuestionView& q = view->first_question();
  const PopId pop = pop_for(source, route_key, bias);

  // PoP identification service: TXT o-o.myaddr.l.google.com.
  if (q.type == dns::RecordType::kTxt && q.name.equals(myaddr_name())) {
    const dns::ReplyRecord record{dns::RecordType::kTxt, 60, {},
                                  pops_->site(pop).city};
    return dns::write_reply(arena, *view, {.ra = true}, &record);
  }

  const dns::DnsName qname = q.name.materialize();
  std::optional<dns::EcsOption> ecs;
  if (view->edns()) ecs = view->edns()->ecs;
  if (view->header().rd) {
    // Full recursion: one upstream round trip with the client's /24 as
    // the ECS source. Nothing is cached: occupancy comes only from the
    // activity model. The PoP is checked like every other branch's.
    (void)states_.at(static_cast<std::size_t>(pop));
    const net::Ipv4Addr client =
        ecs ? ecs->address
            : net::Ipv4Addr(static_cast<std::uint32_t>(route_key));
    const auto answer =
        upstream_resolve(qname, net::Prefix::slash24_of(client));
    if (!answer) {
      return dns::write_reply(arena, *view,
                              {.rcode = dns::RCode::kNxDomain});
    }
    const dns::ReplyRecord record{dns::RecordType::kA, answer->ttl,
                                  answer->address, {}};
    return dns::write_reply(arena, *view, {.ra = true}, &record,
                            answer->scope_length);
  }

  // RD=0: cache snooping.
  const net::Prefix query_scope = ecs ? ecs->source_prefix() : net::Prefix();
  const ProbeResult pr = probe(pop, qname, query_scope, now, transport, vp_id,
                               view->header().id);
  if (pr.status == ProbeStatus::kRateLimited) {
    return dns::write_reply(arena, *view, {.rcode = dns::RCode::kRefused});
  }
  // An injected timeout has no wire answer at all; the closest in-band
  // signal for the synchronous front end is SERVFAIL after the wait.
  if (pr.failed()) {
    return dns::write_reply(arena, *view, {.rcode = dns::RCode::kServFail});
  }
  if (!pr.cache_hit) return dns::write_reply(arena, *view, {.ra = true});
  const auto answer = upstream_resolve(qname, query_scope);
  const dns::ReplyRecord record{dns::RecordType::kA, pr.remaining_ttl,
                                answer ? answer->address : net::Ipv4Addr(0),
                                {}};
  return dns::write_reply(arena, *view, {.ra = true}, &record,
                          pr.return_scope);
}

}  // namespace netclients::googledns
