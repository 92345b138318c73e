// Workload `serve_churn`: the serving tier at realistic index size with
// writes beside reads. Set-up builds a fixed synthetic chain of epochs
// (about 1M disjoint prefixes each, about 5% churn between neighbours),
// round-trips it through the snapshot codec, and seeds one
// `serve::Service` with a 2-epoch window. The run then drives three
// threads at once for the run's duration:
//
//   * batch reader — closed loop, one caller: acquire() + lookup_many of
//     256 addresses (threads = 1) per iteration;
//   * wire reader — closed loop, one caller: netsvc::Client requests over
//     its own bus to a netsvc::Server (lookup_threads = 1); 8 addresses
//     over UDP, every 16th request 128 addresses over TCP;
//   * publisher — publishes the next epoch of the chain at a fixed period.
//
// Addresses: half zipf-drawn from the active prefixes (hot), half uniform
// over the routed space (cold, mostly misses).
//
// `work_ms` is the wire reader's median request latency (what a client of
// the served dataset waits for) and `items_per_s` the batch reader's
// address throughput. Correctness: after the run, with the publisher
// stopped, a replayed sample of wire answers must equal direct
// `lookup_many` and `lookup_reference` on the same pinned snapshot;
// failed netsvc chunks count as failed requests.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/serve/service.h"
#include "core/snapshot/snapshot.h"
#include "net/prefix.h"
#include "net/rng.h"
#include "net/zipf.h"
#include "netsim/bus.h"
#include "netsvc/client.h"
#include "netsvc/protocol.h"
#include "netsvc/server.h"
#include "tracer.h"

namespace perfbench {

namespace nc = netclients;
namespace core = netclients::core;
namespace snapshot = netclients::core::snapshot;
using nc::net::Ipv4Addr;
using nc::net::Prefix;
using Span = Tracer::Span;

namespace {

struct Config {
  /// The chain is the benchmark's fixed, named input; the run's seed
  /// draws the address mix. The index built from a per-seed chain set
  /// the batch reader's throughput: two seeds in five read 25% slower
  /// on every run.
  std::uint64_t chain_seed = 42;
  /// Candidate prefixes; about 91% are active in any one epoch.
  std::size_t universe = 1'150'000;
  std::uint32_t routed_slash24s = 12'000'000;
  std::size_t chain_epochs = 4;
  std::size_t window = 2;
  std::size_t address_pool = 1 << 20;
  std::size_t batch = 256;
  std::size_t udp_request = 8;
  std::size_t tcp_request = 128;
  std::size_t tcp_every = 16;
  double publish_period_s = 2.0;
  int setup_reps = 3;
  std::size_t replay_sample = 8192;
  std::size_t reservoir = 1 << 20;
};

constexpr std::uint32_t kRoutedBase = 1u << 16;  // 1.0.0.0/24
constexpr double kActiveShare = 0.91;
constexpr double kDropRate = 0.025;  // per epoch; adds balance it

/// The candidate prefixes: disjoint, address-ordered, mostly /24s with
/// some /23–/22 aggregates and some sub-/24 scopes (which give the index
/// slots with sub-/24 structure).
std::vector<Prefix> make_universe(const Config& config, nc::net::Rng& rng) {
  std::vector<Prefix> universe;
  universe.reserve(config.universe);
  const double mean_gap =
      static_cast<double>(config.routed_slash24s) / config.universe;
  std::uint32_t s = kRoutedBase;
  const std::uint32_t end = kRoutedBase + config.routed_slash24s;
  while (universe.size() < config.universe) {
    s += static_cast<std::uint32_t>(rng() % static_cast<std::uint64_t>(
                                                2 * mean_gap - 1));
    const double kind = rng.uniform();
    std::uint8_t length = 24;
    std::uint32_t span24 = 1;
    if (kind < 0.12) {
      length = 23;
      span24 = 2;
    } else if (kind < 0.16) {
      length = 22;
      span24 = 4;
    } else if (kind < 0.26) {
      length = static_cast<std::uint8_t>(25 + rng() % 4);
    }
    s = (s + span24 - 1) & ~(span24 - 1);
    if (s + span24 > end) break;
    std::uint32_t base = s << 8;
    if (length > 24) {
      const std::uint32_t size = 1u << (32 - length);
      base += static_cast<std::uint32_t>(rng() % (256 / size)) * size;
    }
    universe.emplace_back(Ipv4Addr(base), length);
    s += span24;
  }
  return universe;
}

/// Epoch `id` of the chain from per-prefix membership and volumes.
snapshot::EpochRecord make_record(std::uint32_t id, std::uint64_t seed,
                                  const std::vector<Prefix>& universe,
                                  const std::vector<bool>& active,
                                  const std::vector<double>& volume) {
  snapshot::EpochRecord record;
  record.epoch_id = id;
  record.world_seed = seed;
  record.domain_count = 5;
  std::map<std::uint32_t, snapshot::AsAggregate> by_as;
  std::map<std::uint16_t, snapshot::CountryAggregate> by_country;
  for (std::size_t j = 0; j < universe.size(); ++j) {
    if (!active[j]) continue;
    snapshot::PrefixEntry entry;
    entry.prefix = universe[j];
    entry.volume = volume[j];
    entry.asn = 64512 + static_cast<std::uint32_t>(j / 40);
    entry.country = static_cast<std::uint16_t>((entry.asn * 7) % 200);
    entry.domain_mask = 1u + static_cast<std::uint32_t>(j % 31);
    record.prefixes.push_back(entry);
    auto& as = by_as[entry.asn];
    as.asn = entry.asn;
    as.volume += entry.volume;
    ++as.prefixes;
    auto& country = by_country[entry.country];
    country.country = entry.country;
    country.volume += entry.volume;
    ++country.prefixes;
  }
  for (const auto& [asn, as] : by_as) record.as_aggregates.push_back(as);
  for (const auto& [c, country] : by_country) {
    record.countries.push_back(country);
  }
  record.totals.cache_hits = record.prefixes.size();
  record.totals.probes_sent = record.prefixes.size() * 5;
  record.totals.slash24_lower = record.prefixes.size();
  record.totals.slash24_upper = record.prefixes.size();
  return record;
}

/// The synthetic chain: a Markov walk over the universe where each
/// active prefix drops out with kDropRate per epoch and inactive ones
/// join at the rate that keeps the active share stationary; a tenth of
/// the persisting prefixes change volume.
std::vector<snapshot::EpochRecord> make_chain(
    const Config& config, std::uint64_t seed,
    const std::vector<Prefix>& universe, nc::net::Rng& rng) {
  const std::size_t n = universe.size();
  const double add_rate = kDropRate * kActiveShare / (1 - kActiveShare);
  std::vector<bool> active(n);
  std::vector<double> volume(n);
  for (std::size_t j = 0; j < n; ++j) {
    active[j] = rng.bernoulli(kActiveShare);
    volume[j] = std::floor(rng.pareto(1.0, 1.2));
  }
  std::vector<snapshot::EpochRecord> chain;
  for (std::size_t e = 0; e < config.chain_epochs; ++e) {
    if (e > 0) {
      for (std::size_t j = 0; j < n; ++j) {
        if (active[j]) {
          if (rng.bernoulli(kDropRate)) {
            active[j] = false;
          } else if (rng.bernoulli(0.1)) {
            volume[j] = std::floor(rng.pareto(1.0, 1.2));
          }
        } else if (rng.bernoulli(add_rate)) {
          active[j] = true;
        }
      }
    }
    chain.push_back(make_record(static_cast<std::uint32_t>(e), seed,
                                universe, active, volume));
  }
  return chain;
}

/// Half hot (zipf over the first epoch's active prefixes, in a seeded
/// rank order), half cold (uniform over the routed space).
std::vector<Ipv4Addr> make_addresses(const Config& config,
                                     const snapshot::EpochRecord& epoch,
                                     nc::net::Rng& rng) {
  const std::size_t n = epoch.prefixes.size();
  std::vector<std::uint32_t> rank(n);
  for (std::size_t i = 0; i < n; ++i) rank[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(rank[i - 1], rank[rng() % i]);
  }
  const nc::net::ZipfSampler zipf(n, 1.0);
  std::vector<Ipv4Addr> addrs;
  addrs.reserve(config.address_pool);
  for (std::size_t i = 0; i < config.address_pool; ++i) {
    if (i % 2 == 0) {
      const Prefix p = epoch.prefixes[rank[zipf.sample(rng)]].prefix;
      const std::uint64_t size = std::uint64_t{1} << (32 - p.length());
      addrs.emplace_back(p.base().value() +
                         static_cast<std::uint32_t>(rng() % size));
    } else {
      addrs.emplace_back(
          (kRoutedBase << 8) +
          static_cast<std::uint32_t>(
              rng() % (std::uint64_t{config.routed_slash24s} << 8)));
    }
  }
  return addrs;
}

/// Everything set-up produces.
struct Fixture {
  std::vector<snapshot::EpochRecord> chain;  // decoded from the codec
  std::vector<Ipv4Addr> addrs;
  std::size_t snapshot_bytes = 0;
  double encode_s = 0;
  double decode_s = 0;
  bool ok = false;
};

Fixture set_up(const Config& config, std::uint64_t seed, Tracer* tracer) {
  Fixture fixture;
  std::string bytes;
  {
    std::vector<snapshot::EpochRecord> chain;
    {
      Span span(tracer, "serve_churn.make_chain");
      nc::net::Rng rng(
          nc::net::stable_seed(config.chain_seed, 0x53455256u /* "SERV" */));
      chain = make_chain(config, config.chain_seed,
                         make_universe(config, rng), rng);
    }
    Span span(tracer, "snapshot.encode");
    bytes = snapshot::encode(chain);
    fixture.encode_s = span.elapsed();
  }
  std::optional<snapshot::SnapshotFile> decoded;
  {
    Span span(tracer, "snapshot.decode");
    decoded = snapshot::decode(bytes);
    fixture.decode_s = span.elapsed();
  }
  fixture.snapshot_bytes = bytes.size();
  // Encoding is deterministic, so re-encoding the decoded chain to the
  // same bytes proves the round trip without keeping two chains alive.
  fixture.ok = decoded && decoded->stats.epochs_skipped == 0 &&
               decoded->epochs.size() == config.chain_epochs &&
               snapshot::encode(decoded->epochs) == bytes;
  if (!fixture.ok) return fixture;
  fixture.chain = std::move(decoded->epochs);
  nc::net::Rng rng(nc::net::stable_seed(seed, 0x41444452u /* "ADDR" */));
  fixture.addrs = make_addresses(config, fixture.chain.front(), rng);
  return fixture;
}

/// Chain index of the n-th publish: a ping-pong walk 0,1,..,k-1,k-2,..,1,
/// 0,1,... so consecutive publishes always differ by one churn step.
std::size_t chain_index(std::size_t n, std::size_t k) {
  if (k < 2) return 0;
  const std::size_t period = 2 * (k - 1);
  const std::size_t r = n % period;
  return r < k ? r : period - r;
}

struct BatchStats {
  std::uint64_t batches = 0;
  std::uint64_t hits = 0;
  double seconds = 0;
};

struct WireStats {
  std::uint64_t requests = 0;
  std::uint64_t addresses = 0;
  std::uint64_t wire_bytes = 0;
  double seconds = 0;
};

}  // namespace

int run_serve_churn(const Settings& settings, Report& report,
                    Tracer* tracer) {
  Config config;
  if (settings.smoke) {
    config.universe = 20'000;
    config.routed_slash24s = 200'000;
    config.chain_epochs = 4;
    config.address_pool = 1 << 14;
    config.publish_period_s = 0.1;
    config.setup_reps = 2;
    config.replay_sample = 1024;
    config.reservoir = 1 << 14;
  }
  if (tracer) config.setup_reps = 1;
  // The traced run lasts for a fixed number of publishes, so that
  // serve.publish_ms is a median of that many.
  constexpr double kTracedPublishes = 10;
  const double run_seconds =
      tracer ? (kTracedPublishes + 0.5) * config.publish_period_s
             : settings.seconds;

  // Set-up, repeated; each repetition rebuilds the chain and the service.
  std::vector<double> setup_s;
  Fixture fixture;
  std::optional<core::serve::Service> service;
  core::serve::ServiceOptions service_options;
  service_options.shards = 4;
  service_options.max_epochs = config.window;
  std::size_t published = 0;
  for (int rep = 0; rep < config.setup_reps; ++rep) {
    service.reset();
    fixture = Fixture{};
    const auto start = Clock::now();
    fixture = set_up(config, settings.seed, tracer);
    report.require(fixture.ok, "serve_churn: chain survives encode/decode");
    if (!fixture.ok) return 1;
    service.emplace(service_options);
    for (published = 0; published < config.window; ++published) {
      service->publish(fixture.chain[chain_index(published,
                                                 fixture.chain.size())]);
    }
    setup_s.push_back(seconds_since(start));
  }
  const std::vector<Ipv4Addr>& addrs = fixture.addrs;
  std::fprintf(stderr,
               "[perfbench] serve_churn: set-up %.2f s, peak RSS %.0f MiB\n",
               median(setup_s), peak_rss_mib());

  // The wire side: one server and two clients over one bus, driven only
  // by the wire-reader thread (the bus is single-threaded).
  nc::netsim::MessageBus bus;
  nc::netsvc::ServerOptions server_options;
  server_options.lookup_threads = 1;
  const Ipv4Addr server_addr(0x0A000001u);
  nc::netsvc::Server server(bus, *service, server_addr, server_options);
  nc::netsvc::ClientOptions udp_options;
  udp_options.batch_per_message = config.udp_request;
  nc::netsvc::ClientOptions tcp_options;
  tcp_options.batch_per_message = config.tcp_request;
  tcp_options.transport = nc::googledns::Transport::kTcp;
  nc::netsvc::Client udp_client(bus, Ipv4Addr(0x0A000002u), server_addr,
                                udp_options);
  nc::netsvc::Client tcp_client(bus, Ipv4Addr(0x0A000003u), server_addr,
                                tcp_options);

  Reservoir batch_latency(config.reservoir, settings.seed ^ 1);
  Reservoir request_latency(config.reservoir, settings.seed ^ 2);
  std::vector<double> publish_s;
  publish_s.reserve(1024);
  BatchStats batch_stats;
  WireStats wire_stats;
  const std::uint64_t acquires_before = counter("serve.service.acquires");
  std::atomic<bool> stop{false};

  const auto batch_reader = [&] {
    std::vector<core::serve::LookupResult> out(config.batch);
    std::size_t pos = 0;
    const auto start = Clock::now();
    while (!stop.load(std::memory_order_relaxed)) {
      if (pos + config.batch > addrs.size()) pos = 0;
      const std::span<const Ipv4Addr> batch(addrs.data() + pos, config.batch);
      pos += config.batch;
      const auto t0 = Clock::now();
      {
        const core::serve::SnapshotHandle handle = service->acquire();
        handle->lookup_many(batch, out.data(), 1);
        batch_latency.add(seconds_since(t0));
      }
      for (const auto& r : out) batch_stats.hits += r.active;
      ++batch_stats.batches;
    }
    batch_stats.seconds = seconds_since(start);
  };

  const auto wire_reader = [&] {
    std::vector<core::serve::LookupResult> out(config.tcp_request);
    // Offset from the batch reader so the two do not walk in lockstep.
    std::size_t pos = addrs.size() / 2;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const bool tcp = i % config.tcp_every == config.tcp_every - 1;
      const std::size_t n = tcp ? config.tcp_request : config.udp_request;
      if (pos + n > addrs.size()) pos = 0;
      const std::span<const Ipv4Addr> request(addrs.data() + pos, n);
      pos += n;
      // Per-request spans would cost as much as the request; the traced
      // run records one in 1024 and counts every request.
      Span span(tracer && i % 1024 == 0 ? tracer : nullptr,
                tcp ? "netsvc.request.tcp" : "netsvc.request.udp");
      const auto t0 = Clock::now();
      (tcp ? tcp_client : udp_client).lookup_many(request, out.data());
      request_latency.add(seconds_since(t0));
      ++wire_stats.requests;
      wire_stats.addresses += n;
      const std::size_t query = nc::netsvc::query_wire_size(n);
      wire_stats.wire_bytes +=
          query + nc::netsvc::response_wire_size(query - 12, n);
    }
    wire_stats.seconds = seconds_since(start);
  };

  const auto publisher = [&] {
    const auto start = Clock::now();
    for (std::size_t k = 1; !stop.load(std::memory_order_relaxed); ++k) {
      const auto due = start + std::chrono::duration<double>(
                                   k * config.publish_period_s);
      while (Clock::now() < due && !stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (stop.load(std::memory_order_relaxed)) break;
      snapshot::EpochRecord next =
          fixture.chain[chain_index(published, fixture.chain.size())];
      next.epoch_id = static_cast<std::uint32_t>(published);
      ++published;
      Span span(tracer, "serve.publish");
      service->publish(std::move(next));
      publish_s.push_back(span.elapsed());
    }
  };

  {
    Span span(tracer, "serve_churn.run");
    std::thread batch_thread(batch_reader);
    std::thread wire_thread(wire_reader);
    std::thread publish_thread(publisher);
    std::this_thread::sleep_for(std::chrono::duration<double>(run_seconds));
    stop.store(true);
    batch_thread.join();
    wire_thread.join();
    publish_thread.join();
  }
  const std::uint64_t acquires =
      counter("serve.service.acquires") - acquires_before;
  const nc::netsvc::ClientStats udp = udp_client.stats();
  const nc::netsvc::ClientStats tcp = tcp_client.stats();
  const std::uint64_t failed_chunks = udp.failed_chunks + tcp.failed_chunks;
  report.tally(batch_stats.batches, 0, "serve_churn batches");
  report.tally(wire_stats.requests, failed_chunks, "serve_churn requests");
  report.tally(publish_s.size(), 0, "serve_churn publishes");
  report.require(!publish_s.empty(), "serve_churn: publisher ran");

  // Replay with the publisher stopped: wire answers, direct lookup_many
  // and the trie oracle must agree on the pinned snapshot.
  const core::serve::SnapshotHandle pinned = service->acquire();
  {
    const std::size_t sample = std::min(config.replay_sample, addrs.size());
    const std::span<const Ipv4Addr> replay(addrs.data(), sample);
    std::vector<core::serve::LookupResult> direct(sample);
    pinned->lookup_many(replay, direct.data(), 1);
    std::vector<core::serve::LookupResult> wire(sample);
    for (std::size_t off = 0; off < sample;) {
      const bool tcp_chunk = (off / config.udp_request) % 2 == 1;
      const std::size_t n =
          std::min(tcp_chunk ? config.tcp_request : config.udp_request,
                   sample - off);
      (tcp_chunk ? tcp_client : udp_client)
          .lookup_many(replay.subspan(off, n), wire.data() + off);
      off += n;
    }
    std::uint64_t mismatches = 0;
    for (std::size_t i = 0; i < sample; ++i) {
      if (wire[i] != direct[i] ||
          direct[i] != pinned->index().lookup_reference(replay[i])) {
        ++mismatches;
      }
    }
    report.tally(sample, mismatches, "serve_churn replayed addresses");
    report.require(service->version() == pinned->version(),
                   "serve_churn: replay pinned the served version");
  }

  const std::vector<double> batches = batch_latency.values();
  const std::vector<double> requests = request_latency.values();
  const double lookups_per_s = ratio(
      static_cast<double>(batch_stats.batches * config.batch),
      batch_stats.seconds);
  std::fprintf(stderr,
               "[perfbench] serve_churn: %zu prefixes in the index, %llu "
               "batches, %llu requests, %zu publishes (median %.1f ms)\n",
               pinned->index().prefix_count(),
               static_cast<unsigned long long>(batch_stats.batches),
               static_cast<unsigned long long>(wire_stats.requests),
               publish_s.size(), median(publish_s) * 1e3);
  std::fprintf(stderr,
               "[perfbench] serve_churn: batch p50 %.3f us p99 %.3f us, "
               "request p50 %.3f us p99 %.3f us, %.0f requests/s "
               "(%.0f addresses/s)\n",
               median(batches) * 1e6, percentile(batches, 0.99) * 1e6,
               median(requests) * 1e6, percentile(requests, 0.99) * 1e6,
               ratio(wire_stats.requests, wire_stats.seconds),
               ratio(wire_stats.addresses, wire_stats.seconds));

  if (tracer) {
    // Direct serial lookups on the workload's own addresses, without the
    // other threads: the index's own cost per address.
    std::vector<core::serve::LookupResult> out(addrs.size());
    const auto start = Clock::now();
    pinned->lookup_many(addrs, out.data(), 1);
    const double lookup_s = seconds_since(start);
    const nc::netsvc::ServerStats server_stats = server.stats();
    report.metric("snapshot.encode_s", fixture.encode_s, "s");
    report.metric("snapshot.decode_s", fixture.decode_s, "s");
    report.metric("snapshot.bytes", fixture.snapshot_bytes, "B");
    report.metric("serve.publish_ms", median(publish_s) * 1e3, "ms");
    report.metric("serve.publishes", publish_s.size(), "count");
    report.metric("serve.index_prefixes", pinned->index().prefix_count(),
                  "count");
    report.metric("serve.index_intervals", pinned->index().interval_count(),
                  "count");
    report.metric("serve.lookup_ns_per_addr",
                  lookup_s * 1e9 / static_cast<double>(addrs.size()), "ns");
    // Share of the batch reader's addresses that hit, under churn.
    report.metric("serve.hit_ratio",
                  ratio(batch_stats.hits, batch_stats.batches * config.batch),
                  "ratio");
    report.metric("serve.acquires", acquires, "count");
    report.metric("serve.lookups_per_s", lookups_per_s, "addresses/s");
    report.metric("serve.batch_p50_us", median(batches) * 1e6, "us");
    report.metric("serve.batch_p99_us", percentile(batches, 0.99) * 1e6,
                  "us");
    report.metric("serve.batches", batch_stats.batches, "count");
    report.metric("netsvc.requests_per_s",
                  ratio(wire_stats.requests, wire_stats.seconds),
                  "requests/s");
    report.metric("netsvc.request_p50_us", median(requests) * 1e6, "us");
    report.metric("netsvc.request_p99_us", percentile(requests, 0.99) * 1e6,
                  "us");
    report.metric("netsvc.requests", wire_stats.requests, "count");
    report.metric("netsvc.client.udp_queries", udp.udp_queries + tcp.udp_queries,
                  "count");
    report.metric("netsvc.client.tcp_queries", udp.tcp_queries + tcp.tcp_queries,
                  "count");
    report.metric("netsvc.client.retries", udp.retries + tcp.retries, "count");
    report.metric("netsvc.client.timeouts", udp.timeouts + tcp.timeouts,
                  "count");
    report.metric("netsvc.client.failed_chunks", failed_chunks, "count");
    report.metric("netsvc.client.escalations", udp.escalations + tcp.escalations,
                  "count");
    report.metric("netsvc.server.window_stalls", server_stats.window_stalls,
                  "count");
    report.metric("netsim.bus.delivered", bus.stats().delivered, "count");
    report.metric("netsvc.wire_bytes_per_request",
                  ratio(wire_stats.wire_bytes, wire_stats.requests), "B");
  } else {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("work_ms", median(requests) * 1e3, "ms");
    report.metric("items_per_s", lookups_per_s, "items/s");
  }
  return 0;
}

}  // namespace perfbench
