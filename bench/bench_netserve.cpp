// Network front-end benchmark: the epoch-swap serving tier behind the
// NCS1 wire protocol (src/netsvc), measured end to end over the
// simulated bus.
//
// The bench *checks* the wire-parity contract first: client-observed
// results over UDP and over TCP must be byte-identical to direct
// SnapshotHandle lookups, and two identically-seeded faulty runs must
// replay the same loss/retry dance (same stats, same bytes); any mismatch
// is a hard failure (exit 1).
//
// Everything it reports runs on the bus's virtual clock, so stdout
// repeats byte for byte from run to run. Part 1 reports the clean path's
// virtual per-chunk round-trip latency over UDP and TCP and writes rows
// to bench_out/netserve_latency.csv. Part 2 sweeps bus loss rates
// with and without a retry budget and writes recall rows (the fraction
// of chunks answered) to bench_out/netserve_recall.csv: retries must
// never hurt recall, and
// `--require-recall-gap=G` turns the buy-back into a gate — the mean
// (retry − no-retry) recall gap over the swept nonzero loss rates
// falling below G exits 1.
//
// Output: tables on stdout, the two CSVs under bench_out/, and
// `netsvc.*` counters + `netsvc.bench.*` gauges via --metrics-out.
//
// Run:  build/bench/bench_netserve [--queries=16384] [--batch=8]
//                                  [--epochs=2] [--retry-attempts=6]
//                                  [--require-recall-gap=0]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common.h"
#include "core/scenario/scenario.h"
#include "core/serve/service.h"
#include "net/rng.h"
#include "netsim/bus.h"
#include "netsim/fault.h"
#include "netsvc/client.h"
#include "netsvc/server.h"

using namespace netclients;
namespace serve = core::serve;

namespace {

using bench::flag_value;

std::vector<net::Ipv4Addr> make_queries(std::size_t count,
                                        std::uint64_t seed) {
  net::Rng rng(seed);
  std::vector<net::Ipv4Addr> queries;
  queries.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    queries.push_back(net::Ipv4Addr(static_cast<std::uint32_t>(rng())));
  }
  return queries;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const auto at = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(at, values.size() - 1)];
}

/// One wired client/server pair over a fresh bus.
struct World {
  netsim::MessageBus bus;
  std::unique_ptr<netsvc::Server> server;
  std::unique_ptr<netsvc::Client> client;

  World(const serve::Service& service, netsvc::ClientOptions client_options,
        netsim::FaultConfig faults = {}) {
    if (faults.enabled()) bus.set_faults(std::move(faults));
    server = std::make_unique<netsvc::Server>(
        bus, service, *net::Ipv4Addr::parse("10.0.0.1"));
    client = std::make_unique<netsvc::Client>(
        bus, *net::Ipv4Addr::parse("10.0.0.2"),
        *net::Ipv4Addr::parse("10.0.0.1"), client_options);
  }
};

struct RunResult {
  std::vector<serve::LookupResult> results;
  netsvc::ClientStats client_stats;
  double virtual_seconds = 0;
  std::vector<double> chunk_rtts;  // virtual seconds per chunk call
};

/// Drives the full query list through one client chunk by chunk,
/// recording the virtual round-trip of every chunk.
RunResult run_client(const serve::Service& service,
                     std::span<const net::Ipv4Addr> queries,
                     std::size_t batch, netsvc::ClientOptions client_options,
                     netsim::FaultConfig faults = {}) {
  World world(service, client_options, std::move(faults));
  RunResult run;
  run.results.resize(queries.size());
  for (std::size_t offset = 0; offset < queries.size(); offset += batch) {
    const std::size_t take = std::min(batch, queries.size() - offset);
    const double before = world.bus.now();
    world.client->lookup_many(queries.subspan(offset, take),
                              run.results.data() + offset);
    run.chunk_rtts.push_back(world.bus.now() - before);
  }
  run.virtual_seconds = world.bus.now();
  run.client_stats = world.client->stats();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  obs::MetricsOutGuard metrics_out(&argc, argv);
  const auto queries_n =
      static_cast<std::size_t>(flag_value(argc, argv, "--queries", 16384));
  const auto batch =
      static_cast<std::size_t>(flag_value(argc, argv, "--batch", 8));
  const int epochs = static_cast<int>(flag_value(argc, argv, "--epochs", 2));
  const int retry_attempts =
      static_cast<int>(flag_value(argc, argv, "--retry-attempts", 6));
  const double require_recall_gap =
      flag_value(argc, argv, "--require-recall-gap", 0);

  std::fprintf(stderr, "bench_netserve: world 1/%.0f, %d epoch(s), "
               "%zu queries, batch %zu\n",
               bench::scale_denominator(), epochs, queries_n, batch);
  const core::Scenario scenario(core::ScenarioBuilder()
                                    .scale_denominator(
                                        bench::scale_denominator())
                                    .epochs(epochs)
                                    .build());
  const auto chain = scenario.run_epochs();
  serve::Service service;
  service.publish(std::span<const core::snapshot::EpochRecord>(chain));

  const auto queries = make_queries(queries_n, 0x5EC7);
  const auto direct = service.acquire()->lookup_many(queries);

  netsvc::ClientOptions udp_options;
  udp_options.batch_per_message = batch;
  netsvc::ClientOptions tcp_options = udp_options;
  tcp_options.transport = googledns::Transport::kTcp;

  // ---- Wire-parity and replay gates ------------------------------------
  const RunResult udp = run_client(service, queries, batch, udp_options);
  const RunResult tcp = run_client(service, queries, batch, tcp_options);
  if (udp.results != direct || tcp.results != direct) {
    std::fprintf(stderr,
                 "bench_netserve: FATAL: wire results diverge from direct "
                 "snapshot lookups (udp %s, tcp %s)\n",
                 udp.results == direct ? "ok" : "MISMATCH",
                 tcp.results == direct ? "ok" : "MISMATCH");
    return 1;
  }
  {
    // Replay gate: an identically-seeded faulty run must repeat exactly.
    netsim::FaultConfig faults;
    faults.loss_probability = 0.1;
    netsvc::ClientOptions lossy = udp_options;
    lossy.retry.max_attempts = retry_attempts;
    const RunResult a = run_client(service, queries, batch, lossy, faults);
    const RunResult b = run_client(service, queries, batch, lossy, faults);
    if (a.results != b.results ||
        a.client_stats.retries != b.client_stats.retries ||
        a.client_stats.timeouts != b.client_stats.timeouts) {
      std::fprintf(stderr,
                   "bench_netserve: FATAL: identically-seeded faulty runs "
                   "diverge (retries %llu vs %llu, timeouts %llu vs %llu)\n",
                   static_cast<unsigned long long>(a.client_stats.retries),
                   static_cast<unsigned long long>(b.client_stats.retries),
                   static_cast<unsigned long long>(a.client_stats.timeouts),
                   static_cast<unsigned long long>(b.client_stats.timeouts));
      return 1;
    }
  }

  // ---- Part 1: clean-path virtual RTT ----------------------------------
  const std::string latency_csv = bench::out_path("netserve_latency.csv");
  std::FILE* lat = std::fopen(latency_csv.c_str(), "w");
  if (lat) {
    std::fprintf(lat,
                 "transport,chunks,virtual_seconds,rtt_p50_ms,rtt_p99_ms\n");
  }
  std::printf("%-10s %8s %12s %10s %10s\n", "transport", "chunks",
              "virtual_s", "rtt_p50_ms", "rtt_p99_ms");
  obs::Registry& registry = obs::Registry::global();
  const auto report = [&](const char* name, const RunResult& run) {
    const double chunks = static_cast<double>(run.chunk_rtts.size());
    const double p50 = percentile(run.chunk_rtts, 0.50) * 1e3;
    const double p99 = percentile(run.chunk_rtts, 0.99) * 1e3;
    std::printf("%-10s %8.0f %12.1f %10.2f %10.2f\n", name, chunks,
                run.virtual_seconds, p50, p99);
    if (lat) {
      std::fprintf(lat, "%s,%.0f,%.3f,%.3f,%.3f\n", name, chunks,
                   run.virtual_seconds, p50, p99);
    }
    const std::string prefix = std::string("netsvc.bench.") + name + ".";
    registry.gauge(prefix + "rtt_p50_ms").set(p50);
    registry.gauge(prefix + "rtt_p99_ms").set(p99);
  };
  report("udp", udp);
  report("tcp", tcp);
  if (lat) std::fclose(lat);

  // ---- Part 2: loss sweep, retry buy-back ------------------------------
  const double loss_rates[] = {0.0, 0.05, 0.1, 0.2, 0.3};
  const std::string recall_csv = bench::out_path("netserve_recall.csv");
  std::FILE* rec = std::fopen(recall_csv.c_str(), "w");
  if (rec) std::fprintf(rec, "loss,recall_noretry,recall_retry\n");
  std::printf("\n%-8s %16s %16s\n", "loss", "recall_noretry",
              "recall_retry");
  // Recall = fraction of chunks that got an answer (exhausted chunks
  // yield miss results). Address-level equality would hide failures: a
  // random address usually misses in the direct path too, so a failed
  // chunk's miss-filled answers still "match". The answered chunks must
  // still be byte-identical to the direct path — that part is a gate.
  const auto recall_of = [&](const RunResult& run) {
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < run.results.size(); ++i) {
      if (run.results[i] != direct[i]) ++mismatched;
    }
    const auto failed_addresses =
        static_cast<std::size_t>(run.client_stats.failed_chunks) * batch;
    if (mismatched > failed_addresses) {
      std::fprintf(stderr,
                   "bench_netserve: FATAL: %zu mismatched addresses exceed "
                   "the %zu inside failed chunks\n",
                   mismatched, failed_addresses);
      std::exit(1);
    }
    const double chunks = static_cast<double>(run.chunk_rtts.size());
    return chunks > 0
               ? 1.0 - static_cast<double>(run.client_stats.failed_chunks) /
                           chunks
               : 0.0;
  };
  double gap_sum = 0;
  int gap_rates = 0;
  bool retry_never_hurts = true;
  for (const double loss : loss_rates) {
    netsim::FaultConfig faults;
    faults.loss_probability = loss;
    netsvc::ClientOptions noretry = udp_options;
    noretry.retry.max_attempts = 1;
    netsvc::ClientOptions retry = udp_options;
    retry.retry.max_attempts = retry_attempts;
    const double recall_noretry =
        recall_of(run_client(service, queries, batch, noretry, faults));
    const double recall_retry =
        recall_of(run_client(service, queries, batch, retry, faults));
    std::printf("%-8.2f %16.4f %16.4f\n", loss, recall_noretry,
                recall_retry);
    if (rec) {
      std::fprintf(rec, "%.2f,%.6f,%.6f\n", loss, recall_noretry,
                   recall_retry);
    }
    if (recall_retry < recall_noretry) retry_never_hurts = false;
    if (loss > 0) {
      gap_sum += recall_retry - recall_noretry;
      ++gap_rates;
    }
  }
  if (rec) std::fclose(rec);
  const double recall_gap = gap_rates > 0 ? gap_sum / gap_rates : 0;
  std::printf("\nmean retry recall gap over lossy rates: %.4f\n",
              recall_gap);
  registry.gauge("netsvc.bench.recall_gap").set(recall_gap);

  // Export the headline (clean UDP) run's event counters once.
  {
    World world(service, udp_options);
    auto out = direct;  // same-size scratch
    world.client->lookup_many(queries, out.data());
    world.client->stats().publish();
    world.client->stream_stats().publish("client");
    world.server->stats().publish();
    world.server->stream_stats().publish("server");
    world.bus.stats().publish();
  }

  if (!retry_never_hurts) {
    std::fprintf(stderr,
                 "bench_netserve: FATAL: retries reduced recall at some "
                 "loss rate\n");
    return 1;
  }
  if (recall_gap < require_recall_gap) {
    std::fprintf(stderr,
                 "bench_netserve: recall gap %.4f below required %.4f\n",
                 recall_gap, require_recall_gap);
    return 1;
  }
  std::printf("rows appended to %s and %s\n", latency_csv.c_str(),
              recall_csv.c_str());
  return 0;
}
