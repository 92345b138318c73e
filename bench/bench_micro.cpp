// Microbenchmarks (google-benchmark) for the hot data structures under
// the measurement pipelines: prefix-trie longest-prefix match, the DNS
// wire path (the in-place query writer and MessageView::parse), anycast
// catchment scoring, the campaign's probe path (a warm Google-DNS probe and
// an event-engine batch drain), and the DITL capture's per-record kernels
// (name parsing, CRC-32, corpus encoding). Each case's real time per
// iteration is also exported as the gauge
// `bench.micro.ns_per_op.<case>` (a `/` in the case name becomes `.`).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "anycast/catchment.h"
#include "core/engine/engine.h"
#include "core/obs/export.h"
#include "core/obs/obs.h"
#include "dns/name.h"
#include "dns/packet.h"
#include "googledns/google_dns.h"
#include "net/crc32.h"
#include "net/prefix_trie.h"
#include "net/rng.h"
#include "roots/corpus.h"
#include "sim/domains.h"

using namespace netclients;

namespace {

void BM_TrieLongestMatch(benchmark::State& state) {
  net::PrefixTrie<std::uint32_t> trie;
  net::Rng rng(1);
  for (int i = 0; i < 100000; ++i) {
    const auto base = static_cast<std::uint32_t>(rng());
    const auto len = static_cast<std::uint8_t>(12 + rng.below(13));
    trie.insert(net::Prefix(net::Ipv4Addr(base), len),
                static_cast<std::uint32_t>(i));
  }
  net::Rng query_rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        trie.longest_match(net::Ipv4Addr(static_cast<std::uint32_t>(
            query_rng()))));
  }
}
BENCHMARK(BM_TrieLongestMatch);

/// The upstream query the campaign writes: RD=0, ECS 203.0.113.0/24.
struct SampleQuery {
  dns::DnsName name = *dns::DnsName::parse("www.google.com");
  dns::EcsOption ecs =
      dns::EcsOption::for_query(*net::Prefix::parse("203.0.113.0/24"));
  std::vector<std::uint8_t> wire = std::vector<std::uint8_t>(
      dns::query_length(name, ecs));

  std::uint8_t* write() {
    return dns::write_query(wire.data(), 0x1234, name, dns::RecordType::kA,
                            /*recursion_desired=*/false, ecs);
  }
};

void BM_WireEncode(benchmark::State& state) {
  SampleQuery query;
  for (auto _ : state) {
    query.write();
    benchmark::DoNotOptimize(query.wire.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_WireEncode);

void BM_WireDecode(benchmark::State& state) {
  SampleQuery query;
  query.write();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::MessageView::parse(query.wire));
  }
}
BENCHMARK(BM_WireDecode);

void BM_CatchmentScore(benchmark::State& state) {
  const auto pops = anycast::PopTable::google_default();
  const anycast::CatchmentModel catchment(&pops, 7);
  net::Rng rng(3);
  for (auto _ : state) {
    const net::LatLon loc{rng.uniform(-60, 70), rng.uniform(-180, 180)};
    benchmark::DoNotOptimize(catchment.pop_for(loc, rng()));
  }
}
BENCHMARK(BM_CatchmentScore);

/// A flat client-activity rate, so probes exercise the analytic
/// occupancy draw the campaign pays for.
class FixedRateActivity final : public googledns::ClientActivityModel {
 public:
  explicit FixedRateActivity(double rate) : rate_(rate) {}
  double arrival_rate(anycast::PopId, const dns::DnsName&,
                      net::Prefix) const override {
    return rate_;
  }

 private:
  double rate_;
};

/// The campaign's probe substrate at its smallest: one ECS zone scoping
/// every /24 to itself, served by the default PoP table.
struct ProbeSubstrate {
  ProbeSubstrate()
      : pops(anycast::PopTable::google_default()),
        catchment(&pops, 7),
        activity(0.002) {
    dnssrv::ZoneConfig zone;
    zone.name = name;
    zone.min_scope = 24;
    zone.max_scope = 24;
    auth.add_zone(zone);
    for (std::uint32_t i = 0; i < 4096; ++i) {
      scopes.push_back(net::Prefix::from_slash24_index((10u << 16) + i));
    }
  }

  const dns::DnsName name = *dns::DnsName::parse("www.google.com");
  anycast::PopTable pops;
  anycast::CatchmentModel catchment;
  dnssrv::AuthoritativeServer auth;
  FixedRateActivity activity;
  std::vector<net::Prefix> scopes;
};

/// One PoP and one domain over a sweep of /24 scopes with the scope memo
/// warm: the steady-state cost of one campaign probe (flow limiter, memo
/// hit, explicit-pool lookup, analytic occupancy draw).
void BM_GoogleDnsProbe(benchmark::State& state) {
  static const ProbeSubstrate substrate;
  googledns::GooglePublicDns gdns(&substrate.pops, &substrate.catchment,
                                  &substrate.auth, {}, &substrate.activity);
  double t = 0;
  const auto probe = [&](net::Prefix scope) {
    t += 0.001;  // one flow at 1,000 qps, under the TCP limit
    return gdns.probe(0, substrate.name, scope, t,
                      googledns::Transport::kTcp, 0, 0);
  };
  for (const net::Prefix& scope : substrate.scopes) probe(scope);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        probe(substrate.scopes[i++ % substrate.scopes.size()]));
  }
}
BENCHMARK(BM_GoogleDnsProbe);

/// One op = a batch of 256 campaign-shaped chains (5 redundant attempts,
/// up to 3 loops) submitted to the event engine at window 64 and drained:
/// the pending queue, the decision plane and the completion timeline.
void BM_EventProberDrain(benchmark::State& state) {
  static const ProbeSubstrate substrate;
  constexpr std::size_t kBatch = 256;
  constexpr double kRate = 50;  // the campaign's prefixes/s per domain
  constexpr int kLoops = 3;
  googledns::GooglePublicDns gdns(&substrate.pops, &substrate.catchment,
                                  &substrate.auth, {}, &substrate.activity);
  std::vector<sim::DomainInfo> domains(1);
  domains[0].name = substrate.name;
  core::engine::ProberContext context;
  context.dns = &gdns;
  context.domains = &domains;
  context.pop = 0;
  std::uint64_t resolved = 0;
  const auto prober = core::engine::make_prober(
      context, core::engine::EngineOptions{},
      [&](const core::engine::ProbeOutcome&) { ++resolved; });
  core::engine::ProbeRequest request;
  request.domain_indices = {0};
  request.redundancy = 5;
  request.attempt_spacing_seconds = 0.002;
  request.attempt_loop_stride = 131;
  request.max_loops = kLoops;
  request.loop_stride_seconds = kBatch / kRate;
  double base = 0;  // each batch starts after the last one's final loop
  for (auto _ : state) {
    for (std::size_t j = 0; j < kBatch; ++j) {
      request.tag = j;
      request.scope = substrate.scopes[j];
      request.schedule_time = base + static_cast<double>(j) / kRate;
      prober->submit(request);
    }
    prober->drain();
    base += kLoops * request.loop_stride_seconds;
  }
  benchmark::DoNotOptimize(resolved);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
}
BENCHMARK(BM_EventProberDrain);

/// Chromium-probe-shaped names: one label of 7-15 random lowercase
/// letters, mixed case so parsing also lowercases.
std::vector<std::string> signature_names(std::size_t count) {
  net::Rng rng(7);
  std::vector<std::string> names(count);
  for (auto& name : names) {
    name.resize(7 + rng.below(9));
    for (auto& c : name) {
      c = static_cast<char>((rng.below(2) ? 'a' : 'A') + rng.below(26));
    }
  }
  return names;
}

void BM_DnsNameParse(benchmark::State& state) {
  const auto names = signature_names(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::DnsName::parse(names[i++ % names.size()]));
  }
}
BENCHMARK(BM_DnsNameParse);

void BM_Crc32OneMiB(benchmark::State& state) {
  net::Rng rng(8);
  std::string bytes(std::size_t{1} << 20, '\0');
  for (auto& c : bytes) c = static_cast<char>(rng.below(256));
  for (auto _ : state) benchmark::DoNotOptimize(net::crc32(bytes));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Crc32OneMiB);

/// One record per iteration through CorpusWriter::add, including the
/// amortized write of each 65,536-record member to a scratch directory.
void BM_CorpusWriterAdd(benchmark::State& state, roots::CorpusFormat format) {
  const auto names = signature_names(1024);
  net::Rng rng(9);
  std::vector<roots::TraceRecord> records(names.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    records[i].source = net::Ipv4Addr(static_cast<std::uint32_t>(rng()));
    records[i].qname = *dns::DnsName::parse(names[i]);
    records[i].timestamp = rng.uniform(0.0, 172800.0);
    records[i].root_letter = "jhmakd"[rng.below(6)];
  }
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "netclients_bench_micro";
  std::filesystem::create_directories(dir);
  {
    roots::CorpusWriter writer((dir / "corpus.manifest").string(),
                               {format, std::uint64_t{1} << 16});
    std::size_t i = 0;
    for (auto _ : state) writer.add(records[i++ % records.size()]);
    if (!writer.finish()) state.SkipWithError("corpus write failed");
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK_CAPTURE(BM_CorpusWriterAdd, ncd1, roots::CorpusFormat::kNcd1);
BENCHMARK_CAPTURE(BM_CorpusWriterAdd, ncp1, roots::CorpusFormat::kNcp1);

/// Prints as usual and records each run's real time per iteration as a
/// gauge, so the --metrics-out export carries the per-operation costs.
class GaugeReporter : public benchmark::ConsoleReporter {
 public:
  GaugeReporter() : ConsoleReporter(OO_None) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      std::string name = run.benchmark_name();
      std::replace(name.begin(), name.end(), '/', '.');
      const double ns = run.GetAdjustedRealTime() /
                        benchmark::GetTimeUnitMultiplier(run.time_unit) *
                        1e9;
      obs::Registry::global().gauge("bench.micro.ns_per_op." + name).set(ns);
    }
  }
};

}  // namespace

// Expanded BENCHMARK_MAIN: the metrics guard must strip --metrics-out
// before benchmark::Initialize sees (and rejects) unknown flags.
int main(int argc, char** argv) {
  obs::MetricsOutGuard metrics_out(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  GaugeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
