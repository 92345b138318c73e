// Network query front-end suite (labels: determinism, tsan).
//
// Pins the netsvc contracts end to end:
//
//  * Wire protocol — NCS1 encode/parse round-trips, byte-for-byte
//    equality with the materializing dns::encode on equivalent messages,
//    strict profile rejection (FORMERR) vs DNS rejection (drop), and
//    seed-corpus replay (the regression half of fuzz_netsvc).
//  * Transport — RFC 1035 2-byte stream framing over bus segments:
//    length prefix split across segments, zero-length frames,
//    oversize declarations, mid-frame blackholes (skip-and-count, no
//    hang), gap resets, and reassembly-state eviction.
//  * End to end — client-observed results over UDP, over TCP, and under
//    seeded loss with retries are byte-identical to direct
//    SnapshotHandle lookups at REPRO_THREADS 1 and 8; a truncated UDP
//    response provably escalates the client to TCP and completes; the
//    virtual-time service window stalls and per-connection backpressure
//    drop deterministically.
//  * Churn — a live publisher thread swapping epochs during reads (the
//    tsan half): every chunk is answered entirely by one published
//    version.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario/scenario.h"
#include "core/serve/service.h"
#include "core/snapshot/snapshot.h"
#include "dns_testing.h"
#include "net/rng.h"
#include "netsim/bus.h"
#include "netsim/fault.h"
#include "netsvc/client.h"
#include "netsvc/protocol.h"
#include "netsvc/server.h"
#include "netsvc/transport.h"

namespace netclients {
namespace {

namespace serve = core::serve;
using core::Scenario;
using core::ScenarioBuilder;
using netsvc::Client;
using netsvc::ClientOptions;
using netsvc::ParseStatus;
using netsvc::QueryView;
using netsvc::ResponseView;
using netsvc::Server;
using netsvc::ServerOptions;
using netsvc::StreamOptions;
using netsvc::StreamSocket;

constexpr double kScale = 2048;

net::Ipv4Addr addr(const char* text) { return *net::Ipv4Addr::parse(text); }

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

/// Runs `fn` with REPRO_THREADS pinned to `threads`, restoring after.
template <typename Fn>
auto with_threads(int threads, Fn&& fn) {
  const char* prev = std::getenv("REPRO_THREADS");
  const std::string saved = prev ? prev : "";
  ::setenv("REPRO_THREADS", std::to_string(threads).c_str(), 1);
  auto result = fn();
  if (prev) {
    ::setenv("REPRO_THREADS", saved.c_str(), 1);
  } else {
    ::unsetenv("REPRO_THREADS");
  }
  return result;
}

// --------------------------------------------------------------- protocol

serve::LookupResult sample_result(std::uint64_t seed) {
  net::Rng rng(seed);
  serve::LookupResult result;
  result.active = rng.bernoulli(0.7);
  result.prefix =
      net::Prefix(net::Ipv4Addr(static_cast<std::uint32_t>(rng())),
                  static_cast<std::uint8_t>(rng.below(33)));
  result.volume = static_cast<double>(rng.below(1u << 20)) / 7.0;
  result.asn = static_cast<std::uint32_t>(rng());
  result.country = static_cast<std::uint16_t>(rng.below(400));
  result.domain_mask = static_cast<std::uint32_t>(rng());
  return result;
}

TEST(NetsvcProtocol, ResultBlobRoundTripsEveryField) {
  dns::WireArena arena;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const serve::LookupResult original =
        seed == 0 ? serve::LookupResult{} : sample_result(seed);
    dns::BufWriter writer(arena);
    netsvc::write_result_blob(original, writer);
    const auto blob = writer.finish();
    ASSERT_EQ(blob.size(), netsvc::kResultBlobSize);
    const auto decoded = netsvc::read_result_blob(blob);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, original) << "seed " << seed;
  }
  EXPECT_FALSE(netsvc::read_result_blob({}).has_value());
}

TEST(NetsvcProtocol, QueryRoundTripsAndMatchesMaterializingEncoder) {
  const auto addrs = make_queries(17, 0xAB);
  dns::WireArena arena;
  const auto wire = netsvc::encode_query(0x1234, addrs, arena);
  ASSERT_EQ(wire.size(), netsvc::query_wire_size(addrs.size()));

  // Differential: the hand-rolled encoder must agree byte for byte with
  // dns::encode of the equivalent materialized query (same suffix
  // compression, same offsets).
  dns::DnsMessage equivalent;
  equivalent.header.id = 0x1234;
  for (const auto a : addrs) {
    char name[14];
    std::snprintf(name, sizeof(name), "%08x.ncs1", a.value());
    equivalent.questions.push_back(dns::Question{
        *dns::DnsName::parse(name), dns::RecordType::kTxt, dns::kClassIn});
  }
  const auto reference = dns::encode(equivalent);
  ASSERT_EQ(std::vector<std::uint8_t>(wire.begin(), wire.end()), reference);

  QueryView view;
  ASSERT_EQ(netsvc::parse_query(wire, &view), ParseStatus::kOk);
  EXPECT_EQ(view.id, 0x1234);
  EXPECT_EQ(view.addrs, addrs);
  EXPECT_EQ(view.name_offsets.size(), addrs.size());
  EXPECT_EQ(view.question_bytes.size(), wire.size() - 12);
}

TEST(NetsvcProtocol, ResponseRoundTripsAndMatchesMaterializingEncoder) {
  const auto addrs = make_queries(9, 0xCD);
  std::vector<serve::LookupResult> results;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    results.push_back(sample_result(1000 + i));
  }
  dns::WireArena query_arena, response_arena;
  const auto query_wire = netsvc::encode_query(7, addrs, query_arena);
  QueryView query;
  ASSERT_EQ(netsvc::parse_query(query_wire, &query), ParseStatus::kOk);
  const auto wire = netsvc::encode_response(query, results, response_arena);
  ASSERT_EQ(wire.size(), netsvc::response_wire_size(
                             query.question_bytes.size(), results.size()));

  // Differential against the materializing encoder: same questions, one
  // TXT answer per question whose text is the 24-byte blob.
  dns::DnsMessage equivalent;
  equivalent.header.id = 7;
  equivalent.header.qr = true;
  equivalent.header.aa = true;
  dns::WireArena blob_arena;
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    char name[14];
    std::snprintf(name, sizeof(name), "%08x.ncs1", addrs[i].value());
    equivalent.questions.push_back(dns::Question{
        *dns::DnsName::parse(name), dns::RecordType::kTxt, dns::kClassIn});
    dns::BufWriter writer(blob_arena);
    netsvc::write_result_blob(results[i], writer);
    const auto blob = writer.finish();
    equivalent.answers.push_back(dns::ResourceRecord{
        *dns::DnsName::parse(name), dns::RecordType::kTxt, dns::kClassIn, 0,
        dns::TxtData{std::string(blob.begin(), blob.end())}});
  }
  ASSERT_EQ(std::vector<std::uint8_t>(wire.begin(), wire.end()),
            dns::encode(equivalent));

  ResponseView response;
  ASSERT_TRUE(netsvc::parse_response(wire, &response));
  EXPECT_EQ(response.id, 7);
  EXPECT_FALSE(response.truncated);
  EXPECT_EQ(response.rcode, dns::RCode::kNoError);
  EXPECT_EQ(response.results, results);

  // The TC=1 form echoes the questions, carries no answers.
  const auto tc_wire = netsvc::encode_truncated(query, response_arena);
  ASSERT_TRUE(netsvc::parse_response(tc_wire, &response));
  EXPECT_TRUE(response.truncated);
  EXPECT_TRUE(response.results.empty());

  // FORMERR is a bare header.
  const auto formerr = netsvc::encode_formerr(99, response_arena);
  EXPECT_EQ(formerr.size(), 12u);
  ASSERT_TRUE(netsvc::parse_response(formerr, &response));
  EXPECT_EQ(response.id, 99);
  EXPECT_EQ(response.rcode, dns::RCode::kFormErr);
}

TEST(NetsvcProtocol, ProfileViolationsEarnFormErrAndGarbageIsDropped) {
  QueryView view;
  const auto formerr_of = [&](const dns::DnsMessage& message) {
    return netsvc::parse_query(dns::encode(message), &view);
  };
  // Wrong suffix / non-hex label / wrong type / wrong shape: FORMERR.
  dns::DnsMessage query = dns::make_query(
      1, *dns::DnsName::parse("deadbeeg.ncs1"), dns::RecordType::kTxt, false);
  EXPECT_EQ(formerr_of(query), ParseStatus::kFormErr);
  query = dns::make_query(2, *dns::DnsName::parse("deadbeef.wrong"),
                          dns::RecordType::kTxt, false);
  EXPECT_EQ(formerr_of(query), ParseStatus::kFormErr);
  query = dns::make_query(3, *dns::DnsName::parse("deadbeef.ncs1"),
                          dns::RecordType::kA, false);
  EXPECT_EQ(formerr_of(query), ParseStatus::kFormErr);
  query = dns::make_query(4, *dns::DnsName::parse("a.deadbeef.ncs1"),
                          dns::RecordType::kTxt, false);
  EXPECT_EQ(formerr_of(query), ParseStatus::kFormErr);
  // Short hex label.
  query = dns::make_query(5, *dns::DnsName::parse("beef.ncs1"),
                          dns::RecordType::kTxt, false);
  EXPECT_EQ(formerr_of(query), ParseStatus::kFormErr);
  // EDNS is outside the profile.
  query = dns::make_query(
      6, *dns::DnsName::parse("deadbeef.ncs1"), dns::RecordType::kTxt, false,
      dns::EcsOption::for_query(*net::Prefix::parse("10.0.0.0/24")));
  EXPECT_EQ(formerr_of(query), ParseStatus::kFormErr);
  // No questions at all.
  dns::DnsMessage empty;
  empty.header.id = 8;
  EXPECT_EQ(formerr_of(empty), ParseStatus::kFormErr);
  EXPECT_EQ(view.id, 8);

  // A response is not a query: dropped, never answered.
  query = dns::make_query(7, *dns::DnsName::parse("deadbeef.ncs1"),
                          dns::RecordType::kTxt, false);
  query.header.qr = true;
  EXPECT_EQ(formerr_of(query), ParseStatus::kDrop);
  // DNS-invalid bytes: dropped.
  EXPECT_EQ(netsvc::parse_query(std::vector<std::uint8_t>{0xFF, 0x00}, &view),
            ParseStatus::kDrop);
  net::Rng rng(0x6A6A);
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> garbage(rng.below(96));
    for (auto& b : garbage) b = static_cast<std::uint8_t>(rng());
    (void)netsvc::parse_query(garbage, &view);  // must not crash
  }
}

TEST(NetsvcProtocol, SeedCorpusReplays) {
  // Every checked-in fuzz_netsvc seed must parse without crashing, and
  // the accepted ones must survive the full answer path (the same
  // properties the harness asserts, kept green as a regression suite).
  const std::filesystem::path dir = NETCLIENTS_NETSVC_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t seeds = 0, accepted = 0;
  dns::WireArena arena;
  QueryView query;
  ResponseView response;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++seeds;
    std::ifstream in(entry.path(), std::ios::binary);
    std::vector<std::uint8_t> wire{std::istreambuf_iterator<char>(in), {}};
    SCOPED_TRACE(entry.path().filename().string());
    if (netsvc::parse_query(wire, &query) != ParseStatus::kOk) continue;
    ++accepted;
    std::vector<serve::LookupResult> results(query.addrs.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      results[i] = sample_result(i);
    }
    const auto reply = netsvc::encode_response(query, results, arena);
    ASSERT_TRUE(netsvc::parse_response(reply, &response));
    EXPECT_EQ(response.id, query.id);
    EXPECT_EQ(response.results, results);
  }
  EXPECT_GE(seeds, 8u) << "seed corpus went missing";
  EXPECT_GE(accepted, 3u) << "corpus lost its valid-query seeds";
}

// -------------------------------------------------------- stream framing

netsim::Datagram make_segment(net::Ipv4Addr src, net::Ipv4Addr dst,
                              std::uint32_t conn, std::uint32_t offset,
                              std::vector<std::uint8_t> bytes) {
  netsim::Datagram d;
  d.src = src;
  d.dst = dst;
  d.proto = netsim::Proto::kTcp;
  d.payload.reserve(8 + bytes.size());
  for (int shift = 24; shift >= 0; shift -= 8) {
    d.payload.push_back(static_cast<std::uint8_t>(conn >> shift));
  }
  for (int shift = 24; shift >= 0; shift -= 8) {
    d.payload.push_back(static_cast<std::uint8_t>(offset >> shift));
  }
  d.payload.insert(d.payload.end(), bytes.begin(), bytes.end());
  return d;
}

struct FrameLog {
  std::vector<std::vector<std::uint8_t>> frames;
  void attach(StreamSocket& socket) {
    socket.on_frame([this](net::Ipv4Addr, std::uint32_t,
                           std::span<const std::uint8_t> frame,
                           net::SimTime) {
      frames.emplace_back(frame.begin(), frame.end());
    });
  }
};

TEST(NetsvcStream, LengthPrefixSplitAcrossSegmentsReassembles) {
  netsim::MessageBus bus;
  StreamSocket receiver(bus, addr("10.0.0.2"));
  FrameLog log;
  log.attach(receiver);
  const auto peer = addr("10.0.0.1");
  // Frame "xyz": stream bytes 00 03 78 79 7a, cut so the length prefix
  // itself straddles two segments.
  receiver.ingest(make_segment(peer, addr("10.0.0.2"), 9, 0, {0x00}), 0);
  EXPECT_TRUE(log.frames.empty());
  receiver.ingest(make_segment(peer, addr("10.0.0.2"), 9, 1, {0x03, 'x'}), 0);
  EXPECT_TRUE(log.frames.empty());
  receiver.ingest(make_segment(peer, addr("10.0.0.2"), 9, 3, {'y', 'z'}), 0);
  ASSERT_EQ(log.frames.size(), 1u);
  EXPECT_EQ(log.frames[0], (std::vector<std::uint8_t>{'x', 'y', 'z'}));
  EXPECT_EQ(receiver.stats().frames_in, 1u);
  EXPECT_EQ(receiver.stats().segments_in, 3u);
}

TEST(NetsvcStream, ZeroLengthFramesAreSkippedAndCounted) {
  netsim::MessageBus bus;
  StreamSocket receiver(bus, addr("10.0.0.2"));
  FrameLog log;
  log.attach(receiver);
  // Two zero-length frames, then a real one, in a single segment.
  receiver.ingest(make_segment(addr("10.0.0.1"), addr("10.0.0.2"), 1, 0,
                               {0, 0, 0, 0, 0x00, 0x02, 'h', 'i'}),
                  0);
  ASSERT_EQ(log.frames.size(), 1u);
  EXPECT_EQ(log.frames[0], (std::vector<std::uint8_t>{'h', 'i'}));
  EXPECT_EQ(receiver.stats().zero_frames, 2u);
}

TEST(NetsvcStream, OversizeFrameDeclarationResetsTheConnection) {
  netsim::MessageBus bus;
  StreamSocket receiver(bus, addr("10.0.0.2"), StreamOptions{.max_frame = 16});
  FrameLog log;
  log.attach(receiver);
  const auto peer = addr("10.0.0.1");
  receiver.ingest(make_segment(peer, addr("10.0.0.2"), 3, 0, {0x00, 0x11}), 0);
  EXPECT_EQ(receiver.stats().oversize_frames, 1u);
  EXPECT_EQ(receiver.stats().resets, 1u);
  // The connection's state is gone: its continuation is now an orphan.
  receiver.ingest(make_segment(peer, addr("10.0.0.2"), 3, 2, {'a'}), 0);
  EXPECT_EQ(receiver.stats().orphan_segments, 1u);
  EXPECT_TRUE(log.frames.empty());
}

TEST(NetsvcStream, MidFrameBlackholeSkipsAndCountsWithoutHanging) {
  netsim::MessageBus bus;
  StreamSocket receiver(bus, addr("10.0.0.2"));
  FrameLog log;
  log.attach(receiver);
  const auto peer = addr("10.0.0.1");
  // A 6-byte frame whose tail segment never arrives (blackholed link).
  receiver.ingest(make_segment(peer, addr("10.0.0.2"), 4, 0,
                               {0x00, 0x06, 'a', 'b'}),
                  0);
  EXPECT_TRUE(log.frames.empty());  // parked mid-frame, not an error
  // A fresh connection from the same peer completes normally.
  receiver.ingest(make_segment(peer, addr("10.0.0.2"), 5, 0,
                               {0x00, 0x02, 'o', 'k'}),
                  1);
  ASSERT_EQ(log.frames.size(), 1u);
  EXPECT_EQ(receiver.stats().resets, 0u);
  // The stalled stream eventually jumps (its lost middle never retransmits
  // on this bus): the gap resets it, skip-and-count.
  receiver.ingest(make_segment(peer, addr("10.0.0.2"), 4, 9, {'z'}), 2);
  EXPECT_EQ(receiver.stats().resets, 1u);
  EXPECT_EQ(log.frames.size(), 1u);
}

TEST(NetsvcStream, ReassemblyStateIsBoundedWithFifoEviction) {
  netsim::MessageBus bus;
  StreamSocket receiver(bus, addr("10.0.0.2"),
                        StreamOptions{.max_connections = 2});
  FrameLog log;
  log.attach(receiver);
  const auto peer = addr("10.0.0.1");
  // Three parked half-frames: the third evicts the first.
  for (std::uint32_t conn = 1; conn <= 3; ++conn) {
    receiver.ingest(make_segment(peer, addr("10.0.0.2"), conn, 0, {0x00}), 0);
  }
  EXPECT_EQ(receiver.stats().evicted, 1u);
  // Conn 1 is gone (orphan); conn 3 still completes.
  receiver.ingest(make_segment(peer, addr("10.0.0.2"), 1, 1, {0x01, 'q'}), 1);
  EXPECT_EQ(receiver.stats().orphan_segments, 1u);
  receiver.ingest(make_segment(peer, addr("10.0.0.2"), 3, 1, {0x01, 'w'}), 1);
  ASSERT_EQ(log.frames.size(), 1u);
  EXPECT_EQ(log.frames[0], (std::vector<std::uint8_t>{'w'}));
}

TEST(NetsvcStream, SendFrameSegmentsAndReassemblesOverTheBus) {
  netsim::MessageBus bus;
  StreamSocket receiver(bus, addr("10.0.0.2"));
  FrameLog log;
  log.attach(receiver);
  bus.attach(addr("10.0.0.2"),
             [&](const netsim::Datagram& d, net::SimTime now) {
               receiver.ingest(d, now);
             });
  // MSS of 3 stream bytes: a 10-byte frame becomes 4 segments.
  StreamSocket sender(bus, addr("10.0.0.1"),
                      StreamOptions{.segment_bytes = 3});
  const std::vector<std::uint8_t> frame = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  sender.send_frame(addr("10.0.0.2"), 42, frame, 0, 0.01);
  EXPECT_EQ(sender.stats().segments_out, 4u);
  bus.run_until(1.0);
  ASSERT_EQ(log.frames.size(), 1u);
  EXPECT_EQ(log.frames[0], frame);
}

// ------------------------------------------------------------- end to end

class NetsvcSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ =
        new Scenario(ScenarioBuilder().scale_denominator(kScale).build());
    epochs_ =
        new std::vector<core::snapshot::EpochRecord>(
            scenario_->run_epochs(2));
  }
  static void TearDownTestSuite() {
    delete epochs_;
    delete scenario_;
    epochs_ = nullptr;
    scenario_ = nullptr;
  }

  static std::span<const core::snapshot::EpochRecord> chain() {
    return std::span<const core::snapshot::EpochRecord>(*epochs_);
  }
  static core::snapshot::EpochRecord rekeyed(std::size_t i,
                                             std::uint32_t id) {
    core::snapshot::EpochRecord record = (*epochs_)[i % epochs_->size()];
    record.epoch_id = id;
    return record;
  }

  /// One fully wired service + bus + server + client.
  struct World {
    netsim::MessageBus bus;
    serve::Service service;
    std::unique_ptr<Server> server;
    std::unique_ptr<Client> client;

    World(std::span<const core::snapshot::EpochRecord> epochs,
          ClientOptions client_options = {},
          ServerOptions server_options = {},
          netsim::FaultConfig faults = {}) {
      service.publish(epochs);
      if (faults.enabled()) bus.set_faults(std::move(faults));
      server = std::make_unique<Server>(bus, service, addr("10.0.0.1"),
                                        server_options);
      client = std::make_unique<Client>(bus, addr("10.0.0.2"),
                                        addr("10.0.0.1"), client_options);
    }
  };

  /// Direct (no-network) expectation: one pinned snapshot, serial lookup.
  static std::vector<serve::LookupResult> direct(
      const serve::Service& service,
      std::span<const net::Ipv4Addr> queries) {
    return service.acquire()->lookup_many(queries, 1);
  }

 private:
  static Scenario* scenario_;
  static std::vector<core::snapshot::EpochRecord>* epochs_;
};

Scenario* NetsvcSuite::scenario_ = nullptr;
std::vector<core::snapshot::EpochRecord>* NetsvcSuite::epochs_ = nullptr;

TEST_F(NetsvcSuite, UdpResultsAreByteIdenticalToDirectLookupsAtAnyThreads) {
  const auto queries = make_queries(1024, 0x11D9);
  std::vector<serve::LookupResult> expected;
  std::vector<std::uint64_t> request_counts;
  std::vector<std::vector<serve::LookupResult>> runs;
  for (int threads : {1, 8}) {
    runs.push_back(with_threads(threads, [&] {
      World world(chain());
      const auto got = world.client->lookup_many(queries);
      EXPECT_EQ(world.client->stats().failed_chunks, 0u);
      EXPECT_EQ(world.client->stats().tcp_queries, 0u);
      EXPECT_GT(world.client->stats().udp_queries, 0u);
      EXPECT_EQ(world.server->stats().responses,
                world.client->stats().responses);
      request_counts.push_back(world.client->stats().udp_queries);
      if (expected.empty()) expected = direct(world.service, queries);
      return got;
    }));
  }
  EXPECT_EQ(runs[0], expected);
  EXPECT_EQ(runs[1], expected);
  EXPECT_EQ(request_counts[0], request_counts[1]);
}

TEST_F(NetsvcSuite, TcpResultsAreByteIdenticalToDirectLookupsAtAnyThreads) {
  const auto queries = make_queries(1024, 0x7C97);
  ClientOptions options;
  options.transport = googledns::Transport::kTcp;
  std::vector<serve::LookupResult> expected;
  std::vector<std::vector<serve::LookupResult>> runs;
  for (int threads : {1, 8}) {
    runs.push_back(with_threads(threads, [&] {
      World world(chain(), options);
      const auto got = world.client->lookup_many(queries);
      EXPECT_EQ(world.client->stats().failed_chunks, 0u);
      EXPECT_EQ(world.client->stats().udp_queries, 0u);
      EXPECT_GT(world.client->stats().tcp_queries, 0u);
      EXPECT_GT(world.server->stream_stats().frames_out, 0u);
      if (expected.empty()) expected = direct(world.service, queries);
      return got;
    }));
  }
  EXPECT_EQ(runs[0], expected);
  EXPECT_EQ(runs[1], expected);
}

TEST_F(NetsvcSuite, LossWithRetriesStaysByteIdenticalAtAnyThreads) {
  const auto queries = make_queries(512, 0x105E);
  ClientOptions options;
  options.retry.max_attempts = 8;
  netsim::FaultConfig faults;
  faults.seed = 0xFA177;
  faults.loss_probability = 0.10;
  faults.jitter_max_seconds = 0.002;
  std::vector<serve::LookupResult> expected;
  struct Tally {
    std::uint64_t timeouts, retries, udp_queries;
  };
  std::vector<Tally> tallies;
  std::vector<std::vector<serve::LookupResult>> runs;
  for (int threads : {1, 8}) {
    runs.push_back(with_threads(threads, [&] {
      World world(chain(), options, {}, faults);
      const auto got = world.client->lookup_many(queries);
      const auto& stats = world.client->stats();
      EXPECT_EQ(stats.failed_chunks, 0u)
          << "retry budget must absorb this loss rate";
      EXPECT_GT(stats.timeouts, 0u) << "faults must actually bite";
      tallies.push_back({stats.timeouts, stats.retries, stats.udp_queries});
      if (expected.empty()) expected = direct(world.service, queries);
      return got;
    }));
  }
  // Results byte-identical to the no-network truth, at both thread
  // counts; the loss/retry dance itself replays event for event.
  EXPECT_EQ(runs[0], expected);
  EXPECT_EQ(runs[1], expected);
  EXPECT_EQ(tallies[0].timeouts, tallies[1].timeouts);
  EXPECT_EQ(tallies[0].retries, tallies[1].retries);
  EXPECT_EQ(tallies[0].udp_queries, tallies[1].udp_queries);
}

TEST_F(NetsvcSuite, TruncatedUdpResponseEscalatesToTcpAndCompletes) {
  // 16 questions per message: the query (192 bytes) fits UDP, but the
  // full response (784 bytes) cannot — the server answers TC=1 and the
  // client must finish the batch over TCP.
  const auto queries = make_queries(64, 0x77C);
  ClientOptions options;
  options.batch_per_message = 16;
  World world(chain(), options);
  const auto got = world.client->lookup_many(queries);
  EXPECT_EQ(got, direct(world.service, queries));

  const auto& stats = world.client->stats();
  EXPECT_EQ(world.client->transport(), googledns::Transport::kTcp);
  EXPECT_EQ(stats.truncated_seen, 1u);  // first chunk trips it...
  EXPECT_EQ(stats.escalations, 1u);     // ...switching is sticky
  EXPECT_EQ(stats.udp_queries, 1u);
  EXPECT_EQ(stats.tcp_queries, 4u);  // the re-ask + the remaining 3 chunks
  EXPECT_EQ(stats.failed_chunks, 0u);
  EXPECT_EQ(world.server->stats().truncated, 1u);
}

TEST_F(NetsvcSuite, OversizeQueriesRideTcpWithoutFlippingTheTransport) {
  // 64 questions = a 720-byte query: the bus would truncate it as UDP,
  // so the client sends those chunks over TCP but stays on UDP.
  const auto queries = make_queries(128, 0x0517E);
  ClientOptions options;
  options.batch_per_message = 64;
  World world(chain(), options);
  const auto got = world.client->lookup_many(queries);
  EXPECT_EQ(got, direct(world.service, queries));
  EXPECT_EQ(world.client->stats().oversize_queries, 2u);
  EXPECT_EQ(world.client->stats().udp_queries, 0u);
  EXPECT_EQ(world.client->transport(), googledns::Transport::kUdp);
}

TEST_F(NetsvcSuite, ServiceWindowStallsDeterministically) {
  // Two queries land at the same instant with a one-slot window: the
  // second must issue at the first's completion, never in parallel.
  ServerOptions server_options;
  server_options.window = 1;
  server_options.base_service_seconds = 0.001;
  server_options.per_query_service_seconds = 0;
  server_options.reply_latency = 0.01;
  World world(chain(), {}, server_options);
  dns::WireArena arena;
  const auto q = make_queries(2, 0x51A11);
  std::vector<double> arrivals;
  const auto observer = addr("10.0.0.9");
  world.bus.attach(observer,
                   [&](const netsim::Datagram&, net::SimTime now) {
                     arrivals.push_back(now);
                   });
  for (std::size_t i = 0; i < 2; ++i) {
    const auto wire = netsvc::encode_query(
        static_cast<std::uint16_t>(i + 1),
        std::span<const net::Ipv4Addr>(&q[i], 1), arena);
    world.bus.send(observer, addr("10.0.0.1"), netsim::Proto::kUdp,
                   {wire.begin(), wire.end()}, 0, 0.01);
  }
  world.bus.run_until(10.0);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_NEAR(arrivals[0], 0.021, 1e-9);  // 0.01 + service 0.001 + 0.01
  EXPECT_NEAR(arrivals[1], 0.022, 1e-9);  // queued behind the busy slot
  EXPECT_EQ(world.server->stats().window_stalls, 1u);
}

TEST_F(NetsvcSuite, PerConnectionBackpressureDropsExcessRequests) {
  ServerOptions server_options;
  server_options.per_conn_window = 1;
  World world(chain(), {}, server_options);
  dns::WireArena arena;
  const auto q = make_queries(2, 0xBACC);
  StreamSocket requester(world.bus, addr("10.0.0.9"));
  FrameLog log;
  log.attach(requester);
  world.bus.attach(addr("10.0.0.9"),
                   [&](const netsim::Datagram& d, net::SimTime now) {
                     requester.ingest(d, now);
                   });
  // Two requests on ONE connection arriving back to back: the second
  // finds the first's reply still in flight and is dropped.
  for (std::size_t i = 0; i < 2; ++i) {
    const auto wire = netsvc::encode_query(
        static_cast<std::uint16_t>(i + 1),
        std::span<const net::Ipv4Addr>(&q[i], 1), arena);
    requester.send_frame(addr("10.0.0.1"), 5, wire, 0, 0.01);
  }
  world.bus.run_until(10.0);
  EXPECT_EQ(log.frames.size(), 1u);
  EXPECT_EQ(world.server->stats().backpressure_dropped, 1u);
  EXPECT_EQ(world.server->stats().responses, 1u);
}

TEST_F(NetsvcSuite, MalformedAndNonProfileQueriesAreCountedNotAnswered) {
  World world(chain());
  std::vector<std::vector<std::uint8_t>> replies;
  const auto observer = addr("10.0.0.9");
  world.bus.attach(observer,
                   [&](const netsim::Datagram& d, net::SimTime) {
                     replies.push_back(d.payload);
                   });
  // DNS garbage: dropped silently.
  world.bus.send(observer, addr("10.0.0.1"), netsim::Proto::kUdp,
                 {0xDE, 0xAD}, 0, 0.01);
  // DNS-valid but non-NCS1: explicit FORMERR.
  const auto foreign = dns::encode(dns::make_query(
      0x4242, *dns::DnsName::parse("www.example.com"), dns::RecordType::kA,
      true));
  world.bus.send(observer, addr("10.0.0.1"), netsim::Proto::kUdp, foreign, 0,
                 0.01);
  world.bus.run_until(10.0);
  EXPECT_EQ(world.server->stats().malformed, 1u);
  EXPECT_EQ(world.server->stats().formerr, 1u);
  ASSERT_EQ(replies.size(), 1u);
  ResponseView response;
  ASSERT_TRUE(netsvc::parse_response(replies[0], &response));
  EXPECT_EQ(response.id, 0x4242);
  EXPECT_EQ(response.rcode, dns::RCode::kFormErr);
}

TEST_F(NetsvcSuite, LivePublisherChurnNeverTearsABatch) {
  // The tsan half: a real publisher thread swaps epochs while the client
  // reads through the wire path. Every chunk must be answered entirely
  // by one published version — a batch never sees a half-swapped state.
  World world(chain());
  std::mutex mu;
  std::vector<serve::SnapshotHandle> versions;
  versions.push_back(world.service.acquire());
  std::atomic<bool> done{false};
  std::thread publisher([&] {
    for (std::uint32_t i = 0; i < 8; ++i) {
      world.service.publish(rekeyed(i % 2, 100 + i));
      {
        std::lock_guard<std::mutex> lock(mu);
        versions.push_back(world.service.acquire());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done.store(true);
  });

  std::vector<std::vector<net::Ipv4Addr>> chunks;
  std::vector<std::vector<serve::LookupResult>> answers;
  std::size_t round = 0;
  while ((!done.load() || round < 64) && round < 4096) {
    chunks.push_back(make_queries(8, 0xC0DE + round));
    answers.push_back(world.client->lookup_many(chunks.back()));
    ++round;
  }
  publisher.join();
  ASSERT_EQ(world.client->stats().failed_chunks, 0u);

  for (std::size_t i = 0; i < chunks.size(); ++i) {
    bool matched = false;
    for (const auto& handle : versions) {
      if (handle->lookup_many(chunks[i], 1) == answers[i]) {
        matched = true;
        break;
      }
    }
    EXPECT_TRUE(matched) << "chunk " << i
                         << " matches no published version";
  }
}

}  // namespace
}  // namespace netclients
