// Robustness fuzzing for the DNS wire decoder: random mutations of valid
// messages and fully random buffers must never crash, never loop, and —
// when a mutant still decodes — must re-encode to something that decodes
// to the same message (decode∘encode idempotence), and the authoritative's
// in-place reply to it must be the reference server's bytes.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <span>

#include "dns/packet.h"
#include "dns_testing.h"
#include "dnssrv/authoritative.h"
#include "net/rng.h"
#include "roots/trace.h"
#include "trace_testing.h"

namespace netclients::dns {
namespace {

DnsMessage base_message(net::Rng& rng) {
  DnsMessage msg = make_query(
      static_cast<std::uint16_t>(rng()), *DnsName::parse("www.example.com"),
      RecordType::kA, rng.bernoulli(0.5),
      EcsOption::for_query(
          net::Prefix(net::Ipv4Addr(static_cast<std::uint32_t>(rng())),
                      static_cast<std::uint8_t>(rng.below(25)))));
  if (rng.bernoulli(0.5)) {
    msg.header.qr = true;
    ResourceRecord& answer = msg.answers.emplace_back();
    answer.name = *DnsName::parse("www.example.com");
    answer.ttl = static_cast<std::uint32_t>(rng.below(3600));
    answer.rdata = AData{net::Ipv4Addr(static_cast<std::uint32_t>(rng()))};
    msg.answers.push_back(ResourceRecord{
        *DnsName::parse("alias.example.com"), RecordType::kTxt, kClassIn,
        60, TxtData{"some text payload"}});
  }
  return msg;
}

/// The authoritative's in-place reply to an accepted packet must be the
/// oracle's: encode(reference_reply(decode(packet))).
void expect_reply_matches_oracle(std::span<const std::uint8_t> wire,
                                 const DnsMessage& decoded) {
  static const dnssrv::AuthoritativeServer server = [] {
    dnssrv::AuthoritativeServer s;
    dnssrv::ZoneConfig zone;
    zone.name = *DnsName::parse("www.example.com");
    s.add_zone(zone);
    return s;
  }();
  thread_local WireArena arena;
  const auto reply = server.handle_wire(wire, 1, arena);
  EXPECT_EQ(std::vector<std::uint8_t>(reply.begin(), reply.end()),
            encode(dns_testing::reference_reply(server, decoded, 1)));
}

class WireFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WireFuzz, MutatedMessagesNeverCrashAndStayIdempotent) {
  net::Rng rng(GetParam());
  for (int iter = 0; iter < 400; ++iter) {
    auto wire = encode(base_message(rng));
    // Apply 1-4 random byte mutations / truncations / extensions.
    const int mutations = 1 + static_cast<int>(rng.below(4));
    for (int m = 0; m < mutations && !wire.empty(); ++m) {
      switch (rng.below(4)) {
        case 0:  // flip a byte
          wire[rng.below(wire.size())] ^=
              static_cast<std::uint8_t>(1 + rng.below(255));
          break;
        case 1:  // truncate
          wire.resize(rng.below(wire.size() + 1));
          break;
        case 2:  // append garbage
          wire.push_back(static_cast<std::uint8_t>(rng()));
          break;
        default:  // overwrite a length-ish field with extremes
          wire[rng.below(wire.size())] = rng.bernoulli(0.5) ? 0xFF : 0xC0;
          break;
      }
    }
    const DecodeResult first = decode(wire);
    // Differential: the zero-copy view must agree with the materializing
    // decoder on accept/reject, diagnostic, and decoded value — on every
    // mutant, not just the well-formed ones.
    std::string view_error;
    const auto view = MessageView::parse(wire, &view_error);
    ASSERT_EQ(first.ok, view.has_value());
    if (!first.ok) {
      EXPECT_EQ(first.error, view_error);
      continue;  // rejected: fine
    }
    EXPECT_EQ(materialize(*view), first.message);
    expect_reply_matches_oracle(wire, first.message);
    // Accepted mutants must survive a re-encode/decode cycle unchanged.
    const auto rewire = encode(first.message);
    const DecodeResult second = decode(rewire);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_EQ(second.message, first.message);
  }
}

TEST(WireFuzz, SeedCorpusProperties) {
  // Every checked-in fuzz seed (tests/corpus/wire/, including any crasher
  // folded back from CI) must satisfy the harness invariants. This is the
  // regression half of the fuzzing loop: crashes found by fuzz_wire land
  // here and stay fixed.
  const std::filesystem::path dir = NETCLIENTS_WIRE_CORPUS_DIR;
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;
  std::size_t seeds = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    ++seeds;
    std::ifstream in(entry.path(), std::ios::binary);
    std::vector<std::uint8_t> wire{std::istreambuf_iterator<char>(in), {}};
    SCOPED_TRACE(entry.path().filename().string());
    std::string view_error;
    const auto view = MessageView::parse(wire, &view_error);
    const DecodeResult first = decode(wire);
    ASSERT_EQ(first.ok, view.has_value());
    if (!first.ok) {
      EXPECT_EQ(first.error, view_error);
      continue;
    }
    EXPECT_EQ(materialize(*view), first.message);
    expect_reply_matches_oracle(wire, first.message);
    const auto rewire = encode(first.message);
    const DecodeResult second = decode(rewire);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_EQ(second.message, first.message);
    EXPECT_EQ(encode(second.message), rewire);
  }
  EXPECT_GE(seeds, 9u) << "seed corpus went missing";
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz,
                         ::testing::Values(0xF1, 0xF2, 0xF3, 0xF4, 0xF5,
                                           0xF6, 0xF7, 0xF8, 0xF9, 0xFA,
                                           0xFB, 0xFC, 0xABCD, 0x5EED,
                                           0xC0FFEE, 0xB16B00B5));

TEST(WireFuzz, PureGarbageNeverCrashes) {
  net::Rng rng(0xDEAD);
  for (int iter = 0; iter < 3000; ++iter) {
    std::vector<std::uint8_t> wire(rng.below(160));
    for (auto& b : wire) b = static_cast<std::uint8_t>(rng());
    (void)decode(wire);  // must neither crash nor hang
  }
  SUCCEED();
}

TEST(WireFuzz, AllZeroAndAllOnesBuffers) {
  for (std::size_t len : {0u, 1u, 11u, 12u, 13u, 64u, 512u}) {
    std::vector<std::uint8_t> zeros(len, 0x00);
    std::vector<std::uint8_t> ones(len, 0xFF);
    (void)decode(zeros);
    (void)decode(ones);
  }
  SUCCEED();
}

TEST(WireFuzz, DeepPointerChainRejected) {
  // A ladder of compression pointers, each pointing one step back; the
  // hop guard must reject far before unbounded recursion.
  std::vector<std::uint8_t> wire = {0x00, 0x01, 0x00, 0x00, 0x00, 0x01,
                                    0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  const std::size_t ladder_start = wire.size();
  // First rung: a real (empty) name would terminate; build pointer rungs
  // that each point to the previous rung.
  wire.push_back(0x01);
  wire.push_back('a');
  wire.push_back(0x00);  // name "a" at ladder_start
  std::size_t prev = ladder_start;
  for (int i = 0; i < 100; ++i) {
    const std::size_t here = wire.size();
    wire.push_back(static_cast<std::uint8_t>(0xC0 | (prev >> 8)));
    wire.push_back(static_cast<std::uint8_t>(prev & 0xFF));
    prev = here;
  }
  // Question name = final pointer; then qtype/qclass.
  wire.push_back(static_cast<std::uint8_t>(0xC0 | (prev >> 8)));
  wire.push_back(static_cast<std::uint8_t>(prev & 0xFF));
  wire.push_back(0x00);
  wire.push_back(0x01);
  wire.push_back(0x00);
  wire.push_back(0x01);
  // Whether accepted or rejected, it must terminate quickly; the question
  // name itself is behind >64 hops, so the guard rejects it.
  const DecodeResult result = decode(wire);
  EXPECT_FALSE(result.ok);
}

// ------------------------------------------------- trace-file corruption

class TraceFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceFuzz, MutatedTraceFilesNeverCrashTolerantReader) {
  net::Rng rng(GetParam());
  const std::string path =
      "trace_fuzz_" + std::to_string(GetParam()) + ".bin";
  for (int iter = 0; iter < 60; ++iter) {
    // A small valid trace...
    std::vector<roots::TraceRecord> records(1 + rng.below(6));
    for (auto& rec : records) {
      rec.source = net::Ipv4Addr(static_cast<std::uint32_t>(rng()));
      rec.qname = *DnsName::parse(rng.bernoulli(0.5) ? "qpwoeiruty"
                                                     : "www.example.com");
      rec.timestamp = static_cast<double>(rng.below(1000));
    }
    ASSERT_TRUE(roots::trace_testing::write_trace(path, records));
    // ...then random byte flips / truncation applied to the raw file.
    std::vector<std::uint8_t> bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    const int mutations = 1 + static_cast<int>(rng.below(5));
    for (int m = 0; m < mutations && !bytes.empty(); ++m) {
      if (rng.bernoulli(0.3)) {
        bytes.resize(rng.below(bytes.size() + 1));
      } else if (!bytes.empty()) {
        bytes[rng.below(bytes.size())] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
      }
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    // Tolerant read must terminate without crashing, and its stats must
    // agree with what it actually kept.
    std::vector<roots::TraceRecord> loaded;
    roots::ReadStats stats;
    if (roots::trace_testing::read_materialized(path, /*strict=*/false,
                                                &loaded, &stats)) {
      EXPECT_EQ(stats.records_read, loaded.size());
      if (stats.records_skipped > 0) {
        EXPECT_TRUE(stats.truncated);
      }
    }
    // The strict reader must also never crash on the same mutant.
    std::vector<roots::TraceRecord> strict;
    (void)roots::trace_testing::read_materialized(path, /*strict=*/true,
                                                  &strict);
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceFuzz,
                         ::testing::Values(0x71, 0x72, 0x73, 0x74));

}  // namespace
}  // namespace netclients::dns
