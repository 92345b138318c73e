// Packet-framed (NCP1) trace suite (labels: determinism, tsan): the
// capture-shaped sibling of test_trace_view. write_packet_trace must
// round-trip records through real RFC 1035 packets (byte for byte the
// oracle codec's encoding of each record's query), the framing cursor
// must skip-and-count damaged tails exactly like the NCD1 cursor, and the
// corpus scan of an NCP1 file — which pays a full zero-copy wire parse per
// packet inside the parallel scan — must produce byte-identical results to
// the serial reference scan over the same records at every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/chromium/chromium.h"
#include "dns/packet.h"
#include "dns_testing.h"
#include "net/rng.h"
#include "roots/corpus.h"
#include "roots/packet_trace.h"
#include "roots/root_server.h"
#include "roots/trace.h"
#include "roots/trace_image.h"
#include "scan_testing.h"
#include "sim/ditl.h"
#include "sim/world.h"

namespace netclients::core {
namespace {

constexpr double kSampleRate = 1.0 / 4;

// One sampled DITL capture shared by every case in this (batch) binary.
struct PacketFixture {
  std::string path = "packet_trace_fixture.trace";
  std::vector<roots::TraceRecord> records;

  PacketFixture() {
    sim::WorldConfig config;
    config.scale = 1.0 / 8192;
    const sim::World world = sim::World::generate(config);
    const roots::RootSystem roots = roots::RootSystem::ditl_2020(config.seed);
    sim::DitlOptions ditl;
    ditl.sample_rate = kSampleRate;
    sim::generate_ditl(world, roots, ditl,
                       [&](const roots::TraceRecord& rec) {
                         records.push_back(rec);
                       });
    EXPECT_TRUE(roots::write_packet_trace(path, records));
  }
};

const PacketFixture& fixture() {
  static PacketFixture* f = new PacketFixture;
  return *f;
}

class CleanupEnv : public ::testing::Environment {
 public:
  void TearDown() override { std::filesystem::remove(fixture().path); }
};
const auto* const kCleanup =
    ::testing::AddGlobalTestEnvironment(new CleanupEnv);

ChromiumResult scan_file(const std::string& path,
                         const ChromiumOptions& options) {
  return scan_testing::scan_file(path, options, roots::CorpusFormat::kNcp1);
}

TEST(PacketTrace, WriteOpenRoundTripsEveryRecord) {
  const auto& f = fixture();
  const auto view = roots::PacketTraceView::open(f.path);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->declared_count(), f.records.size());

  roots::PacketTraceView::Cursor cursor = view->cursor();
  roots::PacketRecordRef ref;
  std::size_t i = 0;
  while (cursor.next(&ref)) {
    ASSERT_LT(i, f.records.size());
    const roots::TraceRecord& expected = f.records[i];
    EXPECT_EQ(ref.source(), expected.source);
    EXPECT_EQ(ref.root_letter(), expected.root_letter);
    EXPECT_EQ(ref.timestamp(), expected.timestamp);
    // The payload is a real packet: parse it and compare the question.
    const auto msg = dns::MessageView::parse(ref.wire());
    ASSERT_TRUE(msg.has_value());
    ASSERT_EQ(msg->question_count(), 1u);
    EXPECT_TRUE(msg->first_question().name.equals(expected.qname));
    EXPECT_EQ(msg->first_question().type, expected.qtype);
    EXPECT_FALSE(msg->header().rd);
    ++i;
  }
  EXPECT_EQ(i, f.records.size());
  const auto stats = view->validate();
  EXPECT_EQ(stats.records_read, f.records.size());
  EXPECT_EQ(stats.records_skipped, 0u);
  EXPECT_FALSE(stats.truncated);
}

TEST(PacketTrace, CorpusScanMatchesReferenceScan) {
  const auto& f = fixture();
  ChromiumOptions options;
  options.sample_rate = kSampleRate;
  const ChromiumResult reference =
      scan_testing::reference_scan(options, f.records);
  EXPECT_GT(reference.signature_matches, 0u);
  for (const int threads : {1, 2, 8}) {
    for (const std::size_t chunk : {std::size_t{256}, std::size_t{1} << 15}) {
      ChromiumOptions check = options;
      check.threads = threads;
      check.chunk_records = chunk;
      const ChromiumResult result = scan_file(f.path, check);
      scan_testing::expect_identical(
          result, reference,
          "threads=" + std::to_string(threads) +
              " chunk=" + std::to_string(chunk));
      EXPECT_EQ(result.records_skipped, 0u);
    }
  }
}

TEST(PacketTrace, DamagedTailSkipsAndCounts) {
  const auto& f = fixture();
  ASSERT_GT(f.records.size(), 8u);
  // Truncate the file mid-frame: everything before the cut survives, the
  // declared remainder is counted as skipped — never an error.
  std::vector<char> bytes;
  {
    std::ifstream in(f.path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::string cut_path = "packet_trace_cut.trace";
  {
    std::ofstream out(cut_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() * 3 / 4));
  }
  const auto view = roots::PacketTraceView::open(cut_path);
  ASSERT_TRUE(view.has_value());
  const auto stats = view->validate();
  EXPECT_LT(stats.records_read, f.records.size());
  EXPECT_EQ(stats.records_read + stats.records_skipped, f.records.size());
  EXPECT_TRUE(stats.truncated);

  ChromiumOptions options;
  options.sample_rate = kSampleRate;
  const ChromiumResult result = scan_file(cut_path, options);
  EXPECT_EQ(result.records_scanned, stats.records_read);
  EXPECT_EQ(result.records_skipped, stats.records_skipped);
  std::filesystem::remove(cut_path);
}

TEST(PacketTrace, CorruptPacketIsScannedNonMatchNotFramingError) {
  // Flip bytes inside one packet's DNS payload (not its capture header):
  // framing still walks the full file, the packet just fails to parse in
  // the scan — records_scanned is unchanged, skip count stays zero.
  const auto& f = fixture();
  std::vector<char> bytes;
  {
    std::ifstream in(f.path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), {});
  }
  // First frame starts at 12; its packet bytes start 15 further in.
  // Zero the packet's header counts region to make it unparseable.
  for (std::size_t b = 12 + 15; b < 12 + 15 + 12 && b < bytes.size(); ++b) {
    bytes[b] = static_cast<char>(0xFF);
  }
  const std::string corrupt_path = "packet_trace_corrupt.trace";
  {
    std::ofstream out(corrupt_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const auto view = roots::PacketTraceView::open(corrupt_path);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->validate().records_read, f.records.size());

  ChromiumOptions options;
  options.sample_rate = kSampleRate;
  const ChromiumResult clean = scan_file(f.path, options);
  const ChromiumResult corrupt = scan_file(corrupt_path, options);
  EXPECT_EQ(corrupt.records_scanned, clean.records_scanned);
  EXPECT_EQ(corrupt.records_skipped, 0u);
  EXPECT_LE(corrupt.signature_matches, clean.signature_matches);
  std::filesystem::remove(corrupt_path);
}

TEST(PacketTrace, OpenRejectsWrongMagicAndMissingFile) {
  EXPECT_FALSE(roots::PacketTraceView::open("no_such_file.trace").has_value());
  const std::string bad_path = "packet_trace_bad_magic.trace";
  {
    std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
    out.write("NCD1\0\0\0\0\0\0\0\0", 12);  // record-framed magic, not NCP1
  }
  EXPECT_FALSE(roots::PacketTraceView::open(bad_path).has_value());
  std::filesystem::remove(bad_path);
}

TEST(PacketTrace, FuzzedFramesNeverCrash) {
  net::Rng rng(0x9C);
  const auto& f = fixture();
  std::vector<char> clean;
  {
    std::ifstream in(f.path, std::ios::binary);
    clean.assign(std::istreambuf_iterator<char>(in), {});
  }
  const std::string fuzz_path = "packet_trace_fuzz.trace";
  for (int iter = 0; iter < 40; ++iter) {
    std::vector<char> bytes = clean;
    const int mutations = 1 + static_cast<int>(rng.below(6));
    for (int m = 0; m < mutations && !bytes.empty(); ++m) {
      if (rng.bernoulli(0.3)) {
        bytes.resize(rng.below(bytes.size() + 1));
      } else if (!bytes.empty()) {
        bytes[rng.below(bytes.size())] ^=
            static_cast<char>(1 + rng.below(255));
      }
    }
    {
      std::ofstream out(fuzz_path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    const auto view = roots::PacketTraceView::open(fuzz_path);
    if (!view) continue;  // header damaged: rejected, fine
    const auto stats = view->validate();
    EXPECT_EQ(stats.records_read + stats.records_skipped,
              view->declared_count());
    ChromiumOptions options;
    options.sample_rate = kSampleRate;
    // The scan must terminate and never read past the mapping, whatever
    // survived the mutation, and account for every declared record.
    const ChromiumResult result = scan_file(fuzz_path, options);
    EXPECT_EQ(result.records_scanned, stats.records_read);
    EXPECT_EQ(result.records_skipped, stats.records_skipped);
  }
  std::filesystem::remove(fuzz_path);
}

TEST(PacketTrace, FrameMatchesEncodedQuery) {
  // TraceImage writes each NCP1 query in place with dns::write_query.
  // Every frame must hold, byte for byte, the query the oracle codec
  // (dns_testing.h) encodes for the same id, name and type, and parse as
  // one. The names
  // span one and several labels, a 63-octet label and a 255-octet name;
  // past 65,536 records the 16-bit id wraps.
  const std::string label63(63, 'x');
  const std::vector<dns::DnsName> names = {
      *dns::DnsName::parse("sdhfjssf"),
      *dns::DnsName::parse("www.example.com"),
      *dns::DnsName::parse(label63 + ".org"),
      *dns::DnsName::parse(label63 + "." + label63 + "." + label63 + "." +
                           std::string(61, 'y')),
  };
  ASSERT_EQ(names.back().wire_length(), 255u);
  const dns::RecordType types[] = {dns::RecordType::kA,
                                   dns::RecordType::kAaaa,
                                   dns::RecordType::kTxt};
  constexpr std::size_t kRecords = 70'000;
  // Every (name, type) pair recurs, at ids on both sides of the wrap.
  const auto record = [&](std::size_t i) {
    roots::TraceRecord rec;
    rec.source = net::Ipv4Addr(static_cast<std::uint32_t>(i * 2654435761u));
    rec.root_letter = "jhmakd"[i % 6];
    rec.qtype = types[i % 3];
    rec.timestamp = static_cast<double>(i) * 0.25;
    rec.qname = names[(i / 3) % names.size()];
    return rec;
  };

  roots::TraceImage image(roots::CorpusFormat::kNcp1);
  for (std::size_t i = 0; i < kRecords; ++i) ASSERT_TRUE(image.add(record(i)));
  const std::string path = "packet_trace_frames.trace";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(image.bytes().data(),
              static_cast<std::streamsize>(image.bytes().size()));
  }
  const auto view = roots::PacketTraceView::open(path);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->declared_count(), kRecords);

  dns::WireArena arena;
  roots::PacketTraceView::Cursor cursor = view->cursor();
  roots::PacketRecordRef ref;
  std::size_t i = 0;
  while (cursor.next(&ref)) {
    ASSERT_LT(i, kRecords);
    const roots::TraceRecord expected = record(i);
    const auto id = static_cast<std::uint16_t>(i);
    const auto wire = dns::encode_into(
        dns::make_query(id, expected.qname, expected.qtype,
                        /*recursion_desired=*/false),
        arena);
    ASSERT_TRUE(std::equal(ref.wire().begin(), ref.wire().end(),
                           wire.begin(), wire.end()))
        << "record " << i;
    EXPECT_EQ(ref.source(), expected.source);
    EXPECT_EQ(ref.root_letter(), expected.root_letter);
    EXPECT_EQ(ref.timestamp(), expected.timestamp);
    const auto msg = dns::MessageView::parse(ref.wire());
    ASSERT_TRUE(msg.has_value()) << "record " << i;
    EXPECT_EQ(msg->header().id, id);
    EXPECT_FALSE(msg->header().qr);
    EXPECT_FALSE(msg->header().rd);
    EXPECT_EQ(msg->question_count(), 1u);
    ++i;
  }
  EXPECT_EQ(i, kRecords);
  std::filesystem::remove(path);
}

TEST(PacketTrace, WriteReportsAFullDisk) {
  // /dev/full accepts the open and fails every write with ENOSPC; a short
  // trace only reaches the device at the final flush.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  std::vector<roots::TraceRecord> records(3);
  for (auto& rec : records) rec.qname = *dns::DnsName::parse("sdhfjssf");
  EXPECT_FALSE(roots::write_packet_trace("/dev/full", records));
}

}  // namespace
}  // namespace netclients::core
