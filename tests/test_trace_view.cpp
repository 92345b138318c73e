// Zero-copy trace ingestion suite (labels: determinism, tsan): the
// TraceView decoder must accept byte-identical record prefixes as the
// materializing test reader on clean, truncated, and corrupted traces, and
// the corpus scan of a trace file (a one-member corpus) must be
// byte-identical to the serial reference scan at every REPRO_THREADS and
// chunk size. Fuzz cases mirror test_fuzz_wire's TraceFuzz: random
// mutations must never crash the view and never read past the mapping
// (decode-only, like TraceFuzz — the parity cases use structural
// mutations whose surviving records are still well-formed).

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/chromium/chromium.h"
#include "core/exec/exec.h"
#include "net/rng.h"
#include "roots/corpus.h"
#include "roots/root_server.h"
#include "roots/trace.h"
#include "roots/trace_view.h"
#include "scan_testing.h"
#include "trace_testing.h"
#include "sim/ditl.h"
#include "sim/world.h"

namespace netclients::core {
namespace {

constexpr double kSampleRate = 1.0 / 4;

// One sampled DITL capture shared by every case in this (batch) binary:
// the world build dominates, so generate once.
struct TraceFixture {
  std::string path = "trace_view_fixture.trace";
  // A manifest around `path`: the file as a one-member corpus.
  std::string manifest = "trace_view_fixture.manifest";
  std::vector<roots::TraceRecord> records;

  TraceFixture() {
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
    EXPECT_TRUE(roots::trace_testing::write_trace(path, records));
    scan_testing::write_manifest(manifest, {path});
  }
};

const TraceFixture& fixture() {
  static TraceFixture* f = new TraceFixture;
  return *f;
}

class CleanupEnv : public ::testing::Environment {
 public:
  void TearDown() override {
    scan_testing::remove_corpus(fixture().manifest);
  }
};
const auto* const kCleanup =
    ::testing::AddGlobalTestEnvironment(new CleanupEnv);

std::vector<std::uint8_t> slurp(const std::string& path) {
  const std::string bytes = roots::trace_testing::read_bytes(path);
  return {bytes.begin(), bytes.end()};
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

using roots::trace_testing::read_materialized;
using roots::trace_testing::write_trace;
using scan_testing::expect_identical;
using scan_testing::reference_scan;

using scan_testing::scan_file;

// --------------------------------------------------------- view decoding

TEST(TraceView, CursorMaterializesTheExactRecordStream) {
  const auto& f = fixture();
  const auto view = roots::TraceView::open(f.path);
  ASSERT_TRUE(view);
  EXPECT_EQ(view->declared_count(), f.records.size());

  auto cursor = view->cursor();
  roots::TraceRecordRef ref;
  std::size_t i = 0;
  while (cursor.next(&ref)) {
    ASSERT_LT(i, f.records.size());
    EXPECT_EQ(ref.materialize(), f.records[i]);
    ++i;
  }
  EXPECT_EQ(i, f.records.size());

  const auto stats = view->validate();
  EXPECT_EQ(stats.records_read, f.records.size());
  EXPECT_EQ(stats.records_skipped, 0u);
  EXPECT_FALSE(stats.truncated);
}

TEST(TraceView, FieldAccessorsMatchMaterializedFields) {
  const auto& f = fixture();
  const auto view = roots::TraceView::open(f.path);
  ASSERT_TRUE(view);
  auto cursor = view->cursor();
  roots::TraceRecordRef ref;
  std::size_t i = 0;
  while (cursor.next(&ref) && i < 64) {
    const roots::TraceRecord& want = f.records[i];
    EXPECT_EQ(ref.source(), want.source);
    EXPECT_EQ(ref.qtype(), want.qtype);
    EXPECT_EQ(ref.timestamp(), want.timestamp);
    EXPECT_EQ(ref.root_letter(), want.root_letter);
    ASSERT_EQ(ref.label_count(), want.qname.labels().size());
    std::size_t li = 0;
    ref.for_each_label([&](std::string_view label) {
      EXPECT_EQ(label, want.qname.labels()[li]);
      EXPECT_EQ(ref.label(li), want.qname.labels()[li]);
      ++li;
    });
    ++i;
  }
}

TEST(TraceView, MmapAndBufferBackingsAgree) {
  const auto& f = fixture();
  const auto mapped = roots::TraceView::open(
      f.path, roots::TraceView::Backing::kAuto);
  const auto buffered = roots::TraceView::open(
      f.path, roots::TraceView::Backing::kBuffer);
  ASSERT_TRUE(mapped);
  ASSERT_TRUE(buffered);
  EXPECT_FALSE(buffered->mapped());
  EXPECT_EQ(mapped->payload_bytes(), buffered->payload_bytes());

  // The scan over either backing, chosen through the corpus open.
  roots::CorpusView::OpenOptions auto_backing;
  auto_backing.backing = roots::FileBytes::Backing::kAuto;
  roots::CorpusView::OpenOptions buffer_backing;
  buffer_backing.backing = roots::FileBytes::Backing::kBuffer;
  const auto mapped_corpus =
      roots::CorpusView::open(f.manifest, auto_backing);
  const auto buffered_corpus =
      roots::CorpusView::open(f.manifest, buffer_backing);
  ASSERT_TRUE(mapped_corpus && buffered_corpus);
  ASSERT_TRUE(buffered_corpus->members().front().trace.has_value());
  EXPECT_FALSE(buffered_corpus->members().front().trace->mapped());
  const ChromiumCounter counter({.sample_rate = kSampleRate});
  expect_identical(counter.process_corpus(*mapped_corpus),
                   counter.process_corpus(*buffered_corpus));
}

TEST(TraceView, OpenRejectsExactlyWhatTolerantReadRejects) {
  // Missing file, short file, bad magic, truncated count header.
  const std::string path = "trace_view_open.bin";
  const std::vector<std::vector<std::uint8_t>> bad = {
      {},
      {'N'},
      {'N', 'C', 'D', '1', 0, 0, 0},                    // count cut short
      {'X', 'C', 'D', '1', 0, 0, 0, 0, 0, 0, 0, 0},     // wrong magic
  };
  std::vector<roots::TraceRecord> loaded;
  EXPECT_FALSE(roots::TraceView::open("no_such_trace_file.bin"));
  EXPECT_FALSE(read_materialized("no_such_trace_file.bin", /*strict=*/false,
                                 &loaded));
  for (const auto& bytes : bad) {
    spit(path, bytes);
    EXPECT_FALSE(roots::TraceView::open(path)) << bytes.size();
    EXPECT_FALSE(read_materialized(path, /*strict=*/false, &loaded))
        << bytes.size();
  }
  // A header alone (zero records) is a valid, empty trace for both.
  spit(path, {'N', 'C', 'D', '1', 0, 0, 0, 0, 0, 0, 0, 0});
  EXPECT_TRUE(roots::TraceView::open(path));
  EXPECT_TRUE(read_materialized(path, /*strict=*/false, &loaded));
  EXPECT_TRUE(loaded.empty());
  std::filesystem::remove(path);
}

// ------------------------------------------------------------ chunker

TEST(RecordChunker, CutsBoundariesByRecordCountAlone) {
  exec::RecordChunker chunker(4);
  for (std::size_t i = 0; i < 10; ++i) chunker.note(i * 10);
  EXPECT_EQ(chunker.records(), 10u);
  const auto chunks = chunker.finish(105);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks[0].begin, 0u);
  EXPECT_EQ(chunks[0].end, 40u);
  EXPECT_EQ(chunks[0].first_record, 0u);
  EXPECT_EQ(chunks[0].records, 4u);
  EXPECT_EQ(chunks[1].begin, 40u);
  EXPECT_EQ(chunks[1].end, 80u);
  EXPECT_EQ(chunks[1].records, 4u);
  EXPECT_EQ(chunks[2].begin, 80u);
  EXPECT_EQ(chunks[2].end, 105u);
  EXPECT_EQ(chunks[2].first_record, 8u);
  EXPECT_EQ(chunks[2].records, 2u);
}

TEST(RecordChunker, EmptyStreamAndZeroChunkSize) {
  exec::RecordChunker empty(4);
  EXPECT_TRUE(empty.finish(0).empty());
  exec::RecordChunker degenerate(0);  // treated as 1 record per chunk
  degenerate.note(0);
  degenerate.note(7);
  const auto chunks = degenerate.finish(20);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0].end, 7u);
  EXPECT_EQ(chunks[1].end, 20u);
}

// ----------------------------------------------------- signature matcher

TEST(ByteMatcher, AgreesWithCanonicalMatcherOnEveryLabelShape) {
  // Random labels over a charset with letters of both cases, digits,
  // hyphens: the byte predicate on the raw label must equal the DnsName
  // predicate on the canonical (lowercased) form.
  const std::string charset = "abcXYZmQ019-_";
  net::Rng rng(0xBEEF);
  for (int iter = 0; iter < 4000; ++iter) {
    const std::size_t len = 1 + rng.below(20);
    std::string label;
    for (std::size_t i = 0; i < len; ++i) {
      label.push_back(charset[rng.below(charset.size())]);
    }
    const auto name = dns::DnsName::from_labels({label});
    ASSERT_TRUE(name.has_value());
    EXPECT_EQ(matches_chromium_signature_bytes(label),
              matches_chromium_signature(*name))
        << label;
  }
}

TEST(ByteMatcher, UppercaseRawBytesCountLikeTheirCanonicalForm) {
  // Hand-craft a trace whose raw label bytes are mixed-case — DnsName
  // never writes these, but the format doesn't forbid them, and the
  // materializing reader lowercases on read. The scan must agree with the
  // reference over the lowercased records, including the match keys
  // (same name, different casing, same day must collide with itself).
  const std::string path = "trace_view_case.bin";
  std::vector<std::uint8_t> bytes = {'N', 'C', 'D', '1'};
  const auto put = [&](const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    bytes.insert(bytes.end(), b, b + n);
  };
  const std::uint64_t count = 3;
  put(&count, 8);
  const char* labels[] = {"AbCdEfGh", "abcdefgh", "ABCDEFGH"};
  for (int i = 0; i < 3; ++i) {
    const std::uint32_t source = 0x0A000001;
    const std::uint16_t qtype = 1;
    const double timestamp = 100.0 * i;
    put(&source, 4);
    bytes.push_back('a');
    put(&qtype, 2);
    put(&timestamp, 8);
    bytes.push_back(1);  // label count
    bytes.push_back(8);  // label length
    put(labels[i], 8);
  }
  spit(path, bytes);

  std::vector<roots::TraceRecord> loaded;
  ASSERT_TRUE(read_materialized(path, /*strict=*/false, &loaded));
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[0].qname.labels().front(), "abcdefgh");

  const ChromiumResult scanned = scan_file(path, {});
  expect_identical(scanned, reference_scan({}, loaded));
  EXPECT_EQ(scanned.signature_matches, 3u);
  std::filesystem::remove(path);
}

// ------------------------------------------------------------ scan parity

TEST(ViewParity, ByteIdenticalToReferenceScanAtEveryThreadCount) {
  const auto& f = fixture();
  const ChromiumCounter counter({.sample_rate = kSampleRate});
  const ChromiumResult reference =
      reference_scan({.sample_rate = kSampleRate}, f.records);
  for (const char* threads : {"1", "2", "8"}) {
    SCOPED_TRACE(threads);
    ::setenv("REPRO_THREADS", threads, 1);
    const auto corpus = roots::CorpusView::open(f.manifest);
    ASSERT_TRUE(corpus);
    const ChromiumResult scanned = counter.process_corpus(*corpus);
    expect_identical(scanned, reference);
    EXPECT_EQ(scanned.records_skipped, 0u);
  }
  ::unsetenv("REPRO_THREADS");
}

TEST(ViewParity, ChunkSizeDoesNotChangeTheResult) {
  const auto& f = fixture();
  const auto corpus = roots::CorpusView::open(f.manifest);
  ASSERT_TRUE(corpus);
  ChromiumOptions options;
  options.sample_rate = kSampleRate;
  const ChromiumResult reference = reference_scan(options, f.records);
  for (const std::size_t chunk : {std::size_t{1} << 4, std::size_t{1} << 9,
                                  std::size_t{1} << 20}) {
    SCOPED_TRACE(chunk);
    options.chunk_records = chunk;
    expect_identical(ChromiumCounter(options).process_corpus(*corpus),
                     reference);
  }
}

// Structural mutations only (truncation, count inflation, length-byte
// damage): surviving records stay well-formed, so the parity check can
// run the scan and the reference over what the tolerant reader keeps.
TEST(ViewParity, DamagedTailsSkipAndCountIdenticallyToTolerantReader) {
  const auto& f = fixture();
  const std::vector<std::uint8_t> clean = slurp(f.path);
  ASSERT_GT(clean.size(), 200u);
  const std::string path = "trace_view_damaged.bin";

  std::vector<std::vector<std::uint8_t>> mutants;
  // Truncations: mid-header of an early record, mid-label, one byte shy.
  for (const std::size_t cut : {clean.size() / 2, clean.size() / 3 + 5,
                                clean.size() - 1, std::size_t{12 + 7}}) {
    mutants.emplace_back(clean.begin(), clean.begin() + cut);
  }
  {
    // Corrupt count: header declares more records than the file holds.
    auto inflated = clean;
    std::uint64_t declared;
    std::memcpy(&declared, inflated.data() + 4, 8);
    declared += 5;
    std::memcpy(inflated.data() + 4, &declared, 8);
    mutants.push_back(std::move(inflated));
  }
  {
    // Ragged label: a length byte in the middle claims 63 bytes the
    // record doesn't have, desyncing everything after it.
    auto ragged = clean;
    ragged[ragged.size() / 2] = 63;
    mutants.push_back(std::move(ragged));
  }

  for (std::size_t m = 0; m < mutants.size(); ++m) {
    SCOPED_TRACE(m);
    spit(path, mutants[m]);

    std::vector<roots::TraceRecord> loaded;
    roots::ReadStats stats;
    ASSERT_TRUE(read_materialized(path, /*strict=*/false, &loaded, &stats));

    const auto view = roots::TraceView::open(path);
    ASSERT_TRUE(view);
    const auto vstats = view->validate();
    EXPECT_EQ(vstats.records_read, stats.records_read);
    EXPECT_EQ(vstats.records_skipped, stats.records_skipped);
    EXPECT_EQ(vstats.truncated, stats.truncated);

    const ChromiumResult scanned =
        scan_file(path, {.sample_rate = kSampleRate});
    expect_identical(scanned,
                     reference_scan({.sample_rate = kSampleRate}, loaded));
    EXPECT_EQ(scanned.records_skipped, stats.records_skipped);
  }
  std::filesystem::remove(path);
}

// ------------------------------------------------------------------ fuzz

// Mirror of test_fuzz_wire's TraceFuzz, pointed at the view: random byte
// flips and truncations must never crash, never read past the mapping
// (tsan/asan-visible), and must keep the view's accept/skip behavior in
// lockstep with the materializing tolerant reader. Decode-only, like
// TraceFuzz: flipped bytes can forge non-finite timestamps, which the
// scan would cast.
class ViewFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ViewFuzz, MutatedTracesNeverCrashAndMatchTolerantReader) {
  net::Rng rng(GetParam());
  const std::string path =
      "trace_view_fuzz_" + std::to_string(GetParam()) + ".bin";
  for (int iter = 0; iter < 60; ++iter) {
    std::vector<roots::TraceRecord> records(1 + rng.below(6));
    for (auto& rec : records) {
      rec.source = net::Ipv4Addr(static_cast<std::uint32_t>(rng()));
      rec.qname = *dns::DnsName::parse(
          rng.bernoulli(0.5) ? "qpwoeiruty" : "www.example.com");
      rec.timestamp = static_cast<double>(rng.below(1000));
    }
    ASSERT_TRUE(write_trace(path, records));
    auto bytes = slurp(path);
    const int mutations = 1 + static_cast<int>(rng.below(5));
    for (int m = 0; m < mutations && !bytes.empty(); ++m) {
      if (rng.bernoulli(0.3)) {
        bytes.resize(rng.below(bytes.size() + 1));
      } else {
        bytes[rng.below(bytes.size())] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
      }
    }
    spit(path, bytes);

    std::vector<roots::TraceRecord> loaded;
    roots::ReadStats stats;
    const bool tolerant_ok =
        read_materialized(path, /*strict=*/false, &loaded, &stats);
    for (const auto backing : {roots::TraceView::Backing::kAuto,
                               roots::TraceView::Backing::kBuffer}) {
      const auto view = roots::TraceView::open(path, backing);
      ASSERT_EQ(view.has_value(), tolerant_ok);
      if (!view) continue;
      const auto vstats = view->validate();
      EXPECT_EQ(vstats.records_read, stats.records_read);
      EXPECT_EQ(vstats.records_skipped, stats.records_skipped);
      EXPECT_EQ(vstats.truncated, stats.truncated);
      // The surviving prefix must materialize to the same records.
      auto cursor = view->cursor();
      roots::TraceRecordRef ref;
      std::size_t i = 0;
      while (cursor.next(&ref)) {
        ASSERT_LT(i, loaded.size());
        EXPECT_EQ(ref.materialize(), loaded[i]);
        ++i;
      }
      EXPECT_EQ(i, loaded.size());
    }
  }
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViewFuzz,
                         ::testing::Values(0x91, 0x92, 0x93, 0x94));

}  // namespace
}  // namespace netclients::core
