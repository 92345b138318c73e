// Sharded-corpus + work-stealing suite (labels: determinism, tsan): the
// cross-file corpus scan must be byte-identical to the serial reference
// scan at every REPRO_THREADS and every member split — determinism comes
// from the canonical (file, chunk) merge order, never from steal
// interleaving. Also covers the RecordChunker edge cases the corpus
// partition leans on (boundary exactly at EOF, empty members, split
// invariance) and the steal_map scheduler itself (index-ordered results,
// exception propagation, telemetry).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/chromium/chromium.h"
#include "core/exec/exec.h"
#include "core/exec/steal.h"
#include "net/crc32.h"
#include "net/rng.h"
#include "roots/corpus.h"
#include "roots/root_server.h"
#include "roots/trace.h"
#include "roots/trace_view.h"
#include "scan_testing.h"
#include "sim/ditl.h"
#include "sim/world.h"
#include "trace_testing.h"

namespace netclients::core {
namespace {

constexpr double kSampleRate = 1.0 / 4;

// One sampled DITL capture shared by every case in this (batch) binary:
// the world build dominates, so generate once.
struct CorpusFixture {
  std::vector<roots::TraceRecord> records;
  ChromiumResult reference;

  CorpusFixture() {
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
    reference = scan_testing::reference_scan({.sample_rate = kSampleRate},
                                             records);
  }
};

const CorpusFixture& fixture() {
  static CorpusFixture* f = new CorpusFixture;
  return *f;
}

ChromiumOptions scan_options(int threads, std::size_t chunk_records = 0) {
  ChromiumOptions options;
  options.sample_rate = kSampleRate;
  options.threads = threads;
  if (chunk_records > 0) options.chunk_records = chunk_records;
  return options;
}

using scan_testing::expect_identical;

// ---------------------------------------------------------- steal_map

TEST(StealMap, ResultsInIndexOrderAtEveryThreadCount) {
  for (const int threads : {1, 2, 4, 8}) {
    const auto results = exec::steal_map(
        std::size_t{1000}, threads,
        [](std::size_t i) { return i * i; });
    ASSERT_EQ(results.size(), 1000u);
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i], i * i);
    }
  }
}

TEST(StealMap, EmptyInput) {
  exec::StealTelemetry telemetry;
  const auto results = exec::steal_map(
      std::size_t{0}, 4, [](std::size_t i) { return i; }, &telemetry);
  EXPECT_TRUE(results.empty());
  EXPECT_EQ(telemetry.tasks, 0u);
  EXPECT_EQ(telemetry.stolen_tasks, 0u);
}

TEST(StealMap, EveryTaskRunsExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  exec::steal_map(hits.size(), 4, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    return 0;
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(StealMap, TelemetryCountsTasksAndWorkers) {
  exec::StealTelemetry telemetry;
  exec::steal_map(std::size_t{64}, 2,
                  [](std::size_t i) { return i; }, &telemetry);
  EXPECT_EQ(telemetry.tasks, 64u);
  EXPECT_EQ(telemetry.workers, 2u);
  // Steal counts are scheduling noise — only their consistency is
  // asserted: stolen tasks cannot exceed tasks, nor steals attempts.
  EXPECT_LE(telemetry.stolen_tasks, telemetry.tasks);
  EXPECT_LE(telemetry.steals, telemetry.attempts + telemetry.steals);
}

TEST(StealMap, SerialWhenSingleThread) {
  exec::StealTelemetry telemetry;
  exec::steal_map(std::size_t{32}, 1,
                  [](std::size_t i) { return i; }, &telemetry);
  EXPECT_EQ(telemetry.workers, 1u);
  EXPECT_EQ(telemetry.steals, 0u);
  EXPECT_EQ(telemetry.stolen_tasks, 0u);
}

TEST(StealMap, ExceptionPropagates) {
  for (const int threads : {1, 4}) {
    EXPECT_THROW(
        exec::steal_map(std::size_t{100}, threads,
                        [](std::size_t i) -> int {
                          if (i == 57) throw std::runtime_error("boom");
                          return 0;
                        }),
        std::runtime_error)
        << "threads=" << threads;
  }
}

// ------------------------------------------------------ RecordChunker

TEST(RecordChunker, BoundaryExactlyAtEof) {
  // 12 records of 10 bytes, 4 per chunk: the last chunk's record count is
  // full and its end offset is exactly the payload end.
  exec::RecordChunker chunker(4);
  for (int i = 0; i < 12; ++i) chunker.note(i * 10);
  const auto chunks = chunker.finish(120);
  ASSERT_EQ(chunks.size(), 3u);
  EXPECT_EQ(chunks.back().records, 4u);
  EXPECT_EQ(chunks.back().end, 120u);
  EXPECT_EQ(chunks.back().first_record, 8u);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_EQ(chunks[i].end, chunks[i + 1].begin);
  }
}

TEST(RecordChunker, EmptyStreamYieldsNoChunks) {
  exec::RecordChunker chunker(4);
  EXPECT_TRUE(chunker.finish(0).empty());
  EXPECT_EQ(chunker.records(), 0u);
}

TEST(RecordChunker, ShortFinalChunk) {
  exec::RecordChunker chunker(5);
  for (int i = 0; i < 7; ++i) chunker.note(i * 3);
  const auto chunks = chunker.finish(21);
  ASSERT_EQ(chunks.size(), 2u);
  EXPECT_EQ(chunks[0].records, 5u);
  EXPECT_EQ(chunks[1].records, 2u);
  EXPECT_EQ(chunks[1].end, 21u);
}

// ------------------------------------------------------------ manifest

TEST(CorpusManifest, EncodeDecodeRoundTrip) {
  roots::CorpusManifest manifest;
  manifest.members.push_back(
      {"a.000.ncd1", roots::CorpusFormat::kNcd1, 100, 2048, 0xDEADBEEF});
  manifest.members.push_back(
      {"a.001.ncp1", roots::CorpusFormat::kNcp1, 0, 12, 0x00000001});
  const auto decoded = roots::CorpusManifest::decode(manifest.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->members, manifest.members);
  EXPECT_EQ(decoded->total_records(), 100u);
  EXPECT_EQ(decoded->total_bytes(), 2060u);
}

TEST(CorpusManifest, RejectsDamage) {
  EXPECT_FALSE(roots::CorpusManifest::decode("").has_value());
  EXPECT_FALSE(roots::CorpusManifest::decode("NCCORPUS v2\n").has_value());
  EXPECT_FALSE(roots::CorpusManifest::decode(
                   "NCCORPUS v1\nfile.ncd1\tncd1\t10\n")
                   .has_value());  // missing fields
  EXPECT_FALSE(roots::CorpusManifest::decode(
                   "NCCORPUS v1\nfile.ncd1\tweird\t10\t20\t00000000\n")
                   .has_value());  // bad format token
  EXPECT_FALSE(roots::CorpusManifest::decode(
                   "NCCORPUS v1\nfile.ncd1\tncd1\tten\t20\t00000000\n")
                   .has_value());  // non-numeric
  EXPECT_FALSE(roots::CorpusManifest::decode(
                   "NCCORPUS v1\nfile.ncd1\tncd1\t10\t20\t00000000\t\n")
                   .has_value());  // a sixth field
}

TEST(CorpusManifest, WriteReportsAFullDisk) {
  // /dev/full accepts the open and fails every write with ENOSPC; a
  // manifest is small enough to sit in the stream buffer until the close.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  roots::CorpusManifest manifest;
  manifest.members.push_back(
      {"a.000.ncd1", roots::CorpusFormat::kNcd1, 1, 28, 0x12345678});
  EXPECT_FALSE(manifest.write("/dev/full"));
}

// ---------------------------------------------------------- the corpus

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(Corpus, WriterMembersEqualSingleFileWriters) {
  // Each member file is exactly what the single-file writer of its format
  // makes of the member's records, whatever cuts the members: a rotation
  // threshold, no threshold, explicit rotate() calls, or both. The
  // manifest's size and CRC describe the bytes on disk.
  const auto& f = fixture();
  ASSERT_GE(f.records.size(), 40u);
  const std::vector<roots::TraceRecord> records(f.records.begin(),
                                                f.records.begin() + 40);
  struct Cut {
    const char* name;
    std::uint64_t records_per_member;
    std::vector<std::size_t> rotate_after;  // record counts
  };
  const std::string reference_path = "corpus_bytes_reference.bin";
  const std::vector<Cut> cuts = {{"per1", 1, {}},
                                 {"per7", 7, {}},
                                 {"whole", 0, {}},
                                 {"rotated", 0, {10, 23}},
                                 {"per7_rotated", 7, {3, 14}}};
  for (const auto format :
       {roots::CorpusFormat::kNcd1, roots::CorpusFormat::kNcp1}) {
    const std::string format_name(roots::corpus_format_name(format));
    for (const Cut& cut : cuts) {
      SCOPED_TRACE(format_name + " " + cut.name);
      const std::string manifest_path =
          "corpus_bytes_" + format_name + "_" + cut.name + ".manifest";
      roots::CorpusWriter writer(manifest_path,
                                 {format, cut.records_per_member});
      std::vector<std::vector<roots::TraceRecord>> expected(1);
      auto close_member = [&] {
        if (!expected.back().empty()) expected.emplace_back();
      };
      for (std::size_t i = 0; i < records.size(); ++i) {
        writer.add(records[i]);
        expected.back().push_back(records[i]);
        if (cut.records_per_member > 0 &&
            expected.back().size() >= cut.records_per_member) {
          close_member();
        }
        for (const std::size_t after : cut.rotate_after) {
          if (after == i + 1) {
            writer.rotate();
            close_member();
          }
        }
      }
      if (expected.back().empty()) expected.pop_back();
      ASSERT_TRUE(writer.finish());

      const auto manifest = roots::CorpusManifest::read(manifest_path);
      ASSERT_TRUE(manifest.has_value());
      EXPECT_EQ(manifest->members, writer.manifest().members);
      ASSERT_EQ(manifest->members.size(), expected.size());
      for (std::size_t m = 0; m < expected.size(); ++m) {
        const roots::CorpusMember& member = manifest->members[m];
        ASSERT_TRUE(format == roots::CorpusFormat::kNcp1
                        ? roots::write_packet_trace(reference_path,
                                                    expected[m])
                        : roots::trace_testing::write_trace(reference_path,
                                                            expected[m]));
        const std::string bytes = read_file(member.file);
        EXPECT_EQ(bytes, read_file(reference_path)) << member.file;
        EXPECT_EQ(member.format, format);
        EXPECT_EQ(member.records, expected[m].size());
        EXPECT_EQ(member.bytes, bytes.size());
        EXPECT_EQ(member.crc, net::crc32(bytes));
        std::filesystem::remove(member.file);
      }
      std::filesystem::remove(manifest_path);
    }
  }
  std::filesystem::remove(reference_path);
}

TEST(Corpus, WriterReportsAFullDiskMember) {
  // A member file that cannot be written fails finish(), stays out of the
  // manifest, and no manifest is written.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::filesystem::path dir = "corpus_full_disk";
  std::filesystem::create_directories(dir);
  std::filesystem::remove(dir / "c.000.ncd1");
  std::filesystem::remove(dir / "c.manifest");
  std::filesystem::create_symlink("/dev/full", dir / "c.000.ncd1");
  roots::CorpusWriter writer((dir / "c.manifest").string(), {});
  roots::TraceRecord rec;
  rec.qname = *dns::DnsName::parse("sdhfjssf");
  writer.add(rec);
  EXPECT_FALSE(writer.finish());
  EXPECT_TRUE(writer.manifest().members.empty());
  EXPECT_FALSE(std::filesystem::exists(dir / "c.manifest"));
  std::filesystem::remove_all(dir);
}

TEST(Corpus, WriteCorpusSplitsNearEqually) {
  const auto& f = fixture();
  const std::string manifest_path = "corpus_split.manifest";
  ASSERT_TRUE(roots::write_corpus(manifest_path, f.records, 4));
  const auto manifest = roots::CorpusManifest::read(manifest_path);
  ASSERT_TRUE(manifest.has_value());
  ASSERT_EQ(manifest->members.size(), 4u);
  EXPECT_EQ(manifest->total_records(), f.records.size());
  const std::uint64_t per = f.records.size() / 4;
  for (const auto& member : manifest->members) {
    EXPECT_NEAR(static_cast<double>(member.records),
                static_cast<double>(per), 1.0);
  }
  scan_testing::remove_corpus(manifest_path);
}

/// One seeded manifest mutant: one to three edits, each a bit flip, a
/// truncation, a tab inserted or deleted, or a digit run rewritten.
std::string mutate_manifest(std::string text, net::Rng& rng) {
  static const char* const kNumbers[] = {
      "",   "0",  "1",    "007",        "4294967296", "18446744073709551615",
      "-1", "+5", "0x10", "ffffffff",   "FFFFFFFF",   "18446744073709551616"};
  const std::uint64_t edits = 1 + rng.below(3);
  for (std::uint64_t e = 0; e < edits; ++e) {
    switch (rng.below(4)) {
      case 0:
        if (!text.empty()) {
          text[rng.below(text.size())] ^=
              static_cast<char>(1u << rng.below(8));
        }
        break;
      case 1:
        text.resize(rng.below(text.size() + 1));
        break;
      case 2: {
        const std::size_t at = rng.below(text.size() + 1);
        const std::size_t tab = text.find('\t', at);
        if (tab == std::string::npos || rng.below(2) == 0) {
          text.insert(at, 1, '\t');
        } else {
          text.erase(tab, 1);
        }
        break;
      }
      default: {
        const std::size_t at =
            text.find_first_of("0123456789", rng.below(text.size() + 1));
        if (at == std::string::npos) break;
        const std::size_t end = text.find_first_not_of("0123456789", at);
        text.replace(at, end == std::string::npos ? end : end - at,
                     kNumbers[rng.below(std::size(kNumbers))]);
        break;
      }
    }
  }
  return text;
}

TEST(CorpusManifest, SeededMutantsRejectOrRoundTripAndOpenTolerantly) {
  // `CorpusView::open` trusts what `CorpusManifest::decode` accepts, so
  // every mutant of a valid manifest must decode to nullopt or to rows
  // that survive encode → decode unchanged, and opening and scanning an
  // accepted one must skip and count its unreadable members, never throw.
  const auto& f = fixture();
  ASSERT_GE(f.records.size(), 64u);
  const std::vector<roots::TraceRecord> records(f.records.begin(),
                                                f.records.begin() + 64);
  ASSERT_TRUE(roots::write_corpus("corpus_mutant_ncd1.manifest", records, 3,
                                  roots::CorpusFormat::kNcd1));
  ASSERT_TRUE(roots::write_corpus("corpus_mutant_ncp1.manifest", records, 2,
                                  roots::CorpusFormat::kNcp1));
  const auto ncd1 = roots::CorpusManifest::read("corpus_mutant_ncd1.manifest");
  const auto ncp1 = roots::CorpusManifest::read("corpus_mutant_ncp1.manifest");
  ASSERT_TRUE(ncd1.has_value() && ncp1.has_value());
  // A third seed mixes both formats with rows open must skip: a
  // directory, a missing file, and an NCD1 member declared as NCP1.
  roots::CorpusManifest mixed;
  mixed.members = {ncd1->members[0], ncp1->members[1],
                   {".", roots::CorpusFormat::kNcd1, 7, 4096, 0},
                   {"corpus_mutant_missing.ncd1", roots::CorpusFormat::kNcd1,
                    5, 100, 0xFFFFFFFF},
                   ncd1->members[1]};
  mixed.members.back().format = roots::CorpusFormat::kNcp1;
  const std::vector<std::string> seeds = {ncd1->encode(), ncp1->encode(),
                                          mixed.encode()};

  const std::string path = "corpus_mutant.manifest";
  net::Rng rng(20211102);
  int accepted = 0;
  int rejected = 0;
  for (const std::string& seed : seeds) {
    for (int i = 0; i < 400; ++i) {
      const std::string mutant = i == 0 ? seed : mutate_manifest(seed, rng);
      SCOPED_TRACE(mutant);
      const auto decoded = roots::CorpusManifest::decode(mutant);
      if (!decoded) {
        ++rejected;
        continue;
      }
      ++accepted;
      const auto again = roots::CorpusManifest::decode(decoded->encode());
      ASSERT_TRUE(again.has_value());
      EXPECT_EQ(again->members, decoded->members);

      ASSERT_TRUE(roots::write_file(path, mutant));
      std::optional<roots::CorpusView> view;
      EXPECT_NO_THROW(view = roots::CorpusView::open(path));
      ASSERT_TRUE(view.has_value());
      const auto& stats = view->stats();
      ASSERT_EQ(view->members().size(), decoded->members.size());
      EXPECT_EQ(stats.members_opened + stats.members_skipped,
                decoded->members.size());
      std::uint64_t declared_by_skipped = 0;
      for (const auto& member : view->members()) {
        if (!member.readable()) declared_by_skipped += member.meta.records;
      }
      EXPECT_EQ(stats.records_skipped, declared_by_skipped);
      ChromiumResult result;
      EXPECT_NO_THROW(
          result = ChromiumCounter(scan_options(1)).process_corpus(*view));
      EXPECT_EQ(result.records_scanned + result.records_skipped,
                view->declared_records() + stats.records_skipped);
    }
  }
  // Both outcomes occur, or the mutants are not reaching the parser.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
  std::filesystem::remove(path);
  scan_testing::remove_corpus("corpus_mutant_ncd1.manifest");
  scan_testing::remove_corpus("corpus_mutant_ncp1.manifest");
}

TEST(Corpus, ParityAcrossThreadsAndSplits) {
  const auto& f = fixture();
  // Different member splits of the same records, in either format, must
  // all scan to the reference at every thread count — the partition
  // invariance the work-stealing merge order guarantees.
  for (const auto format :
       {roots::CorpusFormat::kNcd1, roots::CorpusFormat::kNcp1}) {
    for (const std::size_t files : {std::size_t{1}, std::size_t{3},
                                    std::size_t{4}}) {
      const std::string what =
          std::string(roots::corpus_format_name(format)) +
          " files=" + std::to_string(files);
      const std::string manifest_path =
          "corpus_parity_" + std::to_string(files) + ".manifest";
      ASSERT_TRUE(
          roots::write_corpus(manifest_path, f.records, files, format));
      const auto corpus = roots::CorpusView::open(manifest_path);
      ASSERT_TRUE(corpus.has_value());
      ASSERT_EQ(corpus->stats().members_skipped, 0u);
      for (const int threads : {1, 2, 8}) {
        const auto result =
            ChromiumCounter(scan_options(threads)).process_corpus(*corpus);
        expect_identical(result, f.reference,
                         what + " threads=" + std::to_string(threads));
      }
      scan_testing::remove_corpus(manifest_path);
    }
  }
}

TEST(Corpus, ParityWithSmallChunksForcesManyTasks) {
  const auto& f = fixture();
  const std::string manifest_path = "corpus_chunks.manifest";
  ASSERT_TRUE(roots::write_corpus(manifest_path, f.records, 3));
  const auto corpus = roots::CorpusView::open(manifest_path);
  ASSERT_TRUE(corpus.has_value());
  exec::StealTelemetry telemetry;
  const auto result =
      ChromiumCounter(scan_options(4, 64))
          .process_corpus(*corpus, &telemetry);
  expect_identical(result, f.reference, "chunk_records=64");
  // Tiny chunks: the task count must reflect the partition, not the
  // worker count (both passes run the same task set).
  EXPECT_GE(telemetry.tasks, 2 * f.records.size() / 64);
  scan_testing::remove_corpus(manifest_path);
}

TEST(Corpus, EmptyMemberInMultiFileSet) {
  const auto& f = fixture();
  // Hand-build a corpus whose middle member is a valid, zero-record NCD1
  // file: the partition must yield no chunks for it and the scan must
  // still be byte-identical to the reference.
  const std::size_t half = f.records.size() / 2;
  const std::vector<roots::TraceRecord> first(f.records.begin(),
                                              f.records.begin() + half);
  const std::vector<roots::TraceRecord> second(f.records.begin() + half,
                                               f.records.end());
  using roots::trace_testing::write_trace;
  ASSERT_TRUE(write_trace("corpus_empty.000.ncd1", first));
  ASSERT_TRUE(write_trace("corpus_empty.001.ncd1", {}));
  ASSERT_TRUE(write_trace("corpus_empty.002.ncd1", second));
  scan_testing::write_manifest(
      "corpus_empty.manifest",
      {"corpus_empty.000.ncd1", "corpus_empty.001.ncd1",
       "corpus_empty.002.ncd1"});

  const auto corpus = roots::CorpusView::open("corpus_empty.manifest");
  ASSERT_TRUE(corpus.has_value());
  EXPECT_EQ(corpus->stats().members_opened, 3u);
  for (const int threads : {1, 4}) {
    const auto result =
        ChromiumCounter(scan_options(threads)).process_corpus(*corpus);
    expect_identical(result, f.reference, "empty middle member");
  }
  scan_testing::remove_corpus("corpus_empty.manifest");
}

TEST(Corpus, MissingMemberIsSkippedAndCounted) {
  const auto& f = fixture();
  const std::string manifest_path = "corpus_missing.manifest";
  ASSERT_TRUE(roots::write_corpus(manifest_path, f.records, 3));
  auto manifest = roots::CorpusManifest::read(manifest_path);
  ASSERT_TRUE(manifest.has_value());
  std::remove(manifest->members[1].file.c_str());

  const auto corpus = roots::CorpusView::open(manifest_path);
  ASSERT_TRUE(corpus.has_value());
  EXPECT_EQ(corpus->stats().members_opened, 2u);
  EXPECT_EQ(corpus->stats().members_skipped, 1u);
  EXPECT_EQ(corpus->stats().records_skipped, manifest->members[1].records);

  const auto result =
      ChromiumCounter(scan_options(2)).process_corpus(*corpus);
  // The skipped member's declared records land in records_skipped; the
  // readable members still scan normally.
  EXPECT_EQ(result.records_skipped, manifest->members[1].records);
  EXPECT_EQ(result.records_scanned,
            f.records.size() - manifest->members[1].records);
  scan_testing::remove_corpus(manifest_path);
}

TEST(Corpus, CrcVerificationCatchesCorruption) {
  const auto& f = fixture();
  const std::string manifest_path = "corpus_crc.manifest";
  ASSERT_TRUE(roots::write_corpus(manifest_path, f.records, 2));
  const auto manifest = roots::CorpusManifest::read(manifest_path);
  ASSERT_TRUE(manifest.has_value());
  {
    // Flip one payload byte mid-file.
    std::fstream file(manifest->members[0].file,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file.is_open());
    file.seekp(static_cast<std::streamoff>(manifest->members[0].bytes / 2));
    const char byte = static_cast<char>(0xA5);
    file.write(&byte, 1);
  }
  // Tolerant open (no CRC check) still opens both members.
  const auto lax = roots::CorpusView::open(manifest_path);
  ASSERT_TRUE(lax.has_value());
  EXPECT_EQ(lax->stats().members_opened, 2u);
  // Strict open skips the damaged member and counts the mismatch.
  roots::CorpusView::OpenOptions strict;
  strict.verify_crc = true;
  const auto checked = roots::CorpusView::open(manifest_path, strict);
  ASSERT_TRUE(checked.has_value());
  EXPECT_EQ(checked->stats().crc_mismatches, 1u);
  EXPECT_EQ(checked->stats().members_skipped, 1u);
  EXPECT_EQ(checked->stats().members_opened, 1u);
  scan_testing::remove_corpus(manifest_path);
}

TEST(Corpus, MixedFormatMembersScanIdentically) {
  const auto& f = fixture();
  // One NCD1 member plus one NCP1 member over the same split: the corpus
  // scan dispatches per member format and must still match the reference.
  const std::size_t half = f.records.size() / 2;
  const std::vector<roots::TraceRecord> first(f.records.begin(),
                                              f.records.begin() + half);
  const std::vector<roots::TraceRecord> second(f.records.begin() + half,
                                               f.records.end());
  roots::CorpusWriter::Options ncd1;
  roots::CorpusWriter writer_a("corpus_mixed_a.manifest", ncd1);
  for (const auto& rec : first) writer_a.add(rec);
  ASSERT_TRUE(writer_a.finish());
  roots::CorpusWriter::Options ncp1;
  ncp1.format = roots::CorpusFormat::kNcp1;
  roots::CorpusWriter writer_b("corpus_mixed_b.manifest", ncp1);
  for (const auto& rec : second) writer_b.add(rec);
  ASSERT_TRUE(writer_b.finish());

  roots::CorpusManifest merged;
  for (const char* path :
       {"corpus_mixed_a.manifest", "corpus_mixed_b.manifest"}) {
    const auto part = roots::CorpusManifest::read(path);
    ASSERT_TRUE(part.has_value());
    for (const auto& member : part->members) {
      merged.members.push_back(member);
    }
  }
  ASSERT_TRUE(merged.write("corpus_mixed.manifest"));

  const auto corpus = roots::CorpusView::open("corpus_mixed.manifest");
  ASSERT_TRUE(corpus.has_value());
  ASSERT_EQ(corpus->stats().members_opened, 2u);
  for (const int threads : {1, 4}) {
    const auto result =
        ChromiumCounter(scan_options(threads)).process_corpus(*corpus);
    expect_identical(result, f.reference, "mixed ncd1+ncp1");
  }
  for (const char* manifest :
       {"corpus_mixed.manifest", "corpus_mixed_a.manifest",
        "corpus_mixed_b.manifest"}) {
    scan_testing::remove_corpus(manifest);
  }
}

TEST(Corpus, UnreadableManifestIsRejected) {
  // The one failure the open does not tolerate: no manifest to read, or
  // one that does not parse. Member damage is tolerated (cases above).
  EXPECT_FALSE(roots::CorpusView::open("no_such.manifest").has_value());
  {
    std::ofstream out("corpus_garbage.manifest", std::ios::trunc);
    out << "NCCORPUS v2\n";
  }
  EXPECT_FALSE(roots::CorpusView::open("corpus_garbage.manifest").has_value());
  std::filesystem::remove("corpus_garbage.manifest");
}

}  // namespace
}  // namespace netclients::core
