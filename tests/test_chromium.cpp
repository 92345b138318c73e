// Tests for the DNS-logs (Chromium-counting) pipeline: signature matching,
// exact collision filtering (fingerprint collisions included),
// sampling-aware counting, and accuracy against planted ground truth.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <string>
#include <vector>

#include "core/chromium/chromium.h"
#include "core/obs/obs.h"
#include "roots/corpus.h"
#include "roots/root_server.h"
#include "roots/trace.h"
#include "scan_testing.h"
#include "sim/ditl.h"
#include "sim/world.h"
#include "trace_testing.h"

namespace netclients::core {
namespace {

dns::DnsName name_of(const char* text) { return *dns::DnsName::parse(text); }

// ------------------------------------------------------------- signature

struct SignatureCase {
  const char* name;
  bool matches;
};

class Signature : public ::testing::TestWithParam<SignatureCase> {};

TEST_P(Signature, Matches) {
  EXPECT_EQ(matches_chromium_signature(name_of(GetParam().name)),
            GetParam().matches)
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, Signature,
    ::testing::Values(SignatureCase{"sdhfjssf", true},      // the paper's ex.
                      SignatureCase{"abcdefg", true},       // 7 chars (min)
                      SignatureCase{"abcdefghijklmno", true},  // 15 (max)
                      SignatureCase{"abcdef", false},          // 6: too short
                      SignatureCase{"abcdefghijklmnop", false},  // 16: long
                      SignatureCase{"columbia", true},  // word-shaped: only
                                                        // the collision
                                                        // filter rejects it
                      SignatureCase{"sdhfjssf.com", false},  // has TLD
                      SignatureCase{"abc1defg", false},      // digit
                      SignatureCase{"abc-defg", false}));    // hyphen

// ----------------------------------------------------------------- counter

roots::TraceRecord record(std::uint32_t source, const char* qname,
                          double t = 0, char letter = 'j') {
  roots::TraceRecord rec;
  rec.source = net::Ipv4Addr(source);
  rec.qname = name_of(qname);
  rec.timestamp = t;
  rec.root_letter = letter;
  return rec;
}

// Every counter case scans its records as a one-member corpus; the scan
// has no other entry point.
ChromiumResult scan(const std::vector<roots::TraceRecord>& trace,
                    const ChromiumOptions& options = {}) {
  return scan_testing::scan_as_corpus(options, trace, "chromium_scan");
}

TEST(Counter, CountsUniqueSignatureNamesPerSource) {
  std::vector<roots::TraceRecord> trace = {
      record(0x0A000001, "qwertzuiop", 10),
      record(0x0A000001, "asdfghjkl", 20),
      record(0x0A000002, "yxcvbnmqwe", 30),
      record(0x0A000002, "www.example.com", 40),  // not single-label
      record(0x0A000002, "abc", 50),              // too short
  };
  const auto result = scan(trace);
  EXPECT_EQ(result.records_scanned, 5u);
  EXPECT_EQ(result.signature_matches, 3u);
  EXPECT_EQ(result.rejected_collisions, 0u);
  EXPECT_DOUBLE_EQ(result.probes_by_resolver.at(0x0A000001), 2.0);
  EXPECT_DOUBLE_EQ(result.probes_by_resolver.at(0x0A000002), 1.0);
  scan_testing::expect_identical(result,
                                 scan_testing::reference_scan({}, trace));
}

TEST(Counter, CollisionThresholdRejectsRepeatedNames) {
  std::vector<roots::TraceRecord> trace;
  // "columbia" queried 50 times in one day — typo junk, must be filtered.
  for (int i = 0; i < 50; ++i) {
    trace.push_back(record(0x0A000001, "columbia", i * 60.0));
  }
  // One genuine random probe.
  trace.push_back(record(0x0A000001, "qpwoeiruty", 100));
  const auto result = scan(trace);
  EXPECT_EQ(result.rejected_collisions, 50u);
  EXPECT_DOUBLE_EQ(result.probes_by_resolver.at(0x0A000001), 1.0);
}

TEST(Counter, ThresholdIsPerDay) {
  // The same name 3x on each of two days stays under the 7/day threshold.
  std::vector<roots::TraceRecord> trace;
  for (int day = 0; day < 2; ++day) {
    for (int i = 0; i < 3; ++i) {
      trace.push_back(
          record(0x0A000001, "columbia", day * 86400.0 + i * 60));
    }
  }
  const auto result = scan(trace);
  EXPECT_EQ(result.rejected_collisions, 0u);
  EXPECT_DOUBLE_EQ(result.probes_by_resolver.at(0x0A000001), 6.0);
}

TEST(Counter, SampleRateScalesCountsAndThreshold) {
  std::vector<roots::TraceRecord> trace = {
      record(1, "qpwoeiruty", 0),
      record(1, "mznxbcvlak", 9),
  };
  ChromiumOptions options;
  options.sample_rate = 1.0 / 64;
  const auto result = scan(trace, options);
  EXPECT_DOUBLE_EQ(result.probes_by_resolver.at(1), 128.0);
}

TEST(Counter, ToPrefixDatasetAggregatesBySlash24) {
  std::vector<roots::TraceRecord> trace = {
      record(0x0A000001, "qpwoeiruty"),
      record(0x0A000002, "mznxbcvlak"),  // same /24
      record(0x0B000001, "lskdjfhgqp"),  // different /24
  };
  const auto ds = scan(trace).to_prefix_dataset("DNS logs");
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_DOUBLE_EQ(ds.volume_of(0x0A0000), 2.0);
  EXPECT_DOUBLE_EQ(ds.volume_of(0x0B0000), 1.0);
}

TEST(Counter, EndToEndAccuracyAgainstPlantedTruth) {
  // Generate a small world's DITL unsampled and compare per-resolver
  // counts against the generator's ground truth (scaled by the captured
  // letter fraction, which the pipeline cannot know).
  sim::WorldConfig config;
  config.scale = 1.0 / 8192;
  const sim::World world = sim::World::generate(config);
  const roots::RootSystem roots = roots::RootSystem::ditl_2020(config.seed);
  sim::DitlOptions ditl;
  std::vector<roots::TraceRecord> trace;
  sim::generate_ditl(world, roots, ditl, [&](const roots::TraceRecord& rec) {
    trace.push_back(rec);
  });
  const auto result = scan(trace);
  const auto truth = sim::chromium_ground_truth(world);
  // Aggregate totals: captured counts should be a stable fraction (letter
  // capture ~40-55%) of the true probe volume over 2 days.
  double truth_total = 0;
  for (const auto& [addr, per_day] : truth) truth_total += per_day * 2;
  double counted_total = 0;
  for (const auto& [addr, count] : result.probes_by_resolver) {
    counted_total += count;
  }
  ASSERT_GT(truth_total, 0);
  const double capture_fraction = counted_total / truth_total;
  EXPECT_GT(capture_fraction, 0.30);
  EXPECT_LT(capture_fraction, 0.70);
  // Per-resolver: busy resolvers are detected unless their preferred root
  // letters all fall outside the usable DITL set — the paper's own caveat
  // that DITL "does not contain all root letters" (§3.2.2). About
  // (7/13)^3 ≈ 16% of resolvers are invisible that way.
  int busy = 0, detected = 0;
  for (const auto& [addr, per_day] : truth) {
    if (per_day > 20) {
      ++busy;
      detected += result.probes_by_resolver.contains(addr);
    }
  }
  ASSERT_GT(busy, 5);
  EXPECT_GT(static_cast<double>(detected) / busy, 0.75);
  EXPECT_LT(static_cast<double>(detected) / busy, 1.0);
}

TEST(Counter, TraceFileIsAOneMemberCorpus) {
  // A lone trace file is scanned by writing a manifest around it: the
  // scan equals the reference over the records written, and over the
  // records a strict read gets back, with nothing skipped.
  std::vector<roots::TraceRecord> trace = {
      record(1, "qpwoeiruty", 0),
      record(2, "mznxbcvlak", 5),
  };
  const std::string path = "chromium_trace_test.bin";
  ASSERT_TRUE(roots::trace_testing::write_trace(path, trace));
  std::vector<roots::TraceRecord> loaded;
  ASSERT_TRUE(
      roots::trace_testing::read_materialized(path, /*strict=*/true, &loaded));
  const auto via_file = scan_testing::scan_file(path, {});
  scan_testing::expect_identical(via_file,
                                 scan_testing::reference_scan({}, trace));
  scan_testing::expect_identical(via_file,
                                 scan_testing::reference_scan({}, loaded));
  EXPECT_EQ(via_file.records_skipped, 0u);
  std::filesystem::remove(path);
}

TEST(Counter, CorruptTailIsSkippedAndCounted) {
  std::vector<roots::TraceRecord> trace = {
      record(1, "qpwoeiruty", 0),
      record(2, "mznxbcvlak", 5),
      record(3, "alskdjfhgq", 9),
  };
  const std::string path = "chromium_corrupt_tail_test.bin";
  ASSERT_TRUE(roots::trace_testing::write_trace(path, trace));
  // Chop into the last record: the scan must keep the intact prefix.
  std::filesystem::resize_file(path,
                               std::filesystem::file_size(path) - 3);
  const auto result = scan_testing::scan_file(path, {});
  EXPECT_EQ(result.records_scanned, 2u);
  EXPECT_EQ(result.records_skipped, 1u);
  std::filesystem::remove(path);
}

// The pinned corpus: a 1/8192 world's DITL capture sampled at 1/4,
// generated once for the cases below.
constexpr double kPinnedSampleRate = 1.0 / 4;

const std::vector<roots::TraceRecord>& pinned_trace() {
  static const auto* trace = [] {
    sim::WorldConfig config;
    config.scale = 1.0 / 8192;
    const sim::World world = sim::World::generate(config);
    const roots::RootSystem roots = roots::RootSystem::ditl_2020(config.seed);
    sim::DitlOptions ditl;
    ditl.sample_rate = kPinnedSampleRate;
    auto* records = new std::vector<roots::TraceRecord>;
    sim::generate_ditl(world, roots, ditl,
                       [&](const roots::TraceRecord& rec) {
                         records->push_back(rec);
                       });
    return records;
  }();
  return *trace;
}

TEST(Counter, CorpusScanResultPinned) {
  // The parity suites compare the scan against scan_testing's reference;
  // a bug both share would pass them all, so the totals are also pinned,
  // for every format, member count and thread count. A change that moves
  // them changes scan results and must say so.
  const auto& trace = pinned_trace();
  for (const auto format :
       {roots::CorpusFormat::kNcd1, roots::CorpusFormat::kNcp1}) {
    for (const std::size_t files : {std::size_t{1}, std::size_t{3}}) {
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(std::string(roots::corpus_format_name(format)) +
                     " files=" + std::to_string(files) +
                     " threads=" + std::to_string(threads));
        ChromiumOptions options;
        options.sample_rate = kPinnedSampleRate;
        options.threads = threads;
        const ChromiumResult result = scan_testing::scan_as_corpus(
            options, trace, "chromium_pinned", files, format);
        double probes = 0;
        for (const auto& [addr, count] : result.probes_by_resolver) {
          probes += count;
        }
        EXPECT_EQ(result.records_scanned, 665998u);
        EXPECT_EQ(result.signature_matches, 639664u);
        EXPECT_EQ(result.rejected_collisions, 62275u);
        EXPECT_EQ(result.probes_by_resolver.size(), 150u);
        // 4 × (639664 − 62275) surviving matches: integer-valued, so the
        // sum is exact in any order.
        EXPECT_EQ(probes, 2309556.0);
        EXPECT_EQ(result.records_skipped, 0u);
      }
    }
  }
}

TEST(Counter, FingerprintCollisionsAreResolvedExactly) {
  // Pass 1 counts 32-bit fingerprints of the 64-bit (name, day) keys. The
  // pinned corpus's ~600K distinct keys put a few dozen pairs of them on
  // one fingerprint, so more matches become candidates than the threshold
  // rejects, and the merge must tell them apart by their full keys.
  const auto& trace = pinned_trace();
  ChromiumOptions options;
  options.sample_rate = kPinnedSampleRate;
  const ChromiumResult want = scan_testing::reference_scan(options, trace);
  const obs::Counter& candidates =
      obs::Registry::global().counter("chromium.scan.candidates");
  for (const int threads : {1, 4}) {
    options.threads = threads;
    const std::uint64_t before = candidates.value();
    const ChromiumResult got = scan_testing::scan_as_corpus(
        options, trace, "chromium_fingerprints");
    EXPECT_GT(candidates.value() - before, got.rejected_collisions)
        << "threads=" << threads;
    scan_testing::expect_identical(got, want,
                                   "threads=" + std::to_string(threads));
  }
}

// -------------------------------------------------------- collision study

TEST(CollisionStudy, MatchesAnalyticAtPaperScale) {
  const auto study = study_collisions(25e9, 7, 100000, 5);
  // The paper: random names collide fewer than 7 times per day with 99%
  // probability. Our analytic and Monte-Carlo estimates agree and exceed
  // that bar.
  EXPECT_GT(study.p_name_below_threshold, 0.99);
  EXPECT_NEAR(study.observed_p_below, study.p_name_below_threshold, 0.01);
}

TEST(CollisionStudy, MoreTrafficMoreCollisions) {
  const auto low = study_collisions(1e9, 7, 10000, 6);
  const auto high = study_collisions(400e9, 7, 10000, 6);
  EXPECT_GT(low.p_name_below_threshold, high.p_name_below_threshold);
  EXPECT_GT(high.expected_per_name, low.expected_per_name);
}

}  // namespace
}  // namespace netclients::core
