#pragma once

// Shared helpers for the Chromium scan suites. `ChromiumCounter` has one
// entry point, `process_corpus`, so every suite writes its records as a
// corpus (a lone trace file is a one-member corpus) and compares the scan
// against `reference_scan`: a serial scan written from the definitions,
// with no chunks, no threads and none of the kernels in chromium.cc.
//
// Corpus names are stems the caller gives; ctest runs the batch binaries
// in parallel in one directory, so each binary uses its own prefix.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/chromium/chromium.h"
#include "net/crc32.h"
#include "net/rng.h"
#include "net/sim_time.h"
#include "roots/corpus.h"
#include "roots/trace.h"
#include "trace_testing.h"

namespace netclients::core::scan_testing {

/// The Chromium scan from its definitions (§3.2.1), serially: a record
/// matches when `matches_chromium_signature` accepts its qname; its key is
/// the (canonical, lowercased) label's hash combined with its day; a match
/// is a collision when its key occurs at least
/// max(2, round(daily_collision_threshold × sample_rate)) times in the
/// records, counted exactly; surviving matches are counted per source and
/// scaled by 1/sample_rate.
inline ChromiumResult reference_scan(
    const ChromiumOptions& options,
    const std::vector<roots::TraceRecord>& records) {
  const auto key = [](const roots::TraceRecord& rec) {
    const auto day = static_cast<std::uint64_t>(rec.timestamp / net::kDay);
    return net::hash_combine(net::stable_hash(rec.qname.labels().front()),
                             day);
  };
  const std::uint32_t threshold = std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(std::lround(
             options.daily_collision_threshold * options.sample_rate)));
  std::unordered_map<std::uint64_t, std::uint32_t> key_counts;
  for (const roots::TraceRecord& rec : records) {
    if (matches_chromium_signature(rec.qname)) ++key_counts[key(rec)];
  }
  ChromiumResult result;
  std::unordered_map<std::uint32_t, std::uint64_t> counts;
  for (const roots::TraceRecord& rec : records) {
    ++result.records_scanned;
    if (!matches_chromium_signature(rec.qname)) continue;
    ++result.signature_matches;
    if (key_counts.at(key(rec)) >= threshold) {
      ++result.rejected_collisions;
    } else {
      ++counts[rec.source.value()];
    }
  }
  const double scale = 1.0 / options.sample_rate;
  for (const auto& [source, count] : counts) {
    result.probes_by_resolver[source] = static_cast<double>(count) * scale;
  }
  return result;
}

/// Writes `records` as a `files`-member corpus, `<stem>.manifest` plus
/// `<stem>.NNN.<format>` members split as `roots::write_corpus` does.
/// Returns the manifest path.
inline std::string write_test_corpus(
    const std::string& stem, const std::vector<roots::TraceRecord>& records,
    std::size_t files = 1,
    roots::CorpusFormat format = roots::CorpusFormat::kNcd1) {
  const std::string manifest = stem + ".manifest";
  EXPECT_TRUE(roots::write_corpus(manifest, records, files, format))
      << manifest;
  return manifest;
}

/// Writes a manifest around member files that already exist in the
/// working directory, for tests that damage or hand-craft member bytes.
/// Each member's size and CRC are read from disk, its record count from
/// the 12-byte header both trace formats share (0 when the header is cut).
inline void write_manifest(
    const std::string& manifest_path, const std::vector<std::string>& files,
    roots::CorpusFormat format = roots::CorpusFormat::kNcd1) {
  roots::CorpusManifest manifest;
  for (const std::string& file : files) {
    const std::string bytes = roots::trace_testing::read_bytes(file);
    roots::CorpusMember member;
    member.file = file;
    member.format = format;
    if (bytes.size() >= 12) std::memcpy(&member.records, bytes.data() + 4, 8);
    member.bytes = bytes.size();
    member.crc = net::crc32(bytes);
    manifest.members.push_back(std::move(member));
  }
  EXPECT_TRUE(manifest.write(manifest_path)) << manifest_path;
}

/// Deletes a corpus in the working directory: its members, then the
/// manifest.
inline void remove_corpus(const std::string& manifest_path) {
  if (const auto manifest = roots::CorpusManifest::read(manifest_path)) {
    for (const roots::CorpusMember& member : manifest->members) {
      std::filesystem::remove(member.file);
    }
  }
  std::filesystem::remove(manifest_path);
}

/// Scans a lone trace file as a one-member corpus: writes a manifest
/// around it, opens it, and deletes the manifest again.
inline ChromiumResult scan_file(
    const std::string& path, const ChromiumOptions& options,
    roots::CorpusFormat format = roots::CorpusFormat::kNcd1) {
  const std::string manifest = path + ".manifest";
  write_manifest(manifest, {path}, format);
  const auto corpus = roots::CorpusView::open(manifest);
  std::filesystem::remove(manifest);
  EXPECT_TRUE(corpus.has_value()) << manifest;
  return corpus ? ChromiumCounter(options).process_corpus(*corpus)
                : ChromiumResult{};
}

/// Writes `records` as a corpus, scans it with `options` and deletes it.
inline ChromiumResult scan_as_corpus(
    const ChromiumOptions& options,
    const std::vector<roots::TraceRecord>& records, const std::string& stem,
    std::size_t files = 1,
    roots::CorpusFormat format = roots::CorpusFormat::kNcd1) {
  const std::string manifest =
      write_test_corpus(stem, records, files, format);
  ChromiumResult result;
  if (const auto corpus = roots::CorpusView::open(manifest)) {
    EXPECT_EQ(corpus->stats().members_skipped, 0u) << manifest;
    result = ChromiumCounter(options).process_corpus(*corpus);
  } else {
    ADD_FAILURE() << "cannot open " << manifest;
  }
  remove_corpus(manifest);
  return result;
}

/// Bit-identical comparison: every scan promises the same integers and the
/// same (integer × scale) doubles, not approximations.
inline void expect_identical(const ChromiumResult& got,
                             const ChromiumResult& want,
                             const std::string& what = "") {
  EXPECT_EQ(got.records_scanned, want.records_scanned) << what;
  EXPECT_EQ(got.signature_matches, want.signature_matches) << what;
  EXPECT_EQ(got.rejected_collisions, want.rejected_collisions) << what;
  ASSERT_EQ(got.probes_by_resolver.size(), want.probes_by_resolver.size())
      << what;
  for (const auto& [addr, count] : want.probes_by_resolver) {
    const auto it = got.probes_by_resolver.find(addr);
    ASSERT_NE(it, got.probes_by_resolver.end())
        << what << " resolver " << addr;
    EXPECT_EQ(it->second, count) << what << " resolver " << addr;
  }
}

}  // namespace netclients::core::scan_testing
