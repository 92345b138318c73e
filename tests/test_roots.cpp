// Tests for the root-server system: DITL capture policies, trace file
// round trips, NXDOMAIN/referral behaviour, anonymization, and letter
// selection.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <set>

#include "net/rng.h"
#include "roots/root_server.h"
#include "roots/trace.h"

namespace netclients::roots {
namespace {

TEST(RootSystem, Ditl2020HasThirteenLetters) {
  const RootSystem system = RootSystem::ditl_2020(1);
  EXPECT_EQ(system.letters().size(), 13u);
}

TEST(RootSystem, UsableLettersAreTheSixCompleteOnes) {
  const RootSystem system = RootSystem::ditl_2020(1);
  const auto letters = system.usable_ditl_letters();
  const std::set<char> usable(letters.begin(), letters.end());
  EXPECT_EQ(usable, (std::set<char>{'a', 'd', 'h', 'j', 'k', 'm'}));
}

TEST(RootServer, JunkGetsNxdomainTldGetsReferral) {
  RootSystem system = RootSystem::ditl_2020(2);
  RootServer& root = system.root('j');
  const auto junk = dns::make_query(1, *dns::DnsName::parse("sdhfjssf"),
                                    dns::RecordType::kA, false);
  EXPECT_EQ(root.handle(junk, net::Ipv4Addr(1), 0.0).header.rcode,
            dns::RCode::kNxDomain);
  const auto legit = dns::make_query(
      2, *dns::DnsName::parse("www.example.com"), dns::RecordType::kA,
      false);
  const auto response = root.handle(legit, net::Ipv4Addr(1), 0.0);
  EXPECT_EQ(response.header.rcode, dns::RCode::kNoError);
  EXPECT_EQ(response.authorities.size(), 1u);
}

TEST(RootServer, ObserveCapturesSource) {
  RootSystem system = RootSystem::ditl_2020(3);
  RootServer& root = system.root('k');
  root.observe(*net::Ipv4Addr::parse("9.9.9.9"),
               *dns::DnsName::parse("abcdefgh"), dns::RecordType::kA, 5.0);
  ASSERT_EQ(root.trace().size(), 1u);
  EXPECT_EQ(root.trace()[0].source.to_string(), "9.9.9.9");
  EXPECT_EQ(root.trace()[0].root_letter, 'k');
  EXPECT_EQ(root.trace()[0].timestamp, 5.0);
}

TEST(RootServer, AnonymizedRootHidesSourceButKeepsConsistency) {
  RootSystem system = RootSystem::ditl_2020(4);
  RootServer& root = system.root('b');  // anonymized in our 2020 model
  ASSERT_TRUE(root.config().anonymized);
  const auto source = *net::Ipv4Addr::parse("9.9.9.9");
  root.observe(source, *dns::DnsName::parse("abcdefgh"),
               dns::RecordType::kA, 1.0);
  root.observe(source, *dns::DnsName::parse("zzzzzzzz"),
               dns::RecordType::kA, 2.0);
  ASSERT_EQ(root.trace().size(), 2u);
  EXPECT_NE(root.trace()[0].source, source);
  // Prefix-preserving-style anonymization: same source maps consistently.
  EXPECT_EQ(root.trace()[0].source, root.trace()[1].source);
}

TEST(RootServer, PartialRootCapturesFraction) {
  RootSystem system = RootSystem::ditl_2020(5);
  RootServer& root = system.root('c');  // partial captures
  ASSERT_FALSE(root.config().complete);
  for (int i = 0; i < 2000; ++i) {
    root.observe(net::Ipv4Addr(static_cast<std::uint32_t>(i)),
                 *dns::DnsName::parse("abcdefgh"), dns::RecordType::kA, i);
  }
  const double fraction = root.trace().size() / 2000.0;
  EXPECT_NEAR(fraction, root.config().capture_fraction, 0.05);
}

TEST(RootSystem, DitlTraceOnlyFromUsableLetters) {
  RootSystem system = RootSystem::ditl_2020(6);
  system.root('j').observe(net::Ipv4Addr(1),
                           *dns::DnsName::parse("aaaaaaaa"),
                           dns::RecordType::kA, 0);
  system.root('b').observe(net::Ipv4Addr(2),
                           *dns::DnsName::parse("bbbbbbbb"),
                           dns::RecordType::kA, 0);
  const auto trace = system.ditl_trace();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].root_letter, 'j');
}

TEST(RootSystem, PickLetterStablePerResolverAndSpread) {
  const RootSystem system = RootSystem::ditl_2020(7);
  // Deterministic per (resolver, nonce).
  EXPECT_EQ(system.pick_letter(1, 2), system.pick_letter(1, 2));
  // A resolver concentrates on few letters but the population uses many.
  std::set<char> per_resolver;
  for (int nonce = 0; nonce < 200; ++nonce) {
    per_resolver.insert(system.pick_letter(1234, nonce));
  }
  EXPECT_LE(per_resolver.size(), 3u);
  std::set<char> population;
  for (int resolver = 0; resolver < 200; ++resolver) {
    population.insert(system.pick_letter(resolver, 0));
  }
  EXPECT_GE(population.size(), 10u);
}

TEST(RootSystem, SplitPickLetterEqualsTwoArgumentForm) {
  const RootSystem system = RootSystem::ditl_2020(7);
  for (std::uint64_t key = 0; key < 64; ++key) {
    const std::uint64_t resolver = net::mix64(key);  // spread the keys
    const auto preference = system.letter_preference(resolver);
    EXPECT_EQ(preference.resolver_key, resolver);
    for (std::uint64_t nonce = 0; nonce < 64; ++nonce) {
      EXPECT_EQ(system.pick_letter(preference, nonce),
                system.pick_letter(resolver, nonce))
          << "resolver " << resolver << " nonce " << nonce;
    }
  }
}

TEST(RootSystem, PickLetterMatchesTheSeededDraw) {
  // A pick is one draw u from Rng(stable_seed(seed ^ 0x9013, key, nonce)),
  // bucketed over the resolver's preference: the first letter below 0.60,
  // the second below 0.90, else the third. Both overloads must give that
  // letter, whatever they cache.
  constexpr std::uint64_t kSeed = 7;
  const RootSystem system = RootSystem::ditl_2020(kSeed);
  net::Rng keys(0x9013);
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t key = i % 2 == 0 ? keys() : keys() >> 32;
    const std::uint64_t nonce = keys.below(1u << 20);
    const auto preference = system.letter_preference(key);
    const double u =
        net::Rng(net::stable_seed(kSeed ^ 0x9013u, key, nonce)).uniform();
    const char expected =
        preference.letters[u < 0.60 ? 0 : (u < 0.90 ? 1 : 2)];
    ASSERT_EQ(system.pick_letter(preference, nonce), expected)
        << "key " << key << " nonce " << nonce;
    ASSERT_EQ(system.pick_letter(key, nonce), expected)
        << "key " << key << " nonce " << nonce;
  }
}

TEST(TraceFile, RoundTrip) {
  std::vector<TraceRecord> records;
  for (int i = 0; i < 100; ++i) {
    TraceRecord rec;
    rec.source = net::Ipv4Addr(static_cast<std::uint32_t>(i * 7919));
    rec.qname = *dns::DnsName::parse(i % 2 ? "sdhfjssf" : "www.example.com");
    rec.qtype = dns::RecordType::kA;
    rec.timestamp = i * 1.5;
    rec.root_letter = static_cast<char>('a' + i % 13);
    records.push_back(std::move(rec));
  }
  const std::string path = "trace_roundtrip_test.bin";
  ASSERT_TRUE(TraceFile::write(path, records));
  std::vector<TraceRecord> loaded;
  ASSERT_TRUE(TraceFile::read(path, &loaded));
  EXPECT_EQ(loaded, records);
  std::filesystem::remove(path);
}

TEST(TraceFile, RejectsMissingFileAndBadMagic) {
  std::vector<TraceRecord> loaded;
  EXPECT_FALSE(TraceFile::read("does_not_exist.bin", &loaded));
  const std::string path = "trace_badmagic_test.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("NOPE", f);
    std::fclose(f);
  }
  EXPECT_FALSE(TraceFile::read(path, &loaded));
  std::filesystem::remove(path);
}

TEST(TraceFile, RejectsTruncatedBody) {
  std::vector<TraceRecord> records(3);
  records[0].qname = *dns::DnsName::parse("aaaa");
  records[1].qname = *dns::DnsName::parse("bbbb");
  records[2].qname = *dns::DnsName::parse("cccc");
  const std::string path = "trace_truncated_test.bin";
  ASSERT_TRUE(TraceFile::write(path, records));
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 4);
  std::vector<TraceRecord> loaded;
  EXPECT_FALSE(TraceFile::read(path, &loaded));
  std::filesystem::remove(path);
}

TEST(TraceFile, TolerantReadKeepsRecordsBeforeTruncation) {
  std::vector<TraceRecord> records(3);
  records[0].qname = *dns::DnsName::parse("aaaa");
  records[1].qname = *dns::DnsName::parse("bbbb");
  records[2].qname = *dns::DnsName::parse("cccc");
  const std::string path = "trace_tolerant_trunc_test.bin";
  ASSERT_TRUE(TraceFile::write(path, records));
  std::filesystem::resize_file(path, std::filesystem::file_size(path) - 4);
  std::vector<TraceRecord> loaded;
  TraceFile::ReadStats stats;
  ASSERT_TRUE(TraceFile::read_tolerant(path, &loaded, &stats));
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0], records[0]);
  EXPECT_EQ(loaded[1], records[1]);
  EXPECT_EQ(stats.records_read, 2u);
  EXPECT_EQ(stats.records_skipped, 1u);
  EXPECT_TRUE(stats.truncated);
  std::filesystem::remove(path);
}

TEST(TraceFile, TolerantReadStillRejectsBadHeader) {
  std::vector<TraceRecord> loaded;
  EXPECT_FALSE(TraceFile::read_tolerant("does_not_exist.bin", &loaded));
  const std::string path = "trace_tolerant_badmagic_test.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("NOPE", f);
    std::fclose(f);
  }
  EXPECT_FALSE(TraceFile::read_tolerant(path, &loaded));
  std::filesystem::remove(path);
}

TEST(TraceFile, TolerantReadSurvivesOverdeclaredCount) {
  // A header claiming far more records than the body holds (the classic
  // corrupt-length-field failure) must neither crash nor over-allocate.
  std::vector<TraceRecord> records(2);
  records[0].qname = *dns::DnsName::parse("aaaa");
  records[1].qname = *dns::DnsName::parse("bbbb");
  const std::string path = "trace_tolerant_count_test.bin";
  ASSERT_TRUE(TraceFile::write(path, records));
  {
    // Overwrite the u64 count at offset 4 with a huge value.
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 4, SEEK_SET);
    const std::uint64_t bogus = ~0ull;
    std::fwrite(&bogus, sizeof(bogus), 1, f);
    std::fclose(f);
  }
  std::vector<TraceRecord> loaded;
  TraceFile::ReadStats stats;
  ASSERT_TRUE(TraceFile::read_tolerant(path, &loaded, &stats));
  EXPECT_EQ(loaded.size(), 2u);
  EXPECT_TRUE(stats.truncated);
  EXPECT_EQ(stats.records_skipped, ~0ull - 2);
  std::filesystem::remove(path);
}

TEST(TraceFile, TolerantReadSurvivesCorruptLabelLength) {
  std::vector<TraceRecord> records(3);
  records[0].qname = *dns::DnsName::parse("aaaa");
  records[1].qname = *dns::DnsName::parse("bbbb");
  records[2].qname = *dns::DnsName::parse("cccc");
  const std::string path = "trace_tolerant_label_test.bin";
  ASSERT_TRUE(TraceFile::write(path, records));
  {
    // Flip the second record's label-length byte to run past end-of-file.
    // Record layout: 4+8 header, then per record 4+1+2+8+1 fixed + labels.
    const long offset = 12 + (16 + 1 + 4) + 16;
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, offset, SEEK_SET);
    std::fputc(0xFF, f);
    std::fclose(f);
  }
  std::vector<TraceRecord> loaded;
  TraceFile::ReadStats stats;
  ASSERT_TRUE(TraceFile::read_tolerant(path, &loaded, &stats));
  EXPECT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0], records[0]);
  EXPECT_EQ(stats.records_skipped, 2u);
  std::filesystem::remove(path);
}

TEST(TraceFile, WriteReportsAFullDisk) {
  // /dev/full accepts the open and fails every write with ENOSPC. A small
  // trace stays in the stream buffer until the final flush, so only a
  // writer that checks after closing sees the failure.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  std::vector<TraceRecord> records(3);
  for (auto& rec : records) rec.qname = *dns::DnsName::parse("sdhfjssf");
  EXPECT_FALSE(TraceFile::write("/dev/full", records));
}

}  // namespace
}  // namespace netclients::roots
