// Unit + property tests for the net substrate: addresses, prefixes, the
// radix trie, disjoint prefix sets, geodesy, the deterministic RNG, and
// the shared CRC-32.

#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <string>

#include "net/crc32.h"
#include "net/geo.h"
#include "net/ipv4.h"
#include "net/prefix.h"
#include "net/prefix_set.h"
#include "net/prefix_trie.h"
#include "net/rng.h"
#include "net/zipf.h"

namespace netclients::net {
namespace {

// ---------------------------------------------------------------- Ipv4Addr

TEST(Ipv4Addr, ParsesDottedQuad) {
  auto addr = Ipv4Addr::parse("192.0.2.1");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->value(), 0xC0000201u);
  EXPECT_EQ(addr->to_string(), "192.0.2.1");
}

TEST(Ipv4Addr, ParsesBoundaryValues) {
  EXPECT_EQ(Ipv4Addr::parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(Ipv4Addr::parse("255.255.255.255")->value(), 0xFFFFFFFFu);
}

struct BadAddrCase {
  const char* name;
  const char* text;
};
// gtest_discover_tests names each case after this print. Without it gtest
// dumps the struct's bytes, i.e. string addresses that change every run.
void PrintTo(const BadAddrCase& c, std::ostream* os) { *os << c.name; }

class Ipv4ParseRejects : public ::testing::TestWithParam<BadAddrCase> {};

TEST_P(Ipv4ParseRejects, Rejects) {
  EXPECT_FALSE(Ipv4Addr::parse(GetParam().text).has_value())
      << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, Ipv4ParseRejects,
    ::testing::Values(BadAddrCase{"empty", ""},
                      BadAddrCase{"three_octets", "1.2.3"},
                      BadAddrCase{"five_octets", "1.2.3.4.5"},
                      BadAddrCase{"octet_over_255", "256.1.1.1"},
                      BadAddrCase{"trailing_space", "1.2.3.4 "},
                      BadAddrCase{"leading_space", " 1.2.3.4"},
                      BadAddrCase{"empty_octet", "1..3.4"},
                      BadAddrCase{"letters", "a.b.c.d"},
                      BadAddrCase{"negative_octet", "1.2.3.-4"},
                      BadAddrCase{"trailing_garbage", "1.2.3.4x"}));

TEST(Ipv4Addr, Slash24Index) {
  EXPECT_EQ(Ipv4Addr::parse("10.1.2.3")->slash24_index(),
            (10u << 16) | (1u << 8) | 2u);
}

// ------------------------------------------------------------------ Prefix

TEST(Prefix, CanonicalizesHostBits) {
  Prefix p(*Ipv4Addr::parse("10.1.2.3"), 16);
  EXPECT_EQ(p.to_string(), "10.1.0.0/16");
}

TEST(Prefix, ParseRoundTrip) {
  auto p = Prefix::parse("203.0.113.0/24");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->to_string(), "203.0.113.0/24");
}

TEST(Prefix, ParseRejectsBadLength) {
  EXPECT_FALSE(Prefix::parse("1.2.3.0/33").has_value());
  EXPECT_FALSE(Prefix::parse("1.2.3.0/").has_value());
  EXPECT_FALSE(Prefix::parse("1.2.3.0").has_value());
  EXPECT_FALSE(Prefix::parse("1.2.3.0/2x").has_value());
}

TEST(Prefix, MaskValues) {
  EXPECT_EQ(Prefix::mask(0), 0u);
  EXPECT_EQ(Prefix::mask(8), 0xFF000000u);
  EXPECT_EQ(Prefix::mask(24), 0xFFFFFF00u);
  EXPECT_EQ(Prefix::mask(32), 0xFFFFFFFFu);
}

TEST(Prefix, Containment) {
  const Prefix wide = *Prefix::parse("10.0.0.0/8");
  const Prefix narrow = *Prefix::parse("10.1.2.0/24");
  EXPECT_TRUE(wide.contains(narrow));
  EXPECT_FALSE(narrow.contains(wide));
  EXPECT_TRUE(wide.overlaps(narrow));
  EXPECT_TRUE(narrow.overlaps(wide));
  EXPECT_TRUE(wide.contains(*Ipv4Addr::parse("10.255.0.1")));
  EXPECT_FALSE(wide.contains(*Ipv4Addr::parse("11.0.0.1")));
}

TEST(Prefix, DisjointPrefixesDoNotOverlap) {
  const Prefix a = *Prefix::parse("10.0.0.0/9");
  const Prefix b = *Prefix::parse("10.128.0.0/9");
  EXPECT_FALSE(a.overlaps(b));
}

TEST(Prefix, Slash24Count) {
  EXPECT_EQ(Prefix::parse("10.0.0.0/16")->slash24_count(), 256u);
  EXPECT_EQ(Prefix::parse("10.0.0.0/24")->slash24_count(), 1u);
  EXPECT_EQ(Prefix::parse("10.0.0.0/28")->slash24_count(), 1u);  // widened
  EXPECT_EQ(Prefix::parse("0.0.0.0/0")->slash24_count(), 1u << 24);
}

TEST(Prefix, LastAddress) {
  EXPECT_EQ(Prefix::parse("10.1.0.0/16")->last_address().to_string(),
            "10.1.255.255");
}

TEST(Prefix, WidenTo) {
  const Prefix p = *Prefix::parse("10.1.2.0/24");
  EXPECT_EQ(p.widen_to(16).to_string(), "10.1.0.0/16");
  EXPECT_EQ(p.widen_to(24), p);
}

TEST(Prefix, OrderingPlacesCoverBeforeCovered) {
  const Prefix wide = *Prefix::parse("10.0.0.0/8");
  const Prefix narrow = *Prefix::parse("10.0.0.0/24");
  EXPECT_LT(wide, narrow);
}

// Property sweep: for random prefixes, containment is consistent with
// address membership of base and last address.
class PrefixProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefixProperty, ContainmentMatchesAddressRange) {
  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    const Prefix a(Ipv4Addr(static_cast<std::uint32_t>(rng())),
                   static_cast<std::uint8_t>(rng.below(25)));
    const Prefix b(Ipv4Addr(static_cast<std::uint32_t>(rng())),
                   static_cast<std::uint8_t>(rng.below(25)));
    const bool by_range = a.base().value() <= b.base().value() &&
                          b.last_address().value() <=
                              a.last_address().value();
    EXPECT_EQ(a.contains(b), by_range)
        << a.to_string() << " vs " << b.to_string();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// -------------------------------------------------------------- PrefixTrie

TEST(PrefixTrie, LongestMatchPicksMostSpecific) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 8);
  trie.insert(*Prefix::parse("10.1.0.0/16"), 16);
  trie.insert(*Prefix::parse("10.1.2.0/24"), 24);
  auto match = trie.longest_match(*Ipv4Addr::parse("10.1.2.3"));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(*match->second, 24);
  match = trie.longest_match(*Ipv4Addr::parse("10.1.3.4"));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(*match->second, 16);
  match = trie.longest_match(*Ipv4Addr::parse("10.9.9.9"));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(*match->second, 8);
  EXPECT_FALSE(trie.longest_match(*Ipv4Addr::parse("11.0.0.1")));
}

TEST(PrefixTrie, ShortestMatchPicksLeastSpecific) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("10.0.0.0/8"), 8);
  trie.insert(*Prefix::parse("10.1.2.0/24"), 24);
  auto match = trie.shortest_match(*Ipv4Addr::parse("10.1.2.3"));
  ASSERT_TRUE(match.has_value());
  EXPECT_EQ(*match->second, 8);
}

TEST(PrefixTrie, InsertOverwrites) {
  PrefixTrie<int> trie;
  EXPECT_TRUE(trie.insert(*Prefix::parse("10.0.0.0/8"), 1));
  EXPECT_FALSE(trie.insert(*Prefix::parse("10.0.0.0/8"), 2));
  EXPECT_EQ(trie.size(), 1u);
  EXPECT_EQ(*trie.find(*Prefix::parse("10.0.0.0/8")), 2);
}

TEST(PrefixTrie, DefaultRouteMatchesEverything) {
  PrefixTrie<int> trie;
  trie.insert(Prefix(), 0);
  EXPECT_TRUE(trie.covers(Ipv4Addr(0)));
  EXPECT_TRUE(trie.covers(Ipv4Addr(~0u)));
}

TEST(PrefixTrie, ForEachVisitsInAddressOrder) {
  PrefixTrie<int> trie;
  trie.insert(*Prefix::parse("20.0.0.0/8"), 1);
  trie.insert(*Prefix::parse("10.0.0.0/8"), 2);
  trie.insert(*Prefix::parse("10.5.0.0/16"), 3);
  std::vector<Prefix> seen;
  trie.for_each([&](Prefix p, int) { seen.push_back(p); });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
}

TEST(PrefixTrie, RandomizedAgainstLinearScan) {
  Rng rng(99);
  PrefixTrie<std::size_t> trie;
  std::vector<Prefix> inserted;
  for (int i = 0; i < 500; ++i) {
    Prefix p(Ipv4Addr(static_cast<std::uint32_t>(rng())),
             static_cast<std::uint8_t>(8 + rng.below(17)));
    if (trie.insert(p, inserted.size())) inserted.push_back(p);
  }
  for (int i = 0; i < 500; ++i) {
    const Ipv4Addr addr(static_cast<std::uint32_t>(rng()));
    // Linear reference: most specific containing prefix.
    const Prefix* best = nullptr;
    for (const auto& p : inserted) {
      if (p.contains(addr) && (!best || p.length() > best->length())) {
        best = &p;
      }
    }
    auto match = trie.longest_match(addr);
    ASSERT_EQ(match.has_value(), best != nullptr);
    if (best) {
      EXPECT_EQ(match->first, *best);
    }
  }
}

// -------------------------------------------------------- DisjointPrefixSet

TEST(DisjointPrefixSet, CoveredInsertIsNoop) {
  DisjointPrefixSet set;
  EXPECT_TRUE(set.insert(*Prefix::parse("10.0.0.0/16")));
  EXPECT_FALSE(set.insert(*Prefix::parse("10.0.5.0/24")));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.slash24_upper_bound(), 256u);
}

TEST(DisjointPrefixSet, CoveringInsertAbsorbs) {
  DisjointPrefixSet set;
  set.insert(*Prefix::parse("10.0.1.0/24"));
  set.insert(*Prefix::parse("10.0.9.0/24"));
  EXPECT_EQ(set.size(), 2u);
  set.insert(*Prefix::parse("10.0.0.0/16"));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_EQ(set.slash24_upper_bound(), 256u);
}

TEST(DisjointPrefixSet, IntersectsDetectsBothDirections) {
  DisjointPrefixSet set;
  set.insert(*Prefix::parse("10.0.1.0/24"));
  EXPECT_TRUE(set.intersects(*Prefix::parse("10.0.0.0/16")));  // contains it
  EXPECT_TRUE(set.intersects(*Prefix::parse("10.0.1.0/24")));
  EXPECT_FALSE(set.intersects(*Prefix::parse("10.0.2.0/24")));
}

TEST(DisjointPrefixSet, UpperBoundTracksDisjointSlash24s) {
  DisjointPrefixSet set;
  set.insert(*Prefix::parse("10.0.0.0/20"));  // 16
  set.insert(*Prefix::parse("10.1.0.0/22"));  // 4
  set.insert(*Prefix::parse("10.2.0.0/24"));  // 1
  EXPECT_EQ(set.slash24_upper_bound(), 21u);
  EXPECT_EQ(set.size(), 3u);
}

class DisjointSetProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DisjointSetProperty, InvariantsHoldUnderRandomInserts) {
  Rng rng(GetParam());
  DisjointPrefixSet set;
  for (int i = 0; i < 300; ++i) {
    set.insert(Prefix(Ipv4Addr(static_cast<std::uint32_t>(rng()) & 0x0FFFFFFF),
                      static_cast<std::uint8_t>(12 + rng.below(13))));
  }
  // Invariant 1: stored prefixes are pairwise disjoint.
  const auto prefixes = set.prefixes();
  for (std::size_t i = 0; i + 1 < prefixes.size(); ++i) {
    EXPECT_FALSE(prefixes[i].overlaps(prefixes[i + 1]))
        << prefixes[i].to_string() << " overlaps "
        << prefixes[i + 1].to_string();
  }
  // Invariant 2: the upper bound equals the sum of /24 counts.
  std::uint64_t total = 0;
  for (const auto& p : prefixes) total += p.slash24_count();
  EXPECT_EQ(total, set.slash24_upper_bound());
  // Invariant 3: every stored prefix is covered.
  for (const auto& p : prefixes) EXPECT_TRUE(set.covers(p));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DisjointSetProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// --------------------------------------------------------------------- geo

TEST(Geo, HaversineKnownDistances) {
  const LatLon nyc{40.7128, -74.0060};
  const LatLon london{51.5074, -0.1278};
  EXPECT_NEAR(haversine_km(nyc, london), 5570, 60);
  EXPECT_NEAR(haversine_km(nyc, nyc), 0, 1e-9);
}

TEST(Geo, HaversineSymmetric) {
  const LatLon a{10, 20}, b{-30, 140};
  EXPECT_DOUBLE_EQ(haversine_km(a, b), haversine_km(b, a));
}

TEST(Geo, DestinationPointRoundTrip) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const LatLon origin{rng.uniform(-60, 60), rng.uniform(-179, 179)};
    const double distance = rng.uniform(1, 3000);
    const LatLon dest =
        destination_point(origin, rng.uniform(0, 360), distance);
    EXPECT_NEAR(haversine_km(origin, dest), distance, distance * 0.01 + 0.5);
  }
}

TEST(Geo, DestinationNormalizesLongitude) {
  const LatLon dest = destination_point({0, 179.5}, 90, 500);
  EXPECT_GE(dest.lon_deg, -180.0);
  EXPECT_LT(dest.lon_deg, 180.0);
}

// --------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(8);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, PoissonMeanSmallAndLarge) {
  Rng rng(9);
  for (double mean : {0.5, 4.0, 100.0}) {
    double total = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) total += static_cast<double>(rng.poisson(mean));
    EXPECT_NEAR(total / n, mean, mean * 0.05 + 0.05) << "mean=" << mean;
  }
}

TEST(Rng, ExponentialMean) {
  Rng rng(10);
  double total = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) total += rng.exponential(2.0);
  EXPECT_NEAR(total / n, 0.5, 0.02);
}

TEST(Rng, ParetoExceedsScale) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.pareto(3.0, 1.0), 3.0);
}

TEST(Rng, StableSeedOrderSensitive) {
  EXPECT_NE(stable_seed(1, 2, 3), stable_seed(1, 3, 2));
  EXPECT_EQ(stable_seed(1, 2, 3), stable_seed(1, 2, 3));
}

TEST(Rng, StableSeedFoldsKeysOneAtATime) {
  // Callers that share leading keys hash them once and fold the last key
  // on per draw (RootSystem's letter picks); that is the same seed only
  // because stable_seed folds its keys one at a time.
  Rng rng(0x5EED);
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t root = rng();
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    EXPECT_EQ(stable_seed(root, a, b), hash_combine(stable_seed(root, a), b));
  }
}

TEST(Rng, StableHashIsStable) {
  // Values locked in: simulation decisions must not change across runs or
  // platforms.
  EXPECT_EQ(stable_hash("www.google.com"), stable_hash("www.google.com"));
  EXPECT_NE(stable_hash("a"), stable_hash("b"));
}

// ------------------------------------------------------------------- crc32

/// The textbook byte-at-a-time CRC-32 (reflected 0xEDB88320), kept here
/// as the reference the sliced implementation must equal.
std::uint32_t bytewise_crc32(std::string_view bytes) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const unsigned char byte : bytes) {
    crc ^= byte;
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(Crc32, KnownAnswers) {
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_EQ(bytewise_crc32("123456789"), 0xCBF43926u);
}

TEST(Crc32, EveryLengthAndAlignmentMatchesBytewise) {
  // Lengths 0-64 cover an empty input, a tail alone, and one to eight
  // 8-byte steps with every tail; offsets 0-7 cover every load alignment.
  Rng rng(0xC3C);
  std::string buffer(8 + 64, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.below(256));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const std::string_view bytes(buffer.data() + offset, length);
      EXPECT_EQ(crc32(bytes), bytewise_crc32(bytes))
          << "offset " << offset << " length " << length;
    }
  }
}

// -------------------------------------------------------------------- zipf

TEST(Zipf, RankZeroMostLikely) {
  ZipfSampler zipf(100, 1.0);
  EXPECT_GT(zipf.pmf(0), zipf.pmf(1));
  EXPECT_GT(zipf.pmf(1), zipf.pmf(50));
}

TEST(Zipf, SampleFrequenciesFollowPmf) {
  ZipfSampler zipf(10, 1.2);
  Rng rng(12);
  std::vector<int> counts(10, 0);
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[zipf.sample(rng)];
  for (int rank = 0; rank < 10; ++rank) {
    EXPECT_NEAR(counts[rank] / static_cast<double>(n), zipf.pmf(rank), 0.01);
  }
}

}  // namespace
}  // namespace netclients::net
