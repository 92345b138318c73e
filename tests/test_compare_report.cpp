// Tests for the cross-comparison analytics (overlap matrices, volume
// overlap, CDFs, country coverage, per-AS bounds) and the report
// renderers.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/compare/compare.h"
#include "core/report/report.h"
#include "sim/world.h"

namespace netclients::core {
namespace {

PrefixDataset make_prefix_ds(const char* name,
                             std::initializer_list<std::pair<int, double>>
                                 entries) {
  PrefixDataset ds(name);
  for (const auto& [idx, volume] : entries) {
    ds.add(static_cast<std::uint32_t>(idx), volume);
  }
  return ds;
}

AsDataset make_as_ds(const char* name,
                     std::initializer_list<std::pair<int, double>> entries) {
  AsDataset ds(name);
  for (const auto& [asn, volume] : entries) {
    ds.add(static_cast<std::uint32_t>(asn), volume);
  }
  return ds;
}

TEST(Datasets, AddAccumulatesVolume) {
  PrefixDataset ds("x");
  ds.add(5, 2.0);
  ds.add(5, 3.0);
  EXPECT_EQ(ds.size(), 1u);
  EXPECT_DOUBLE_EQ(ds.volume_of(5), 5.0);
  EXPECT_DOUBLE_EQ(ds.total_volume(), 5.0);
}

TEST(Datasets, UnionKeepsFirstVolumeForShared) {
  const auto a = make_prefix_ds("a", {{1, 10.0}, {2, 5.0}});
  const auto b = make_prefix_ds("b", {{2, 99.0}, {3, 7.0}});
  const auto u = PrefixDataset::union_of("u", a, b);
  EXPECT_EQ(u.size(), 3u);
  EXPECT_DOUBLE_EQ(u.volume_of(2), 5.0);
  EXPECT_DOUBLE_EQ(u.volume_of(3), 7.0);
}

TEST(Compare, PrefixOverlapMatrix) {
  const auto a = make_prefix_ds("a", {{1, 0}, {2, 0}, {3, 0}, {4, 0}});
  const auto b = make_prefix_ds("b", {{3, 0}, {4, 0}, {5, 0}});
  const auto matrix = prefix_overlap({&a, &b});
  EXPECT_EQ(matrix.cells[0][0], 4u);
  EXPECT_EQ(matrix.cells[1][1], 3u);
  EXPECT_EQ(matrix.cells[0][1], 2u);
  EXPECT_EQ(matrix.cells[1][0], 2u);
  EXPECT_DOUBLE_EQ(matrix.row_pct(0, 1), 50.0);
  EXPECT_NEAR(matrix.row_pct(1, 0), 66.7, 0.1);
}

TEST(Compare, AsVolumeOverlap) {
  const auto row = make_as_ds("volumes", {{1, 80.0}, {2, 20.0}});
  const auto col_full = make_as_ds("all", {{1, 0}, {2, 0}});
  const auto col_partial = make_as_ds("partial", {{1, 0}});
  const auto result = as_volume_overlap({&row}, {&col_full, &col_partial});
  EXPECT_DOUBLE_EQ(result[0][0], 100.0);
  EXPECT_DOUBLE_EQ(result[0][1], 80.0);
}

TEST(Compare, PrefixVolumeShare) {
  const auto volumes = make_prefix_ds("v", {{1, 90.0}, {2, 10.0}});
  const auto presence = make_prefix_ds("p", {{1, 0}});
  EXPECT_DOUBLE_EQ(prefix_volume_share(volumes, presence), 90.0);
}

TEST(Compare, CdfQuantilesAndPoints) {
  Cdf cdf({5, 1, 3, 2, 4});
  EXPECT_DOUBLE_EQ(cdf.quantile(0), 1);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 3);
  EXPECT_DOUBLE_EQ(cdf.quantile(1), 5);
  const auto points = cdf.points(5);
  ASSERT_EQ(points.size(), 5u);
  EXPECT_DOUBLE_EQ(points.front().first, 1);
  EXPECT_DOUBLE_EQ(points.back().first, 5);
  EXPECT_DOUBLE_EQ(points.back().second, 1.0);
}

TEST(Compare, CdfEmptyIsSafe) {
  Cdf cdf({});
  EXPECT_DOUBLE_EQ(cdf.quantile(0.5), 0);
  EXPECT_TRUE(cdf.points(3).empty());
}

TEST(Compare, RelativeVolumesSumToOne) {
  const auto ds = make_as_ds("x", {{1, 10.0}, {2, 30.0}, {3, 60.0}});
  const auto shares = relative_volumes(ds);
  double total = 0;
  for (const auto& [asn, share] : shares) total += share;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(shares.at(3), 0.6);
}

TEST(Compare, VolumeDifferencesCoverUnion) {
  std::unordered_map<std::uint32_t, double> a{{1, 0.5}, {2, 0.5}};
  std::unordered_map<std::uint32_t, double> b{{2, 0.3}, {3, 0.7}};
  const auto diffs = volume_differences(a, b);
  ASSERT_EQ(diffs.size(), 3u);
  double sum = 0;
  for (double d : diffs) sum += d;
  EXPECT_NEAR(sum, 0.0, 1e-12);  // both sides sum to 1
}

TEST(Compare, CountryCoverageOnWorld) {
  sim::WorldConfig config;
  config.scale = 1.0 / 1024;
  const sim::World world = sim::World::generate(config);
  // Fake APNIC: every AS's true users; detected: all ASes -> coverage 1.
  std::unordered_map<std::uint32_t, double> apnic;
  AsDataset all("all");
  for (const sim::AsEntry& as : world.ases()) {
    if (as.users > 0) {
      apnic[as.asn] = as.users;
      all.add(as.asn);
    }
  }
  const auto rows = country_coverage(world, apnic, all);
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    EXPECT_DOUBLE_EQ(row.covered_fraction, 1.0);
    EXPECT_GT(row.apnic_users, 0);
  }
  // Sorted by users descending.
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_GE(rows[i - 1].apnic_users, rows[i].apnic_users);
  }
}

TEST(Compare, PerAsActiveFractionBounds) {
  sim::WorldConfig config;
  config.scale = 1.0 / 1024;
  const sim::World world = sim::World::generate(config);
  // Mark the first announced prefix of a mid-size AS fully active.
  const sim::AsEntry* target = nullptr;
  for (const sim::AsEntry& as : world.ases()) {
    if (as.announced.size() >= 2 &&
        as.announced[0].slash24_count() >= 4) {
      target = &as;
      break;
    }
  }
  ASSERT_NE(target, nullptr);
  net::DisjointPrefixSet active;
  active.insert(target->announced[0]);
  const auto bounds = per_as_active_fraction(world, active);
  bool found = false;
  for (const auto& row : bounds) {
    if (row.asn == target->asn) {
      found = true;
      EXPECT_EQ(row.lower, 1u);
      EXPECT_EQ(row.upper, target->announced[0].slash24_count());
      EXPECT_LE(row.upper, row.announced_slash24);
    } else {
      EXPECT_EQ(row.upper, 0u);
    }
  }
  EXPECT_TRUE(found);
}

// ------------------------------------------------------------------ report

TEST(Report, HumanCount) {
  EXPECT_EQ(human_count(9712200), "9.7M");
  EXPECT_EQ(human_count(692200), "692.2K");
  EXPECT_EQ(human_count(123), "123");
}

TEST(Report, Pct) {
  EXPECT_EQ(pct(68.12), "68.1%");
  EXPECT_EQ(pct(100.0, 0), "100%");
}

TEST(Report, TextTableAligns) {
  TextTable table;
  table.set_header({"name", "value"});
  table.add_row({"a", "1"});
  table.add_row({"longer", "22"});
  const std::string out = table.to_string();
  EXPECT_NE(out.find("name    value"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
}

TEST(Report, RenderOverlapHasDiagonal100) {
  const auto a = make_prefix_ds("alpha", {{1, 0}, {2, 0}});
  const auto b = make_prefix_ds("beta", {{2, 0}});
  const std::string out = render_overlap(prefix_overlap({&a, &b}));
  EXPECT_NE(out.find("(100.0%)"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
}

TEST(Report, WriteCsv) {
  const std::string path = "report_csv_test.csv";
  ASSERT_TRUE(write_csv(path, {"a", "b"}, {{"1", "2"}, {"3", "4"}}));
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
  in.close();
  std::remove(path.c_str());
}

TEST(Report, WriteCsvReportsAFullDisk) {
  // /dev/full accepts the open and fails every write with ENOSPC; two
  // short rows only reach the device at the final flush.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(write_csv("/dev/full", {"a", "b"}, {{"1", "2"}}));
}

}  // namespace
}  // namespace netclients::core
