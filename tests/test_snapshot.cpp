// Snapshot store + serving index suite (labels: determinism, tsan).
//
// Covers the netclients.snap.v1 persistence layer end to end: lossless
// round-trips, byte-identical encodes regardless of REPRO_THREADS, the
// tolerant reader's skip-and-count behaviour under truncation and
// per-section corruption (it must never crash and must keep every intact
// epoch), the strict validate() gate, one canonical encoding per varint
// value, snapshot-handle lookup determinism
// across thread counts, and epoch-diff churn analytics. (The serving
// tier itself — handle lifetime, concurrent publish/read — lives in
// test_serve.)
//
// One shared fixture runs the two-epoch campaign once; every case reads
// from it. Campaigns are expensive — keep the world at kScale.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/scenario/scenario.h"
#include "core/serve/service.h"
#include "core/snapshot/snapshot.h"
#include "net/rng.h"

namespace netclients::core {
namespace {

constexpr double kScale = 2048;

/// Shared two-epoch campaign + its encoded snapshot, built once.
class SnapshotSuite : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new Scenario(ScenarioBuilder()
                                 .scale_denominator(kScale)
                                 .epochs(2)
                                 .build());
    epochs_ = new std::vector<snapshot::EpochRecord>(scenario_->run_epochs());
    bytes_ = new std::string(snapshot::encode(*epochs_));
  }
  static void TearDownTestSuite() {
    delete bytes_;
    delete epochs_;
    delete scenario_;
    bytes_ = nullptr;
    epochs_ = nullptr;
    scenario_ = nullptr;
  }

  static const Scenario& scenario() { return *scenario_; }
  static const std::vector<snapshot::EpochRecord>& epochs() {
    return *epochs_;
  }
  static const std::string& bytes() { return *bytes_; }

 private:
  static Scenario* scenario_;
  static std::vector<snapshot::EpochRecord>* epochs_;
  static std::string* bytes_;
};

Scenario* SnapshotSuite::scenario_ = nullptr;
std::vector<snapshot::EpochRecord>* SnapshotSuite::epochs_ = nullptr;
std::string* SnapshotSuite::bytes_ = nullptr;

/// Runs `fn` with REPRO_THREADS pinned to `threads`, restoring the
/// previous value afterwards.
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

// ------------------------------------------------------------ round trip

TEST_F(SnapshotSuite, CampaignProducesNonTrivialEpochs) {
  ASSERT_EQ(epochs().size(), 2u);
  EXPECT_GT(epochs()[0].prefixes.size(), 0u);
  EXPECT_GT(epochs()[1].prefixes.size(), 0u);
  EXPECT_GT(epochs()[0].totals.probes_sent, 0u);
  EXPECT_GT(epochs()[0].as_aggregates.size(), 0u);
  EXPECT_EQ(epochs()[0].world_seed, scenario().world().config().seed);
}

TEST_F(SnapshotSuite, RoundTripIsLossless) {
  const auto file = snapshot::decode(bytes());
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->stats.sections_skipped, 0u);
  EXPECT_EQ(file->stats.crc_failures, 0u);
  EXPECT_FALSE(file->stats.truncated);
  ASSERT_EQ(file->epochs.size(), epochs().size());
  for (std::size_t i = 0; i < epochs().size(); ++i) {
    EXPECT_EQ(file->epochs[i], epochs()[i]) << "epoch " << i;
  }
}

TEST_F(SnapshotSuite, DeltaEncodingShrinksLaterEpochs) {
  // Epoch 1 is stored as a delta against epoch 0; with heavy overlap
  // between the epochs' active sets it must be smaller than a full
  // re-encode of epoch 1 alone.
  const std::string full_epoch1 = snapshot::encode({epochs()[1]});
  const std::string both = snapshot::encode(epochs());
  const std::string full_epoch0 = snapshot::encode({epochs()[0]});
  EXPECT_LT(both.size(), full_epoch0.size() + full_epoch1.size());
}

TEST_F(SnapshotSuite, EncodeIsByteIdenticalAcrossThreadCounts) {
  // The campaign itself is the threaded stage; encode consumes its
  // (already deterministic) records. Re-run the whole pipeline at 1 and
  // 4 threads and require identical bytes.
  const std::string serial = with_threads(1, [&] {
    return snapshot::encode(scenario().run_epochs());
  });
  const std::string parallel = with_threads(4, [&] {
    return snapshot::encode(scenario().run_epochs());
  });
  EXPECT_EQ(serial, parallel);
  EXPECT_EQ(serial, bytes());
}

TEST_F(SnapshotSuite, FileRoundTripMatchesInMemory) {
  const std::string path = ::testing::TempDir() + "snapshot_roundtrip.snap";
  ASSERT_TRUE(snapshot::write(path, epochs()));
  const auto file = snapshot::read(path);
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->epochs, epochs());
  EXPECT_TRUE(snapshot::validate_file(path).empty());
  std::remove(path.c_str());
}

// ------------------------------------------------- tolerance under damage

TEST_F(SnapshotSuite, TruncationAtEveryLengthNeverCrashes) {
  // Chop the file at a spread of lengths (every prefix of the header
  // region, then strided): decode must never crash, must never invent
  // epochs, and — except when the cut lands exactly on a frame boundary,
  // where the shorter file is indistinguishable from a well-formed one —
  // must flag truncation.
  const std::string& good = bytes();
  for (std::size_t cut = 0; cut < good.size();
       cut += (cut < 64 ? 1 : 97)) {
    const auto file = snapshot::decode(std::string_view(good).substr(0, cut));
    if (cut < 8) {
      EXPECT_FALSE(file.has_value()) << "cut=" << cut;
      continue;
    }
    ASSERT_TRUE(file.has_value()) << "cut=" << cut;
    // A proper prefix of the file can never carry every section of both
    // epochs, so either the reader noticed the ragged tail or it dropped
    // an incomplete epoch (boundary cut).
    EXPECT_TRUE(file->stats.truncated ||
                file->epochs.size() < epochs().size())
        << "cut=" << cut;
    EXPECT_LE(file->epochs.size(), epochs().size());
  }
}

TEST_F(SnapshotSuite, CorruptionOfAnyByteIsContained) {
  // Flip one byte at a stride of positions. Whatever breaks, decode must
  // not crash, and any fully intact epoch it does return must equal the
  // original record exactly (CRC framing catches the rest).
  const std::string& good = bytes();
  for (std::size_t pos = 8; pos < good.size(); pos += 131) {
    std::string bad = good;
    bad[pos] = static_cast<char>(bad[pos] ^ 0x5A);
    const auto file = snapshot::decode(bad);
    if (!file.has_value()) continue;  // magic damaged
    for (const auto& epoch : file->epochs) {
      for (const auto& orig : epochs()) {
        if (orig.epoch_id == epoch.epoch_id &&
            orig.world_seed == epoch.world_seed &&
            orig.prefixes.size() == epoch.prefixes.size()) {
          // Same identity and shape: sampled fields must agree (a raw
          // EXPECT_EQ of whole epochs would also pass, but this keeps
          // the failure message readable).
          EXPECT_EQ(orig.totals.cache_hits, epoch.totals.cache_hits);
        }
      }
    }
  }
}

TEST_F(SnapshotSuite, DamagedDeltaSectionDropsOnlyThatEpoch) {
  // Corrupt a byte inside the LAST epoch's span: epoch 0 (stored full,
  // earlier in the file) must survive; the damaged epoch must be
  // dropped and counted.
  const std::string& good = bytes();
  // The final section's CRC field sits in the last frame; corrupt the
  // file's final payload byte, which belongs to epoch 1.
  std::string bad = good;
  bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0xFF);
  const auto file = snapshot::decode(bad);
  ASSERT_TRUE(file.has_value());
  ASSERT_GE(file->epochs.size(), 1u);
  EXPECT_EQ(file->epochs[0], epochs()[0]);
  EXPECT_GE(file->stats.crc_failures + file->stats.sections_skipped, 1u);
  EXPECT_GE(file->stats.epochs_skipped, 1u);
}

TEST_F(SnapshotSuite, DamagedEpochBreaksTheDeltaChainUntilAFullEpoch) {
  // Epoch 0 full, epochs 1 and 2 deltas, then epoch 3 full (a second
  // file's sections appended). Damaging epoch 1 must drop epoch 2, which
  // chains off it, and leave epochs 0 and 3 intact.
  const auto record = [&](std::size_t i, std::uint32_t id) {
    snapshot::EpochRecord r = epochs()[i];
    r.epoch_id = id;
    return r;
  };
  std::string file =
      snapshot::encode({record(0, 0), record(1, 1), record(0, 2)});
  file.append(snapshot::encode({record(1, 3)}), sizeof(snapshot::kMagic));

  // The last payload byte of epoch 1's prefixes section; a frame header
  // is 20 bytes.
  const auto sections = snapshot::section_sizes(file);
  ASSERT_TRUE(sections.has_value());
  std::size_t end = sizeof(snapshot::kMagic);
  std::size_t damage = 0;
  for (const auto& section : *sections) {
    end += 20 + section.payload_bytes;
    if (section.epoch_id == 1 &&
        snapshot::section_kind_name(section.kind) == "prefixes") {
      damage = end - 1;
    }
  }
  ASSERT_GT(damage, 0u);
  file[damage] = static_cast<char>(file[damage] ^ 0x5A);

  const auto decoded = snapshot::decode(file);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->epochs.size(), 2u);
  EXPECT_EQ(decoded->epochs[0], record(0, 0));
  EXPECT_EQ(decoded->epochs[1], record(1, 3));
  EXPECT_EQ(decoded->stats.epochs_skipped, 2u);
}

TEST_F(SnapshotSuite, ValidateAcceptsGoodRejectsCorrupt) {
  EXPECT_TRUE(snapshot::validate(bytes()).empty());
  std::string bad = bytes();
  bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0x01);
  EXPECT_FALSE(snapshot::validate(bad).empty());
  EXPECT_FALSE(snapshot::validate("NOTASNAP").empty());
  EXPECT_FALSE(snapshot::validate(std::string_view(bytes()).substr(
                   0, bytes().size() - 3))
                   .empty());
}

// ------------------------------------------------------------------ varint

std::optional<std::uint64_t> read_varint(std::string bytes,
                                         std::size_t* left = nullptr) {
  std::string_view view(bytes);
  const auto value = snapshot::detail::get_varint(view);
  if (left) *left = view.size();
  return value;
}

TEST(SnapshotVarint, Uint64MaxRoundTrips) {
  // Nine full 7-bit groups, then a 10th byte carrying only bit 63.
  std::string bytes;
  snapshot::detail::put_varint(bytes, UINT64_MAX);
  EXPECT_EQ(bytes, std::string(9, '\xFF') + '\x01');
  bytes += '\x2A';  // the next value must stay unread
  std::size_t left = 0;
  EXPECT_EQ(read_varint(bytes, &left), UINT64_MAX);
  EXPECT_EQ(left, 1u);
}

TEST(SnapshotVarint, RejectsATenthByteAboveOne) {
  // 0x02 in the 10th byte is bit 64, past what a u64 holds; shifting it
  // in would silently drop it. A continuation bit there would start an
  // 11th byte.
  EXPECT_FALSE(read_varint(std::string(9, '\xFF') + '\x02'));
  EXPECT_FALSE(read_varint(std::string(9, '\xFF') + '\x81' + '\x00'));
}

TEST(SnapshotVarint, RejectsOverlongEncodings) {
  // A zero final byte after a continuation adds nothing: 0x80 0x00 is a
  // second spelling of 0, 0xFF 0x00 of 127. One value, one encoding.
  EXPECT_FALSE(read_varint(std::string("\x80\x00", 2)));
  EXPECT_FALSE(read_varint(std::string("\xFF\x00", 2)));
  EXPECT_FALSE(read_varint(std::string("\x80", 1)));  // truncated
  EXPECT_EQ(read_varint(std::string("\x00", 1)), 0u);
  EXPECT_EQ(read_varint("\x7F"), 127u);
  EXPECT_EQ(read_varint("\x80\x01"), 128u);
}

// ----------------------------------------------------------- serving index

TEST_F(SnapshotSuite, LookupManyIsByteIdenticalAcrossThreadCounts) {
  // All serving goes through the Service handle API; the ClientIndex
  // underneath is an internal build artifact.
  serve::Service service;
  service.publish(std::span<const snapshot::EpochRecord>(epochs()));
  const serve::SnapshotHandle handle = service.acquire();
  ASSERT_GT(handle->index().prefix_count(), 0u);

  // ~200k deterministic queries spanning hits and misses.
  net::Rng rng(0xD15C0);
  std::vector<net::Ipv4Addr> queries;
  queries.reserve(200000);
  for (int i = 0; i < 200000; ++i) {
    queries.push_back(net::Ipv4Addr(static_cast<std::uint32_t>(rng())));
  }
  const auto one = handle->lookup_many(queries, 1);
  const auto eight = handle->lookup_many(queries, 8);
  EXPECT_EQ(one, eight);

  // REPRO_THREADS env form (threads = 0) must agree too.
  const auto env_one =
      with_threads(1, [&] { return handle->lookup_many(queries, 0); });
  const auto env_eight =
      with_threads(8, [&] { return handle->lookup_many(queries, 0); });
  EXPECT_EQ(env_one, env_eight);
  EXPECT_EQ(one, env_one);

  // And the batched path answers exactly what the single-query path and
  // the structurally independent trie oracle answer.
  for (std::size_t i = 0; i < queries.size(); i += 173) {
    ASSERT_EQ(handle->lookup(queries[i]), one[i]) << "query " << i;
    ASSERT_EQ(handle->index().lookup_reference(queries[i]), one[i])
        << "query " << i;
  }
}

TEST_F(SnapshotSuite, IndexAggregatesMatchEntrySums) {
  serve::Service service;
  service.publish(std::span<const snapshot::EpochRecord>(epochs()));
  const serve::SnapshotHandle handle = service.acquire();
  const serve::ClientIndex& index = handle->index();
  double as_total = 0;
  for (const auto& agg : index.as_aggregates()) {
    EXPECT_EQ(index.as_volume(agg.asn), agg.volume);
    as_total += agg.volume;
  }
  EXPECT_LE(as_total, index.total_volume() + 1e-9);
  const auto top = index.top_as(3);
  ASSERT_LE(top.size(), 3u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].volume, top[i].volume);
  }
}

// ------------------------------------------------------------- epoch diff

TEST_F(SnapshotSuite, DiffReportsChurnAndIsDeterministic) {
  const serve::EpochDiff d1 = serve::diff_epochs(epochs()[0], epochs()[1]);
  const serve::EpochDiff d2 = serve::diff_epochs(epochs()[0], epochs()[1]);
  EXPECT_EQ(d1.gained, d2.gained);
  EXPECT_EQ(d1.lost, d2.lost);
  EXPECT_EQ(d1.persisting, d2.persisting);
  EXPECT_EQ(d1.mean_rank_drift, d2.mean_rank_drift);

  // Re-keyed epochs must actually churn (the acceptance criterion
  // snapctl diff demonstrates): some prefixes gained, some lost, and a
  // heavy persisting core.
  EXPECT_GT(d1.gained.size(), 0u);
  EXPECT_GT(d1.lost.size(), 0u);
  EXPECT_GT(d1.persisting, 0u);
  EXPECT_GT(d1.persisting, d1.gained.size() / 4);

  // Conservation: every `from` prefix is lost or persisting, every `to`
  // prefix gained or persisting.
  EXPECT_EQ(d1.lost.size() + d1.persisting, epochs()[0].prefixes.size());
  EXPECT_EQ(d1.gained.size() + d1.persisting, epochs()[1].prefixes.size());
}

TEST_F(SnapshotSuite, DiffOfAnEpochWithItselfIsEmpty) {
  const serve::EpochDiff d = serve::diff_epochs(epochs()[0], epochs()[0]);
  EXPECT_EQ(d.gained.size(), 0u);
  EXPECT_EQ(d.lost.size(), 0u);
  EXPECT_EQ(d.persisting, epochs()[0].prefixes.size());
  EXPECT_EQ(d.mean_rank_drift, 0.0);
  EXPECT_EQ(d.normalized_rank_drift, 0.0);
}

TEST(SnapshotFile, WriteReportsAFullDisk) {
  // /dev/full accepts the open and fails every write with ENOSPC; a small
  // snapshot only reaches the device at the final flush.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  EXPECT_FALSE(snapshot::write("/dev/full", {}));
}

}  // namespace
}  // namespace netclients::core
