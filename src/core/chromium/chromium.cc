#include "core/chromium/chromium.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>
#include <vector>

#include "core/chromium/count_table.h"
#include "core/exec/exec.h"
#include "core/exec/steal.h"
#include "core/obs/obs.h"
#include "dns/packet.h"
#include "net/rng.h"
#include "net/sim_time.h"
#include "roots/corpus.h"
#include "roots/packet_trace.h"
#include "roots/trace_view.h"

namespace netclients::core {
namespace {

/// Byte classes the signature accepts: lowercase ASCII letters, plus
/// uppercase (raw trace bytes are not canonicalized; materializing
/// lowercases them, so both matchers must treat 'A' like 'a').
constexpr std::array<bool, 256> kSignatureByte = [] {
  std::array<bool, 256> table{};
  for (int c = 'a'; c <= 'z'; ++c) table[static_cast<std::size_t>(c)] = true;
  for (int c = 'A'; c <= 'Z'; ++c) table[static_cast<std::size_t>(c)] = true;
  return table;
}();

}  // namespace

bool matches_chromium_signature_bytes(std::string_view label) {
  if (label.size() < 7 || label.size() > 15) return false;
  for (char c : label) {
    if (!kSignatureByte[static_cast<unsigned char>(c)]) return false;
  }
  return true;
}

bool matches_chromium_signature(const dns::DnsName& name) {
  // One fetch of the single label, then the shared byte predicate — the
  // DnsName and zero-copy matchers cannot drift.
  return name.is_single_label() &&
         matches_chromium_signature_bytes(name.labels().front());
}

namespace {

/// stable_hash over the lowercased bytes of a raw trace label — equal to
/// stable_hash of the label's canonical (materialized) form. Only labels
/// that already matched the signature are hashed, so every byte is an
/// ASCII letter and the fold is a branchless OR.
std::uint64_t lower_stable_hash(std::string_view label) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : label) {
    h ^= static_cast<unsigned char>(c) | 0x20u;
    h *= 0x100000001b3ULL;
  }
  return net::mix64(h);
}

std::uint64_t name_day_key(std::string_view first_label, net::SimTime ts) {
  const auto day = static_cast<std::uint64_t>(ts / net::kDay);
  return net::hash_combine(lower_stable_hash(first_label), day);
}

/// Record adapters for the scan kernels below: extract the sole label
/// of a single-label qname, or report that the record has no such label.
/// NCD1 refs read the label bytes straight out of the frame; NCP1 refs pay
/// a full zero-copy wire parse — a framed but unparseable packet simply
/// has no label (a scanned non-match), which keeps the scan's accept set a
/// property of the bytes, not of where chunk boundaries fell.
bool single_label_of(const roots::TraceRecordRef& ref,
                     std::string_view* label) {
  if (!ref.is_single_label()) return false;
  *label = ref.first_label();
  return true;
}

bool single_label_of(const roots::PacketRecordRef& ref,
                     std::string_view* label) {
  const auto view = dns::MessageView::parse(ref.wire());
  if (!view || view->question_count() == 0) return false;
  const dns::NameView& name = view->first_question().name;
  if (!name.is_single_label()) return false;
  *label = name.first_label();
  return true;
}

/// The collision threshold in the sampled domain: a name with the
/// full-trace threshold count is expected to appear threshold×rate times
/// after sampling. Keep at least 2 so single occurrences (the Chromium
/// common case) always survive.
std::uint32_t effective_threshold(const ChromiumOptions& options) {
  return std::max<std::uint32_t>(
      2, static_cast<std::uint32_t>(std::lround(
             options.daily_collision_threshold * options.sample_rate)));
}

/// A match key's 32-bit fingerprint. Equal keys have equal fingerprints,
/// so a key never occurs more often than its fingerprint does.
std::uint32_t fingerprint(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> 32);
}

/// Fingerprint ranges (by top byte) the count phase fans out over.
constexpr std::size_t kFingerprintRanges = 256;

/// Sorts fingerprints ascending: an LSD radix sort over the four bytes,
/// with every byte's histogram taken in one pass up front. A byte all
/// values share (a count range's top byte) costs no pass.
void sort_fingerprints(std::vector<std::uint32_t>& values) {
  if (values.empty()) return;
  std::array<std::array<std::size_t, 256>, 4> offsets{};
  for (const std::uint32_t v : values) {
    for (int b = 0; b < 4; ++b) ++offsets[b][(v >> (8 * b)) & 0xFF];
  }
  std::vector<std::uint32_t> scratch(values.size());
  for (int b = 0; b < 4; ++b) {
    std::array<std::size_t, 256>& offset = offsets[b];
    if (offset[(values[0] >> (8 * b)) & 0xFF] == values.size()) continue;
    std::size_t next = 0;
    for (std::size_t& slot : offset) next += std::exchange(slot, next);
    for (const std::uint32_t v : values) {
      scratch[offset[(v >> (8 * b)) & 0xFF]++] = v;
    }
    values.swap(scratch);
  }
}

/// The repeated fingerprints, sorted, behind a bitmap over their top
/// bits. A clear bit proves a fingerprint absent in one cache-resident
/// probe; only a set bit (at most 1 in 16 of the bitmap) pays the binary
/// search that makes the answer exact.
class FingerprintSet {
 public:
  explicit FingerprintSet(std::vector<std::uint32_t> sorted)
      : sorted_(std::move(sorted)) {
    int bits = 6;
    while (bits < 26 && (std::size_t{1} << bits) < 16 * sorted_.size()) {
      ++bits;
    }
    shift_ = 32 - bits;
    bitmap_.assign((std::size_t{1} << bits) / 64, 0);
    for (const std::uint32_t fp : sorted_) {
      const std::uint32_t slot = fp >> shift_;
      bitmap_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    }
  }

  bool contains(std::uint32_t fp) const {
    const std::uint32_t slot = fp >> shift_;
    if (((bitmap_[slot >> 6] >> (slot & 63)) & 1) == 0) return false;
    return std::binary_search(sorted_.begin(), sorted_.end(), fp);
  }

 private:
  std::vector<std::uint32_t> sorted_;
  std::vector<std::uint64_t> bitmap_;
  int shift_ = 0;
};

/// Record-aligned partition of one view: a serial boundary walk validates
/// the declared records (bounds and label arithmetic only — no field
/// decode, no allocation) and cuts chunk boundaries by byte offset every
/// `chunk_records` records. The partition depends on the bytes and the
/// chunk size alone, so the parallel passes shard identically at every
/// thread count; the walk doubles as the tolerant skip-and-count
/// accounting.
template <typename RefT, typename ViewT>
std::vector<exec::RecordChunk> partition_view(const ViewT& view,
                                              std::size_t chunk_records,
                                              std::uint64_t* scanned,
                                              std::uint64_t* skipped) {
  exec::RecordChunker chunker(chunk_records);
  typename ViewT::Cursor cursor = view.cursor();
  RefT ref;
  while (true) {
    const std::size_t at = cursor.offset();
    if (!cursor.next(&ref)) break;
    chunker.note(at);
  }
  *scanned = cursor.index();
  *skipped = view.declared_count() - cursor.index();
  return chunker.finish(cursor.offset());
}

/// The decode loop both passes share: calls fn(key, source) for every
/// signature match of one chunk, in record order.
template <typename RefT, typename ViewT, typename Fn>
void scan_chunk(const ViewT& view, const exec::RecordChunk& chunk, Fn& fn) {
  typename ViewT::Cursor cursor = view.cursor_at(chunk.begin,
                                                 chunk.first_record);
  RefT ref;
  for (std::uint64_t r = 0; r < chunk.records; ++r) {
    if (!cursor.next(&ref)) break;  // unreachable: chunk pre-validated
    std::string_view label;
    if (single_label_of(ref, &label) &&
        matches_chromium_signature_bytes(label)) {
      fn(name_day_key(label, ref.timestamp()), ref.source().value());
    }
  }
}

template <typename Fn>
void for_each_match(const roots::CorpusView::Member& member,
                    const exec::RecordChunk& chunk, Fn&& fn) {
  if (member.trace) {
    scan_chunk<roots::TraceRecordRef>(*member.trace, chunk, fn);
  } else {
    scan_chunk<roots::PacketRecordRef>(*member.packets, chunk, fn);
  }
}

/// A match whose fingerprint is repeated: its key decides at the merge.
struct Candidate {
  std::uint64_t key = 0;
  std::uint32_t source = 0;
};

/// Per-chunk pass-2 partial: sources of the matches already proven below
/// the threshold, in a flat open-addressing count table, plus the
/// chunk's candidates in record order.
struct ChunkPartial {
  ScanCountTable counts;
  std::vector<Candidate> candidates;
  std::uint64_t matches = 0;
};

/// Folds canonically-ordered pass-2 partials into the result and returns
/// the number of candidates. Every occurrence of a candidate's key is a
/// candidate, so counting the candidates' keys counts them exactly.
/// Integer sums, then one multiply by 1/sample_rate: byte-identical at any
/// thread count.
std::uint64_t merge_partials(const std::vector<ChunkPartial>& partials,
                             std::uint32_t threshold, double sample_rate,
                             ChromiumResult* result) {
  std::unordered_map<std::uint64_t, std::uint32_t> key_counts;
  std::uint64_t candidates = 0;
  for (const ChunkPartial& partial : partials) {
    for (const Candidate& c : partial.candidates) ++key_counts[c.key];
    candidates += partial.candidates.size();
  }
  std::unordered_map<std::uint32_t, std::uint64_t> counts;
  for (const ChunkPartial& partial : partials) {
    result->signature_matches += partial.matches;
    partial.counts.for_each([&](std::uint32_t source, std::uint64_t count) {
      counts[source] += count;
    });
    for (const Candidate& c : partial.candidates) {
      if (key_counts[c.key] < threshold) {
        ++counts[c.source];
      } else {
        ++result->rejected_collisions;
      }
    }
  }
  const double scale = 1.0 / sample_rate;
  for (const auto& [source, count] : counts) {
    result->probes_by_resolver[source] = static_cast<double>(count) * scale;
  }
  return candidates;
}

}  // namespace

ChromiumResult ChromiumCounter::process_corpus(
    const roots::CorpusView& corpus, exec::StealTelemetry* telemetry) const {
  ChromiumResult result;
  const std::uint32_t threshold = effective_threshold(options_);
  const auto& members = corpus.members();

  // Phase A: partition every member in parallel. Each member's boundary
  // walk is serial, but members are independent byte streams, so the
  // walks themselves fan out. This is the structural win over a single
  // concatenated file, where the partition is one long serial pass.
  struct MemberPartition {
    std::vector<exec::RecordChunk> chunks;
    std::uint64_t scanned = 0;
    std::uint64_t skipped = 0;
  };
  std::vector<MemberPartition> partitions;
  {
    obs::StageSpan span("chromium.scan.partition");
    partitions =
        exec::parallel_map(members.size(), options_.threads, [&](std::size_t m) {
          MemberPartition p;
          if (members[m].trace) {
            p.chunks = partition_view<roots::TraceRecordRef>(
                *members[m].trace, options_.chunk_records, &p.scanned,
                &p.skipped);
          } else if (members[m].packets) {
            p.chunks = partition_view<roots::PacketRecordRef>(
                *members[m].packets, options_.chunk_records, &p.scanned,
                &p.skipped);
          }
          return p;
        });
  }
  // Canonical task order: (file, chunk) ascending. The steal scheduler may
  // execute tasks in any interleaving; every merge below replays this
  // order, which is what keeps the result byte-identical at any
  // REPRO_THREADS and any steal pattern.
  struct CorpusTask {
    std::size_t member = 0;
    exec::RecordChunk chunk;
  };
  std::vector<CorpusTask> tasks;
  for (std::size_t m = 0; m < partitions.size(); ++m) {
    result.records_scanned += partitions[m].scanned;
    result.records_skipped += partitions[m].skipped;
    for (const exec::RecordChunk& chunk : partitions[m].chunks) {
      tasks.push_back(CorpusTask{m, chunk});
    }
  }
  // Members the manifest promised but the open skipped entirely.
  result.records_skipped += corpus.stats().records_skipped;

  // Pass 1: each task's match fingerprints, sorted into a run.
  std::vector<std::vector<std::uint32_t>> runs;
  exec::StealTelemetry pass1_telemetry;
  {
    obs::StageSpan span("chromium.scan.pass1_fingerprints");
    runs = exec::steal_map(
        tasks.size(), options_.threads,
        [&](std::size_t t) {
          std::vector<std::uint32_t> run;
          run.reserve(static_cast<std::size_t>(tasks[t].chunk.records));
          for_each_match(members[tasks[t].member], tasks[t].chunk,
                         [&](std::uint64_t key, std::uint32_t) {
                           run.push_back(fingerprint(key));
                         });
          sort_fingerprints(run);
          return run;
        },
        &pass1_telemetry);
  }

  // Count: one shard per fingerprint range gathers its slice of every
  // run and keeps the fingerprints seen at least `threshold` times. The
  // ranges are disjoint and ascending, so their concatenation is sorted.
  std::vector<std::uint32_t> repeated;
  {
    obs::StageSpan span("chromium.scan.count");
    const auto per_range = exec::parallel_map(
        kFingerprintRanges, options_.threads, [&](std::size_t r) {
          const auto lo = static_cast<std::uint32_t>(r << 24);
          std::vector<std::uint32_t> slice;
          for (const std::vector<std::uint32_t>& run : runs) {
            const auto first = std::lower_bound(run.begin(), run.end(), lo);
            const auto last =
                r + 1 == kFingerprintRanges
                    ? run.end()
                    : std::lower_bound(first, run.end(), lo + (1u << 24));
            slice.insert(slice.end(), first, last);
          }
          sort_fingerprints(slice);
          std::vector<std::uint32_t> kept;
          for (std::size_t i = 0; i < slice.size();) {
            std::size_t j = i + 1;
            while (j < slice.size() && slice[j] == slice[i]) ++j;
            if (j - i >= threshold) kept.push_back(slice[i]);
            i = j;
          }
          return kept;
        });
    runs = {};
    for (const std::vector<std::uint32_t>& kept : per_range) {
      repeated.insert(repeated.end(), kept.begin(), kept.end());
    }
  }
  const FingerprintSet repeated_set(std::move(repeated));

  // Pass 2: a match whose fingerprint is not repeated is below the
  // threshold and counts for its source now; the rest become candidates.
  // Per-task partials come back by task index (canonical order)
  // regardless of who executed them.
  std::vector<ChunkPartial> partials;
  exec::StealTelemetry pass2_telemetry;
  {
    obs::StageSpan span("chromium.scan.pass2_attribute");
    partials = exec::steal_map(
        tasks.size(), options_.threads,
        [&](std::size_t t) {
          ChunkPartial partial;
          for_each_match(
              members[tasks[t].member], tasks[t].chunk,
              [&](std::uint64_t key, std::uint32_t source) {
                ++partial.matches;
                if (repeated_set.contains(fingerprint(key))) {
                  partial.candidates.push_back(Candidate{key, source});
                } else {
                  partial.counts.add(source);
                }
              });
          return partial;
        },
        &pass2_telemetry);
  }
  const std::uint64_t candidates =
      merge_partials(partials, threshold, options_.sample_rate, &result);

  if (telemetry) {
    telemetry->tasks = pass1_telemetry.tasks + pass2_telemetry.tasks;
    telemetry->workers =
        std::max(pass1_telemetry.workers, pass2_telemetry.workers);
    telemetry->steals = pass1_telemetry.steals + pass2_telemetry.steals;
    telemetry->stolen_tasks =
        pass1_telemetry.stolen_tasks + pass2_telemetry.stolen_tasks;
    telemetry->attempts = pass1_telemetry.attempts + pass2_telemetry.attempts;
  }

  // Scan telemetry from the merged (already deterministic) totals.
  obs::Registry& registry = obs::Registry::global();
  registry.counter("chromium.records_scanned").add(result.records_scanned);
  registry.counter("chromium.signature_matches")
      .add(result.signature_matches);
  registry.counter("chromium.rejected_collisions")
      .add(result.rejected_collisions);
  registry.gauge("chromium.resolvers")
      .set(static_cast<double>(result.probes_by_resolver.size()));
  registry.counter("chromium.scan.records").add(result.records_scanned);
  registry.counter("chromium.scan.chunks").add(tasks.size());
  registry.counter("chromium.scan.candidates").add(candidates);
  registry.counter("chromium.scan.bytes").add(corpus.payload_bytes());
  registry.counter("chromium.scan.files").add(corpus.stats().members_opened);
  if (result.records_skipped > 0) {
    // Lazy, like the fault counters: a clean trace's export is identical
    // to one from a build that predates skip accounting.
    registry.counter("chromium.trace.records_skipped")
        .add(result.records_skipped);
  }
  return result;
}

PrefixDataset ChromiumResult::to_prefix_dataset(std::string name) const {
  PrefixDataset out(std::move(name));
  for (const auto& [addr, count] : probes_by_resolver) {
    out.add(addr >> 8, count);
  }
  return out;
}

CollisionStudy study_collisions(double daily_queries, std::uint32_t threshold,
                                std::uint64_t monte_carlo_names,
                                std::uint64_t seed) {
  CollisionStudy study;
  // Chromium picks a length uniformly in [7, 15], then letters uniformly:
  // a specific name of length L collides with Poisson(rate) other probes
  // where rate = (daily_queries / 9) / 26^L.
  double expected = 0;
  double p_below = 0;
  for (int len = 7; len <= 15; ++len) {
    const double space = std::pow(26.0, len);
    const double rate = daily_queries / 9.0 / space;
    expected += rate / 9.0;
    // This probe's own occurrence plus Poisson(rate) others; below the
    // threshold means total < threshold.
    double p = 0;
    double term = std::exp(-rate);
    for (std::uint32_t k = 0; k + 1 < threshold; ++k) {
      p += term;
      term *= rate / (k + 1);
    }
    p_below += p / 9.0;
  }
  study.expected_per_name = expected;
  study.p_name_below_threshold = p_below;

  net::Rng rng(seed);
  std::uint64_t below = 0;
  for (std::uint64_t i = 0; i < monte_carlo_names; ++i) {
    const int len = 7 + static_cast<int>(rng.below(9));
    const double rate = daily_queries / 9.0 / std::pow(26.0, len);
    const std::uint64_t occurrences = 1 + rng.poisson(rate);
    if (occurrences < threshold) ++below;
  }
  study.observed_p_below =
      monte_carlo_names == 0
          ? 0
          : static_cast<double>(below) /
                static_cast<double>(monte_carlo_names);
  return study;
}

}  // namespace netclients::core
