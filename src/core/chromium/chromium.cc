#include "core/chromium/chromium.h"

#include <array>
#include <cmath>
#include <utility>

#include "core/chromium/count_table.h"
#include "core/chromium/sketch.h"
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

constexpr std::size_t kPrefetchAhead = 8;

/// Per-chunk pass-2 partial: a flat open-addressing count table plus
/// integer tallies. Integer sums, so any canonical-order merge of partials
/// is thread-count independent.
struct ChunkPartial {
  ScanCountTable counts;
  std::uint64_t matches = 0;
  std::uint64_t rejected = 0;
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

/// Pass-1 kernel for one chunk: decode, collect match keys into a flat
/// buffer (one allocation per chunk), then scatter the buffer into the
/// shared sketch. Two loops, not one fused loop: at DITL match rates the
/// sketch's random row accesses dominate the scan, and the tight scatter
/// loop lets the core overlap those misses across iterations — fusing the
/// decode into the same loop measurably serializes them. A short prefetch
/// distance covers hardware where the hint helps; reordering is
/// irrelevant either way (commutative adds). `serial` skips the atomic
/// RMW when the whole scan runs inline on one thread.
template <typename RefT, typename ViewT>
void pass1_chunk(const ViewT& view, const exec::RecordChunk& chunk,
                 CountMinSketch& sketch, bool serial) {
  typename ViewT::Cursor cursor = view.cursor_at(chunk.begin,
                                                 chunk.first_record);
  RefT ref;
  std::vector<std::uint64_t> keys;
  keys.reserve(static_cast<std::size_t>(chunk.records));
  for (std::uint64_t r = 0; r < chunk.records; ++r) {
    if (!cursor.next(&ref)) break;  // unreachable: chunk pre-validated
    std::string_view label;
    if (single_label_of(ref, &label) &&
        matches_chromium_signature_bytes(label)) {
      keys.push_back(name_day_key(label, ref.timestamp()));
    }
  }
  for (std::size_t j = 0; j < keys.size(); ++j) {
    if (j + kPrefetchAhead < keys.size()) {
      sketch.prefetch(keys[j + kPrefetchAhead]);
    }
    if (serial) {
      sketch.add_serial(keys[j]);
    } else {
      sketch.add(keys[j]);
    }
  }
}

/// Pass-2 kernel for one chunk: attribute surviving matches to their
/// resolver. Same two-loop shape as pass 1 (sketch estimates only read
/// here); the returned partial is merged by the caller in canonical chunk
/// order.
template <typename RefT, typename ViewT>
ChunkPartial pass2_chunk(const ViewT& view, const exec::RecordChunk& chunk,
                         const CountMinSketch& sketch,
                         std::uint32_t threshold) {
  ChunkPartial partial;
  typename ViewT::Cursor cursor = view.cursor_at(chunk.begin,
                                                 chunk.first_record);
  RefT ref;
  struct Match {
    std::uint64_t key;
    std::uint32_t source;
  };
  std::vector<Match> matches;
  matches.reserve(static_cast<std::size_t>(chunk.records));
  for (std::uint64_t r = 0; r < chunk.records; ++r) {
    if (!cursor.next(&ref)) break;  // unreachable, as above
    std::string_view label;
    if (single_label_of(ref, &label) &&
        matches_chromium_signature_bytes(label)) {
      matches.push_back(
          Match{name_day_key(label, ref.timestamp()), ref.source().value()});
    }
  }
  partial.matches = matches.size();
  for (std::size_t j = 0; j < matches.size(); ++j) {
    if (j + kPrefetchAhead < matches.size()) {
      sketch.prefetch(matches[j + kPrefetchAhead].key);
    }
    if (sketch.below(matches[j].key, threshold)) {
      partial.counts.add(matches[j].source);
    } else {
      ++partial.rejected;
    }
  }
  return partial;
}

/// Folds canonically-ordered pass-2 partials into the result and applies
/// the 1/sample_rate scaling once: integer sums, then one multiply, so
/// results are byte-identical at any thread count.
void merge_partials(const std::vector<ChunkPartial>& partials,
                    double sample_rate, ChromiumResult* result) {
  std::unordered_map<std::uint32_t, std::uint64_t> counts;
  for (const ChunkPartial& partial : partials) {
    result->signature_matches += partial.matches;
    result->rejected_collisions += partial.rejected;
    partial.counts.for_each([&](std::uint32_t source, std::uint64_t count) {
      counts[source] += count;
    });
  }
  const double scale = 1.0 / sample_rate;
  for (const auto& [source, count] : counts) {
    result->probes_by_resolver[source] = static_cast<double>(count) * scale;
  }
}

/// True when the scan's shard loops run inline on one thread, so the
/// sketch scatter can skip the atomic RMW (a full fence per add on x86) —
/// same cells, same values, fraction of the cost.
bool serial_scan(const ChromiumOptions& options) {
  return (options.threads > 0 ? options.threads : exec::thread_count()) <= 1;
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

  // Pass 1: one shared sketch across all files — commutative atomic adds,
  // so steal order (and the member split) is invisible.
  CountMinSketch sketch(options_.sketch_width, options_.sketch_depth,
                        options_.seed);
  const bool serial = serial_scan(options_);
  exec::StealTelemetry pass1_telemetry;
  {
    obs::StageSpan span("chromium.scan.pass1_sketch");
    exec::steal_map(
        tasks.size(), options_.threads,
        [&](std::size_t t) {
          const CorpusTask& task = tasks[t];
          if (members[task.member].trace) {
            pass1_chunk<roots::TraceRecordRef>(*members[task.member].trace,
                                               task.chunk, sketch, serial);
          } else {
            pass1_chunk<roots::PacketRecordRef>(*members[task.member].packets,
                                                task.chunk, sketch, serial);
          }
          return 0;
        },
        &pass1_telemetry);
  }

  // Pass 2: per-task partials, returned by task index (canonical order)
  // regardless of who executed them.
  std::vector<ChunkPartial> partials;
  exec::StealTelemetry pass2_telemetry;
  {
    obs::StageSpan span("chromium.scan.pass2_attribute");
    partials = exec::steal_map(
        tasks.size(), options_.threads,
        [&](std::size_t t) {
          const CorpusTask& task = tasks[t];
          if (members[task.member].trace) {
            return pass2_chunk<roots::TraceRecordRef>(
                *members[task.member].trace, task.chunk, sketch, threshold);
          }
          return pass2_chunk<roots::PacketRecordRef>(
              *members[task.member].packets, task.chunk, sketch, threshold);
        },
        &pass2_telemetry);
  }
  merge_partials(partials, options_.sample_rate, &result);

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
  registry.counter("chromium.sketch.rejected_collisions")
      .add(result.rejected_collisions);
  registry.gauge("chromium.resolvers")
      .set(static_cast<double>(result.probes_by_resolver.size()));
  registry.counter("chromium.scan.records").add(result.records_scanned);
  registry.counter("chromium.scan.chunks").add(tasks.size());
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
