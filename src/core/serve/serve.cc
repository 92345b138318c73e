#include "core/serve/serve.h"

#include <algorithm>
#include <unordered_map>

#include "core/exec/exec.h"
#include "core/obs/obs.h"

namespace netclients::core::serve {
namespace {

std::uint64_t prefix_key(net::Prefix p) {
  return (std::uint64_t{p.base().value()} << 8) | p.length();
}

LookupResult result_of(const snapshot::PrefixEntry& entry) {
  LookupResult r;
  r.active = true;
  r.prefix = entry.prefix;
  r.volume = entry.volume;
  r.asn = entry.asn;
  r.country = entry.country;
  r.domain_mask = entry.domain_mask;
  return r;
}

}  // namespace

ClientIndex ClientIndex::build(std::span<const snapshot::EpochRecord> epochs) {
  static obs::Counter& builds_metric =
      obs::Registry::global().counter("serve.index.builds");
  static obs::Counter& prefixes_metric =
      obs::Registry::global().counter("serve.index.prefixes");

  ClientIndex index;
  index.epoch_count_ = epochs.size();

  // Union the epochs' active sets by merging their prefix-sorted runs.
  // make_epoch and snapshot::decode emit every epoch sorted; a run that
  // is not gets a stable-sorted copy, so equal prefixes keep their order
  // within the epoch. Ties between runs go to the earlier epoch, so the
  // merge walks entries in (prefix key, arrival) order: ascending key is
  // exactly prefix order, and each key's volumes and masks fold in epoch
  // order.
  const auto by_key = [](const snapshot::PrefixEntry& a,
                         const snapshot::PrefixEntry& b) {
    return prefix_key(a.prefix) < prefix_key(b.prefix);
  };
  std::vector<std::vector<snapshot::PrefixEntry>> resorted;
  resorted.reserve(epochs.size());
  std::vector<std::span<const snapshot::PrefixEntry>> runs;
  runs.reserve(epochs.size());
  std::size_t total = 0;
  for (const auto& epoch : epochs) {
    std::span<const snapshot::PrefixEntry> run(epoch.prefixes);
    if (!std::is_sorted(run.begin(), run.end(), by_key)) {
      auto& copy = resorted.emplace_back(run.begin(), run.end());
      std::stable_sort(copy.begin(), copy.end(), by_key);
      run = copy;
    }
    if (!run.empty()) runs.push_back(run);
    total += run.size();
  }
  index.entries_.reserve(total);
  std::vector<std::size_t> next(runs.size(), 0);
  for (;;) {
    // The run whose head has the smallest key; strict < keeps a tie on
    // the earliest epoch.
    std::size_t pick = runs.size();
    std::uint64_t pick_key = 0;
    for (std::size_t r = 0; r < runs.size(); ++r) {
      if (next[r] == runs[r].size()) continue;
      const std::uint64_t key = prefix_key(runs[r][next[r]].prefix);
      if (pick == runs.size() || key < pick_key) {
        pick = r;
        pick_key = key;
      }
    }
    if (pick == runs.size()) break;
    const snapshot::PrefixEntry& entry = runs[pick][next[pick]++];
    // First occurrence wins attribution (asn/country come from the same
    // public tables in every epoch); later epochs of the same prefix add
    // volume and OR domain masks, in epoch order.
    if (!index.entries_.empty() &&
        index.entries_.back().prefix == entry.prefix) {
      index.entries_.back().volume += entry.volume;
      index.entries_.back().domain_mask |= entry.domain_mask;
    } else {
      index.entries_.push_back(entry);
    }
  }
  for (const auto& entry : index.entries_) {
    index.total_volume_ += entry.volume;
  }

  // Flat LPM projection for the batched path: sweep the prefix-sorted
  // entries with a nesting stack, emitting disjoint [begin, last] ranges
  // owned by their most specific covering prefix. A covering prefix sorts
  // immediately before its covered sub-prefixes (net::Prefix ordering),
  // so the stack invariant holds by construction.
  std::vector<std::uint32_t> stack;  // indices into entries_, outermost first
  std::uint64_t pos = 0;
  auto emit = [&](std::uint32_t entry, std::uint64_t begin,
                  std::uint64_t last) {
    if (begin > last) return;
    index.flat_.push_back(Interval{static_cast<std::uint32_t>(begin),
                                   static_cast<std::uint32_t>(last), entry});
  };
  for (std::size_t i = 0; i < index.entries_.size(); ++i) {
    const net::Prefix p = index.entries_[i].prefix;
    const std::uint64_t begin = p.base().value();
    while (!stack.empty()) {
      const std::uint64_t top_last =
          index.entries_[stack.back()].prefix.last_address().value();
      if (top_last >= begin) break;
      emit(stack.back(), pos, top_last);
      pos = top_last + 1;
      stack.pop_back();
    }
    if (!stack.empty()) emit(stack.back(), pos, begin - 1);
    pos = begin;
    stack.push_back(static_cast<std::uint32_t>(i));
  }
  while (!stack.empty()) {
    const std::uint64_t top_last =
        index.entries_[stack.back()].prefix.last_address().value();
    emit(stack.back(), pos, top_last);
    pos = top_last + 1;
    stack.pop_back();
  }

  // Page the intervals into the direct-mapped /24 slot table. A slot
  // whose /24 is wholly inside one interval stores that interval's entry
  // directly; a /24 with partial coverage or several intervals becomes
  // kMixedSlot (binary search of flat_ at query time). Intervals are
  // disjoint, so a full-coverage slot can never see a second interval.
  if (!index.flat_.empty()) {
    const std::uint32_t first = index.flat_.front().begin >> 8;
    const std::uint32_t last = index.flat_.back().last >> 8;
    index.slot_base_ = first;
    index.slots_.assign(std::size_t{last - first} + 1, kEmptySlot);
    for (const Interval& iv : index.flat_) {
      for (std::uint32_t s = iv.begin >> 8; s <= iv.last >> 8; ++s) {
        const bool whole = iv.begin <= (s << 8) && iv.last >= ((s << 8) | 0xFF);
        std::uint32_t& slot = index.slots_[s - first];
        slot = (whole && slot == kEmptySlot) ? iv.entry + 1 : kMixedSlot;
      }
    }
  }
  index.canned_.reserve(index.entries_.size() + 1);
  index.canned_.push_back(LookupResult{});  // canned_[0]: the miss answer
  for (const auto& entry : index.entries_) {
    index.canned_.push_back(result_of(entry));
  }

  // Aggregates over the merged entries. Each key's volume accumulates in
  // entry order; an AS finds its slot through a hash map, a country
  // through a table over the whole 16-bit country space, and both lists
  // are then sorted by key.
  constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  std::unordered_map<std::uint32_t, std::uint32_t> as_slot;
  std::vector<std::uint32_t> country_slot(std::size_t{1} << 16, kNoSlot);
  for (const auto& entry : index.entries_) {
    if (entry.asn != 0) {
      const auto [it, fresh] = as_slot.try_emplace(
          entry.asn, static_cast<std::uint32_t>(index.as_.size()));
      if (fresh) index.as_.push_back(snapshot::AsAggregate{entry.asn, 0, 0});
      auto& agg = index.as_[it->second];
      agg.volume += entry.volume;
      ++agg.prefixes;
    }
    if (entry.country != snapshot::kNoCountry) {
      std::uint32_t& slot = country_slot[entry.country];
      if (slot == kNoSlot) {
        slot = static_cast<std::uint32_t>(index.countries_.size());
        index.countries_.push_back(
            snapshot::CountryAggregate{entry.country, 0, 0});
      }
      auto& agg = index.countries_[slot];
      agg.volume += entry.volume;
      ++agg.prefixes;
    }
  }
  std::sort(index.as_.begin(), index.as_.end(),
            [](const snapshot::AsAggregate& a,
               const snapshot::AsAggregate& b) { return a.asn < b.asn; });
  std::sort(index.countries_.begin(), index.countries_.end(),
            [](const snapshot::CountryAggregate& a,
               const snapshot::CountryAggregate& b) {
              return a.country < b.country;
            });

  builds_metric.add(1);
  prefixes_metric.add(index.entries_.size());
  return index;
}

LookupResult ClientIndex::lookup(net::Ipv4Addr addr) const {
  static obs::Counter& single_metric =
      obs::Registry::global().counter("serve.lookup.single");
  single_metric.add(1);
  // Same chunk kernel as the batched path: shared slot table, shared
  // serve.lookup.hits accounting — single and batched answers cannot
  // diverge by construction.
  LookupResult result;
  lookup_chunk(&addr, 1, &result);
  return result;
}

LookupResult ClientIndex::lookup_reference(net::Ipv4Addr addr) const {
  // The trie is the oracle's alone: built once, on the first call, so a
  // publish never pays for it. call_once makes concurrent first calls
  // through shared handles safe.
  std::call_once(oracle_->built, [this] {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      oracle_->trie.insert(entries_[i].prefix, static_cast<std::uint32_t>(i));
    }
  });
  const auto match = oracle_->trie.longest_match(addr);
  if (!match) return LookupResult{};
  return result_of(entries_[*match->second]);
}

void ClientIndex::lookup_chunk(const net::Ipv4Addr* addrs, std::size_t count,
                               LookupResult* out) const {
  static obs::Counter& hits_metric =
      obs::Registry::global().counter("serve.lookup.hits");

  const std::uint32_t* slots = slots_.data();
  const LookupResult* canned = canned_.data();
  const std::size_t slot_count = slots_.size();
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint32_t addr = addrs[i].value();
    const std::uint32_t s = (addr >> 8) - slot_base_;  // may wrap: checked next
    std::uint32_t slot = s < slot_count ? slots[s] : kEmptySlot;
    if (slot == kMixedSlot) {
      // Sub-/24 structure: resolve against the disjoint interval table.
      const auto it = std::lower_bound(
          flat_.begin(), flat_.end(), addr,
          [](const Interval& iv, std::uint32_t a) { return iv.last < a; });
      slot =
          (it != flat_.end() && it->begin <= addr) ? it->entry + 1 : kEmptySlot;
    }
    out[i] = canned[slot];       // unconditional copy: no hit/miss branch
    hits += slot != kEmptySlot;  // branchless tally
  }
  hits_metric.add(hits);  // commutative integer add: shard-safe
}

std::vector<LookupResult> ClientIndex::lookup_many(
    std::span<const net::Ipv4Addr> addrs, int threads) const {
  std::vector<LookupResult> results(addrs.size());
  lookup_many(addrs, results.data(), threads);
  return results;
}

void ClientIndex::lookup_many(std::span<const net::Ipv4Addr> addrs,
                              LookupResult* out, int threads) const {
  static obs::Counter& batched_metric =
      obs::Registry::global().counter("serve.lookup.batched");
  batched_metric.add(addrs.size());

  exec::parallel_for_chunks(
      0, addrs.size(), kChunkQueries, threads, [&](exec::ChunkRange range) {
        lookup_chunk(addrs.data() + range.begin, range.end - range.begin,
                     out + range.begin);
        return 0;
      });
}

double ClientIndex::as_volume(std::uint32_t asn) const {
  const auto it = std::lower_bound(
      as_.begin(), as_.end(), asn,
      [](const snapshot::AsAggregate& a, std::uint32_t key) {
        return a.asn < key;
      });
  return it != as_.end() && it->asn == asn ? it->volume : 0;
}

double ClientIndex::country_volume(std::uint16_t country) const {
  const auto it = std::lower_bound(
      countries_.begin(), countries_.end(), country,
      [](const snapshot::CountryAggregate& a, std::uint16_t key) {
        return a.country < key;
      });
  return it != countries_.end() && it->country == country ? it->volume : 0;
}

std::vector<snapshot::AsAggregate> ClientIndex::top_as(std::size_t n) const {
  std::vector<snapshot::AsAggregate> top = as_;
  std::sort(top.begin(), top.end(),
            [](const snapshot::AsAggregate& a,
               const snapshot::AsAggregate& b) {
              if (a.volume != b.volume) return a.volume > b.volume;
              return a.asn < b.asn;
            });
  if (top.size() > n) top.resize(n);
  return top;
}

namespace {

/// Rank positions (0 = most active) for an epoch's prefix entries:
/// volume descending, ties by prefix order. rank[i] is the rank of
/// epoch.prefixes[i].
std::vector<std::uint32_t> volume_ranks(const snapshot::EpochRecord& epoch) {
  std::vector<std::uint32_t> order(epoch.prefixes.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    const double va = epoch.prefixes[a].volume;
    const double vb = epoch.prefixes[b].volume;
    if (va != vb) return va > vb;
    return a < b;  // prefix order (entries are prefix-sorted)
  });
  std::vector<std::uint32_t> rank(order.size());
  for (std::uint32_t pos = 0; pos < order.size(); ++pos) {
    rank[order[pos]] = pos;
  }
  return rank;
}

}  // namespace

EpochDiff diff_epochs(const snapshot::EpochRecord& from,
                      const snapshot::EpochRecord& to) {
  static obs::Counter& diffs_metric =
      obs::Registry::global().counter("serve.diff.runs");
  diffs_metric.add(1);

  EpochDiff diff;
  diff.from_epoch = from.epoch_id;
  diff.to_epoch = to.epoch_id;

  const auto from_ranks = volume_ranks(from);
  const auto to_ranks = volume_ranks(to);

  double drift_sum = 0;
  std::size_t i = 0, j = 0;
  while (i < from.prefixes.size() || j < to.prefixes.size()) {
    const bool take_from =
        j >= to.prefixes.size() ||
        (i < from.prefixes.size() &&
         from.prefixes[i].prefix < to.prefixes[j].prefix);
    const bool take_to =
        i >= from.prefixes.size() ||
        (j < to.prefixes.size() &&
         to.prefixes[j].prefix < from.prefixes[i].prefix);
    if (take_from) {
      diff.lost.push_back(from.prefixes[i].prefix);
      diff.lost_volume += from.prefixes[i].volume;
      diff.volume_from += from.prefixes[i].volume;
      ++i;
    } else if (take_to) {
      diff.gained.push_back(to.prefixes[j].prefix);
      diff.gained_volume += to.prefixes[j].volume;
      diff.volume_to += to.prefixes[j].volume;
      ++j;
    } else {  // same prefix in both epochs
      ++diff.persisting;
      diff.volume_from += from.prefixes[i].volume;
      diff.volume_to += to.prefixes[j].volume;
      const double delta = static_cast<double>(from_ranks[i]) -
                           static_cast<double>(to_ranks[j]);
      drift_sum += delta < 0 ? -delta : delta;
      ++i;
      ++j;
    }
  }

  if (diff.persisting > 0) {
    diff.mean_rank_drift = drift_sum / static_cast<double>(diff.persisting);
    const std::size_t span =
        std::max(from.prefixes.size(), to.prefixes.size());
    if (span > 1) {
      diff.normalized_rank_drift =
          diff.mean_rank_drift / static_cast<double>(span - 1);
    }
  }
  return diff;
}

}  // namespace netclients::core::serve
