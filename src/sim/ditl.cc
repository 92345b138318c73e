#include "sim/ditl.h"

#include <array>
#include <string>
#include <vector>

#include "net/rng.h"
#include "net/sim_time.h"
#include "net/zipf.h"

namespace netclients::sim {
namespace {

std::string random_signature_name(net::Rng& rng) {
  // Chromium: 7-15 random lowercase letters, single label [35].
  const std::size_t len = 7 + rng.below(9);
  std::string name(len, 'a');
  for (auto& c : name) c = static_cast<char>('a' + rng.below(26));
  return name;
}

/// Advances `rng` by exactly the draws random_signature_name would make,
/// without building the name.
void skip_signature_name(net::Rng& rng) {
  const std::size_t len = 7 + rng.below(9);
  for (std::size_t i = 0; i < len; ++i) rng();
}

std::string random_word(net::Rng& rng, std::size_t min_len,
                        std::size_t max_len) {
  const std::size_t len = min_len + rng.below(max_len - min_len + 1);
  std::string word(len, 'a');
  for (auto& c : word) c = static_cast<char>('a' + rng.below(26));
  return word;
}

struct ProbeSource {
  std::uint32_t address = 0;
  double chromium_per_day = 0;  // signature probes per day (ground truth)
  double junk_signature_per_day = 0;  // signature-shaped, not Chromium
};

std::vector<ProbeSource> enumerate_sources(const World& world) {
  const WorldConfig& cfg = world.config();
  const double probes_per_chromium_user =
      (cfg.browser_starts_per_user_per_day +
       cfg.network_changes_per_user_per_day) *
      3.0;  // Chromium issues three probes per trigger
  std::vector<ProbeSource> sources;
  for (const ResolverEndpoint& ep : world.resolver_endpoints()) {
    ProbeSource s;
    s.address = ep.address.value();
    s.chromium_per_day = ep.served_chromium_users * probes_per_chromium_user;
    sources.push_back(s);
  }
  for (const Slash24Block& block : world.blocks()) {
    if (block.resolver_recurses && block.as_index != Slash24Block::kNoAs) {
      const AsEntry& as = world.ases()[block.as_index];
      const double isp_share = std::max(
          0.0, 1.0 - as.google_dns_share - as.other_public_share);
      ProbeSource s;
      s.address = (block.index << 8) + 1;
      s.chromium_per_day = block.users * isp_share * as.chromium_share *
                           probes_per_chromium_user;
      sources.push_back(s);
    }
    if (block.junk_emitter) {
      net::Rng rng(net::stable_seed(world.config().seed, 0x17E4u,
                                    block.index));
      ProbeSource s;
      s.address = (block.index << 8) + 200;
      s.junk_signature_per_day = rng.lognormal(std::log(40.0), 0.8);
      sources.push_back(s);
    }
  }
  return sources;
}

}  // namespace

std::unordered_map<std::uint32_t, double> chromium_ground_truth(
    const World& world) {
  std::unordered_map<std::uint32_t, double> truth;
  for (const ProbeSource& s : enumerate_sources(world)) {
    if (s.chromium_per_day > 0) truth[s.address] += s.chromium_per_day;
  }
  return truth;
}

DitlStats generate_ditl(
    const World& world, const roots::RootSystem& roots,
    const DitlOptions& options,
    const std::function<void(const roots::TraceRecord&)>& sink) {
  DitlStats stats;
  const double period = options.days * net::kDay;

  std::array<bool, 26> usable{};
  for (char letter : roots.usable_ditl_letters()) {
    usable[static_cast<std::size_t>(letter - 'a')] = true;
  }

  // The letter of every record is picked before its name is built: a
  // record on a letter outside the capture is counted and skipped, and
  // only advances the source's RNG by the draws its name would have used,
  // so the stream of captured records does not depend on this shortcut.
  auto captured = [&](char letter) {
    if (usable[static_cast<std::size_t>(letter - 'a')]) return true;
    ++stats.suppressed;
    return false;
  };

  auto emit = [&](std::uint32_t source, char letter,
                  const std::string& label_or_name, bool has_tld,
                  net::Rng& rng, bool is_chromium) {
    roots::TraceRecord rec;
    rec.source = net::Ipv4Addr(source);
    rec.root_letter = letter;
    rec.qtype = dns::RecordType::kA;
    rec.timestamp = rng.uniform(0.0, period);
    auto name = dns::DnsName::parse(label_or_name);
    if (!name) return;
    rec.qname = std::move(*name);
    if (is_chromium || !has_tld) {
      ++stats.chromium_probes;
    } else {
      ++stats.background;
    }
    sink(rec);
  };

  // --- Signature probes (Chromium + shaped junk) per source ---------------
  const auto sources = enumerate_sources(world);
  for (std::size_t si = 0; si < sources.size(); ++si) {
    const ProbeSource& s = sources[si];
    net::Rng rng(net::stable_seed(options.seed, 0xC4A0u, s.address));
    const auto preference = roots.letter_preference(s.address);
    const double expected = (s.chromium_per_day + s.junk_signature_per_day) *
                            options.days * options.sample_rate;
    const std::uint64_t n = rng.poisson(expected);
    for (std::uint64_t i = 0; i < n; ++i) {
      const char letter = roots.pick_letter(preference, i);
      if (!captured(letter)) {
        skip_signature_name(rng);
        continue;
      }
      emit(s.address, letter, random_signature_name(rng), /*has_tld=*/false,
           rng, /*is_chromium=*/true);
    }
  }

  // --- Dictionary typo junk: repeated single labels ------------------------
  // A shared vocabulary queried over and over: the names the collision
  // threshold exists to reject.
  {
    net::Rng vocab_rng(net::stable_seed(options.seed, 0x70C4u));
    std::vector<std::string> vocabulary;
    vocabulary.reserve(3000);
    for (int i = 0; i < 3000; ++i) {
      vocabulary.push_back(random_word(vocab_rng, 3, 14));
    }
    net::ZipfSampler zipf(vocabulary.size(), 1.05);
    for (const ResolverEndpoint& ep : world.resolver_endpoints()) {
      net::Rng rng(net::stable_seed(options.seed, 0x7090u,
                                    ep.address.value()));
      const auto preference = roots.letter_preference(ep.address.value());
      const double expected = ep.served_users *
                              options.typo_queries_per_user_per_day *
                              options.days * options.sample_rate;
      const std::uint64_t n = rng.poisson(expected);
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::string& word = vocabulary[zipf.sample(rng)];
        const char letter = roots.pick_letter(preference, i);
        if (!captured(letter)) continue;
        emit(ep.address.value(), letter, word, /*has_tld=*/false, rng, false);
      }
    }

    // --- Legitimate TLD traffic (multi-label; never matches) --------------
    const auto& tlds = roots.tlds();
    for (const ResolverEndpoint& ep : world.resolver_endpoints()) {
      net::Rng rng(net::stable_seed(options.seed, 0x1E61u,
                                    ep.address.value()));
      const auto preference = roots.letter_preference(ep.address.value());
      const double expected = ep.served_users *
                              options.legit_tld_queries_per_user_per_day *
                              options.days * options.sample_rate;
      const std::uint64_t n = rng.poisson(expected);
      for (std::uint64_t i = 0; i < n; ++i) {
        // The TLD is drawn before the word: the captured records, and so
        // the corpus bytes, depend on this order.
        const std::size_t tld = rng.below(tlds.size());
        const std::size_t word = zipf.sample(rng);
        const char letter = roots.pick_letter(preference, i);
        if (!captured(letter)) continue;
        emit(ep.address.value(), letter, vocabulary[word] + "." + tlds[tld],
             /*has_tld=*/true, rng, false);
      }
    }
  }

  // --- DGA malware: random-looking names, heavily repeated ----------------
  {
    const auto& endpoints = world.resolver_endpoints();
    if (!endpoints.empty()) {
      net::Rng rng(net::stable_seed(options.seed, 0xD6A0u));
      const int names_per_family_day = 30;
      for (int fam = 0; fam < options.dga_families; ++fam) {
        for (int day = 0; day < static_cast<int>(options.days + 0.999);
             ++day) {
          for (int nm = 0; nm < names_per_family_day; ++nm) {
            const std::string name = random_signature_name(rng);
            const std::uint64_t occurrences = rng.poisson(
                options.dga_queries_per_name * options.sample_rate);
            for (std::uint64_t i = 0; i < occurrences; ++i) {
              const ResolverEndpoint& ep =
                  endpoints[rng.below(endpoints.size())];
              const char letter = roots.pick_letter(ep.address.value(), i);
              if (!captured(letter)) continue;
              emit(ep.address.value(), letter, name, /*has_tld=*/false, rng,
                   false);
            }
          }
        }
      }
    }
  }
  return stats;
}

}  // namespace netclients::sim
