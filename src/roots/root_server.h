#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace netclients::roots {

/// The 13-letter root system as the DITL collection sees it: which letters
/// exist, which of them the DNS-logs technique can read, and which letter
/// each of a resolver's queries reaches. The captures themselves are
/// written by `sim::generate_ditl`.
class RootSystem {
 public:
  /// Mirrors 2020 DITL: a–m exist; j, h, m, a, k and d offer complete,
  /// un-anonymized captures — the only ones the paper reads (§3.2).
  static RootSystem ditl_2020(std::uint64_t seed);

  /// Every letter, a–m.
  std::vector<char> letters() const;

  /// Letters usable for the DNS-logs technique, in letter order.
  std::vector<char> usable_ditl_letters() const;

  /// A resolver's stable letter preference: the three letters it favours,
  /// most-preferred first (repeats allowed), and the seed prefix of its
  /// per-query draws, `stable_seed(seed ^ 0x9013, resolver_key)`.
  struct LetterPreference {
    std::uint64_t resolver_key = 0;
    std::uint64_t pick_prefix = 0;
    std::array<char, 3> letters{};
  };

  /// A resolver's root queries spread over letters (real resolvers rotate
  /// by RTT; we model a stable per-resolver preference distribution). The
  /// preference depends on the resolver alone, so a caller issuing many
  /// queries for one resolver computes it once and picks per query; a
  /// pick then hashes only the nonce onto the preference's prefix, drawing
  /// from `Rng(stable_seed(seed ^ 0x9013, resolver_key, nonce))`.
  LetterPreference letter_preference(std::uint64_t resolver_key) const;
  char pick_letter(const LetterPreference& preference,
                   std::uint64_t nonce) const;
  char pick_letter(std::uint64_t resolver_key, std::uint64_t nonce) const {
    return pick_letter(letter_preference(resolver_key), nonce);
  }

  /// The delegated TLDs (sorted), for the background-traffic generators.
  const std::vector<std::string>& tlds() const { return tlds_; }

 private:
  RootSystem() = default;

  std::vector<std::string> tlds_;
  std::uint64_t seed_ = 0;
};

}  // namespace netclients::roots
