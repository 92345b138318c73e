#include "roots/root_server.h"

#include <algorithm>
#include <string_view>

#include "net/rng.h"

namespace netclients::roots {
namespace {

constexpr char kFirstLetter = 'a';
constexpr std::size_t kLetters = 13;  // a–m
// The letters with complete, un-anonymized 2020 captures.
constexpr std::string_view kUsableLetters = "jhmakd";

}  // namespace

RootSystem RootSystem::ditl_2020(std::uint64_t seed) {
  RootSystem system;
  system.seed_ = seed;
  // A representative slice of the real TLD table — enough for the
  // background-traffic generators.
  system.tlds_ = {"app", "biz", "br",  "cn",  "co",  "com", "de",  "edu",
                  "fr",  "gov", "in",  "info", "io", "jp",  "mil", "net",
                  "nl",  "org", "ru",  "uk",  "us",  "xyz"};
  std::sort(system.tlds_.begin(), system.tlds_.end());
  return system;
}

std::vector<char> RootSystem::letters() const {
  std::vector<char> out;
  for (std::size_t i = 0; i < kLetters; ++i) {
    out.push_back(static_cast<char>(kFirstLetter + i));
  }
  return out;
}

std::vector<char> RootSystem::usable_ditl_letters() const {
  std::vector<char> out;
  for (char letter : letters()) {
    if (kUsableLetters.find(letter) != std::string_view::npos) {
      out.push_back(letter);
    }
  }
  return out;
}

RootSystem::LetterPreference RootSystem::letter_preference(
    std::uint64_t resolver_key) const {
  // Resolvers strongly prefer 2-3 nearby letters (RTT-based selection) but
  // occasionally try others. Preference order is a stable per-resolver
  // permutation; the choice among the top entries is per-query.
  net::Rng pref(net::stable_seed(seed_ ^ 0x1e77e5u, resolver_key));
  LetterPreference preference;
  preference.resolver_key = resolver_key;
  preference.pick_prefix = net::stable_seed(seed_ ^ 0x9013u, resolver_key);
  for (char& letter : preference.letters) {
    letter = static_cast<char>(kFirstLetter + pref.below(kLetters));
  }
  return preference;
}

char RootSystem::pick_letter(const LetterPreference& preference,
                             std::uint64_t nonce) const {
  // stable_seed folds its keys one at a time, so this is the seed
  // stable_seed(seed_ ^ 0x9013u, resolver_key, nonce).
  const double u =
      net::Rng(net::hash_combine(preference.pick_prefix, nonce)).uniform();
  return preference.letters[u < 0.60 ? 0 : (u < 0.90 ? 1 : 2)];
}

}  // namespace netclients::roots
