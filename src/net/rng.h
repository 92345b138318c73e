#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <string_view>

namespace netclients::net {

/// SplitMix64 step: turns any 64-bit state into a well-mixed output and
/// advances the state. Used for seeding and as a stable hash finalizer.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Mixes a 64-bit value through the SplitMix64 finalizer (stateless).
constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Order-dependent combination of hash values; `stable_hash(a, b)` differs
/// from `stable_hash(b, a)`. Stable across platforms and runs — the library
/// never uses std::hash for simulation decisions.
constexpr std::uint64_t hash_combine(std::uint64_t seed, std::uint64_t v) {
  return mix64(seed ^ (v + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                       (seed >> 2)));
}

/// FNV-1a over bytes, then strengthened with the SplitMix64 finalizer.
constexpr std::uint64_t stable_hash(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

/// xoshiro256** — the library's deterministic PRNG. Satisfies
/// UniformRandomBitGenerator so it composes with <random> when needed, but
/// the sampling helpers below avoid <random> distributions, whose outputs
/// are not specified portably.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }

  constexpr std::uint64_t operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Integer in [0, bound): one 64-bit draw reduced modulo `bound`. The
  /// modulo bias is negligible at 64-bit width for our bounds. Every
  /// stream in the tree depends on this exact reduction, so it must not be
  /// swapped for another (Lemire's multiply-shift, say).
  std::uint64_t below(std::uint64_t bound) {
    return bound == 0 ? 0 : (*this)() % bound;
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t between(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  bool bernoulli(double p) { return uniform() < p; }

  /// Exponential with the given rate (mean 1/rate).
  double exponential(double rate) {
    double u = uniform();
    // Guard against log(0).
    return -std::log1p(-u) / rate;
  }

  /// Standard normal via Box–Muller (one value per call; simple and
  /// deterministic).
  double normal() {
    double u1 = 1.0 - uniform();  // (0, 1]
    double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) *
           std::cos(2.0 * 3.14159265358979323846 * u2);
  }

  double normal(double mean, double stddev) {
    return mean + stddev * normal();
  }

  /// Log-normal with the given underlying normal parameters.
  double lognormal(double mu, double sigma) {
    return std::exp(normal(mu, sigma));
  }

  /// Poisson sample. Knuth's method for small means, normal approximation
  /// (rounded, clamped at 0) for large ones.
  std::uint64_t poisson(double mean) {
    if (mean <= 0) return 0;
    if (mean < 32) {
      const double limit = std::exp(-mean);
      std::uint64_t k = 0;
      double product = uniform();
      while (product > limit) {
        ++k;
        product *= uniform();
      }
      return k;
    }
    double sample = normal(mean, std::sqrt(mean));
    return sample <= 0 ? 0 : static_cast<std::uint64_t>(sample + 0.5);
  }

  /// Pareto (Type I) with scale xm > 0 and shape alpha > 0 — the
  /// heavy-tailed distribution behind AS sizes and activity volumes.
  double pareto(double xm, double alpha) {
    double u = 1.0 - uniform();  // (0, 1]
    return xm / std::pow(u, 1.0 / alpha);
  }

  /// Derives an independent child generator; `label` keeps streams for
  /// different purposes decorrelated under the same master seed.
  Rng fork(std::uint64_t label) {
    return Rng(hash_combine((*this)(), label));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// A deterministic "random oracle": hash a tuple of keys into an Rng seed.
/// This is how lazily-evaluated simulation state (e.g. whether a DNS cache
/// pool holds a record in a given TTL window) stays reproducible without
/// storing it.
///
/// The keys are folded in one at a time with hash_combine, so
/// `stable_seed(root, k..., last) == hash_combine(stable_seed(root, k...),
/// last)`: a caller drawing many seeds that share leading keys hashes the
/// shared part once (RootSystem's letter picks rely on this).
template <typename... Keys>
constexpr std::uint64_t stable_seed(std::uint64_t root, Keys... keys) {
  std::uint64_t h = mix64(root ^ 0x6a09e667f3bcc909ULL);
  ((h = hash_combine(h, static_cast<std::uint64_t>(keys))), ...);
  return h;
}

}  // namespace netclients::net
