#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "dns/message.h"
#include "roots/trace.h"

namespace netclients::roots {

/// Capture policy of one root letter in a DITL collection year. The paper
/// uses J, H, M, A, K and D root for 2020 — "the roots that offer
/// un-anonymized, complete traces".
struct RootConfig {
  char letter = 'a';
  bool participates_in_ditl = true;
  bool anonymized = false;  // anonymized traces are useless for attribution
  bool complete = true;     // partial captures under-count
  double capture_fraction = 1.0;  // effective when !complete
};

/// One root DNS server: answers referrals for real TLDs, NXDOMAIN for junk
/// (Chromium probes land here precisely because their random labels have no
/// TLD and can't be cached), and captures queries per its DITL policy.
class RootServer {
 public:
  RootServer(RootConfig config, const std::vector<std::string>* tlds,
             std::uint64_t seed);

  /// Handles a query: records a trace entry (per capture policy) and
  /// returns NXDOMAIN / referral. Non-message variant for bulk simulation.
  void observe(net::Ipv4Addr source, const dns::DnsName& qname,
               dns::RecordType qtype, net::SimTime now);

  dns::DnsMessage handle(const dns::DnsMessage& query, net::Ipv4Addr source,
                         net::SimTime now);

  /// True when `name`'s last label is a delegated TLD.
  bool known_tld(const dns::DnsName& name) const;

  const RootConfig& config() const { return config_; }
  const std::vector<TraceRecord>& trace() const { return trace_; }
  std::uint64_t queries_received() const { return received_; }
  void clear_trace() { trace_.clear(); }

 private:
  RootConfig config_;
  const std::vector<std::string>* tlds_;
  std::uint64_t seed_;
  std::vector<TraceRecord> trace_;
  std::uint64_t received_ = 0;
};

/// The 13-letter root system plus the DITL collection view over it.
class RootSystem {
 public:
  /// Mirrors 2020 DITL: a–m exist; j, h, m, a, k, d offer complete,
  /// un-anonymized captures; others are anonymized, partial or absent.
  static RootSystem ditl_2020(std::uint64_t seed);

  RootServer& root(char letter);
  const RootServer& root(char letter) const;
  std::vector<char> letters() const;

  /// Letters usable for the DNS-logs technique.
  std::vector<char> usable_ditl_letters() const;

  /// A resolver's stable letter preference: the three letters it favours,
  /// most-preferred first (repeats allowed).
  struct LetterPreference {
    std::uint64_t resolver_key = 0;
    std::array<char, 3> letters{};
  };

  /// A resolver's root queries spread over letters (real resolvers rotate
  /// by RTT; we model a stable per-resolver preference distribution). The
  /// preference depends on the resolver alone, so a caller issuing many
  /// queries for one resolver computes it once and picks per query.
  LetterPreference letter_preference(std::uint64_t resolver_key) const;
  char pick_letter(const LetterPreference& preference,
                   std::uint64_t nonce) const;
  char pick_letter(std::uint64_t resolver_key, std::uint64_t nonce) const {
    return pick_letter(letter_preference(resolver_key), nonce);
  }

  /// Concatenated trace of the usable letters — the DNS-logs input.
  std::vector<TraceRecord> ditl_trace() const;

  const std::vector<std::string>& tlds() const { return *tlds_; }

 private:
  RootSystem() = default;

  std::vector<RootServer> roots_;
  // Heap-allocated: each RootServer keeps a pointer to the table, which
  // must stay valid when the RootSystem is moved.
  std::shared_ptr<std::vector<std::string>> tlds_;
  std::uint64_t seed_ = 0;
};

}  // namespace netclients::roots
