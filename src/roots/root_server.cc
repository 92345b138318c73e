#include "roots/root_server.h"

#include <algorithm>

#include "net/rng.h"

namespace netclients::roots {

RootServer::RootServer(RootConfig config, const std::vector<std::string>* tlds,
                       std::uint64_t seed)
    : config_(config), tlds_(tlds), seed_(seed) {}

bool RootServer::known_tld(const dns::DnsName& name) const {
  if (name.is_root() || name.labels().empty()) return false;
  const std::string& last = name.labels().back();
  return std::binary_search(tlds_->begin(), tlds_->end(), last);
}

void RootServer::observe(net::Ipv4Addr source, const dns::DnsName& qname,
                         dns::RecordType qtype, net::SimTime now) {
  ++received_;
  if (!config_.participates_in_ditl) return;
  if (!config_.complete) {
    // Partial captures sample a deterministic fraction of queries.
    net::Rng rng(net::stable_seed(seed_, source.value(), received_));
    if (rng.uniform() >= config_.capture_fraction) return;
  }
  TraceRecord rec;
  rec.root_letter = config_.letter;
  rec.qtype = qtype;
  rec.timestamp = now;
  rec.qname = qname;
  if (config_.anonymized) {
    // Prefix-preserving anonymization destroys resolver attribution: we
    // model it as an opaque per-source token in an unrouted range.
    rec.source = net::Ipv4Addr(static_cast<std::uint32_t>(
        net::stable_seed(seed_ ^ 0xA707u, source.value())));
  } else {
    rec.source = source;
  }
  trace_.push_back(std::move(rec));
}

dns::DnsMessage RootServer::handle(const dns::DnsMessage& query,
                                   net::Ipv4Addr source, net::SimTime now) {
  if (query.questions.empty()) {
    return dns::make_response(query, dns::RCode::kFormErr);
  }
  const dns::Question& q = query.questions.front();
  observe(source, q.name, q.type, now);
  if (!known_tld(q.name)) {
    // Chromium probes and typos end here: no such TLD.
    return dns::make_response(query, dns::RCode::kNxDomain);
  }
  // Referral to the TLD servers (we do not model the TLD tier; an empty
  // NOERROR answer with an authority NS record is enough for our callers).
  dns::DnsMessage response = dns::make_response(query, dns::RCode::kNoError);
  auto tld = dns::DnsName::parse(q.name.labels().back());
  response.authorities.push_back(dns::ResourceRecord{
      *tld, dns::RecordType::kNs, dns::kClassIn, 172800,
      dns::TxtData{"ns.tld-servers.net"}});
  return response;
}

RootSystem RootSystem::ditl_2020(std::uint64_t seed) {
  RootSystem system;
  system.seed_ = seed;
  // A representative slice of the real TLD table — enough for the
  // background-traffic generators and the known_tld() negative path.
  system.tlds_ = std::make_shared<std::vector<std::string>>(
      std::vector<std::string>{"app",  "biz", "br",   "cn",  "co",  "com",
                               "de",   "edu", "fr",   "gov", "in",  "info",
                               "io",   "jp",  "mil",  "net", "nl",  "org",
                               "ru",   "uk",  "us",   "xyz"});
  std::sort(system.tlds_->begin(), system.tlds_->end());
  const std::string usable = "jhmakd";  // complete + un-anonymized in 2020
  const std::string anonymized = "be";  // participate but anonymize
  const std::string partial = "cl";     // incomplete captures
  for (char letter = 'a'; letter <= 'm'; ++letter) {
    RootConfig config;
    config.letter = letter;
    config.participates_in_ditl =
        usable.find(letter) != std::string::npos ||
        anonymized.find(letter) != std::string::npos ||
        partial.find(letter) != std::string::npos;
    config.anonymized = anonymized.find(letter) != std::string::npos;
    config.complete = partial.find(letter) == std::string::npos;
    config.capture_fraction = config.complete ? 1.0 : 0.4;
    system.roots_.emplace_back(config, system.tlds_.get(),
                               net::stable_seed(seed, letter));
  }
  return system;
}

RootServer& RootSystem::root(char letter) {
  return roots_.at(static_cast<std::size_t>(letter - 'a'));
}

const RootServer& RootSystem::root(char letter) const {
  return roots_.at(static_cast<std::size_t>(letter - 'a'));
}

std::vector<char> RootSystem::letters() const {
  std::vector<char> out;
  for (const auto& r : roots_) out.push_back(r.config().letter);
  return out;
}

std::vector<char> RootSystem::usable_ditl_letters() const {
  std::vector<char> out;
  for (const auto& r : roots_) {
    if (r.config().participates_in_ditl && !r.config().anonymized &&
        r.config().complete) {
      out.push_back(r.config().letter);
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
    letter = roots_[pref.below(roots_.size())].config().letter;
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

std::vector<TraceRecord> RootSystem::ditl_trace() const {
  std::vector<TraceRecord> out;
  for (const auto& r : roots_) {
    if (r.config().participates_in_ditl && !r.config().anonymized &&
        r.config().complete) {
      out.insert(out.end(), r.trace().begin(), r.trace().end());
    }
  }
  return out;
}

}  // namespace netclients::roots
