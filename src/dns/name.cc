#include "dns/name.h"

#include <algorithm>

#include "net/rng.h"

namespace netclients::dns {
namespace {

constexpr std::uint64_t kNameHashSeed = 0x5851f42d4c957f2dULL;

}  // namespace

std::optional<DnsName> DnsName::parse(std::string_view text) {
  if (text == "." || text.empty()) return DnsName{};
  if (text.back() == '.') text.remove_suffix(1);
  // Each dot becomes a length octet, plus one for the first label and one
  // for the root terminator.
  if (text.size() + 2 > 255) return std::nullopt;
  DnsName name;
  name.labels_.reserve(
      static_cast<std::size_t>(std::count(text.begin(), text.end(), '.')) +
      1);
  std::uint64_t h = kNameHashSeed;
  std::size_t start = 0;
  while (true) {
    const std::size_t dot = text.find('.', start);
    const std::size_t end = dot == std::string_view::npos ? text.size() : dot;
    const std::size_t length = end - start;
    if (length == 0 || length > 63) return std::nullopt;
    std::string& label = name.labels_.emplace_back(length, '\0');
    // Validate, lowercase and hash each byte in one pass; the label hash is
    // net::stable_hash of the canonical label (FNV-1a, then mix64).
    std::uint64_t label_hash = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < length; ++i) {
      const std::uint16_t entry =
          detail::kNameBytes[static_cast<unsigned char>(text[start + i])];
      if (!(entry & detail::kLabelByte)) return std::nullopt;
      label[i] = static_cast<char>(entry & 0xFF);
      label_hash = (label_hash ^ (entry & 0xFF)) * 0x100000001b3ULL;
    }
    h = net::hash_combine(h, net::mix64(label_hash));
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  name.hash_ = h;
  return name;
}

std::optional<DnsName> DnsName::from_labels(std::vector<std::string> labels) {
  std::size_t wire = 1;  // root terminator
  for (auto& label : labels) {
    if (label.empty() || label.size() > 63) return std::nullopt;
    for (auto& c : label) c = canonical_lower(c);
    wire += 1 + label.size();
  }
  if (wire > 255) return std::nullopt;
  DnsName name;
  name.labels_ = std::move(labels);
  std::uint64_t h = kNameHashSeed;
  for (const auto& label : name.labels_) {
    h = net::hash_combine(h, net::stable_hash(label));
  }
  name.hash_ = h;
  return name;
}

std::size_t DnsName::wire_length() const {
  std::size_t wire = 1;
  for (const auto& label : labels_) wire += 1 + label.size();
  return wire;
}

std::string DnsName::to_string() const {
  if (labels_.empty()) return ".";
  std::string out;
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    if (i > 0) out.push_back('.');
    out += labels_[i];
  }
  return out;
}

}  // namespace netclients::dns

std::size_t std::hash<netclients::dns::DnsName>::operator()(
    const netclients::dns::DnsName& name) const noexcept {
  return static_cast<std::size_t>(name.hash());
}
