#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace netclients::dns {

namespace detail {

/// One entry per byte value: the byte's canonical form in the low 8 bits
/// (ASCII A-Z lowered, every other byte unchanged), plus kLabelByte when
/// the byte may appear in a presentation-format label ([A-Za-z0-9_-]).
inline constexpr std::uint16_t kLabelByte = 0x100;
inline constexpr auto kNameBytes = [] {
  std::array<std::uint16_t, 256> table{};
  for (unsigned b = 0; b < 256; ++b) {
    const bool upper = b >= 'A' && b <= 'Z';
    const bool valid = upper || (b >= 'a' && b <= 'z') ||
                       (b >= '0' && b <= '9') || b == '-' || b == '_';
    table[b] = static_cast<std::uint16_t>((upper ? b + ('a' - 'A') : b) |
                                          (valid ? kLabelByte : 0));
  }
  return table;
}();

}  // namespace detail

/// The per-byte canonicalization applied to every label octet when a name
/// is materialized: ASCII lowercase, every other byte (including bytes
/// 0x80-0xFF) passed through. A table lookup, so it never consults the C
/// library locale. Exposed so the zero-copy NameView can hash/compare raw
/// packet bytes exactly as the owning DnsName would after construction.
inline char canonical_lower(char c) {
  return static_cast<char>(
      detail::kNameBytes[static_cast<unsigned char>(c)] & 0xFF);
}

/// A DNS domain name: an ordered list of labels, stored lowercase (DNS name
/// comparison is case-insensitive; we canonicalize on construction).
///
/// The empty name is the root. Enforces RFC 1035 limits: labels of 1–63
/// octets, total wire length <= 255.
class DnsName {
 public:
  DnsName() = default;

  /// Parses presentation format ("www.example.com", trailing dot optional).
  /// Returns nullopt for empty labels, oversize labels/names, or characters
  /// outside [A-Za-z0-9_-] (liberal enough for Chromium probe labels and
  /// hostnames alike).
  static std::optional<DnsName> parse(std::string_view text);

  /// Builds from pre-validated labels (asserts limits in debug builds).
  static std::optional<DnsName> from_labels(std::vector<std::string> labels);

  const std::vector<std::string>& labels() const { return labels_; }
  bool is_root() const { return labels_.empty(); }
  std::size_t label_count() const { return labels_.size(); }

  /// True for single-label names ("sdhfjssf") — the shape of Chromium
  /// interception probes, which have no TLD.
  bool is_single_label() const { return labels_.size() == 1; }

  /// Length of this name on the wire without compression: one length octet
  /// per label plus the label bytes, plus the root terminator.
  std::size_t wire_length() const;

  /// Presentation format; the root name renders as ".".
  std::string to_string() const;

  /// Precomputed stable hash — names are immutable after construction, and
  /// the resolver hot paths hash the same name millions of times.
  std::uint64_t hash() const { return hash_; }

  friend bool operator==(const DnsName& a, const DnsName& b) {
    return a.hash_ == b.hash_ && a.labels_ == b.labels_;
  }
  friend auto operator<=>(const DnsName& a, const DnsName& b) {
    return a.labels_ <=> b.labels_;
  }

 private:
  std::vector<std::string> labels_;
  std::uint64_t hash_ = 0;
};

}  // namespace netclients::dns

template <>
struct std::hash<netclients::dns::DnsName> {
  std::size_t operator()(const netclients::dns::DnsName& name) const noexcept;
};
