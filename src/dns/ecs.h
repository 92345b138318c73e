#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "net/prefix.h"

namespace netclients::dns {

/// EDNS0 Client Subnet option (RFC 7871).
///
/// In a query, `source_prefix_length` is the prefix the client asks the
/// resolver to use and `scope_prefix_length` must be 0. In a response, the
/// authoritative sets `scope_prefix_length` to the prefix granularity its
/// answer is valid for — possibly shorter (less specific) than the query's
/// source length, which is exactly the behaviour the paper's probing-
/// reduction preprocessing exploits (§3.1.1, Appendix A.2).
struct EcsOption {
  static constexpr std::uint16_t kOptionCode = 8;  // IANA: edns-client-subnet
  static constexpr std::uint16_t kFamilyIpv4 = 1;

  net::Ipv4Addr address;
  std::uint8_t source_prefix_length = 0;
  std::uint8_t scope_prefix_length = 0;

  /// Builds a query option asking for `prefix` (scope 0 per RFC 7871 §6).
  static EcsOption for_query(net::Prefix prefix) {
    return {prefix.base(), prefix.length(), 0};
  }

  /// The prefix announced by the *source* field.
  net::Prefix source_prefix() const {
    return net::Prefix(address, source_prefix_length);
  }

  std::string to_string() const {
    return source_prefix().to_string() + "/scope=" +
           std::to_string(scope_prefix_length);
  }

  friend bool operator==(const EcsOption&, const EcsOption&) = default;
};

}  // namespace netclients::dns
