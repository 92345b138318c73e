#pragma once

// Shared CRC-32 (IEEE 802.3, reflected 0xEDB88320 polynomial) used by the
// snapshot frame checksums and the trace-corpus manifest. Kept header-only
// so leaf libraries (roots, snapshot) can use it without a new link edge.
//
// Slicing-by-8: eight derived tables fold eight input bytes per step, so
// the loop carries one table dependency per 8 bytes instead of per byte.
// The 8-byte step loads two 32-bit words in host order, which lines their
// low bytes up with the reflected CRC's low bits only on a little-endian
// host; elsewhere every byte takes the bytewise loop. Both produce the
// same value.

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace netclients::net {

namespace detail {

/// kCrc32Tables[0] is the classic bytewise table; kCrc32Tables[k][i] is
/// the CRC of byte i followed by k zero bytes.
inline constexpr auto kCrc32Tables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}();

}  // namespace detail

inline std::uint32_t crc32(std::string_view bytes) {
  const auto& t = detail::kCrc32Tables;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint32_t crc = 0xFFFFFFFFu;
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 8; p += 8, n -= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, p, sizeof(lo));
      std::memcpy(&hi, p + 4, sizeof(hi));
      lo ^= crc;
      crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
            t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
            t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^
            t[0][hi >> 24];
    }
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFF] ^ (crc >> 8);
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace netclients::net
