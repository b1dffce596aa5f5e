#include "util/checksum.hpp"

#include <array>

namespace a4nn::util {

namespace {

using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slicing-by-8 tables: tables[0] is the classic byte-at-a-time table and
/// tables[k][b] advances the CRC of byte b through k further zero bytes,
/// so eight input bytes fold in with eight independent lookups.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      tables[k][i] =
          (tables[k - 1][i] >> 8) ^ tables[0][tables[k - 1][i] & 0xFFu];
  return tables;
}

constexpr Crc32Tables kCrc32Tables = make_crc32_tables();

inline std::uint32_t load_u32le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

}  // namespace

Crc32& Crc32::update(const void* data, std::size_t size) {
  const auto& t = kCrc32Tables;
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t c = state_;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = load_u32le(bytes) ^ c;
    const std::uint32_t hi = load_u32le(bytes + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size)
    c = t[0][(c ^ *bytes) & 0xFFu] ^ (c >> 8);
  state_ = c;
  return *this;
}

std::uint32_t crc32(std::string_view data) {
  Crc32 crc;
  crc.update(data);
  return crc.value();
}

}  // namespace a4nn::util
