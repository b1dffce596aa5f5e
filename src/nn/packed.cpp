#include "nn/packed.hpp"

#include <bit>
#include <cstdint>
#include <cstring>

namespace a4nn::nn {

namespace {

/// Bytes shared by every version's magic; the rest names the version.
constexpr std::size_t kMagicStem = 6;

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void put_floats(std::string& out, std::span<const float> data) {
  const std::size_t at = out.size();
  out.resize(at + 4 * data.size());
  char* dst = out.data() + at;
  if constexpr (std::endian::native == std::endian::little) {
    if (!data.empty()) std::memcpy(dst, data.data(), 4 * data.size());
  } else {
    for (float f : data) {
      const auto bits = std::bit_cast<std::uint32_t>(f);
      for (int i = 0; i < 4; ++i) *dst++ = static_cast<char>(bits >> (8 * i));
    }
  }
}

/// Bounds-checked little-endian reader over the payload.
class Reader {
 public:
  explicit Reader(std::string_view bytes) : bytes_(bytes) {}

  std::size_t remaining() const { return bytes_.size() - pos_; }

  std::string_view take(std::size_t n, const char* what) {
    if (n > remaining())
      throw PackedError(std::string("packed: truncated ") + what + " (" +
                        std::to_string(remaining()) + " of " +
                        std::to_string(n) + " byte(s) left)");
    const std::string_view out = bytes_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  std::uint64_t uint(std::size_t width, const char* what) {
    const std::string_view b = take(width, what);
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < width; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[i]))
           << (8 * i);
    return v;
  }

 private:
  std::string_view bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

bool is_packed(std::string_view payload) {
  return payload.substr(0, kMagicStem) == kPackedMagic.substr(0, kMagicStem);
}

std::string encode_packed(const util::Json& header,
                          const std::vector<PackedSection>& sections) {
  const std::string text = header.dump();
  if (text.size() > UINT32_MAX || sections.size() > UINT32_MAX)
    throw std::invalid_argument("encode_packed: header or section count "
                                "exceeds 32 bits");
  std::size_t total = kPackedMagic.size() + 4 + text.size() + 4;
  for (const auto& s : sections) {
    if (s.shape.empty() || s.shape.size() > kMaxPackedRank)
      throw std::invalid_argument("encode_packed: section rank " +
                                  std::to_string(s.shape.size()));
    if (tensor::shape_numel(s.shape) != s.data.size())
      throw std::invalid_argument("encode_packed: section data size " +
                                  std::to_string(s.data.size()) +
                                  " does not match shape " +
                                  tensor::shape_to_string(s.shape));
    total += 4 + 8 * s.shape.size() + 4 * s.data.size();
  }
  std::string out;
  out.reserve(total);
  out.append(kPackedMagic);
  put_u32(out, static_cast<std::uint32_t>(text.size()));
  out.append(text);
  put_u32(out, static_cast<std::uint32_t>(sections.size()));
  for (const auto& s : sections) {
    put_u32(out, static_cast<std::uint32_t>(s.shape.size()));
    for (std::size_t d : s.shape) put_u64(out, d);
    put_floats(out, s.data);
  }
  return out;
}

PackedPayload decode_packed(std::string_view payload) {
  if (!is_packed(payload)) throw PackedError("packed: missing magic");
  Reader in(payload);
  if (in.take(kPackedMagic.size(), "magic") != kPackedMagic)
    throw PackedError("packed: unsupported version");

  PackedPayload out;
  const std::uint64_t header_bytes = in.uint(4, "header length");
  out.header = util::Json::parse(std::string(in.take(header_bytes, "header")));

  const std::uint64_t count = in.uint(4, "section count");
  // Every section needs at least a rank and one dimension: a count the
  // remaining bytes cannot hold is rejected before anything is reserved.
  if (count > in.remaining() / 12)
    throw PackedError("packed: " + std::to_string(count) +
                      " sections cannot fit in " +
                      std::to_string(in.remaining()) + " byte(s)");
  out.sections.reserve(count);
  for (std::uint64_t s = 0; s < count; ++s) {
    const std::uint64_t rank = in.uint(4, "section rank");
    if (rank == 0 || rank > kMaxPackedRank)
      throw PackedError("packed: section " + std::to_string(s) + " has rank " +
                        std::to_string(rank));
    tensor::Shape shape;
    std::size_t numel = 1;
    for (std::uint64_t d = 0; d < rank; ++d) {
      const std::uint64_t dim = in.uint(8, "section shape");
      if (__builtin_mul_overflow(numel, dim, &numel))
        throw PackedError("packed: section " + std::to_string(s) +
                          " element count overflows");
      shape.push_back(static_cast<std::size_t>(dim));
    }
    // Checked against the bytes left before the multiply by 4 can wrap.
    if (numel > in.remaining() / 4)
      throw PackedError("packed: section " + std::to_string(s) + " needs " +
                        std::to_string(numel) + " float(s), " +
                        std::to_string(in.remaining()) + " byte(s) left");
    const std::string_view raw = in.take(4 * numel, "section data");
    std::vector<float> data(numel);
    if constexpr (std::endian::native == std::endian::little) {
      if (numel > 0) std::memcpy(data.data(), raw.data(), raw.size());
    } else {
      for (std::size_t i = 0; i < numel; ++i) {
        std::uint32_t bits = 0;
        for (int b = 0; b < 4; ++b)
          bits |= static_cast<std::uint32_t>(
                      static_cast<unsigned char>(raw[4 * i + b]))
                  << (8 * b);
        data[i] = std::bit_cast<float>(bits);
      }
    }
    out.sections.emplace_back(std::move(shape), std::move(data));
  }
  if (in.remaining() != 0)
    throw PackedError("packed: " + std::to_string(in.remaining()) +
                      " trailing byte(s) after the last section");
  return out;
}

}  // namespace a4nn::nn
