// Packed snapshot payload: the binary body of model checkpoints and
// training states in the data commons. A small JSON header carries the
// structured fields (architecture spec, RNG state, histories); every
// tensor follows as raw little-endian IEEE-754 float32, so a snapshot
// round-trips bit-exactly without building one JSON node per element.
//
// Layout (integers little-endian):
//   "A4NNPK2\n"                    magic; the digit is the format version
//   u32 header_bytes               then header_bytes of JSON text
//   u32 section_count
//   section_count x {
//     u32 rank                     1..kMaxPackedRank
//     u64 dims[rank]
//     f32 data[dims[0] * ... * dims[rank-1]]
//   }
// Nothing may follow the last section. The payload sits inside the
// commons' integrity frame (util/frame.hpp), which carries its length and
// CRC; this decoder still bounds-checks every field, so a payload that
// passes the frame check but was written wrong fails with PackedError,
// never with an out-of-bounds read.
#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/json.hpp"

namespace a4nn::nn {

/// Thrown when a packed payload is truncated, over-long, or malformed.
class PackedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::string_view kPackedMagic = "A4NNPK2\n";
inline constexpr std::size_t kMaxPackedRank = 8;

/// One tensor to encode: its shape and shape_numel(shape) elements.
struct PackedSection {
  tensor::Shape shape;
  std::span<const float> data;
};

struct PackedPayload {
  util::Json header;
  std::vector<tensor::Tensor> sections;
};

/// Whether `payload` starts like a packed payload (any version). Anything
/// else is a legacy JSON document.
bool is_packed(std::string_view payload);

std::string encode_packed(const util::Json& header,
                          const std::vector<PackedSection>& sections);

/// Strict decode; throws PackedError (util::JsonError for a malformed
/// header document).
PackedPayload decode_packed(std::string_view payload);

}  // namespace a4nn::nn
