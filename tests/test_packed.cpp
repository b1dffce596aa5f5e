// Packed snapshot payloads (nn/packed.hpp): bit-exact round trips, hostile
// input (every malformed field must throw a typed error, never read out of
// bounds), and read compatibility with JSON checkpoints and training
// states from older commons trees.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <filesystem>
#include <limits>

#include "lineage/tracker.hpp"
#include "nas/search_space.hpp"
#include "nn/packed.hpp"
#include "util/frame.hpp"
#include "util/fsutil.hpp"

namespace a4nn {
namespace {

namespace fs = std::filesystem;
using tensor::Shape;
using tensor::Tensor;

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         (a.numel() == 0 ||
          std::memcmp(a.data(), b.data(), 4 * a.numel()) == 0);
}

nn::Model small_model(std::uint64_t seed) {
  util::Rng rng(seed);
  nas::SearchSpaceConfig space;
  space.input_shape = {1, 8, 8};
  space.stem_channels = 4;
  space.phase_count = 2;
  space.nodes_per_phase = 3;
  return nas::decode_genome(
      nas::random_genome(space.phase_count, space.nodes_per_phase, rng), space,
      rng);
}

Tensor probe_images(const Shape& input_shape, std::size_t n) {
  util::Rng rng(77);
  Shape shape = {n};
  shape.insert(shape.end(), input_shape.begin(), input_shape.end());
  return Tensor::randn(shape, rng);
}

// Byte offsets inside a payload written by encode_packed.
std::uint32_t header_bytes(const std::string& payload) {
  std::uint32_t n = 0;
  std::memcpy(&n, payload.data() + nn::kPackedMagic.size(), 4);
  return n;
}
std::size_t sections_offset(const std::string& payload) {
  return nn::kPackedMagic.size() + 4 + header_bytes(payload);
}

void put_u32(std::string& s, std::size_t at, std::uint32_t v) {
  std::memcpy(s.data() + at, &v, 4);
}
void put_u64(std::string& s, std::size_t at, std::uint64_t v) {
  std::memcpy(s.data() + at, &v, 8);
}

/// header {"k": 1} and one section of shape {2, 3}.
std::string one_section_payload() {
  util::Json header = util::Json::object();
  header["k"] = 1;
  const std::vector<float> data = {1, 2, 3, 4, 5, 6};
  return nn::encode_packed(header, {{{2, 3}, data}});
}

TEST(Packed, RoundTripsEveryFloatBitExactly) {
  std::vector<float> data = {0.0f,
                             -0.0f,
                             1.0f / 3.0f,
                             std::numeric_limits<float>::denorm_min(),
                             std::numeric_limits<float>::max(),
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::quiet_NaN(),
                             std::bit_cast<float>(0x7fc01234u)};
  util::Json header = util::Json::object();
  header["spec"] = "anything";
  const std::vector<float> empty;
  const std::string payload =
      nn::encode_packed(header, {{{2, 4}, data}, {{0}, empty}});
  ASSERT_TRUE(nn::is_packed(payload));
  const nn::PackedPayload back = nn::decode_packed(payload);
  EXPECT_EQ(back.header, header);
  ASSERT_EQ(back.sections.size(), 2u);
  EXPECT_TRUE(same_bits(back.sections[0], Tensor({2, 4}, data)));
  EXPECT_EQ(back.sections[1].shape(), (Shape{0}));
}

TEST(Packed, EveryTruncationThrows) {
  const std::string payload = one_section_payload();
  for (std::size_t n = 0; n < payload.size(); ++n)
    EXPECT_ANY_THROW(nn::decode_packed(payload.substr(0, n))) << "n=" << n;
}

TEST(Packed, TrailingBytesAndUnknownVersionThrow) {
  EXPECT_THROW(nn::decode_packed(one_section_payload() + "x"),
               nn::PackedError);
  std::string v3 = one_section_payload();
  v3[nn::kPackedMagic.size() - 2] = '3';
  EXPECT_TRUE(nn::is_packed(v3));
  EXPECT_THROW(nn::decode_packed(v3), nn::PackedError);
}

TEST(Packed, HeaderLengthPastTheEndThrows) {
  std::string payload = one_section_payload();
  put_u32(payload, nn::kPackedMagic.size(), 0xFFFFFFFFu);
  EXPECT_THROW(nn::decode_packed(payload), nn::PackedError);
}

TEST(Packed, SectionLengthPastTheEndThrows) {
  std::string payload = one_section_payload();
  // Section 0: count at off, rank at off+4, dims at off+8 and off+16.
  const std::size_t off = sections_offset(payload);
  put_u64(payload, off + 16, 4);  // {2, 4}: 8 floats, 6 stored
  EXPECT_THROW(nn::decode_packed(payload), nn::PackedError);
  put_u64(payload, off + 16, std::uint64_t{1} << 61);  // 4x wraps to 0
  EXPECT_THROW(nn::decode_packed(payload), nn::PackedError);
}

TEST(Packed, ShapeTimesCountOverflowThrows) {
  util::Json header = util::Json::object();
  std::string payload = nn::encode_packed(
      header, {{{1, 1, 1}, std::vector<float>{7.0f}}});
  const std::size_t off = sections_offset(payload);
  put_u64(payload, off + 8, std::uint64_t{1} << 32);
  put_u64(payload, off + 16, std::uint64_t{1} << 32);
  EXPECT_THROW(nn::decode_packed(payload), nn::PackedError);
}

TEST(Packed, SectionCountAndRankBoundsThrow) {
  std::string count = one_section_payload();
  put_u32(count, sections_offset(count), 0xFFFFFFFFu);
  EXPECT_THROW(nn::decode_packed(count), nn::PackedError);

  std::string rank0 = one_section_payload();
  put_u32(rank0, sections_offset(rank0) + 4, 0);
  EXPECT_THROW(nn::decode_packed(rank0), nn::PackedError);

  std::string rank_big = one_section_payload();
  put_u32(rank_big, sections_offset(rank_big) + 4, 0xFFFFFFFFu);
  EXPECT_THROW(nn::decode_packed(rank_big), nn::PackedError);
}

TEST(Packed, EncoderRejectsDataThatDoesNotMatchItsShape) {
  const std::vector<float> five(5, 1.0f);
  EXPECT_THROW(nn::encode_packed(util::Json::object(), {{{2, 3}, five}}),
               std::invalid_argument);
  EXPECT_THROW(nn::encode_packed(util::Json::object(), {{{}, five}}),
               std::invalid_argument);
}

TEST(PackedCheckpoint, RoundTripPredictsBitIdentically) {
  nn::Model model = small_model(5);
  const nn::Model back =
      nn::Model::decode_checkpoint(model.encode_checkpoint());
  EXPECT_EQ(back.trunk().spec(), model.trunk().spec());
  EXPECT_EQ(back.trunk().weights().dump(), model.trunk().weights().dump());
  const Tensor x = probe_images(model.input_shape(), 4);
  nn::Model copy = nn::Model::decode_checkpoint(model.encode_checkpoint());
  EXPECT_TRUE(same_bits(copy.predict(x), model.predict(x)));
}

TEST(PackedCheckpoint, WrongElementCountForTheSpecThrows) {
  nn::Model model = small_model(6);
  const std::string payload = model.encode_checkpoint();
  nn::PackedPayload packed = nn::decode_packed(payload);
  ASSERT_GT(packed.sections.size(), 2u);

  // One tensor short of what the spec needs.
  std::vector<nn::PackedSection> fewer;
  for (std::size_t i = 0; i + 1 < packed.sections.size(); ++i)
    fewer.push_back({packed.sections[i].shape(), packed.sections[i].span()});
  EXPECT_THROW(nn::Model::decode_checkpoint(
                   nn::encode_packed(packed.header, fewer)),
               std::invalid_argument);

  // Every tensor present, but one with an extra element.
  std::vector<nn::PackedSection> grown;
  const std::vector<float> bigger(packed.sections[0].numel() + 1, 0.5f);
  grown.push_back({{bigger.size()}, bigger});
  for (std::size_t i = 1; i < packed.sections.size(); ++i)
    grown.push_back({packed.sections[i].shape(), packed.sections[i].span()});
  EXPECT_THROW(nn::Model::decode_checkpoint(
                   nn::encode_packed(packed.header, grown)),
               std::invalid_argument);
}

TEST(PackedCheckpoint, BitFlipInsideAValidFrameThrowsOrDecodes) {
  // A flipped bit that a writer re-framed (so the frame CRC passes) must
  // either fail with a typed error or decode to some model: never crash.
  const fs::path root = util::make_temp_dir("a4nn-packed-flip");
  const fs::path file = root / "models" / lineage::model_dir_name(0) /
                        lineage::snapshot_file_name(1);
  const std::string payload = small_model(7).encode_checkpoint();
  const std::size_t sections_start = sections_offset(payload);
  std::size_t threw = 0, decoded = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    // Every byte of the magic, the header and the first section's
    // shape; then a stride through the rest, mostly float data where any
    // bit pattern is a valid float.
    if (i >= sections_start + 64 && i % 97 != 0) continue;
    std::string flipped = payload;
    flipped[i] = static_cast<char>(flipped[i] ^ (1 << (i % 8)));
    util::write_file(file, util::frame(flipped));
    try {
      lineage::DataCommons(root).load_model(0, 1);
      ++decoded;
    } catch (const std::exception&) {
      ++threw;
    }
  }
  EXPECT_GT(threw, 0u);
  EXPECT_GT(decoded, 0u);
  fs::remove_all(root);
}

TEST(PackedTrainingState, RoundTripsDocAndVelocities) {
  util::Json doc = util::Json::object();
  doc["epoch"] = 3;
  doc["rng"] = "state";
  doc["record"] = util::Json::object();
  util::Json optimizer = util::Json::object();
  optimizer["kind"] = "sgd";
  doc["optimizer"] = optimizer;
  const std::vector<float> v0 = {0.25f, -1.5f, 3e-39f};
  const std::vector<float> never_stepped;
  const lineage::TrainingState state = lineage::decode_training_state(
      lineage::encode_training_state(doc, {v0, never_stepped}));
  EXPECT_EQ(state.doc, doc);
  ASSERT_EQ(state.velocity.size(), 2u);
  EXPECT_TRUE(same_bits(state.velocity[0], Tensor({3}, v0)));
  EXPECT_EQ(state.velocity[1].numel(), 0u);

  // The JSON form older trees hold decodes to the same thing.
  util::Json legacy = doc;
  util::Json velocity = util::Json::array();
  velocity.push_back(util::Json(std::vector<double>(v0.begin(), v0.end())));
  velocity.push_back(util::Json::array());
  legacy["optimizer"]["velocity"] = velocity;
  const lineage::TrainingState old =
      lineage::decode_training_state(legacy.dump());
  EXPECT_EQ(old.doc, doc);
  ASSERT_EQ(old.velocity.size(), 2u);
  EXPECT_TRUE(same_bits(old.velocity[0], state.velocity[0]));
  EXPECT_EQ(old.velocity[1].numel(), 0u);

  util::Json missing = doc;
  missing.as_object().erase("rng");
  EXPECT_THROW(lineage::decode_training_state(
                   lineage::encode_training_state(missing, {})),
               util::JsonError);
}

/// Load `(model_id, epoch)` from `root`, re-encode it packed, and demand
/// the two predict bit-identically.
void expect_reencode_predicts_identically(const fs::path& root, int model_id,
                                          std::size_t epoch) {
  nn::Model stored = lineage::DataCommons(root).load_model(model_id, epoch);
  nn::Model packed =
      nn::Model::decode_checkpoint(stored.encode_checkpoint());
  EXPECT_EQ(packed.trunk().weights().dump(), stored.trunk().weights().dump());
  const Tensor x = probe_images(stored.input_shape(), 8);
  EXPECT_TRUE(same_bits(packed.predict(x), stored.predict(x)));
}

TEST(PackedCompat, LegacyUnframedDemoCheckpointPredictsIdentically) {
  const fs::path demo = fs::path(A4NN_SOURCE_DIR) / "bench_artifacts" /
                        "commons_demo";
  const fs::path file = demo / "models" / lineage::model_dir_name(3) /
                        lineage::snapshot_file_name(3);
  ASSERT_TRUE(fs::exists(file));
  ASSERT_FALSE(util::is_framed(util::read_file(file)));
  expect_reencode_predicts_identically(demo, 3, 3);
}

TEST(PackedCompat, FramedJsonCheckpointPredictsIdentically) {
  const fs::path root = util::make_temp_dir("a4nn-packed-v1");
  util::ensure_dir(root / "models");
  const nn::Model model = small_model(8);
  util::write_file(root / "models" / lineage::model_dir_name(0) /
                       lineage::snapshot_file_name(2),
                   util::frame(model.checkpoint().dump()));
  expect_reencode_predicts_identically(root, 0, 2);
  fs::remove_all(root);
}

}  // namespace
}  // namespace a4nn
