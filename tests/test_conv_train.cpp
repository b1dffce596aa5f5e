// Differential test of the batch-lane training convolution against the
// per-image reference chain: im2col + gemm_ex forward; gemm_a_bt_acc into
// chunk slabs for dW; gemm_at_b + col2im for dX. Every output is compared
// bit for bit, including the sign of zero (NaNs by position only, see
// same_value), over the geometries the search space emits, batch sizes that
// leave partial lane groups, a fused ReLU, weights with exact zeros, inputs
// holding +-0 / denormals / +-inf / NaN, 1 and 4 intra-op threads, and
// tuned tables that move the k-panel breaks and the small/blocked choice.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/layers.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "util/rng.hpp"

namespace a4nn::tensor {
namespace {

struct Case {
  ConvGeometry g;
  std::size_t out_channels;
};

std::string describe(const Case& c, std::size_t batch, bool relu) {
  return std::to_string(c.g.in_channels) + "->" +
         std::to_string(c.out_channels) + " k" + std::to_string(c.g.kernel) +
         " s" + std::to_string(c.g.stride) + " p" + std::to_string(c.g.pad) +
         " " + std::to_string(c.g.in_h) + "x" + std::to_string(c.g.in_w) +
         " batch " + std::to_string(batch) + (relu ? " relu" : "");
}

// Every conv geometry of the default and searchable-ops spaces at a 16x16
// detector (stem, 3x3 and 1x1 phase nodes, 1x1 channel expansions), plus
// shapes that exercise partial register tiles and strides.
std::vector<Case> cases() {
  return {
      {{1, 16, 16, 3, 1, 1}, 4},   // stem
      {{4, 16, 16, 3, 1, 1}, 4},   // phase node, 16 px
      {{8, 8, 8, 3, 1, 1}, 8},     // phase node, 8 px
      {{16, 4, 4, 3, 1, 1}, 16},   // phase node, 4 px
      {{4, 16, 16, 1, 1, 0}, 4},   // conv1x1 node
      {{8, 8, 8, 1, 1, 0}, 8},
      {{16, 4, 4, 1, 1, 0}, 16},
      {{4, 8, 8, 1, 1, 0}, 8},     // channel expansion after pool 1
      {{8, 4, 4, 1, 1, 0}, 16},    // channel expansion after pool 2
      {{3, 7, 5, 3, 1, 1}, 5},     // odd extents: partial tiles everywhere
      {{4, 9, 9, 3, 2, 1}, 6},     // strided
      {{2, 8, 6, 3, 2, 0}, 3},     // strided, unpadded
  };
}

std::vector<float> randoms(std::size_t n, util::Rng& rng) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal());
  return v;
}

// Sprinkle the values whose handling differs between "multiply by zero and
// add" and "skip": signed zeros, denormals, infinities, NaN.
void add_specials(std::vector<float>& v, util::Rng& rng) {
  const float specials[] = {0.0f,
                            -0.0f,
                            1e-40f,
                            -3e-39f,
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::quiet_NaN()};
  for (const float s : specials)
    v[rng.uniform_index(v.size())] = s;
}

struct Outputs {
  std::vector<float> out, weight_grad, bias_grad, grad_in;
};

// The per-image im2col + GEMM + col2im chain the batch-lane kernels must
// reproduce, with Conv2d's chunk-slab gradient reduction.
Outputs reference(const Case& c, std::size_t batch, const float* w,
                  const float* bias, bool relu, const std::vector<float>& x,
                  const std::vector<float>& grad_out,
                  const std::vector<float>& wg0,
                  const std::vector<float>& bg0) {
  const ConvGeometry& g = c.g;
  const std::size_t oc = c.out_channels;
  const std::size_t patch = g.patch_size();
  const std::size_t cols = g.out_h() * g.out_w();
  const std::size_t image = g.in_channels * g.in_h * g.in_w;
  Outputs r;
  r.out.resize(batch * oc * cols);
  std::vector<float> columns(batch * patch * cols);
  const Epilogue ep{Epilogue::Bias::kPerRow, bias, relu};
  for (std::size_t n = 0; n < batch; ++n) {
    std::span<float> col(columns.data() + n * patch * cols, patch * cols);
    im2col(g, {x.data() + n * image, image}, col);
    gemm_ex(oc, patch, cols, w, col.data(), r.out.data() + n * oc * cols, ep);
  }

  std::vector<float> masked = grad_out;
  if (relu)
    for (std::size_t i = 0; i < masked.size(); ++i)
      masked[i] = r.out[i] > 0.0f ? grad_out[i] : 0.0f;
  r.grad_in.assign(batch * image, 0.0f);
  r.weight_grad = wg0;
  r.bias_grad = bg0;
  const std::size_t chunks = intra_op_chunks(batch);
  std::vector<float> dw_slabs(chunks * oc * patch, 0.0f);
  std::vector<float> db_slabs(chunks * oc, 0.0f);
  std::vector<float> grad_cols(patch * cols);
  for (std::size_t ch = 0; ch < chunks; ++ch) {
    const ChunkRange range = intra_op_chunk_range(batch, ch);
    float* dw = dw_slabs.data() + ch * oc * patch;
    float* db = db_slabs.data() + ch * oc;
    for (std::size_t n = range.begin; n < range.end; ++n) {
      const float* gout = masked.data() + n * oc * cols;
      const float* col = columns.data() + n * patch * cols;
      gemm_a_bt_acc(oc, cols, patch, gout, col, dw);
      for (std::size_t o = 0; o < oc; ++o) {
        float acc = 0.0f;
        for (std::size_t i = 0; i < cols; ++i) acc += gout[o * cols + i];
        db[o] += acc;
      }
      gemm_at_b(patch, oc, cols, w, gout, grad_cols.data());
      col2im(g, grad_cols, {r.grad_in.data() + n * image, image});
    }
  }
  for (std::size_t ch = 0; ch < chunks; ++ch) {
    axpy(1.0f, {dw_slabs.data() + ch * oc * patch, oc * patch},
         r.weight_grad);
    axpy(1.0f, {db_slabs.data() + ch * oc, oc}, r.bias_grad);
  }
  return r;
}

Outputs lanes(const Case& c, std::size_t batch, const float* w,
              const float* bias, bool relu, const std::vector<float>& x,
              const std::vector<float>& grad_out,
              const std::vector<float>& wg0, const std::vector<float>& bg0) {
  const ConvGeometry& g = c.g;
  const std::size_t oc = c.out_channels;
  Outputs r;
  r.out.resize(batch * oc * g.out_h() * g.out_w());
  std::vector<float> cache(conv2d_train_cache_size(g, batch));
  const Epilogue ep{Epilogue::Bias::kPerRow, bias, relu};
  conv2d_train_forward(g, batch, oc, w, x.data(), r.out.data(), ep, cache);
  r.weight_grad = wg0;
  r.bias_grad = bg0;
  // Poisoned: every entry must be written.
  r.grad_in.assign(batch * g.in_channels * g.in_h * g.in_w, 123.0f);
  conv2d_train_backward(g, batch, oc, w, cache, grad_out.data(),
                        relu ? r.out.data() : nullptr, r.weight_grad.data(),
                        r.bias_grad.data(), r.grad_in.data());
  return r;
}

// Bit equality, except that any two NaNs match. x86 returns the first NaN
// operand of an instruction, and which operand is first is instruction
// selection's choice (vfmadd132/213/231), not the source's — so where an
// input NaN (+nan) meets a NaN the arithmetic produced (inf * 0 gives
// -nan), the surviving sign can differ between two compiled chains. Every
// other bit, and every NaN position, must match.
bool same_value(float a, float b) {
  return std::memcmp(&a, &b, sizeof a) == 0 ||
         (std::isnan(a) && std::isnan(b));
}

void expect_same(const std::vector<float>& want, const std::vector<float>& got,
                 const char* what, const std::string& where) {
  ASSERT_EQ(want.size(), got.size()) << what << " size at " << where;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (same_value(want[i], got[i])) continue;
    ADD_FAILURE() << what << " differs at " << where << ": element " << i
                  << " reference " << want[i] << " lanes " << got[i];
    return;
  }
}

// One sweep over every case x batch x ReLU x input flavour.
void sweep(std::uint64_t seed) {
  util::Rng rng(seed);
  for (const Case& c : cases()) {
    const ConvGeometry& g = c.g;
    const std::size_t oc = c.out_channels;
    const std::size_t patch = g.patch_size();
    for (const std::size_t batch : {1u, 2u, 17u, 32u}) {
      for (const bool relu : {false, true}) {
        for (const bool specials : {false, true}) {
          std::vector<float> w = randoms(oc * patch, rng);
          std::vector<float> bias = randoms(oc, rng);
          // Exact zeros (of both signs) in half the weight sets: the small
          // GEMM path skips them, the blocked path multiplies them in, and
          // without any the kernels take their branch-free small path.
          if (relu != specials)
            for (std::size_t i = 0; i < w.size(); i += 5)
              w[i] = (i / 5) % 2 ? -0.0f : 0.0f;
          std::vector<float> x =
              randoms(batch * g.in_channels * g.in_h * g.in_w, rng);
          std::vector<float> gout =
              randoms(batch * oc * g.out_h() * g.out_w(), rng);
          if (specials) {
            add_specials(x, rng);
            add_specials(gout, rng);
          }
          const std::vector<float> wg0 = randoms(oc * patch, rng);
          const std::vector<float> bg0 = randoms(oc, rng);
          const Outputs want = reference(c, batch, w.data(), bias.data(),
                                         relu, x, gout, wg0, bg0);
          const Outputs got =
              lanes(c, batch, w.data(), bias.data(), relu, x, gout, wg0, bg0);
          const std::string where =
              describe(c, batch, relu) + (specials ? " specials" : "");
          expect_same(want.out, got.out, "out", where);
          expect_same(want.weight_grad, got.weight_grad, "weight_grad", where);
          expect_same(want.bias_grad, got.bias_grad, "bias_grad", where);
          expect_same(want.grad_in, got.grad_in, "grad_in", where);
        }
      }
    }
  }
}

class ConvTrain : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override { set_intra_op_threads(GetParam()); }
  void TearDown() override {
    clear_tuned_tile_configs();
    set_intra_op_threads(1);
  }
};

TEST_P(ConvTrain, MatchesReferenceUntuned) { sweep(1); }

// kc below every GEMM's k, and no small path at all: multi-panel sums for
// forward (k = patch), dW (k = cells) and dX (k = out_channels).
TEST_P(ConvTrain, MatchesReferenceWithShortPanels) {
  std::vector<TunedTileEntry> entries;
  for (const Case& c : cases()) {
    const std::size_t patch = c.g.patch_size();
    const std::size_t cells = c.g.out_h() * c.g.out_w();
    const std::pair<std::size_t, std::size_t> keys[] = {
        {patch, cells}, {cells, patch}, {c.out_channels, cells}};
    for (const auto& [k, n] : keys) {
      bool seen = false;
      for (const auto& e : entries) seen |= e.k == k && e.n == n;
      if (seen) continue;
      TileConfig t;
      t.kc = std::max<std::size_t>(1, k / 3);
      t.small_row_flops = 0;
      entries.push_back({k, n, t});
    }
  }
  set_tuned_tile_configs(entries);
  sweep(2);
}

// Every GEMM on the small path: single panels with zero skips.
TEST_P(ConvTrain, MatchesReferenceAllSmall) {
  std::vector<TunedTileEntry> entries;
  for (const Case& c : cases()) {
    const std::size_t patch = c.g.patch_size();
    const std::size_t cells = c.g.out_h() * c.g.out_w();
    const std::pair<std::size_t, std::size_t> keys[] = {
        {patch, cells}, {cells, patch}, {c.out_channels, cells}};
    for (const auto& [k, n] : keys) {
      bool seen = false;
      for (const auto& e : entries) seen |= e.k == k && e.n == n;
      if (seen) continue;
      TileConfig t;
      t.small_row_flops = 1u << 30;
      entries.push_back({k, n, t});
    }
  }
  set_tuned_tile_configs(entries);
  sweep(3);
}

INSTANTIATE_TEST_SUITE_P(Threads, ConvTrain, ::testing::Values(1u, 4u));

TEST(ConvTrainApi, RejectsWrongCacheSize) {
  const ConvGeometry g{2, 5, 5, 3, 1, 1};
  std::vector<float> w(3 * 18), x(2 * 50), out(2 * 75);
  std::vector<float> cache(conv2d_train_cache_size(g, 2) - 1);
  EXPECT_THROW(conv2d_train_forward(g, 2, 3, w.data(), x.data(), out.data(),
                                    Epilogue{}, cache),
               std::invalid_argument);
}

// A model's first layer skips its input gradient through backward_params;
// the parameter gradients must not change.
TEST(ConvTrainLayer, BackwardParamsMatchesBackward) {
  util::Rng init_a(7), init_b(7), data(8);
  nn::Conv2d a(3, 4, 3, 1, 1, init_a), b(3, 4, 3, 1, 1, init_b);
  a.set_activation(nn::Activation::kRelu);
  b.set_activation(nn::Activation::kRelu);
  Tensor x({5, 3, 6, 6});
  for (std::size_t i = 0; i < x.numel(); ++i)
    x[i] = static_cast<float>(data.normal());
  Tensor gout({5, 4, 6, 6});
  for (std::size_t i = 0; i < gout.numel(); ++i)
    gout[i] = static_cast<float>(data.normal());
  a.forward(x, true);
  b.forward(x, true);
  const Tensor grad_in = a.backward(gout);
  EXPECT_EQ(grad_in.shape(), x.shape());
  b.backward_params(gout);
  auto pa = a.params();
  auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i)
    EXPECT_EQ(std::memcmp(pa[i].grad->data(), pb[i].grad->data(),
                          pa[i].grad->numel() * sizeof(float)),
              0)
        << pa[i].name;
}

}  // namespace
}  // namespace a4nn::tensor
