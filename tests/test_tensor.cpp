#include "tensor/tensor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/autotune.hpp"
#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/scratch.hpp"

namespace a4nn::tensor {
namespace {

TEST(Tensor, ShapeAndNumel) {
  Tensor t({2, 3, 4});
  EXPECT_EQ(t.rank(), 3u);
  EXPECT_EQ(t.numel(), 24u);
  EXPECT_EQ(t.dim(1), 3u);
  EXPECT_THROW(t.dim(3), std::out_of_range);
  EXPECT_EQ(shape_to_string(t.shape()), "[2x3x4]");
}

TEST(Tensor, ZeroInitialized) {
  Tensor t({5});
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FullAndFill) {
  Tensor t = Tensor::full({3}, 2.5f);
  EXPECT_EQ(t[2], 2.5f);
  t.zero();
  EXPECT_EQ(t[0], 0.0f);
}

TEST(Tensor, DataConstructorValidatesSize) {
  EXPECT_NO_THROW(Tensor({2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor({2, 2}, {1, 2, 3}), std::invalid_argument);
}

TEST(Tensor, CheckedAccess) {
  Tensor t({2});
  EXPECT_NO_THROW(t.at(1));
  EXPECT_THROW(t.at(2), std::out_of_range);
}

TEST(Tensor, At4RowMajorLayout) {
  Tensor t({2, 3, 4, 5});
  t.at4(1, 2, 3, 4) = 7.0f;
  EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 7.0f);
  Tensor flat({10});
  EXPECT_THROW(flat.at4(0, 0, 0, 0), std::logic_error);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.dim(0), 3u);
  EXPECT_EQ(r[4], 5.0f);
  EXPECT_THROW(t.reshaped({4, 2}), std::invalid_argument);
}

TEST(Tensor, HeInitStatistics) {
  util::Rng rng(5);
  const std::size_t fan_in = 64;
  Tensor t = Tensor::he_init({200, fan_in}, fan_in, rng);
  double sum = 0.0, sq = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    sum += t[i];
    sq += static_cast<double>(t[i]) * t[i];
  }
  const double n = static_cast<double>(t.numel());
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  EXPECT_NEAR(sq / n, 2.0 / fan_in, 0.005);
}

TEST(Tensor, XavierInitBounds) {
  util::Rng rng(6);
  Tensor t = Tensor::xavier_init({50, 30}, 30, 50, rng);
  const float bound = std::sqrt(6.0f / 80.0f);
  for (std::size_t i = 0; i < t.numel(); ++i) {
    EXPECT_LE(std::fabs(t[i]), bound);
  }
}

TEST(Ops, AddMulAxpy) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {10, 20, 30});
  Tensor sum = add(a, b);
  EXPECT_EQ(sum[1], 22.0f);
  Tensor prod = mul(a, b);
  EXPECT_EQ(prod[2], 90.0f);
  std::vector<float> out{1, 1, 1};
  axpy(2.0f, a.span(), out);
  EXPECT_EQ(out[2], 7.0f);
  Tensor c({2});
  EXPECT_THROW(add(a, c), std::invalid_argument);
}

TEST(Ops, ScaleAndSum) {
  Tensor t({4}, {1, 2, 3, 4});
  scale(t, 0.5f);
  EXPECT_EQ(t[3], 2.0f);
  EXPECT_DOUBLE_EQ(sum(t), 5.0);
}

TEST(Ops, Argmax) {
  std::vector<float> v{1.0f, 5.0f, 3.0f};
  EXPECT_EQ(argmax(v), 1u);
  EXPECT_THROW(argmax(std::vector<float>{}), std::invalid_argument);
}

// Reference triple-loop GEMM for validation.
void ref_gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
              const float* b, float* c) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk)
        acc += a[i * k + kk] * b[kk * n + j];
      c[i * n + j] = acc;
    }
  }
}

TEST(Ops, GemmMatchesReference) {
  util::Rng rng(7);
  const std::size_t m = 7, k = 5, n = 9;
  std::vector<float> a(m * k), b(k * n), c(m * n), ref(m * n);
  for (auto& x : a) x = static_cast<float>(rng.normal());
  for (auto& x : b) x = static_cast<float>(rng.normal());
  gemm(m, k, n, a.data(), b.data(), c.data());
  ref_gemm(m, k, n, a.data(), b.data(), ref.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);
}

TEST(Ops, GemmAtBMatchesReference) {
  util::Rng rng(8);
  const std::size_t m = 4, k = 6, n = 3;
  // A stored (k x m), compute C = A^T B.
  std::vector<float> a_t(k * m), b(k * n), c(m * n), a(m * k), ref(m * n);
  for (auto& x : a_t) x = static_cast<float>(rng.normal());
  for (auto& x : b) x = static_cast<float>(rng.normal());
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t kk = 0; kk < k; ++kk) a[i * k + kk] = a_t[kk * m + i];
  gemm_at_b(m, k, n, a_t.data(), b.data(), c.data());
  ref_gemm(m, k, n, a.data(), b.data(), ref.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);
}

TEST(Ops, GemmABtMatchesReference) {
  util::Rng rng(9);
  const std::size_t m = 5, k = 4, n = 6;
  // B stored (n x k), compute C = A B^T.
  std::vector<float> a(m * k), b_t(n * k), b(k * n), c(m * n), ref(m * n);
  for (auto& x : a) x = static_cast<float>(rng.normal());
  for (auto& x : b_t) x = static_cast<float>(rng.normal());
  for (std::size_t kk = 0; kk < k; ++kk)
    for (std::size_t j = 0; j < n; ++j) b[kk * n + j] = b_t[j * k + kk];
  gemm_a_bt(m, k, n, a.data(), b_t.data(), c.data());
  ref_gemm(m, k, n, a.data(), b.data(), ref.data());
  for (std::size_t i = 0; i < c.size(); ++i) EXPECT_NEAR(c[i], ref[i], 1e-4f);
}

TEST(Ops, ConvGeometry) {
  ConvGeometry g;
  g.in_channels = 3;
  g.in_h = 8;
  g.in_w = 8;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  EXPECT_EQ(g.out_h(), 8u);
  EXPECT_EQ(g.out_w(), 8u);
  EXPECT_EQ(g.patch_size(), 27u);
  g.stride = 2;
  g.pad = 0;
  EXPECT_EQ(g.out_h(), 3u);
}

TEST(Ops, Im2colIdentityKernel) {
  // 1x1 kernel, no padding: columns == image.
  ConvGeometry g;
  g.in_channels = 2;
  g.in_h = 3;
  g.in_w = 3;
  g.kernel = 1;
  std::vector<float> img(18);
  for (std::size_t i = 0; i < img.size(); ++i) img[i] = static_cast<float>(i);
  std::vector<float> cols(18);
  im2col(g, img, cols);
  EXPECT_EQ(cols, img);
}

TEST(Ops, Im2colPaddingProducesZeros) {
  ConvGeometry g;
  g.in_channels = 1;
  g.in_h = 2;
  g.in_w = 2;
  g.kernel = 3;
  g.pad = 1;
  std::vector<float> img{1, 2, 3, 4};
  std::vector<float> cols(9 * 4);
  im2col(g, img, cols);
  // First row of columns = kernel position (0,0): top-left output cell
  // reads the padded corner -> 0.
  EXPECT_EQ(cols[0], 0.0f);
  // Center kernel position (1,1) row reproduces the image.
  const std::size_t center_row = 4;
  EXPECT_EQ(cols[center_row * 4 + 0], 1.0f);
  EXPECT_EQ(cols[center_row * 4 + 3], 4.0f);
}

TEST(Ops, Col2imIsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
  // property that makes the convolution backward pass correct.
  util::Rng rng(11);
  ConvGeometry g;
  g.in_channels = 2;
  g.in_h = 5;
  g.in_w = 4;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  const std::size_t img_size = 2 * 5 * 4;
  const std::size_t col_size = g.patch_size() * g.out_h() * g.out_w();
  std::vector<float> x(img_size), y(col_size), cols(col_size), back(img_size, 0.0f);
  for (auto& v : x) v = static_cast<float>(rng.normal());
  for (auto& v : y) v = static_cast<float>(rng.normal());
  im2col(g, x, cols);
  col2im(g, y, back);
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < col_size; ++i) lhs += static_cast<double>(cols[i]) * y[i];
  for (std::size_t i = 0; i < img_size; ++i) rhs += static_cast<double>(x[i]) * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Ops, Im2colSizeValidation) {
  ConvGeometry g;
  g.in_channels = 1;
  g.in_h = 4;
  g.in_w = 4;
  g.kernel = 3;
  std::vector<float> img(16), cols(5);
  EXPECT_THROW(im2col(g, img, cols), std::invalid_argument);
  std::vector<float> bad_img(7);
  std::vector<float> ok_cols(9 * 4);
  EXPECT_THROW(im2col(g, bad_img, ok_cols), std::invalid_argument);
}

// ------------------------------------------- randomized GEMM property sweep
//
// Every public variant is checked against a double-precision reference over
// a few hundred shapes: degenerate extents (1, 2, odd), extents straddling
// the blocking constants (just below/at/above MR=4, NR=16, MC=64, KC=NC=256),
// and uniformly random ones. The error bound is absolute and scales only
// with the k-extent (the summation length) — a packing or tiling bug that
// drops, duplicates, or misindexes a term shows up far above it.

double ref_entry(std::size_t k, std::size_t n, const float* a, const float* b,
                 std::size_t i, std::size_t j) {
  double acc = 0.0;
  for (std::size_t kk = 0; kk < k; ++kk)
    acc += static_cast<double>(a[i * k + kk]) * b[kk * n + j];
  return acc;
}

float sweep_tolerance(std::size_t k) {
  // float rounding of a length-k sum of ~N(0,1) products, with headroom.
  return 1e-5f * static_cast<float>(k + 8);
}

std::size_t sweep_extent(util::Rng& rng) {
  // Half the draws target the blocking boundaries, half are uniform.
  static const std::size_t kEdges[] = {1,  2,  3,  4,  5,   15,  16, 17,
                                       31, 63, 64, 65, 255, 256, 257};
  if (rng.uniform() < 0.5) {
    const auto e = kEdges[static_cast<std::size_t>(rng.uniform() * 15.0)];
    return std::min<std::size_t>(e, 257);
  }
  return 1 + static_cast<std::size_t>(rng.uniform() * 48.0);
}

TEST(OpsSweep, AllGemmVariantsMatchDoubleReference) {
  util::Rng rng(2023);
  for (int trial = 0; trial < 200; ++trial) {
    std::size_t m = sweep_extent(rng);
    std::size_t k = sweep_extent(rng);
    std::size_t n = sweep_extent(rng);
    // Keep the double reference O(m*k*n) affordable when two extents are
    // large: shrink the third.
    while (m * k * n > 600'000) {
      if (m >= k && m >= n) m = m / 2 + 1;
      else if (k >= n) k = k / 2 + 1;
      else n = n / 2 + 1;
    }
    SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                 " n=" + std::to_string(n));

    std::vector<float> a(m * k), b(k * n);
    for (auto& x : a) x = static_cast<float>(rng.normal());
    for (auto& x : b) x = static_cast<float>(rng.normal());
    // Transposed copies for the at_b / a_bt variants.
    std::vector<float> a_t(k * m), b_t(n * k);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t kk = 0; kk < k; ++kk) a_t[kk * m + i] = a[i * k + kk];
    for (std::size_t kk = 0; kk < k; ++kk)
      for (std::size_t j = 0; j < n; ++j) b_t[j * k + kk] = b[kk * n + j];

    std::vector<double> ref(m * n);
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j)
        ref[i * n + j] = ref_entry(k, n, a.data(), b.data(), i, j);
    const float tol = sweep_tolerance(k);

    // The garbage prefill proves the overwrite variants really overwrite.
    std::vector<float> c(m * n, 123.0f);
    auto check = [&](const char* who, double extra = 0.0) {
      for (std::size_t i = 0; i < m * n; ++i) {
        ASSERT_NEAR(c[i], ref[i] + extra, tol) << who << " entry " << i;
      }
    };

    gemm(m, k, n, a.data(), b.data(), c.data());
    check("gemm");
    std::fill(c.begin(), c.end(), 123.0f);
    gemm_naive(m, k, n, a.data(), b.data(), c.data());
    check("gemm_naive");
    std::fill(c.begin(), c.end(), 123.0f);
    gemm_at_b(m, k, n, a_t.data(), b.data(), c.data());
    check("gemm_at_b");
    std::fill(c.begin(), c.end(), 123.0f);
    gemm_a_bt(m, k, n, a.data(), b_t.data(), c.data());
    check("gemm_a_bt");

    // Accumulating variants add on top of a nonzero C.
    std::fill(c.begin(), c.end(), 0.25f);
    gemm_at_b_acc(m, k, n, a_t.data(), b.data(), c.data());
    check("gemm_at_b_acc", 0.25);
    std::fill(c.begin(), c.end(), 0.25f);
    gemm_a_bt_acc(m, k, n, a.data(), b_t.data(), c.data());
    check("gemm_a_bt_acc", 0.25);
  }
}

TEST(OpsSweep, FusedEpiloguesMatchUnfusedPasses) {
  util::Rng rng(77);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t m = sweep_extent(rng) % 80 + 1;
    const std::size_t k = sweep_extent(rng) % 80 + 1;
    const std::size_t n = sweep_extent(rng) % 80 + 1;
    SCOPED_TRACE("m=" + std::to_string(m) + " k=" + std::to_string(k) +
                 " n=" + std::to_string(n));
    std::vector<float> a(m * k), b(k * n), row_bias(m), col_bias(n);
    for (auto& x : a) x = static_cast<float>(rng.normal());
    for (auto& x : b) x = static_cast<float>(rng.normal());
    for (auto& x : row_bias) x = static_cast<float>(rng.normal());
    for (auto& x : col_bias) x = static_cast<float>(rng.normal());
    std::vector<float> b_t(n * k);
    for (std::size_t kk = 0; kk < k; ++kk)
      for (std::size_t j = 0; j < n; ++j) b_t[j * k + kk] = b[kk * n + j];

    // Unfused: plain GEMM, then bias pass, then ReLU pass.
    std::vector<float> expect(m * n);
    gemm(m, k, n, a.data(), b.data(), expect.data());
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) {
        float v = expect[i * n + j] + row_bias[i];
        expect[i * n + j] = v > 0.0f ? v : 0.0f;
      }
    Epilogue ep;
    ep.bias = Epilogue::Bias::kPerRow;
    ep.bias_data = row_bias.data();
    ep.relu = true;
    std::vector<float> c(m * n, -9.0f);
    gemm_ex(m, k, n, a.data(), b.data(), c.data(), ep);
    // Same arithmetic, same order: the fused result is bit-identical.
    for (std::size_t i = 0; i < m * n; ++i)
      ASSERT_EQ(c[i], expect[i]) << "gemm_ex entry " << i;

    // Dense-style: A*B^T with per-column bias, no ReLU.
    gemm_a_bt(m, k, n, a.data(), b_t.data(), expect.data());
    for (std::size_t i = 0; i < m; ++i)
      for (std::size_t j = 0; j < n; ++j) expect[i * n + j] += col_bias[j];
    Epilogue ep2;
    ep2.bias = Epilogue::Bias::kPerCol;
    ep2.bias_data = col_bias.data();
    std::fill(c.begin(), c.end(), -9.0f);
    gemm_a_bt_ex(m, k, n, a.data(), b_t.data(), c.data(), ep2);
    for (std::size_t i = 0; i < m * n; ++i)
      ASSERT_EQ(c[i], expect[i]) << "gemm_a_bt_ex entry " << i;
  }
}

TEST(OpsSweep, GemmDegenerateExtents) {
  // k == 0: overwrite zeroes C, accumulate leaves it alone, the epilogue
  // still applies. m == 0 or n == 0: no touching anything.
  std::vector<float> c(6, 5.0f);
  gemm(2, 0, 3, nullptr, nullptr, c.data());
  for (float v : c) EXPECT_EQ(v, 0.0f);
  std::fill(c.begin(), c.end(), 5.0f);
  gemm_a_bt_acc(2, 0, 3, nullptr, nullptr, c.data());
  for (float v : c) EXPECT_EQ(v, 5.0f);
  std::vector<float> bias{1.0f, 2.0f};
  Epilogue ep;
  ep.bias = Epilogue::Bias::kPerRow;
  ep.bias_data = bias.data();
  std::fill(c.begin(), c.end(), 5.0f);
  gemm_ex(2, 0, 3, nullptr, nullptr, c.data(), ep);
  EXPECT_EQ(c[0], 1.0f);
  EXPECT_EQ(c[5], 2.0f);
  std::fill(c.begin(), c.end(), 5.0f);
  gemm(0, 4, 3, nullptr, nullptr, c.data());
  gemm(2, 4, 0, nullptr, nullptr, c.data());
  for (float v : c) EXPECT_EQ(v, 5.0f);
}

TEST(OpsSweep, AdjointnessOverStridedPaddedGeometries) {
  // <im2col(x), y> == <x, col2im(y)> across the full geometry grid the
  // search space can produce, including stride-2 and kernel-sized padding.
  util::Rng rng(42);
  for (std::size_t ch : {1, 3}) {
    for (std::size_t h : {4, 5, 7}) {
      for (std::size_t w : {4, 6, 9}) {
        for (std::size_t kernel : {1, 2, 3}) {
          for (std::size_t stride : {1, 2}) {
            for (std::size_t pad : {0, 1, 2}) {
              if (h + 2 * pad < kernel || w + 2 * pad < kernel) continue;
              // ConvGeometry::validate rejects pad >= kernel (border
              // outputs would read only padding) — no layer emits these.
              if (pad >= kernel) continue;
              ConvGeometry g;
              g.in_channels = ch;
              g.in_h = h;
              g.in_w = w;
              g.kernel = kernel;
              g.stride = stride;
              g.pad = pad;
              SCOPED_TRACE("ch=" + std::to_string(ch) + " h=" +
                           std::to_string(h) + " w=" + std::to_string(w) +
                           " k=" + std::to_string(kernel) + " s=" +
                           std::to_string(stride) + " p=" +
                           std::to_string(pad));
              const std::size_t img_size = ch * h * w;
              const std::size_t col_size =
                  g.patch_size() * g.out_h() * g.out_w();
              std::vector<float> x(img_size), y(col_size), cols(col_size),
                  back(img_size, 0.0f);
              for (auto& v : x) v = static_cast<float>(rng.normal());
              for (auto& v : y) v = static_cast<float>(rng.normal());
              im2col(g, x, cols);
              col2im(g, y, back);
              double lhs = 0.0, rhs = 0.0;
              for (std::size_t i = 0; i < col_size; ++i)
                lhs += static_cast<double>(cols[i]) * y[i];
              for (std::size_t i = 0; i < img_size; ++i)
                rhs += static_cast<double>(x[i]) * back[i];
              ASSERT_NEAR(lhs, rhs, 1e-3);
            }
          }
        }
      }
    }
  }
}

// ----------------------------------------------- tuned blocking candidates
//
// Every candidate the autotuner can install must produce correct results on
// adversarial shapes: extents of 1, extents straddling the register tile
// (MR=6, NR=16), and extents straddling that candidate's own kc/nc cache
// boundaries. A candidate that mispacks a partial panel would win a tune on
// round shapes and then corrupt real layer shapes at runtime.

std::vector<std::size_t> boundary_extents(std::size_t tile,
                                          std::size_t cap) {
  std::vector<std::size_t> out{1, tile - 1, tile + 1};
  std::erase_if(out, [&](std::size_t e) { return e == 0 || e > cap; });
  return out;
}

TEST(OpsTuned, EveryCandidateMatchesNaiveOnBoundaryShapes) {
  util::Rng rng(314);
  for (std::size_t ci = 0; ci < candidate_tile_configs().size(); ++ci) {
    const TileConfig& cfg = candidate_tile_configs()[ci];
    ASSERT_NO_THROW(validate_tile_config(cfg));
    // m boundaries stress the MR strips; k the candidate's k-panel depth
    // (plus the small-path cutoff via n*k); n the NR strips and nc blocks.
    std::vector<std::size_t> ms = boundary_extents(kGemmMR, 16);
    std::vector<std::size_t> ks = boundary_extents(cfg.kc, 600);
    ks.push_back(3);
    std::vector<std::size_t> ns = boundary_extents(kGemmNR, 600);
    for (std::size_t e : boundary_extents(cfg.nc, 600)) ns.push_back(e);
    for (std::size_t m : ms) {
      for (std::size_t k : ks) {
        for (std::size_t n : ns) {
          if (m * k * n > 3'000'000) continue;
          SCOPED_TRACE("candidate=" + std::to_string(ci) + " m=" +
                       std::to_string(m) + " k=" + std::to_string(k) +
                       " n=" + std::to_string(n));
          std::vector<float> a(m * k), b(k * n), c(m * n, 123.0f),
              ref(m * n, -7.0f);
          for (auto& x : a) x = static_cast<float>(rng.normal());
          for (auto& x : b) x = static_cast<float>(rng.normal());
          gemm_with_config(m, k, n, a.data(), b.data(), c.data(), cfg);
          gemm_naive(m, k, n, a.data(), b.data(), ref.data());
          const float tol = sweep_tolerance(k);
          for (std::size_t i = 0; i < m * n; ++i)
            ASSERT_NEAR(c[i], ref[i], tol) << "entry " << i;
        }
      }
    }
  }
}

TEST(OpsTuned, RowResultsAreIndependentOfBatchSize) {
  // The serving engine's batch-size-invariance guarantee, at the kernel
  // level: row i of an m-row GEMM is bit-identical to the same row computed
  // alone, under every tuner candidate. This is what makes it safe to key
  // the tuned table on (k, n) and never on m.
  util::Rng rng(1618);
  const std::size_t k = 36, n = 64, m = 9;
  std::vector<float> a(m * k), b(k * n);
  for (auto& x : a) x = static_cast<float>(rng.normal());
  for (auto& x : b) x = static_cast<float>(rng.normal());
  for (std::size_t ci = 0; ci < candidate_tile_configs().size(); ++ci) {
    const TileConfig& cfg = candidate_tile_configs()[ci];
    SCOPED_TRACE("candidate=" + std::to_string(ci));
    std::vector<float> batch(m * n);
    gemm_with_config(m, k, n, a.data(), b.data(), batch.data(), cfg);
    for (std::size_t i = 0; i < m; ++i) {
      std::vector<float> solo(n);
      gemm_with_config(1, k, n, a.data() + i * k, b.data(), solo.data(), cfg);
      ASSERT_EQ(std::memcmp(solo.data(), batch.data() + i * n,
                            n * sizeof(float)),
                0)
          << "row " << i;
    }
  }
}

TEST(OpsTuned, InstalledTableMatchesExplicitConfig) {
  util::Rng rng(2718);
  const std::size_t m = 7, k = 36, n = 64;
  std::vector<float> a(m * k), b(k * n);
  for (auto& x : a) x = static_cast<float>(rng.normal());
  for (auto& x : b) x = static_cast<float>(rng.normal());
  TileConfig cfg;
  cfg.mc = 36;
  cfg.kc = 128;
  cfg.nc = 128;
  cfg.small_row_flops = 0;  // force the blocked path even for this shape
  std::vector<float> expect(m * n), got(m * n);
  gemm_with_config(m, k, n, a.data(), b.data(), expect.data(), cfg);
  set_tuned_tile_configs({{k, n, cfg}});
  gemm(m, k, n, a.data(), b.data(), got.data());
  // Another (k, n) still uses the defaults — tuned entries never leak.
  std::vector<float> other(m * (n + 1)), other_ref(m * (n + 1));
  std::vector<float> b2(k * (n + 1));
  for (auto& x : b2) x = static_cast<float>(rng.normal());
  gemm(m, k, n + 1, a.data(), b2.data(), other.data());
  clear_tuned_tile_configs();
  gemm(m, k, n + 1, a.data(), b2.data(), other_ref.data());
  EXPECT_EQ(std::memcmp(got.data(), expect.data(), m * n * sizeof(float)), 0);
  EXPECT_EQ(std::memcmp(other.data(), other_ref.data(),
                        m * (n + 1) * sizeof(float)),
            0);
}

TEST(OpsTuned, TableRejectsInvalidAndDuplicateEntries) {
  TileConfig bad_mc;
  bad_mc.mc = 7;  // not a multiple of MR=6
  EXPECT_THROW(validate_tile_config(bad_mc), std::invalid_argument);
  TileConfig bad_nc;
  bad_nc.nc = 100;  // not a multiple of NR=16
  EXPECT_THROW(validate_tile_config(bad_nc), std::invalid_argument);
  TileConfig bad_kc;
  bad_kc.kc = 0;
  EXPECT_THROW(validate_tile_config(bad_kc), std::invalid_argument);
  EXPECT_THROW(set_tuned_tile_configs({{36, 64, bad_mc}}),
               std::invalid_argument);
  EXPECT_THROW(set_tuned_tile_configs({{0, 64, TileConfig{}}}),
               std::invalid_argument);
  // Two entries for one (k, n) could give the same row two different
  // summation orders depending on which wins — rejected outright.
  EXPECT_THROW(
      set_tuned_tile_configs({{36, 64, TileConfig{}}, {36, 64, TileConfig{}}}),
      std::invalid_argument);
  clear_tuned_tile_configs();
}

// -------------------------------------------------------- direct 3x3 conv

TEST(OpsConv, DirectViabilityFollowsGeometry) {
  auto geom = [](std::size_t ch, std::size_t hw, std::size_t kernel,
                 std::size_t stride, std::size_t pad) {
    ConvGeometry g;
    g.in_channels = ch;
    g.in_h = hw;
    g.in_w = hw;
    g.kernel = kernel;
    g.stride = stride;
    g.pad = pad;
    return g;
  };
  EXPECT_TRUE(conv2d_direct_viable(geom(1, 16, 3, 1, 1)));   // out_w = 16
  EXPECT_FALSE(conv2d_direct_viable(geom(1, 8, 3, 1, 1)));   // out_w = 8
  EXPECT_FALSE(conv2d_direct_viable(geom(1, 16, 3, 2, 1)));  // stride 2
  EXPECT_FALSE(conv2d_direct_viable(geom(1, 16, 1, 1, 0)));  // 1x1
}

TEST(OpsConv, DirectMatchesIm2colBitExact) {
  // The direct packer feeds the same microkernel the same panel bytes in
  // the same order as im2col + gemm_ex, so the outputs must be bit-equal —
  // across viable geometries (out_w >= NR), fallback geometries (narrow,
  // small), pad 0 and 1, and fused epilogues.
  util::Rng rng(999);
  struct Case {
    std::size_t ch, h, w, pad, oc;
  };
  const Case cases[] = {
      {1, 16, 16, 1, 4},  // stem shape: viable, padded
      {4, 16, 16, 1, 8},  // multi-channel viable
      {1, 18, 20, 0, 3},  // viable, no padding, non-square
      {2, 16, 17, 1, 5},  // odd out_w = 17 (partial last strip)
      {4, 8, 8, 1, 8},    // narrow: materialized fallback
      {1, 4, 4, 1, 2},    // tiny: small-problem fallback
  };
  for (const Case& tc : cases) {
    SCOPED_TRACE("ch=" + std::to_string(tc.ch) + " h=" + std::to_string(tc.h) +
                 " w=" + std::to_string(tc.w) + " pad=" +
                 std::to_string(tc.pad) + " oc=" + std::to_string(tc.oc));
    ConvGeometry g;
    g.in_channels = tc.ch;
    g.in_h = tc.h;
    g.in_w = tc.w;
    g.kernel = 3;
    g.stride = 1;
    g.pad = tc.pad;
    g.validate();
    const std::size_t cols = g.out_h() * g.out_w();
    const std::size_t patch = g.patch_size();
    std::vector<float> image(tc.ch * tc.h * tc.w), weights(tc.oc * patch),
        bias(tc.oc);
    for (auto& v : image) v = static_cast<float>(rng.normal());
    for (auto& v : weights) v = static_cast<float>(rng.normal());
    for (auto& v : bias) v = static_cast<float>(rng.normal());
    Epilogue ep;
    ep.bias = Epilogue::Bias::kPerRow;
    ep.bias_data = bias.data();
    ep.relu = true;

    std::vector<float> col_buf(patch * cols);
    im2col(g, image, col_buf);
    std::vector<float> expect(tc.oc * cols, -5.0f);
    gemm_ex(tc.oc, patch, cols, weights.data(), col_buf.data(), expect.data(),
            ep);

    std::vector<float> got(tc.oc * cols, 17.0f);
    conv2d_forward_direct(g, tc.oc, weights.data(), image, got.data(), ep);
    ASSERT_EQ(
        std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)), 0);
  }
}

TEST(OpsConv, DirectBitExactUnderEveryCandidateConfig) {
  // The bit-equality contract has to survive retuning: whatever blocking
  // the autotuner installs for the conv's (k, n), direct and materialized
  // paths still agree bit for bit.
  util::Rng rng(555);
  ConvGeometry g;
  g.in_channels = 4;
  g.in_h = 16;
  g.in_w = 16;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  const std::size_t oc = 8, patch = g.patch_size(),
                    cols = g.out_h() * g.out_w();
  std::vector<float> image(4 * 16 * 16), weights(oc * patch);
  for (auto& v : image) v = static_cast<float>(rng.normal());
  for (auto& v : weights) v = static_cast<float>(rng.normal());
  Epilogue ep;
  std::vector<float> col_buf(patch * cols);
  im2col(g, image, col_buf);
  for (std::size_t ci = 0; ci < candidate_tile_configs().size(); ++ci) {
    SCOPED_TRACE("candidate=" + std::to_string(ci));
    set_tuned_tile_configs({{patch, cols, candidate_tile_configs()[ci]}});
    std::vector<float> expect(oc * cols), got(oc * cols);
    gemm_ex(oc, patch, cols, weights.data(), col_buf.data(), expect.data(),
            ep);
    conv2d_forward_direct(g, oc, weights.data(), image, got.data(), ep);
    clear_tuned_tile_configs();
    ASSERT_EQ(
        std::memcmp(got.data(), expect.data(), got.size() * sizeof(float)), 0);
  }
}

TEST(OpsConv, GeometryValidationRejectsDegenerates) {
  ConvGeometry g;
  g.in_channels = 1;
  g.in_h = 8;
  g.in_w = 8;
  g.kernel = 3;
  g.stride = 1;
  g.pad = 1;
  EXPECT_NO_THROW(g.validate());
  ConvGeometry pad_heavy = g;
  pad_heavy.pad = 3;  // pad >= kernel: border outputs read only padding
  EXPECT_THROW(pad_heavy.validate(), std::invalid_argument);
  ConvGeometry too_small = g;
  too_small.in_h = 2;
  too_small.pad = 0;  // 2 + 0 < 3: out_h truncates to zero (size_t wrap)
  EXPECT_THROW(too_small.validate(), std::invalid_argument);
  ConvGeometry zero_ch = g;
  zero_ch.in_channels = 0;
  EXPECT_THROW(zero_ch.validate(), std::invalid_argument);
  ConvGeometry zero_stride = g;
  zero_stride.stride = 0;
  EXPECT_THROW(zero_stride.validate(), std::invalid_argument);
  ConvGeometry zero_kernel = g;
  zero_kernel.kernel = 0;
  EXPECT_THROW(zero_kernel.validate(), std::invalid_argument);
  // im2col and the direct forward validate too — the degenerate geometry
  // never reaches the kernels.
  std::vector<float> img(64), cols(1);
  EXPECT_THROW(im2col(pad_heavy, img, cols), std::invalid_argument);
  EXPECT_THROW(
      conv2d_forward_direct(pad_heavy, 1, nullptr, img, nullptr, Epilogue{}),
      std::invalid_argument);
}

// ------------------------------------------------------------ scratch arena

TEST(Scratch, PointersStayStableAcrossGrowth) {
  ScratchArena arena;
  auto first = arena.alloc(8);
  first[0] = 42.0f;
  // Force several new blocks; the first allocation must not move.
  for (int i = 0; i < 6; ++i) arena.alloc(1 << 15);
  EXPECT_EQ(first[0], 42.0f);
  arena.release();
  EXPECT_EQ(arena.capacity(), 0u);
}

TEST(Scratch, ScopeRewindReusesMemory) {
  ScratchArena arena;
  float* p1;
  {
    ScratchScope scope(arena);
    p1 = scope.alloc(100).data();
  }
  const std::size_t cap_after_first = arena.capacity();
  {
    ScratchScope scope(arena);
    // Same size from the same position: identical pointer, no new block.
    EXPECT_EQ(scope.alloc(100).data(), p1);
  }
  EXPECT_EQ(arena.capacity(), cap_after_first);
}

TEST(Scratch, AllocZeroedZeroesAndHighWaterTracks) {
  ScratchArena arena;
  {
    ScratchScope scope(arena);
    auto s = scope.alloc_zeroed(64);
    for (float v : s) ASSERT_EQ(v, 0.0f);
    scope.alloc(36);
  }
  EXPECT_EQ(arena.high_water(), 100u);
  {
    ScratchScope scope(arena);
    scope.alloc(10);
  }
  EXPECT_EQ(arena.high_water(), 100u);  // high-water is a max, not current
}

TEST(Scratch, NestedScopesUnwindInOrder) {
  ScratchArena arena;
  ScratchScope outer(arena);
  float* a = outer.alloc(16).data();
  float* inner_ptr;
  {
    ScratchScope inner(arena);
    inner_ptr = inner.alloc(16).data();
    EXPECT_NE(inner_ptr, a);
  }
  // Inner released; the next alloc reuses its slot. Outer's span survives.
  ScratchScope again(arena);
  EXPECT_EQ(again.alloc(16).data(), inner_ptr);
}

TEST(Scratch, TrimKeepsOnlyTheWatermarkBlock) {
  ScratchArena arena;
  {
    ScratchScope scope(arena);
    scope.alloc(100);      // first block: 1 << 14 floats
    scope.alloc(1 << 15);  // second block: 1 << 15 floats
  }
  ASSERT_EQ(arena.capacity(), (1u << 14) + (1u << 15));
  // Trim to a watermark that fits only the smaller block: the outlier
  // block is freed, the steady-state one survives.
  arena.trim(1 << 14);
  EXPECT_EQ(arena.capacity(), 1u << 14);
  // The surviving block is immediately reusable from offset zero.
  {
    ScratchScope scope(arena);
    scope.alloc(1 << 14);
  }
  EXPECT_EQ(arena.capacity(), 1u << 14);
  // A watermark below every block frees everything.
  arena.trim(100);
  EXPECT_EQ(arena.capacity(), 0u);
}

TEST(Scratch, TrimIsANoOpWhileAllocationsAreLive) {
  ScratchArena arena;
  ScratchScope scope(arena);
  auto s = scope.alloc(256);
  s[0] = 3.5f;
  const std::size_t cap = arena.capacity();
  arena.trim(0);  // live floats: freeing would dangle the span above
  EXPECT_EQ(arena.capacity(), cap);
  EXPECT_EQ(s[0], 3.5f);
}

// --------------------------------------------------- deterministic chunking

TEST(Parallel, PartitionCoversRangeDisjointly) {
  for (std::size_t items : {0u, 1u, 2u, 15u, 16u, 17u, 100u, 1000u}) {
    const std::size_t chunks = intra_op_chunks(items);
    EXPECT_EQ(chunks, std::min<std::size_t>(items, kMaxIntraOpChunks));
    std::size_t covered = 0;
    std::size_t prev_end = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const ChunkRange r = intra_op_chunk_range(items, c);
      EXPECT_EQ(r.begin, prev_end);  // contiguous, in order, no gaps
      EXPECT_GT(r.end, r.begin);     // never an empty chunk
      covered += r.end - r.begin;
      prev_end = r.end;
    }
    EXPECT_EQ(covered, items);
    if (chunks > 0) {
      EXPECT_EQ(prev_end, items);
    }
  }
}

TEST(Parallel, ChunksRunBitIdenticalAtAnyThreadCount) {
  // The same chunked reduction at pool sizes 1, 2, and 8 must produce the
  // same bytes: the partition depends on the item count alone and the
  // caller reduces chunk-private slabs in chunk order.
  const std::size_t items = 1000;
  std::vector<float> data(items);
  util::Rng rng(3);
  for (auto& v : data) v = static_cast<float>(rng.normal());

  auto run = [&](std::size_t threads) {
    set_intra_op_threads(threads);
    const std::size_t chunks = intra_op_chunks(items);
    std::vector<float> partial(chunks, 0.0f);
    parallel_chunks(items, [&](std::size_t c, std::size_t begin,
                               std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) partial[c] += data[i] * data[i];
    });
    float total = 0.0f;
    for (std::size_t c = 0; c < chunks; ++c) total += partial[c];
    return total;
  };
  const float t1 = run(1);
  const float t2 = run(2);
  const float t8 = run(8);
  set_intra_op_threads(1);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
}

TEST(Parallel, ChunkExceptionPropagatesAndPoolSurvives) {
  set_intra_op_threads(4);
  EXPECT_THROW(
      parallel_chunks(100,
                      [&](std::size_t c, std::size_t, std::size_t) {
                        if (c == 3) throw std::runtime_error("chunk fault");
                      }),
      std::runtime_error);
  // The pool is still usable and regions still run to completion.
  std::vector<int> hits(intra_op_chunks(100), 0);
  parallel_chunks(100, [&](std::size_t c, std::size_t, std::size_t) {
    hits[c] = 1;
  });
  set_intra_op_threads(1);
  for (int h : hits) EXPECT_EQ(h, 1);
}

}  // namespace
}  // namespace a4nn::tensor
