// Layer-level correctness: analytic gradients vs finite differences,
// shape/FLOPs accounting, and spec/weights serialization round trips.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "nn/factory.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/phase_block.hpp"
#include "nn/sequential.hpp"
#include "tensor/ops.hpp"

namespace a4nn::nn {
namespace {

double dot(const Tensor& a, const Tensor& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i)
    acc += static_cast<double>(a[i]) * b[i];
  return acc;
}

/// Check d<forward(x), w>/dx against backward(w) by central differences.
void check_input_gradient(Layer& layer, Tensor x, double tol = 2e-2) {
  util::Rng rng(99);
  layer.forward(x, true);
  Tensor probe = layer.forward(x, true);  // ensure caches match final pass
  Tensor w = Tensor::randn(probe.shape(), rng);
  layer.forward(x, true);
  const Tensor analytic = layer.backward(w);
  const float eps = 1e-2f;
  for (std::size_t i = 0; i < x.numel(); i += std::max<std::size_t>(1, x.numel() / 24)) {
    Tensor xp = x, xm = x;
    xp[i] += eps;
    xm[i] -= eps;
    const double fp = dot(layer.forward(xp, true), w);
    const double fm = dot(layer.forward(xm, true), w);
    const double numeric = (fp - fm) / (2.0 * eps);
    EXPECT_NEAR(analytic[i], numeric,
                tol * std::max(1.0, std::fabs(numeric)))
        << "input index " << i;
  }
}

/// Check parameter gradients the same way.
void check_param_gradients(Layer& layer, Tensor x, double tol = 2e-2) {
  util::Rng rng(101);
  Tensor probe = layer.forward(x, true);
  Tensor w = Tensor::randn(probe.shape(), rng);
  layer.zero_grad();
  layer.forward(x, true);
  layer.backward(w);
  for (auto& slot : layer.params()) {
    Tensor analytic = *slot.grad;  // copy before we perturb
    Tensor& value = *slot.value;
    for (std::size_t i = 0;
         i < value.numel();
         i += std::max<std::size_t>(1, value.numel() / 12)) {
      const float eps = 1e-2f;
      const float orig = value[i];
      value[i] = orig + eps;
      const double fp = dot(layer.forward(x, true), w);
      value[i] = orig - eps;
      const double fm = dot(layer.forward(x, true), w);
      value[i] = orig;
      const double numeric = (fp - fm) / (2.0 * eps);
      EXPECT_NEAR(analytic[i], numeric,
                  tol * std::max(1.0, std::fabs(numeric)))
          << slot.name << "[" << i << "]";
    }
  }
}

Tensor random_input(Shape shape, std::uint64_t seed) {
  util::Rng rng(seed);
  return Tensor::randn(std::move(shape), rng);
}

TEST(Conv2d, OutputShapeAndFlops) {
  util::Rng rng(1);
  Conv2d conv(3, 8, 3, 1, 1, rng);
  EXPECT_EQ(conv.output_shape({3, 16, 16}), (Shape{8, 16, 16}));
  // 2*27+1 FLOPs per output element, 8*16*16 elements.
  EXPECT_EQ(conv.flops({3, 16, 16}), 16u * 16u * 8u * 55u);
  Conv2d strided(3, 4, 3, 2, 0, rng);
  EXPECT_EQ(strided.output_shape({3, 9, 9}), (Shape{4, 4, 4}));
}

TEST(Conv2d, ForwardMatchesDirectConvolution) {
  util::Rng rng(2);
  Conv2d conv(1, 1, 3, 1, 0, rng);
  // Set kernel to a known box filter with zero bias.
  auto params = conv.params();
  for (std::size_t i = 0; i < 9; ++i) (*params[0].value)[i] = 1.0f;
  Tensor x({1, 1, 3, 3});
  for (std::size_t i = 0; i < 9; ++i) x[i] = static_cast<float>(i + 1);
  const Tensor y = conv.forward(x, true);
  ASSERT_EQ(y.shape(), (Shape{1, 1, 1, 1}));
  EXPECT_FLOAT_EQ(y[0], 45.0f);  // sum 1..9
}

TEST(Conv2d, GradientsMatchFiniteDifferences) {
  util::Rng rng(3);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  check_input_gradient(conv, random_input({2, 2, 5, 5}, 31));
  check_param_gradients(conv, random_input({2, 2, 5, 5}, 32));
}

TEST(Conv2d, StridedGradients) {
  util::Rng rng(4);
  Conv2d conv(1, 2, 3, 2, 1, rng);
  check_input_gradient(conv, random_input({2, 1, 6, 6}, 33));
}

TEST(Conv2d, RejectsBadInput) {
  util::Rng rng(5);
  Conv2d conv(2, 4, 3, 1, 1, rng);
  Tensor wrong_channels({1, 3, 8, 8});
  EXPECT_THROW(conv.forward(wrong_channels, true), std::invalid_argument);
  EXPECT_THROW(Conv2d(0, 4, 3, 1, 1, rng), std::invalid_argument);
}

TEST(Linear, ForwardAndGradients) {
  util::Rng rng(6);
  Linear lin(7, 4, rng);
  EXPECT_EQ(lin.output_shape({7}), (Shape{4}));
  EXPECT_EQ(lin.flops({7}), 4u * 15u);
  check_input_gradient(lin, random_input({3, 7}, 34));
  check_param_gradients(lin, random_input({3, 7}, 35));
}

TEST(Linear, RejectsWrongWidth) {
  util::Rng rng(7);
  Linear lin(7, 4, rng);
  Tensor x({2, 6});
  EXPECT_THROW(lin.forward(x, true), std::invalid_argument);
}

TEST(ReLU, ForwardClampsAndGradientMasks) {
  ReLU relu;
  Tensor x({4}, {-1.0f, 0.0f, 2.0f, -3.0f});
  const Tensor y = relu.forward(x, true);
  EXPECT_EQ(y[0], 0.0f);
  EXPECT_EQ(y[2], 2.0f);
  Tensor g({4}, {1, 1, 1, 1});
  const Tensor gx = relu.backward(g);
  EXPECT_EQ(gx[0], 0.0f);
  EXPECT_EQ(gx[2], 1.0f);
}

TEST(MaxPool2d, ForwardAndRouting) {
  MaxPool2d pool(2);
  Tensor x({1, 1, 2, 2}, {1, 5, 3, 2});
  const Tensor y = pool.forward(x, true);
  ASSERT_EQ(y.numel(), 1u);
  EXPECT_EQ(y[0], 5.0f);
  Tensor g({1, 1, 1, 1}, {2.0f});
  const Tensor gx = pool.backward(g);
  EXPECT_EQ(gx[1], 2.0f);  // gradient routed to the argmax only
  EXPECT_EQ(gx[0], 0.0f);
}

TEST(MaxPool2d, GradientsMatchFiniteDifferences) {
  MaxPool2d pool(2);
  check_input_gradient(pool, random_input({2, 2, 4, 4}, 36));
}

TEST(MaxPool2d, ShapeValidation) {
  MaxPool2d pool(2);
  EXPECT_EQ(pool.output_shape({4, 8, 8}), (Shape{4, 4, 4}));
  Tensor tiny({1, 1, 1, 1});
  EXPECT_THROW(pool.forward(tiny, true), std::invalid_argument);
}

TEST(GlobalAvgPool, ForwardAndGradients) {
  GlobalAvgPool gap;
  Tensor x({1, 2, 2, 2}, {1, 2, 3, 4, 10, 20, 30, 40});
  const Tensor y = gap.forward(x, true);
  ASSERT_EQ(y.shape(), (Shape{1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.5f);
  EXPECT_FLOAT_EQ(y[1], 25.0f);
  check_input_gradient(gap, random_input({2, 3, 4, 4}, 37));
}

TEST(Flatten, RoundTrip) {
  Flatten flat;
  Tensor x = random_input({2, 3, 4, 4}, 38);
  const Tensor y = flat.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 48}));
  const Tensor gx = flat.backward(y);
  EXPECT_EQ(gx.shape(), x.shape());
}

TEST(Dropout, EvalIsIdentityTrainScales) {
  Dropout drop(0.5, 7);
  Tensor x = Tensor::full({1000}, 1.0f);
  const Tensor eval_out = drop.forward(x, false);
  for (std::size_t i = 0; i < 1000; ++i) EXPECT_EQ(eval_out[i], 1.0f);
  const Tensor train_out = drop.forward(x, true);
  std::size_t zeros = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < 1000; ++i) {
    if (train_out[i] == 0.0f) ++zeros;
    sum += train_out[i];
  }
  EXPECT_NEAR(static_cast<double>(zeros), 500.0, 70.0);
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.15);  // inverted scaling keeps mean
  EXPECT_THROW(Dropout(1.0, 1), std::invalid_argument);
}

TEST(BatchNorm2d, NormalizesTrainingBatch) {
  BatchNorm2d bn(2);
  Tensor x = random_input({4, 2, 3, 3}, 39);
  const Tensor y = bn.forward(x, true);
  // Per-channel mean ~0, var ~1 after normalization (gamma=1, beta=0).
  for (std::size_t c = 0; c < 2; ++c) {
    double sum = 0.0, sq = 0.0;
    for (std::size_t n = 0; n < 4; ++n) {
      for (std::size_t i = 0; i < 9; ++i) {
        const float v = y[(n * 2 + c) * 9 + i];
        sum += v;
        sq += static_cast<double>(v) * v;
      }
    }
    EXPECT_NEAR(sum / 36.0, 0.0, 1e-4);
    EXPECT_NEAR(sq / 36.0, 1.0, 1e-2);
  }
}

TEST(BatchNorm2d, GradientsMatchFiniteDifferences) {
  BatchNorm2d bn(2);
  check_input_gradient(bn, random_input({3, 2, 3, 3}, 40), 5e-2);
  check_param_gradients(bn, random_input({3, 2, 3, 3}, 41), 5e-2);
}

TEST(BatchNorm2d, EvalUsesRunningStats) {
  BatchNorm2d bn(1);
  util::Rng rng(42);
  // Train on shifted data so running stats move away from (0, 1).
  for (int i = 0; i < 50; ++i) {
    Tensor x = Tensor::randn({8, 1, 2, 2}, rng, 5.0f, 2.0f);
    bn.forward(x, true);
  }
  Tensor probe = Tensor::full({1, 1, 2, 2}, 5.0f);
  const Tensor y = bn.forward(probe, false);
  // Input at the running mean should normalize to ~0.
  EXPECT_NEAR(y[0], 0.0f, 0.3f);
}

// ---- channel-lane BatchNorm2d and branch-free MaxPool2d vs their old loops
//
// The reference classes below keep the loops the layers ran before the
// channel-lane kernels and the branch-free pool, verbatim, and the layers
// must reproduce them bit for bit. Both sides compile in this file's build,
// so whatever FMA contraction the build applies, it applies to both.

// Training-mode BatchNorm2d as one sequential double chain per channel.
struct ReferenceBatchNorm {
  explicit ReferenceBatchNorm(std::size_t channels) : channels_(channels) {}

  std::size_t channels_;
  double momentum_ = 0.1, eps_ = 1e-5;
  Tensor gamma_, gamma_grad_, beta_, beta_grad_, running_mean_, running_var_;
  Tensor xhat_cache_;
  std::vector<double> batch_mean_, batch_inv_std_;
  Shape in_shape_cache_;
  // Not in the layer: each channel's variance and backward sums, recorded
  // so the kernels' doubles can be checked below float resolution.
  std::vector<double> batch_var_, sum_dy_, sum_dy_xhat_;

  Tensor forward(const Tensor& x) {
    const std::size_t batch = x.dim(0), hw = x.dim(2) * x.dim(3);
    const std::size_t per_channel = batch * hw;
    Tensor out(x.shape());
    in_shape_cache_ = x.shape();
    batch_mean_.assign(channels_, 0.0);
    batch_inv_std_.assign(channels_, 0.0);
    batch_var_.assign(channels_, 0.0);
    xhat_cache_ = Tensor(x.shape());

    for (std::size_t c = 0; c < channels_; ++c) {
      double acc = 0.0;
      for (std::size_t n = 0; n < batch; ++n) {
        const float* plane = x.data() + (n * channels_ + c) * hw;
        for (std::size_t i = 0; i < hw; ++i) acc += plane[i];
      }
      const double mean_c = acc / static_cast<double>(per_channel);
      double vacc = 0.0;
      for (std::size_t n = 0; n < batch; ++n) {
        const float* plane = x.data() + (n * channels_ + c) * hw;
        for (std::size_t i = 0; i < hw; ++i) {
          const double d = plane[i] - mean_c;
          vacc += d * d;
        }
      }
      const double var_c = vacc / static_cast<double>(per_channel);
      running_mean_[c] = static_cast<float>((1.0 - momentum_) * running_mean_[c] +
                                            momentum_ * mean_c);
      running_var_[c] = static_cast<float>((1.0 - momentum_) * running_var_[c] +
                                           momentum_ * var_c);
      const double inv_std = 1.0 / std::sqrt(var_c + eps_);
      batch_var_[c] = var_c;
      batch_mean_[c] = mean_c;
      batch_inv_std_[c] = inv_std;
      const float g = gamma_[c], b = beta_[c];
      for (std::size_t n = 0; n < batch; ++n) {
        const float* in_plane = x.data() + (n * channels_ + c) * hw;
        float* xhat_plane = xhat_cache_.data() + (n * channels_ + c) * hw;
        float* out_plane = out.data() + (n * channels_ + c) * hw;
        for (std::size_t i = 0; i < hw; ++i) {
          const float xhat =
              static_cast<float>((in_plane[i] - mean_c) * inv_std);
          xhat_plane[i] = xhat;
          out_plane[i] = g * xhat + b;
        }
      }
    }
    return out;
  }

  Tensor backward(const Tensor& grad_out) {
    const std::size_t batch = in_shape_cache_[0];
    const std::size_t hw = in_shape_cache_[2] * in_shape_cache_[3];
    const double m = static_cast<double>(batch * hw);
    Tensor grad_in(in_shape_cache_);
    sum_dy_.assign(channels_, 0.0);
    sum_dy_xhat_.assign(channels_, 0.0);

    for (std::size_t c = 0; c < channels_; ++c) {
      // Standard batch-norm backward: accumulate the two reduction terms,
      // then distribute.
      double sum_dy = 0.0, sum_dy_xhat = 0.0;
      for (std::size_t n = 0; n < batch; ++n) {
        const float* dy = grad_out.data() + (n * channels_ + c) * hw;
        const float* xh = xhat_cache_.data() + (n * channels_ + c) * hw;
        for (std::size_t i = 0; i < hw; ++i) {
          sum_dy += dy[i];
          sum_dy_xhat += static_cast<double>(dy[i]) * xh[i];
        }
      }
      sum_dy_[c] = sum_dy;
      sum_dy_xhat_[c] = sum_dy_xhat;
      gamma_grad_[c] += static_cast<float>(sum_dy_xhat);
      beta_grad_[c] += static_cast<float>(sum_dy);
      const double g = gamma_[c];
      const double inv_std = batch_inv_std_[c];
      for (std::size_t n = 0; n < batch; ++n) {
        const float* dy = grad_out.data() + (n * channels_ + c) * hw;
        const float* xh = xhat_cache_.data() + (n * channels_ + c) * hw;
        float* dx = grad_in.data() + (n * channels_ + c) * hw;
        for (std::size_t i = 0; i < hw; ++i) {
          dx[i] = static_cast<float>(
              g * inv_std *
              (dy[i] - sum_dy / m - xh[i] * sum_dy_xhat / m));
        }
      }
    }
    return grad_in;
  }
};

// Training-mode MaxPool2d forward as it was: a branch per window cell.
struct ReferenceMaxPool {
  explicit ReferenceMaxPool(std::size_t window) : window_(window) {}

  std::size_t window_;
  std::vector<std::size_t> argmax_cache_;

  Tensor forward(const Tensor& x) {
    const std::size_t batch = x.dim(0), ch = x.dim(1), h = x.dim(2), w = x.dim(3);
    const std::size_t oh = h / window_, ow = w / window_;
    argmax_cache_.assign(batch * ch * oh * ow, 0);
    Tensor out({batch, ch, oh, ow});
    std::size_t oi = 0;
    for (std::size_t n = 0; n < batch; ++n) {
      for (std::size_t c = 0; c < ch; ++c) {
        const float* plane = x.data() + (n * ch + c) * h * w;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox, ++oi) {
            float best = plane[oy * window_ * w + ox * window_];
            std::size_t best_idx = oy * window_ * w + ox * window_;
            for (std::size_t dy = 0; dy < window_; ++dy) {
              for (std::size_t dx = 0; dx < window_; ++dx) {
                const std::size_t idx =
                    (oy * window_ + dy) * w + ox * window_ + dx;
                if (plane[idx] > best) {
                  best = plane[idx];
                  best_idx = idx;
                }
              }
            }
            out[oi] = best;
            argmax_cache_[oi] = (n * ch + c) * h * w + best_idx;
          }
        }
      }
    }
    return out;
  }
};

// Bit-equal, except that where the reference holds a NaN the layer must
// hold a NaN (which of two NaNs survives an add is the compiler's operand
// order, in either chain).
void expect_same_bits(const Tensor& expected, const Tensor& actual,
                      const std::string& what) {
  ASSERT_EQ(expected.shape(), actual.shape()) << what;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < expected.numel(); ++i) {
    const bool same =
        std::isnan(expected[i])
            ? std::isnan(actual[i])
            : std::bit_cast<std::uint32_t>(expected[i]) ==
                  std::bit_cast<std::uint32_t>(actual[i]);
    if (!same && ++mismatches <= 3)
      ADD_FAILURE() << what << "[" << i << "]: expected " << expected[i]
                    << ", got " << actual[i];
  }
  EXPECT_EQ(mismatches, 0u) << what;
}

void expect_same_bits(const std::vector<double>& expected,
                      const std::vector<double>& actual,
                      const std::string& what) {
  ASSERT_EQ(expected.size(), actual.size()) << what;
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_TRUE(std::isnan(expected[i])
                    ? std::isnan(actual[i])
                    : std::bit_cast<std::uint64_t>(expected[i]) ==
                          std::bit_cast<std::uint64_t>(actual[i]))
        << what << "[" << i << "]: expected " << expected[i] << ", got "
        << actual[i];
}

// Normal values, with every `stride`-th entry replaced by one of +-0, a
// denormal, +-inf or NaN when `specials` is set.
Tensor lane_test_input(Shape shape, std::uint64_t seed, bool specials,
                       float scale = 1.0f, float shift = 0.0f) {
  util::Rng rng(seed);
  Tensor t = Tensor::randn(std::move(shape), rng, shift, scale);
  if (specials) {
    const float kSpecial[] = {0.0f,
                              -0.0f,
                              std::numeric_limits<float>::denorm_min() * 7,
                              -std::numeric_limits<float>::denorm_min() * 3,
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN()};
    const std::size_t stride = 1 + rng.uniform_index(41);
    for (std::size_t i = rng.uniform_index(7), k = 0; i < t.numel();
         i += stride, ++k)
      t[i] = kSpecial[k % std::size(kSpecial)];
  }
  return t;
}

// Runs the layer and the reference side by side: two training forwards
// (the second reuses the layer's xhat cache), then two backwards into
// pre-filled gradient accumulators.
void check_batchnorm_against_reference(std::size_t batch, std::size_t channels,
                                       std::size_t h, std::size_t w,
                                       bool specials, std::uint64_t seed) {
  SCOPED_TRACE("batch " + std::to_string(batch) + " channels " +
               std::to_string(channels) + " hw " + std::to_string(h * w) +
               (specials ? " with specials" : ""));
  BatchNorm2d bn(channels);
  ReferenceBatchNorm ref(channels);
  util::Rng rng(seed);
  auto slots = bn.state();  // gamma, beta, running_mean, running_var
  for (auto& slot : slots) {
    for (std::size_t i = 0; i < slot.value->numel(); ++i)
      (*slot.value)[i] = static_cast<float>(slot.name == "running_var"
                                                ? rng.uniform(0.5, 2.0)
                                                : rng.normal());
    if (slot.grad)
      for (std::size_t i = 0; i < slot.grad->numel(); ++i)
        (*slot.grad)[i] = static_cast<float>(rng.normal());
  }
  ref.gamma_ = *slots[0].value;
  ref.gamma_grad_ = *slots[0].grad;
  ref.beta_ = *slots[1].value;
  ref.beta_grad_ = *slots[1].grad;
  ref.running_mean_ = *slots[2].value;
  ref.running_var_ = *slots[3].value;

  const Shape shape{batch, channels, h, w};
  for (int pass = 0; pass < 2; ++pass) {
    const std::string tag = "pass " + std::to_string(pass) + " ";
    // A shifted, scaled input makes the variance chain's rounding matter.
    const Tensor x =
        lane_test_input(shape, seed * 7 + pass, specials, 3.0f, 1.5f);
    expect_same_bits(ref.forward(x), bn.forward(x, true), tag + "out");
    // The chains' doubles, below what the float outputs can show.
    std::vector<double> mean(channels), var(channels);
    tensor::batchnorm_train_stats(batch, channels, h * w, x.data(),
                                  mean.data(), var.data());
    expect_same_bits(ref.batch_mean_, mean, tag + "mean");
    expect_same_bits(ref.batch_var_, var, tag + "var");
    expect_same_bits(ref.running_mean_, *slots[2].value, tag + "running_mean");
    expect_same_bits(ref.running_var_, *slots[3].value, tag + "running_var");
    const Tensor dy = lane_test_input(shape, seed * 7 + pass + 100, specials);
    expect_same_bits(ref.backward(dy), bn.backward(dy), tag + "dx");
    std::vector<double> sum_dy(channels), sum_dy_xhat(channels);
    tensor::batchnorm_train_grad_sums(batch, channels, h * w, dy.data(),
                                      ref.xhat_cache_.data(), sum_dy.data(),
                                      sum_dy_xhat.data());
    expect_same_bits(ref.sum_dy_, sum_dy, tag + "sum_dy");
    expect_same_bits(ref.sum_dy_xhat_, sum_dy_xhat, tag + "sum_dy_xhat");
    expect_same_bits(ref.gamma_grad_, *slots[0].grad, tag + "gamma_grad");
    expect_same_bits(ref.beta_grad_, *slots[1].grad, tag + "beta_grad");
  }
}

TEST(BatchNorm2dLanes, MatchesPerChannelChainBitForBit) {
  const std::size_t kChannels[] = {1, 3, 4, 5, 8, 16, 17};
  const std::size_t kPlanes[][2] = {{1, 1}, {4, 4}, {3, 5}, {8, 8}, {16, 16}};
  const std::size_t kBatches[] = {1, 2, 32};
  std::uint64_t seed = 1;
  for (const std::size_t channels : kChannels)
    for (const auto& plane : kPlanes)
      for (const std::size_t batch : kBatches)
        check_batchnorm_against_reference(batch, channels, plane[0], plane[1],
                                          false, seed++);
}

TEST(BatchNorm2dLanes, MatchesPerChannelChainWithSpecialValues) {
  const std::size_t kChannels[] = {1, 3, 4, 5, 8, 16, 17};
  const std::size_t kPlanes[][2] = {{1, 1}, {4, 4}, {8, 8}, {16, 16}};
  const std::size_t kBatches[] = {1, 2, 32};
  std::uint64_t seed = 1000;
  for (const std::size_t channels : kChannels)
    for (const auto& plane : kPlanes)
      for (const std::size_t batch : kBatches)
        check_batchnorm_against_reference(batch, channels, plane[0], plane[1],
                                          true, seed++);
}

TEST(BatchNorm2dLanes, MatchesWhenOnlySomeLanesAreSpecial) {
  // One channel carries a NaN, another an inf, a third denormals only:
  // the specials must stay in their own lanes.
  BatchNorm2d bn(5);
  ReferenceBatchNorm ref(5);
  ref.gamma_ = Tensor::full({5}, 1.0f);
  ref.gamma_grad_ = Tensor::zeros({5});
  ref.beta_ = Tensor::zeros({5});
  ref.beta_grad_ = Tensor::zeros({5});
  ref.running_mean_ = Tensor::zeros({5});
  ref.running_var_ = Tensor::full({5}, 1.0f);
  Tensor x = lane_test_input({2, 5, 4, 4}, 77, false);
  x[0 * 16 + 3] = std::numeric_limits<float>::quiet_NaN();
  x[(5 + 1) * 16 + 9] = std::numeric_limits<float>::infinity();
  for (std::size_t i = 0; i < 16; ++i)
    x[2 * 16 + i] = std::numeric_limits<float>::denorm_min() * (i + 1);
  const Tensor y = bn.forward(x, true);
  expect_same_bits(ref.forward(x), y, "out");
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(std::isnan(y[0 * 16 + i]));   // channel 0: NaN mean
    EXPECT_FALSE(std::isnan(y[3 * 16 + i]));  // channel 3 untouched
  }
  const Tensor dy = lane_test_input({2, 5, 4, 4}, 78, false);
  expect_same_bits(ref.backward(dy), bn.backward(dy), "dx");
}

TEST(MaxPool2dBranchFree, MatchesBranchingLoopOnTiesAndNaNs) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // Each row is one 2x2 window in scan order.
  const std::vector<std::array<float, 4>> windows = {
      {1, 5, 3, 2},        {5, 5, 5, 5},       {2, 7, 7, 1},
      {0.0f, -0.0f, -1, -2}, {-0.0f, 0.0f, -1, -2}, {nan, 9, 1, 2},
      {1, nan, 9, 2},      {nan, nan, nan, nan}, {-inf, -inf, nan, -inf},
      {inf, nan, inf, 3},  {3, 1, nan, 4},     {-1, -1, -3, -1}};
  Tensor x({1, windows.size(), 2, 2});
  for (std::size_t c = 0; c < windows.size(); ++c)
    for (std::size_t k = 0; k < 4; ++k) x[c * 4 + k] = windows[c][k];
  MaxPool2d pool(2);
  ReferenceMaxPool ref(2);
  expect_same_bits(ref.forward(x), pool.forward(x, true), "out");
  Tensor g = Tensor::full({1, windows.size(), 1, 1}, 1.0f);
  const Tensor gx = pool.backward(g);
  for (std::size_t c = 0; c < windows.size(); ++c)
    EXPECT_EQ(gx[ref.argmax_cache_[c]], 1.0f) << "window " << c;
}

TEST(MaxPool2dBranchFree, MatchesBranchingLoopOnRandomData) {
  // 12x12 at window 2 runs 4-wide lanes plus single windows, 16x20 8-wide
  // lanes plus single windows; window 3 runs single windows only.
  const std::size_t kCases[][3] = {{2, 12, 12}, {2, 16, 20}, {3, 12, 12}};
  for (const auto& [window, h, w] : kCases) {
    for (const bool specials : {false, true}) {
      // Quantized values make ties common.
      Tensor x = lane_test_input({3, 4, h, w}, 90 + window + h, specials);
      for (std::size_t i = 0; i < x.numel(); ++i)
        if (std::isfinite(x[i])) x[i] = std::round(x[i] * 2.0f) / 2.0f;
      MaxPool2d pool(window);
      ReferenceMaxPool ref(window);
      expect_same_bits(ref.forward(x), pool.forward(x, true), "out");
      Tensor g(pool.forward(x, true).shape());
      for (std::size_t i = 0; i < g.numel(); ++i) g[i] = static_cast<float>(i + 1);
      const Tensor gx = pool.backward(g);
      for (std::size_t i = 0; i < g.numel(); ++i)
        EXPECT_EQ(gx[ref.argmax_cache_[i]], g[i]) << "output " << i;
    }
  }
}

TEST(PhaseBlock, ActiveNodePruningAndRepair) {
  util::Rng rng(8);
  PhaseSpec all_zero;
  all_zero.nodes = 4;
  all_zero.bits.assign(6, false);
  PhaseBlock block(all_zero, 4, rng);
  EXPECT_EQ(block.active_nodes(), 1u);  // repaired to one default node

  PhaseSpec chain;
  chain.nodes = 3;
  chain.bits = {true, false, true};  // 0->1, 1->2
  PhaseBlock chain_block(chain, 4, rng);
  EXPECT_EQ(chain_block.active_nodes(), 3u);
}

TEST(PhaseBlock, PreservesShapeAndCountsFlops) {
  util::Rng rng(9);
  PhaseSpec spec;
  spec.nodes = 3;
  spec.bits = {true, true, true};
  spec.skip = true;
  PhaseBlock block(spec, 4, rng);
  EXPECT_EQ(block.output_shape({4, 8, 8}), (Shape{4, 8, 8}));
  EXPECT_GT(block.flops({4, 8, 8}), 0u);
  Tensor x = random_input({2, 4, 8, 8}, 43);
  const Tensor y = block.forward(x, true);
  EXPECT_EQ(y.shape(), x.shape());
}

TEST(PhaseBlock, GradientsMatchFiniteDifferences) {
  util::Rng rng(10);
  PhaseSpec spec;
  spec.nodes = 3;
  spec.bits = {true, true, false};  // 0->1, 0->2; two loose ends
  spec.skip = true;
  PhaseBlock block(spec, 2, rng);
  check_input_gradient(block, random_input({2, 2, 4, 4}, 44), 6e-2);
}

TEST(PhaseBlock, SpecValidation) {
  util::Rng rng(11);
  PhaseSpec bad;
  bad.nodes = 3;
  bad.bits = {true};  // wrong count
  EXPECT_THROW(PhaseBlock(bad, 4, rng), std::invalid_argument);
}

TEST(SoftmaxCrossEntropy, LossAndGradient) {
  Tensor logits({2, 3}, {2.0f, 1.0f, 0.1f, 0.0f, 0.0f, 0.0f});
  std::vector<std::int64_t> labels{0, 2};
  const LossResult res = softmax_cross_entropy(logits, labels);
  EXPECT_GT(res.loss, 0.0);
  EXPECT_EQ(res.correct, 1u);  // row 1 is a three-way tie -> argmax 0 != 2
  // Gradient rows sum to zero (softmax minus one-hot).
  for (std::size_t n = 0; n < 2; ++n) {
    double row_sum = 0.0;
    for (std::size_t c = 0; c < 3; ++c) row_sum += res.grad[n * 3 + c];
    EXPECT_NEAR(row_sum, 0.0, 1e-6);
  }
  // Uniform logits: loss = ln(3), grad for true class = (1/3 - 1)/batch.
  EXPECT_NEAR(res.grad[5], (1.0 / 3.0 - 1.0) / 2.0, 1e-6);
}

TEST(SoftmaxCrossEntropy, NumericalGradient) {
  util::Rng rng(12);
  Tensor logits = Tensor::randn({3, 4}, rng);
  std::vector<std::int64_t> labels{1, 3, 0};
  const LossResult res = softmax_cross_entropy(logits, labels);
  const float eps = 1e-3f;
  for (std::size_t i = 0; i < logits.numel(); ++i) {
    Tensor lp = logits, lm = logits;
    lp[i] += eps;
    lm[i] -= eps;
    const double fp = softmax_cross_entropy(lp, labels).loss;
    const double fm = softmax_cross_entropy(lm, labels).loss;
    EXPECT_NEAR(res.grad[i], (fp - fm) / (2.0 * eps), 1e-3);
  }
}

TEST(SoftmaxCrossEntropy, Validation) {
  Tensor logits({2, 3});
  std::vector<std::int64_t> wrong_count{0};
  EXPECT_THROW(softmax_cross_entropy(logits, wrong_count),
               std::invalid_argument);
  std::vector<std::int64_t> out_of_range{0, 5};
  EXPECT_THROW(softmax_cross_entropy(logits, out_of_range),
               std::invalid_argument);
}

TEST(Softmax, RowsSumToOne) {
  util::Rng rng(13);
  Tensor logits = Tensor::randn({4, 5}, rng, 0.0f, 3.0f);
  const Tensor p = softmax(logits);
  for (std::size_t n = 0; n < 4; ++n) {
    double row = 0.0;
    for (std::size_t c = 0; c < 5; ++c) {
      EXPECT_GE(p[n * 5 + c], 0.0f);
      row += p[n * 5 + c];
    }
    EXPECT_NEAR(row, 1.0, 1e-5);
  }
}

TEST(Serialization, LayerSpecWeightsRoundTrip) {
  util::Rng rng(14);
  Sequential seq;
  seq.append(std::make_unique<Conv2d>(1, 4, 3, 1, 1, rng));
  seq.append(std::make_unique<BatchNorm2d>(4));
  seq.append(std::make_unique<ReLU>());
  PhaseSpec spec;
  spec.nodes = 3;
  spec.bits = {true, false, true};
  spec.skip = true;
  seq.append(std::make_unique<PhaseBlock>(spec, 4, rng));
  seq.append(std::make_unique<MaxPool2d>(2));
  seq.append(std::make_unique<GlobalAvgPool>());
  seq.append(std::make_unique<Linear>(4, 2, rng));

  Tensor x = random_input({2, 1, 8, 8}, 45);
  // Capture BN running stats by running one training pass first.
  seq.forward(x, true);
  const Tensor y = seq.forward(x, false);

  util::Rng rebuild_rng(999);
  auto rebuilt = make_sequential(seq.spec(), rebuild_rng);
  rebuilt->load_weights(seq.weights());
  const Tensor y2 = rebuilt->forward(x, false);
  ASSERT_EQ(y.shape(), y2.shape());
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_FLOAT_EQ(y[i], y2[i]);
}

TEST(Serialization, UnknownKindRejected) {
  util::Rng rng(15);
  util::Json bad = util::Json::object();
  bad["kind"] = "warp_drive";
  EXPECT_THROW(make_layer(bad, rng), std::invalid_argument);
}

TEST(Serialization, LoadWeightsShapeMismatchRejected) {
  util::Rng rng(16);
  Conv2d a(1, 2, 3, 1, 1, rng);
  Conv2d b(1, 3, 3, 1, 1, rng);
  EXPECT_THROW(a.load_weights(b.weights()), std::invalid_argument);
}

TEST(Sequential, FlopsAccumulateAcrossLayers) {
  util::Rng rng(17);
  Sequential seq;
  seq.append(std::make_unique<Conv2d>(1, 2, 3, 1, 1, rng));
  seq.append(std::make_unique<ReLU>());
  const std::uint64_t conv_flops = seq.layer(0).flops({1, 8, 8});
  const std::uint64_t relu_flops = seq.layer(1).flops({2, 8, 8});
  EXPECT_EQ(seq.flops({1, 8, 8}), conv_flops + relu_flops);
}

}  // namespace
}  // namespace a4nn::nn
