// Concrete layers: Conv2d (batch-lane kernels for training, direct or
// im2col + GEMM for inference), Linear, ReLU, MaxPool2d,
// GlobalAvgPool, Flatten, Dropout, and BatchNorm2d.
#pragma once

#include "nn/layer.hpp"
#include "tensor/ops.hpp"

namespace a4nn::nn {

/// Activation a GEMM-backed layer can fuse into its epilogue, so the
/// nonlinearity is applied during the GEMM writeback instead of by a
/// separate ReLU layer making another pass over the tensor. Produces
/// bit-identical values to the unfused Conv/Linear + ReLU pair.
enum class Activation { kNone, kRelu };

const char* activation_name(Activation a);
Activation activation_from_name(const std::string& name);

/// 2-d convolution with square kernels. Weight layout: (out_channels x
/// in_channels*k*k); bias per out channel. The bias add is fused into the
/// output epilogue; an optional ReLU can be fused too (see
/// Sequential::fuse_epilogues). Inference runs conv2d_forward_direct per
/// image. Training runs the batch-lane kernels (conv2d_train_forward /
/// conv2d_train_backward), which compute forward, dW and dX straight from a
/// lane-interleaved copy of the input and are bit-identical to the
/// per-image im2col + GEMM + col2im chain. Both are parallel over a
/// thread-count-independent partition of the batch.
class Conv2d : public Layer {
 public:
  Conv2d(std::size_t in_channels, std::size_t out_channels, std::size_t kernel,
         std::size_t stride, std::size_t pad, util::Rng& rng);

  Activation activation() const { return act_; }
  void set_activation(Activation a) { act_ = a; }

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  void backward_params(const Tensor& grad_out) override;
  std::vector<ParamSlot> params() override;
  Shape output_shape(const Shape& in) const override;
  std::uint64_t flops(const Shape& in) const override;
  std::string kind() const override { return "conv2d"; }
  util::Json spec() const override;

  std::size_t in_channels() const { return in_channels_; }
  std::size_t out_channels() const { return out_channels_; }

 private:
  tensor::ConvGeometry geometry(const Shape& in) const;
  // Backward; grad_in null skips the input gradient.
  void backward_into(const Tensor& grad_out, float* grad_in);

  std::size_t in_channels_, out_channels_, kernel_, stride_, pad_;
  Activation act_ = Activation::kNone;
  Tensor weight_, weight_grad_;
  Tensor bias_, bias_grad_;
  // Cached for backward.
  std::vector<float> input_cache_;  // the batch in lane-cache layout
  Tensor output_cache_;  // only when a ReLU is fused (its gradient mask)
  Shape in_shape_cache_;
};

/// Fully connected layer on flattened input (N x features). Bias (and an
/// optionally fused ReLU) are applied in the GEMM epilogue.
class Linear : public Layer {
 public:
  Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng);

  Activation activation() const { return act_; }
  void set_activation(Activation a) { act_ = a; }

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamSlot> params() override;
  Shape output_shape(const Shape& in) const override;
  std::uint64_t flops(const Shape& in) const override;
  std::string kind() const override { return "linear"; }
  util::Json spec() const override;

 private:
  std::size_t in_features_, out_features_;
  Activation act_ = Activation::kNone;
  Tensor weight_, weight_grad_;  // (out x in)
  Tensor bias_, bias_grad_;
  Tensor input_cache_;
  Tensor output_cache_;  // only when a ReLU is fused
};

class ReLU : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override { return in; }
  std::uint64_t flops(const Shape& in) const override;
  std::string kind() const override { return "relu"; }
  util::Json spec() const override;

 private:
  Tensor input_cache_;
};

/// Max pooling with square window; window == stride (non-overlapping).
/// Each window is scanned row-major and its first maximum wins (a NaN never
/// replaces a number); 2x2 windows run 4 or 8 at a time with vector selects.
class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(std::size_t window);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override;
  std::uint64_t flops(const Shape& in) const override;
  std::string kind() const override { return "maxpool2d"; }
  util::Json spec() const override;

 private:
  std::size_t window_;
  Shape in_shape_cache_;
  std::vector<std::size_t> argmax_cache_;  // flat input index per output cell
};

/// Collapse each channel plane to its mean: (N,C,H,W) -> (N,C).
class GlobalAvgPool : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override;
  std::uint64_t flops(const Shape& in) const override;
  std::string kind() const override { return "gap"; }
  util::Json spec() const override;

 private:
  Shape in_shape_cache_;
};

/// (N, C, H, W) -> (N, C*H*W).
class Flatten : public Layer {
 public:
  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override;
  std::uint64_t flops(const Shape&) const override { return 0; }
  std::string kind() const override { return "flatten"; }
  util::Json spec() const override;

 private:
  Shape in_shape_cache_;
};

/// Inverted dropout; identity at evaluation time.
class Dropout : public Layer {
 public:
  Dropout(double rate, std::uint64_t seed);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override { return in; }
  std::uint64_t flops(const Shape& in) const override;
  std::string kind() const override { return "dropout"; }
  util::Json spec() const override;

 private:
  double rate_;
  util::Rng rng_;
  Tensor mask_cache_;
};

/// Per-channel batch normalization over (N, H, W) with learnable affine
/// parameters and running statistics for evaluation. Training runs the
/// channel-lane kernels (tensor::batchnorm_train_*), bit-identical to one
/// sequential double chain per channel; evaluation normalizes per sample
/// against the running statistics.
class BatchNorm2d : public Layer {
 public:
  explicit BatchNorm2d(std::size_t channels, double momentum = 0.1,
                       double eps = 1e-5);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamSlot> params() override;
  /// params() plus the running mean and variance.
  std::vector<ParamSlot> state() override;
  Shape output_shape(const Shape& in) const override { return in; }
  std::uint64_t flops(const Shape& in) const override;
  std::string kind() const override { return "batchnorm2d"; }
  util::Json spec() const override;

 private:
  std::size_t channels_;
  double momentum_, eps_;
  Tensor gamma_, gamma_grad_;
  Tensor beta_, beta_grad_;
  Tensor running_mean_, running_var_;
  // Backward caches.
  Tensor xhat_cache_;
  std::vector<double> batch_mean_, batch_inv_std_;
  Shape in_shape_cache_;
};

}  // namespace a4nn::nn
