// Additional layer kinds for the extended (operation-searchable) search
// space: depthwise-separable convolution, average pooling, and an identity
// op. With these, a phase node can choose its operation instead of always
// applying Conv3x3 — the NSGA-Net micro-space idea grafted onto the macro
// encoding (this repo's "extended search space", see nas/search_space.hpp).
#pragma once

#include "nn/layers.hpp"

namespace a4nn::nn {

/// Depthwise-separable convolution: per-channel KxK depthwise convolution
/// followed by a 1x1 pointwise projection. ~K^2/(K^2+C_out) of a dense
/// convolution's FLOPs — the cheap-but-expressive op of mobile CNNs.
class SeparableConv2d : public Layer {
 public:
  SeparableConv2d(std::size_t in_channels, std::size_t out_channels,
                  std::size_t kernel, std::size_t pad, util::Rng& rng);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamSlot> params() override;
  Shape output_shape(const Shape& in) const override;
  std::uint64_t flops(const Shape& in) const override;
  std::string kind() const override { return "sepconv2d"; }
  util::Json spec() const override;

 private:
  std::size_t in_channels_, out_channels_, kernel_, pad_;
  // Depthwise: one KxK filter per input channel.
  Tensor dw_weight_, dw_weight_grad_;   // (in_channels x K x K)
  // Pointwise 1x1: (out x in).
  Tensor pw_weight_, pw_weight_grad_;
  Tensor bias_, bias_grad_;
  // Caches.
  Tensor input_cache_;
  Tensor depthwise_out_cache_;
  Shape in_shape_cache_;
};

/// Average pooling with square non-overlapping windows.
class AvgPool2d : public Layer {
 public:
  explicit AvgPool2d(std::size_t window);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  Shape output_shape(const Shape& in) const override;
  std::uint64_t flops(const Shape& in) const override;
  std::string kind() const override { return "avgpool2d"; }
  util::Json spec() const override;

 private:
  std::size_t window_;
  Shape in_shape_cache_;
};

/// Identity op (a "skip" node operation in the extended space).
class Identity : public Layer {
 public:
  Tensor forward(const Tensor& x, bool) override { return x; }
  Tensor backward(const Tensor& grad_out) override { return grad_out; }
  Shape output_shape(const Shape& in) const override { return in; }
  std::uint64_t flops(const Shape&) const override { return 0; }
  std::string kind() const override { return "identity"; }
  util::Json spec() const override {
    util::Json j = util::Json::object();
    j["kind"] = kind();
    return j;
  }
};

}  // namespace a4nn::nn
