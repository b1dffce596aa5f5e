// Ordered container of layers with pass-through forward/backward.
#pragma once

#include "nn/layer.hpp"

namespace a4nn::nn {

class Sequential : public Layer {
 public:
  Sequential() = default;

  void append(LayerPtr layer);

  /// Graph optimization: merge each Conv2d/Linear + following ReLU pair
  /// into the GEMM layer's fused epilogue and drop the standalone ReLU.
  /// Values and gradients are bit-identical to the unfused network. Call
  /// before training/serialization; the fused spec round-trips through the
  /// layer factory. Returns the number of pairs fused.
  std::size_t fuse_epilogues();

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  /// Every layer's backward but the first's input gradient.
  void backward_params(const Tensor& grad_out) override;
  std::vector<ParamSlot> params() override;
  std::vector<ParamSlot> state() override;
  Shape output_shape(const Shape& in) const override;
  std::uint64_t flops(const Shape& in) const override;
  std::string kind() const override { return "sequential"; }
  util::Json spec() const override;
  util::Json weights() const override;
  void load_weights(const util::Json& w) override;

 private:
  /// `slots` (params or state) of every layer, named "layer<i>.<slot>".
  std::vector<ParamSlot> layer_slots(std::vector<ParamSlot> (Layer::*slots)());

  std::vector<LayerPtr> layers_;
};

}  // namespace a4nn::nn
