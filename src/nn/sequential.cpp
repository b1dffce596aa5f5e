#include "nn/sequential.hpp"

#include <stdexcept>

#include "nn/layers.hpp"

namespace a4nn::nn {

void Sequential::append(LayerPtr layer) {
  if (!layer) throw std::invalid_argument("Sequential::append: null layer");
  layers_.push_back(std::move(layer));
}

std::size_t Sequential::fuse_epilogues() {
  std::size_t fused = 0;
  std::vector<LayerPtr> kept;
  kept.reserve(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    Layer* cur = layers_[i].get();
    const bool next_is_relu =
        i + 1 < layers_.size() &&
        dynamic_cast<ReLU*>(layers_[i + 1].get()) != nullptr;
    if (next_is_relu) {
      auto* conv = dynamic_cast<Conv2d*>(cur);
      auto* lin = conv ? nullptr : dynamic_cast<Linear*>(cur);
      if ((conv && conv->activation() == Activation::kNone) ||
          (lin && lin->activation() == Activation::kNone)) {
        if (conv) conv->set_activation(Activation::kRelu);
        if (lin) lin->set_activation(Activation::kRelu);
        kept.push_back(std::move(layers_[i]));
        ++i;  // drop the ReLU
        ++fused;
        continue;
      }
    }
    kept.push_back(std::move(layers_[i]));
  }
  layers_ = std::move(kept);
  return fused;
}

Tensor Sequential::forward(const Tensor& x, bool training) {
  Tensor h = x;
  for (auto& layer : layers_) h = layer->forward(h, training);
  return h;
}

Tensor Sequential::backward(const Tensor& grad_out) {
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(g);
  return g;
}

void Sequential::backward_params(const Tensor& grad_out) {
  if (layers_.empty()) return;
  Tensor g = grad_out;
  for (auto it = layers_.rbegin(); it + 1 != layers_.rend(); ++it)
    g = (*it)->backward(g);
  layers_.front()->backward_params(g);
}

std::vector<ParamSlot> Sequential::params() {
  return layer_slots(&Layer::params);
}

std::vector<ParamSlot> Sequential::state() {
  return layer_slots(&Layer::state);
}

std::vector<ParamSlot> Sequential::layer_slots(
    std::vector<ParamSlot> (Layer::*slots)()) {
  std::vector<ParamSlot> out;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    for (auto& p : (layers_[i].get()->*slots)()) {
      p.name = "layer" + std::to_string(i) + "." + p.name;
      out.push_back(p);
    }
  }
  return out;
}

Shape Sequential::output_shape(const Shape& in) const {
  Shape s = in;
  for (const auto& layer : layers_) s = layer->output_shape(s);
  return s;
}

std::uint64_t Sequential::flops(const Shape& in) const {
  std::uint64_t total = 0;
  Shape s = in;
  for (const auto& layer : layers_) {
    total += layer->flops(s);
    s = layer->output_shape(s);
  }
  return total;
}

util::Json Sequential::spec() const {
  util::Json j = util::Json::object();
  j["kind"] = kind();
  util::JsonArray layers;
  for (const auto& layer : layers_) layers.push_back(layer->spec());
  j["layers"] = util::Json(std::move(layers));
  return j;
}

util::Json Sequential::weights() const {
  util::Json j = util::Json::object();
  util::JsonArray layers;
  for (const auto& layer : layers_) layers.push_back(layer->weights());
  j["layers"] = util::Json(std::move(layers));
  return j;
}

void Sequential::load_weights(const util::Json& w) {
  const auto& arr = w.at("layers").as_array();
  if (arr.size() != layers_.size())
    throw std::invalid_argument("Sequential::load_weights: layer count mismatch");
  for (std::size_t i = 0; i < layers_.size(); ++i)
    layers_[i]->load_weights(arr[i]);
}

}  // namespace a4nn::nn
