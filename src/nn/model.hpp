// A trainable classifier: a Sequential trunk plus training/evaluation
// driver methods, FLOPs/parameter accounting, and whole-model checkpoints
// (spec + weights) that the lineage tracker stores per epoch.
#pragma once

#include <memory>
#include <string_view>

#include "nn/dataset.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"

namespace a4nn::nn {

struct EpochMetrics {
  double loss = 0.0;       // mean loss
  double accuracy = 0.0;   // percentage, [0, 100]
};

class Model {
 public:
  /// Takes ownership of the trunk; `input_shape` is one image (C,H,W).
  Model(std::unique_ptr<Sequential> trunk, Shape input_shape);

  /// One pass over the training set with mini-batch SGD.
  EpochMetrics train_epoch(const Dataset& data, std::size_t batch_size,
                           Optimizer& opt, util::Rng& rng);

  /// Full-dataset evaluation (no parameter updates, eval-mode layers).
  EpochMetrics evaluate(const Dataset& data, std::size_t batch_size = 64);

  /// Forward a batch (inference mode).
  Tensor predict(const Tensor& images);

  std::uint64_t flops_per_image() const;
  std::size_t parameter_count();

  const Shape& input_shape() const { return input_shape_; }
  Sequential& trunk() { return *trunk_; }
  const Sequential& trunk() const { return *trunk_; }

  /// Full checkpoint as JSON: {"input_shape", "spec", "weights"}.
  util::Json checkpoint() const;
  /// Rebuild a model (architecture + weights) from a JSON checkpoint.
  static Model from_checkpoint(const util::Json& ckpt);

  /// Packed checkpoint (nn/packed.hpp), the form the commons stores:
  /// header {"input_shape", "spec"} and one float32 section per trunk
  /// state() tensor. Bit-exact, with no per-element JSON node.
  std::string encode_checkpoint() const;
  /// Rebuild a model from a stored checkpoint payload in either format:
  /// packed, or the JSON document of checkpoint(). The one decoder behind
  /// every reader of commons snapshots. Throws PackedError or JsonError
  /// on a malformed payload and std::invalid_argument when the tensors do
  /// not fit the spec.
  static Model decode_checkpoint(std::string_view payload);

 private:
  std::unique_ptr<Sequential> trunk_;
  Shape input_shape_;
};

}  // namespace a4nn::nn
