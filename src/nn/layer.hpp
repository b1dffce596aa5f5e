// Layer abstraction for the from-scratch NN library.
//
// Every layer owns its parameters and gradient buffers, implements
// forward/backward, reports FLOPs per image (the second NAS objective),
// and exposes its hyperparameter spec (JSON) and its weight state (a fixed
// list of tensors) so the lineage tracker can snapshot a model after every
// training epoch and reload it from any point — the paper's "re-evaluate
// from any point in the training phase" requirement.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace a4nn::nn {

using tensor::Shape;
using tensor::Tensor;

/// A mutable view of one parameter tensor and its gradient, handed to the
/// optimizer. Views stay valid for the lifetime of the owning layer. In
/// state() views, buffers that are not trained have no gradient.
struct ParamSlot {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass on a batch (N x ...). `training` toggles dropout /
  /// batch-norm statistics and backward caching: with training=true layers
  /// cache what backward needs; with training=false the pass is pure — no
  /// member state is written (temporaries live on the thread's
  /// ScratchArena), so concurrent inference on a shared model is safe and
  /// per-sample results are batch-size invariant. backward() is only valid
  /// after a forward(training=true) on the same thread.
  virtual Tensor forward(const Tensor& x, bool training) = 0;

  /// Backward pass: gradient w.r.t. this layer's output in, gradient
  /// w.r.t. its input out. Parameter gradients accumulate into the slots.
  virtual Tensor backward(const Tensor& grad_out) = 0;

  /// Backward pass for a caller that discards the input gradient (a
  /// model's first layer): parameter gradients accumulate exactly as
  /// backward() leaves them, but the layer may skip computing d(input).
  virtual void backward_params(const Tensor& grad_out) { backward(grad_out); }

  /// Parameter/gradient views for the optimizer. Default: no parameters.
  virtual std::vector<ParamSlot> params() { return {}; }

  /// Output shape for a given input shape (both without the batch dim).
  virtual Shape output_shape(const Shape& in) const = 0;

  /// Forward FLOPs for one image of the given shape (no batch dim).
  /// Multiply-accumulate counted as 2 FLOPs, matching common convention.
  virtual std::uint64_t flops(const Shape& in) const = 0;

  /// Stable type tag used by the factory ("conv2d", "relu", ...).
  virtual std::string kind() const = 0;

  /// Hyperparameter spec (architecture description, no weights).
  virtual util::Json spec() const = 0;

  /// Every tensor of the weight snapshot, in a fixed order: the
  /// parameters plus untrained buffers such as batch-norm running
  /// statistics. The packed checkpoint stores exactly these, in this
  /// order. Default: params().
  virtual std::vector<ParamSlot> state() { return params(); }

  /// Weight snapshot as JSON: one {"shape", "data"} node per state()
  /// tensor, keyed by slot name.
  virtual util::Json weights() const;

  /// Restore weights from a snapshot produced by weights(). Every tensor
  /// is parsed and shape-checked before any is replaced.
  virtual void load_weights(const util::Json& w);

  /// Zero all parameter gradients.
  void zero_grad() {
    for (auto& p : params()) p.grad->zero();
  }
};

using LayerPtr = std::unique_ptr<Layer>;

/// Serialization helpers shared by layer implementations.
util::Json tensor_to_json(const Tensor& t);
Tensor tensor_from_json(const util::Json& j);

/// Replace `layer`'s state() tensors, in order, by `tensors`. Throws
/// std::invalid_argument, before replacing any, when the count or a shape
/// differs.
void load_state(Layer& layer, std::vector<Tensor> tensors);

}  // namespace a4nn::nn
