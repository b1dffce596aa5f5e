// First-order optimizers operating on ParamSlot views.
#pragma once

#include <span>
#include <unordered_map>

#include "nn/layer.hpp"

namespace a4nn::nn {

class Optimizer {
 public:
  virtual ~Optimizer() = default;
  /// Apply one update step to every slot, then the caller zeroes grads.
  virtual void step(std::vector<ParamSlot>& slots) = 0;
  virtual std::string kind() const = 0;
};

/// SGD with classical momentum and decoupled L2 weight decay.
class Sgd : public Optimizer {
 public:
  Sgd(double lr, double momentum = 0.9, double weight_decay = 0.0);

  void step(std::vector<ParamSlot>& slots) override;
  std::string kind() const override { return "sgd"; }

  double learning_rate() const { return lr_; }
  void set_learning_rate(double lr) { lr_ = lr; }

  /// Momentum buffer of each slot, in slot order; empty for a slot never
  /// stepped. Part of the training-state checkpoint that makes mid-run
  /// resume bit-exact. The views live until the next step().
  std::vector<std::span<const float>> velocities(
      const std::vector<ParamSlot>& slots) const;
  /// Restore buffers captured by velocities() from the same architecture.
  void load_velocities(const std::vector<ParamSlot>& slots,
                       const std::vector<Tensor>& velocities);

 private:
  double lr_, momentum_, weight_decay_;
  // Velocity buffers keyed by parameter tensor address; layers own their
  // tensors for the whole training run so addresses are stable.
  std::unordered_map<const Tensor*, std::vector<float>> velocity_;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam : public Optimizer {
 public:
  Adam(double lr, double beta1 = 0.9, double beta2 = 0.999,
       double eps = 1e-8, double weight_decay = 0.0);

  void step(std::vector<ParamSlot>& slots) override;
  std::string kind() const override { return "adam"; }

 private:
  struct State {
    std::vector<float> m, v;
  };
  double lr_, beta1_, beta2_, eps_, weight_decay_;
  std::uint64_t t_ = 0;
  std::unordered_map<const Tensor*, State> state_;
};

}  // namespace a4nn::nn
