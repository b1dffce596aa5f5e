#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

namespace a4nn::nn {

Sgd::Sgd(double lr, double momentum, double weight_decay)
    : lr_(lr), momentum_(momentum), weight_decay_(weight_decay) {
  if (lr <= 0.0) throw std::invalid_argument("Sgd: lr must be > 0");
  if (momentum < 0.0 || momentum >= 1.0)
    throw std::invalid_argument("Sgd: momentum must be in [0, 1)");
}

void Sgd::step(std::vector<ParamSlot>& slots) {
  for (auto& slot : slots) {
    Tensor& w = *slot.value;
    const Tensor& g = *slot.grad;
    auto& vel = velocity_[slot.value];
    if (vel.size() != w.numel()) vel.assign(w.numel(), 0.0f);
    for (std::size_t i = 0; i < w.numel(); ++i) {
      const float grad =
          g[i] + static_cast<float>(weight_decay_) * w[i];
      vel[i] = static_cast<float>(momentum_) * vel[i] + grad;
      w[i] -= static_cast<float>(lr_) * vel[i];
    }
  }
}

std::vector<std::span<const float>> Sgd::velocities(
    const std::vector<ParamSlot>& slots) const {
  std::vector<std::span<const float>> out;
  out.reserve(slots.size());
  for (const auto& slot : slots) {
    const auto it = velocity_.find(slot.value);
    out.push_back(it == velocity_.end() ? std::span<const float>{}
                                        : std::span<const float>(it->second));
  }
  return out;
}

void Sgd::load_velocities(const std::vector<ParamSlot>& slots,
                          const std::vector<Tensor>& velocities) {
  if (velocities.size() != slots.size())
    throw std::invalid_argument("Sgd::load_velocities: slot count mismatch");
  for (std::size_t s = 0; s < slots.size(); ++s)
    if (velocities[s].numel() != 0 &&
        velocities[s].numel() != slots[s].value->numel())
      throw std::invalid_argument(
          "Sgd::load_velocities: velocity size mismatch");
  for (std::size_t s = 0; s < slots.size(); ++s) {
    // A slot never stepped before the checkpoint has no buffer.
    if (velocities[s].numel() == 0) continue;
    const auto v = velocities[s].span();
    velocity_[slots[s].value].assign(v.begin(), v.end());
  }
}

Adam::Adam(double lr, double beta1, double beta2, double eps,
           double weight_decay)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps),
      weight_decay_(weight_decay) {
  if (lr <= 0.0) throw std::invalid_argument("Adam: lr must be > 0");
}

void Adam::step(std::vector<ParamSlot>& slots) {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (auto& slot : slots) {
    Tensor& w = *slot.value;
    const Tensor& g = *slot.grad;
    auto& st = state_[slot.value];
    if (st.m.size() != w.numel()) {
      st.m.assign(w.numel(), 0.0f);
      st.v.assign(w.numel(), 0.0f);
    }
    for (std::size_t i = 0; i < w.numel(); ++i) {
      const double grad = g[i] + weight_decay_ * w[i];
      st.m[i] = static_cast<float>(beta1_ * st.m[i] + (1.0 - beta1_) * grad);
      st.v[i] =
          static_cast<float>(beta2_ * st.v[i] + (1.0 - beta2_) * grad * grad);
      const double mhat = st.m[i] / bc1;
      const double vhat = st.v[i] / bc2;
      w[i] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + eps_));
    }
  }
}

}  // namespace a4nn::nn
