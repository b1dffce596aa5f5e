#include "latency/probe.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "util/rng.hpp"

namespace a4nn::latency {

const std::string& host_fingerprint() {
  static const std::string fingerprint = [] {
    char name[256] = {0};
    if (::gethostname(name, sizeof(name) - 1) != 0) name[0] = '\0';
    std::string host = name[0] ? name : "unknown-host";
    return host + "/" + std::to_string(std::thread::hardware_concurrency()) +
           "t";
  }();
  return fingerprint;
}

LatencyProbe::LatencyProbe(ProbeConfig config) : config_(config) {
  if (config_.batch == 0)
    throw std::invalid_argument("LatencyProbe: batch must be positive");
  if (config_.repeats == 0)
    throw std::invalid_argument("LatencyProbe: repeats must be positive");
}

namespace {

double measure_ms(const std::function<void()>& pass) {
  const auto t0 = std::chrono::steady_clock::now();
  pass();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

ProbeResult LatencyProbe::probe(nn::Model& model) const {
  // Seeded synthetic batch at the serving geometry.
  const tensor::Shape& input_shape = model.input_shape();
  tensor::Shape shape;
  shape.reserve(1 + input_shape.size());
  shape.push_back(config_.batch);
  shape.insert(shape.end(), input_shape.begin(), input_shape.end());
  tensor::Tensor batch(std::move(shape));
  util::Rng rng(config_.seed);
  for (std::size_t i = 0; i < batch.numel(); ++i)
    batch.data()[i] = static_cast<float>(rng.uniform());

  const std::function<void()> pass = [&] { model.predict(batch); };
  for (std::size_t i = 0; i < config_.warmup; ++i) pass();

  ProbeResult result;
  result.samples_ms.reserve(config_.repeats);
  const double per_image = 1.0 / static_cast<double>(config_.batch);
  for (std::size_t i = 0; i < config_.repeats; ++i) {
    const double pass_ms = hook_ ? hook_(pass) : measure_ms(pass);
    result.samples_ms.push_back(pass_ms * per_image);
  }

  std::vector<double> sorted = result.samples_ms;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t k = sorted.size();
  result.median_ms = (k % 2 == 1)
                         ? sorted[k / 2]
                         : 0.5 * (sorted[k / 2 - 1] + sorted[k / 2]);
  const std::size_t p99 = static_cast<std::size_t>(
      std::ceil(0.99 * static_cast<double>(k)));
  result.p99_ms = sorted[p99 == 0 ? 0 : p99 - 1];
  return result;
}

double RooflineEstimate::arithmetic_intensity() const {
  if (bytes_moved == 0) return 0.0;
  return static_cast<double>(flops) / static_cast<double>(bytes_moved);
}

double RooflineEstimate::min_latency_ms(double flops_per_second,
                                        double bytes_per_second) const {
  if (flops_per_second <= 0.0 || bytes_per_second <= 0.0)
    throw std::invalid_argument("RooflineEstimate: peaks must be positive");
  const double compute_s = static_cast<double>(flops) / flops_per_second;
  const double memory_s = static_cast<double>(bytes_moved) / bytes_per_second;
  return 1e3 * std::max(compute_s, memory_s);
}

RooflineEstimate roofline_estimate(nn::Sequential& trunk,
                                   const tensor::Shape& input_shape) {
  RooflineEstimate est;
  est.layers.reserve(trunk.layer_count());
  tensor::Shape shape = input_shape;
  for (std::size_t i = 0; i < trunk.layer_count(); ++i) {
    nn::Layer& layer = trunk.layer(i);
    const tensor::Shape out = layer.output_shape(shape);
    LayerRoofline lr;
    lr.kind = layer.kind();
    lr.flops = layer.flops(shape);
    // Activation traffic (input read + output write) plus one streaming
    // pass over the parameters — the canonical inference roofline, pricing
    // the float32 path.
    std::uint64_t param_elems = 0;
    for (const auto& slot : layer.params())
      param_elems += tensor::shape_numel(slot.value->shape());
    lr.bytes_moved = static_cast<std::uint64_t>(sizeof(float)) *
                     (tensor::shape_numel(shape) + tensor::shape_numel(out) +
                      param_elems);
    est.flops += lr.flops;
    est.bytes_moved += lr.bytes_moved;
    est.layers.push_back(std::move(lr));
    shape = out;
  }
  return est;
}

RooflineEstimate roofline_estimate(nn::Model& model) {
  return roofline_estimate(model.trunk(), model.input_shape());
}

}  // namespace a4nn::latency
