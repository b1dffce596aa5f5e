// Measured-latency and roofline estimation for hardware-aware NAS.
//
// The search historically ranked candidates on analytic FLOPs — a proxy
// the autotuner work proved can diverge from wall-clock by integer factors
// depending on shape class. This module closes the gap the way
// elasticAI.explorer and NAS-Bench-201 do: measure inference latency per
// candidate at the *serving* micro-batch geometry (through the exact tuned
// GEMM paths the serving engine uses), and compute a bytes-moved /
// arithmetic-intensity roofline estimate from the same flops(Shape) walk
// that already prices the FLOPs objective.
//
// Determinism contract: the probe procedure is deterministic by
// construction — seeded inputs, fixed warm-up count, fixed repetition
// count, median-of-k aggregation — so two probes of the same model on an
// idle machine agree to measurement noise, and the roofline numbers are
// exact functions of the architecture (byte-stable across runs and hosts).
// The measured milliseconds themselves are machine-local: records carry a
// host fingerprint so replay on another machine knows to re-probe.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "nn/model.hpp"

namespace a4nn::latency {

/// Probe settings. The defaults mirror the serving engine's default
/// micro-batch width so the measured number prices what serving will pay.
struct ProbeConfig {
  /// Batch rows per timed forward pass (the serving micro-batch geometry).
  std::size_t batch = 8;
  /// Discarded warm-up passes (cache/allocator warm-up; also where the
  /// scratch arenas reach steady state).
  std::size_t warmup = 2;
  /// Timed passes; the reported latency is their median, the p99 the
  /// ceil(0.99*k)-th order statistic.
  std::size_t repeats = 9;
  /// Seed for the synthetic probe inputs (timing is input-value
  /// independent for this network family, but the inputs are still pinned
  /// so the procedure is reproducible end to end).
  std::uint64_t seed = 2023;
};

/// One probe outcome, all times in milliseconds per image.
struct ProbeResult {
  double median_ms = 0.0;  ///< median per-image latency across repeats
  double p99_ms = 0.0;     ///< p99 per-image latency across repeats
  std::vector<double> samples_ms;  ///< per-repeat per-image latencies
};

/// Stable fingerprint of the measuring host (hostname + hardware thread
/// count). Latency numbers are only comparable within one fingerprint.
const std::string& host_fingerprint();

class LatencyProbe {
 public:
  explicit LatencyProbe(ProbeConfig config);

  const ProbeConfig& config() const { return config_; }

  /// Timing hook for deterministic tests: given the forward callable for
  /// one batch, return the measured milliseconds for one pass. When unset,
  /// the probe times the real call with a steady clock.
  using MeasureHook = std::function<double(const std::function<void()>&)>;
  void set_measure_hook(MeasureHook hook) { hook_ = std::move(hook); }

  /// Probe a float model (inference mode, whole-batch forward — the same
  /// call the serving engine issues per micro-batch).
  ProbeResult probe(nn::Model& model) const;

 private:
  ProbeConfig config_;
  MeasureHook hook_;
};

/// Roofline estimate for one layer of the forward pass.
struct LayerRoofline {
  std::string kind;
  std::uint64_t flops = 0;
  std::uint64_t bytes_moved = 0;
};

/// Whole-model roofline estimate at a given input shape (one image).
struct RooflineEstimate {
  std::uint64_t flops = 0;        ///< forward FLOPs per image
  std::uint64_t bytes_moved = 0;  ///< bytes read+written per image forward
  std::vector<LayerRoofline> layers;

  /// flops / bytes_moved (0 when no bytes move).
  double arithmetic_intensity() const;
  /// Lower latency bound (ms) on a machine with the given peak compute and
  /// memory bandwidth: max(compute time, memory time) — the roofline.
  double min_latency_ms(double flops_per_second,
                        double bytes_per_second) const;
};

/// Walk the trunk layer by layer with the existing flops(Shape) /
/// output_shape(Shape) accounting, charging each layer its activation
/// traffic (input read + output write) plus one streaming read of its
/// parameters. float32 everywhere, like the serving path. Non-const only
/// because Layer::params() is non-const; nothing is written.
RooflineEstimate roofline_estimate(nn::Sequential& trunk,
                                   const tensor::Shape& input_shape);

/// Convenience: roofline of a whole model at its own input shape.
RooflineEstimate roofline_estimate(nn::Model& model);

}  // namespace a4nn::latency
