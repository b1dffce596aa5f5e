// Host peaks and per-layer timing for the traced run: the two numbers that
// turn latency::RooflineEstimate into a %-of-roofline column, and each
// trunk layer's forward/backward time at the training batch.
#pragma once

#include <cstdint>

#include "common.hpp"

namespace perfbench {

struct HostPeaks {
  double gemm_gflops = 0.0;  ///< best tensor::gemm rate over square shapes
  double copy_gbps = 0.0;    ///< memcpy bandwidth, bytes read + written
  double copy_array_mb = 0.0;
  double llc_mb = 0.0;
};

/// Measures both peaks once and records them (tensor.gemm_peak_gflops,
/// tensor.copy_gbps, and the array and cache sizes in the context).
HostPeaks measure_host_peaks(Report& report);

/// Times each trunk layer of the representative genome's decoded model at
/// batch `batch` (training-mode forward, then backward) and records
/// nn.<kind>.{fwd_ms,bwd_ms,gflops,bytes,roofline_pct}, summed per
/// Layer::kind().
void add_layer_metrics(const HostPeaks& peaks, std::size_t batch,
                       Report& report);

}  // namespace perfbench
