#include "host.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "latency/probe.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace perfbench {

namespace a = a4nn;

namespace {

/// Best seconds of `fn` over at least `min_reps` calls and `min_s` seconds.
template <typename Fn>
double best_seconds(Fn&& fn, int min_reps, double min_s) {
  double best = 1e30;
  const double start = now_s();
  for (int rep = 0; rep < min_reps || now_s() - start < min_s; ++rep) {
    const double t0 = now_s();
    fn();
    best = std::min(best, now_s() - t0);
  }
  return best;
}

}  // namespace

HostPeaks measure_host_peaks(Report& report) {
  HostPeaks peaks;
  {
    a::util::trace::Scope span("tensor.gemm_peak", "bench");
    a::util::Rng rng(7);
    for (const std::size_t n : {256, 384, 512}) {
      std::vector<float> x(n * n), y(n * n), z(n * n);
      for (float& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      for (float& v : y) v = static_cast<float>(rng.uniform(-1.0, 1.0));
      const double s = best_seconds(
          [&] { a::tensor::gemm(n, n, n, x.data(), y.data(), z.data()); }, 3,
          0.15);
      peaks.gemm_gflops =
          std::max(peaks.gemm_gflops, 2.0 * n * n * n / s / 1e9);
    }
  }
  {
    a::util::trace::Scope span("tensor.copy_bandwidth", "bench");
    // Arrays of at least 4x the last-level cache, so the copy streams
    // from memory rather than from cache.
    long llc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
    if (llc <= 0) llc = 32L << 20;
    const std::size_t bytes =
        std::max<std::size_t>(4 * static_cast<std::size_t>(llc), 64u << 20);
    std::unique_ptr<char[]> src(new char[bytes]);
    std::unique_ptr<char[]> dst(new char[bytes]);
    std::memset(src.get(), 1, bytes);
    std::memset(dst.get(), 0, bytes);
    const double s =
        best_seconds([&] { std::memcpy(dst.get(), src.get(), bytes); }, 3, 0.0);
    peaks.copy_gbps = 2.0 * static_cast<double>(bytes) / s / 1e9;
    peaks.copy_array_mb = static_cast<double>(bytes) / (1 << 20);
    peaks.llc_mb = static_cast<double>(llc) / (1 << 20);
  }
  report.add("tensor.gemm_peak_gflops", peaks.gemm_gflops, "GFLOP/s");
  report.add("tensor.copy_gbps", peaks.copy_gbps, "GB/s");
  Json sizes = Json::object();
  sizes["gemm_shapes"] = "square 256, 384, 512; best rate";
  sizes["copy_array_mb"] = peaks.copy_array_mb;
  sizes["llc_mb"] = peaks.llc_mb;
  sizes["copy_counts"] = "bytes read + bytes written";
  report.context["host_peaks"] = sizes;
  return peaks;
}

void add_layer_metrics(const HostPeaks& peaks, std::size_t batch,
                       Report& report) {
  a::util::trace::Scope span("nn.layer_timing", "bench");
  a::util::Rng init(11);
  a::nn::Model model =
      a::nas::decode_genome(representative_genome(), space_config(), init);
  a::nn::Sequential& trunk = model.trunk();
  const a::latency::RooflineEstimate roof =
      a::latency::roofline_estimate(model);

  a::tensor::Shape shape = {batch};
  for (const std::size_t d : model.input_shape()) shape.push_back(d);
  a::tensor::Tensor input(shape);
  a::util::Rng rng(13);
  for (std::size_t i = 0; i < input.numel(); ++i)
    input.data()[i] = static_cast<float>(rng.uniform());

  const std::size_t layers = trunk.layer_count();
  std::vector<std::vector<double>> fwd(layers), bwd(layers);
  constexpr int kReps = 15;
  for (int rep = 0; rep < kReps; ++rep) {
    a::tensor::Tensor x = input;
    for (std::size_t i = 0; i < layers; ++i) {
      const double t0 = now_s();
      x = trunk.layer(i).forward(x, /*training=*/true);
      fwd[i].push_back((now_s() - t0) * 1e3);
    }
    a::tensor::Tensor grad(x.shape());
    std::fill(grad.data(), grad.data() + grad.numel(), 1.0f / batch);
    for (std::size_t i = layers; i-- > 0;) {
      const double t0 = now_s();
      grad = trunk.layer(i).backward(grad);
      bwd[i].push_back((now_s() - t0) * 1e3);
    }
  }

  struct Kind {
    double fwd_ms = 0.0, bwd_ms = 0.0, flops = 0.0, bytes = 0.0;
    double bound_ms = 0.0;  // roofline lower bound of the forward
  };
  std::map<std::string, Kind> kinds;
  const double b = static_cast<double>(batch);
  for (std::size_t i = 0; i < layers; ++i) {
    Kind& k = kinds[trunk.layer(i).kind()];
    const double flops = b * static_cast<double>(roof.layers[i].flops);
    const double bytes = b * static_cast<double>(roof.layers[i].bytes_moved);
    k.fwd_ms += median(fwd[i]);
    k.bwd_ms += median(bwd[i]);
    k.flops += flops;
    k.bytes += bytes;
    k.bound_ms += 1e3 * std::max(flops / (peaks.gemm_gflops * 1e9),
                                 bytes / (peaks.copy_gbps * 1e9));
  }
  for (const auto& [kind, k] : kinds) {
    const std::string p = "nn." + kind + ".";
    report.add(p + "fwd_ms", k.fwd_ms, "ms");
    report.add(p + "bwd_ms", k.bwd_ms, "ms");
    report.add(p + "gflops", k.fwd_ms > 0 ? k.flops / k.fwd_ms / 1e6 : 0.0,
               "GFLOP/s");
    report.add(p + "bytes", k.bytes, "bytes_computed");
    report.add(p + "roofline_pct",
               k.fwd_ms > 0 ? 100.0 * k.bound_ms / k.fwd_ms : 0.0, "%");
  }
  report.context["layer_timing"] =
      "training-mode forward then backward of each trunk layer, batch " +
      std::to_string(batch) + ", median of " + std::to_string(kReps) +
      " reps, summed per Layer::kind(); bytes from "
      "latency::roofline_estimate (computed, not measured)";
}

}  // namespace perfbench
