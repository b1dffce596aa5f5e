// Training-kernel microbenchmark: GFLOP/s for the blocked/packed GEMM
// variants (and the naive baseline they replaced), the autotuned GEMM, the
// direct vs im2col convolution paths, and the batch-lane training
// convolution (forward, and backward's dW + dX), and the channel-lane
// training batch norm (forward and backward), on cubic and conv-shaped
// problems. Emits BENCH_kernels.json so CI can archive throughput per
// commit, and — with --floor — enforces the shared floor gate
// (floor_gate.hpp): a kernel below half its floor, a kernel missing from
// the floor file, or a floor entry matching no kernel fails the run.
//
//   ./bench_kernels                          # print table + write JSON
//   ./bench_kernels --floor ../bench/kernels_floor.json
//   ./bench_kernels --tune-config tune.json  # use a journaled tune
//
// Without --tune-config the bench runs the in-process autotuner over its
// own shapes first, so the gemm_tuned rows always measure a real tuned
// config and the measured kernel set is identical either way.
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "floor_gate.hpp"
#include "tensor/autotune.hpp"
#include "tensor/ops.hpp"
#include "util/args.hpp"
#include "util/frame.hpp"
#include "util/fsutil.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace a4nn;

namespace {

struct Case {
  std::string kernel;
  std::size_t m, k, n;
  // Runs the kernel once; buffers are captured by the closure.
  std::function<void()> run;
  // m x k x n GEMMs per run (a batch, or a batch's two backward GEMMs).
  std::size_t gemms = 1;
};

struct Result {
  std::string key;     // "kernel mxkxn"
  double gflops = 0.0;
  double ns_per_iter = 0.0;
};

std::vector<float> random_buffer(std::size_t count, util::Rng& rng) {
  std::vector<float> buf(count);
  for (auto& v : buf) v = static_cast<float>(rng.normal());
  return buf;
}

// Time one case: warm up, then run batches until enough wall time has
// accumulated for a stable rate.
Result measure(const Case& c) {
  c.run();  // warm-up (touch pages, prime caches)
  const double target_seconds = 0.15;
  std::size_t iters = 0;
  util::Timer timer;
  do {
    c.run();
    ++iters;
  } while (timer.seconds() < target_seconds);
  const double elapsed = timer.seconds();
  const double flop =
      2.0 * static_cast<double>(c.m) * c.k * c.n * c.gemms * iters;
  Result r;
  r.key = c.kernel + " " + std::to_string(c.m) + "x" + std::to_string(c.k) +
          "x" + std::to_string(c.n);
  r.gflops = flop / elapsed / 1e9;
  r.ns_per_iter = elapsed / static_cast<double>(iters) * 1e9;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_kernels",
                       "GEMM kernel throughput benchmark (BENCH_kernels.json)");
  args.add_option("out", "BENCH_kernels.json", "output JSON path");
  args.add_option("floor", "",
                  "kernels_floor.json with minimum GFLOP/s per kernel; exit "
                  "nonzero if any kernel measures below half its floor, is "
                  "missing from the file, or the file names a kernel that "
                  "was not measured");
  args.add_option("tune-config", "",
                  "tune.json from a4nn_tune for the gemm_tuned rows (empty: "
                  "self-tune in process over the bench shapes)");
  try {
    args.parse(argc, argv);
  } catch (const util::ArgError& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), args.usage().c_str());
    return 1;
  }
  if (args.help_requested()) {
    std::printf("%s", args.usage().c_str());
    return 0;
  }

  util::Rng rng(42);
  // Cubic sizes bracket the cache hierarchy; the rectangular shapes are the
  // actual GEMMs behind an 8x8-detector conv layer (m=channels,
  // k=in_ch*3*3, n=out_pixels) and a classifier head.
  const std::vector<std::array<std::size_t, 3>> shapes = {
      {64, 64, 64},    {128, 128, 128}, {256, 256, 256},
      {16, 36, 64},    {32, 144, 64},   {64, 10, 256},
  };

  // Blocking configs for the gemm_tuned rows: a journaled tune.json, or a
  // quick in-process tune over the same shapes. Applied per case via
  // gemm_with_config so the untuned baseline rows stay untuned.
  std::map<std::pair<std::size_t, std::size_t>, tensor::TileConfig> tuned;
  {
    std::vector<tensor::TunedTileEntry> entries;
    if (!args.get("tune-config").empty()) {
      entries = tensor::tune_entries_from_json(util::Json::parse(
          util::unframe_or_legacy(util::read_file(args.get("tune-config")))
              .payload));
      std::printf("tuned rows use %s\n", args.get("tune-config").c_str());
    } else {
      std::vector<tensor::TuneShape> tune_shapes;
      for (const auto& [m, k, n] : shapes)
        tune_shapes.push_back({"bench_gemm", m, k, n, false});
      tensor::TuneOptions opts;
      opts.seed = 42;
      opts.repeats = 2;
      entries = tensor::run_tune(tune_shapes, opts).entries;
      std::printf("tuned rows use an in-process self-tune\n");
    }
    for (const auto& e : entries) tuned[{e.k, e.n}] = e.config;
  }
  auto tuned_config = [&tuned](std::size_t k, std::size_t n) {
    const auto it = tuned.find({k, n});
    return it == tuned.end() ? tensor::TileConfig{} : it->second;
  };

  std::vector<Case> cases;
  // Keep every buffer alive for the duration of the run.
  auto buffers = std::make_shared<std::vector<std::vector<float>>>();
  auto keep = [&buffers](std::vector<float> v) {
    buffers->push_back(std::move(v));
    return buffers->back().data();
  };

  for (const auto& [m, k, n] : shapes) {
    float* a = keep(random_buffer(m * k, rng));
    float* b = keep(random_buffer(k * n, rng));
    float* bias = keep(random_buffer(m, rng));
    float* c = keep(std::vector<float>(m * n));
    cases.push_back({"gemm_naive", m, k, n,
                     [=] { tensor::gemm_naive(m, k, n, a, b, c); }});
    cases.push_back(
        {"gemm", m, k, n, [=] { tensor::gemm(m, k, n, a, b, c); }});
    const tensor::TileConfig tc = tuned_config(k, n);
    cases.push_back({"gemm_tuned", m, k, n, [=] {
                       tensor::gemm_with_config(m, k, n, a, b, c, tc);
                     }});
    // a interpreted as (k x m) / b as (n x k): same buffers, valid layouts.
    float* at = keep(random_buffer(k * m, rng));
    float* bt = keep(random_buffer(n * k, rng));
    cases.push_back({"gemm_at_b", m, k, n,
                     [=] { tensor::gemm_at_b(m, k, n, at, b, c); }});
    cases.push_back({"gemm_a_bt", m, k, n,
                     [=] { tensor::gemm_a_bt(m, k, n, a, bt, c); }});
    const tensor::Epilogue ep{tensor::Epilogue::Bias::kPerRow, bias, true};
    cases.push_back({"gemm_bias_relu", m, k, n,
                     [=] { tensor::gemm_ex(m, k, n, a, b, c, ep); }});
  }

  // Convolution forward, materialized vs direct, on the 3x3 stride-1
  // geometries the search space emits (stem and phase-node shapes at a
  // 16x16 detector, and a post-downsample phase shape).
  const std::vector<std::array<std::size_t, 3>> conv_geoms = {
      {1, 16, 4},   // stem: 1 -> 4 channels at 16x16
      {4, 16, 4},   // phase node at 16x16
      {8, 8, 8},    // phase node after one downsample
  };
  for (const auto& [in_ch, hw, out_ch] : conv_geoms) {
    tensor::ConvGeometry g{in_ch, hw, hw, 3, 1, 1};
    const std::size_t m = out_ch;
    const std::size_t k = g.patch_size();
    const std::size_t n = g.out_h() * g.out_w();
    float* w = keep(random_buffer(m * k, rng));
    float* image = keep(random_buffer(in_ch * hw * hw, rng));
    float* cols = keep(std::vector<float>(k * n));
    float* bias = keep(random_buffer(m, rng));
    float* out = keep(std::vector<float>(m * n));
    const tensor::Epilogue ep{tensor::Epilogue::Bias::kPerRow, bias, true};
    const std::size_t image_n = in_ch * hw * hw;
    cases.push_back({"conv_im2col", m, k, n, [=] {
                       tensor::im2col(g, {image, image_n}, {cols, k * n});
                       tensor::gemm_ex(m, k, n, w, cols, out, ep);
                     }});
    cases.push_back({"conv_direct", m, k, n, [=] {
                       tensor::conv2d_forward_direct(g, m, w, {image, image_n},
                                                     out, ep);
                     }});
  }

  // Training convolution over a batch of 32: forward, and backward (dW and
  // dX, so two GEMMs' worth of FLOPs per image) with a fused ReLU, on the
  // search space's phase-node shapes at 16/8/4 px and the 1x1 channel
  // expansion after the first downsample.
  constexpr std::size_t kTrainBatch = 32;
  const std::vector<std::array<std::size_t, 4>> train_geoms = {
      {4, 16, 4, 3},  // in_ch, hw, out_ch, kernel
      {8, 8, 8, 3},
      {16, 4, 16, 3},
      {4, 8, 8, 1},
  };
  for (const auto& [in_ch, hw, out_ch, kernel] : train_geoms) {
    const std::size_t pad = kernel / 2;
    tensor::ConvGeometry g{in_ch, hw, hw, kernel, 1, pad};
    const std::size_t m = out_ch;
    const std::size_t k = g.patch_size();
    const std::size_t n = g.out_h() * g.out_w();
    float* w = keep(random_buffer(m * k, rng));
    float* bias = keep(random_buffer(m, rng));
    float* x = keep(random_buffer(kTrainBatch * in_ch * hw * hw, rng));
    float* out = keep(std::vector<float>(kTrainBatch * m * n));
    float* gout = keep(random_buffer(kTrainBatch * m * n, rng));
    float* grad_in = keep(std::vector<float>(kTrainBatch * in_ch * hw * hw));
    float* wgrad = keep(std::vector<float>(m * k));
    float* bgrad = keep(std::vector<float>(m));
    const std::size_t cache_n = tensor::conv2d_train_cache_size(g, kTrainBatch);
    float* cache = keep(std::vector<float>(cache_n));
    const tensor::Epilogue ep{tensor::Epilogue::Bias::kPerRow, bias, true};
    cases.push_back({"conv_train_fwd", m, k, n,
                     [=] {
                       tensor::conv2d_train_forward(g, kTrainBatch, m, w, x,
                                                    out, ep, {cache, cache_n});
                     },
                     kTrainBatch});
    cases.push_back({"conv_train_bwd", m, k, n,
                     [=] {
                       tensor::conv2d_train_backward(
                           g, kTrainBatch, m, w, {cache, cache_n}, gout, out,
                           wgrad, bgrad, grad_in);
                     },
                     2 * kTrainBatch});
  }

  // Training batch norm over a batch of 32 at the phase shapes: forward
  // (statistics, then normalize) and backward (gradient sums, then the
  // input gradient). Rows read m x k x n as channels x pixels x batch and
  // count 8 FLOPs per element each way, so `gemms` is 4.
  const std::vector<std::array<std::size_t, 2>> bn_shapes = {
      {4, 16}, {8, 8}, {16, 4}};  // channels, hw
  for (const auto& [ch, hw] : bn_shapes) {
    const std::size_t pixels = hw * hw;
    const std::size_t count = kTrainBatch * ch * pixels;
    float* x = keep(random_buffer(count, rng));
    float* gout = keep(random_buffer(count, rng));
    float* gamma = keep(random_buffer(ch, rng));
    float* beta = keep(random_buffer(ch, rng));
    float* xhat = keep(std::vector<float>(count));
    float* out = keep(std::vector<float>(count));
    float* dx = keep(std::vector<float>(count));
    // mean, inv_std (the variance until inverted), sum_dy, sum_dy_xhat;
    // the closures share ownership so the buffer outlives this loop.
    auto stats = std::make_shared<std::vector<double>>(4 * ch);
    cases.push_back({"bn_train_fwd", ch, pixels, kTrainBatch,
                     [=] {
                       double* mean = stats->data();
                       double* inv_std = mean + ch;
                       tensor::batchnorm_train_stats(kTrainBatch, ch, pixels,
                                                     x, mean, inv_std);
                       for (std::size_t c = 0; c < ch; ++c)
                         inv_std[c] = 1.0 / std::sqrt(inv_std[c] + 1e-5);
                       tensor::batchnorm_train_normalize(
                           kTrainBatch, ch, pixels, x, mean, inv_std, gamma,
                           beta, xhat, out);
                     },
                     4});
    cases.push_back({"bn_train_bwd", ch, pixels, kTrainBatch,
                     [=] {
                       const double* inv_std = stats->data() + ch;
                       double* sum_dy = stats->data() + 2 * ch;
                       double* sum_dy_xhat = sum_dy + ch;
                       tensor::batchnorm_train_grad_sums(kTrainBatch, ch,
                                                         pixels, gout, xhat,
                                                         sum_dy, sum_dy_xhat);
                       tensor::batchnorm_train_grad_input(
                           kTrainBatch, ch, pixels, gout, xhat, gamma,
                           inv_std, sum_dy, sum_dy_xhat, dx);
                     },
                     4});
  }

  util::AsciiTable table({"kernel", "m", "k", "n", "GFLOP/s", "ns/iter"});
  util::Json json = util::Json::object();
  util::Json entries = util::Json::array();
  std::vector<Result> results;
  for (const auto& c : cases) {
    const Result r = measure(c);
    results.push_back(r);
    table.add_row({c.kernel, std::to_string(c.m), std::to_string(c.k),
                   std::to_string(c.n), util::AsciiTable::num(r.gflops, 2),
                   util::AsciiTable::num(r.ns_per_iter, 0)});
    util::Json e = util::Json::object();
    e["kernel"] = c.kernel;
    e["m"] = c.m;
    e["k"] = c.k;
    e["n"] = c.n;
    e["gflops"] = r.gflops;
    e["ns_per_iter"] = r.ns_per_iter;
    entries.push_back(std::move(e));
  }
  std::printf("%s", table.render().c_str());

  // Headline numbers: blocked vs naive at the largest cubic size, and
  // direct and batch-lane training conv vs im2col on the largest conv
  // shape.
  double naive256 = 0.0, blocked256 = 0.0;
  double im2col_best = 0.0, direct_best = 0.0, train_fwd = 0.0;
  for (const auto& r : results) {
    if (r.key == "gemm_naive 256x256x256") naive256 = r.gflops;
    if (r.key == "gemm 256x256x256") blocked256 = r.gflops;
    if (r.key == "conv_im2col 4x36x256") im2col_best = r.gflops;
    if (r.key == "conv_direct 4x36x256") direct_best = r.gflops;
    if (r.key == "conv_train_fwd 4x36x256") train_fwd = r.gflops;
  }
  const double speedup = naive256 > 0.0 ? blocked256 / naive256 : 0.0;
  std::printf("gemm vs gemm_naive at 256^3: %.2fx\n", speedup);
  const double conv_speedup =
      im2col_best > 0.0 ? direct_best / im2col_best : 0.0;
  std::printf("conv_direct vs conv_im2col at 4x36x256: %.2fx\n", conv_speedup);
  // conv_im2col is the per-image chain whose bits conv_train_fwd
  // reproduces for a whole batch.
  const double train_speedup =
      im2col_best > 0.0 ? train_fwd / im2col_best : 0.0;
  std::printf("conv_train_fwd vs conv_im2col at 4x36x256: %.2fx\n",
              train_speedup);
  json["speedup_256"] = speedup;
  json["conv_direct_speedup"] = conv_speedup;
  json["conv_train_fwd_speedup"] = train_speedup;
  json["kernels"] = std::move(entries);
  util::write_file(args.get("out"), json.dump(2));
  std::printf("wrote %s\n", args.get("out").c_str());

  if (!args.get("floor").empty()) {
    std::vector<bench::GatedMetric> metrics;
    for (const auto& r : results) metrics.push_back({r.key, r.gflops});
    if (bench::floor_violations(args.get("floor"), metrics) > 0) return 2;
  }
  return 0;
}
