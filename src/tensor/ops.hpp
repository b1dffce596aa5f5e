// Kernels shared by the NN layers: SAXPY-style elementwise ops, GEMM, and
// im2col/col2im transforms that turn convolutions into matrix multiplies.
//
// The GEMM family is cache-blocked with packed panels: B (and A, when it
// is accessed transposed) is repacked into contiguous MR/NR strips so the
// inner microkernel streams unit-stride and auto-vectorizes. All variants
// share one driver, so loop order — and therefore float summation order —
// is a pure function of the problem shape: results are bit-reproducible
// run to run and independent of how callers parallelize around the kernel.
//
// Epilogues fuse the per-row/per-column bias add and an optional ReLU into
// the GEMM writeback, so convolution and dense layers do not make a second
// (or third) pass over their output tensors.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tensor/tensor.hpp"

namespace a4nn::tensor {

/// out += alpha * x (sizes must match).
void axpy(float alpha, std::span<const float> x, std::span<float> out);

/// out = a + b elementwise.
Tensor add(const Tensor& a, const Tensor& b);

/// out = a * b elementwise (Hadamard).
Tensor mul(const Tensor& a, const Tensor& b);

/// Scale in place.
void scale(Tensor& t, float alpha);

/// Sum of all entries.
double sum(const Tensor& t);

/// Index of the maximum entry in [begin, begin+len).
std::size_t argmax(std::span<const float> xs);

/// Fused GEMM epilogue, applied to each C entry during the final
/// writeback: C_ij = act(C_ij + bias), where bias is indexed by the row
/// (per output channel of a conv GEMM) or the column (per output feature
/// of a dense GEMM).
struct Epilogue {
  enum class Bias { kNone, kPerRow, kPerCol };
  Bias bias = Bias::kNone;
  /// m floats for kPerRow, n floats for kPerCol; unused for kNone.
  const float* bias_data = nullptr;
  bool relu = false;
};

/// Register tile of the GEMM microkernel. Compile-time: the accumulator
/// layout is baked into the inner loop and cannot be retuned at runtime.
inline constexpr std::size_t kGemmMR = 6;
inline constexpr std::size_t kGemmNR = 16;

/// Runtime-tunable cache blocking for the packed GEMM driver. The defaults
/// are the hand-fixed constants the autotuner replaces per shape class.
///
/// KC and small_row_flops change the per-row float summation order (k-panel
/// grouping and the small/blocked path choice), so they are part of the
/// numeric contract; MC/NC only change scheduling. That is why the tuned
/// table below is keyed on (k, n) alone.
struct TileConfig {
  /// A-tile rows per L2 block; must be a positive multiple of kGemmMR.
  std::size_t mc = 60;
  /// k-panel depth (L1-resident B strips); positive.
  std::size_t kc = 256;
  /// B-tile columns per block; must be a positive multiple of kGemmNR.
  std::size_t nc = 256;
  /// Below this many multiply-adds per output row (n*k) the unblocked
  /// small-problem path wins; the predicate deliberately ignores m.
  std::size_t small_row_flops = 2048;

  bool operator==(const TileConfig&) const = default;
};

/// One tuned entry: the blocking the driver uses for every GEMM with this
/// exact (k, n), at any m.
struct TunedTileEntry {
  std::size_t k = 0;
  std::size_t n = 0;
  TileConfig config;
};

/// Install the tuned blocking table (replacing any previous one). Entries
/// are keyed on (k, n) only — never m — because a row's accumulation order
/// must be independent of how many rows share the call (the serving
/// engine's batch-size-invariance guarantee). Duplicate (k, n) keys and
/// configs violating the MR/NR alignment rules are rejected.
/// Like set_intra_op_threads: configure at startup, not while kernels run.
void set_tuned_tile_configs(const std::vector<TunedTileEntry>& entries);

/// Drop every tuned entry (back to the compiled defaults).
void clear_tuned_tile_configs();

/// The blocking the driver will use for shape (k, n): the tuned entry if
/// one is installed, else the defaults.
const TileConfig& tile_config_for(std::size_t k, std::size_t n);

/// Throws std::invalid_argument if `config` violates the driver's
/// constraints (mc % MR, nc % NR, zero extents).
void validate_tile_config(const TileConfig& config);

/// C(m x n) = A(m x k) * B(k x n), row-major, C overwritten.
void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c);

/// gemm with a fused epilogue (bias broadcast and/or ReLU).
void gemm_ex(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, const Epilogue& epilogue);

/// C(m x n) = A^T(k x m)^T... explicitly: C = A_t^T * B where a_t is stored
/// (k x m) row-major. Used for weight-gradient computation.
void gemm_at_b(std::size_t m, std::size_t k, std::size_t n, const float* a_t,
               const float* b, float* c);

/// C(m x n) += A_t^T * B — accumulating form, so weight gradients sum
/// directly into their persistent buffers without a staging copy.
void gemm_at_b_acc(std::size_t m, std::size_t k, std::size_t n,
                   const float* a_t, const float* b, float* c);

/// C(m x n) = A(m x k) * B_t^T where b_t is stored (n x k) row-major.
/// Used for input-gradient computation.
void gemm_a_bt(std::size_t m, std::size_t k, std::size_t n, const float* a,
               const float* b_t, float* c);

/// C(m x n) += A * B_t^T — accumulating form.
void gemm_a_bt_acc(std::size_t m, std::size_t k, std::size_t n,
                   const float* a, const float* b_t, float* c);

/// gemm_a_bt with a fused epilogue (dense forward: bias is kPerCol).
void gemm_a_bt_ex(std::size_t m, std::size_t k, std::size_t n, const float* a,
                  const float* b_t, float* c, const Epilogue& epilogue);

/// The seed's naive i-k-j GEMM, kept as the reference implementation for
/// the property tests and the bench_kernels speedup baseline.
void gemm_naive(std::size_t m, std::size_t k, std::size_t n, const float* a,
                const float* b, float* c);

/// gemm under an explicit blocking config, bypassing the installed tuned
/// table. Autotuner measurement hook; also used by tests to pin a config.
void gemm_with_config(std::size_t m, std::size_t k, std::size_t n,
                      const float* a, const float* b, float* c,
                      const TileConfig& config);

/// gemm_a_bt under an explicit blocking config (dense-layer layout, B
/// stored (n x k) row-major).
void gemm_a_bt_with_config(std::size_t m, std::size_t k, std::size_t n,
                           const float* a, const float* b_t, float* c,
                           const TileConfig& config);

/// Geometry of a 2-d convolution / pooling window.
struct ConvGeometry {
  std::size_t in_channels = 0;
  std::size_t in_h = 0;
  std::size_t in_w = 0;
  std::size_t kernel = 0;
  std::size_t stride = 1;
  std::size_t pad = 0;

  std::size_t out_h() const { return (in_h + 2 * pad - kernel) / stride + 1; }
  std::size_t out_w() const { return (in_w + 2 * pad - kernel) / stride + 1; }
  /// Rows of the im2col matrix: one per (channel, ky, kx).
  std::size_t patch_size() const { return in_channels * kernel * kernel; }

  /// Rejects degenerate geometries with a clear error instead of letting
  /// out_h()/out_w() wrap or im2col fail with a size mismatch downstream:
  /// zero extents, padding >= the receptive extent (border outputs would
  /// read only padding), and output dims that truncate to zero.
  void validate() const;
};

/// im2col for a single image (C x H x W span) into a
/// (patch_size x out_h*out_w) column matrix.
void im2col(const ConvGeometry& g, std::span<const float> image,
            std::span<float> columns);

/// Adjoint of im2col: scatter-add columns back into the image gradient.
void col2im(const ConvGeometry& g, std::span<const float> columns,
            std::span<float> image_grad);

/// Whether conv2d_forward_direct profitably skips im2col for this
/// geometry: 3x3 stride-1 with out_w >= kGemmNR (the full-resolution
/// shapes that dominate the search space; narrower outputs pack in short
/// branchy runs and measure slower than the two-pass im2col path). Other
/// geometries take the materialized fallback inside the call.
bool conv2d_direct_viable(const ConvGeometry& g);

/// Convolution forward for one image:
///   out(oc x oh*ow) = epilogue(W(oc x patch) * im2col(image))
/// For viable geometries the im2col matrix is never materialized: image
/// tiles are packed straight into the NR-strip panel layout the blocked
/// GEMM driver consumes, so the result is bit-identical to
/// im2col() + gemm_ex() — same packed bytes, same microkernel, same
/// summation order — while skipping a full (patch x cols) buffer write
/// and re-read. Non-viable and small-problem shapes fall back to the
/// materialized path (also bit-identical: it IS that path).
void conv2d_forward_direct(const ConvGeometry& g, std::size_t out_channels,
                           const float* weights, std::span<const float> image,
                           float* out, const Epilogue& epilogue);

// ---- batch-lane training convolution ---------------------------------------
//
// Training runs whole batches, so these kernels vectorize across images:
// lane l of every 16-float vector belongs to image n0 + l of a 16-image
// group, and each lane performs exactly the scalar arithmetic of the
// per-image reference chain for its image — im2col + gemm_ex forward,
// gemm_a_bt_acc for dW, gemm_at_b + col2im for dX — with the k-panel
// grouping and small/blocked choice gemm_driver takes for that per-image
// (k, n) under the installed TileConfig. Results are therefore
// bit-identical to the reference at every geometry and tuned table (where
// two different NaNs meet, which one survives is instruction selection's
// choice in either chain). The one exception is dW on gemm_driver's small
// path, whose compiled loop rather than its source fixes the bits: there
// the kernel calls gemm_a_bt_acc itself. Nothing is packed: operands are
// read straight from a zero-padded, lane-interleaved copy of the input (the
// "lane cache", laid out [c][y][x][lane] per group), which forward builds
// and backward reuses instead of an im2col buffer.

/// Floats in the lane cache of a `batch`-image input.
std::size_t conv2d_train_cache_size(const ConvGeometry& g, std::size_t batch);

/// Training forward over a batch (NCHW in, batch x out_channels x oh x ow
/// out): per image, out = epilogue(W * im2col(image)), bit-identical to
/// im2col() + gemm_ex(). Fills `cache` (conv2d_train_cache_size floats)
/// for conv2d_train_backward.
void conv2d_train_forward(const ConvGeometry& g, std::size_t batch,
                          std::size_t out_channels, const float* weights,
                          const float* input, float* out,
                          const Epilogue& epilogue, std::span<float> cache);

/// Training backward over the batch whose forward filled `cache`.
/// grad_out is dL/d(output); with `relu_out` (the post-ReLU forward output
/// of a fused ReLU) it is masked to out > 0 first. Weight and bias
/// gradients accumulate into weight_grad / bias_grad exactly as the
/// reference does: per image, fresh dots (per k-panel) summed into
/// intra_op_chunks(batch) chunk slabs in image order, slabs added in chunk
/// order. When `grad_in` is non-null it receives dL/d(input), bit-identical
/// to gemm_at_b() + col2im() into a zeroed tensor; null skips that work.
void conv2d_train_backward(const ConvGeometry& g, std::size_t batch,
                           std::size_t out_channels, const float* weights,
                           std::span<const float> cache,
                           const float* grad_out, const float* relu_out,
                           float* weight_grad, float* bias_grad,
                           float* grad_in);

// ---- channel-lane training batch norm --------------------------------------
//
// Training BatchNorm2d reduces each channel of an NCHW batch to one
// sequential `double` chain in (image, pixel) order. The chains are
// independent, so these kernels run them side by side: lane c of every
// vector belongs to channel c (4 or 8 lanes per group; padding lanes are
// never stored), and each lane performs exactly the scalar arithmetic of the
// per-channel reference loop, in its order. Elementwise passes (normalize,
// input gradient) vectorize along the pixels of a plane instead. Every
// expression is written as the reference writes it, so a build that
// contracts `a * b + c` into an FMA does so in both; the one rewrite, a
// division by a power-of-two count done as a multiply by its exact
// reciprocal, is kept out of contraction's reach. Results are
// bit-identical to the reference (where two NaNs meet, which one survives
// is instruction selection's choice in either).

/// Per-channel batch mean and biased variance of x (batch x channels x hw):
/// mean = (sum of x) / (batch*hw), var = (sum of (x - mean)^2) / (batch*hw),
/// each sum one double chain over images, then pixels.
void batchnorm_train_stats(std::size_t batch, std::size_t channels,
                           std::size_t hw, const float* x, double* mean,
                           double* var);

/// xhat = float((x - mean[c]) * inv_std[c]); out = gamma[c] * xhat + beta[c].
void batchnorm_train_normalize(std::size_t batch, std::size_t channels,
                               std::size_t hw, const float* x,
                               const double* mean, const double* inv_std,
                               const float* gamma, const float* beta,
                               float* xhat, float* out);

/// Per-channel sum of dy and of double(dy) * xhat, each one double chain
/// over images, then pixels.
void batchnorm_train_grad_sums(std::size_t batch, std::size_t channels,
                               std::size_t hw, const float* dy,
                               const float* xhat, double* sum_dy,
                               double* sum_dy_xhat);

/// dx = float(gamma[c] * inv_std[c] *
///            (dy - sum_dy[c] / m - xhat * sum_dy_xhat[c] / m)), m = batch*hw.
void batchnorm_train_grad_input(std::size_t batch, std::size_t channels,
                                std::size_t hw, const float* dy,
                                const float* xhat, const float* gamma,
                                const double* inv_std, const double* sum_dy,
                                const double* sum_dy_xhat, float* dx);

}  // namespace a4nn::tensor
