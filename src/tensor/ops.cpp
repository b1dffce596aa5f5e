#include "tensor/ops.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "tensor/autotune.hpp"
#include "tensor/parallel.hpp"
#include "tensor/scratch.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace a4nn::tensor {

void axpy(float alpha, std::span<const float> x, std::span<float> out) {
  if (x.size() != out.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) out[i] += alpha * x[i];
}

Tensor add(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) throw std::invalid_argument("add: shape mismatch");
  Tensor out(a.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) out[i] = a[i] + b[i];
  return out;
}

Tensor mul(const Tensor& a, const Tensor& b) {
  if (!a.same_shape(b)) throw std::invalid_argument("mul: shape mismatch");
  Tensor out(a.shape());
  for (std::size_t i = 0; i < a.numel(); ++i) out[i] = a[i] * b[i];
  return out;
}

void scale(Tensor& t, float alpha) {
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] *= alpha;
}

double sum(const Tensor& t) {
  double acc = 0.0;
  for (std::size_t i = 0; i < t.numel(); ++i) acc += t[i];
  return acc;
}

std::size_t argmax(std::span<const float> xs) {
  if (xs.empty()) throw std::invalid_argument("argmax: empty input");
  return static_cast<std::size_t>(
      std::max_element(xs.begin(), xs.end()) - xs.begin());
}

// --------------------------------------------------------------- GEMM
//
// One packed, cache-blocked driver serves every public variant. Transposed
// operands differ only in how the pack step gathers elements; after
// packing, the microkernel sees identical contiguous panels, so every
// variant gets the same inner loop and the same summation order.

namespace {

// Register tile (MR x NR accumulator): NR is one 16-lane float vector (a
// zmm register, or an emulated pair of ymm); MR = 6 keeps the accumulator
// tile inside the register file even on 256-bit hardware. The cache blocks
// (MC x KC A-tile in L2, KC x NR B-strips streaming from L1) are runtime
// values from TileConfig — hand-fixed defaults, overridable per (k, n) by
// the autotuner's tuned table.
constexpr std::size_t MR = kGemmMR;
constexpr std::size_t NR = kGemmNR;

// 16-lane float vector for the microkernel. GCC/Clang lower this to the
// widest SIMD the target has (one zmm, two ymm, or four xmm); lane-wise
// arithmetic keeps the exact per-element summation order of the scalar
// fallback, so results stay deterministic either way.
#if defined(__GNUC__) || defined(__clang__)
#define A4NN_VECTOR_KERNEL 1
typedef float vf16 __attribute__((vector_size(64)));
static_assert(NR * sizeof(float) == 64);
#endif

// The invariants TileConfig.small_row_flops and .kc are bound by: the
// small/blocked choice compares n*k (never m), and KC groups each row's
// k-panel partials identically at any m — so one output row is
// bit-identical whether it was computed alone or inside any larger batch.
// The serving engine's batch-size-invariance guarantee rests on this,
// which is why the tuned table below is keyed on (k, n) alone and why
// tile_config_for must never consult m.

// Tuned blocking, keyed by packed (k, n). Installed once at startup
// (set_tuned_tile_configs); read-only while kernels run, so the lookup
// needs no lock. Empty means "defaults everywhere".
using TileTable = std::unordered_map<std::uint64_t, TileConfig>;

TileTable& tile_table() {
  static TileTable table;
  return table;
}

constexpr TileConfig kDefaultTiles{};

inline std::uint64_t kn_key(std::size_t k, std::size_t n) {
  return (static_cast<std::uint64_t>(k) << 32) |
         static_cast<std::uint64_t>(n & 0xffffffffu);
}

inline std::size_t round_up(std::size_t x, std::size_t to) {
  return (x + to - 1) / to * to;
}

// Element accessors: `trans` means the buffer stores the mathematical
// operand transposed (A_t is (k x m); B_t is (n x k)).
inline float load_a(const float* a, bool trans, std::size_t m, std::size_t k,
                    std::size_t i, std::size_t kk) {
  return trans ? a[kk * m + i] : a[i * k + kk];
}
inline float load_b(const float* b, bool trans, std::size_t k, std::size_t n,
                    std::size_t kk, std::size_t j) {
  return trans ? b[j * k + kk] : b[kk * n + j];
}

// Pack an (mc x kc) tile of A into MR-row strips:
// out[s*kc*MR + kk*MR + r] = A(m0 + s*MR + r, k0 + kk), zero-padded rows.
void pack_a_tile(const float* a, bool trans, std::size_t m, std::size_t k,
                 std::size_t m0, std::size_t mc, std::size_t k0,
                 std::size_t kc, float* out) {
  const std::size_t strips = (mc + MR - 1) / MR;
  for (std::size_t s = 0; s < strips; ++s) {
    float* dst = out + s * kc * MR;
    for (std::size_t kk = 0; kk < kc; ++kk) {
      for (std::size_t r = 0; r < MR; ++r) {
        const std::size_t row = s * MR + r;
        dst[kk * MR + r] =
            row < mc ? load_a(a, trans, m, k, m0 + row, k0 + kk) : 0.0f;
      }
    }
  }
}

// Pack a (kc x nc) tile of B into NR-column strips:
// out[s*kc*NR + kk*NR + c] = B(k0 + kk, n0 + s*NR + c), zero-padded cols.
void pack_b_tile(const float* b, bool trans, std::size_t k, std::size_t n,
                 std::size_t k0, std::size_t kc, std::size_t n0,
                 std::size_t nc, float* out) {
  const std::size_t strips = (nc + NR - 1) / NR;
  for (std::size_t s = 0; s < strips; ++s) {
    float* dst = out + s * kc * NR;
    for (std::size_t kk = 0; kk < kc; ++kk) {
      for (std::size_t c = 0; c < NR; ++c) {
        const std::size_t col = s * NR + c;
        dst[kk * NR + c] =
            col < nc ? load_b(b, trans, k, n, k0 + kk, n0 + col) : 0.0f;
      }
    }
  }
}

// acc(MR x NR) = Apanel(kc x MR) * Bpanel(kc x NR), acc zeroed by the
// caller. The accumulator tile lives in MR vector registers for the whole
// k-loop; each step broadcasts one A element per row against the same
// B vector (a register-resident rank-1 update chain).
inline void micro_kernel(std::size_t kc, const float* __restrict ap,
                         const float* __restrict bp, float* __restrict acc) {
#ifdef A4NN_VECTOR_KERNEL
  vf16 c[MR] = {};
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * MR;
    vf16 b;
    __builtin_memcpy(&b, bp + kk * NR, sizeof b);
    for (std::size_t r = 0; r < MR; ++r) c[r] += arow[r] * b;
  }
  for (std::size_t r = 0; r < MR; ++r)
    __builtin_memcpy(acc + r * NR, &c[r], sizeof(vf16));
#else
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * MR;
    const float* brow = bp + kk * NR;
    for (std::size_t r = 0; r < MR; ++r) {
      const float av = arow[r];
      float* accrow = acc + r * NR;
      for (std::size_t c = 0; c < NR; ++c) accrow[c] += av * brow[c];
    }
  }
#endif
}

// Commit one accumulator tile to C; fuses the epilogue on the final
// k-block so biased/activated outputs never need a second pass.
inline void write_tile(float* cmat, std::size_t n, std::size_t i0,
                       std::size_t j0, std::size_t rows, std::size_t cols,
                       const float* acc, bool overwrite, const Epilogue* ep) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* crow = cmat + (i0 + r) * n + j0;
    const float* arow = acc + r * NR;
    const float row_bias =
        ep && ep->bias == Epilogue::Bias::kPerRow ? ep->bias_data[i0 + r]
                                                  : 0.0f;
    for (std::size_t cc = 0; cc < cols; ++cc) {
      float v = overwrite ? arow[cc] : crow[cc] + arow[cc];
      if (ep) {
        v += ep->bias == Epilogue::Bias::kPerCol ? ep->bias_data[j0 + cc]
                                                 : row_bias;
        if (ep->relu && v < 0.0f) v = 0.0f;
      }
      crow[cc] = v;
    }
  }
}

void epilogue_pass(float* c, std::size_t m, std::size_t n,
                   const Epilogue& ep) {
  for (std::size_t i = 0; i < m; ++i) {
    float* row = c + i * n;
    const float row_bias =
        ep.bias == Epilogue::Bias::kPerRow ? ep.bias_data[i] : 0.0f;
    for (std::size_t j = 0; j < n; ++j) {
      float v = row[j];
      v += ep.bias == Epilogue::Bias::kPerCol ? ep.bias_data[j] : row_bias;
      if (ep.relu && v < 0.0f) v = 0.0f;
      row[j] = v;
    }
  }
}

// Unblocked path for tiny problems.
void small_gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
                bool at, const float* b, bool bt, float* c, bool accumulate,
                const Epilogue* ep) {
  if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
  if (bt && !at) {
    // Row-dot-row: both operands stream contiguously.
    for (std::size_t i = 0; i < m; ++i) {
      const float* a_row = a + i * k;
      float* c_row = c + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        const float* b_row = b + j * k;
        float acc = 0.0f;
        for (std::size_t kk = 0; kk < k; ++kk) acc += a_row[kk] * b_row[kk];
        c_row[j] += acc;
      }
    }
  } else {
    // i-k-j: C rows and B rows stream (B gathered when transposed).
    for (std::size_t i = 0; i < m; ++i) {
      float* c_row = c + i * n;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float a_ik = load_a(a, at, m, k, i, kk);
        if (a_ik == 0.0f) continue;
        for (std::size_t j = 0; j < n; ++j)
          c_row[j] += a_ik * load_b(b, bt, k, n, kk, j);
      }
    }
  }
  if (ep) epilogue_pass(c, m, n, *ep);
}

// The cache-blocked macrokernel, parameterized over how B panels are
// produced: pack_b(k0, kc, n0, nc, out) fills a (kc x nc) tile in NR-column
// strips. The GEMM variants gather from a materialized B; the direct
// convolution gathers straight from the image. Everything downstream of
// the packed panels — loop order, microkernel, writeback — is shared, so
// two packers producing identical panel bytes produce identical results.
template <typename PackB>
void blocked_gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
                  bool at, float* c, bool accumulate, const Epilogue* ep,
                  const TileConfig& t, PackB&& pack_b) {
  const std::size_t MC = t.mc, KC = t.kc, NC = t.nc;
  ScratchScope scratch;
  float* bpack =
      scratch.alloc(std::min(k, KC) * round_up(std::min(n, NC), NR)).data();
  float* apack =
      scratch.alloc(std::min(k, KC) * round_up(std::min(m, MC), MR)).data();

  for (std::size_t k0 = 0; k0 < k; k0 += KC) {
    const std::size_t kc = std::min(KC, k - k0);
    const bool first_kb = k0 == 0;
    const bool last_kb = k0 + kc == k;
    for (std::size_t n0 = 0; n0 < n; n0 += NC) {
      const std::size_t nc = std::min(NC, n - n0);
      pack_b(k0, kc, n0, nc, bpack);
      const std::size_t nstrips = (nc + NR - 1) / NR;
      for (std::size_t m0 = 0; m0 < m; m0 += MC) {
        const std::size_t mc = std::min(MC, m - m0);
        pack_a_tile(a, at, m, k, m0, mc, k0, kc, apack);
        const std::size_t mstrips = (mc + MR - 1) / MR;
        for (std::size_t ms = 0; ms < mstrips; ++ms) {
          for (std::size_t ns = 0; ns < nstrips; ++ns) {
            alignas(64) float acc[MR * NR] = {};
            micro_kernel(kc, apack + ms * kc * MR, bpack + ns * kc * NR, acc);
            write_tile(c, n, m0 + ms * MR, n0 + ns * NR,
                       std::min(MR, mc - ms * MR), std::min(NR, nc - ns * NR),
                       acc, first_kb && !accumulate,
                       last_kb ? ep : nullptr);
          }
        }
      }
    }
  }
}

void count_gemm_call(std::size_t m, std::size_t k, std::size_t n) {
  // GEMM is the innermost hot path, so per-call accounting is gated on
  // tracing being live; a bare run pays only one relaxed atomic load.
  if (!util::trace::enabled()) return;
  auto& registry = util::metrics::global();
  registry.counter("gemm.calls").add();
  registry.counter("gemm.flops")
      .add(2.0 * static_cast<double>(m) * static_cast<double>(k) *
           static_cast<double>(n));
  registry.gauge("gemm.scratch_high_water_floats")
      .update_max(static_cast<double>(ScratchArena::tls().high_water()));
}

void gemm_driver(std::size_t m, std::size_t k, std::size_t n, const float* a,
                 bool at, const float* b, bool bt, float* c, bool accumulate,
                 const Epilogue* ep, const TileConfig* forced = nullptr) {
  // First GEMM of the process installs A4NN_TUNE (if set); afterwards this
  // is one relaxed atomic load inside std::call_once.
  ensure_env_tune_loaded();
  count_gemm_call(m, k, n);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
    if (ep) epilogue_pass(c, m, n, *ep);
    return;
  }
  const TileConfig& t = forced ? *forced : tile_config_for(k, n);
  if (n * k <= t.small_row_flops) {
    small_gemm(m, k, n, a, at, b, bt, c, accumulate, ep);
    return;
  }
  blocked_gemm(m, k, n, a, at, c, accumulate, ep, t,
               [&](std::size_t k0, std::size_t kc, std::size_t n0,
                   std::size_t nc, float* out) {
                 pack_b_tile(b, bt, k, n, k0, kc, n0, nc, out);
               });
}

}  // namespace

void validate_tile_config(const TileConfig& config) {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("TileConfig: " + what);
  };
  if (config.mc == 0 || config.mc % kGemmMR != 0)
    fail("mc (" + std::to_string(config.mc) +
         ") must be a positive multiple of MR=" + std::to_string(kGemmMR));
  if (config.nc == 0 || config.nc % kGemmNR != 0)
    fail("nc (" + std::to_string(config.nc) +
         ") must be a positive multiple of NR=" + std::to_string(kGemmNR));
  if (config.kc == 0) fail("kc must be positive");
}

void set_tuned_tile_configs(const std::vector<TunedTileEntry>& entries) {
  TileTable table;
  table.reserve(entries.size());
  for (const TunedTileEntry& e : entries) {
    if (e.k == 0 || e.n == 0)
      throw std::invalid_argument("TunedTileEntry: zero (k, n) key");
    validate_tile_config(e.config);
    if (!table.emplace(kn_key(e.k, e.n), e.config).second)
      throw std::invalid_argument(
          "TunedTileEntry: duplicate (k=" + std::to_string(e.k) +
          ", n=" + std::to_string(e.n) +
          ") key — one shape must map to one config (batch invariance)");
  }
  tile_table() = std::move(table);
}

void clear_tuned_tile_configs() { tile_table().clear(); }

const TileConfig& tile_config_for(std::size_t k, std::size_t n) {
  const TileTable& table = tile_table();
  if (table.empty()) return kDefaultTiles;
  const auto it = table.find(kn_key(k, n));
  return it == table.end() ? kDefaultTiles : it->second;
}

void gemm(std::size_t m, std::size_t k, std::size_t n, const float* a,
          const float* b, float* c) {
  gemm_driver(m, k, n, a, false, b, false, c, /*accumulate=*/false, nullptr);
}

void gemm_ex(std::size_t m, std::size_t k, std::size_t n, const float* a,
             const float* b, float* c, const Epilogue& epilogue) {
  gemm_driver(m, k, n, a, false, b, false, c, /*accumulate=*/false, &epilogue);
}

void gemm_at_b(std::size_t m, std::size_t k, std::size_t n, const float* a_t,
               const float* b, float* c) {
  gemm_driver(m, k, n, a_t, true, b, false, c, /*accumulate=*/false, nullptr);
}

void gemm_at_b_acc(std::size_t m, std::size_t k, std::size_t n,
                   const float* a_t, const float* b, float* c) {
  gemm_driver(m, k, n, a_t, true, b, false, c, /*accumulate=*/true, nullptr);
}

void gemm_a_bt(std::size_t m, std::size_t k, std::size_t n, const float* a,
               const float* b_t, float* c) {
  gemm_driver(m, k, n, a, false, b_t, true, c, /*accumulate=*/false, nullptr);
}

void gemm_a_bt_acc(std::size_t m, std::size_t k, std::size_t n, const float* a,
                   const float* b_t, float* c) {
  gemm_driver(m, k, n, a, false, b_t, true, c, /*accumulate=*/true, nullptr);
}

void gemm_a_bt_ex(std::size_t m, std::size_t k, std::size_t n, const float* a,
                  const float* b_t, float* c, const Epilogue& epilogue) {
  gemm_driver(m, k, n, a, false, b_t, true, c, /*accumulate=*/false, &epilogue);
}

void gemm_with_config(std::size_t m, std::size_t k, std::size_t n,
                      const float* a, const float* b, float* c,
                      const TileConfig& config) {
  validate_tile_config(config);
  gemm_driver(m, k, n, a, false, b, false, c, /*accumulate=*/false, nullptr,
              &config);
}

void gemm_a_bt_with_config(std::size_t m, std::size_t k, std::size_t n,
                           const float* a, const float* b_t, float* c,
                           const TileConfig& config) {
  validate_tile_config(config);
  gemm_driver(m, k, n, a, false, b_t, true, c, /*accumulate=*/false, nullptr,
              &config);
}

void gemm_naive(std::size_t m, std::size_t k, std::size_t n, const float* a,
                const float* b, float* c) {
  std::memset(c, 0, m * n * sizeof(float));
  for (std::size_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    const float* a_row = a + i * k;
    for (std::size_t kk = 0; kk < k; ++kk) {
      const float a_ik = a_row[kk];
      if (a_ik == 0.0f) continue;
      const float* b_row = b + kk * n;
      for (std::size_t j = 0; j < n; ++j) c_row[j] += a_ik * b_row[j];
    }
  }
}

void ConvGeometry::validate() const {
  auto fail = [](const std::string& what) {
    throw std::invalid_argument("ConvGeometry: " + what);
  };
  if (in_channels == 0 || in_h == 0 || in_w == 0)
    fail("zero input extent (" + std::to_string(in_channels) + "x" +
         std::to_string(in_h) + "x" + std::to_string(in_w) + ")");
  if (kernel == 0) fail("zero kernel");
  if (stride == 0) fail("zero stride");
  if (pad >= kernel)
    fail("padding (" + std::to_string(pad) + ") >= receptive extent (" +
         std::to_string(kernel) +
         "): border outputs would read only padding");
  if (in_h + 2 * pad < kernel || in_w + 2 * pad < kernel)
    fail("output dims truncate to zero: input " + std::to_string(in_h) + "x" +
         std::to_string(in_w) + " + 2*pad " + std::to_string(pad) +
         " is smaller than kernel " + std::to_string(kernel));
}

void im2col(const ConvGeometry& g, std::span<const float> image,
            std::span<float> columns) {
  g.validate();
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t cols = oh * ow;
  if (image.size() != g.in_channels * g.in_h * g.in_w)
    throw std::invalid_argument("im2col: image size mismatch");
  if (columns.size() != g.patch_size() * cols)
    throw std::invalid_argument("im2col: column buffer size mismatch");

  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    const float* plane = image.data() + c * g.in_h * g.in_w;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
        float* out_row = columns.data() + row * cols;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          // Input y for this output row (may fall in the padding band).
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) {
            std::memset(out_row + oy * ow, 0, ow * sizeof(float));
            continue;
          }
          const float* in_row = plane + static_cast<std::size_t>(iy) * g.in_w;
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                static_cast<std::ptrdiff_t>(g.pad);
            out_row[oy * ow + ox] =
                (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w))
                    ? 0.0f
                    : in_row[static_cast<std::size_t>(ix)];
          }
        }
      }
    }
  }
}

void col2im(const ConvGeometry& g, std::span<const float> columns,
            std::span<float> image_grad) {
  g.validate();
  const std::size_t oh = g.out_h();
  const std::size_t ow = g.out_w();
  const std::size_t cols = oh * ow;
  if (image_grad.size() != g.in_channels * g.in_h * g.in_w)
    throw std::invalid_argument("col2im: image size mismatch");
  if (columns.size() != g.patch_size() * cols)
    throw std::invalid_argument("col2im: column buffer size mismatch");

  std::size_t row = 0;
  for (std::size_t c = 0; c < g.in_channels; ++c) {
    float* plane = image_grad.data() + c * g.in_h * g.in_w;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++row) {
        const float* in_row_base = columns.data() + row * cols;
        for (std::size_t oy = 0; oy < oh; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
              static_cast<std::ptrdiff_t>(g.pad);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.in_h)) continue;
          float* out_row = plane + static_cast<std::size_t>(iy) * g.in_w;
          for (std::size_t ox = 0; ox < ow; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                static_cast<std::ptrdiff_t>(g.pad);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.in_w)) continue;
            out_row[static_cast<std::size_t>(ix)] += in_row_base[oy * ow + ox];
          }
        }
      }
    }
  }
}

// ------------------------------------------------- direct 3x3 convolution

namespace {

// Pack a (kc x nc) tile of the IMPLICIT im2col matrix of `image` (3x3
// kernel, stride 1) into NR-column strips — byte-for-byte what
// pack_b_tile() would produce from a materialized im2col buffer, gathered
// straight from the image instead. Each im2col row k0+kk is one fixed
// (channel, ky, kx); along an output row the input column advances in
// lockstep with the output column, so the interior of every strip row is a
// straight memcpy from the image with explicit zero runs for the padding
// bands.
void pack_b_conv3x3_tile(const float* image, const ConvGeometry& g,
                         std::size_t k0, std::size_t kc, std::size_t n0,
                         std::size_t nc, float* out) {
  const std::size_t ow = g.out_w();
  const std::size_t strips = (nc + NR - 1) / NR;
  const std::ptrdiff_t in_h = static_cast<std::ptrdiff_t>(g.in_h);
  const std::ptrdiff_t in_w = static_cast<std::ptrdiff_t>(g.in_w);
  const std::size_t plane_size = g.in_h * g.in_w;
  for (std::size_t s = 0; s < strips; ++s) {
    float* dst = out + s * kc * NR;
    const std::size_t col0 = s * NR;
    // Real (non-pad-to-strip) columns of this strip; trailing columns are
    // zeroed to mirror pack_b_tile's zero padding.
    const std::size_t real =
        col0 < nc ? std::min<std::size_t>(NR, nc - col0) : 0;
    // Output pixel of the strip's first column — the only divisions in the
    // routine; the row loop advances (oy, ox) and (c, ky, kx) by increment.
    const std::size_t j0 = n0 + col0;
    const std::size_t oy0 = j0 / ow;
    const std::size_t ox0 = j0 % ow;
    std::size_t c = k0 / 9;
    std::size_t ky = (k0 % 9) / 3;
    std::size_t kx = k0 % 3;
    const float* plane = image + c * plane_size;
    for (std::size_t kk = 0; kk < kc; ++kk) {
      float* drow = dst + kk * NR;
      if (real < NR)
        std::memset(drow + real, 0, (NR - real) * sizeof(float));
      // ix = ox + kx - pad is valid for ox in [pad-kx, in_w-kx+pad).
      const std::ptrdiff_t shift = static_cast<std::ptrdiff_t>(kx) -
                                   static_cast<std::ptrdiff_t>(g.pad);
      std::size_t oy = oy0;
      std::size_t ox = ox0;
      std::size_t cc = 0;
      while (cc < real) {
        // Columns [cc, cc+run) share output row oy.
        const std::size_t run = std::min(ow - ox, real - cc);
        const std::ptrdiff_t iy = static_cast<std::ptrdiff_t>(oy + ky) -
                                  static_cast<std::ptrdiff_t>(g.pad);
        float* d = drow + cc;
        if (iy < 0 || iy >= in_h) {
          std::memset(d, 0, run * sizeof(float));
        } else {
          const float* in_row = plane + static_cast<std::size_t>(iy) * g.in_w;
          const std::ptrdiff_t lo =
              std::max<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(ox),
                                       -shift);
          const std::ptrdiff_t hi = std::min<std::ptrdiff_t>(
              static_cast<std::ptrdiff_t>(ox + run), in_w - shift);
          if (hi <= lo) {
            std::memset(d, 0, run * sizeof(float));
          } else {
            const std::size_t lead = static_cast<std::size_t>(lo) - ox;
            const std::size_t mid = static_cast<std::size_t>(hi - lo);
            if (lead > 0) std::memset(d, 0, lead * sizeof(float));
            std::memcpy(d + lead, in_row + (lo + shift), mid * sizeof(float));
            if (lead + mid < run)
              std::memset(d + lead + mid, 0,
                          (run - lead - mid) * sizeof(float));
          }
        }
        cc += run;
        ox += run;
        if (ox == ow) {
          ox = 0;
          ++oy;
        }
      }
      // Next im2col row: kx fastest, then ky, then channel.
      if (++kx == 3) {
        kx = 0;
        if (++ky == 3) {
          ky = 0;
          ++c;
          plane += plane_size;
        }
      }
    }
  }
}

}  // namespace

bool conv2d_direct_viable(const ConvGeometry& g) {
  // 3x3 stride-1 is what the fused packer implements; the out_w >= NR
  // condition is a measured perf heuristic, not a correctness one: with
  // narrower outputs every NR-strip row splits into multiple short branchy
  // runs, and the two-pass im2col path (straight contiguous copies both
  // passes) is faster. out_w >= NR keeps one memcpy-dominated run per
  // strip row, where skipping the materialization wins (~1.3x in
  // bench_kernels on the 16x16 search-space shapes).
  return g.kernel == 3 && g.stride == 1 && g.out_w() >= kGemmNR;
}

void conv2d_forward_direct(const ConvGeometry& g, std::size_t out_channels,
                           const float* weights, std::span<const float> image,
                           float* out, const Epilogue& epilogue) {
  g.validate();
  if (image.size() != g.in_channels * g.in_h * g.in_w)
    throw std::invalid_argument("conv2d_forward_direct: image size mismatch");
  const std::size_t m = out_channels;
  const std::size_t k = g.patch_size();
  const std::size_t n = g.out_h() * g.out_w();
  ensure_env_tune_loaded();
  const TileConfig& t = tile_config_for(k, n);
  if (!conv2d_direct_viable(g) || n * k <= t.small_row_flops) {
    // General geometries and small problems take the materialized path —
    // the exact code the caller would have run, so the bits cannot differ.
    ScratchScope scratch;
    std::span<float> cols = scratch.alloc(k * n);
    im2col(g, image, cols);
    gemm_driver(m, k, n, weights, false, cols.data(), false, out,
                /*accumulate=*/false, &epilogue);
    return;
  }
  count_gemm_call(m, k, n);
  if (util::trace::enabled())
    util::metrics::global().counter("conv.direct_calls").add();
  blocked_gemm(m, k, n, weights, false, out, /*accumulate=*/false, &epilogue,
               t,
               [&](std::size_t k0, std::size_t kc, std::size_t n0,
                   std::size_t nc, float* bpack) {
                 pack_b_conv3x3_tile(image.data(), g, k0, kc, n0, nc, bpack);
               });
}

// ------------------------------------------ batch-lane training convolution
//
// Lane l of every vector below is image n0 + l of a 16-image group, and
// each lane runs the scalar arithmetic of the per-image reference chain
// for its image: the same products, summed in the same order, with the same
// k-panel breaks and small-path zero skips gemm_driver uses for that
// per-image (k, n). Register tiles only choose which outputs are computed
// together; no output's summation order depends on them.

namespace {

#ifndef A4NN_VECTOR_KERNEL
#error "the batch-lane convolution kernels need GCC/Clang vector extensions"
#endif

// Lane vectors cross only this file's internal, inlined helpers, so the
// note that their by-value passing ABI depends on -march is moot (for the
// rest of the file: GCC reports template instantiations at its end).
#pragma GCC diagnostic ignored "-Wpsabi"

constexpr std::size_t LN = 16;  // images per lane group: one float vector
typedef float vlane __attribute__((vector_size(LN * sizeof(float))));

inline vlane load_lanes(const float* p) {
  vlane v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

inline void store_lanes(float* p, vlane v) {
  __builtin_memcpy(p, &v, sizeof v);
}

// f.template operator()<A, B>() for runtime extents a in [1, NA] and b in
// [1, NB], so edge tiles get compile-time extents (register accumulators)
// like full ones.
template <std::size_t NA, std::size_t NB, std::size_t A = 1,
          std::size_t B = 1, typename F>
void with_extents(std::size_t a, std::size_t b, F&& f) {
  if constexpr (A <= NA && B <= NB) {
    if (a != A)
      with_extents<NA, NB, A + 1, B>(a, b, f);
    else if (b != B)
      with_extents<NA, NB, A, B + 1>(a, b, f);
    else
      f.template operator()<A, B>();
  }
}

// How gemm_driver splits the k dimension of one per-image (k, n) GEMM: the
// blocked path sums fresh kc-deep panel partials (the first overwrites,
// later ones add on), the small path is a single panel — and, in its i-k-j
// form, skips zero A entries.
struct KSplit {
  std::size_t kc;
  bool small;
};

KSplit k_split(std::size_t k, std::size_t n) {
  const TileConfig& t = tile_config_for(k, n);
  if (n * k <= t.small_row_flops) return {k, true};
  return {t.kc, false};
}

// Whether the small path's zero skip can fire on these weights. It only
// fires on an exact zero; without one, skipping is a no-op and the
// branch-free kernels compute the same sums.
bool skips_zeros(const KSplit& split, const float* weights, std::size_t n) {
  return split.small &&
         std::any_of(weights, weights + n, [](float w) { return w == 0.0f; });
}

// One lane group's layout: the input (or input gradient) of LN images,
// zero-padded by g.pad on every side, as [c][y][x][lane]. Patch row
// p = (c, ky, kx) of output cell (oy, ox) lives at window(oy, ox) + off[p]
// — the im2col entry, without the im2col buffer.
struct LaneConv {
  LaneConv(const ConvGeometry& geometry, std::size_t out_channels)
      : g(geometry), oc(out_channels) {
    g.validate();
    if (oc == 0) throw std::invalid_argument("LaneConv: zero out_channels");
    hp = g.in_h + 2 * g.pad;
    wp = g.in_w + 2 * g.pad;
    ow = g.out_w();
    cells = g.out_h() * ow;
    patch = g.patch_size();
    image_size = g.in_channels * g.in_h * g.in_w;
    group_floats = g.in_channels * hp * wp * LN;
    off.reserve(patch);
    for (std::size_t c = 0; c < g.in_channels; ++c)
      for (std::size_t ky = 0; ky < g.kernel; ++ky)
        for (std::size_t kx = 0; kx < g.kernel; ++kx)
          off.push_back(((c * hp + ky) * wp + kx) * LN);
  }

  std::size_t window(std::size_t oy, std::size_t ox) const {
    return (oy * g.stride * wp + ox * g.stride) * LN;
  }

  ConvGeometry g;
  std::size_t oc, hp, wp, ow, cells, patch, image_size, group_floats;
  std::vector<std::size_t> off;
};

std::size_t lane_groups(std::size_t batch) { return (batch + LN - 1) / LN; }

// One butterfly stage of transpose16: rows a and b = a + B trade their
// off-diagonal B-wide blocks.
template <std::size_t B, std::size_t... J>
inline void butterfly(vlane& a, vlane& b, std::index_sequence<J...>) {
  const vlane lo =
      __builtin_shufflevector(a, b, ((J & B) ? LN + J - B : J)...);
  const vlane hi = __builtin_shufflevector(a, b, ((J & B) ? LN + J : J + B)...);
  a = lo;
  b = hi;
}

template <std::size_t B>
inline void butterfly_stage(vlane (&r)[LN]) {
  for (std::size_t i = 0; i < LN; ++i)
    if (!(i & B)) butterfly<B>(r[i], r[i + B], std::make_index_sequence<LN>{});
}

// In-register 16x16 transpose: r[i][j] becomes r[j][i]. The lane layout is
// an image-major layout transposed, so every move between the two goes
// through this in 16-element blocks (64 shuffles per 256 floats).
inline void transpose16(vlane (&r)[LN]) {
  static_assert(LN == 16, "transpose16 is a 16x16 transpose");
  butterfly_stage<8>(r);
  butterfly_stage<4>(r);
  butterfly_stage<2>(r);
  butterfly_stage<1>(r);
}

// Image rows -> lane vectors: for element e in [0, count) of each row, the
// vector stored at dst + next() holds rows[l * stride + e] in lane l, and
// +0 in lanes >= `lanes`. With `mask` (a fused ReLU's output, laid out like
// rows) an entry whose mask is not > 0 becomes +0, as relu_masked_grad.
template <typename Next>
void rows_to_lanes(const float* rows, const float* mask, std::size_t stride,
                   std::size_t count, std::size_t lanes, float* dst,
                   Next&& next) {
  const vlane zero = {};
  std::size_t e = 0;
  for (; e + LN <= count; e += LN) {
    vlane r[LN];
    for (std::size_t l = 0; l < LN; ++l) {
      r[l] = l < lanes ? load_lanes(rows + l * stride + e) : zero;
      if (mask && l < lanes)
        r[l] = load_lanes(mask + l * stride + e) > zero ? r[l] : zero;
    }
    transpose16(r);
    for (std::size_t t = 0; t < LN; ++t) store_lanes(dst + next(), r[t]);
  }
  for (; e < count; ++e) {
    float* d = dst + next();
    for (std::size_t l = 0; l < LN; ++l) {
      const std::size_t i = l * stride + e;
      d[l] = l < lanes && (!mask || mask[i] > 0.0f) ? rows[i] : 0.0f;
    }
  }
}

// Lane vectors -> image rows, the inverse of rows_to_lanes for l < lanes.
template <typename Next>
void lanes_to_rows(const float* src, Next&& next, std::size_t count,
                   std::size_t lanes, float* rows, std::size_t stride) {
  std::size_t e = 0;
  for (; e + LN <= count; e += LN) {
    vlane r[LN];
    for (std::size_t t = 0; t < LN; ++t) r[t] = load_lanes(src + next());
    transpose16(r);
    for (std::size_t l = 0; l < lanes; ++l)
      store_lanes(rows + l * stride + e, r[l]);
  }
  for (; e < count; ++e) {
    const float* s = src + next();
    for (std::size_t l = 0; l < lanes; ++l) rows[l * stride + e] = s[l];
  }
}

// Successive offsets of a contiguous lane buffer ([element][lane]).
auto dense_offsets() {
  return [off = std::size_t{0}]() mutable {
    const std::size_t o = off;
    off += LN;
    return o;
  };
}

// Successive offsets, in NCHW element order, of an image's interior in a
// padded lane group.
auto padded_offsets(const LaneConv& lc) {
  const std::size_t pad = lc.g.pad;
  return [&lc, row = (pad * lc.wp + pad) * LN, x = std::size_t{0},
          y = std::size_t{0}]() mutable {
    const std::size_t o = row + x * LN;
    if (++x == lc.g.in_w) {
      x = 0;
      row += lc.wp * LN;
      if (++y == lc.g.in_h) {
        y = 0;
        row += 2 * lc.g.pad * lc.wp * LN;
      }
    }
    return o;
  };
}

// The reference im2col matrix of lane `lane` of a group.
void lane_im2col(const LaneConv& lc, const float* group, std::size_t lane,
                 float* col) {
  const std::size_t oh = lc.cells / lc.ow;
  for (std::size_t p = 0; p < lc.patch; ++p) {
    const float* src = group + lc.off[p] + lane;
    for (std::size_t oy = 0; oy < oh; ++oy)
      for (std::size_t ox = 0; ox < lc.ow; ++ox)
        *col++ = src[lc.window(oy, ox)];
  }
}

// v[r][x] = sum over k of A(r, k) * B(k, x), with gemm_driver's grouping
// of the k dimension: each kc-deep panel sums from +0 in k order (under
// kSkipZero skipping A(r, k) == 0, as small_gemm's i-k-j loop does), the
// first panel's sum is kept and later ones are added on.
template <std::size_t R, std::size_t X, bool kSkipZero, typename AFn,
          typename BFn>
inline void panel_sums(std::size_t k, std::size_t kc, AFn&& a, BFn&& b,
                       vlane (&v)[R][X]) {
  auto panel = [&](std::size_t k0, vlane(&acc)[R][X]) {
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t x = 0; x < X; ++x) acc[r][x] = vlane{};
    for (std::size_t kk = k0; kk < std::min(k, k0 + kc); ++kk) {
      vlane bv[X];
      for (std::size_t x = 0; x < X; ++x) bv[x] = b(kk, x);
      for (std::size_t r = 0; r < R; ++r) {
        const float av = a(r, kk);
        if (kSkipZero && av == 0.0f) continue;
        for (std::size_t x = 0; x < X; ++x) acc[r][x] += av * bv[x];
      }
    }
  };
  panel(0, v);
  for (std::size_t k0 = kc; k0 < k; k0 += kc) {
    vlane acc[R][X];
    panel(k0, acc);
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t x = 0; x < X; ++x) v[r][x] += acc[r][x];
  }
}

// Forward: I output channels x X adjacent cells of output row oy, summed
// over im2col rows like gemm_ex, then the epilogue exactly as write_tile /
// epilogue_pass apply it, into the lane buffer `out` ([channel][cell][lane]).
template <std::size_t I, std::size_t X, bool kSkipZero>
void forward_tile(const LaneConv& lc, const float* group, const float* w,
                  std::size_t i0, std::size_t oy, std::size_t ox0,
                  std::size_t kc, const Epilogue& ep, float* out) {
  const float* win = group + lc.window(oy, ox0);
  const std::size_t xstep = lc.g.stride * LN;
  const float* wrows = w + i0 * lc.patch;
  vlane v[I][X];
  panel_sums<I, X, kSkipZero>(
      lc.patch, kc,
      [&](std::size_t i, std::size_t kk) { return wrows[i * lc.patch + kk]; },
      [&](std::size_t kk, std::size_t x) {
        return load_lanes(win + lc.off[kk] + x * xstep);
      },
      v);
  const vlane zero = {};
  for (std::size_t i = 0; i < I; ++i) {
    for (std::size_t x = 0; x < X; ++x) {
      const std::size_t cell = oy * lc.ow + ox0 + x;
      const float bias = ep.bias == Epilogue::Bias::kPerCol
                             ? ep.bias_data[cell]
                         : ep.bias == Epilogue::Bias::kPerRow
                             ? ep.bias_data[i0 + i]
                             : 0.0f;
      vlane r = v[i][x] + bias;
      if (ep.relu) r = r < zero ? zero : r;
      store_lanes(out + ((i0 + i) * lc.cells + cell) * LN, r);
    }
  }
}

// dW partials: I output channels x J patch rows (I * J <= 16). Per k-panel
// of cells, a fresh dot of grad_out with the patch row from +0 in cell
// order — one gemm_a_bt_acc panel. The tile's lane vectors are transposed
// so that each image's partials land in its own row of `part`
// ([image][panel][oc * patch]).
template <std::size_t I, std::size_t J>
void weight_grad_tile(const LaneConv& lc, const float* gt, const float* group,
                      std::size_t i0, std::size_t j0, std::size_t kc,
                      std::size_t lanes, float* part) {
  static_assert(I * J <= LN);
  const std::size_t wsize = lc.oc * lc.patch;
  const std::size_t panels = (lc.cells + kc - 1) / kc;
  const float* grows = gt + i0 * lc.cells * LN;
  const std::size_t* off = lc.off.data() + j0;
  for (std::size_t c0 = 0, panel = 0; c0 < lc.cells; c0 += kc, ++panel) {
    const std::size_t c1 = std::min(lc.cells, c0 + kc);
    vlane acc[I][J] = {};
    std::size_t oy = c0 / lc.ow;
    std::size_t ox = c0 % lc.ow;
    for (std::size_t cell = c0; cell < c1; ++cell) {
      const float* win = group + lc.window(oy, ox);
      vlane gv[I];
      for (std::size_t i = 0; i < I; ++i)
        gv[i] = load_lanes(grows + (i * lc.cells + cell) * LN);
      for (std::size_t j = 0; j < J; ++j) {
        const vlane xv = load_lanes(win + off[j]);
        for (std::size_t i = 0; i < I; ++i) acc[i][j] += gv[i] * xv;
      }
      if (++ox == lc.ow) {
        ox = 0;
        ++oy;
      }
    }
    vlane r[LN] = {};
    for (std::size_t i = 0; i < I; ++i)
      for (std::size_t j = 0; j < J; ++j) r[i * J + j] = acc[i][j];
    transpose16(r);
    for (std::size_t l = 0; l < lanes; ++l) {
      const char* src = reinterpret_cast<const char*>(&r[l]);
      float* dst = part + (l * panels + panel) * wsize + i0 * lc.patch + j0;
      for (std::size_t i = 0; i < I; ++i)
        std::memcpy(dst + i * lc.patch, src + i * J * sizeof(float),
                    J * sizeof(float));
    }
  }
}

// dX: J patch rows x X adjacent cells of output row oy. dcol(p, cell) sums
// W(o, p) * grad(o, cell) over output channels as gemm_at_b does, and is
// added into the padded lane plane `gi` like col2im. A padded pixel must
// take its contributions in ascending patch-row order; within a range of
// patch rows those come from cells in descending order, so callers walk
// cells backwards and the tile scatters its cells right to left.
template <std::size_t J, std::size_t X, bool kSkipZero>
void input_grad_tile(const LaneConv& lc, const float* gt, const float* w,
                     std::size_t j0, std::size_t oy, std::size_t ox0,
                     std::size_t kc, float* gi) {
  const float* grows = gt + (oy * lc.ow + ox0) * LN;
  vlane d[J][X];
  panel_sums<J, X, kSkipZero>(
      lc.oc, kc,
      [&](std::size_t j, std::size_t o) { return w[o * lc.patch + j0 + j]; },
      [&](std::size_t o, std::size_t x) {
        return load_lanes(grows + (o * lc.cells + x) * LN);
      },
      d);
  for (std::size_t x = X; x-- > 0;) {
    float* win = gi + lc.window(oy, ox0 + x);
    for (std::size_t j = 0; j < J; ++j) {
      float* p = win + lc.off[j0 + j];
      store_lanes(p, load_lanes(p) + d[j][x]);
    }
  }
}

// Register tile extents: accumulators stay within the 32 vector registers
// of AVX-512 with room for the operand vectors.
constexpr std::size_t kFwdI = 4, kFwdX = 4;
constexpr std::size_t kDwI = 4, kDwJ = 4;
constexpr std::size_t kDxJ = 9, kDxX = 2;

}  // namespace

std::size_t conv2d_train_cache_size(const ConvGeometry& g, std::size_t batch) {
  g.validate();
  return lane_groups(batch) * g.in_channels * (g.in_h + 2 * g.pad) *
         (g.in_w + 2 * g.pad) * LN;
}

void conv2d_train_forward(const ConvGeometry& g, std::size_t batch,
                          std::size_t out_channels, const float* weights,
                          const float* input, float* out,
                          const Epilogue& epilogue, std::span<float> cache) {
  const LaneConv lc(g, out_channels);
  if (cache.size() != conv2d_train_cache_size(g, batch))
    throw std::invalid_argument("conv2d_train_forward: cache size mismatch");
  ensure_env_tune_loaded();
  const KSplit ks = k_split(lc.patch, lc.cells);
  const bool skip = skips_zeros(ks, weights, lc.oc * lc.patch);
  const std::size_t oh = g.out_h();
  const std::size_t image_out = lc.oc * lc.cells;
  parallel_chunks(lane_groups(batch), [&](std::size_t, std::size_t begin,
                                          std::size_t end) {
    ScratchScope local;  // this worker thread's arena
    float* ot = local.alloc(image_out * LN).data();
    for (std::size_t grp = begin; grp < end; ++grp) {
      const std::size_t n0 = grp * LN;
      const std::size_t lanes = std::min(LN, batch - n0);
      // Padding and unused lanes hold +0, exactly what im2col writes for
      // out-of-image taps.
      float* group = cache.data() + grp * lc.group_floats;
      if (g.pad > 0) std::memset(group, 0, lc.group_floats * sizeof(float));
      rows_to_lanes(input + n0 * lc.image_size, nullptr, lc.image_size,
                    lc.image_size, lanes, group, padded_offsets(lc));
      for (std::size_t oy = 0; oy < oh; ++oy)
        for (std::size_t ox0 = 0; ox0 < lc.ow; ox0 += kFwdX)
          for (std::size_t i0 = 0; i0 < lc.oc; i0 += kFwdI)
            with_extents<kFwdI, kFwdX>(
                std::min(kFwdI, lc.oc - i0), std::min(kFwdX, lc.ow - ox0),
                [&]<std::size_t I, std::size_t X>() {
                  if (skip)
                    forward_tile<I, X, true>(lc, group, weights, i0, oy, ox0,
                                             ks.kc, epilogue, ot);
                  else
                    forward_tile<I, X, false>(lc, group, weights, i0, oy, ox0,
                                              ks.kc, epilogue, ot);
                });
      lanes_to_rows(ot, dense_offsets(), image_out, lanes,
                    out + n0 * image_out, image_out);
    }
  });
}

void conv2d_train_backward(const ConvGeometry& g, std::size_t batch,
                           std::size_t out_channels, const float* weights,
                           std::span<const float> cache,
                           const float* grad_out, const float* relu_out,
                           float* weight_grad, float* bias_grad,
                           float* grad_in) {
  const LaneConv lc(g, out_channels);
  if (cache.size() != conv2d_train_cache_size(g, batch))
    throw std::invalid_argument("conv2d_train_backward: cache size mismatch");
  ensure_env_tune_loaded();
  // dW is gemm_a_bt_acc(oc, cells, patch), so k = cells. Its small path is
  // a row-dot-row reduction the compiler vectorizes in order but splits
  // between unfused and fused multiply-adds by vector width, so shapes on
  // that path call gemm_a_bt_acc itself, on an im2col of the lane cache.
  // dX is gemm_at_b(patch, oc, cells), so k = out_channels.
  const KSplit ws = k_split(lc.cells, lc.patch);
  const KSplit xs = k_split(lc.oc, lc.cells);
  const bool skip = skips_zeros(xs, weights, lc.oc * lc.patch);
  const std::size_t panels = ws.small ? 0 : (lc.cells + ws.kc - 1) / ws.kc;
  const std::size_t wsize = lc.oc * lc.patch;
  const std::size_t groups = lane_groups(batch);
  const std::size_t image_out = lc.oc * lc.cells;
  const std::size_t oh = g.out_h();

  ScratchScope scratch;
  std::span<float> dw_part = scratch.alloc(batch * panels * wsize);
  std::span<float> db_part = scratch.alloc(groups * lc.oc * LN);
  parallel_chunks(groups, [&](std::size_t, std::size_t begin,
                              std::size_t end) {
    ScratchScope local;  // this worker thread's arena
    float* gt = local.alloc(image_out * LN).data();
    float* gi = grad_in ? local.alloc(lc.group_floats).data() : nullptr;
    for (std::size_t grp = begin; grp < end; ++grp) {
      const std::size_t n0 = grp * LN;
      const std::size_t lanes = std::min(LN, batch - n0);
      const float* group = cache.data() + grp * lc.group_floats;
      rows_to_lanes(grad_out + n0 * image_out,
                    relu_out ? relu_out + n0 * image_out : nullptr, image_out,
                    image_out, lanes, gt, dense_offsets());
      for (std::size_t i = 0; i < lc.oc; ++i) {
        vlane acc = {};
        for (std::size_t cell = 0; cell < lc.cells; ++cell)
          acc += load_lanes(gt + (i * lc.cells + cell) * LN);
        store_lanes(db_part.data() + (grp * lc.oc + i) * LN, acc);
      }
      float* part = dw_part.data() + n0 * panels * wsize;
      for (std::size_t i0 = 0; panels > 0 && i0 < lc.oc; i0 += kDwI)
        for (std::size_t j0 = 0; j0 < lc.patch; j0 += kDwJ)
          with_extents<kDwI, kDwJ>(
              std::min(kDwI, lc.oc - i0), std::min(kDwJ, lc.patch - j0),
              [&]<std::size_t I, std::size_t J>() {
                weight_grad_tile<I, J>(lc, gt, group, i0, j0, ws.kc, lanes,
                                       part);
              });
      if (!gi) continue;
      std::memset(gi, 0, lc.group_floats * sizeof(float));
      const std::size_t xblocks = (lc.ow + kDxX - 1) / kDxX;
      for (std::size_t j0 = 0; j0 < lc.patch; j0 += kDxJ)
        for (std::size_t oy = oh; oy-- > 0;)
          for (std::size_t xb = xblocks; xb-- > 0;)
            with_extents<kDxJ, kDxX>(
                std::min(kDxJ, lc.patch - j0),
                std::min(kDxX, lc.ow - xb * kDxX),
                [&]<std::size_t J, std::size_t X>() {
                  if (skip)
                    input_grad_tile<J, X, true>(lc, gt, weights, j0, oy,
                                                xb * kDxX, xs.kc, gi);
                  else
                    input_grad_tile<J, X, false>(lc, gt, weights, j0, oy,
                                                 xb * kDxX, xs.kc, gi);
                });
      lanes_to_rows(gi, padded_offsets(lc), lc.image_size, lanes,
                    grad_in + n0 * lc.image_size, lc.image_size);
    }
  });

  // The reference's reduction: chunk c's slab starts at +0 and takes each
  // of its images' partials in order; the slabs then add into the
  // gradients in chunk order.
  const std::size_t chunks = intra_op_chunks(batch);
  std::span<float> dw_slabs = scratch.alloc_zeroed(chunks * wsize);
  if (ws.small) {
    parallel_chunks(batch, [&](std::size_t c, std::size_t begin,
                               std::size_t end) {
      ScratchScope local;
      float* gout = local.alloc(image_out).data();
      float* col = local.alloc(lc.patch * lc.cells).data();
      for (std::size_t n = begin; n < end; ++n) {
        const float* src = grad_out + n * image_out;
        for (std::size_t e = 0; e < image_out; ++e)
          gout[e] = !relu_out || relu_out[n * image_out + e] > 0.0f ? src[e]
                                                                   : 0.0f;
        lane_im2col(lc, cache.data() + (n / LN) * lc.group_floats, n % LN,
                    col);
        gemm_a_bt_acc(lc.oc, lc.cells, lc.patch, gout, col,
                      dw_slabs.data() + c * wsize);
      }
    });
  } else {
    for (std::size_t c = 0; c < chunks; ++c) {
      const ChunkRange r = intra_op_chunk_range(batch, c);
      float* slab = dw_slabs.data() + c * wsize;
      for (std::size_t n = r.begin; n < r.end; ++n)
        for (std::size_t panel = 0; panel < panels; ++panel) {
          const float* row = dw_part.data() + (n * panels + panel) * wsize;
          for (std::size_t e = 0; e < wsize; ++e) slab[e] += row[e];
        }
    }
  }
  for (std::size_t c = 0; c < chunks; ++c) {
    const ChunkRange r = intra_op_chunk_range(batch, c);
    axpy(1.0f, dw_slabs.subspan(c * wsize, wsize), {weight_grad, wsize});
    for (std::size_t i = 0; i < lc.oc; ++i) {
      float slab = 0.0f;
      for (std::size_t n = r.begin; n < r.end; ++n)
        slab += db_part[((n / LN) * lc.oc + i) * LN + n % LN];
      bias_grad[i] += slab;
    }
  }
}

// ------------------------------------------------- channel-lane batch norm
//
// Lane l of a group vector is channel c0 + l of a W-channel group (W = 4 up
// to 4 channels, else 8). Lanes past the last channel repeat it and are
// never stored. One step of every chain is one (image, pixel) pair, taken
// in the reference's order: images outer, pixels inner. Runs of W pixels
// move from the group's W channel planes into lane vectors by an
// in-register W x W transpose; leftover pixels (hw % W) are gathered lane
// by lane.

namespace {

// Float <-> double lane conversion. GCC lowers __builtin_convertvector's
// widening in halves through the stack, so targets that have the one-
// instruction form get it spelled out; both convert exactly like the
// scalar casts (widening is exact, narrowing rounds per MXCSR).
template <std::size_t W>
struct BnLanes;
template <>
struct BnLanes<4> {
  typedef float vf __attribute__((vector_size(16)));
  typedef double vd __attribute__((vector_size(32)));
  static vd widen(vf v) {
#if defined(__AVX__)
    return reinterpret_cast<vd>(_mm256_cvtps_pd(reinterpret_cast<__m128>(v)));
#else
    return __builtin_convertvector(v, vd);
#endif
  }
};
template <>
struct BnLanes<8> {
  typedef float vf __attribute__((vector_size(32)));
  typedef double vd __attribute__((vector_size(64)));
  static vd widen(vf v) {
#if defined(__AVX512F__)
    return reinterpret_cast<vd>(
        _mm512_maskz_cvtps_pd(0xff, reinterpret_cast<__m256>(v)));
#else
    return __builtin_convertvector(v, vd);
#endif
  }
  static vf narrow(vd v) {
#if defined(__AVX512F__)
    return reinterpret_cast<vf>(
        _mm512_maskz_cvtpd_ps(0xff, reinterpret_cast<__m512d>(v)));
#else
    return __builtin_convertvector(v, vf);
#endif
  }
};

template <typename V>
inline V load_vec(const float* p) {
  V v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

template <typename V>
inline void store_vec(float* p, V v) {
  __builtin_memcpy(p, &v, sizeof v);
}

// Hides v from the optimizer, so the multiply that produced it cannot be
// contracted into the add or subtract that consumes it.
template <typename V>
inline void opaque(V& v) {
#if defined(__AVX512F__)
  __asm__("" : "+v"(v));
#else
  __asm__("" : "+m"(v));
#endif
}

// One butterfly stage of a W x W transpose: rows a and b = a + B trade
// their off-diagonal B-wide blocks (transpose16's scheme at width W).
template <std::size_t B, typename V, std::size_t... J>
inline void lane_butterfly(V& a, V& b, std::index_sequence<J...>) {
  constexpr std::size_t W = sizeof...(J);
  const V lo = __builtin_shufflevector(a, b, ((J & B) ? W + J - B : J)...);
  const V hi = __builtin_shufflevector(a, b, ((J & B) ? W + J : J + B)...);
  a = lo;
  b = hi;
}

template <std::size_t B, std::size_t W, typename V>
inline void transpose_lanes(V (&r)[W]) {
  for (std::size_t i = 0; i < W; ++i)
    if (!(i & B))
      lane_butterfly<B>(r[i], r[i + B], std::make_index_sequence<W>{});
  if constexpr (B > 1) transpose_lanes<B / 2>(r);
}

// Row offsets of a group's channel planes. Padding lanes repeat the last
// channel, so every lane loads in bounds without a branch; their results
// are never stored.
template <std::size_t W>
std::array<std::size_t, W> lane_rows(std::size_t hw, std::size_t lanes) {
  std::array<std::size_t, W> rows{};
  for (std::size_t l = 0; l < W; ++l) rows[l] = std::min(l, lanes - 1) * hw;
  return rows;
}

// Calls step(v) for pixel i = 0..hw-1 of one image, in order, where lane l
// of v[s] is planes[s][rows[l] + i]: S tensors of one layout in lockstep.
template <std::size_t W, std::size_t S, typename Step>
inline void for_pixel_lanes(const std::array<const float*, S>& planes,
                            std::size_t hw,
                            const std::array<std::size_t, W>& rows,
                            Step&& step) {
  using V = typename BnLanes<W>::vf;
  std::size_t i = 0;
  for (; i + W <= hw; i += W) {
    V r[S][W];
    for (std::size_t s = 0; s < S; ++s) {
      for (std::size_t l = 0; l < W; ++l)
        r[s][l] = load_vec<V>(planes[s] + rows[l] + i);
      transpose_lanes<W / 2>(r[s]);
    }
    for (std::size_t t = 0; t < W; ++t) {
      std::array<V, S> v;
      for (std::size_t s = 0; s < S; ++s) v[s] = r[s][t];
      step(v);
    }
  }
  for (; i < hw; ++i) {
    std::array<V, S> v;
    for (std::size_t s = 0; s < S; ++s) {
      V lanes;
      for (std::size_t l = 0; l < W; ++l) lanes[l] = planes[s][rows[l] + i];
      v[s] = lanes;
    }
    step(v);
  }
}

// Mean and variance chains of each W-channel group: two passes over x, the
// second against the first's mean, as the reference makes them.
template <std::size_t W>
void bn_stats_lanes(std::size_t batch, std::size_t channels, std::size_t hw,
                    const float* x, double* mean, double* var) {
  using L = BnLanes<W>;
  using V = typename L::vf;
  using D = typename L::vd;
  const double count = static_cast<double>(batch * hw);
  for (std::size_t c0 = 0; c0 < channels; c0 += W) {
    const std::size_t lanes = std::min(W, channels - c0);
    const auto rows = lane_rows<W>(hw, lanes);
    D acc = {};
    for (std::size_t n = 0; n < batch; ++n)
      for_pixel_lanes<W, 1>({x + (n * channels + c0) * hw}, hw, rows,
                            [&](const std::array<V, 1>& v) {
                              acc += L::widen(v[0]);
                            });
    const D mean_v = acc / count;
    D vacc = {};
    for (std::size_t n = 0; n < batch; ++n)
      for_pixel_lanes<W, 1>({x + (n * channels + c0) * hw}, hw, rows,
                            [&](const std::array<V, 1>& v) {
                              const D d = L::widen(v[0]) - mean_v;
                              vacc += d * d;
                            });
    const D var_v = vacc / count;
    for (std::size_t l = 0; l < lanes; ++l) {
      mean[c0 + l] = mean_v[l];
      var[c0 + l] = var_v[l];
    }
  }
}

template <std::size_t W>
void bn_grad_sums_lanes(std::size_t batch, std::size_t channels,
                        std::size_t hw, const float* dy, const float* xhat,
                        double* sum_dy, double* sum_dy_xhat) {
  using L = BnLanes<W>;
  using V = typename L::vf;
  using D = typename L::vd;
  for (std::size_t c0 = 0; c0 < channels; c0 += W) {
    const std::size_t lanes = std::min(W, channels - c0);
    const auto rows = lane_rows<W>(hw, lanes);
    D s = {}, sx = {};
    for (std::size_t n = 0; n < batch; ++n) {
      const std::size_t base = (n * channels + c0) * hw;
      for_pixel_lanes<W, 2>({dy + base, xhat + base}, hw, rows,
                            [&](const std::array<V, 2>& v) {
                              const D g = L::widen(v[0]);
                              s += g;
                              sx += g * L::widen(v[1]);
                            });
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      sum_dy[c0 + l] = s[l];
      sum_dy_xhat[c0 + l] = sx[l];
    }
  }
}

}  // namespace

void batchnorm_train_stats(std::size_t batch, std::size_t channels,
                           std::size_t hw, const float* x, double* mean,
                           double* var) {
  if (channels <= 4)
    bn_stats_lanes<4>(batch, channels, hw, x, mean, var);
  else
    bn_stats_lanes<8>(batch, channels, hw, x, mean, var);
}

void batchnorm_train_grad_sums(std::size_t batch, std::size_t channels,
                               std::size_t hw, const float* dy,
                               const float* xhat, double* sum_dy,
                               double* sum_dy_xhat) {
  if (channels <= 4)
    bn_grad_sums_lanes<4>(batch, channels, hw, dy, xhat, sum_dy, sum_dy_xhat);
  else
    bn_grad_sums_lanes<8>(batch, channels, hw, dy, xhat, sum_dy, sum_dy_xhat);
}

void batchnorm_train_normalize(std::size_t batch, std::size_t channels,
                               std::size_t hw, const float* x,
                               const double* mean, const double* inv_std,
                               const float* gamma, const float* beta,
                               float* xhat, float* out) {
  using L = BnLanes<8>;
  using V = L::vf;
  using D = L::vd;
  // Per image, xhat first, then out from the xhat just written (still in
  // L1): one output stream per pass runs about twice as fast here as
  // writing xhat and out side by side.
  for (std::size_t n = 0; n < batch; ++n) {
    const std::size_t image = n * channels * hw;
    for (std::size_t c = 0; c < channels; ++c) {
      const float* in_plane = x + image + c * hw;
      float* xhat_plane = xhat + image + c * hw;
      const double mean_c = mean[c], inv = inv_std[c];
      std::size_t i = 0;
      for (; i + 8 <= hw; i += 8) {
        const D xd = L::widen(load_vec<V>(in_plane + i));
        store_vec(xhat_plane + i, L::narrow((xd - mean_c) * inv));
      }
      for (; i < hw; ++i)
        xhat_plane[i] = static_cast<float>((in_plane[i] - mean_c) * inv);
    }
    for (std::size_t c = 0; c < channels; ++c) {
      const float* xhat_plane = xhat + image + c * hw;
      float* out_plane = out + image + c * hw;
      const float g = gamma[c], b = beta[c];
      std::size_t i = 0;
      for (; i + 8 <= hw; i += 8)
        store_vec(out_plane + i, g * load_vec<V>(xhat_plane + i) + b);
      for (; i < hw; ++i) out_plane[i] = g * xhat_plane[i] + b;
    }
  }
}

void batchnorm_train_grad_input(std::size_t batch, std::size_t channels,
                                std::size_t hw, const float* dy,
                                const float* xhat, const float* gamma,
                                const double* inv_std, const double* sum_dy,
                                const double* sum_dy_xhat, float* dx) {
  using L = BnLanes<8>;
  using V = L::vf;
  using D = L::vd;
  const std::size_t count = batch * hw;
  const double m = static_cast<double>(count);
  // For a power-of-two count, 1 / m is exact, so t / m and t * (1 / m) are
  // the same correctly rounded value; the multiply is far cheaper.
  const bool exact_reciprocal = (count & (count - 1)) == 0;
  const double inv_m = 1.0 / m;
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < channels; ++c) {
      const std::size_t base = (n * channels + c) * hw;
      const float* g_plane = dy + base;
      const float* xh_plane = xhat + base;
      float* dx_plane = dx + base;
      const double g = gamma[c];
      const double k = g * inv_std[c];
      const double mean_dy = sum_dy[c] / m;
      const double s = sum_dy_xhat[c];
      std::size_t i = 0;
      for (; i + 8 <= hw; i += 8) {
        const D gd = L::widen(load_vec<V>(g_plane + i));
        const D xd = L::widen(load_vec<V>(xh_plane + i));
        D q = xd * s;
        if (exact_reciprocal) {
          q = q * inv_m;
          opaque(q);
        } else {
          q = q / m;
        }
        store_vec(dx_plane + i, L::narrow(k * (gd - mean_dy - q)));
      }
      for (; i < hw; ++i)
        dx_plane[i] = static_cast<float>(
            g * inv_std[c] *
            (g_plane[i] - sum_dy[c] / m - xh_plane[i] * sum_dy_xhat[c] / m));
    }
  }
}

}  // namespace a4nn::tensor
