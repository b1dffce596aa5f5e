#include "nn/layers_extra.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "tensor/ops.hpp"
#include "tensor/parallel.hpp"
#include "tensor/scratch.hpp"

namespace a4nn::nn {

// --------------------------------------------------------- SeparableConv2d

SeparableConv2d::SeparableConv2d(std::size_t in_channels,
                                 std::size_t out_channels, std::size_t kernel,
                                 std::size_t pad, util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      pad_(pad) {
  if (in_channels == 0 || out_channels == 0 || kernel == 0)
    throw std::invalid_argument("SeparableConv2d: zero-sized configuration");
  dw_weight_ =
      Tensor::he_init({in_channels, kernel, kernel}, kernel * kernel, rng);
  dw_weight_grad_ = Tensor::zeros({in_channels, kernel, kernel});
  pw_weight_ =
      Tensor::he_init({out_channels, in_channels}, in_channels, rng);
  pw_weight_grad_ = Tensor::zeros({out_channels, in_channels});
  bias_ = Tensor::zeros({out_channels});
  bias_grad_ = Tensor::zeros({out_channels});
}

Shape SeparableConv2d::output_shape(const Shape& in) const {
  if (in.size() != 3)
    throw std::invalid_argument("SeparableConv2d::output_shape: expected CHW");
  // Same degeneracy screen as Conv2d: without it, in + 2*pad < kernel
  // underflows oh/ow to astronomically large sizes instead of erroring.
  tensor::ConvGeometry g{in_channels_, in[1], in[2], kernel_, 1, pad_};
  g.validate();
  return {out_channels_, g.out_h(), g.out_w()};
}

Tensor SeparableConv2d::forward(const Tensor& x, bool training) {
  if (x.rank() != 4 || x.dim(1) != in_channels_)
    throw std::invalid_argument("SeparableConv2d: bad input shape");
  const std::size_t batch = x.dim(0), h = x.dim(2), w = x.dim(3);
  tensor::ConvGeometry geom{in_channels_, h, w, kernel_, 1, pad_};
  geom.validate();
  const std::size_t oh = geom.out_h();
  const std::size_t ow = geom.out_w();
  const std::size_t cells = oh * ow;
  if (training) {
    input_cache_ = x;
    in_shape_cache_ = x.shape();
    // Depthwise stage output persists until backward. Inference keeps one
    // image's worth on the executing thread's scratch arena instead.
    depthwise_out_cache_ = Tensor({batch, in_channels_, oh, ow});
  }

  // Depthwise stage: each channel convolved with its own KxK filter.
  // Images are independent, so both stages chunk over the batch.
  tensor::Epilogue ep;
  ep.bias = tensor::Epilogue::Bias::kPerRow;  // row = output channel
  ep.bias_data = bias_.data();
  Tensor out({batch, out_channels_, oh, ow});
  tensor::parallel_chunks(batch, [&](std::size_t, std::size_t chunk_begin,
                                     std::size_t chunk_end) {
  tensor::ScratchScope scratch;
  std::span<float> eval_dw;
  if (!training) eval_dw = scratch.alloc(in_channels_ * cells);
  for (std::size_t n = chunk_begin; n < chunk_end; ++n) {
    float* dw_image = training
                          ? depthwise_out_cache_.data() + n * in_channels_ * cells
                          : eval_dw.data();
    for (std::size_t c = 0; c < in_channels_; ++c) {
      const float* plane = x.data() + (n * in_channels_ + c) * h * w;
      const float* filt = dw_weight_.data() + c * kernel_ * kernel_;
      float* out_plane = dw_image + c * oh * ow;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0f;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy + ky) -
                static_cast<std::ptrdiff_t>(pad_);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox + kx) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
              acc += filt[ky * kernel_ + kx] *
                     plane[static_cast<std::size_t>(iy) * w +
                           static_cast<std::size_t>(ix)];
            }
          }
          out_plane[oy * ow + ox] = acc;
        }
      }
    }
    // Pointwise stage with fused bias:
    // out(oc x cells) = PW(oc x in) * dw(in x cells) + bias.
    tensor::gemm_ex(out_channels_, in_channels_, cells, pw_weight_.data(),
                    dw_image, out.data() + n * out_channels_ * cells, ep);
  }
  });
  return out;
}

Tensor SeparableConv2d::backward(const Tensor& grad_out) {
  const std::size_t batch = in_shape_cache_[0];
  const std::size_t h = in_shape_cache_[2], w = in_shape_cache_[3];
  const std::size_t oh = h + 2 * pad_ - kernel_ + 1;
  const std::size_t ow = w + 2 * pad_ - kernel_ + 1;
  const std::size_t cells = oh * ow;

  Tensor grad_in(in_shape_cache_);
  // Chunk-private gradient slabs for all three parameter tensors, reduced
  // in chunk order after the parallel region.
  const std::size_t chunks = tensor::intra_op_chunks(batch);
  const std::size_t pw_n = out_channels_ * in_channels_;
  const std::size_t dwf_n = in_channels_ * kernel_ * kernel_;
  tensor::ScratchScope scratch;
  std::span<float> d_pw_slabs = scratch.alloc_zeroed(chunks * pw_n);
  std::span<float> db_slabs = scratch.alloc_zeroed(chunks * out_channels_);
  std::span<float> d_dwf_slabs = scratch.alloc_zeroed(chunks * dwf_n);
  tensor::parallel_chunks(batch, [&](std::size_t chunk,
                                     std::size_t chunk_begin,
                                     std::size_t chunk_end) {
  float* d_pw = d_pw_slabs.data() + chunk * pw_n;
  float* db = db_slabs.data() + chunk * out_channels_;
  float* d_dwf = d_dwf_slabs.data() + chunk * dwf_n;
  tensor::ScratchScope local;  // this worker thread's arena
  std::span<float> d_dw_out = local.alloc(in_channels_ * cells);
  for (std::size_t n = chunk_begin; n < chunk_end; ++n) {
    const float* gout = grad_out.data() + n * out_channels_ * cells;
    const float* dw_out =
        depthwise_out_cache_.data() + n * in_channels_ * cells;
    // dPW(oc x in) += gout(oc x cells) * dw_out^T(cells x in).
    tensor::gemm_a_bt_acc(out_channels_, cells, in_channels_, gout, dw_out,
                          d_pw);
    // dBias.
    for (std::size_t oc = 0; oc < out_channels_; ++oc) {
      float acc = 0.0f;
      for (std::size_t i = 0; i < cells; ++i) acc += gout[oc * cells + i];
      db[oc] += acc;
    }
    // d_dw_out(in x cells) = PW^T(in x oc) * gout(oc x cells).
    tensor::gemm_at_b(in_channels_, out_channels_, cells, pw_weight_.data(),
                      gout, d_dw_out.data());

    // Depthwise backward per channel: filter grads (correlate input with
    // d_dw_out) and input grads (correlate d_dw_out with flipped filter).
    for (std::size_t c = 0; c < in_channels_; ++c) {
      const float* plane = input_cache_.data() + (n * in_channels_ + c) * h * w;
      const float* g = d_dw_out.data() + c * cells;
      float* filt_grad = d_dwf + c * kernel_ * kernel_;
      const float* filt = dw_weight_.data() + c * kernel_ * kernel_;
      float* in_grad = grad_in.data() + (n * in_channels_ + c) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float gv = g[oy * ow + ox];
          if (gv == 0.0f) continue;
          for (std::size_t ky = 0; ky < kernel_; ++ky) {
            const std::ptrdiff_t iy =
                static_cast<std::ptrdiff_t>(oy + ky) -
                static_cast<std::ptrdiff_t>(pad_);
            if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(h)) continue;
            for (std::size_t kx = 0; kx < kernel_; ++kx) {
              const std::ptrdiff_t ix =
                  static_cast<std::ptrdiff_t>(ox + kx) -
                  static_cast<std::ptrdiff_t>(pad_);
              if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(w)) continue;
              const std::size_t in_idx =
                  static_cast<std::size_t>(iy) * w +
                  static_cast<std::size_t>(ix);
              filt_grad[ky * kernel_ + kx] += gv * plane[in_idx];
              in_grad[in_idx] += gv * filt[ky * kernel_ + kx];
            }
          }
        }
      }
    }
  }
  });
  for (std::size_t c = 0; c < chunks; ++c) {
    tensor::axpy(1.0f, d_pw_slabs.subspan(c * pw_n, pw_n),
                 pw_weight_grad_.span());
    tensor::axpy(1.0f, db_slabs.subspan(c * out_channels_, out_channels_),
                 bias_grad_.span());
    tensor::axpy(1.0f, d_dwf_slabs.subspan(c * dwf_n, dwf_n),
                 dw_weight_grad_.span());
  }
  return grad_in;
}

std::vector<ParamSlot> SeparableConv2d::params() {
  return {{"dw_weight", &dw_weight_, &dw_weight_grad_},
          {"pw_weight", &pw_weight_, &pw_weight_grad_},
          {"bias", &bias_, &bias_grad_}};
}

std::uint64_t SeparableConv2d::flops(const Shape& in) const {
  const Shape out = output_shape(in);
  const std::uint64_t cells = out[1] * out[2];
  const std::uint64_t depthwise = cells * in_channels_ * 2 * kernel_ * kernel_;
  const std::uint64_t pointwise = cells * out_channels_ * (2 * in_channels_ + 1);
  return depthwise + pointwise;
}

util::Json SeparableConv2d::spec() const {
  util::Json j = util::Json::object();
  j["kind"] = kind();
  j["in_channels"] = in_channels_;
  j["out_channels"] = out_channels_;
  j["kernel"] = kernel_;
  j["pad"] = pad_;
  return j;
}

// --------------------------------------------------------------- AvgPool2d

AvgPool2d::AvgPool2d(std::size_t window) : window_(window) {
  if (window == 0) throw std::invalid_argument("AvgPool2d: window must be > 0");
}

Tensor AvgPool2d::forward(const Tensor& x, bool training) {
  if (x.rank() != 4)
    throw std::invalid_argument("AvgPool2d: expected NCHW input");
  const std::size_t batch = x.dim(0), ch = x.dim(1), h = x.dim(2), w = x.dim(3);
  if (h < window_ || w < window_)
    throw std::invalid_argument("AvgPool2d: input smaller than window");
  const std::size_t oh = h / window_, ow = w / window_;
  if (training) in_shape_cache_ = x.shape();
  Tensor out({batch, ch, oh, ow});
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < ch; ++c) {
      const float* plane = x.data() + (n * ch + c) * h * w;
      float* out_plane = out.data() + (n * ch + c) * oh * ow;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          float acc = 0.0f;
          for (std::size_t dy = 0; dy < window_; ++dy) {
            for (std::size_t dx = 0; dx < window_; ++dx) {
              acc += plane[(oy * window_ + dy) * w + ox * window_ + dx];
            }
          }
          out_plane[oy * ow + ox] = acc * inv;
        }
      }
    }
  }
  return out;
}

Tensor AvgPool2d::backward(const Tensor& grad_out) {
  const std::size_t batch = in_shape_cache_[0], ch = in_shape_cache_[1];
  const std::size_t h = in_shape_cache_[2], w = in_shape_cache_[3];
  const std::size_t oh = h / window_, ow = w / window_;
  Tensor grad_in(in_shape_cache_);
  const float inv = 1.0f / static_cast<float>(window_ * window_);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < ch; ++c) {
      const float* g = grad_out.data() + (n * ch + c) * oh * ow;
      float* plane = grad_in.data() + (n * ch + c) * h * w;
      for (std::size_t oy = 0; oy < oh; ++oy) {
        for (std::size_t ox = 0; ox < ow; ++ox) {
          const float gv = g[oy * ow + ox] * inv;
          for (std::size_t dy = 0; dy < window_; ++dy) {
            for (std::size_t dx = 0; dx < window_; ++dx) {
              plane[(oy * window_ + dy) * w + ox * window_ + dx] = gv;
            }
          }
        }
      }
    }
  }
  return grad_in;
}

Shape AvgPool2d::output_shape(const Shape& in) const {
  if (in.size() != 3)
    throw std::invalid_argument("AvgPool2d::output_shape: expected CHW");
  return {in[0], in[1] / window_, in[2] / window_};
}

std::uint64_t AvgPool2d::flops(const Shape& in) const {
  return tensor::shape_numel(in);
}

util::Json AvgPool2d::spec() const {
  util::Json j = util::Json::object();
  j["kind"] = kind();
  j["window"] = window_;
  return j;
}

}  // namespace a4nn::nn
