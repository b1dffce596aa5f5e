#include "nn/layers.hpp"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "tensor/parallel.hpp"
#include "tensor/scratch.hpp"

namespace a4nn::nn {

const char* activation_name(Activation a) {
  return a == Activation::kRelu ? "relu" : "none";
}

Activation activation_from_name(const std::string& name) {
  if (name == "relu") return Activation::kRelu;
  if (name == "none") return Activation::kNone;
  throw std::invalid_argument("unknown activation '" + name + "'");
}

util::Json tensor_to_json(const Tensor& t) {
  util::Json j = util::Json::object();
  util::JsonArray shape;
  for (std::size_t d : t.shape()) shape.emplace_back(d);
  j["shape"] = util::Json(std::move(shape));
  util::JsonArray data;
  data.reserve(t.numel());
  for (std::size_t i = 0; i < t.numel(); ++i)
    data.emplace_back(static_cast<double>(t[i]));
  j["data"] = util::Json(std::move(data));
  return j;
}

Tensor tensor_from_json(const util::Json& j) {
  Shape shape;
  for (const auto& d : j.at("shape").as_array())
    shape.push_back(static_cast<std::size_t>(d.as_int()));
  const auto& arr = j.at("data").as_array();
  std::vector<float> data;
  data.reserve(arr.size());
  for (const auto& v : arr) data.push_back(static_cast<float>(v.as_number()));
  return Tensor(std::move(shape), std::move(data));
}

util::Json Layer::weights() const {
  util::Json j = util::Json::object();
  // state() hands out mutable views; nothing is written through them here.
  for (const auto& slot : const_cast<Layer*>(this)->state())
    j[slot.name] = tensor_to_json(*slot.value);
  return j;
}

void Layer::load_weights(const util::Json& w) {
  std::vector<Tensor> tensors;
  for (const auto& slot : state())
    tensors.push_back(tensor_from_json(w.at(slot.name)));
  load_state(*this, std::move(tensors));
}

void load_state(Layer& layer, std::vector<Tensor> tensors) {
  auto slots = layer.state();
  if (tensors.size() != slots.size())
    throw std::invalid_argument(
        layer.kind() + "::load_weights: " + std::to_string(tensors.size()) +
        " tensor(s) for " + std::to_string(slots.size()) + " state slot(s)");
  for (std::size_t i = 0; i < slots.size(); ++i)
    if (!tensors[i].same_shape(*slots[i].value))
      throw std::invalid_argument(layer.kind() + "::load_weights: shape " +
                                  tensor::shape_to_string(tensors[i].shape()) +
                                  " for " + slots[i].name + " " +
                                  tensor::shape_to_string(
                                      slots[i].value->shape()));
  for (std::size_t i = 0; i < slots.size(); ++i)
    *slots[i].value = std::move(tensors[i]);
}

namespace {

void check_rank4(const Shape& s, const char* who) {
  if (s.size() != 4)
    throw std::invalid_argument(std::string(who) + ": expected NCHW input, got " +
                                tensor::shape_to_string(s));
}

// dL/d(pre-activation) for a layer with a fused ReLU: the cached output is
// the post-ReLU value, so out > 0 marks exactly the pass-through entries.
Tensor relu_masked_grad(const Tensor& grad_out, const Tensor& output) {
  Tensor masked(grad_out.shape());
  for (std::size_t i = 0; i < grad_out.numel(); ++i)
    masked[i] = output[i] > 0.0f ? grad_out[i] : 0.0f;
  return masked;
}

}  // namespace

// ---------------------------------------------------------------- Conv2d

Conv2d::Conv2d(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, std::size_t pad,
               util::Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad) {
  if (in_channels == 0 || out_channels == 0 || kernel == 0 || stride == 0)
    throw std::invalid_argument("Conv2d: zero-sized configuration");
  const std::size_t patch = in_channels * kernel * kernel;
  weight_ = Tensor::he_init({out_channels, patch}, patch, rng);
  weight_grad_ = Tensor::zeros({out_channels, patch});
  bias_ = Tensor::zeros({out_channels});
  bias_grad_ = Tensor::zeros({out_channels});
}

tensor::ConvGeometry Conv2d::geometry(const Shape& in) const {
  tensor::ConvGeometry g;
  g.in_channels = in_channels_;
  g.in_h = in[in.size() - 2];
  g.in_w = in[in.size() - 1];
  g.kernel = kernel_;
  g.stride = stride_;
  g.pad = pad_;
  g.validate();  // reject degenerate geometries before any kernel runs
  return g;
}

Tensor Conv2d::forward(const Tensor& x, bool training) {
  check_rank4(x.shape(), "Conv2d");
  if (x.dim(1) != in_channels_)
    throw std::invalid_argument("Conv2d: channel mismatch");
  const std::size_t batch = x.dim(0);
  const auto g = geometry(x.shape());
  const std::size_t cols = g.out_h() * g.out_w();
  const std::size_t image_size = in_channels_ * g.in_h * g.in_w;

  Tensor out({batch, out_channels_, g.out_h(), g.out_w()});
  tensor::Epilogue ep;
  ep.bias = tensor::Epilogue::Bias::kPerRow;  // row = output channel
  ep.bias_data = bias_.data();
  ep.relu = act_ == Activation::kRelu;
  if (training) {
    // The lane cache persists until backward; the vector reuses its
    // capacity across batches and the forward overwrites every entry.
    in_shape_cache_ = x.shape();
    input_cache_.resize(tensor::conv2d_train_cache_size(g, batch));
    tensor::conv2d_train_forward(g, batch, out_channels_, weight_.data(),
                                 x.data(), out.data(), ep, input_cache_);
    output_cache_ = act_ != Activation::kNone ? out : Tensor();
    return out;
  }
  // Images write disjoint output slices, so chunking is free of races and
  // the fixed partition keeps results thread-count independent.
  // conv2d_forward_direct packs image tiles straight into the GEMM panels
  // for viable geometries and falls back to a scratch-arena im2col
  // otherwise — bit-identical either way (see ops.hpp).
  tensor::parallel_chunks(batch, [&](std::size_t, std::size_t begin,
                                     std::size_t end) {
    for (std::size_t n = begin; n < end; ++n)
      tensor::conv2d_forward_direct(
          g, out_channels_, weight_.data(),
          {x.data() + n * image_size, image_size},
          out.data() + n * out_channels_ * cols, ep);
  });
  return out;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  Tensor grad_in(in_shape_cache_);
  backward_into(grad_out, grad_in.data());
  return grad_in;
}

void Conv2d::backward_params(const Tensor& grad_out) {
  backward_into(grad_out, nullptr);
}

void Conv2d::backward_into(const Tensor& grad_out, float* grad_in) {
  const Shape& in = in_shape_cache_;
  const auto g = geometry(in);
  if (grad_out.numel() != in[0] * out_channels_ * g.out_h() * g.out_w())
    throw std::invalid_argument("Conv2d::backward: gradient shape mismatch");
  tensor::conv2d_train_backward(
      g, in[0], out_channels_, weight_.data(), input_cache_, grad_out.data(),
      act_ == Activation::kRelu ? output_cache_.data() : nullptr,
      weight_grad_.data(), bias_grad_.data(), grad_in);
}

std::vector<ParamSlot> Conv2d::params() {
  return {{"weight", &weight_, &weight_grad_},
          {"bias", &bias_, &bias_grad_}};
}

Shape Conv2d::output_shape(const Shape& in) const {
  // Accepts (C,H,W); batch dim is handled by callers.
  if (in.size() != 3)
    throw std::invalid_argument("Conv2d::output_shape: expected CHW");
  tensor::ConvGeometry g;
  g.in_channels = in_channels_;
  g.in_h = in[1];
  g.in_w = in[2];
  g.kernel = kernel_;
  g.stride = stride_;
  g.pad = pad_;
  g.validate();
  return {out_channels_, g.out_h(), g.out_w()};
}

std::uint64_t Conv2d::flops(const Shape& in) const {
  const Shape out = output_shape(in);
  const std::uint64_t cells = out[1] * out[2];
  const std::uint64_t patch = in_channels_ * kernel_ * kernel_;
  // 2 FLOPs per MAC plus one add for the bias; a fused ReLU costs what the
  // standalone layer it replaced did.
  return cells * out_channels_ *
         (2 * patch + 1 + (act_ == Activation::kRelu ? 1 : 0));
}

util::Json Conv2d::spec() const {
  util::Json j = util::Json::object();
  j["kind"] = kind();
  j["in_channels"] = in_channels_;
  j["out_channels"] = out_channels_;
  j["kernel"] = kernel_;
  j["stride"] = stride_;
  j["pad"] = pad_;
  if (act_ != Activation::kNone) j["activation"] = activation_name(act_);
  return j;
}

// ---------------------------------------------------------------- Linear

Linear::Linear(std::size_t in_features, std::size_t out_features,
               util::Rng& rng)
    : in_features_(in_features), out_features_(out_features) {
  if (in_features == 0 || out_features == 0)
    throw std::invalid_argument("Linear: zero-sized configuration");
  weight_ =
      Tensor::xavier_init({out_features, in_features}, in_features,
                          out_features, rng);
  weight_grad_ = Tensor::zeros({out_features, in_features});
  bias_ = Tensor::zeros({out_features});
  bias_grad_ = Tensor::zeros({out_features});
}

Tensor Linear::forward(const Tensor& x, bool training) {
  if (x.rank() != 2 || x.dim(1) != in_features_)
    throw std::invalid_argument("Linear: expected (N x " +
                                std::to_string(in_features_) + ") input, got " +
                                tensor::shape_to_string(x.shape()));
  if (training) input_cache_ = x;
  const std::size_t batch = x.dim(0);
  Tensor out({batch, out_features_});
  tensor::Epilogue ep;
  ep.bias = tensor::Epilogue::Bias::kPerCol;  // column = output feature
  ep.bias_data = bias_.data();
  ep.relu = act_ == Activation::kRelu;
  // out(N x out) = act(x(N x in) * W^T(in x out) + bias). A row's value is
  // independent of the row blocking (gemm's small/blocked choice and
  // k-accumulation ignore m), so the split is a pure scheduling decision:
  // training chunks rows for intra-op parallelism; inference issues one
  // whole-batch call so every weight tile is reused across the micro-batch
  // — the GEMM runs ~10x faster per row at m=32 than at m=1.
  if (training) {
    tensor::parallel_chunks(batch, [&](std::size_t, std::size_t begin,
                                       std::size_t end) {
      tensor::gemm_a_bt_ex(end - begin, in_features_, out_features_,
                           x.data() + begin * in_features_, weight_.data(),
                           out.data() + begin * out_features_, ep);
    });
  } else {
    tensor::gemm_a_bt_ex(batch, in_features_, out_features_, x.data(),
                         weight_.data(), out.data(), ep);
  }
  if (training)
    output_cache_ = act_ != Activation::kNone ? out : Tensor();
  return out;
}

Tensor Linear::backward(const Tensor& grad_out) {
  const std::size_t batch = input_cache_.dim(0);
  const Tensor* gsrc = &grad_out;
  Tensor masked;
  if (act_ == Activation::kRelu) {
    masked = relu_masked_grad(grad_out, output_cache_);
    gsrc = &masked;
  }

  const std::size_t chunks = tensor::intra_op_chunks(batch);
  tensor::ScratchScope scratch;
  std::span<float> dw_slabs =
      scratch.alloc_zeroed(chunks * out_features_ * in_features_);
  std::span<float> db_slabs = scratch.alloc_zeroed(chunks * out_features_);
  Tensor grad_in({batch, in_features_});
  tensor::parallel_chunks(batch, [&](std::size_t c, std::size_t begin,
                                     std::size_t end) {
    const std::size_t rows = end - begin;
    // dW(out x in) += gout^T(out x rows) * x(rows x in)
    tensor::gemm_at_b_acc(out_features_, rows, in_features_,
                          gsrc->data() + begin * out_features_,
                          input_cache_.data() + begin * in_features_,
                          dw_slabs.data() + c * out_features_ * in_features_);
    float* db = db_slabs.data() + c * out_features_;
    for (std::size_t n = begin; n < end; ++n) {
      const float* row = gsrc->data() + n * out_features_;
      for (std::size_t j = 0; j < out_features_; ++j) db[j] += row[j];
    }
    // dx(rows x in) = gout(rows x out) * W(out x in)
    tensor::gemm(rows, out_features_, in_features_,
                 gsrc->data() + begin * out_features_, weight_.data(),
                 grad_in.data() + begin * in_features_);
  });
  for (std::size_t c = 0; c < chunks; ++c) {
    tensor::axpy(1.0f, dw_slabs.subspan(c * out_features_ * in_features_,
                                        out_features_ * in_features_),
                 weight_grad_.span());
    tensor::axpy(1.0f, db_slabs.subspan(c * out_features_, out_features_),
                 bias_grad_.span());
  }
  return grad_in;
}

std::vector<ParamSlot> Linear::params() {
  return {{"weight", &weight_, &weight_grad_},
          {"bias", &bias_, &bias_grad_}};
}

Shape Linear::output_shape(const Shape& in) const {
  if (in.size() != 1 || in[0] != in_features_)
    throw std::invalid_argument("Linear::output_shape: feature mismatch");
  return {out_features_};
}

std::uint64_t Linear::flops(const Shape& in) const {
  // Same contract as output_shape: a FLOPs walk that hands this layer the
  // wrong feature count is a wiring bug upstream; silently returning the
  // weight-matrix cost would hide it from the accounting.
  if (in.size() != 1 || in[0] != in_features_)
    throw std::invalid_argument("Linear::flops: feature mismatch");
  return static_cast<std::uint64_t>(out_features_) *
         (2 * in_features_ + 1 + (act_ == Activation::kRelu ? 1 : 0));
}

util::Json Linear::spec() const {
  util::Json j = util::Json::object();
  j["kind"] = kind();
  j["in_features"] = in_features_;
  j["out_features"] = out_features_;
  if (act_ != Activation::kNone) j["activation"] = activation_name(act_);
  return j;
}

// ---------------------------------------------------------------- ReLU

Tensor ReLU::forward(const Tensor& x, bool training) {
  if (training) input_cache_ = x;
  Tensor out(x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i)
    out[i] = x[i] > 0.0f ? x[i] : 0.0f;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  Tensor grad_in(grad_out.shape());
  for (std::size_t i = 0; i < grad_out.numel(); ++i)
    grad_in[i] = input_cache_[i] > 0.0f ? grad_out[i] : 0.0f;
  return grad_in;
}

std::uint64_t ReLU::flops(const Shape& in) const {
  return tensor::shape_numel(in);
}

util::Json ReLU::spec() const {
  util::Json j = util::Json::object();
  j["kind"] = kind();
  return j;
}

// ---------------------------------------------------------------- MaxPool2d

MaxPool2d::MaxPool2d(std::size_t window) : window_(window) {
  if (window == 0) throw std::invalid_argument("MaxPool2d: window must be > 0");
}

namespace {

template <std::size_t NL>
struct PoolLanes;
template <>
struct PoolLanes<4> {
  typedef float vf __attribute__((vector_size(16)));
  typedef std::int32_t vi __attribute__((vector_size(16)));
};
template <>
struct PoolLanes<8> {
  typedef float vf __attribute__((vector_size(32)));
  typedef std::int32_t vi __attribute__((vector_size(32)));
};

// Max and first argmax of NL consecutive 2x2 windows of one output row
// (lane l = output ox0 + l; row0 is the top-left input of output ox0),
// with vector compares and selects: on random data the winner's position
// is unpredictable, so a branch per cell mispredicts. Each lane scans its
// window row-major; strict > keeps the first maximum, and a NaN never
// compares greater, so it neither wins nor is replaced.
template <std::size_t NL, std::size_t... J>
void max_pool2_lanes(const float* row0, std::size_t w, std::size_t offset,
                     float* out, std::size_t* argmax,
                     std::index_sequence<J...>) {
  using vf = typename PoolLanes<NL>::vf;
  using vi = typename PoolLanes<NL>::vi;
  vf best;
  vi which = {};  // scan position of the current maximum, 0..3
  for (std::size_t dy = 0; dy < 2; ++dy) {
    vf a, b;
    std::memcpy(&a, row0 + dy * w, sizeof a);
    std::memcpy(&b, row0 + dy * w + NL, sizeof b);
    const vf left = __builtin_shufflevector(a, b, (2 * J)...);
    const vf right = __builtin_shufflevector(a, b, (2 * J + 1)...);
    const std::int32_t pos = static_cast<std::int32_t>(2 * dy);
    if (dy == 0) {
      best = left;
    } else {
      const vi greater = left > best;
      best = greater ? left : best;
      which = greater ? vi{} + pos : which;
    }
    const vi greater = right > best;
    best = greater ? right : best;
    which = greater ? vi{} + (pos + 1) : which;
  }
  std::memcpy(out, &best, sizeof best);
  if (argmax)
    for (std::size_t l = 0; l < NL; ++l)
      argmax[l] = offset + static_cast<std::size_t>(which[l] / 2) * w + 2 * l +
                  static_cast<std::size_t>(which[l] % 2);
}

// Max and first argmax of each window of one plane, scanned row-major
// with the same rule. 2x2 windows (the search space's pool) run NL-wide
// lanes along each output row; the rest run one window at a time.
void max_pool_plane(const float* plane, std::size_t k, std::size_t w,
                    std::size_t oh, std::size_t ow, std::size_t plane_offset,
                    float* out, std::size_t* argmax) {
  for (std::size_t oy = 0; oy < oh; ++oy) {
    std::size_t ox = 0;
    auto lanes = [&]<std::size_t NL>() {
      for (; ox + NL <= ow; ox += NL) {
        const std::size_t first = oy * k * w + ox * k;
        max_pool2_lanes<NL>(plane + first, w, plane_offset + first,
                            out + oy * ow + ox,
                            argmax ? argmax + oy * ow + ox : nullptr,
                            std::make_index_sequence<NL>{});
      }
    };
    if (k == 2) {
      lanes.template operator()<8>();
      lanes.template operator()<4>();
    }
    for (; ox < ow; ++ox) {
      const std::size_t first = oy * k * w + ox * k;
      float best = plane[first];
      std::size_t best_idx = first;
      for (std::size_t dy = 0; dy < k; ++dy) {
        for (std::size_t dx = 0; dx < k; ++dx) {
          const std::size_t idx = first + dy * w + dx;
          const bool greater = plane[idx] > best;
          best = greater ? plane[idx] : best;
          best_idx = greater ? idx : best_idx;
        }
      }
      out[oy * ow + ox] = best;
      if (argmax) argmax[oy * ow + ox] = plane_offset + best_idx;
    }
  }
}

}  // namespace

Tensor MaxPool2d::forward(const Tensor& x, bool training) {
  check_rank4(x.shape(), "MaxPool2d");
  const std::size_t batch = x.dim(0), ch = x.dim(1), h = x.dim(2), w = x.dim(3);
  if (h < window_ || w < window_)
    throw std::invalid_argument("MaxPool2d: input smaller than window");
  const std::size_t oh = h / window_, ow = w / window_;
  if (training) {
    in_shape_cache_ = x.shape();
    argmax_cache_.resize(batch * ch * oh * ow);  // every entry is written
  }
  Tensor out({batch, ch, oh, ow});
  for (std::size_t p = 0; p < batch * ch; ++p)
    max_pool_plane(x.data() + p * h * w, window_, w, oh, ow, p * h * w,
                   out.data() + p * oh * ow,
                   training ? argmax_cache_.data() + p * oh * ow : nullptr);
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_out) {
  Tensor grad_in(in_shape_cache_);
  for (std::size_t i = 0; i < grad_out.numel(); ++i)
    grad_in[argmax_cache_[i]] += grad_out[i];
  return grad_in;
}

Shape MaxPool2d::output_shape(const Shape& in) const {
  if (in.size() != 3)
    throw std::invalid_argument("MaxPool2d::output_shape: expected CHW");
  return {in[0], in[1] / window_, in[2] / window_};
}

std::uint64_t MaxPool2d::flops(const Shape& in) const {
  // One comparison per window cell.
  return tensor::shape_numel(in);
}

util::Json MaxPool2d::spec() const {
  util::Json j = util::Json::object();
  j["kind"] = kind();
  j["window"] = window_;
  return j;
}

// ---------------------------------------------------------------- GlobalAvgPool

Tensor GlobalAvgPool::forward(const Tensor& x, bool training) {
  check_rank4(x.shape(), "GlobalAvgPool");
  const std::size_t batch = x.dim(0), ch = x.dim(1), hw = x.dim(2) * x.dim(3);
  if (training) in_shape_cache_ = x.shape();
  Tensor out({batch, ch});
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < ch; ++c) {
      const float* plane = x.data() + (n * ch + c) * hw;
      float acc = 0.0f;
      for (std::size_t i = 0; i < hw; ++i) acc += plane[i];
      out[n * ch + c] = acc / static_cast<float>(hw);
    }
  }
  return out;
}

Tensor GlobalAvgPool::backward(const Tensor& grad_out) {
  const std::size_t batch = in_shape_cache_[0], ch = in_shape_cache_[1];
  const std::size_t hw = in_shape_cache_[2] * in_shape_cache_[3];
  Tensor grad_in(in_shape_cache_);
  for (std::size_t n = 0; n < batch; ++n) {
    for (std::size_t c = 0; c < ch; ++c) {
      const float g = grad_out[n * ch + c] / static_cast<float>(hw);
      float* plane = grad_in.data() + (n * ch + c) * hw;
      for (std::size_t i = 0; i < hw; ++i) plane[i] = g;
    }
  }
  return grad_in;
}

Shape GlobalAvgPool::output_shape(const Shape& in) const {
  if (in.size() != 3)
    throw std::invalid_argument("GlobalAvgPool::output_shape: expected CHW");
  return {in[0]};
}

std::uint64_t GlobalAvgPool::flops(const Shape& in) const {
  return tensor::shape_numel(in);
}

util::Json GlobalAvgPool::spec() const {
  util::Json j = util::Json::object();
  j["kind"] = kind();
  return j;
}

// ---------------------------------------------------------------- Flatten

Tensor Flatten::forward(const Tensor& x, bool training) {
  if (training) in_shape_cache_ = x.shape();
  return x.reshaped({x.dim(0), x.numel() / x.dim(0)});
}

Tensor Flatten::backward(const Tensor& grad_out) {
  return grad_out.reshaped(in_shape_cache_);
}

Shape Flatten::output_shape(const Shape& in) const {
  return {tensor::shape_numel(in)};
}

util::Json Flatten::spec() const {
  util::Json j = util::Json::object();
  j["kind"] = kind();
  return j;
}

// ---------------------------------------------------------------- Dropout

Dropout::Dropout(double rate, std::uint64_t seed) : rate_(rate), rng_(seed) {
  if (rate < 0.0 || rate >= 1.0)
    throw std::invalid_argument("Dropout: rate must be in [0, 1)");
}

Tensor Dropout::forward(const Tensor& x, bool training) {
  // Inference is the identity and touches no state: the layer's RNG stream
  // and mask cache only ever advance in training mode, so serving traffic
  // can never perturb a concurrent or subsequent training pass.
  if (!training) return x;
  if (rate_ == 0.0) {
    mask_cache_ = Tensor();
    return x;
  }
  const float keep = static_cast<float>(1.0 - rate_);
  mask_cache_ = Tensor(x.shape());
  Tensor out(x.shape());
  for (std::size_t i = 0; i < x.numel(); ++i) {
    const float m = rng_.bernoulli(1.0 - rate_) ? 1.0f / keep : 0.0f;
    mask_cache_[i] = m;
    out[i] = x[i] * m;
  }
  return out;
}

Tensor Dropout::backward(const Tensor& grad_out) {
  if (mask_cache_.numel() == 0) return grad_out;
  Tensor grad_in(grad_out.shape());
  for (std::size_t i = 0; i < grad_out.numel(); ++i)
    grad_in[i] = grad_out[i] * mask_cache_[i];
  return grad_in;
}

std::uint64_t Dropout::flops(const Shape& in) const {
  return tensor::shape_numel(in);
}

util::Json Dropout::spec() const {
  util::Json j = util::Json::object();
  j["kind"] = kind();
  j["rate"] = rate_;
  return j;
}

// ---------------------------------------------------------------- BatchNorm2d

BatchNorm2d::BatchNorm2d(std::size_t channels, double momentum, double eps)
    : channels_(channels), momentum_(momentum), eps_(eps) {
  if (channels == 0) throw std::invalid_argument("BatchNorm2d: zero channels");
  gamma_ = Tensor::full({channels}, 1.0f);
  gamma_grad_ = Tensor::zeros({channels});
  beta_ = Tensor::zeros({channels});
  beta_grad_ = Tensor::zeros({channels});
  running_mean_ = Tensor::zeros({channels});
  running_var_ = Tensor::full({channels}, 1.0f);
}

Tensor BatchNorm2d::forward(const Tensor& x, bool training) {
  check_rank4(x.shape(), "BatchNorm2d");
  if (x.dim(1) != channels_)
    throw std::invalid_argument("BatchNorm2d: channel mismatch");
  const std::size_t batch = x.dim(0), hw = x.dim(2) * x.dim(3);
  Tensor out(x.shape());

  if (!training) {
    // Inference normalizes each sample against the frozen running
    // statistics — per-sample, so the result is batch-size invariant —
    // and writes no caches (running stats are read-only here).
    for (std::size_t c = 0; c < channels_; ++c) {
      const double mean_c = running_mean_[c];
      const double inv_std = 1.0 / std::sqrt(running_var_[c] + eps_);
      const float g = gamma_[c], b = beta_[c];
      for (std::size_t n = 0; n < batch; ++n) {
        const float* in_plane = x.data() + (n * channels_ + c) * hw;
        float* out_plane = out.data() + (n * channels_ + c) * hw;
        for (std::size_t i = 0; i < hw; ++i) {
          const float xhat =
              static_cast<float>((in_plane[i] - mean_c) * inv_std);
          out_plane[i] = g * xhat + b;
        }
      }
    }
    return out;
  }

  // The batch statistics, normalize pass and their backward run as the
  // channel-lane kernels (tensor/ops.hpp), bit-identical to one sequential
  // double chain per channel.
  in_shape_cache_ = x.shape();
  batch_mean_.assign(channels_, 0.0);
  batch_inv_std_.assign(channels_, 0.0);
  if (!xhat_cache_.same_shape(x)) xhat_cache_ = Tensor(x.shape());
  // batch_inv_std_ holds each channel's variance until it is inverted below.
  tensor::batchnorm_train_stats(batch, channels_, hw, x.data(),
                                batch_mean_.data(), batch_inv_std_.data());
  for (std::size_t c = 0; c < channels_; ++c) {
    const double mean_c = batch_mean_[c];
    const double var_c = batch_inv_std_[c];
    running_mean_[c] = static_cast<float>((1.0 - momentum_) * running_mean_[c] +
                                          momentum_ * mean_c);
    running_var_[c] = static_cast<float>((1.0 - momentum_) * running_var_[c] +
                                         momentum_ * var_c);
    batch_inv_std_[c] = 1.0 / std::sqrt(var_c + eps_);
  }
  tensor::batchnorm_train_normalize(batch, channels_, hw, x.data(),
                                    batch_mean_.data(), batch_inv_std_.data(),
                                    gamma_.data(), beta_.data(),
                                    xhat_cache_.data(), out.data());
  return out;
}

Tensor BatchNorm2d::backward(const Tensor& grad_out) {
  const std::size_t batch = in_shape_cache_[0];
  const std::size_t hw = in_shape_cache_[2] * in_shape_cache_[3];
  Tensor grad_in(in_shape_cache_);
  std::vector<double> sum_dy(channels_), sum_dy_xhat(channels_);
  tensor::batchnorm_train_grad_sums(batch, channels_, hw, grad_out.data(),
                                    xhat_cache_.data(), sum_dy.data(),
                                    sum_dy_xhat.data());
  for (std::size_t c = 0; c < channels_; ++c) {
    gamma_grad_[c] += static_cast<float>(sum_dy_xhat[c]);
    beta_grad_[c] += static_cast<float>(sum_dy[c]);
  }
  tensor::batchnorm_train_grad_input(batch, channels_, hw, grad_out.data(),
                                     xhat_cache_.data(), gamma_.data(),
                                     batch_inv_std_.data(), sum_dy.data(),
                                     sum_dy_xhat.data(), grad_in.data());
  return grad_in;
}

std::vector<ParamSlot> BatchNorm2d::params() {
  return {{"gamma", &gamma_, &gamma_grad_}, {"beta", &beta_, &beta_grad_}};
}

std::uint64_t BatchNorm2d::flops(const Shape& in) const {
  // Two passes over the data plus normalization: ~4 FLOPs per element.
  return 4 * tensor::shape_numel(in);
}

util::Json BatchNorm2d::spec() const {
  util::Json j = util::Json::object();
  j["kind"] = kind();
  j["channels"] = channels_;
  j["momentum"] = momentum_;
  j["eps"] = eps_;
  return j;
}

std::vector<ParamSlot> BatchNorm2d::state() {
  auto slots = params();
  slots.push_back({"running_mean", &running_mean_, nullptr});
  slots.push_back({"running_var", &running_var_, nullptr});
  return slots;
}

}  // namespace a4nn::nn
