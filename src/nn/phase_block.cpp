#include "nn/phase_block.hpp"

#include <stdexcept>

#include "nn/layers_extra.hpp"

namespace a4nn::nn {

const char* node_op_name(NodeOp op) {
  switch (op) {
    case NodeOp::kConv3x3: return "conv3x3";
    case NodeOp::kSepConv3x3: return "sepconv3x3";
    case NodeOp::kConv1x1: return "conv1x1";
    case NodeOp::kSepConv5x5: return "sepconv5x5";
  }
  return "?";
}

namespace {

LayerPtr make_node_op(NodeOp op, std::size_t channels, util::Rng& rng) {
  switch (op) {
    case NodeOp::kConv3x3:
      return std::make_unique<Conv2d>(channels, channels, 3, 1, 1, rng);
    case NodeOp::kSepConv3x3:
      return std::make_unique<SeparableConv2d>(channels, channels, 3, 1, rng);
    case NodeOp::kConv1x1:
      return std::make_unique<Conv2d>(channels, channels, 1, 1, 0, rng);
    case NodeOp::kSepConv5x5:
      return std::make_unique<SeparableConv2d>(channels, channels, 5, 2, rng);
  }
  throw std::invalid_argument("make_node_op: unknown op code");
}

}  // namespace

PhaseBlock::PhaseBlock(PhaseSpec spec, std::size_t channels, util::Rng& rng)
    : spec_(std::move(spec)), channels_(channels) {
  if (spec_.nodes == 0)
    throw std::invalid_argument("PhaseBlock: need at least one node");
  if (spec_.bits.size() != PhaseSpec::bits_for_nodes(spec_.nodes))
    throw std::invalid_argument("PhaseBlock: wrong connectivity bit count");
  if (!spec_.node_ops.empty() && spec_.node_ops.size() != spec_.nodes)
    throw std::invalid_argument("PhaseBlock: wrong node_ops count");

  // A node participates if it touches at least one edge; isolated nodes are
  // pruned (NSGA-Net semantics). An all-zero phase is repaired to a single
  // default node so every phase computes something.
  active_.assign(spec_.nodes, false);
  for (std::size_t j = 1; j < spec_.nodes; ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      if (spec_.edge(i, j)) {
        active_[i] = true;
        active_[j] = true;
      }
    }
  }
  bool any_active = false;
  for (bool a : active_) any_active |= a;
  if (!any_active) active_[0] = true;

  nodes_.resize(spec_.nodes);
  for (std::size_t j = 0; j < spec_.nodes; ++j) {
    if (!active_[j]) continue;
    nodes_[j].op = make_node_op(spec_.op_of(j), channels_, rng);
    nodes_[j].bn = std::make_unique<BatchNorm2d>(channels_);
    nodes_[j].relu = std::make_unique<ReLU>();
  }
}

std::vector<std::size_t> PhaseBlock::node_inputs(std::size_t j) const {
  std::vector<std::size_t> in;
  for (std::size_t i = 0; i < j; ++i) {
    if (active_[i] && spec_.edge(i, j)) in.push_back(i);
  }
  return in;
}

std::vector<bool> PhaseBlock::consumed_flags() const {
  std::vector<bool> consumed(spec_.nodes, false);
  for (std::size_t j = 1; j < spec_.nodes; ++j) {
    if (!active_[j]) continue;
    for (std::size_t i : node_inputs(j)) consumed[i] = true;
  }
  return consumed;
}

std::size_t PhaseBlock::active_nodes() const {
  std::size_t n = 0;
  for (bool a : active_) n += a ? 1 : 0;
  return n;
}

Tensor PhaseBlock::forward(const Tensor& x, bool training) {
  // Inference keeps the node dataflow in a local buffer so the member
  // caches (needed only by backward) stay untouched — see Layer::forward's
  // purity contract.
  std::vector<Tensor> local_out;
  std::vector<Tensor>& node_out =
      training ? node_out_cache_ : local_out;
  if (training) input_cache_ = x;
  node_out.assign(spec_.nodes, Tensor());
  for (std::size_t j = 0; j < spec_.nodes; ++j) {
    if (!active_[j]) continue;
    const auto inputs = node_inputs(j);
    Tensor node_in;
    if (inputs.empty()) {
      node_in = x;
    } else {
      node_in = node_out[inputs[0]];
      for (std::size_t k = 1; k < inputs.size(); ++k)
        node_in = tensor::add(node_in, node_out[inputs[k]]);
    }
    Tensor h = nodes_[j].op->forward(node_in, training);
    h = nodes_[j].bn->forward(h, training);
    node_out[j] = nodes_[j].relu->forward(h, training);
  }

  const auto consumed = consumed_flags();
  Tensor out;
  bool have_out = false;
  for (std::size_t j = 0; j < spec_.nodes; ++j) {
    if (!active_[j] || consumed[j]) continue;
    if (!have_out) {
      out = node_out[j];
      have_out = true;
    } else {
      out = tensor::add(out, node_out[j]);
    }
  }
  if (!have_out) out = x;  // unreachable after repair, kept for safety
  if (spec_.skip) out = tensor::add(out, x);
  return out;
}

Tensor PhaseBlock::backward(const Tensor& grad_out) {
  const auto consumed = consumed_flags();
  // Per-node output gradients, accumulated from the phase output and from
  // every later node that consumed this node.
  std::vector<Tensor> node_grad(spec_.nodes);
  Tensor input_grad(input_cache_.shape());

  auto accumulate = [](Tensor& dst, const Tensor& src) {
    if (dst.numel() == 0) {
      dst = src;
    } else {
      dst = tensor::add(dst, src);
    }
  };

  for (std::size_t j = 0; j < spec_.nodes; ++j) {
    if (active_[j] && !consumed[j]) accumulate(node_grad[j], grad_out);
  }
  if (spec_.skip) input_grad = tensor::add(input_grad, grad_out);

  for (std::size_t jj = spec_.nodes; jj-- > 0;) {
    if (!active_[jj] || node_grad[jj].numel() == 0) continue;
    Tensor g = nodes_[jj].relu->backward(node_grad[jj]);
    g = nodes_[jj].bn->backward(g);
    g = nodes_[jj].op->backward(g);
    const auto inputs = node_inputs(jj);
    if (inputs.empty()) {
      input_grad = tensor::add(input_grad, g);
    } else {
      for (std::size_t i : inputs) accumulate(node_grad[i], g);
    }
  }
  return input_grad;
}

std::vector<ParamSlot> PhaseBlock::params() {
  return node_slots(&Layer::params);
}

std::vector<ParamSlot> PhaseBlock::state() { return node_slots(&Layer::state); }

std::vector<ParamSlot> PhaseBlock::node_slots(
    std::vector<ParamSlot> (Layer::*slots)()) {
  std::vector<ParamSlot> out;
  for (std::size_t j = 0; j < spec_.nodes; ++j) {
    if (!active_[j]) continue;
    for (auto* layer :
         std::initializer_list<Layer*>{nodes_[j].op.get(), nodes_[j].bn.get()}) {
      for (auto& p : (layer->*slots)()) {
        p.name = "node" + std::to_string(j) + "." + p.name;
        out.push_back(p);
      }
    }
  }
  return out;
}

std::uint64_t PhaseBlock::flops(const Shape& in) const {
  std::uint64_t total = 0;
  for (std::size_t j = 0; j < spec_.nodes; ++j) {
    if (!active_[j]) continue;
    total += nodes_[j].op->flops(in);
    total += nodes_[j].bn->flops(in);
    total += nodes_[j].relu->flops(in);
  }
  // Elementwise additions for fan-in sums and skip connection.
  total += tensor::shape_numel(in) * (active_nodes() + (spec_.skip ? 1 : 0));
  return total;
}

util::Json PhaseBlock::spec() const {
  util::Json j = util::Json::object();
  j["kind"] = kind();
  j["nodes"] = spec_.nodes;
  j["channels"] = channels_;
  util::JsonArray bits;
  for (bool b : spec_.bits) bits.emplace_back(b);
  j["bits"] = util::Json(std::move(bits));
  j["skip"] = spec_.skip;
  if (!spec_.node_ops.empty()) {
    util::JsonArray ops;
    for (NodeOp op : spec_.node_ops)
      ops.emplace_back(static_cast<std::int64_t>(op));
    j["node_ops"] = util::Json(std::move(ops));
  }
  return j;
}

util::Json PhaseBlock::weights() const {
  util::Json j = util::Json::object();
  for (std::size_t n = 0; n < spec_.nodes; ++n) {
    if (!active_[n]) continue;
    util::Json node = util::Json::object();
    node["op"] = nodes_[n].op->weights();
    node["bn"] = nodes_[n].bn->weights();
    j["node" + std::to_string(n)] = std::move(node);
  }
  return j;
}

void PhaseBlock::load_weights(const util::Json& w) {
  for (std::size_t n = 0; n < spec_.nodes; ++n) {
    if (!active_[n]) continue;
    const auto& node = w.at("node" + std::to_string(n));
    nodes_[n].op->load_weights(node.at("op"));
    nodes_[n].bn->load_weights(node.at("bn"));
  }
}

}  // namespace a4nn::nn
