// NSGA-Net macro search-space phase.
//
// A phase is a small DAG over `n` nodes. Node j may receive the output of
// any earlier node i < j, controlled by a connectivity bit-string (the
// genome segment for this phase); a final bit adds a skip connection from
// the phase input to the phase output. Each active node applies
// Conv3x3(same channels) -> BatchNorm -> ReLU to the SUM of its inputs.
// Nodes with no incoming connections read the phase input; nodes whose
// output nobody consumes feed the phase output (summed), exactly as in
// Lu et al.'s NSGA-Net encoding.
#pragma once

#include <optional>

#include "nn/layers.hpp"

namespace a4nn::nn {

/// Node operations available in the extended (operation-searchable) space.
/// The paper's macro space always uses kConv3x3; enabling op search adds
/// two genome bits per node choosing among these four.
enum class NodeOp : std::uint8_t {
  kConv3x3 = 0,
  kSepConv3x3 = 1,
  kConv1x1 = 2,
  kSepConv5x5 = 3,
};
const char* node_op_name(NodeOp op);
inline constexpr std::size_t kNodeOpCount = 4;

/// Connectivity for one phase: bits[k] for pairs (i -> j), ordered
/// (0->1), (0->2), (1->2), (0->3), (1->3), (2->3), ...; plus skip bit.
/// `node_ops` is empty in the macro space (all conv3x3) or one entry per
/// node in the extended space.
struct PhaseSpec {
  std::size_t nodes = 0;
  std::vector<bool> bits;  // nodes*(nodes-1)/2 entries
  bool skip = false;
  std::vector<NodeOp> node_ops;  // empty, or `nodes` entries

  static std::size_t bits_for_nodes(std::size_t nodes) {
    return nodes * (nodes - 1) / 2;
  }
  /// Bit index for edge i -> j (i < j).
  static std::size_t edge_index(std::size_t i, std::size_t j) {
    return j * (j - 1) / 2 + i;
  }
  bool edge(std::size_t i, std::size_t j) const {
    return bits.at(edge_index(i, j));
  }
  NodeOp op_of(std::size_t node) const {
    return node_ops.empty() ? NodeOp::kConv3x3 : node_ops.at(node);
  }
};

class PhaseBlock : public Layer {
 public:
  /// channels: both input and output channel count of the phase.
  PhaseBlock(PhaseSpec spec, std::size_t channels, util::Rng& rng);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<ParamSlot> params() override;
  std::vector<ParamSlot> state() override;
  Shape output_shape(const Shape& in) const override { return in; }
  std::uint64_t flops(const Shape& in) const override;
  std::string kind() const override { return "phase"; }
  util::Json spec() const override;
  util::Json weights() const override;
  void load_weights(const util::Json& w) override;

  const PhaseSpec& phase_spec() const { return spec_; }
  /// Indices of nodes that actually run (reachable with inputs).
  const std::vector<bool>& active() const { return active_; }
  /// Number of active (trained) nodes.
  std::size_t active_nodes() const;

 private:
  struct Node {
    LayerPtr op;  // conv3x3 / sepconv / conv1x1 per the phase spec
    std::unique_ptr<BatchNorm2d> bn;
    std::unique_ptr<ReLU> relu;
  };

  /// Inputs of node j: earlier active nodes with an edge, or the phase
  /// input if none.
  std::vector<std::size_t> node_inputs(std::size_t j) const;
  /// True for nodes whose output is consumed by a later active node.
  std::vector<bool> consumed_flags() const;
  /// `slots` (params or state) of every active node's op and batch norm,
  /// named "node<j>.<slot>".
  std::vector<ParamSlot> node_slots(std::vector<ParamSlot> (Layer::*slots)());

  PhaseSpec spec_;
  std::size_t channels_;
  std::vector<Node> nodes_;
  std::vector<bool> active_;
  // Forward caches: per-node output activations and the phase input.
  std::vector<Tensor> node_out_cache_;
  Tensor input_cache_;
};

}  // namespace a4nn::nn
