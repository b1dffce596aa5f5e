#include "analytics/dot_export.hpp"

#include <cmath>
#include <sstream>

namespace a4nn::analytics {

namespace {

/// Node activity exactly as PhaseBlock computes it (isolated nodes pruned,
/// all-zero phases repaired to node 0).
std::vector<bool> active_nodes(const nn::PhaseSpec& phase) {
  std::vector<bool> active(phase.nodes, false);
  for (std::size_t j = 1; j < phase.nodes; ++j) {
    for (std::size_t i = 0; i < j; ++i) {
      if (phase.edge(i, j)) active[i] = active[j] = true;
    }
  }
  bool any = false;
  for (bool a : active) any |= a;
  if (!any) active[0] = true;
  return active;
}

}  // namespace

std::string to_dot(const nas::Genome& genome,
                   const nas::SearchSpaceConfig& space,
                   const DotStyle& style) {
  std::ostringstream out;
  out << "digraph a4nn_model {\n";
  if (style.rankdir_lr) out << "  rankdir=LR;\n";
  out << "  node [shape=box, style=filled, fontname=\"Helvetica\"];\n";
  out << "  input [label=\"input " << tensor::shape_to_string(space.input_shape)
      << "\", fillcolor=\"#ffffff\"];\n";
  out << "  stem [label=\"stem conv3x3 (" << space.input_shape[0] << "->"
      << space.stem_channels << ") + bn + relu\", fillcolor=\""
      << style.node_color << "\"];\n";
  out << "  input -> stem;\n";

  std::string prev = "stem";
  std::size_t channels = space.stem_channels;
  for (std::size_t p = 0; p < genome.phase_count(); ++p) {
    const auto& phase = genome.phases[p];
    const auto active = active_nodes(phase);
    std::string prefix = "p";
    prefix += std::to_string(p);
    prefix += '_';

    out << "  subgraph cluster_phase" << p << " {\n";
    out << "    label=\"phase " << p + 1 << " (" << channels << " ch)\";\n";
    out << "    style=rounded;\n";
    for (std::size_t j = 0; j < phase.nodes; ++j) {
      out << "    " << prefix << "n" << j << " [label=\"node " << j << "\\n"
          << nn::node_op_name(phase.op_of(j)) << "+bn+relu\", fillcolor=\""
          << (active[j] ? style.node_color : style.pruned_color) << "\"";
      if (!active[j]) out << ", fontcolor=\"#888888\"";
      out << "];\n";
    }
    out << "  }\n";

    // Output collector for the phase (sums loose ends + optional skip).
    const std::string sum = prefix + "sum";
    out << "  " << sum
        << " [label=\"+\", shape=circle, fillcolor=\"#ffffff\"];\n";

    std::vector<bool> consumed(phase.nodes, false);
    for (std::size_t j = 0; j < phase.nodes; ++j) {
      if (!active[j]) continue;
      bool has_input = false;
      for (std::size_t i = 0; i < j; ++i) {
        if (active[i] && phase.edge(i, j)) {
          out << "  " << prefix << "n" << i << " -> " << prefix << "n" << j
              << ";\n";
          consumed[i] = true;
          has_input = true;
        }
      }
      if (!has_input) out << "  " << prev << " -> " << prefix << "n" << j << ";\n";
    }
    for (std::size_t j = 0; j < phase.nodes; ++j) {
      if (active[j] && !consumed[j])
        out << "  " << prefix << "n" << j << " -> " << sum << ";\n";
    }
    if (phase.skip) {
      out << "  " << prev << " -> " << sum << " [color=\"" << style.skip_color
          << "\", penwidth=2, label=\"skip\"];\n";
    }
    prev = sum;

    if (p + 1 < genome.phase_count()) {
      const std::size_t next = static_cast<std::size_t>(std::llround(
          static_cast<double>(channels) * space.channel_multiplier));
      const std::string down = "down" + std::to_string(p);
      out << "  " << down << " [label=\"maxpool2 + conv1x1 (" << channels
          << "->" << next << ")\", fillcolor=\"" << style.node_color
          << "\"];\n";
      out << "  " << prev << " -> " << down << ";\n";
      prev = down;
      channels = next;
    }
  }

  out << "  head [label=\"global-avg-pool + linear (" << channels << "->"
      << space.classes << ")\", fillcolor=\"" << style.node_color << "\"];\n";
  out << "  " << prev << " -> head;\n";
  out << "  output [label=\"class scores\", fillcolor=\"#ffffff\"];\n";
  out << "  head -> output;\n";
  out << "}\n";
  return out.str();
}

}  // namespace a4nn::analytics
