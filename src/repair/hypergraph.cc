#include "repair/hypergraph.h"

#include <algorithm>

#include "common/logging.h"
#include "repair/connected_components.h"

namespace bigdansing {

ViolationHypergraph::ViolationHypergraph(
    const std::vector<ViolationWithFixes>& violations)
    // Sized for two distinct cells per hyperedge (FD violations on TaxA
    // have about 1.6), so the node table rarely grows.
    : nodes_(2 * violations.size()) {
  edges_.reserve(violations.size());
  edge_offsets_.reserve(violations.size() + 1);
  edge_offsets_.push_back(0);
  for (const auto& vf : violations) {
    // Nodes: cells of the violation plus cells referenced by its fixes
    // (a fix may mention a cell that Detect did not list).
    const size_t begin = edge_node_ids_.size();
    for (const auto& c : vf.violation.cells) {
      edge_node_ids_.push_back(nodes_.Intern(c.ref));
    }
    for (const auto& f : vf.fixes) {
      edge_node_ids_.push_back(nodes_.Intern(f.left.ref));
      if (f.right.is_cell) {
        edge_node_ids_.push_back(nodes_.Intern(f.right.cell.ref));
      }
    }
    auto first = edge_node_ids_.begin() + static_cast<ptrdiff_t>(begin);
    std::sort(first, edge_node_ids_.end());
    edge_node_ids_.erase(std::unique(first, edge_node_ids_.end()),
                         edge_node_ids_.end());
    edges_.push_back(&vf);
    edge_offsets_.push_back(edge_node_ids_.size());
  }
}

uint64_t ViolationHypergraph::NodeOf(const CellRef& cell) const {
  const uint64_t node = nodes_.Find(cell);
  BD_CHECK(node < nodes_.size()) << "unknown cell " << cell.ToString();
  return node;
}

std::vector<std::pair<uint64_t, uint64_t>> ViolationHypergraph::StarEdges()
    const {
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (size_t e = 0; e < num_edges(); ++e) {
    std::span<const uint64_t> nodes = edge_nodes(e);
    for (size_t i = 1; i < nodes.size(); ++i) {
      edges.emplace_back(nodes[0], nodes[i]);
    }
  }
  return edges;
}

std::vector<std::vector<size_t>> ViolationHypergraph::ConnectedComponentGroups(
    ExecutionContext* ctx) const {
  ComponentLabels labels;
  if (ctx != nullptr) {
    labels = BspConnectedComponents(ctx, num_nodes(), StarEdges());
  } else {
    DenseUnionFind uf(num_nodes());
    for (size_t e = 0; e < num_edges(); ++e) {
      std::span<const uint64_t> nodes = edge_nodes(e);
      for (size_t i = 1; i < nodes.size(); ++i) uf.Union(nodes[0], nodes[i]);
    }
    labels = uf.Labels();
  }
  // Group hyperedges by the component of their first node (all nodes of a
  // hyperedge share a component by construction). A counting pass sizes
  // the groups and numbers them in ascending component-id order; the fill
  // pass then appends edges in ascending edge order.
  // `slot[c]`: edge count of component c, then its group index + 1.
  std::vector<size_t> slot(num_nodes(), 0);
  for (size_t e = 0; e < num_edges(); ++e) {
    if (edge_offsets_[e] != edge_offsets_[e + 1]) {
      ++slot[labels[edge_nodes(e)[0]]];
    }
  }
  std::vector<std::vector<size_t>> groups;
  for (size_t c = 0; c < slot.size(); ++c) {
    if (slot[c] == 0) continue;
    groups.emplace_back().reserve(slot[c]);
    slot[c] = groups.size();
  }
  for (size_t e = 0; e < num_edges(); ++e) {
    if (edge_offsets_[e] != edge_offsets_[e + 1]) {
      groups[slot[labels[edge_nodes(e)[0]]] - 1].push_back(e);
    }
  }
  return groups;
}

}  // namespace bigdansing
