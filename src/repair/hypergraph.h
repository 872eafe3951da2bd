#ifndef BIGDANSING_REPAIR_HYPERGRAPH_H_
#define BIGDANSING_REPAIR_HYPERGRAPH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/intern_table.h"
#include "dataflow/context.h"
#include "rules/violation.h"

namespace bigdansing {

/// Dense ids for cells in order of first appearance.
using CellInterner = InternTable<CellRef, CellRefHash>;

/// The violation hypergraph of §5.1: nodes are elements (cells), each
/// hyperedge is one violation together with its possible fixes. The graph
/// assigns dense node ids to distinct cells (in order of first appearance)
/// and can split its hyperedges into connected components for independent
/// repair.
class ViolationHypergraph {
 public:
  /// Builds the hypergraph from detection output. `violations` must outlive
  /// the hypergraph (edges hold pointers into it).
  explicit ViolationHypergraph(
      const std::vector<ViolationWithFixes>& violations);

  size_t num_nodes() const { return nodes_.size(); }
  size_t num_edges() const { return edges_.size(); }

  /// The cell for a node id.
  const CellRef& cell(uint64_t node) const {
    return nodes_.key(static_cast<uint32_t>(node));
  }

  /// Node id of `cell`; cells are registered during construction.
  uint64_t NodeOf(const CellRef& cell) const;

  /// Node ids touched by hyperedge `e` (deduplicated, ascending).
  std::span<const uint64_t> edge_nodes(size_t e) const {
    return {edge_node_ids_.data() + edge_offsets_[e],
            edge_offsets_[e + 1] - edge_offsets_[e]};
  }

  /// The violation behind hyperedge `e`.
  const ViolationWithFixes& edge(size_t e) const { return *edges_[e]; }

  /// Binary edges (star expansion: first node of each hyperedge linked to
  /// the rest) for the BSP connected-components kernel.
  std::vector<std::pair<uint64_t, uint64_t>> StarEdges() const;

  /// Groups hyperedges by connected component. When `ctx` is non-null the
  /// BSP dataflow algorithm computes the components (the GraphX path of the
  /// paper); otherwise union-find runs straight over the hyperedges. Each
  /// group holds ascending indices into the hyperedge list; groups are
  /// ordered by component id. Hyperedges without nodes belong to no group.
  std::vector<std::vector<size_t>> ConnectedComponentGroups(
      ExecutionContext* ctx = nullptr) const;

 private:
  CellInterner nodes_;
  std::vector<const ViolationWithFixes*> edges_;
  /// CSR hyperedges: edge e's nodes are
  /// edge_node_ids_[edge_offsets_[e] .. edge_offsets_[e + 1]).
  std::vector<size_t> edge_offsets_;
  std::vector<uint64_t> edge_node_ids_;
};

}  // namespace bigdansing

#endif  // BIGDANSING_REPAIR_HYPERGRAPH_H_
