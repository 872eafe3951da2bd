#ifndef BIGDANSING_REPAIR_CONNECTED_COMPONENTS_H_
#define BIGDANSING_REPAIR_CONNECTED_COMPONENTS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "dataflow/context.h"

namespace bigdansing {

/// Node labels produced by a connected-components run, indexed by node id:
/// labels[n] is the component id of node n (the minimum node id in its
/// component). Node ids are dense: a graph over n nodes uses ids 0..n-1.
using ComponentLabels = std::vector<uint64_t>;

/// Array union-find over dense ids 0..n-1 with path halving. A union
/// links the larger root under the smaller one, so the root of every set is
/// its minimum id — the component id BSP label propagation converges to.
class DenseUnionFind {
 public:
  explicit DenseUnionFind(size_t n) : parent_(n) {
    for (size_t i = 0; i < n; ++i) parent_[i] = i;
  }

  uint64_t Find(uint64_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  void Union(uint64_t a, uint64_t b) {
    a = Find(a);
    b = Find(b);
    if (a < b) {
      parent_[b] = a;
    } else if (b < a) {
      parent_[a] = b;
    }
  }

  /// Root of every id, in id order.
  ComponentLabels Labels() {
    ComponentLabels labels(parent_.size());
    for (uint64_t i = 0; i < labels.size(); ++i) labels[i] = Find(i);
    return labels;
  }

 private:
  std::vector<uint64_t> parent_;
};

/// Connected components via sequential union-find. Reference implementation
/// and fast path for driver-side graphs. The graph's nodes are the ids
/// 0..num_nodes-1 (isolated ones included) and every edge endpoint is below
/// num_nodes; the result holds num_nodes labels.
ComponentLabels UnionFindConnectedComponents(
    size_t num_nodes, const std::vector<std::pair<uint64_t, uint64_t>>& edges);

/// Connected components via Bulk Synchronous Parallel min-label propagation
/// on the dataflow engine — the GraphX substitute of §5.1. Each superstep
/// propagates the smallest known component id across edges with a
/// reduceByKey(min) shuffle; converges in O(diameter) supersteps.
/// Same input contract as, and exactly the same labels as, the union-find
/// version.
ComponentLabels BspConnectedComponents(
    ExecutionContext* ctx, size_t num_nodes,
    const std::vector<std::pair<uint64_t, uint64_t>>& edges);

}  // namespace bigdansing

#endif  // BIGDANSING_REPAIR_CONNECTED_COMPONENTS_H_
