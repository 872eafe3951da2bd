#include "repair/connected_components.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"
#include "dataflow/dataset.h"

namespace bigdansing {

ComponentLabels UnionFindConnectedComponents(
    size_t num_nodes, const std::vector<std::pair<uint64_t, uint64_t>>& edges) {
  DenseUnionFind uf(num_nodes);
  for (const auto& [a, b] : edges) {
    BD_CHECK(a < num_nodes && b < num_nodes)
        << "edge (" << a << ", " << b << ") outside " << num_nodes
        << " dense node ids";
    uf.Union(a, b);
  }
  return uf.Labels();
}

ComponentLabels BspConnectedComponents(
    ExecutionContext* ctx, size_t num_nodes,
    const std::vector<std::pair<uint64_t, uint64_t>>& edges) {
  // Initial labels: every node is its own component.
  std::vector<std::pair<uint64_t, uint64_t>> label_records;
  label_records.reserve(num_nodes);
  for (uint64_t n = 0; n < num_nodes; ++n) label_records.emplace_back(n, n);
  for (const auto& [a, b] : edges) {
    BD_CHECK(a < num_nodes && b < num_nodes)
        << "edge (" << a << ", " << b << ") outside " << num_nodes
        << " dense node ids";
  }
  auto min_fn = [](uint64_t a, uint64_t b) { return std::min(a, b); };
  Dataset<std::pair<uint64_t, uint64_t>> labels =
      ReduceByKey(Dataset<std::pair<uint64_t, uint64_t>>::FromVector(
                      ctx, std::move(label_records)),
                  min_fn);

  // Edge dataset is reused every superstep.
  auto edge_ds =
      Dataset<std::pair<uint64_t, uint64_t>>::FromVector(ctx, edges);

  while (true) {
    // Superstep: each node sends its current label across incident edges;
    // nodes adopt the minimum of their own and received labels.
    auto with_labels = Join(edge_ds, labels);  // (u, (v, label_u)) keyed by u.
    // Messages to v: label_u; plus symmetric direction via reversed edges.
    auto messages = with_labels.Map(
        [](const std::pair<uint64_t, std::pair<uint64_t, uint64_t>>& rec) {
          return std::make_pair(rec.second.first, rec.second.second);
        });
    auto reversed = edge_ds.Map([](const std::pair<uint64_t, uint64_t>& e) {
      return std::make_pair(e.second, e.first);
    });
    auto messages_back =
        Join(reversed, labels).Map(
            [](const std::pair<uint64_t, std::pair<uint64_t, uint64_t>>& rec) {
              return std::make_pair(rec.second.first, rec.second.second);
            });
    auto combined = labels.Union(messages).Union(messages_back);
    auto new_labels = ReduceByKey(combined, min_fn);

    // Convergence check: did any label shrink?
    std::unordered_map<uint64_t, uint64_t> old_map;
    for (const auto& kv : labels.Collect()) old_map.insert(kv);
    bool changed = false;
    for (const auto& kv : new_labels.Collect()) {
      auto it = old_map.find(kv.first);
      if (it == old_map.end() || it->second != kv.second) {
        changed = true;
        break;
      }
    }
    labels = new_labels;
    if (!changed) break;
  }

  ComponentLabels out(num_nodes);
  for (const auto& [node, label] : labels.Collect()) out[node] = label;
  return out;
}

}  // namespace bigdansing
