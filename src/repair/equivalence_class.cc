#include "repair/equivalence_class.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/hash.h"
#include "common/lineage.h"
#include "common/trace.h"
#include "obs/quality.h"
#include "dataflow/dataset.h"
#include "repair/connected_components.h"
#include "repair/hypergraph.h"

namespace bigdansing {

std::vector<CellAssignment> EquivalenceClassAlgorithm::RepairComponent(
    const std::vector<const ViolationWithFixes*>& edges) const {
  // Dense ids for the cells touched by equality fixes, in order of first
  // mention; a cell's current (dirty) value is the one that mention
  // carries. Per fix, the ids of its sides; a `cell = constant` fix keeps
  // its constant instead.
  constexpr uint32_t kConstant = static_cast<uint32_t>(-1);
  struct EqFix {
    uint32_t left;
    uint32_t right;  // kConstant for `cell = constant`.
    const Value* constant;
  };
  CellInterner ids;
  std::vector<const Value*> current;
  auto intern = [&](const Cell& c) {
    const uint32_t id = ids.Intern(c.ref);
    if (id == current.size()) current.push_back(&c.value);
    return id;
  };
  std::vector<EqFix> fixes;
  for (const ViolationWithFixes* vf : edges) {
    for (const Fix& fix : vf->fixes) {
      if (fix.op != FixOp::kEq) continue;  // EC consumes equality fixes only.
      const uint32_t left = intern(fix.left);
      if (fix.right.is_cell) {
        fixes.push_back({left, intern(fix.right.cell), nullptr});
      } else {
        fixes.push_back({left, kConstant, &fix.right.constant});
      }
    }
  }
  const size_t n = current.size();

  // Union cells linked by `cell = cell` fixes.
  DenseUnionFind classes(n);
  for (const EqFix& f : fixes) {
    if (f.right != kConstant) classes.Union(f.left, f.right);
  }
  const ComponentLabels class_of = classes.Labels();

  // Votes: one per member's current value, plus one per distinct
  // (cell, constant) of `cell = constant` fixes. Sorting by (class, value)
  // lines up each tally; within a run, member votes come first and
  // constant votes by cell, so a repeated (cell, constant) is counted once.
  // `seq` is the vote's position in that member-then-constant order: the
  // earliest vote of a run supplies the value assigned (int 1 and double
  // 1.0 tally together but stay distinguishable).
  struct Vote {
    uint32_t cls;
    uint32_t cell;
    uint32_t seq;
    bool constant;
    const Value* value;
  };
  std::vector<Vote> votes;
  votes.reserve(n + fixes.size());
  for (uint32_t i = 0; i < n; ++i) {
    votes.push_back({static_cast<uint32_t>(class_of[i]), i, i, false,
                     current[i]});
  }
  for (const EqFix& f : fixes) {
    if (f.right != kConstant) continue;
    votes.push_back({static_cast<uint32_t>(class_of[f.left]), f.left,
                     static_cast<uint32_t>(votes.size()), true, f.constant});
  }
  std::sort(votes.begin(), votes.end(), [](const Vote& a, const Vote& b) {
    if (a.cls != b.cls) return a.cls < b.cls;
    if (const int c = a.value->Compare(*b.value); c != 0) return c < 0;
    if (a.constant != b.constant) return !a.constant;
    if (a.cell != b.cell) return a.cell < b.cell;
    return a.seq < b.seq;
  });

  // Winner per class: the highest count, ties broken toward the smaller
  // value (runs arrive in ascending value order).
  std::vector<const Value*> target(n, nullptr);
  std::vector<size_t> target_count(n, 0);
  for (size_t begin = 0; begin < votes.size();) {
    const Vote& head = votes[begin];
    size_t count = 0;
    const Vote* earliest = &head;
    size_t end = begin;
    for (; end < votes.size() && votes[end].cls == head.cls &&
           votes[end].value->Compare(*head.value) == 0;
         ++end) {
      const Vote& v = votes[end];
      const bool repeat = end > begin && v.constant &&
                          votes[end - 1].constant &&
                          votes[end - 1].cell == v.cell;
      if (!repeat) ++count;
      if (v.seq < earliest->seq) earliest = &v;
    }
    if (count > target_count[head.cls]) {
      target_count[head.cls] = count;
      target[head.cls] = earliest->value;
    }
    begin = end;
  }

  // Assign the winning value to members that differ.
  std::vector<CellAssignment> out;
  for (uint32_t i = 0; i < n; ++i) {
    const Value& t = *target[class_of[i]];
    if (*current[i] != t) out.push_back(CellAssignment{ids.key(i), t});
  }
  return out;
}

std::vector<CellAssignment> DistributedEquivalenceClassRepair(
    ExecutionContext* ctx, const std::vector<ViolationWithFixes>& violations,
    std::vector<FixProvenance>* provenance) {
  const bool track_provenance =
      provenance != nullptr && ProvenanceTrackingEnabled();
  // Collect the equality-fix graph: nodes are cells, edges link the two
  // sides of `cell = cell` fixes. Cell identity is its dense id.
  std::unordered_map<CellRef, uint64_t, CellRefHash> ids;
  std::vector<CellRef> cells;
  std::vector<Value> current;
  // First violation (input index) mentioning each interned cell.
  std::vector<uint64_t> first_violation;
  uint64_t interning_violation = 0;
  auto intern = [&](const Cell& c) {
    auto [it, inserted] = ids.emplace(c.ref, cells.size());
    if (inserted) {
      cells.push_back(c.ref);
      current.push_back(c.value);
      if (track_provenance) first_violation.push_back(interning_violation);
    }
    return it->second;
  };
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  std::vector<std::pair<uint64_t, Value>> constant_votes;
  for (size_t v = 0; v < violations.size(); ++v) {
    const auto& vf = violations[v];
    interning_violation = v;
    for (const Fix& fix : vf.fixes) {
      if (fix.op != FixOp::kEq) continue;
      uint64_t left = intern(fix.left);
      if (fix.right.is_cell) {
        edges.emplace_back(left, intern(fix.right.cell));
      } else {
        constant_votes.emplace_back(left, fix.right.constant);
      }
    }
  }
  if (cells.empty()) return {};

  TraceRecorder& trace = TraceRecorder::Instance();
  std::optional<ScopedSpan> repair_span;
  if (trace.enabled()) {
    repair_span.emplace("repair:distributed-ec", "operator");
    repair_span->Annotate("cells", static_cast<uint64_t>(cells.size()));
    repair_span->Annotate("edges", static_cast<uint64_t>(edges.size()));
  }

  // Equivalence classes = connected components of the equality graph,
  // computed with the BSP kernel (GraphX role).
  std::optional<ScopedSpan> cc_span;
  if (trace.enabled()) {
    cc_span.emplace("repair:ec-connected-components", "operator");
  }
  ComponentLabels labels = BspConnectedComponents(ctx, cells.size(), edges);
  cc_span.reset();

  // First map-reduce sequence: ((class, value), 1) -> counts.
  // "If an element exists in multiple fixes, we only count its value once":
  // member votes are emitted per cell (once each); constant votes are
  // deduplicated per (cell, value).
  struct KeyHash {
    size_t operator()(const std::pair<uint64_t, Value>& k) const {
      size_t seed = static_cast<size_t>(StableHashUint64(k.first));
      HashCombine(&seed, static_cast<size_t>(k.second.Hash()));
      return seed;
    }
  };
  using CountKey = std::pair<uint64_t, Value>;
  std::vector<std::pair<CountKey, uint64_t>> votes;
  votes.reserve(cells.size() + constant_votes.size());
  for (uint64_t i = 0; i < cells.size(); ++i) {
    votes.emplace_back(CountKey{labels.at(i), current[i]}, 1);
  }
  std::unordered_set<CountKey, KeyHash> seen_constant;
  for (const auto& [cell_id, value] : constant_votes) {
    if (!seen_constant.insert(CountKey{cell_id, value}).second) continue;
    votes.emplace_back(CountKey{labels.at(cell_id), value}, 1);
  }
  std::optional<ScopedSpan> mr1_span;
  if (trace.enabled()) mr1_span.emplace("repair:ec-mr1-count", "operator");
  auto counted = ReduceByKey<CountKey, uint64_t>(
      Dataset<std::pair<CountKey, uint64_t>>::FromVector(ctx, std::move(votes)),
      [](uint64_t a, uint64_t b) { return a + b; }, 0, KeyHash());
  mr1_span.reset();

  // Second sequence: (class, (value, count)) -> most frequent value.
  std::optional<ScopedSpan> mr2_span;
  if (trace.enabled()) mr2_span.emplace("repair:ec-mr2", "operator");
  auto per_class = counted.Map(
      [](const std::pair<CountKey, uint64_t>& rec) {
        return std::make_pair(rec.first.first,
                              std::make_pair(rec.first.second, rec.second));
      });
  using Best = std::pair<Value, uint64_t>;
  auto best = ReduceByKey(per_class, [](const Best& a, const Best& b) {
    if (a.second != b.second) return a.second > b.second ? a : b;
    return a.first <= b.first ? a : b;  // Deterministic tie-break.
  });

  std::unordered_map<uint64_t, Value> target;
  for (const auto& [cls, vc] : best.Collect()) target[cls] = vc.first;
  mr2_span.reset();

  std::vector<CellAssignment> out;
  for (uint64_t i = 0; i < cells.size(); ++i) {
    const Value& t = target.at(labels.at(i));
    if (current[i] != t) {
      out.push_back(CellAssignment{cells[i], t});
      if (track_provenance) {
        FixProvenance p;
        p.rule = violations[first_violation[i]].violation.rule_name;
        p.violation_id = first_violation[i];
        p.component = labels.at(i);
        p.strategy = "distributed-equivalence-class";
        provenance->push_back(std::move(p));
      }
    }
  }
  return out;
}

}  // namespace bigdansing
