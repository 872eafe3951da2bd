#include "repair/hypergraph_repair.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <unordered_map>

#include "rules/violation.h"

namespace bigdansing {

namespace {

/// A constraint a fix imposes on one cell: `cell op bound`.
struct Constraint {
  FixOp op;
  Value bound;
};

/// The fix operator seen from the right-hand cell's perspective.
FixOp FlipFixOp(FixOp op) {
  switch (op) {
    case FixOp::kLt:
      return FixOp::kGt;
    case FixOp::kGt:
      return FixOp::kLt;
    case FixOp::kLeq:
      return FixOp::kGeq;
    case FixOp::kGeq:
      return FixOp::kLeq;
    default:
      return op;  // = and != are symmetric.
  }
}

bool EvalFixOp(const Value& a, FixOp op, const Value& b) {
  switch (op) {
    case FixOp::kEq:
      return a == b;
    case FixOp::kNeq:
      return a != b;
    case FixOp::kLt:
      return a < b;
    case FixOp::kGt:
      return a > b;
    case FixOp::kLeq:
      return a <= b;
    case FixOp::kGeq:
      return a >= b;
  }
  return false;
}

/// Chooses a value satisfying as many constraints as possible. Equality
/// constraints win by majority; ordering constraints narrow a numeric
/// interval whose midpoint (or boundary) is taken; != nudges away from
/// forbidden values.
Value ChooseValue(const std::vector<Constraint>& constraints,
                  const Value& current) {
  // Majority over equality targets first.
  std::map<Value, size_t> eq_votes;
  for (const auto& c : constraints) {
    if (c.op == FixOp::kEq) eq_votes[c.bound] += 1;
  }
  if (!eq_votes.empty()) {
    Value best;
    size_t best_count = 0;
    for (const auto& [v, n] : eq_votes) {
      if (n > best_count) {
        best = v;
        best_count = n;
      }
    }
    return best;
  }

  // Ordering constraints: intersect numeric bounds.
  double low = -std::numeric_limits<double>::infinity();
  double high = std::numeric_limits<double>::infinity();
  bool low_strict = false;
  bool high_strict = false;
  bool any_ordering = false;
  for (const auto& c : constraints) {
    if (!c.bound.is_numeric()) continue;
    double b = c.bound.AsNumber();
    switch (c.op) {
      case FixOp::kGt:
        any_ordering = true;
        if (b >= low) {
          low = b;
          low_strict = true;
        }
        break;
      case FixOp::kGeq:
        any_ordering = true;
        if (b > low) {
          low = b;
          low_strict = false;
        }
        break;
      case FixOp::kLt:
        any_ordering = true;
        if (b <= high) {
          high = b;
          high_strict = true;
        }
        break;
      case FixOp::kLeq:
        any_ordering = true;
        if (b < high) {
          high = b;
          high_strict = false;
        }
        break;
      default:
        break;
    }
  }
  Value candidate = current;
  if (any_ordering) {
    double v;
    const bool infeasible =
        low > high || (low == high && (low_strict || high_strict));
    if (std::isfinite(low) && std::isfinite(high) && infeasible) {
      // The conjunction is empty, but fixes are *alternatives*: satisfy
      // the majority side of the bounds instead.
      size_t lower_count = 0;
      size_t upper_count = 0;
      for (const auto& c : constraints) {
        if (c.op == FixOp::kGt || c.op == FixOp::kGeq) ++lower_count;
        if (c.op == FixOp::kLt || c.op == FixOp::kLeq) ++upper_count;
      }
      v = lower_count >= upper_count ? (low_strict ? low + 1.0 : low)
                                     : (high_strict ? high - 1.0 : high);
    } else if (std::isfinite(low) && std::isfinite(high)) {
      v = (low + high) / 2.0;
      if (!low_strict && v < low) v = low;
    } else if (std::isfinite(low)) {
      v = low_strict ? low + 1.0 : low;
    } else if (std::isfinite(high)) {
      v = high_strict ? high - 1.0 : high;
    } else {
      v = current.AsNumber();
    }
    candidate = current.is_int() && v == std::floor(v)
                    ? Value(static_cast<int64_t>(v))
                    : Value(v);
  }

  // Respect != constraints by nudging when violated.
  for (const auto& c : constraints) {
    if (c.op == FixOp::kNeq && candidate == c.bound) {
      if (candidate.is_numeric()) {
        candidate = Value(candidate.AsNumber() + 1.0);
      } else {
        candidate = Value(candidate.ToString() + "_x");
      }
    }
  }
  return candidate;
}

}  // namespace

std::vector<CellAssignment> HypergraphRepairAlgorithm::RepairComponent(
    const std::vector<const ViolationWithFixes*>& edges) const {
  // Current value per cell (violation-recorded values, then assignments).
  std::unordered_map<CellRef, Value, CellRefHash> values;
  auto note_value = [&](const Cell& c) { values.emplace(c.ref, c.value); };
  for (const auto* vf : edges) {
    for (const auto& c : vf->violation.cells) note_value(c);
    for (const auto& f : vf->fixes) {
      note_value(f.left);
      if (f.right.is_cell) note_value(f.right.cell);
    }
  }

  auto fix_satisfied = [&](const Fix& f) {
    const Value& left = values.at(f.left.ref);
    const Value& right =
        f.right.is_cell ? values.at(f.right.cell.ref) : f.right.constant;
    return EvalFixOp(left, f.op, right);
  };
  auto edge_resolved = [&](const ViolationWithFixes* vf) {
    for (const auto& f : vf->fixes) {
      if (fix_satisfied(f)) return true;
    }
    return false;
  };

  std::vector<const ViolationWithFixes*> unresolved;
  for (const auto* vf : edges) {
    if (!vf->fixes.empty() && !edge_resolved(vf)) unresolved.push_back(vf);
  }

  std::unordered_map<CellRef, Value, CellRefHash> assignments;
  while (!unresolved.empty()) {
    // 1. Rank cells by how many unresolved violations their fixes touch.
    std::map<CellRef, size_t> frequency;  // Ordered: deterministic tie-break.
    for (const auto* vf : unresolved) {
      std::map<CellRef, bool> seen;
      for (const auto& f : vf->fixes) {
        if (!seen[f.left.ref]) {
          frequency[f.left.ref] += 1;
          seen[f.left.ref] = true;
        }
        if (f.right.is_cell && !seen[f.right.cell.ref]) {
          frequency[f.right.cell.ref] += 1;
          seen[f.right.cell.ref] = true;
        }
      }
    }
    if (frequency.empty()) break;
    size_t max_frequency = 0;
    for (const auto& [_, n] : frequency) max_frequency = std::max(max_frequency, n);

    // 2. For each top-frequency candidate, compute the value its
    // constraints imply and the repair cost (the paper's §2.1 cost
    // function: distance between the old and new value). Among candidates
    // the cheapest repair wins — this is what makes the algorithm restore
    // a perturbed value instead of dragging a clean one.
    auto constraints_on = [&](const CellRef& cell) {
      std::vector<Constraint> constraints;
      for (const auto* vf : unresolved) {
        for (const auto& f : vf->fixes) {
          if (f.left.ref == cell) {
            Value bound = f.right.is_cell ? values.at(f.right.cell.ref)
                                          : f.right.constant;
            constraints.push_back(Constraint{f.op, std::move(bound)});
          } else if (f.right.is_cell && f.right.cell.ref == cell) {
            constraints.push_back(
                Constraint{FlipFixOp(f.op), values.at(f.left.ref)});
          }
        }
      }
      return constraints;
    };
    auto cost_of = [](const Value& from, const Value& to) {
      if (from == to) return 0.0;
      if (from.is_numeric() && to.is_numeric()) {
        // A NaN distance (a NaN or infinite value involved) ranks last.
        const double d = std::abs(from.AsNumber() - to.AsNumber());
        return std::isnan(d) ? std::numeric_limits<double>::infinity() : d;
      }
      return 1.0;
    };
    constexpr size_t kMaxCandidates = 8;
    CellRef chosen{};
    Value new_value;
    double best_cost = std::numeric_limits<double>::infinity();
    size_t examined = 0;
    for (const auto& [cell, n] : frequency) {
      if (n != max_frequency) continue;
      if (++examined > kMaxCandidates) break;
      Value candidate = ChooseValue(constraints_on(cell), values.at(cell));
      double cost = cost_of(values.at(cell), candidate);
      if (examined == 1 || cost < best_cost) {
        best_cost = cost;
        chosen = cell;
        new_value = std::move(candidate);
      }
    }

    // 3. Assign and re-evaluate.
    bool changed = values.at(chosen) != new_value;
    values[chosen] = new_value;
    std::vector<const ViolationWithFixes*> still;
    size_t resolved = 0;
    for (const auto* vf : unresolved) {
      if (edge_resolved(vf)) {
        ++resolved;
      } else {
        still.push_back(vf);
      }
    }
    if (changed && resolved > 0) assignments[chosen] = new_value;
    unresolved = std::move(still);
    if (resolved == 0) {
      // No progress: the remaining violations have no satisfiable fix here;
      // leave them for the next detect/repair iteration (§2.2 termination).
      break;
    }
  }

  std::vector<CellAssignment> out;
  out.reserve(assignments.size());
  for (const auto& [cell, value] : assignments) {
    out.push_back(CellAssignment{cell, value});
  }
  // Deterministic output order.
  std::sort(out.begin(), out.end(),
            [](const CellAssignment& a, const CellAssignment& b) {
              return a.cell < b.cell;
            });
  return out;
}

}  // namespace bigdansing
