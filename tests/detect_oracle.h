#ifndef BIGDANSING_TESTS_DETECT_ORACLE_H_
#define BIGDANSING_TESTS_DETECT_ORACLE_H_

// A brute-force detection oracle: projects every row to the rule's scope
// and probes Rule::Detect on every candidate the plan's blocking admits,
// with no encoding, no hashing, no shuffle, no join and no kernel. Blocks
// are compared by Value equality of the key (a procedural key's value, or
// every blocking column), and a row with a null key component joins no
// block. Symmetric rules under UCrossProduct are probed once per unordered
// pair, earlier table row first; every other pair rule on every ordered
// pair. The engine's output must be set-equal to this.

#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/physical_plan.h"
#include "data/table.h"
#include "rules/rule.h"

namespace bigdansing {
namespace testing_oracle {

/// One violation with its fixes, rendered exactly (ids, columns,
/// attributes, values).
inline std::string RenderViolation(const ViolationWithFixes& vf) {
  std::string out = vf.violation.rule_name + ":";
  auto cell = [&out](const Cell& c) {
    out += "t" + std::to_string(c.ref.row_id) + "[" +
           std::to_string(c.ref.column) + "]" + c.attribute + "=" +
           c.value.ToString() + ";";
  };
  for (const auto& c : vf.violation.cells) cell(c);
  out += "fixes{";
  for (const auto& fix : vf.fixes) {
    cell(fix.left);
    out += FixOpName(fix.op);
    if (fix.right.is_cell) {
      cell(fix.right.cell);
    } else {
      out += fix.right.constant.ToString();
    }
    out += "&";
  }
  return out + "}";
}

/// The violations of `rule` on `table` under `options`' physical plan, as a
/// multiset of renderings. With `changed` set, only what an incremental
/// request re-checks: changed units of arity-1 rules, every pair of a block
/// holding a changed row, and pairs with a changed member for unblocked
/// rules.
inline std::multiset<std::string> OracleDetect(
    const Table& table, const RulePtr& rule, const PlannerOptions& options,
    const std::unordered_set<RowId>* changed = nullptr) {
  std::multiset<std::string> out;
  auto plan = BuildPhysicalPlan(rule, table.schema(), options);
  if (!plan.ok()) return out;
  std::vector<Row> rows;
  for (const Row& row : table.rows()) {
    rows.push_back(plan->scope_columns.empty()
                       ? row
                       : ScopeProject(row, plan->scope_columns));
  }
  auto is_changed = [&](const Row& row) {
    return changed == nullptr || changed->count(row.id()) > 0;
  };
  auto emit = [&](std::vector<Violation>&& found) {
    for (auto& v : found) {
      ViolationWithFixes vf;
      vf.violation = std::move(v);
      rule->GenFix(vf.violation, &vf.fixes);
      out.insert(RenderViolation(vf));
    }
  };
  if (plan->strategy == IterateStrategy::kSingle) {
    for (const Row& row : rows) {
      if (!is_changed(row)) continue;
      std::vector<Violation> found;
      rule->DetectSingle(row, &found);
      emit(std::move(found));
    }
    return out;
  }

  // Block keys as Values; an empty key means "no block".
  const bool blocked =
      !plan->blocking_columns.empty() || static_cast<bool>(plan->block_key_fn);
  std::vector<std::vector<Value>> keys(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    if (plan->block_key_fn) {
      Value v = plan->block_key_fn(plan->detect_schema, rows[i]);
      if (!v.is_null()) keys[i].push_back(std::move(v));
      continue;
    }
    for (size_t c : plan->blocking_columns) {
      if (rows[i].value(c).is_null()) {
        keys[i].clear();
        break;
      }
      keys[i].push_back(rows[i].value(c));
    }
  }
  auto same_block = [&](size_t i, size_t j) {
    if (!blocked) return true;
    return !keys[i].empty() && keys[i] == keys[j];
  };
  // Incremental scope: the keys of changed rows (blocked), or the changed
  // rows themselves (unblocked).
  std::vector<bool> dirty(rows.size(), changed == nullptr);
  if (changed != nullptr) {
    for (size_t i = 0; i < rows.size(); ++i) {
      if (!is_changed(rows[i])) continue;
      for (size_t j = 0; j < rows.size(); ++j) {
        if (blocked ? (i == j || same_block(i, j)) && !keys[i].empty()
                    : i == j) {
          dirty[j] = true;
        }
      }
    }
  }
  auto candidate = [&](size_t i, size_t j) {
    if (!same_block(i, j)) return false;
    if (changed == nullptr) return true;
    return blocked ? dirty[i] : dirty[i] || dirty[j];
  };
  const bool unordered = plan->strategy == IterateStrategy::kUCrossProduct &&
                         rule->IsSymmetric();
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t j = unordered ? i + 1 : 0; j < rows.size(); ++j) {
      if (i == j || !candidate(i, j)) continue;
      std::vector<Violation> found;
      rule->Detect(rows[i], rows[j], &found);
      emit(std::move(found));
    }
  }
  return out;
}

}  // namespace testing_oracle
}  // namespace bigdansing

#endif  // BIGDANSING_TESTS_DETECT_ORACLE_H_
