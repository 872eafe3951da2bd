#include "core/physical_plan.h"

#include "common/string_util.h"
#include "common/trace.h"

namespace bigdansing {

Row ScopeProject(const Row& row, const std::vector<size_t>& scope_columns) {
  std::vector<Value> values;
  values.reserve(scope_columns.size());
  std::vector<size_t> sources;
  sources.reserve(scope_columns.size());
  for (size_t c : scope_columns) {
    values.push_back(row.value(row.source_column(c)));
    sources.push_back(row.source_column(c));
  }
  Row out(row.id(), std::move(values));
  out.set_source_columns(std::move(sources));
  return out;
}

const char* IterateStrategyName(IterateStrategy strategy) {
  switch (strategy) {
    case IterateStrategy::kCrossProduct:
      return "CrossProduct";
    case IterateStrategy::kUCrossProduct:
      return "UCrossProduct";
    case IterateStrategy::kOCJoin:
      return "OCJoin";
    case IterateStrategy::kSingle:
      return "Single";
  }
  return "?";
}

std::string PhysicalRulePlan::ToString() const {
  std::string out = "PhysicalPlan[" + rule->name() + "]: ";
  out += scope_columns.empty() ? "scan" : "scope(" + std::to_string(scope_columns.size()) + " cols)";
  if (!blocking_columns.empty()) {
    out += " -> block(" + std::to_string(blocking_columns.size()) + " cols)";
  } else if (block_key_fn) {
    out += " -> block(udf)";
  }
  out += " -> ";
  out += IterateStrategyName(strategy);
  out += " -> detect -> genfix";
  return out;
}

void PhysicalRulePlan::AnnotateSpan(ScopedSpan* span) const {
  if (span == nullptr || span->id() == 0) return;
  span->Annotate("strategy", std::string(IterateStrategyName(strategy)));
  span->Annotate("scope_columns",
                 static_cast<uint64_t>(scope_columns.size()));
  if (block_key_fn) {
    span->Annotate("blocking", std::string("udf"));
  } else {
    span->Annotate("blocking_columns",
                   static_cast<uint64_t>(blocking_columns.size()));
  }
  if (!ocjoin_conditions.empty()) {
    span->Annotate("ocjoin_conditions",
                   static_cast<uint64_t>(ocjoin_conditions.size()));
  }
}

Result<PhysicalRulePlan> BuildPhysicalPlan(const RulePtr& rule,
                                           const Schema& base_schema,
                                           const PlannerOptions& options) {
  if (rule == nullptr) return Status::InvalidArgument("rule is null");
  PhysicalRulePlan plan;
  plan.rule = rule;

  // PScope: project to the rule's relevant attributes when enabled.
  std::vector<std::string> relevant = rule->RelevantAttributes();
  if (options.enable_scope && !relevant.empty()) {
    for (const auto& a : relevant) {
      auto idx = base_schema.IndexOf(a);
      if (!idx.ok()) return idx.status();
      plan.scope_columns.push_back(*idx);
    }
    plan.detect_schema = base_schema.Project(plan.scope_columns);
  } else {
    plan.detect_schema = base_schema;
  }

  // Bind the rule once against the schema it will see.
  BIGDANSING_RETURN_NOT_OK(rule->Bind(plan.detect_schema));

  // PBlock: resolve the blocking key against the detect schema.
  if (options.enable_blocking) {
    if (auto* udf = dynamic_cast<UdfRule*>(rule.get()); udf && udf->block_key()) {
      plan.block_key_fn = udf->block_key();
    } else {
      for (const auto& a : rule->BlockingAttributes()) {
        auto idx = plan.detect_schema.IndexOf(a);
        if (!idx.ok()) return idx.status();
        plan.blocking_columns.push_back(*idx);
      }
    }
  }

  // Iterate enhancer selection (§4.2): OCJoin when ordering conditions
  // exist, UCrossProduct for symmetric rules, CrossProduct otherwise.
  if (rule->arity() == 1) {
    plan.strategy = IterateStrategy::kSingle;
    return plan;
  }
  std::vector<OrderingCondition> conditions = rule->OrderingConditions();
  if (options.enable_ocjoin && !conditions.empty()) {
    plan.strategy = IterateStrategy::kOCJoin;
    for (auto& c : conditions) {
      auto left = plan.detect_schema.IndexOf(c.left_attr);
      if (!left.ok()) return left.status();
      auto right = plan.detect_schema.IndexOf(c.right_attr);
      if (!right.ok()) return right.status();
      c.left_column = *left;
      c.right_column = *right;
    }
    plan.ocjoin_conditions = std::move(conditions);
    return plan;
  }
  if (options.enable_ucross_product) {
    // UCrossProduct enumerates each unordered pair once. Symmetric rules
    // are probed once per pair (halving Detect calls); asymmetric rules are
    // probed in both orientations but still skip materializing reversed
    // pairs — the paper's "slight performance advantage" over CrossProduct.
    plan.strategy = IterateStrategy::kUCrossProduct;
    return plan;
  }
  // Wrapper translation: cross product over all ordered pairs. It covers
  // both orientations inherently, so it is correct for any rule — at the
  // cost of duplicate probes (and duplicate violations) for symmetric ones.
  plan.strategy = IterateStrategy::kCrossProduct;
  return plan;
}

}  // namespace bigdansing
