// Ablation (DESIGN.md §5): plan consolidation / shared scans (§4.2,
// Algorithm 1). Runs a multi-rule workload twice: one multi-rule Detect
// (one shared base scan; rules with identical Scope/Block parameters reuse
// one blocked intermediate) vs one Detect call per rule (each pays its own
// scan).
// The second rule pair shares both Scope and Block parameters, the case
// Figure 5 consolidates.
#include <cstdio>

#include "bench_util.h"
#include "core/logical_plan.h"
#include "core/rule_engine.h"
#include "datagen/datagen.h"
#include "rules/parser.h"

namespace bigdansing {
namespace {

using bench::ResultTable;
using bench::ScaledRows;
using bench::Secs;
using bench::TimeSeconds;

void Run() {
  const size_t rows = ScaledRows(200000);
  auto data = GenerateTaxA(rows, 0.1, /*seed=*/21);
  // Two DCs over the same attributes: identical Scope and Block params, so
  // consolidation shares the scoped scan and the blocking pass.
  std::vector<RulePtr> rules = {
      *ParseRule("c1: DC: t1.zipcode = t2.zipcode & t1.city != t2.city"),
      *ParseRule("c2: DC: t1.zipcode = t2.zipcode & t1.city ~0.5 t2.city"),
      *ParseRule("phi1: FD: zipcode -> city"),
  };

  // Show the logical-plan consolidation itself.
  std::vector<LogicalPlan> plans;
  for (const auto& r : rules) {
    plans.push_back(*BuildLogicalPlan(r, data.dirty.schema(), "D1"));
  }
  LogicalPlan merged = MergePlans(plans);
  LogicalPlan consolidated = ConsolidatePlan(merged);
  std::printf("Merged logical plan has %zu operators; consolidated has %zu:\n%s",
              merged.ops.size(), consolidated.ops.size(),
              consolidated.ToString().c_str());

  ExecutionContext ctx(16);
  RuleEngine engine(&ctx);
  DetectRequest all_request;
  all_request.table = &data.dirty;
  all_request.rules = rules;
  // Warm up both paths once (allocator / page-cache effects), then measure.
  engine.Detect(all_request);
  for (const auto& r : rules) engine.Detect(data.dirty, r);
  double shared = TimeSeconds([&] { engine.Detect(all_request); });
  double separate = TimeSeconds([&] {
    for (const auto& r : rules) engine.Detect(data.dirty, r);
  });

  bench::BenchRecord record("ablation_consolidation",
                            "rows=" + std::to_string(rows));
  record.AddConfig("rows", static_cast<uint64_t>(rows));
  record.AddConfig("workers", static_cast<uint64_t>(16));
  record.AddConfig("rules", static_cast<uint64_t>(rules.size()));
  record.AddMetric("wall_seconds", shared);
  record.AddMetric("separate_seconds", separate);
  record.CaptureMetrics(ctx.metrics());
  record.Emit();

  ResultTable table(
      "Ablation: plan consolidation (shared scans) on TaxA, 3 rules",
      {"rows", "consolidated Detect (s)", "separate Detect calls (s)",
       "saving"});
  char saving[16];
  std::snprintf(saving, sizeof(saving), "%.1f%%",
                separate > 0 ? (1.0 - shared / separate) * 100.0 : 0.0);
  table.AddRow({bench::WithCommas(rows), Secs(shared), Secs(separate), saving});
  table.Print();
  std::printf(
      "Expected shape: the consolidated run is faster because the base scan "
      "runs once and rules c1/c2 share one Scope and one Block pass.\n");
}

}  // namespace
}  // namespace bigdansing

int main() {
  bigdansing::Run();
  return 0;
}
