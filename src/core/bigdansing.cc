#include "core/bigdansing.h"

#include <cstdio>
#include <unordered_set>

#include "common/metrics_registry.h"
#include "core/fix_point.h"
#include "core/stream_session.h"

namespace bigdansing {

std::string CleanReport::ToString() const {
  std::string out = "CleanReport: iterations=" +
                    std::to_string(iterations.size()) +
                    (converged ? " (converged)" : " (iteration cap)");
  for (size_t i = 0; i < iterations.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\n  iter %zu: violations=%zu fixes=%zu detect=%.3fs "
                  "repair=%.3fs",
                  i + 1, iterations[i].violations, iterations[i].applied_fixes,
                  iterations[i].detect_seconds, iterations[i].repair_seconds);
    out += buf;
  }
  return out;
}

size_t ApplyAssignments(
    Table* table, const std::vector<CellAssignment>& assignments,
    const std::unordered_set<CellRef, CellRefHash>* frozen) {
  size_t changed = 0;
  for (const auto& a : assignments) {
    if (frozen != nullptr && frozen->count(a.cell) > 0) continue;
    Row* row = table->FindMutableRowById(a.cell.row_id);
    if (row == nullptr || a.cell.column >= row->size()) continue;
    if (row->value(a.cell.column) != a.value) {
      row->set_value(a.cell.column, a.value);
      ++changed;
    }
  }
  return changed;
}

BigDansing::BigDansing(ExecutionContext* ctx, CleanOptions options)
    : ctx_(ctx), options_(std::move(options)) {}

Result<std::unique_ptr<StreamSession>> BigDansing::OpenStream(
    Table* table, const std::vector<RulePtr>& rules,
    StreamOptions options) const {
  // Not make_unique: the constructor is private to the BigDansing friend.
  std::unique_ptr<StreamSession> session(
      new StreamSession(ctx_, table, rules, std::move(options)));
  Status status = session->Init();
  if (!status.ok()) return status;
  return session;
}

Result<std::unique_ptr<StreamSession>> BigDansing::OpenStream(
    Table* table, const std::vector<RulePtr>& rules) const {
  StreamOptions options;
  options.clean = options_;
  return OpenStream(table, rules, std::move(options));
}

Result<CleanReport> BigDansing::Clean(Table* table,
                                      const std::vector<RulePtr>& rules) const {
  TableSource source(ctx_, options_.planner, table, rules,
                     options_.incremental_redetection);
  FreezeState freeze;
  FixPointSetup setup;
  setup.job = "clean";
  setup.profile_input = true;
  setup.freeze = &freeze;
  std::unordered_set<RowId> changed;
  auto run = FixPointDriver(ctx_, table, rules, options_, std::move(setup))
                 .Run(&source, &changed);
  if (!run.ok()) return run.status();

  size_t total_fixes = 0;
  size_t total_violations = 0;
  for (const auto& i : run->report.iterations) {
    total_fixes += i.applied_fixes;
    total_violations += i.violations;
  }
  MetricsRegistry& registry = MetricsRegistry::Instance();
  registry.GetCounter("clean.iterations")
      .Add(static_cast<uint64_t>(run->report.iterations.size()));
  registry.GetCounter("clean.fixes_applied")
      .Add(static_cast<uint64_t>(total_fixes));
  registry.GetCounter("clean.violations_pooled")
      .Add(static_cast<uint64_t>(total_violations));
  registry.GetCounter("clean.unresolved_violations").Add(run->unresolved);
  return std::move(run->report);
}

}  // namespace bigdansing
