#include "core/fix_point.h"

#include <optional>

#include "common/fault.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "data/profile.h"
#include "obs/quality.h"
#include "repair/strategy.h"

namespace bigdansing {

namespace {

/// Closes the run's quality record on every exit path — normal return,
/// early Status return and StageError unwinding alike — so a scrape never
/// sees a run stuck in_progress after the loop finished.
struct QualityRunGuard {
  uint64_t run_id = 0;
  const CleanReport* report = nullptr;
  ~QualityRunGuard() {
    if (run_id != 0) {
      QualityRecorder::Instance().EndRun(run_id, report->converged);
    }
  }
};

}  // namespace

TableSource::TableSource(ExecutionContext* ctx, const PlannerOptions& planner,
                         const Table* table, std::vector<RulePtr> rules,
                         bool incremental)
    : engine_(ctx, planner),
      table_(table),
      rules_(std::move(rules)),
      incremental_(incremental) {}

Result<std::vector<DetectionResult>> TableSource::Detect(
    size_t iteration, const std::unordered_set<RowId>& changed) {
  DetectRequest full;
  full.table = table_;
  full.rules = rules_;
  if (!incremental_ || iteration == 0) return engine_.Detect(full);
  TraceRecorder& trace = TraceRecorder::Instance();
  if (trace.enabled()) {
    trace.Annotate(trace.CurrentSpan(), "mode", std::string("incremental"));
    trace.Annotate(trace.CurrentSpan(), "changed_rows",
                   static_cast<uint64_t>(changed.size()));
  }
  std::vector<DetectionResult> partial;
  partial.reserve(rules_.size());
  size_t found = 0;
  for (const auto& rule : rules_) {
    DetectRequest request;
    request.table = table_;
    request.rules = {rule};
    request.changed_rows = &changed;
    auto d = engine_.Detect(request);
    if (!d.ok()) return d.status();
    found += d->front().violations.size();
    partial.push_back(std::move(d->front()));
  }
  if (found == 0) return engine_.Detect(full);
  return partial;
}

FixPointDriver::FixPointDriver(ExecutionContext* ctx, Table* table,
                               const std::vector<RulePtr>& rules,
                               const CleanOptions& options,
                               FixPointSetup setup)
    : ctx_(ctx),
      table_(table),
      rules_(rules),
      options_(options),
      setup_(std::move(setup)),
      freeze_(*setup_.freeze) {
  if (!setup_.find_row) {
    setup_.find_row = [table](RowId id) {
      return table->FindMutableRowById(id);
    };
  }
}

std::string FixPointDriver::ColumnName(size_t column) const {
  const Schema& schema = table_->schema();
  return column < schema.num_attributes() ? schema.attribute(column)
                                          : std::string();
}

Result<FixPointResult> FixPointDriver::Run(
    DetectionSource* source, std::unordered_set<RowId>* changed) {
  // Scoped so nested detect/repair stages all see the run's fault policy
  // and the context is restored when the run returns.
  std::optional<ScopedFaultPolicy> scoped_policy;
  if (options_.fault_policy.has_value()) {
    scoped_policy.emplace(ctx_, *options_.fault_policy);
  }

  // The whole run is one job span; each iteration contributes a detect and
  // a repair phase span underneath it.
  TraceRecorder& trace = TraceRecorder::Instance();
  std::optional<ScopedSpan> job_span;
  if (trace.enabled()) {
    job_span.emplace(setup_.job, "job");
    job_span->Annotate("rules", static_cast<uint64_t>(rules_.size()));
    job_span->Annotate("max_iterations",
                       static_cast<uint64_t>(options_.max_iterations));
  }

  // Data-quality plane: one run record, folding every iteration's
  // violation/fix/unresolved attribution. One relaxed load when off.
  FixPointResult result;
  QualityRecorder& quality = QualityRecorder::Instance();
  quality_on_ = quality.enabled();
  quality_run_ = quality_on_ ? quality.BeginRun(rules_.size(),
                                                table_->num_rows(),
                                                setup_.session)
                             : 0;
  QualityRunGuard quality_guard{quality_run_, &result.report};

  // Defensive boundary: the detect and repair entry points already map
  // StageError to Status, but a stage failure escaping a future code path
  // must still surface as a Status here, never as a crash.
  try {
    if (quality_on_ && setup_.profile_input) {
      quality.RecordProfile(quality_run_, ProfileTable(ctx_, *table_));
    }
    CleanReport& report = result.report;
    const RepairStrategy& strategy = RepairStrategyFor(options_.repair_mode);
    for (size_t iter = 0; iter < options_.max_iterations; ++iter) {
      const std::string suffix = ":iter" + std::to_string(iter + 1);
      IterationReport it;
      QualityIterationSample sample;
      sample.iteration = iter + 1;

      Stopwatch detect_timer;
      std::optional<ScopedSpan> detect_span;
      if (trace.enabled()) detect_span.emplace("detect" + suffix, "phase");
      auto detections = source->Detect(iter, *changed);
      if (!detections.ok()) return detections.status();
      it.detect_seconds = detect_timer.ElapsedSeconds();
      report.total_detect_seconds += it.detect_seconds;
      detect_span.reset();

      std::vector<ViolationWithFixes> violations = Pool(&*detections, &sample);
      it.violations = violations.size();
      // Converged: nothing left to repair, or a repair that changes nothing
      // (the remaining violations have no possible fixes).
      bool done = violations.empty();
      if (!done) {
        Stopwatch repair_timer;
        std::optional<ScopedSpan> repair_span;
        if (trace.enabled()) {
          repair_span.emplace("repair" + suffix, "phase");
          repair_span->Annotate("violations",
                                static_cast<uint64_t>(violations.size()));
        }
        auto pass = strategy.Repair(ctx_, violations, options_.repair);
        if (!pass.ok()) return pass.status();
        it.applied_fixes = Apply(*pass, violations, iter + 1, &sample, &result);
        it.repair_seconds = repair_timer.ElapsedSeconds();
        report.total_repair_seconds += it.repair_seconds;
        if (repair_span) {
          repair_span->Annotate("applied_fixes",
                                static_cast<uint64_t>(it.applied_fixes));
        }
        done = it.applied_fixes == 0;
        if (!done) {
          // Every proposed assignment counts toward freezing, applied or not,
          // and seeds the next detection.
          changed->clear();
          for (const auto& a : pass->applied) {
            changed->insert(a.cell.row_id);
            if (++freeze_.update_counts[a.cell] >=
                options_.freeze_after_updates) {
              freeze_.frozen.insert(a.cell);
            }
          }
        }
      }
      report.iterations.push_back(it);

      if (quality_on_) {
        // Sampled after the freeze bookkeeping, so the curve point is the
        // state the next iteration starts from. A cell updated in more than
        // one iteration is oscillating: what freezing exists to terminate.
        sample.frozen_cells = freeze_.frozen.size();
        for (const auto& [cell, count] : freeze_.update_counts) {
          if (count >= 2) ++sample.oscillating_cells;
        }
        quality.RecordIteration(quality_run_, sample);
      }
      if (done) {
        report.converged = true;
        break;
      }
    }
  } catch (const StageError& e) {
    return e.status();
  }

  if (job_span) {
    job_span->Annotate("iterations",
                       static_cast<uint64_t>(result.report.iterations.size()));
    job_span->Annotate("converged", std::string(result.report.converged
                                                    ? "true"
                                                    : "false"));
    // Fold the ledger rollup of this run into the EXPLAIN tree: one pair of
    // annotations per rule with at least one applied fix or survivor.
    for (const auto& [rule, s] : lineage_by_rule_) {
      job_span->Annotate("lineage." + rule + ".fixes", s.applied_fixes);
      job_span->Annotate("lineage." + rule + ".unresolved", s.unresolved);
    }
  }
  return result;
}

std::vector<ViolationWithFixes> FixPointDriver::Pool(
    std::vector<DetectionResult>* detections,
    QualityIterationSample* sample) const {
  // Violations whose fixes only touch frozen cells are dropped: they have
  // no possible fixes, which ends the loop (§2.1).
  std::vector<ViolationWithFixes> pooled;
  for (auto& d : *detections) {
    for (auto& vf : d.violations) {
      bool repairable = false;
      for (const auto& f : vf.fixes) {
        if (freeze_.frozen.count(f.left.ref) == 0) {
          repairable = true;
          break;
        }
      }
      if (!repairable) continue;
      if (quality_on_) {
        // A violation attributes to the column of its first candidate fix
        // — deterministic, so the per-rule sums reconcile exactly with the
        // lineage ledger and the CleanReport.
        ++sample->violations[vf.violation.rule_name]
                            [ColumnName(vf.fixes.front().left.ref.column)];
      }
      pooled.push_back(std::move(vf));
    }
  }
  return pooled;
}

size_t FixPointDriver::Apply(const RepairPassResult& pass,
                             const std::vector<ViolationWithFixes>& violations,
                             size_t iteration, QualityIterationSample* sample,
                             FixPointResult* result) {
  LineageRecorder& lineage = LineageRecorder::Instance();
  const bool lineage_on = lineage.enabled();
  const bool attribute = lineage_on || quality_on_;
  // Provenance is shorter than the assignments when lineage was toggled
  // mid-run; those assignments attribute to no rule.
  const std::vector<FixProvenance>& provenance = pass.provenance;
  const FixProvenance no_provenance;
  std::unordered_set<uint64_t> resolved;
  std::vector<CellRef> changed_cells;
  for (size_t i = 0; i < pass.applied.size(); ++i) {
    const CellAssignment& a = pass.applied[i];
    if (freeze_.frozen.count(a.cell) > 0) continue;
    Row* row = setup_.find_row(a.cell.row_id);
    if (row == nullptr || a.cell.column >= row->size()) continue;
    if (row->value(a.cell.column) == a.value) continue;
    if (attribute) {
      const FixProvenance& p =
          i < provenance.size() ? provenance[i] : no_provenance;
      if (i < provenance.size()) resolved.insert(p.violation_id);
      ++lineage_by_rule_[p.rule].applied_fixes;
      if (quality_on_) ++sample->fixes[p.rule][ColumnName(a.cell.column)];
      if (lineage_on) {
        LineageEntry entry;
        entry.row_id = a.cell.row_id;
        entry.column = a.cell.column;
        entry.attribute = ColumnName(a.cell.column);
        entry.old_value = row->value(a.cell.column);
        entry.new_value = a.value;
        entry.iteration = iteration;
        entry.rule = p.rule;
        entry.violation_id = p.violation_id;
        entry.strategy = p.strategy;
        entry.component = p.component;
        lineage.RecordFix(std::move(entry));
      }
    }
    row->set_value(a.cell.column, a.value);
    changed_cells.push_back(a.cell);
  }
  if (setup_.after_apply && !changed_cells.empty()) {
    setup_.after_apply(changed_cells);
  }

  // Every pooled violation with no applied fix this iteration survives
  // into the next detect pass (or the end of the run) unresolved.
  if (attribute) {
    for (uint64_t vid = 0; vid < violations.size(); ++vid) {
      if (resolved.count(vid) > 0) continue;
      const std::string& rule = violations[vid].violation.rule_name;
      lineage.RecordUnresolved(rule, vid, iteration);
      ++lineage_by_rule_[rule].unresolved;
      ++result->unresolved;
      if (quality_on_) {
        ++sample->unresolved[rule][ColumnName(
            violations[vid].fixes.front().left.ref.column)];
      }
    }
  }
  return changed_cells.size();
}

}  // namespace bigdansing
