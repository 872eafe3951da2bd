#ifndef BIGDANSING_CORE_FIX_POINT_H_
#define BIGDANSING_CORE_FIX_POINT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/lineage.h"
#include "core/bigdansing.h"
#include "core/rule_engine.h"

namespace bigdansing {

struct QualityIterationSample;

/// Where the fix-point driver finds each iteration's violations.
class DetectionSource {
 public:
  virtual ~DetectionSource() = default;

  /// Detects the violations of 0-based iteration `iteration`, one result
  /// per rule in rule order. `changed` holds the rows the previous repair
  /// assigned (on iteration 0, the rows the run was seeded with).
  virtual Result<std::vector<DetectionResult>> Detect(
      size_t iteration, const std::unordered_set<RowId>& changed) = 0;
};

/// Detects every rule over the whole table. With `incremental` set
/// (CleanOptions::incremental_redetection), iterations after the first
/// detect only the violations involving `changed` rows, and an empty
/// incremental pass is confirmed by one full pass — so the fix point is
/// the one full detection reaches.
class TableSource : public DetectionSource {
 public:
  TableSource(ExecutionContext* ctx, const PlannerOptions& planner,
              const Table* table, std::vector<RulePtr> rules,
              bool incremental);

  Result<std::vector<DetectionResult>> Detect(
      size_t iteration, const std::unordered_set<RowId>& changed) override;

 private:
  RuleEngine engine_;
  const Table* table_;
  std::vector<RulePtr> rules_;
  bool incremental_;
};

/// Update counts and frozen cells (§2.2): a cell assigned in
/// freeze_after_updates iterations becomes immutable, so oscillating
/// repairs terminate. Lives as long as the loop it bounds — one Clean()
/// run, or a whole stream session.
struct FreezeState {
  std::unordered_map<CellRef, size_t, CellRefHash> update_counts;
  std::unordered_set<CellRef, CellRefHash> frozen;
};

/// What differs between the driver's callers besides the detection source.
struct FixPointSetup {
  /// Name of the run's job span.
  std::string job;
  /// Session tag of the run's quality record; empty outside a session.
  std::string session;
  /// Attach a profile of the input table to the quality record.
  bool profile_input = false;
  /// The freeze state the run reads and extends; required.
  FreezeState* freeze = nullptr;
  /// Finds the row an assignment writes to (null skips the assignment).
  /// Unset looks the id up in the table.
  std::function<Row*(RowId)> find_row;
  /// Called after each apply with every cell whose value changed.
  std::function<void(const std::vector<CellRef>&)> after_apply;
};

/// Outcome of one driver run.
struct FixPointResult {
  CleanReport report;
  /// Pooled violations that no applied fix resolved, over all iterations.
  /// Counted while lineage or quality attribution is on, else 0.
  uint64_t unresolved = 0;
};

/// The detect -> repair loop of §2.2, run to a fix point: detect through
/// the source, pool every rule's repairable violations (those with a fix
/// on an unfrozen cell), repair them with the configured strategy, apply
/// the assignments with lineage and quality attribution, and freeze cells
/// that keep changing. The loop stops when a pass finds nothing to repair,
/// when a repair applies no change, or after max_iterations passes.
///
/// The driver owns the run's fault-policy scope, its job and phase spans,
/// its quality record, and the StageError -> Status boundary.
class FixPointDriver {
 public:
  FixPointDriver(ExecutionContext* ctx, Table* table,
                 const std::vector<RulePtr>& rules, const CleanOptions& options,
                 FixPointSetup setup);

  /// Runs the loop. `changed` seeds the first detection and, on return,
  /// holds the rows the last repair assigned.
  Result<FixPointResult> Run(DetectionSource* source,
                             std::unordered_set<RowId>* changed);

 private:
  /// Moves the repairable violations of `detections` into one pool.
  std::vector<ViolationWithFixes> Pool(std::vector<DetectionResult>* detections,
                                       QualityIterationSample* sample) const;

  /// Applies one repair pass and attributes each changed cell and each
  /// unresolved violation. Returns the number of cells changed.
  size_t Apply(const RepairPassResult& pass,
               const std::vector<ViolationWithFixes>& violations,
               size_t iteration, QualityIterationSample* sample,
               FixPointResult* result);

  std::string ColumnName(size_t column) const;

  ExecutionContext* ctx_;
  Table* table_;
  const std::vector<RulePtr>& rules_;
  const CleanOptions& options_;
  FixPointSetup setup_;
  FreezeState& freeze_;
  bool quality_on_ = false;
  uint64_t quality_run_ = 0;
  /// Applied fixes and unresolved violations per rule, for this run only.
  std::map<std::string, LineageSummary> lineage_by_rule_;
};

}  // namespace bigdansing

#endif  // BIGDANSING_CORE_FIX_POINT_H_
