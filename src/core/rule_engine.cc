#include "core/rule_engine.h"

#include <algorithm>
#include <optional>
#include <unordered_map>

#include "common/hash.h"
#include "common/metrics_registry.h"
#include "common/trace.h"
#include "data/dictionary.h"
#include "dataflow/dataset.h"
#include "dataflow/stage_executor.h"
#include "obs/profiler.h"
#include "rules/detect_kernel.h"

namespace bigdansing {

namespace {

/// Block key type: a stable hash of the blocking-key values. Collisions only
/// merge blocks (Detect re-checks the actual predicates), never lose pairs
/// that belong together, so correctness is preserved.
using BlockKey = uint64_t;

/// Compact handle to a base-table row: partition + index within the
/// partition. Blocks and pair lists carry these 8-byte refs instead of
/// whole Rows; GroupByKey's output depends only on the key sequence, never
/// on the value type, so the grouped layout is the one rows would get.
struct RowRef {
  uint32_t part;
  uint32_t idx;
};

using Blocks = Dataset<std::pair<BlockKey, std::vector<RowRef>>>;

/// Per-task accumulation of detection output. `detect_calls` counts
/// candidate-pair (or unit) decisions, whichever decider made them.
struct TaskOutput {
  std::vector<ViolationWithFixes> violations;
  uint64_t detect_calls = 0;
};

/// Runs Detect and GenFix on the ordered pair (a, b), appending to `out`.
/// Does not count the decision: the enumeration site does.
void MaterializePair(const Rule& rule, const Row& a, const Row& b,
                     TaskOutput* out) {
  std::vector<Violation> found;
  rule.Detect(a, b, &found);
  for (auto& v : found) {
    ViolationWithFixes vf;
    vf.violation = std::move(v);
    rule.GenFix(vf.violation, &vf.fixes);
    out->violations.push_back(std::move(vf));
  }
}

/// Arity-1 analogue of MaterializePair.
void MaterializeSingle(const Rule& rule, const Row& row, TaskOutput* out) {
  std::vector<Violation> found;
  rule.DetectSingle(row, &found);
  for (auto& v : found) {
    ViolationWithFixes vf;
    vf.violation = std::move(v);
    rule.GenFix(vf.violation, &vf.fixes);
    out->violations.push_back(std::move(vf));
  }
}

/// Folds one partition's morsel partials into its TaskOutput, in morsel
/// (unit-range) order — violation order stays identical to one sequential
/// pass over the partition's units.
TaskOutput MergeTaskPieces(size_t, std::vector<TaskOutput>&& pieces) {
  TaskOutput merged;
  size_t total = 0;
  for (const auto& piece : pieces) total += piece.violations.size();
  merged.violations.reserve(total);
  for (auto& piece : pieces) {
    merged.detect_calls += piece.detect_calls;
    for (auto& v : piece.violations) {
      merged.violations.push_back(std::move(v));
    }
  }
  return merged;
}

/// Merges per-task outputs into a DetectionResult. Driver-side (one call
/// per detection stage), so the registry bookkeeping here is off the
/// worker-timed hot path.
void MergeOutputs(std::vector<TaskOutput>* tasks, DetectionResult* result) {
  ScopedActivity activity(
      Profiler::Instance().Intern("detect:merge", "driver"), 0, 0);
  size_t total = 0;
  for (const auto& t : *tasks) total += t.violations.size();
  result->violations.reserve(result->violations.size() + total);
  uint64_t fixes = 0;
  for (auto& t : *tasks) {
    result->detect_calls += t.detect_calls;
    for (auto& v : t.violations) {
      fixes += v.fixes.size();
      result->violations.push_back(std::move(v));
    }
  }
  if (total > 0) {
    MetricsRegistry& registry = MetricsRegistry::Instance();
    registry.GetCounter("rules.violations_detected").Add(total);
    registry.GetCounter("rules.fixes_proposed").Add(fixes);
  }
}

/// Runs one morselized detection stage over `ds`: `decide(p, begin, end,
/// out)` decides units [begin, end) of partition p into `out`.
/// `count_pairs` adds the stage's decisions to the pairs-enumerated
/// counter (pair enumerations only; joins count their own candidates).
template <typename T, typename F>
void RunDetectStage(ExecutionContext* ctx, const Dataset<T>& ds,
                    const std::string& name, bool count_pairs, F&& decide,
                    DetectionResult* result) {
  const auto& parts = ds.partitions();
  std::vector<TaskOutput> tasks = ds.template RunStageMorsels<TaskOutput>(
      name, [&](size_t p) { return parts[p].size(); },
      [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
        TaskOutput out;
        decide(p, begin, end, &out);
        if (count_pairs) ctx->metrics().AddPairsEnumerated(out.detect_calls);
        tc.records_in = end - begin;
        tc.records_out = out.violations.size();
        return out;
      },
      MergeTaskPieces);
  MergeOutputs(&tasks, result);
}

/// Rows of `table` as a distributed dataset. The partition copy is serial
/// driver work; published to the sampling profiler so profiled runs
/// attribute it instead of counting idle ticks.
Dataset<Row> LoadTable(ExecutionContext* ctx, const Table& table) {
  ScopedActivity activity(Profiler::Instance().Intern("load:table", "driver"),
                          0, 0);
  return Dataset<Row>::FromVector(ctx, table.rows());
}

std::string ColumnsSig(const std::vector<size_t>& columns) {
  std::string sig;
  for (size_t c : columns) sig += std::to_string(c) + ",";
  return sig;
}

/// Per-request caches, keyed in base-column space so rules with different
/// scopes still share work (φ1 zipcode→city and φ6 zipcode→state encode and
/// block once): encoded column sets by pool group, detect-schema rows by
/// scope, grouped blocks by key.
struct DetectCaches {
  std::unordered_map<std::string, EncodedColumnSet> encoded;
  std::unordered_map<std::string, Dataset<Row>> scoped;
  std::unordered_map<std::string, Blocks> blocks;
};

/// How a request narrows the enumeration: incremental requests decide only
/// candidates holding a changed unit; a storage replica partitioned on the
/// blocking attribute groups blocks locally instead of shuffling.
struct Route {
  const std::unordered_set<RowId>* changed = nullptr;
  const PartitionedReplica* replica = nullptr;
};

/// Per-task buffers for the batched block decision.
struct BlockScratch {
  std::vector<CodeTuple> tuples;
  std::vector<std::pair<uint32_t, uint32_t>> matches;
};

/// Decides candidates with the compiled kernel over dictionary codes;
/// `Rule::Detect` materializes only matches, on the scope projection of the
/// matched rows.
class KernelDecider {
 public:
  KernelDecider(const Rule& rule, const DetectKernel& kernel,
                const std::vector<std::vector<const uint32_t*>>& slots,
                const std::vector<std::vector<Row>>& base,
                const std::vector<size_t>& scope_columns)
      : rule_(rule),
        kernel_(kernel),
        slots_(slots),
        base_(base),
        scope_columns_(scope_columns) {}

  void Single(RowRef r, TaskOutput* out) const {
    ++out->detect_calls;
    if (kernel_.MatchesSingle(Tuple(r))) {
      Row storage;
      MaterializeSingle(rule_, Get(r, &storage), out);
    }
  }

  void Pair(RowRef a, RowRef b, TaskOutput* out) const {
    ++out->detect_calls;
    if (kernel_.Matches(Tuple(a), Tuple(b))) Materialize(a, b, out);
  }

  /// Every pair i < j of a symmetric rule's block in one batched kernel
  /// call — a branch-light loop over contiguous codes with no per-pair
  /// virtual dispatch. MatchUpper reports matches in the (i, j) order of
  /// the per-pair loop.
  void UpperTriangle(const std::vector<RowRef>& block, BlockScratch* scratch,
                     TaskOutput* out) const {
    const size_t n = block.size();
    scratch->tuples.clear();
    for (const RowRef& r : block) scratch->tuples.push_back(Tuple(r));
    scratch->matches.clear();
    out->detect_calls += n * (n - 1) / 2;
    kernel_.MatchUpper(scratch->tuples.data(), n, &scratch->matches);
    for (const auto& [i, j] : scratch->matches) {
      Materialize(block[i], block[j], out);
    }
  }

 private:
  CodeTuple Tuple(RowRef r) const {
    return CodeTuple{slots_[r.part].data(), r.idx};
  }
  const Row& Get(RowRef r, Row* storage) const {
    const Row& row = base_[r.part][r.idx];
    if (scope_columns_.empty()) return row;
    *storage = ScopeProject(row, scope_columns_);
    return *storage;
  }
  void Materialize(RowRef a, RowRef b, TaskOutput* out) const {
    Row sa, sb;
    MaterializePair(rule_, Get(a, &sa), Get(b, &sb), out);
  }

  const Rule& rule_;
  const DetectKernel& kernel_;
  const std::vector<std::vector<const uint32_t*>>& slots_;
  const std::vector<std::vector<Row>>& base_;
  const std::vector<size_t>& scope_columns_;
};

/// Decides candidates with `Rule::Detect` on detect-schema rows (UDF and
/// similarity rules, and every rule with kernels disabled).
class RowDecider {
 public:
  RowDecider(const Rule& rule, const std::vector<std::vector<Row>>& rows)
      : rule_(rule), rows_(rows) {}

  void Single(RowRef r, TaskOutput* out) const {
    ++out->detect_calls;
    MaterializeSingle(rule_, rows_[r.part][r.idx], out);
  }

  void Pair(RowRef a, RowRef b, TaskOutput* out) const {
    ++out->detect_calls;
    MaterializePair(rule_, rows_[a.part][a.idx], rows_[b.part][b.idx], out);
  }

  void UpperTriangle(const std::vector<RowRef>& block, BlockScratch*,
                     TaskOutput* out) const {
    for (size_t i = 0; i < block.size(); ++i) {
      for (size_t j = i + 1; j < block.size(); ++j) {
        Pair(block[i], block[j], out);
      }
    }
  }

 private:
  const Rule& rule_;
  const std::vector<std::vector<Row>>& rows_;
};

/// The candidate pairs of one block, by Iterate strategy: unordered pairs
/// under UCrossProduct (n(n-1)/2 decisions for symmetric rules, both
/// orientations otherwise), else every ordered pair row-major (the
/// CrossProduct wrapper, and the within-block order of blocked OCJoin
/// rules, whose blocks are small enough for a local quadratic pass).
template <typename Decider>
void EnumerateBlock(const PhysicalRulePlan& plan, const Decider& d,
                    const std::vector<RowRef>& block, BlockScratch* scratch,
                    TaskOutput* out) {
  if (plan.strategy == IterateStrategy::kUCrossProduct) {
    if (plan.rule->IsSymmetric()) {
      d.UpperTriangle(block, scratch, out);
      return;
    }
    for (size_t i = 0; i < block.size(); ++i) {
      for (size_t j = i + 1; j < block.size(); ++j) {
        d.Pair(block[i], block[j], out);
        d.Pair(block[j], block[i], out);
      }
    }
    return;
  }
  for (size_t i = 0; i < block.size(); ++i) {
    for (size_t j = 0; j < block.size(); ++j) {
      if (i != j) d.Pair(block[i], block[j], out);
    }
  }
}

/// One rule's detection over `base`: the enumeration of its plan shape
/// (single units, blocks, the global inequality join, or all pairs),
/// narrowed by the request's route, with one decider per stage.
class RuleDetector {
 public:
  RuleDetector(ExecutionContext* ctx, const PlannerOptions& options,
               const PhysicalRulePlan& plan, const Dataset<Row>& base,
               const Route& route, DetectCaches* caches)
      : ctx_(ctx),
        options_(options),
        plan_(plan),
        base_(base),
        bparts_(base.partitions()),
        route_(route),
        caches_(caches) {
    if (ctx->kernels_enabled()) {
      tmpl_ = KernelRegistry::Instance().Compile(*plan.rule,
                                                 plan.detect_schema);
    }
    prefix_ = tmpl_ != nullptr ? "kernel:" : "";
  }

  void Run(DetectionResult* result) {
    const bool blocked = !plan_.blocking_columns.empty() ||
                         static_cast<bool>(plan_.block_key_fn);
    const bool join = plan_.strategy == IterateStrategy::kOCJoin && !blocked &&
                      route_.changed == nullptr;
    const bool iejoin = join && options_.use_iejoin &&
                        IEJoinApplicable(plan_.ocjoin_conditions);
    Encode(blocked && !plan_.block_key_fn, join && !iejoin);
    if (tmpl_ != nullptr) result->plan_description += " [kernel]";
    if (plan_.strategy == IterateStrategy::kSingle) {
      Single(result);
    } else if (blocked) {
      Blocked(result);
    } else if (join) {
      Join(iejoin, result);
    } else {
      AllPairs(result);
    }
  }

 private:
  size_t ToBase(size_t c) const {
    return plan_.scope_columns.empty() ? c : plan_.scope_columns[c];
  }

  bool Changed(RowRef r) const {
    return route_.changed->count(bparts_[r.part][r.idx].id()) > 0;
  }

  static void OpenSpan(std::optional<ScopedSpan>* span,
                       const std::string& name) {
    if (TraceRecorder::Instance().enabled()) span->emplace(name, "operator");
  }

  /// Dictionary-encodes, straight from base rows, the columns the kernel
  /// reads, the blocking key (`key_columns`) and the join conditions
  /// (`join_columns`), then binds the kernel. Columns whose codes are
  /// compared across columns — by a kernel predicate or a join condition —
  /// share one pool. Each group is cached by its sorted base columns.
  void Encode(bool key_columns, bool join_columns) {
    std::vector<size_t> cols;    // base columns, first-appearance order
    std::vector<size_t> parent;  // union-find over positions in `cols`
    auto slot = [&](size_t c) {
      c = ToBase(c);
      auto it = std::find(cols.begin(), cols.end(), c);
      if (it != cols.end()) return static_cast<size_t>(it - cols.begin());
      cols.push_back(c);
      parent.push_back(parent.size());
      return cols.size() - 1;
    };
    auto root = [&](size_t s) {
      while (parent[s] != s) s = parent[s];
      return s;
    };
    auto unite = [&](size_t a, size_t b) {
      const size_t ra = root(slot(a));
      const size_t rb = root(slot(b));
      parent[std::max(ra, rb)] = std::min(ra, rb);
    };
    if (tmpl_ != nullptr) {
      for (const auto& g : tmpl_->shared_groups()) {
        for (size_t c : g) unite(g.front(), c);
      }
      for (size_t c : tmpl_->columns()) slot(c);
    }
    if (key_columns) {
      for (size_t c : plan_.blocking_columns) slot(c);
    }
    if (join_columns) {
      for (const auto& c : plan_.ocjoin_conditions) {
        unite(c.left_column, c.right_column);
      }
    }
    std::vector<std::vector<size_t>> groups;
    std::vector<size_t> group_of(cols.size());
    for (size_t s = 0; s < cols.size(); ++s) {
      const size_t r = root(s);
      if (r == s) {
        group_of[s] = groups.size();
        groups.emplace_back();
      } else {
        group_of[s] = group_of[r];
      }
      groups[group_of[s]].push_back(cols[s]);
    }

    std::vector<std::string> sigs;
    std::vector<size_t> missing;  // indexes into `groups`
    std::vector<std::vector<size_t>> to_encode;
    for (size_t g = 0; g < groups.size(); ++g) {
      std::vector<size_t> sorted = groups[g];
      std::sort(sorted.begin(), sorted.end());
      sigs.push_back(ColumnsSig(sorted));
      if (caches_->encoded.count(sigs.back()) == 0) {
        missing.push_back(g);
        to_encode.push_back(groups[g]);
      }
    }
    if (!missing.empty()) {
      std::optional<ScopedSpan> span;
      OpenSpan(&span, "encode");
      EncodedColumnSet fresh = EncodeColumns(base_, to_encode);
      for (size_t g : missing) {
        EncodedColumnSet& set = caches_->encoded[sigs[g]];
        set.rows = fresh.rows;
        for (size_t c : groups[g]) {
          set.columns.emplace(c, std::move(fresh.columns.at(c)));
        }
      }
    }
    for (size_t g = 0; g < groups.size(); ++g) {
      const EncodedColumnSet& set = caches_->encoded.at(sigs[g]);
      for (size_t c : groups[g]) enc_.emplace(c, &set.columns.at(c));
    }

    if (tmpl_ == nullptr) return;
    std::vector<const ValuePool*> pools;
    for (size_t c : tmpl_->columns()) {
      pools.push_back(enc_.at(ToBase(c))->pool.get());
    }
    kernel_ = tmpl_->Bind(pools);
    slot_ptrs_.resize(bparts_.size());
    for (size_t p = 0; p < bparts_.size(); ++p) {
      for (size_t c : tmpl_->columns()) {
        slot_ptrs_[p].push_back(enc_.at(ToBase(c))->codes[p].data());
      }
    }
  }

  /// Detect-schema rows, partition-aligned with the base: the base rows
  /// themselves without a scope, else the PScope projection, built once per
  /// request for each distinct scope.
  const std::vector<std::vector<Row>>& DetectRows() {
    if (plan_.scope_columns.empty()) return bparts_;
    const std::string sig = ColumnsSig(plan_.scope_columns);
    auto it = caches_->scoped.find(sig);
    if (it == caches_->scoped.end()) {
      std::optional<ScopedSpan> span;
      OpenSpan(&span, "scope");
      const std::vector<size_t> columns = plan_.scope_columns;
      Dataset<Row> scoped = base_.Map(
          [columns](const Row& row) { return ScopeProject(row, columns); },
          "scope");
      scoped.partitions();  // runs the stage inside the span
      it = caches_->scoped.emplace(sig, std::move(scoped)).first;
    }
    return it->second.partitions();
  }

  /// Runs `body` with this rule's decider: the compiled kernel over codes
  /// when one is bound, else Rule::Detect on detect-schema rows. Chosen
  /// once per stage, never per candidate.
  template <typename F>
  void Decide(F&& body) {
    if (kernel_ != nullptr) {
      body(KernelDecider(*plan_.rule, *kernel_, slot_ptrs_, bparts_,
                         plan_.scope_columns));
    } else {
      body(RowDecider(*plan_.rule, DetectRows()));
    }
  }

  /// Every base row, in partition-major order: the positions of the
  /// unblocked enumerations and of the global join.
  std::vector<RowRef> AllRefs() const {
    std::vector<RowRef> refs;
    for (size_t p = 0; p < bparts_.size(); ++p) {
      for (size_t i = 0; i < bparts_[p].size(); ++i) {
        refs.push_back(
            RowRef{static_cast<uint32_t>(p), static_cast<uint32_t>(i)});
      }
    }
    return refs;
  }

  /// Arity-1 rules: units flow straight to the decider (only the changed
  /// ones for an incremental request).
  void Single(DetectionResult* result) {
    std::optional<ScopedSpan> span;
    OpenSpan(&span, prefix_ + "detect|genfix");
    Decide([&](const auto& d) {
      RunDetectStage(
          ctx_, base_, prefix_ + "detect:single|genfix", false,
          [&](size_t p, size_t begin, size_t end, TaskOutput* out) {
            for (size_t i = begin; i < end; ++i) {
              const RowRef r{static_cast<uint32_t>(p),
                             static_cast<uint32_t>(i)};
              if (route_.changed == nullptr || Changed(r)) d.Single(r, out);
            }
          },
          result);
    });
  }

  /// Blocked rules: Block, then Iterate within blocks. Morsel units are
  /// whole blocks, so a skewed partition (one giant dedup block plus many
  /// tiny ones) does not pin a worker: idle workers steal its block ranges.
  void Blocked(DetectionResult* result) {
    std::optional<ScopedSpan> span;
    OpenSpan(&span, prefix_ + "block|iterate|detect|genfix");
    const Blocks blocks = BuildBlocks();
    const auto& gparts = blocks.partitions();
    Decide([&](const auto& d) {
      RunDetectStage(
          ctx_, blocks, prefix_ + "iterate|detect|genfix", true,
          [&](size_t p, size_t begin, size_t end, TaskOutput* out) {
            BlockScratch scratch;
            for (size_t b = begin; b < end; ++b) {
              EnumerateBlock(plan_, d, gparts[p][b].second, &scratch, out);
            }
          },
          result);
    });
  }

  /// PBlock: keys every unit — column keys from the pools' precomputed
  /// per-code hashes (equal to Value::Hash), procedural keys from
  /// block_key_fn on the detect-schema row — drops keyless units (a null
  /// key component or a null UDF key) and groups RowRefs by key. Full
  /// requests share column-keyed blocks across rules; a procedural key is
  /// opaque, so its blocks are never shared.
  Blocks BuildBlocks() {
    std::vector<size_t> base_cols;
    for (size_t c : plan_.blocking_columns) base_cols.push_back(ToBase(c));
    const std::string sig = ColumnsSig(base_cols);
    const bool shared = !plan_.block_key_fn && route_.changed == nullptr &&
                        route_.replica == nullptr;
    if (shared) {
      auto it = caches_->blocks.find(sig);
      if (it != caches_->blocks.end()) return it->second;
    }

    const std::vector<std::vector<Row>>* rows =
        plan_.block_key_fn ? &DetectRows() : nullptr;
    std::vector<const EncodedColumn*> key_cols;
    if (rows == nullptr) {
      for (size_t c : plan_.blocking_columns) {
        key_cols.push_back(enc_.at(ToBase(c)));
      }
    }
    using Keyed = std::vector<std::pair<BlockKey, RowRef>>;
    std::vector<Keyed> keyed = base_.RunStageMorsels<Keyed>(
        "block", [&](size_t p) { return bparts_[p].size(); },
        [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
          Keyed out;
          out.reserve(end - begin);
          for (size_t i = begin; i < end; ++i) {
            uint64_t h = 0x42D;
            if (rows != nullptr) {
              const Value v =
                  plan_.block_key_fn(plan_.detect_schema, (*rows)[p][i]);
              if (v.is_null()) continue;
              h = v.Hash();
            } else {
              bool keyed_row = true;
              for (const EncodedColumn* col : key_cols) {
                const uint32_t code = col->codes[p][i];
                if (code == ValuePool::kNullCode) {
                  keyed_row = false;
                  break;
                }
                h = StableHashUint64(h ^ col->pool->hash(code));
              }
              if (!keyed_row) continue;
            }
            out.emplace_back(h, RowRef{static_cast<uint32_t>(p),
                                       static_cast<uint32_t>(i)});
          }
          tc.records_in = end - begin;
          tc.records_out = out.size();
          return out;
        },
        [](size_t, std::vector<Keyed>&& pieces) {
          Keyed merged;
          size_t total = 0;
          for (const auto& piece : pieces) total += piece.size();
          merged.reserve(total);
          for (auto& piece : pieces) {
            merged.insert(merged.end(), piece.begin(), piece.end());
          }
          return merged;
        });

    StageExecutor executor(ctx_);
    if (route_.replica != nullptr) {
      // Rows sharing a key are co-located in one storage partition, so
      // grouping is local to each partition: no shuffle.
      auto local = executor.RunProducing<
          std::vector<std::pair<BlockKey, std::vector<RowRef>>>>(
          "block:local", keyed.size(), [&](size_t p, TaskContext& tc) {
            std::unordered_map<BlockKey, std::vector<RowRef>> groups;
            for (const auto& [key, ref] : keyed[p]) groups[key].push_back(ref);
            std::vector<std::pair<BlockKey, std::vector<RowRef>>> out;
            out.reserve(groups.size());
            for (auto& g : groups) {
              out.emplace_back(g.first, std::move(g.second));
            }
            tc.records_in = keyed[p].size();
            tc.records_out = out.size();
            return out;
          });
      if (!local.ok()) throw StageError(local.status());
      return Blocks(ctx_, std::move(*local));
    }
    if (route_.changed != nullptr) {
      // Only blocks holding a changed unit can gain or lose violations:
      // shuffle just the units sharing a changed unit's key.
      auto per_part = executor.RunProducing<std::vector<BlockKey>>(
          "block:dirty-keys", keyed.size(), [&](size_t p, TaskContext& tc) {
            std::vector<BlockKey> keys;
            for (const auto& [key, ref] : keyed[p]) {
              if (Changed(ref)) keys.push_back(key);
            }
            tc.records_in = keyed[p].size();
            tc.records_out = keys.size();
            return keys;
          });
      if (!per_part.ok()) throw StageError(per_part.status());
      std::unordered_set<BlockKey> dirty;
      for (const auto& keys : *per_part) dirty.insert(keys.begin(), keys.end());
      for (Keyed& piece : keyed) {
        piece.erase(std::remove_if(piece.begin(), piece.end(),
                                   [&](const auto& kv) {
                                     return dirty.count(kv.first) == 0;
                                   }),
                    piece.end());
      }
    }
    Blocks blocks = GroupByKey(
        Dataset<std::pair<BlockKey, RowRef>>(ctx_, std::move(keyed)));
    if (shared) caches_->blocks.emplace(sig, blocks);
    return blocks;
  }

  /// Global inequality self-join: OCJoin over the encoded condition columns
  /// (or IEJoin over detect-schema Values when the planner routes there)
  /// emits position pairs, and the decider decides each, in join order.
  void Join(bool iejoin, DetectionResult* result) {
    std::optional<ScopedSpan> span;
    OpenSpan(&span, prefix_ + "ocjoin|detect|genfix");
    const std::vector<RowRef> refs = AllRefs();
    std::vector<PositionPair> pairs;
    if (iejoin) {
      const auto& parts = DetectRows();
      std::vector<Row> rows;
      rows.reserve(refs.size());
      for (const auto& part : parts) {
        rows.insert(rows.end(), part.begin(), part.end());
      }
      pairs =
          IEJoin(ctx_, rows, plan_.ocjoin_conditions, &result->iejoin_stats);
    } else {
      // Condition columns' codes flattened in position order, indexed by
      // detect-schema column.
      const size_t width = plan_.detect_schema.num_attributes();
      std::vector<std::vector<uint32_t>> flat(width);
      OCJoinInput input;
      input.num_rows = refs.size();
      input.columns.assign(width, nullptr);
      for (const OrderingCondition& c : plan_.ocjoin_conditions) {
        for (size_t col : {c.left_column, c.right_column}) {
          if (!flat[col].empty()) continue;
          flat[col].reserve(refs.size());
          for (const auto& codes : enc_.at(ToBase(col))->codes) {
            flat[col].insert(flat[col].end(), codes.begin(), codes.end());
          }
          input.columns[col] = flat[col].data();
        }
      }
      std::vector<RowId> ids;
      ids.reserve(refs.size());
      for (const RowRef& r : refs) ids.push_back(bparts_[r.part][r.idx].id());
      input.ids = ids.data();
      OCJoinOptions oc_options;
      oc_options.order_conditions_by_selectivity =
          options_.ocjoin_selectivity_ordering;
      pairs = OCJoinPositions(ctx_, input, plan_.ocjoin_conditions,
                              oc_options, &result->ocjoin_stats);
    }
    auto pair_ds = Dataset<PositionPair>::FromVector(ctx_, std::move(pairs));
    const auto& pparts = pair_ds.partitions();
    Decide([&](const auto& d) {
      RunDetectStage(
          ctx_, pair_ds, prefix_ + "detect|genfix:ocjoin-pairs", false,
          [&](size_t p, size_t begin, size_t end, TaskOutput* out) {
            for (size_t i = begin; i < end; ++i) {
              d.Pair(refs[pparts[p][i].first], refs[pparts[p][i].second], out);
            }
          },
          result);
    });
  }

  /// No blocking key: every unordered pair {i, j} of positions, decided as
  /// (i, j), plus (j, i) unless the rule is symmetric under UCrossProduct.
  /// A full request runs chunk pairs (i <= j) as tasks; an incremental one
  /// pairs each changed unit with every other, O(|changed| * n).
  void AllPairs(DetectionResult* result) {
    std::optional<ScopedSpan> span;
    OpenSpan(&span, prefix_ + "iterate|detect|genfix");
    const std::vector<RowRef> refs = AllRefs();
    const size_t n = refs.size();
    const bool unordered = plan_.strategy == IterateStrategy::kUCrossProduct &&
                           plan_.rule->IsSymmetric();
    Decide([&](const auto& d) {
      auto decide = [&](size_t i, size_t j, TaskOutput* out) {
        d.Pair(refs[i], refs[j], out);
        if (!unordered) d.Pair(refs[j], refs[i], out);
      };
      if (route_.changed != nullptr) {
        std::vector<size_t> changed;
        std::vector<bool> is_changed(n);
        for (size_t pos = 0; pos < n; ++pos) {
          is_changed[pos] = Changed(refs[pos]);
          if (is_changed[pos]) changed.push_back(pos);
        }
        auto changed_ds = Dataset<size_t>::FromVector(ctx_, std::move(changed));
        const auto& parts = changed_ds.partitions();
        auto id = [&](size_t pos) {
          return bparts_[refs[pos].part][refs[pos].idx].id();
        };
        RunDetectStage(
            ctx_, changed_ds, prefix_ + "iterate|detect:incremental", true,
            [&](size_t p, size_t begin, size_t end, TaskOutput* out) {
              for (size_t u = begin; u < end; ++u) {
                const size_t c = parts[p][u];
                for (size_t r = 0; r < n; ++r) {
                  // Each unordered pair {c, r} is owned by exactly one
                  // iteration: by c when r is unchanged, else by the
                  // smaller id. Symmetric pairs keep the full pass's
                  // orientation, earlier position first.
                  if (r == c || (is_changed[r] && id(r) < id(c))) continue;
                  if (unordered && r < c) {
                    decide(r, c, out);
                  } else {
                    decide(c, r, out);
                  }
                }
              }
            },
            result);
        return;
      }
      size_t num_chunks = std::max<size_t>(1, ctx_->num_workers() * 2);
      if (num_chunks > n) num_chunks = std::max<size_t>(1, n);
      const size_t chunk = (n + num_chunks - 1) / num_chunks;
      std::vector<std::pair<size_t, size_t>> chunk_pairs;
      for (size_t i = 0; i < num_chunks; ++i) {
        for (size_t j = i; j < num_chunks; ++j) chunk_pairs.emplace_back(i, j);
      }
      auto tasks = StageExecutor(ctx_).RunProducing<TaskOutput>(
          prefix_ + "iterate|detect|genfix:unblocked", chunk_pairs.size(),
          [&](size_t t, TaskContext& tc) {
            const auto [ci, cj] = chunk_pairs[t];
            const size_t iend = std::min(n, ci * chunk + chunk);
            const size_t jend = std::min(n, cj * chunk + chunk);
            TaskOutput out;
            for (size_t i = ci * chunk; i < iend; ++i) {
              for (size_t j = ci == cj ? i + 1 : cj * chunk; j < jend; ++j) {
                decide(i, j, &out);
              }
            }
            ctx_->metrics().AddPairsEnumerated(out.detect_calls);
            tc.records_in = iend - std::min(n, ci * chunk);
            tc.records_out = out.violations.size();
            return out;
          });
      if (!tasks.ok()) throw StageError(tasks.status());
      MergeOutputs(&*tasks, result);
    });
  }

  ExecutionContext* ctx_;
  const PlannerOptions& options_;
  const PhysicalRulePlan& plan_;
  const Dataset<Row>& base_;
  const std::vector<std::vector<Row>>& bparts_;
  const Route& route_;
  DetectCaches* caches_;
  std::shared_ptr<const KernelTemplate> tmpl_;
  std::string prefix_;  ///< "kernel:" on stages the kernel decides.
  std::unique_ptr<DetectKernel> kernel_;
  std::vector<std::vector<const uint32_t*>> slot_ptrs_;
  std::unordered_map<size_t, const EncodedColumn*> enc_;  ///< by base column
};

/// The executed plan as EXPLAIN-style text; RuleDetector appends
/// " [kernel]" when the kernel decides.
std::string Describe(const PhysicalRulePlan& plan, const Route& route) {
  std::string out = plan.ToString();
  if (route.changed != nullptr) {
    out += " [incremental: " + std::to_string(route.changed->size()) +
           " changed rows]";
  }
  if (route.replica != nullptr) {
    out += " [block pushed down to storage replica '" +
           route.replica->attribute + "']";
  }
  return out;
}

/// Runs every plan over one base dataset, sharing encodings, scope
/// projections and blocks across rules (plan consolidation, §4.2).
std::vector<DetectionResult> DetectPlans(
    ExecutionContext* ctx, const PlannerOptions& options,
    const std::vector<PhysicalRulePlan>& plans, const Dataset<Row>& base,
    const Route& route) {
  std::vector<DetectionResult> results(plans.size());
  // Tracing: standalone Detect calls (benches driving the engine directly)
  // become their own job span; when a Clean() fix-point iteration already
  // opened a phase span, rule spans nest under it instead.
  TraceRecorder& trace = TraceRecorder::Instance();
  std::optional<ScopedSpan> job_span;
  if (trace.enabled() && trace.CurrentSpan() == 0) {
    job_span.emplace("detect", "job");
    job_span->Annotate("rules", static_cast<uint64_t>(plans.size()));
  }
  DetectCaches caches;
  for (size_t r = 0; r < plans.size(); ++r) {
    const PhysicalRulePlan& plan = plans[r];
    // Per-rule attribution: every stage this rule forces nests under its
    // rule span, so the EXPLAIN tree and Chrome trace break execution down
    // by rule.
    std::optional<ScopedSpan> rule_span;
    if (trace.enabled()) {
      rule_span.emplace(plan.rule->name(), "rule");
      plan.AnnotateSpan(&*rule_span);
    }
    results[r].plan_description = Describe(plan, route);
    RuleDetector(ctx, options, plan, base, route, &caches).Run(&results[r]);
  }
  return results;
}

}  // namespace

RuleEngine::RuleEngine(ExecutionContext* ctx, PlannerOptions options)
    : ctx_(ctx), options_(options) {}

Result<std::vector<DetectionResult>> RuleEngine::Detect(
    const DetectRequest& request) const {
  // --- Shape validation: reject malformed requests before any stage runs.
  // Zero rules is trivially valid for plain in-memory detection (nothing to
  // detect, empty result) — Clean() with an empty rule list relies on it.
  if (request.rules.empty()) {
    if (request.storage != nullptr || request.right != nullptr ||
        request.changed_rows != nullptr) {
      return Status::InvalidArgument(
          "DetectRequest: at least one rule required");
    }
    if (request.table == nullptr) {
      return Status::InvalidArgument(
          "DetectRequest: a table (or storage + dataset) is required");
    }
    return std::vector<DetectionResult>{};
  }
  for (const auto& rule : request.rules) {
    if (rule == nullptr) {
      return Status::InvalidArgument("DetectRequest: null rule");
    }
  }
  const bool storage_backed = request.storage != nullptr;
  const bool across = request.right != nullptr;
  const bool incremental = request.changed_rows != nullptr;
  if (storage_backed) {
    if (request.table != nullptr || across || incremental) {
      return Status::InvalidArgument(
          "DetectRequest: storage-backed detection takes no table, right "
          "table, or changed-row set");
    }
    if (request.dataset.empty()) {
      return Status::InvalidArgument(
          "DetectRequest: storage-backed detection requires a dataset name");
    }
    if (request.rules.size() != 1) {
      return Status::InvalidArgument(
          "DetectRequest: storage-backed detection takes exactly one rule");
    }
  } else {
    if (request.table == nullptr) {
      return Status::InvalidArgument(
          "DetectRequest: a table (or storage + dataset) is required");
    }
    if (!request.dataset.empty()) {
      return Status::InvalidArgument(
          "DetectRequest: dataset name requires a storage manager");
    }
  }
  std::shared_ptr<DcRule> across_rule;
  if (across) {
    if (incremental) {
      return Status::InvalidArgument(
          "DetectRequest: two-table detection cannot be incremental");
    }
    if (request.rules.size() != 1) {
      return Status::InvalidArgument(
          "DetectRequest: two-table detection takes exactly one rule");
    }
    across_rule = std::dynamic_pointer_cast<DcRule>(request.rules[0]);
    if (across_rule == nullptr) {
      return Status::InvalidArgument(
          "DetectRequest: two-table detection requires a denial-constraint "
          "rule");
    }
  }
  if (incremental && request.rules.size() != 1) {
    return Status::InvalidArgument(
        "DetectRequest: incremental detection takes exactly one rule");
  }

  // --- Scoped fault policy + the single StageError -> Status boundary of
  // the detection API: everything below may throw when a stage exhausts
  // its retry budget.
  std::optional<ScopedFaultPolicy> scoped_policy;
  if (request.fault_policy.has_value()) {
    scoped_policy.emplace(ctx_, *request.fault_policy);
  }
  try {
    if (storage_backed) {
      auto result = DetectWithStorageImpl(*request.storage, request.dataset,
                                          request.rules[0]);
      if (!result.ok()) return result.status();
      std::vector<DetectionResult> out;
      out.push_back(std::move(*result));
      return out;
    }
    if (across) {
      auto result = DetectAcrossImpl(*request.table, *request.right,
                                     across_rule);
      if (!result.ok()) return result.status();
      std::vector<DetectionResult> out;
      out.push_back(std::move(*result));
      return out;
    }
    return DetectAllImpl(*request.table, request.rules, request.changed_rows);
  } catch (const StageError& e) {
    return e.status();
  }
}

Result<DetectionResult> RuleEngine::Detect(const Table& table,
                                           const RulePtr& rule) const {
  DetectRequest request;
  request.table = &table;
  request.rules = {rule};
  auto results = Detect(request);
  if (!results.ok()) return results.status();
  return std::move((*results)[0]);
}

Result<std::vector<DetectionResult>> RuleEngine::DetectAllImpl(
    const Table& table, const std::vector<RulePtr>& rules,
    const std::unordered_set<RowId>* changed_rows) const {
  // Build physical plans first so binding errors surface before any work.
  std::vector<PhysicalRulePlan> plans;
  plans.reserve(rules.size());
  for (const auto& rule : rules) {
    auto plan = BuildPhysicalPlan(rule, table.schema(), options_);
    if (!plan.ok()) return plan.status();
    plans.push_back(std::move(*plan));
  }
  Route route;
  route.changed = changed_rows;
  if (changed_rows != nullptr && changed_rows->empty()) {
    std::vector<DetectionResult> results(plans.size());
    for (size_t r = 0; r < plans.size(); ++r) {
      results[r].plan_description = Describe(plans[r], route);
    }
    return results;
  }
  return DetectPlans(ctx_, options_, plans, LoadTable(ctx_, table), route);
}

Result<DetectionResult> RuleEngine::DetectWithStorageImpl(
    const StorageManager& storage, const std::string& name,
    const RulePtr& rule) const {
  auto schema = storage.GetSchema(name);
  if (!schema.ok()) return schema.status();
  auto plan = BuildPhysicalPlan(rule, *schema, options_);
  if (!plan.ok()) return plan.status();

  // Pushdown applies when the rule blocks on exactly one attribute and a
  // replica partitioned on that attribute exists.
  std::vector<std::string> blocking = rule->BlockingAttributes();
  Route route;
  if (blocking.size() == 1 && !plan->blocking_columns.empty() &&
      !plan->block_key_fn) {
    auto found = storage.FindReplica(name, blocking[0]);
    if (found.ok()) route.replica = *found;
  }
  if (route.replica == nullptr) {
    // No matching replica: ordinary path over the reassembled table.
    auto table = storage.Load(name);
    if (!table.ok()) return table.status();
    auto results = DetectAllImpl(*table, {rule}, nullptr);
    if (!results.ok()) return results.status();
    return std::move((*results)[0]);
  }
  // Rows sharing a blocking key are co-located in one replica partition.
  Dataset<Row> data(ctx_, route.replica->partitions);
  ctx_->metrics().AddRecordsRead(data.Count());
  return std::move(DetectPlans(ctx_, options_, {*plan}, data, route)[0]);
}

Result<DetectionResult> RuleEngine::DetectAcrossImpl(
    const Table& left, const Table& right,
    const std::shared_ptr<DcRule>& rule) const {
  DetectionResult result;
  BIGDANSING_RETURN_NOT_OK(rule->BindAcross(left.schema(), right.schema()));
  TraceRecorder& trace = TraceRecorder::Instance();
  std::optional<ScopedSpan> job_span;
  if (trace.enabled() && trace.CurrentSpan() == 0) {
    job_span.emplace("detect-across", "job");
  }
  std::optional<ScopedSpan> rule_span;
  if (trace.enabled()) rule_span.emplace(rule->name(), "rule");
  auto blocking = rule->BlockingAttributePairs();
  result.plan_description =
      "PhysicalPlan[" + rule->name() + "]: coblock(" +
      std::to_string(blocking.size()) + " key pairs) -> iterate -> detect -> genfix";

  Dataset<Row> left_ds = LoadTable(ctx_, left);
  Dataset<Row> right_ds = LoadTable(ctx_, right);
  auto probe = [&rule](const Row& a, const Row& b, TaskOutput* out) {
    ++out->detect_calls;
    MaterializePair(*rule, a, b, out);
  };

  if (blocking.empty()) {
    // No equality link: cross product of the two datasets.
    std::optional<ScopedSpan> op_span;
    if (trace.enabled()) {
      op_span.emplace("iterate|detect|genfix", "operator");
    }
    auto pairs = left_ds.Cartesian(right_ds);
    const auto& parts = pairs.partitions();
    RunDetectStage(
        ctx_, pairs, "detect|genfix:cartesian", false,
        [&](size_t p, size_t begin, size_t end, TaskOutput* out) {
          for (size_t i = begin; i < end; ++i) {
            probe(parts[p][i].first, parts[p][i].second, out);
          }
        },
        &result);
    return result;
  }

  // CoBlock enhancer: key both sides on their half of the equality
  // predicates and cogroup, so Iterate only pairs units within co-blocks
  // (Figure 6).
  std::vector<size_t> left_cols;
  std::vector<size_t> right_cols;
  for (const auto& [la, ra] : blocking) {
    auto lc = left.schema().IndexOf(la);
    if (!lc.ok()) return lc.status();
    left_cols.push_back(*lc);
    auto rc = right.schema().IndexOf(ra);
    if (!rc.ok()) return rc.status();
    right_cols.push_back(*rc);
  }
  auto key_rows = [](const Dataset<Row>& ds, const std::vector<size_t>& cols) {
    // Deferred until the CoGroup below: capture the column list by value.
    return ds.FlatMap([cols](const Row& row) {
      std::vector<std::pair<BlockKey, Row>> out;
      uint64_t h = 0x42D;
      for (size_t c : cols) {
        const Value& v = row.value(c);
        if (v.is_null()) return out;
        h = StableHashUint64(h ^ v.Hash());
      }
      out.emplace_back(h, row);
      return out;
    });
  };
  std::optional<ScopedSpan> op_span;
  if (trace.enabled()) {
    op_span.emplace("coblock|iterate|detect|genfix", "operator");
  }
  auto coblocks = CoGroup(key_rows(left_ds, left_cols),
                          key_rows(right_ds, right_cols));
  const auto& parts = coblocks.partitions();
  RunDetectStage(
      ctx_, coblocks, "iterate|detect|genfix:coblock", true,
      [&](size_t p, size_t begin, size_t end, TaskOutput* out) {
        for (size_t i = begin; i < end; ++i) {
          const auto& [lbag, rbag] = parts[p][i].second;
          for (const Row& a : lbag) {
            for (const Row& b : rbag) probe(a, b, out);
          }
        }
      },
      &result);
  return result;
}

}  // namespace bigdansing
