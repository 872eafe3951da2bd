#include "core/columnar_detect.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "common/hash.h"
#include "common/logging.h"
#include "common/trace.h"
#include "core/detect_output.h"
#include "core/iejoin.h"
#include "core/ocjoin.h"
#include "dataflow/stage_executor.h"
#include "rules/detect_kernel.h"

namespace bigdansing {
namespace columnar {

namespace {

using detect::MaterializePair;
using detect::MaterializeSingle;
using detect::MergeOutputs;
using detect::MergeTaskPieces;
using detect::TaskOutput;

/// Per-partition arrays of per-slot code pointers, the gather structure
/// every kernel evaluation reads through.
using SlotPtrs = std::vector<std::vector<const uint32_t*>>;

/// Materializes matched candidates exactly as the interpreted path sees
/// them: the base row when the plan has no scope, else the on-demand
/// projection (identical to the eager scope stage's output rows).
class RowMaterializer {
 public:
  RowMaterializer(const std::vector<std::vector<Row>>& bparts,
                  const std::vector<size_t>& scope_columns)
      : bparts_(bparts), scope_columns_(scope_columns) {}

  /// Returns the detect-schema row for `ref` — a reference into the base
  /// partition when no scope applies (no copy), else `*storage` filled with
  /// the projection.
  const Row& Get(const RowRef& ref, Row* storage) const {
    return Get(bparts_[ref.part][ref.idx], storage);
  }

  const Row& Get(const Row& row, Row* storage) const {
    if (scope_columns_.empty()) return row;
    *storage = ScopeProject(row, scope_columns_);
    return *storage;
  }

 private:
  const std::vector<std::vector<Row>>& bparts_;
  const std::vector<size_t>& scope_columns_;
};

/// Reused per-task buffers for the batched block decision.
struct BlockScratch {
  std::vector<CodeTuple> tuples;
  std::vector<std::pair<uint32_t, uint32_t>> matches;
};

/// Kernel analogue of IterateBlock: identical pair enumeration order, with
/// the kernel deciding each pair and the rule materializing only matches.
void IterateBlockKernel(const PhysicalRulePlan& plan,
                        const DetectKernel& kernel,
                        const std::vector<RowRef>& block,
                        const RowMaterializer& rows, const SlotPtrs& slot_ptrs,
                        BlockScratch* scratch, TaskOutput* out) {
  const Rule& rule = *plan.rule;
  auto materialize = [&](const RowRef& a, const RowRef& b) {
    Row sa, sb;
    MaterializePair(rule, rows.Get(a, &sa), rows.Get(b, &sb), out);
  };
  auto eval = [&](const RowRef& a, const RowRef& b) {
    ++out->detect_calls;
    const CodeTuple ta{slot_ptrs[a.part].data(), a.idx};
    const CodeTuple tb{slot_ptrs[b.part].data(), b.idx};
    if (kernel.Matches(ta, tb)) materialize(a, b);
  };
  if (plan.strategy == IterateStrategy::kUCrossProduct) {
    if (rule.IsSymmetric()) {
      // The hot shape (FDs, symmetric DCs): decide the whole upper
      // triangle in one batched kernel call — a branch-light loop over
      // contiguous codes with no per-pair virtual dispatch — then
      // materialize matches, which MatchUpper reports in the same (i, j)
      // order the per-pair loop would have evaluated.
      const size_t n = block.size();
      scratch->tuples.clear();
      for (const RowRef& r : block) {
        scratch->tuples.push_back(CodeTuple{slot_ptrs[r.part].data(), r.idx});
      }
      scratch->matches.clear();
      out->detect_calls += n * (n - 1) / 2;
      kernel.MatchUpper(scratch->tuples.data(), n, &scratch->matches);
      for (const auto& [i, j] : scratch->matches) {
        materialize(block[i], block[j]);
      }
      return;
    }
    for (size_t i = 0; i < block.size(); ++i) {
      for (size_t j = i + 1; j < block.size(); ++j) {
        eval(block[i], block[j]);
        eval(block[j], block[i]);
      }
    }
    return;
  }
  // CrossProduct order (also the within-block fallback for blocked OCJoin
  // rules): all ordered pairs, row-major — the order the interpreted path
  // materializes its pair list in.
  for (size_t i = 0; i < block.size(); ++i) {
    for (size_t j = 0; j < block.size(); ++j) {
      if (i != j) eval(block[i], block[j]);
    }
  }
}

}  // namespace

bool TryDetectColumnar(ExecutionContext* ctx, const PhysicalRulePlan& plan,
                       const PlannerOptions& options, const Dataset<Row>& base,
                       ColumnarCaches* caches, DetectionResult* result) {
  // Eligibility — decided before any stage runs, so a false return leaves
  // the engine free to take the interpreted path untouched.
  if (plan.block_key_fn) return false;  // procedural UDF keys stay interpreted
  auto tmpl =
      KernelRegistry::Instance().Compile(*plan.rule, plan.detect_schema);
  if (tmpl == nullptr) return false;
  const bool single = plan.strategy == IterateStrategy::kSingle;
  const bool has_blocking = !plan.blocking_columns.empty();
  const bool global_join =
      plan.strategy == IterateStrategy::kOCJoin && !has_blocking;
  // Global inequality self-join: OCJoin over the kernel's code columns,
  // its conditions renumbered to kernel slots. IEJoin stays interpreted.
  std::vector<OrderingCondition> slot_conditions;
  if (global_join) {
    if (options.use_iejoin && IEJoinApplicable(plan.ocjoin_conditions)) {
      return false;
    }
    const std::vector<size_t>& slots = tmpl->columns();
    auto slot_of = [&slots](size_t col) {
      return static_cast<size_t>(std::find(slots.begin(), slots.end(), col) -
                                 slots.begin());
    };
    for (OrderingCondition c : plan.ocjoin_conditions) {
      c.left_column = slot_of(c.left_column);
      c.right_column = slot_of(c.right_column);
      BD_CHECK(c.left_column < slots.size() && c.right_column < slots.size())
          << "OCJoin condition outside the kernel's columns";
      slot_conditions.push_back(c);
    }
  }

  result->plan_description += " [kernel]";
  TraceRecorder& trace = TraceRecorder::Instance();

  // The kernel path never runs the eager scope stage: codes are encoded
  // straight from base rows (honouring the scope's column mapping) and the
  // projection is applied on demand, only to matched candidates.
  auto to_base = [&](size_t c) {
    return plan.scope_columns.empty() ? c : plan.scope_columns[c];
  };

  // Columns to dictionary-encode, in base-column space: the kernel's slots
  // plus the blocking key. Columns whose codes are compared across columns
  // share one pool (one group); the rest are singleton groups.
  std::vector<std::vector<size_t>> groups;
  std::unordered_set<size_t> covered;
  for (const auto& g : tmpl->shared_groups()) {
    std::vector<size_t> mapped;
    for (size_t c : g) {
      if (covered.insert(to_base(c)).second) mapped.push_back(to_base(c));
    }
    if (!mapped.empty()) groups.push_back(std::move(mapped));
  }
  for (size_t c : tmpl->columns()) {
    if (covered.insert(to_base(c)).second) groups.push_back({to_base(c)});
  }
  for (size_t c : plan.blocking_columns) {
    if (covered.insert(to_base(c)).second) groups.push_back({to_base(c)});
  }

  // Encode with per-group caching (keyed by the group's sorted base
  // columns), so e.g. two FDs sharing a key column encode it once even when
  // their scopes differ.
  std::vector<std::vector<size_t>> missing;
  std::vector<std::string> group_sigs;
  group_sigs.reserve(groups.size());
  for (const auto& g : groups) {
    std::vector<size_t> sorted = g;
    std::sort(sorted.begin(), sorted.end());
    std::string sig;
    for (size_t c : sorted) sig += std::to_string(c) + ",";
    group_sigs.push_back(sig);
    if (caches->encoded.find(sig) == caches->encoded.end()) missing.push_back(g);
  }
  if (!missing.empty()) {
    std::optional<ScopedSpan> encode_span;
    if (trace.enabled()) encode_span.emplace("kernel:encode", "operator");
    EncodedColumnSet fresh = EncodeColumns(base, missing);
    for (const auto& g : missing) {
      std::vector<size_t> sorted = g;
      std::sort(sorted.begin(), sorted.end());
      std::string sig;
      for (size_t c : sorted) sig += std::to_string(c) + ",";
      EncodedColumnSet set;
      set.rows = fresh.rows;
      for (size_t c : g) set.columns.emplace(c, fresh.columns.at(c));
      caches->encoded.emplace(std::move(sig), std::move(set));
    }
  }
  // Gather this rule's columns from the per-group cache entries.
  std::unordered_map<size_t, const EncodedColumn*> enc;
  for (size_t g = 0; g < groups.size(); ++g) {
    const EncodedColumnSet& set = caches->encoded.at(group_sigs[g]);
    for (size_t c : groups[g]) enc.emplace(c, &set.columns.at(c));
  }

  std::vector<const ValuePool*> pools;
  pools.reserve(tmpl->columns().size());
  for (size_t c : tmpl->columns()) {
    pools.push_back(enc.at(to_base(c))->pool.get());
  }
  const std::unique_ptr<DetectKernel> kernel = tmpl->Bind(pools);

  const auto& bparts = base.partitions();
  SlotPtrs slot_ptrs(bparts.size());
  for (size_t p = 0; p < bparts.size(); ++p) {
    slot_ptrs[p].reserve(tmpl->columns().size());
    for (size_t c : tmpl->columns()) {
      slot_ptrs[p].push_back(enc.at(to_base(c))->codes[p].data());
    }
  }
  const RowMaterializer rows(bparts, plan.scope_columns);

  // --- Arity-1 rules: evaluate every unit against the code vectors.
  if (single) {
    std::optional<ScopedSpan> op_span;
    if (trace.enabled()) op_span.emplace("kernel:detect|genfix", "operator");
    std::vector<TaskOutput> tasks = base.RunStageMorsels<TaskOutput>(
        "kernel:detect:single|genfix",
        [&](size_t p) { return bparts[p].size(); },
        [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
          TaskOutput out;
          const uint32_t* const* cols = slot_ptrs[p].data();
          Row storage;
          for (size_t i = begin; i < end; ++i) {
            ++out.detect_calls;
            if (kernel->MatchesSingle(CodeTuple{cols, i})) {
              MaterializeSingle(*plan.rule, rows.Get(bparts[p][i], &storage),
                                &out);
            }
          }
          tc.records_in = end - begin;
          tc.records_out = out.violations.size();
          return out;
        },
        [](size_t, std::vector<TaskOutput>&& pieces) {
          return MergeTaskPieces(std::move(pieces));
        });
    MergeOutputs(&tasks, result);
    return true;
  }

  // --- Blocked rules: block keys hashed from precomputed per-code hashes
  // in one tight loop, then 8-byte RowRefs shuffled instead of whole rows.
  if (has_blocking) {
    std::optional<ScopedSpan> op_span;
    if (trace.enabled()) {
      op_span.emplace("kernel:block|iterate|detect|genfix", "operator");
    }
    std::string block_sig;
    for (size_t c : plan.blocking_columns) {
      block_sig += std::to_string(to_base(c)) + ",";
    }
    auto block_it = caches->blocks.find(block_sig);
    if (block_it == caches->blocks.end()) {
      struct KeyCol {
        const ValuePool* pool;
        const EncodedColumn* col;
      };
      std::vector<KeyCol> key_cols;
      key_cols.reserve(plan.blocking_columns.size());
      for (size_t c : plan.blocking_columns) {
        const EncodedColumn* col = enc.at(to_base(c));
        key_cols.push_back({col->pool.get(), col});
      }
      using KeyedPiece = std::vector<std::pair<uint64_t, RowRef>>;
      std::vector<KeyedPiece> keyed_parts = base.RunStageMorsels<KeyedPiece>(
          "kernel:block",
          [&](size_t p) { return bparts[p].size(); },
          [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
            KeyedPiece out;
            out.reserve(end - begin);
            for (size_t i = begin; i < end; ++i) {
              uint64_t h = 0x42D;
              bool keyed = true;
              for (const KeyCol& kc : key_cols) {
                const uint32_t code = kc.col->codes[p][i];
                if (code == ValuePool::kNullCode) {
                  keyed = false;  // null key component: row joins no block
                  break;
                }
                h = StableHashUint64(h ^ kc.pool->hash(code));
              }
              if (keyed) {
                out.emplace_back(h, RowRef{static_cast<uint32_t>(p),
                                           static_cast<uint32_t>(i)});
              }
            }
            tc.records_in = end - begin;
            tc.records_out = out.size();
            return out;
          },
          [](size_t, std::vector<KeyedPiece>&& pieces) {
            KeyedPiece merged;
            size_t total = 0;
            for (const auto& piece : pieces) total += piece.size();
            merged.reserve(total);
            for (auto& piece : pieces) {
              merged.insert(merged.end(), piece.begin(), piece.end());
            }
            return merged;
          });
      Dataset<std::pair<uint64_t, RowRef>> keyed(ctx, std::move(keyed_parts));
      block_it = caches->blocks.emplace(block_sig, GroupByKey(keyed)).first;
    }
    const auto& blocks = block_it->second;
    const auto& gparts = blocks.partitions();
    std::vector<TaskOutput> tasks = blocks.RunStageMorsels<TaskOutput>(
        "kernel:iterate|detect|genfix",
        [&](size_t p) { return gparts[p].size(); },
        [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
          TaskOutput out;
          BlockScratch scratch;
          for (size_t b = begin; b < end; ++b) {
            IterateBlockKernel(plan, *kernel, gparts[p][b].second, rows,
                               slot_ptrs, &scratch, &out);
          }
          ctx->metrics().AddPairsEnumerated(out.detect_calls);
          tc.records_in = end - begin;
          tc.records_out = out.violations.size();
          return out;
        },
        [](size_t, std::vector<TaskOutput>&& pieces) {
          return MergeTaskPieces(std::move(pieces));
        });
    MergeOutputs(&tasks, result);
    return true;
  }

  // --- No blocking key: flat contiguous code arrays over all rows
  // (partition codes concatenated in Collect order), a RowRef per position
  // for materializing matches.
  const size_t num_slots = tmpl->columns().size();
  std::vector<RowRef> refs;
  refs.reserve(base.Count());
  for (size_t p = 0; p < bparts.size(); ++p) {
    for (size_t i = 0; i < bparts[p].size(); ++i) {
      refs.push_back(RowRef{static_cast<uint32_t>(p), static_cast<uint32_t>(i)});
    }
  }
  std::vector<std::vector<uint32_t>> flat(num_slots);
  for (size_t s = 0; s < num_slots; ++s) {
    const EncodedColumn& col = *enc.at(to_base(tmpl->columns()[s]));
    flat[s].reserve(refs.size());
    for (const auto& part : col.codes) {
      flat[s].insert(flat[s].end(), part.begin(), part.end());
    }
  }
  std::vector<const uint32_t*> flat_ptrs;
  flat_ptrs.reserve(flat.size());
  for (const auto& codes : flat) flat_ptrs.push_back(codes.data());

  if (global_join) {
    std::optional<ScopedSpan> op_span;
    if (trace.enabled()) {
      op_span.emplace("kernel:ocjoin|detect|genfix", "operator");
    }
    for (const OrderingCondition& c : slot_conditions) {
      BD_CHECK(enc.at(to_base(tmpl->columns()[c.left_column]))->pool ==
               enc.at(to_base(tmpl->columns()[c.right_column]))->pool)
          << "OCJoin condition columns must share a pool";
    }
    std::vector<RowId> ids;
    ids.reserve(refs.size());
    for (const RowRef& r : refs) ids.push_back(bparts[r.part][r.idx].id());
    OCJoinInput input;
    input.num_rows = refs.size();
    input.columns = flat_ptrs;
    input.ids = ids.data();
    OCJoinOptions oc_options;
    oc_options.order_conditions_by_selectivity =
        options.ocjoin_selectivity_ordering;
    // The join decides the ordering conditions; the kernel decides the
    // whole DC on each emitted pair, in the join's order, and only matches
    // are materialized.
    auto pair_ds = Dataset<PositionPair>::FromVector(
        ctx, OCJoinPositions(ctx, input, slot_conditions, oc_options,
                             &result->ocjoin_stats));
    const auto& pparts = pair_ds.partitions();
    std::vector<TaskOutput> tasks = pair_ds.RunStageMorsels<TaskOutput>(
        "kernel:detect|genfix:ocjoin-pairs",
        [&](size_t p) { return pparts[p].size(); },
        [&](size_t p, size_t begin, size_t end, TaskContext& tc) {
          TaskOutput out;
          const uint32_t* const* cols = flat_ptrs.data();
          for (size_t i = begin; i < end; ++i) {
            const auto [a, b] = pparts[p][i];
            ++out.detect_calls;
            if (kernel->Matches(CodeTuple{cols, a}, CodeTuple{cols, b})) {
              Row sa, sb;
              MaterializePair(*plan.rule, rows.Get(refs[a], &sa),
                              rows.Get(refs[b], &sb), &out);
            }
          }
          tc.records_in = end - begin;
          tc.records_out = out.violations.size();
          return out;
        },
        [](size_t, std::vector<TaskOutput>&& pieces) {
          return MergeTaskPieces(std::move(pieces));
        });
    MergeOutputs(&tasks, result);
    return true;
  }

  // Whole-dataset chunk-pair enumeration. Chunking replicated from the
  // interpreted RunUnblocked so tasks, pair order and therefore violation
  // order line up exactly.
  std::optional<ScopedSpan> op_span;
  if (trace.enabled()) {
    op_span.emplace("kernel:iterate|detect|genfix", "operator");
  }
  const size_t num_rows = refs.size();
  const bool unordered = plan.strategy == IterateStrategy::kUCrossProduct &&
                         plan.rule->IsSymmetric();
  size_t num_chunks = std::max<size_t>(1, ctx->num_workers() * 2);
  if (num_chunks > num_rows) num_chunks = std::max<size_t>(1, num_rows);
  const size_t chunk = (num_rows + num_chunks - 1) / num_chunks;
  struct ChunkPair {
    size_t i;
    size_t j;
  };
  std::vector<ChunkPair> chunk_pairs;
  for (size_t i = 0; i < num_chunks; ++i) {
    for (size_t j = i; j < num_chunks; ++j) chunk_pairs.push_back({i, j});
  }
  const bool materialize = plan.strategy == IterateStrategy::kCrossProduct;
  auto tasks = StageExecutor(ctx).RunProducing<TaskOutput>(
      "kernel:iterate|detect|genfix:unblocked", chunk_pairs.size(),
      [&](size_t t, TaskContext& tc) {
        auto [ci, cj] = chunk_pairs[t];
        const size_t ibegin = ci * chunk;
        const size_t iend = std::min(num_rows, ibegin + chunk);
        const size_t jbegin = cj * chunk;
        const size_t jend = std::min(num_rows, jbegin + chunk);
        TaskOutput out;
        const uint32_t* const* cols = flat_ptrs.data();
        auto eval = [&](size_t i, size_t j) {
          ++out.detect_calls;
          if (kernel->Matches(CodeTuple{cols, i}, CodeTuple{cols, j})) {
            Row sa, sb;
            MaterializePair(*plan.rule, rows.Get(refs[i], &sa),
                            rows.Get(refs[j], &sb), &out);
          }
        };
        for (size_t i = ibegin; i < iend; ++i) {
          const size_t jstart = (ci == cj) ? i + 1 : jbegin;
          for (size_t j = jstart; j < jend; ++j) {
            if (materialize) {
              // CrossProduct wrapper order: (i, j) then (j, i), exactly
              // the interpreted pair-list materialization order.
              eval(i, j);
              eval(j, i);
            } else {
              eval(i, j);
              if (!unordered) eval(j, i);
            }
          }
        }
        ctx->metrics().AddPairsEnumerated(out.detect_calls);
        tc.records_in = iend - ibegin;
        tc.records_out = out.violations.size();
        return out;
      });
  if (!tasks.ok()) throw StageError(tasks.status());
  MergeOutputs(&*tasks, result);
  return true;
}

}  // namespace columnar
}  // namespace bigdansing
