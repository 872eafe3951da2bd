#include "core/ocjoin.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"
#include "common/trace.h"
#include "data/dictionary.h"
#include "dataflow/stage_executor.h"

namespace bigdansing {

namespace {

constexpr uint32_t kNull = ValuePool::kNullCode;

/// Evaluates `a op b` for an ordering comparison over codes of one pool.
/// Callers guarantee a and b are non-null.
bool Holds(uint32_t a, CmpOp op, uint32_t b) {
  switch (op) {
    case CmpOp::kLt:
      return a < b;
    case CmpOp::kGt:
      return a > b;
    case CmpOp::kLeq:
      return a <= b;
    case CmpOp::kGeq:
      return a >= b;
    default:
      return false;
  }
}

/// [min, max] code of one column inside one partition; absent when every
/// code there is null.
struct CodeRange {
  bool present = false;
  uint32_t lo = 0;
  uint32_t hi = 0;
};

/// True when some value in `t1` op some value in `t2` can hold.
bool RangesCanSatisfy(const CodeRange& t1, CmpOp op, const CodeRange& t2) {
  switch (op) {
    case CmpOp::kLt:
      return t1.lo < t2.hi;
    case CmpOp::kLeq:
      return t1.lo <= t2.hi;
    case CmpOp::kGt:
      return t1.hi > t2.lo;
    case CmpOp::kGeq:
      return t1.hi >= t2.lo;
    default:
      return true;
  }
}

/// One side of a partition, sorted ascending by the first condition's
/// attribute on that side (nulls excluded), with everything the merge reads
/// gathered into flat arrays in that order.
struct SortedSide {
  std::vector<uint32_t> key;   ///< First-condition codes, ascending.
  std::vector<uint32_t> pos;   ///< Input positions.
  std::vector<RowId> ids;
  /// residual[j]: codes of residual condition j+1's attribute on this side.
  std::vector<std::vector<uint32_t>> residual;
};

/// Per-partition state after the sorting phase: the t1 side sorted on the
/// first condition's left attribute, the t2 side on its right attribute
/// (one shared side when both are the same column), and per-column ranges.
struct PartitionState {
  std::vector<uint32_t> positions;  ///< Input positions, in input order.
  SortedSide t1;
  SortedSide t2_storage;
  bool t2_is_t1 = false;
  std::vector<CodeRange> ranges;  ///< Indexed like the input's columns.

  const SortedSide& t2() const { return t2_is_t1 ? t1 : t2_storage; }
};

/// Sorts `part`'s non-null positions by `key_col` exactly as the Value
/// sort did (std::sort over local indices in input order, so equal compare
/// outcomes give the same permutation) and gathers the side's arrays.
void BuildSide(const OCJoinInput& input, const std::vector<uint32_t>& part,
               size_t key_col, const std::vector<size_t>& residual_cols,
               SortedSide* side) {
  const uint32_t* codes = input.columns[key_col];
  std::vector<uint32_t> local_key(part.size());
  std::vector<uint32_t> idx;
  idx.reserve(part.size());
  for (uint32_t i = 0; i < part.size(); ++i) {
    local_key[i] = codes[part[i]];
    if (local_key[i] != kNull) idx.push_back(i);
  }
  std::sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
    return local_key[a] < local_key[b];
  });
  side->key.resize(idx.size());
  side->pos.resize(idx.size());
  side->ids.resize(idx.size());
  for (size_t k = 0; k < idx.size(); ++k) {
    const uint32_t pos = part[idx[k]];
    side->key[k] = local_key[idx[k]];
    side->pos[k] = pos;
    side->ids[k] = input.ids[pos];
  }
  side->residual.assign(residual_cols.size(), {});
  for (size_t j = 0; j < residual_cols.size(); ++j) {
    const uint32_t* col = input.columns[residual_cols[j]];
    side->residual[j].resize(idx.size());
    for (size_t k = 0; k < idx.size(); ++k) {
      side->residual[j][k] = col[side->pos[k]];
    }
  }
}

/// Output of one join morsel.
struct JoinPiece {
  std::vector<PositionPair> pairs;
  size_t candidates = 0;
};

/// Emits every t2 in s2[lo, hi) that pairs with t1 = s1[a] under the
/// residual conditions, skipping t1's own tuple. Returns the number of
/// candidates scanned (the range minus self-pairs). The one-residual case,
/// the shape of two-condition DCs, is a tight loop over two flat arrays
/// with the comparison fixed at compile time.
template <CmpOp kOp>
size_t ScanOneResidual(const SortedSide& s2, size_t lo, size_t hi, RowId id1,
                       uint32_t pos1, uint32_t r1, JoinPiece* out) {
  const RowId* ids = s2.ids.data();
  const uint32_t* r2 = s2.residual[0].data();
  const uint32_t* pos = s2.pos.data();
  size_t self = 0;
  for (size_t b = lo; b < hi; ++b) {
    if (ids[b] == id1) {
      ++self;
      continue;
    }
    const uint32_t v = r2[b];
    bool holds;
    if constexpr (kOp == CmpOp::kLt) {
      holds = r1 < v;
    } else if constexpr (kOp == CmpOp::kLeq) {
      holds = r1 <= v;
    } else if constexpr (kOp == CmpOp::kGt) {
      holds = r1 > v;
    } else {
      holds = r1 >= v;
    }
    // kNullCode is the largest u32: only < and <= can "hold" against it.
    if (holds && v != kNull) out->pairs.emplace_back(pos1, pos[b]);
  }
  return (hi - lo) - self;
}

size_t ScanRange(const SortedSide& s1, size_t a, const SortedSide& s2,
                 size_t lo, size_t hi, const std::vector<CmpOp>& residual_ops,
                 JoinPiece* out) {
  const RowId id1 = s1.ids[a];
  const uint32_t pos1 = s1.pos[a];
  bool t1_null = false;
  for (const auto& col : s1.residual) t1_null = t1_null || col[a] == kNull;
  if (t1_null) {
    // No residual can hold; only the candidate count is needed.
    return (hi - lo) - static_cast<size_t>(std::count(
                           s2.ids.begin() + lo, s2.ids.begin() + hi, id1));
  }
  if (residual_ops.size() == 1) {
    const uint32_t r1 = s1.residual[0][a];
    switch (residual_ops[0]) {
      case CmpOp::kLt:
        return ScanOneResidual<CmpOp::kLt>(s2, lo, hi, id1, pos1, r1, out);
      case CmpOp::kLeq:
        return ScanOneResidual<CmpOp::kLeq>(s2, lo, hi, id1, pos1, r1, out);
      case CmpOp::kGt:
        return ScanOneResidual<CmpOp::kGt>(s2, lo, hi, id1, pos1, r1, out);
      case CmpOp::kGeq:
        return ScanOneResidual<CmpOp::kGeq>(s2, lo, hi, id1, pos1, r1, out);
      default:
        break;  // not an ordering op: never holds, the generic loop says so
    }
  }
  size_t self = 0;
  for (size_t b = lo; b < hi; ++b) {
    if (s2.ids[b] == id1) {
      ++self;
      continue;
    }
    bool all = true;
    for (size_t j = 0; j < residual_ops.size() && all; ++j) {
      const uint32_t v = s2.residual[j][b];
      all = v != kNull && Holds(s1.residual[j][a], residual_ops[j], v);
    }
    if (all) out->pairs.emplace_back(pos1, s2.pos[b]);
  }
  return (hi - lo) - self;
}

}  // namespace

std::vector<PositionPair> OCJoinPositions(
    ExecutionContext* ctx, const OCJoinInput& input,
    const std::vector<OrderingCondition>& conditions,
    const OCJoinOptions& options, OCJoinStats* stats) {
  OCJoinStats local_stats;
  std::vector<PositionPair> results;
  if (stats != nullptr) *stats = local_stats;
  const size_t n = input.num_rows;
  if (n == 0 || conditions.empty()) return results;
  BD_CHECK(n < kNull) << "OCJoin input exceeds u32 positions: " << n;

  ScopedSpan span("ocjoin", "operator");
  span.Annotate("rows", static_cast<uint64_t>(n));
  span.Annotate("conditions", static_cast<uint64_t>(conditions.size()));

  // --- Optional condition ordering by estimated selectivity (§4.3) ---
  // The first condition drives the merge and determines the candidate
  // count, so the most selective one (fewest satisfying pairs on a random
  // pair sample) should run first.
  std::vector<OrderingCondition> conds = conditions;
  size_t primary_condition = 0;
  if (options.order_conditions_by_selectivity && conds.size() > 1 && n >= 2) {
    std::vector<size_t> hits(conds.size(), 0);
    uint64_t state = 0x5EEDF00DULL ^ n;
    auto next_index = [&state, n]() {
      state = StableHashUint64(state + 1);
      return static_cast<size_t>(state % n);
    };
    for (size_t s = 0; s < options.selectivity_sample_pairs; ++s) {
      const size_t a = next_index();
      const size_t b = next_index();
      for (size_t j = 0; j < conds.size(); ++j) {
        const uint32_t l = input.columns[conds[j].left_column][a];
        const uint32_t r = input.columns[conds[j].right_column][b];
        if (l != kNull && r != kNull && Holds(l, conds[j].op, r)) ++hits[j];
      }
    }
    for (size_t j = 1; j < conds.size(); ++j) {
      if (hits[j] < hits[primary_condition]) primary_condition = j;
    }
    if (primary_condition != 0) std::swap(conds[0], conds[primary_condition]);
  }
  local_stats.primary_condition = primary_condition;
  const OrderingCondition& c0 = conds[0];

  // --- Partitioning phase (Algorithm 2 lines 1-2) ---
  // PartAtt: the primary attribute of the first condition.
  const uint32_t* part_codes = input.columns[c0.left_column];
  size_t np = options.num_partitions;
  if (np == 0) {
    np = std::max<size_t>(ctx->num_workers() * 2, n / 4096);
    np = std::min<size_t>(np, 256);
    if (np == 0) np = 1;
  }

  // Quantile boundaries from a strided sample of PartAtt.
  std::vector<uint32_t> sample;
  const size_t stride = std::max<size_t>(1, n / 65536);
  for (size_t i = 0; i < n; i += stride) {
    if (part_codes[i] != kNull) sample.push_back(part_codes[i]);
  }
  std::sort(sample.begin(), sample.end());
  std::vector<uint32_t> boundaries;
  for (size_t k = 1; k < np && !sample.empty(); ++k) {
    boundaries.push_back(sample[k * sample.size() / np]);
  }

  std::vector<PartitionState> parts(np);
  for (uint32_t pos = 0; pos < n; ++pos) {
    const uint32_t v = part_codes[pos];
    size_t p = 0;
    if (v != kNull && !boundaries.empty()) {
      p = static_cast<size_t>(
          std::upper_bound(boundaries.begin(), boundaries.end(), v) -
          boundaries.begin());
    }
    parts[p].positions.push_back(pos);
  }
  ctx->metrics().AddShuffledRecords(n);
  ctx->metrics().AddStage();

  // Residual conditions' attributes, per side.
  std::vector<size_t> residual_left;
  std::vector<size_t> residual_right;
  std::vector<CmpOp> residual_ops;
  for (size_t j = 1; j < conds.size(); ++j) {
    residual_left.push_back(conds[j].left_column);
    residual_right.push_back(conds[j].right_column);
    residual_ops.push_back(conds[j].op);
  }
  // Distinct columns appearing in conditions (for ranges).
  std::vector<size_t> columns;
  for (const auto& c : conds) {
    for (size_t col : {c.left_column, c.right_column}) {
      if (std::find(columns.begin(), columns.end(), col) == columns.end()) {
        columns.push_back(col);
      }
    }
  }

  // --- Sorting phase (lines 4-5): local, per partition: the two sides of
  // the first condition, plus a min/max scan of every condition column. ---
  StageExecutor executor(ctx);
  Status sort_status = executor.Run("ocjoin:sort", np, [&](size_t p, TaskContext& tc) {
    PartitionState& part = parts[p];
    tc.records_in = part.positions.size();
    part.ranges.assign(input.columns.size(), CodeRange{});
    for (size_t col : columns) {
      CodeRange& range = part.ranges[col];
      const uint32_t* codes = input.columns[col];
      for (uint32_t pos : part.positions) {
        const uint32_t v = codes[pos];
        if (v == kNull) continue;
        if (!range.present) {
          range = CodeRange{true, v, v};
        } else {
          range.lo = std::min(range.lo, v);
          range.hi = std::max(range.hi, v);
        }
      }
    }
    BuildSide(input, part.positions, c0.left_column, residual_left, &part.t1);
    part.t2_is_t1 =
        c0.left_column == c0.right_column && residual_left == residual_right;
    if (!part.t2_is_t1) {
      BuildSide(input, part.positions, c0.right_column, residual_right,
                &part.t2_storage);
    }
    ctx->ChargeMaterialization(part.positions.size());
  });
  if (!sort_status.ok()) throw StageError(std::move(sort_status));

  // --- Pruning phase (line 7): drop partition pairs whose min/max ranges
  // cannot satisfy some condition. ---
  struct PartPair {
    size_t t1;
    size_t t2;
  };
  std::vector<PartPair> surviving;
  local_stats.num_partitions = np;
  local_stats.partition_pairs_total = np * np;
  for (size_t i = 0; i < np; ++i) {
    if (parts[i].positions.empty()) continue;
    for (size_t l = 0; l < np; ++l) {
      if (parts[l].positions.empty()) continue;
      bool possible = true;
      for (const auto& c : conds) {
        const CodeRange& r1 = parts[i].ranges[c.left_column];
        const CodeRange& r2 = parts[l].ranges[c.right_column];
        if (!r1.present || !r2.present || !RangesCanSatisfy(r1, c.op, r2)) {
          possible = false;
          break;
        }
      }
      if (possible) surviving.push_back({i, l});
    }
  }
  local_stats.partition_pairs_after_pruning = surviving.size();

  // --- Joining phase (lines 9-14): sort-merge join on the first condition,
  // residual conditions evaluated per candidate pair over flat code
  // arrays. The per-pair merge is split into morsels over the t1 sort
  // order: each morsel rescans its boundary from scratch (the boundary is a
  // pure function of v1, so the rescan lands exactly where the sequential
  // scan would), making morsels independent while piece-order
  // concatenation reproduces the sequential output order bit-identically.
  auto join_result = executor.RunMorsels<JoinPiece>(
      "ocjoin:join", surviving.size(),
      [&](size_t t) -> size_t {
        if (parts[surviving[t].t2].t2().key.empty()) return 0;
        return parts[surviving[t].t1].t1.key.size();
      },
      [&](size_t t, size_t begin, size_t end_unit, TaskContext& tc) {
        const SortedSide& s1 = parts[surviving[t].t1].t1;  // ascending
        const SortedSide& s2 = parts[surviving[t].t2].t2();  // ascending
        const size_t n2 = s2.key.size();
        JoinPiece out;
        // For < / <= the qualifying t2 form a suffix of s2; for > / >= a
        // prefix. The boundary moves monotonically as t1 advances through
        // its iteration order, giving the merge its linear scan structure.
        if (c0.op == CmpOp::kLt || c0.op == CmpOp::kLeq) {
          // t1 ascending over s1 positions [begin, end_unit); qualifying
          // t2 = {b : v1 op b} is a suffix whose start moves right as v1
          // grows.
          size_t start = 0;
          for (size_t a = begin; a < end_unit; ++a) {
            const uint32_t v1 = s1.key[a];
            while (start < n2 && !Holds(v1, c0.op, s2.key[start])) ++start;
            out.candidates +=
                ScanRange(s1, a, s2, start, n2, residual_ops, &out);
          }
        } else {
          // t1 descending; iteration step k covers a = n-1-k, so the
          // morsel [begin, end_unit) walks s1 from the top down and the
          // qualifying t2 prefix end moves left as v1 shrinks.
          size_t end = n2;
          for (size_t k = begin; k < end_unit; ++k) {
            const size_t a = s1.key.size() - 1 - k;
            const uint32_t v1 = s1.key[a];
            while (end > 0 && !Holds(v1, c0.op, s2.key[end - 1])) --end;
            out.candidates += ScanRange(s1, a, s2, 0, end, residual_ops, &out);
          }
        }
        tc.records_in = end_unit - begin;
        tc.records_out = out.pairs.size();
        return out;
      },
      [](size_t, std::vector<JoinPiece>&& pieces) {
        JoinPiece merged;
        size_t total = 0;
        for (const auto& piece : pieces) total += piece.pairs.size();
        merged.pairs.reserve(total);
        for (const auto& piece : pieces) {
          merged.pairs.insert(merged.pairs.end(), piece.pairs.begin(),
                              piece.pairs.end());
          merged.candidates += piece.candidates;
        }
        return merged;
      });
  if (!join_result.ok()) throw StageError(join_result.status());

  size_t total = 0;
  for (const auto& piece : *join_result) total += piece.pairs.size();
  results.reserve(total);
  for (const auto& piece : *join_result) {
    results.insert(results.end(), piece.pairs.begin(), piece.pairs.end());
    local_stats.candidate_pairs += piece.candidates;
  }
  local_stats.result_pairs = results.size();
  ctx->metrics().AddPairsEnumerated(local_stats.candidate_pairs);
  if (stats != nullptr) *stats = local_stats;
  if (span.id() != 0) {
    span.Annotate("num_partitions",
                  static_cast<uint64_t>(local_stats.num_partitions));
    span.Annotate("partition_pairs_total",
                  static_cast<uint64_t>(local_stats.partition_pairs_total));
    span.Annotate(
        "partition_pairs_after_pruning",
        static_cast<uint64_t>(local_stats.partition_pairs_after_pruning));
    span.Annotate("candidate_pairs",
                  static_cast<uint64_t>(local_stats.candidate_pairs));
    span.Annotate("result_pairs",
                  static_cast<uint64_t>(local_stats.result_pairs));
  }
  return results;
}

}  // namespace bigdansing
