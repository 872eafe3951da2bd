#ifndef BIGDANSING_TESTS_OCJOIN_ORACLE_H_
#define BIGDANSING_TESTS_OCJOIN_ORACLE_H_

// The Value-based OCJoin merge (§4.3, Algorithm 2) the code-based
// OCJoinPositions replaced, kept as a test oracle: the same partition /
// sort / prune / merge phases over Values, run serially. Its output order
// is the order the parallel join reproduces (morsel pieces concatenate in
// t1 sort order, partition pairs in pruning order), so the code-based join
// must return the identical pair list and OCJoinStats.

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "core/ocjoin.h"

namespace bigdansing {
namespace testing_oracle {

inline bool EvalOrdering(const Value& a, CmpOp op, const Value& b) {
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

inline bool RangesCanSatisfy(const std::pair<Value, Value>& t1_range, CmpOp op,
                             const std::pair<Value, Value>& t2_range) {
  switch (op) {
    case CmpOp::kLt:
      return t1_range.first < t2_range.second;
    case CmpOp::kLeq:
      return t1_range.first <= t2_range.second;
    case CmpOp::kGt:
      return t1_range.second > t2_range.first;
    case CmpOp::kGeq:
      return t1_range.second >= t2_range.first;
    default:
      return true;
  }
}

/// Returns the ordered pairs as (t1 position, t2 position) into `rows`.
inline std::vector<PositionPair> OracleOCJoin(
    size_t num_workers, const std::vector<Row>& rows,
    const std::vector<OrderingCondition>& conditions,
    const OCJoinOptions& options, OCJoinStats* stats) {
  OCJoinStats local_stats;
  std::vector<PositionPair> results;
  if (stats != nullptr) *stats = local_stats;
  if (rows.empty() || conditions.empty()) return results;

  std::vector<OrderingCondition> conds = conditions;
  size_t primary_condition = 0;
  if (options.order_conditions_by_selectivity && conds.size() > 1 &&
      rows.size() >= 2) {
    std::vector<size_t> hits(conds.size(), 0);
    uint64_t state = 0x5EEDF00DULL ^ rows.size();
    auto next_index = [&state, &rows]() {
      state = StableHashUint64(state + 1);
      return static_cast<size_t>(state % rows.size());
    };
    for (size_t s = 0; s < options.selectivity_sample_pairs; ++s) {
      const Row& a = rows[next_index()];
      const Row& b = rows[next_index()];
      for (size_t j = 0; j < conds.size(); ++j) {
        const Value& l = a.value(conds[j].left_column);
        const Value& r = b.value(conds[j].right_column);
        if (!l.is_null() && !r.is_null() &&
            EvalOrdering(l, conds[j].op, r)) {
          ++hits[j];
        }
      }
    }
    for (size_t j = 1; j < conds.size(); ++j) {
      if (hits[j] < hits[primary_condition]) primary_condition = j;
    }
    if (primary_condition != 0) std::swap(conds[0], conds[primary_condition]);
  }
  local_stats.primary_condition = primary_condition;

  // Partitioning on the first condition's primary attribute.
  const size_t part_col = conds[0].left_column;
  size_t np = options.num_partitions;
  if (np == 0) {
    np = std::max<size_t>(num_workers * 2, rows.size() / 4096);
    np = std::min<size_t>(np, 256);
    if (np == 0) np = 1;
  }
  std::vector<Value> sample;
  const size_t stride = std::max<size_t>(1, rows.size() / 65536);
  for (size_t i = 0; i < rows.size(); i += stride) {
    const Value& v = rows[i].value(part_col);
    if (!v.is_null()) sample.push_back(v);
  }
  std::sort(sample.begin(), sample.end());
  std::vector<Value> boundaries;
  for (size_t k = 1; k < np && !sample.empty(); ++k) {
    boundaries.push_back(sample[k * sample.size() / np]);
  }
  struct Part {
    std::vector<uint32_t> pos;  // input positions, input order
    std::unordered_map<size_t, std::vector<uint32_t>> sorted;
    std::unordered_map<size_t, std::pair<Value, Value>> range;
  };
  std::vector<Part> parts(np);
  for (uint32_t i = 0; i < rows.size(); ++i) {
    const Value& v = rows[i].value(part_col);
    size_t p = 0;
    if (!v.is_null() && !boundaries.empty()) {
      p = static_cast<size_t>(
          std::upper_bound(boundaries.begin(), boundaries.end(), v) -
          boundaries.begin());
    }
    parts[p].pos.push_back(i);
  }

  // Sorting: one sorted local-index list per condition column.
  std::vector<size_t> columns;
  for (const auto& c : conds) {
    for (size_t col : {c.left_column, c.right_column}) {
      if (std::find(columns.begin(), columns.end(), col) == columns.end()) {
        columns.push_back(col);
      }
    }
  }
  for (Part& part : parts) {
    auto value = [&](uint32_t local, size_t col) -> const Value& {
      return rows[part.pos[local]].value(col);
    };
    for (size_t col : columns) {
      std::vector<uint32_t> idx;
      for (uint32_t i = 0; i < part.pos.size(); ++i) {
        if (!value(i, col).is_null()) idx.push_back(i);
      }
      std::sort(idx.begin(), idx.end(), [&](uint32_t a, uint32_t b) {
        return value(a, col) < value(b, col);
      });
      if (!idx.empty()) {
        part.range.emplace(col, std::make_pair(value(idx.front(), col),
                                               value(idx.back(), col)));
      }
      part.sorted.emplace(col, std::move(idx));
    }
  }

  // Pruning.
  std::vector<std::pair<size_t, size_t>> surviving;
  local_stats.num_partitions = np;
  local_stats.partition_pairs_total = np * np;
  for (size_t i = 0; i < np; ++i) {
    if (parts[i].pos.empty()) continue;
    for (size_t l = 0; l < np; ++l) {
      if (parts[l].pos.empty()) continue;
      bool possible = true;
      for (const auto& c : conds) {
        auto r1 = parts[i].range.find(c.left_column);
        auto r2 = parts[l].range.find(c.right_column);
        if (r1 == parts[i].range.end() || r2 == parts[l].range.end() ||
            !RangesCanSatisfy(r1->second, c.op, r2->second)) {
          possible = false;
          break;
        }
      }
      if (possible) surviving.emplace_back(i, l);
    }
  }
  local_stats.partition_pairs_after_pruning = surviving.size();

  // Merge: sort-merge on the first condition, residuals per candidate.
  const OrderingCondition& c0 = conds[0];
  size_t candidates = 0;
  for (const auto& [i, l] : surviving) {
    const Part& p1 = parts[i];
    const Part& p2 = parts[l];
    const auto& s1 = p1.sorted.at(c0.left_column);
    const auto& s2 = p2.sorted.at(c0.right_column);
    if (s2.empty()) continue;
    auto emit = [&](uint32_t a_local, uint32_t b_local) {
      const uint32_t a = p1.pos[a_local];
      const uint32_t b = p2.pos[b_local];
      if (rows[a].id() == rows[b].id()) return;
      ++candidates;
      for (size_t j = 1; j < conds.size(); ++j) {
        const Value& lv = rows[a].value(conds[j].left_column);
        const Value& rv = rows[b].value(conds[j].right_column);
        if (lv.is_null() || rv.is_null() ||
            !EvalOrdering(lv, conds[j].op, rv)) {
          return;
        }
      }
      results.emplace_back(a, b);
    };
    auto v2 = [&](size_t b) -> const Value& {
      return rows[p2.pos[s2[b]]].value(c0.right_column);
    };
    if (c0.op == CmpOp::kLt || c0.op == CmpOp::kLeq) {
      size_t start = 0;
      for (size_t a = 0; a < s1.size(); ++a) {
        const Value& v1 = rows[p1.pos[s1[a]]].value(c0.left_column);
        while (start < s2.size() && !EvalOrdering(v1, c0.op, v2(start))) {
          ++start;
        }
        for (size_t b = start; b < s2.size(); ++b) emit(s1[a], s2[b]);
      }
    } else {
      size_t end = s2.size();
      for (size_t k = 0; k < s1.size(); ++k) {
        const size_t a = s1.size() - 1 - k;
        const Value& v1 = rows[p1.pos[s1[a]]].value(c0.left_column);
        while (end > 0 && !EvalOrdering(v1, c0.op, v2(end - 1))) --end;
        for (size_t b = 0; b < end; ++b) emit(s1[a], s2[b]);
      }
    }
  }
  local_stats.candidate_pairs = candidates;
  local_stats.result_pairs = results.size();
  if (stats != nullptr) *stats = local_stats;
  return results;
}

}  // namespace testing_oracle
}  // namespace bigdansing

#endif  // BIGDANSING_TESTS_OCJOIN_ORACLE_H_
