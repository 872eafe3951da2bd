#include "core/iejoin.h"

#include <algorithm>

#include "common/trace.h"

namespace bigdansing {

namespace {

bool EvalOrdering(const Value& a, CmpOp op, const Value& b) {
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

bool AscendingFor(CmpOp op) { return op == CmpOp::kLt || op == CmpOp::kLeq; }

}  // namespace

bool IEJoinApplicable(const std::vector<OrderingCondition>& conditions) {
  return conditions.size() >= 2;
}

std::vector<PositionPair> IEJoin(
    ExecutionContext* ctx, const std::vector<Row>& rows,
    const std::vector<OrderingCondition>& conditions,
    IEJoinStats* stats) {
  IEJoinStats local;
  std::vector<PositionPair> results;
  if (stats != nullptr) *stats = local;
  if (!IEJoinApplicable(conditions) || rows.empty()) return results;

  ScopedSpan span("iejoin", "operator");
  span.Annotate("rows", static_cast<uint64_t>(rows.size()));
  span.Annotate("conditions", static_cast<uint64_t>(conditions.size()));

  const OrderingCondition& c1 = conditions[0];  // t1.A op1 t2.B
  const OrderingCondition& c2 = conditions[1];  // t1.C op2 t2.D

  // Candidate (t1) side needs non-null A and C; target (t2) side non-null
  // B and D. A row may qualify for one role only.
  std::vector<uint32_t> candidates;  // Row indices usable as t1.
  std::vector<uint32_t> targets;     // Row indices usable as t2.
  for (uint32_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    if (!r.value(c1.left_column).is_null() && !r.value(c2.left_column).is_null()) {
      candidates.push_back(i);
    }
    if (!r.value(c1.right_column).is_null() &&
        !r.value(c2.right_column).is_null()) {
      targets.push_back(i);
    }
  }
  local.rows_joined = candidates.size();
  if (candidates.empty() || targets.empty()) {
    if (stats != nullptr) *stats = local;
    return results;
  }

  // Order 1: candidates sorted ascending by A. The bit array is indexed by
  // this order, so the set {t1 : t1.A op1 t2.B} is one contiguous range
  // found by binary search.
  std::vector<uint32_t> by_a = candidates;
  std::sort(by_a.begin(), by_a.end(), [&](uint32_t x, uint32_t y) {
    return rows[x].value(c1.left_column) < rows[y].value(c1.left_column);
  });
  std::vector<Value> a_values;
  a_values.reserve(by_a.size());
  for (uint32_t i : by_a) a_values.push_back(rows[i].value(c1.left_column));
  // Permutation: candidate row index -> its position in the A order.
  std::vector<uint32_t> pos_in_a(rows.size(), 0);
  for (uint32_t p = 0; p < by_a.size(); ++p) pos_in_a[by_a[p]] = p;

  // Order 2: candidates sorted by C in the direction that makes the
  // inserted set {t1 : t1.C op2 t2.D} grow monotonically while targets are
  // visited in matching D order.
  const bool ascending = AscendingFor(c2.op);
  std::vector<uint32_t> by_c = candidates;
  std::sort(by_c.begin(), by_c.end(), [&](uint32_t x, uint32_t y) {
    const Value& vx = rows[x].value(c2.left_column);
    const Value& vy = rows[y].value(c2.left_column);
    return ascending ? vx < vy : vy < vx;
  });
  std::vector<uint32_t> target_order = targets;
  std::sort(target_order.begin(), target_order.end(),
            [&](uint32_t x, uint32_t y) {
              const Value& vx = rows[x].value(c2.right_column);
              const Value& vy = rows[y].value(c2.right_column);
              return ascending ? vx < vy : vy < vx;
            });

  // Bit array over A positions, plus the envelope of set positions so
  // emission never scans regions that are provably all-zero (the win on
  // correlated data, where the qualifying range and the inserted set
  // barely overlap).
  std::vector<uint64_t> bits((by_a.size() + 63) / 64, 0);
  size_t min_set = by_a.size();
  size_t max_set = 0;
  size_t insert_ptr = 0;
  size_t bitmap_probes = 0;

  for (uint32_t t_idx : target_order) {
    const Row& t2 = rows[t_idx];
    const Value& d = t2.value(c2.right_column);
    // Insert every candidate whose C satisfies op2 against this D; the
    // visit order makes this set monotone, so the pointer never rewinds.
    while (insert_ptr < by_c.size() &&
           EvalOrdering(rows[by_c[insert_ptr]].value(c2.left_column), c2.op, d)) {
      uint32_t p = pos_in_a[by_c[insert_ptr]];
      bits[p >> 6] |= uint64_t{1} << (p & 63);
      min_set = std::min(min_set, static_cast<size_t>(p));
      max_set = std::max(max_set, static_cast<size_t>(p) + 1);
      ++insert_ptr;
    }
    if (min_set >= max_set) continue;  // Nothing inserted yet.
    // Qualifying A range for condition 1.
    const Value& b = t2.value(c1.right_column);
    size_t lo = 0;
    size_t hi = a_values.size();
    switch (c1.op) {
      case CmpOp::kGt:  // t1.A > b: suffix after upper_bound.
        lo = static_cast<size_t>(
            std::upper_bound(a_values.begin(), a_values.end(), b) -
            a_values.begin());
        break;
      case CmpOp::kGeq:
        lo = static_cast<size_t>(
            std::lower_bound(a_values.begin(), a_values.end(), b) -
            a_values.begin());
        break;
      case CmpOp::kLt:  // t1.A < b: prefix before lower_bound.
        hi = static_cast<size_t>(
            std::lower_bound(a_values.begin(), a_values.end(), b) -
            a_values.begin());
        break;
      case CmpOp::kLeq:
        hi = static_cast<size_t>(
            std::upper_bound(a_values.begin(), a_values.end(), b) -
            a_values.begin());
        break;
      default:
        continue;
    }
    lo = std::max(lo, min_set);
    hi = std::min(hi, max_set);
    if (lo >= hi) continue;
    // Emit set bits in [lo, hi), skipping zero words.
    size_t word = lo >> 6;
    const size_t last_word = (hi - 1) >> 6;
    for (; word <= last_word; ++word) {
      uint64_t mask = bits[word];
      ++bitmap_probes;
      if (mask == 0) continue;
      // Clip the word to [lo, hi).
      size_t base = word << 6;
      if (base < lo) mask &= ~uint64_t{0} << (lo - base);
      if (base + 64 > hi) mask &= (~uint64_t{0}) >> (base + 64 - hi);
      while (mask != 0) {
        unsigned bit = static_cast<unsigned>(__builtin_ctzll(mask));
        mask &= mask - 1;
        const uint32_t t1_idx = by_a[base + bit];
        const Row& t1 = rows[t1_idx];
        if (t1.id() == t2.id()) continue;
        // Residual conditions beyond the two that drove the join.
        bool all = true;
        for (size_t j = 2; j < conditions.size(); ++j) {
          const auto& cj = conditions[j];
          const Value& lv = t1.value(cj.left_column);
          const Value& rv = t2.value(cj.right_column);
          if (lv.is_null() || rv.is_null() || !EvalOrdering(lv, cj.op, rv)) {
            all = false;
            break;
          }
        }
        if (all) results.emplace_back(t1_idx, t_idx);
      }
    }
  }
  local.bitmap_probes = bitmap_probes;
  local.result_pairs = results.size();
  ctx->metrics().AddPairsEnumerated(results.size());
  if (stats != nullptr) *stats = local;
  if (span.id() != 0) {
    span.Annotate("rows_joined", static_cast<uint64_t>(local.rows_joined));
    span.Annotate("bitmap_probes",
                  static_cast<uint64_t>(local.bitmap_probes));
    span.Annotate("result_pairs", static_cast<uint64_t>(local.result_pairs));
  }
  return results;
}

}  // namespace bigdansing
