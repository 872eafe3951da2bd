#include "core/ocjoin.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <tuple>

#include "common/random.h"
#include "data/dictionary.h"
#include "ocjoin_oracle.h"

namespace bigdansing {
namespace {

/// Random rows with `cols` numeric columns (occasionally null).
std::vector<Row> RandomRows(size_t n, size_t cols, uint64_t seed,
                            double null_rate = 0.0) {
  Random rng(seed);
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> values;
    for (size_t c = 0; c < cols; ++c) {
      if (rng.NextBool(null_rate)) {
        values.push_back(Value::Null());
      } else {
        values.push_back(Value(static_cast<int64_t>(rng.NextBounded(50))));
      }
    }
    rows.emplace_back(static_cast<RowId>(i), std::move(values));
  }
  return rows;
}

bool EvalCondition(const Row& a, const Row& b, const OrderingCondition& c) {
  const Value& l = a.value(c.left_column);
  const Value& r = b.value(c.right_column);
  if (l.is_null() || r.is_null()) return false;
  switch (c.op) {
    case CmpOp::kLt:
      return l < r;
    case CmpOp::kGt:
      return l > r;
    case CmpOp::kLeq:
      return l <= r;
    case CmpOp::kGeq:
      return l >= r;
    default:
      return false;
  }
}

std::set<std::pair<RowId, RowId>> BruteForce(
    const std::vector<Row>& rows,
    const std::vector<OrderingCondition>& conditions) {
  std::set<std::pair<RowId, RowId>> out;
  for (const auto& a : rows) {
    for (const auto& b : rows) {
      if (a.id() == b.id()) continue;
      bool all = true;
      for (const auto& c : conditions) all = all && EvalCondition(a, b, c);
      if (all) out.insert({a.id(), b.id()});
    }
  }
  return out;
}

std::set<std::pair<RowId, RowId>> AsSet(
    const std::vector<Row>& rows, const std::vector<PositionPair>& pairs) {
  std::set<std::pair<RowId, RowId>> out;
  for (const auto& [a, b] : pairs) out.insert({rows[a].id(), rows[b].id()});
  return out;
}

/// Encodes the condition columns of `rows` with EncodeColumns, all in one
/// order-preserving pool, and joins them with OCJoinPositions: the pairs
/// come back as positions into `rows`.
std::vector<PositionPair> JoinRows(
    ExecutionContext* ctx, const std::vector<Row>& rows,
    const std::vector<OrderingCondition>& conditions,
    const OCJoinOptions& options, OCJoinStats* stats = nullptr) {
  std::vector<size_t> cols;
  for (const auto& c : conditions) {
    for (size_t col : {c.left_column, c.right_column}) {
      if (std::find(cols.begin(), cols.end(), col) == cols.end()) {
        cols.push_back(col);
      }
    }
  }
  OCJoinInput input;
  input.num_rows = rows.size();
  std::vector<std::vector<uint32_t>> flat(cols.size());
  if (!rows.empty() && !cols.empty()) {
    const EncodedColumnSet encoded =
        EncodeColumns(Dataset<Row>::FromVector(ctx, rows), {cols});
    input.columns.assign(*std::max_element(cols.begin(), cols.end()) + 1,
                         nullptr);
    for (size_t s = 0; s < cols.size(); ++s) {
      for (const auto& codes : encoded.columns.at(cols[s]).codes) {
        flat[s].insert(flat[s].end(), codes.begin(), codes.end());
      }
      input.columns[cols[s]] = flat[s].data();
    }
  }
  std::vector<RowId> ids;
  for (const Row& row : rows) ids.push_back(row.id());
  input.ids = ids.data();
  return OCJoinPositions(ctx, input, conditions, options, stats);
}

OrderingCondition Cond(size_t left, CmpOp op, size_t right) {
  OrderingCondition c;
  c.left_column = left;
  c.op = op;
  c.right_column = right;
  return c;
}

/// Property sweep: every operator combination over random data must match
/// the brute-force self-join, across partition counts and null rates.
class OCJoinProperty
    : public ::testing::TestWithParam<std::tuple<CmpOp, CmpOp, size_t, double>> {};

TEST_P(OCJoinProperty, MatchesBruteForce) {
  auto [op0, op1, num_partitions, null_rate] = GetParam();
  std::vector<Row> rows = RandomRows(300, 3, /*seed=*/17, null_rate);
  std::vector<OrderingCondition> conditions = {Cond(0, op0, 0),
                                               Cond(1, op1, 2)};
  ExecutionContext ctx(4);
  OCJoinOptions options;
  options.num_partitions = num_partitions;
  OCJoinStats stats;
  auto pairs = JoinRows(&ctx, rows, conditions, options, &stats);
  EXPECT_EQ(AsSet(rows, pairs), BruteForce(rows, conditions));
  EXPECT_EQ(stats.result_pairs, pairs.size());
  EXPECT_LE(stats.partition_pairs_after_pruning, stats.partition_pairs_total);
}

INSTANTIATE_TEST_SUITE_P(
    OpsAndPartitions, OCJoinProperty,
    ::testing::Combine(
        ::testing::Values(CmpOp::kLt, CmpOp::kGt, CmpOp::kLeq, CmpOp::kGeq),
        ::testing::Values(CmpOp::kLt, CmpOp::kGeq),
        ::testing::Values(size_t{1}, size_t{4}, size_t{13}),
        ::testing::Values(0.0, 0.1)));

TEST(OCJoin, SingleConditionMatchesBruteForce) {
  std::vector<Row> rows = RandomRows(200, 2, 3);
  std::vector<OrderingCondition> conditions = {Cond(0, CmpOp::kGt, 1)};
  ExecutionContext ctx(2);
  auto pairs = JoinRows(&ctx, rows, conditions, OCJoinOptions());
  EXPECT_EQ(AsSet(rows, pairs), BruteForce(rows, conditions));
}

TEST(OCJoin, ThreeConditions) {
  std::vector<Row> rows = RandomRows(150, 3, 5);
  std::vector<OrderingCondition> conditions = {
      Cond(0, CmpOp::kGt, 0), Cond(1, CmpOp::kLt, 1), Cond(2, CmpOp::kLeq, 2)};
  ExecutionContext ctx(2);
  auto pairs = JoinRows(&ctx, rows, conditions, OCJoinOptions());
  EXPECT_EQ(AsSet(rows, pairs), BruteForce(rows, conditions));
}

TEST(OCJoin, EmptyInputs) {
  ExecutionContext ctx(2);
  EXPECT_TRUE(JoinRows(&ctx, {}, {Cond(0, CmpOp::kLt, 0)}, OCJoinOptions()).empty());
  std::vector<Row> rows = RandomRows(10, 2, 7);
  EXPECT_TRUE(JoinRows(&ctx, rows, {}, OCJoinOptions()).empty());
}

TEST(OCJoin, AllNullColumnProducesNothing) {
  std::vector<Row> rows;
  for (int i = 0; i < 20; ++i) {
    rows.emplace_back(i, std::vector<Value>{Value::Null(), Value::Null()});
  }
  ExecutionContext ctx(2);
  auto pairs = JoinRows(&ctx, rows, {Cond(0, CmpOp::kLt, 1)}, OCJoinOptions());
  EXPECT_TRUE(pairs.empty());
}

TEST(OCJoin, PruningActuallyPrunesOnSortedData) {
  // Monotone data (rate grows with salary, like clean TaxB): the DC's
  // condition pair is unsatisfiable across most partition pairs, so
  // pruning must discard the bulk of them.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 4000; ++i) {
    rows.emplace_back(i, std::vector<Value>{Value(i), Value(i * 2)});
  }
  // t1.c0 > t2.c0 & t1.c1 < t2.c1 is unsatisfiable on this data.
  std::vector<OrderingCondition> conditions = {Cond(0, CmpOp::kGt, 0),
                                               Cond(1, CmpOp::kLt, 1)};
  ExecutionContext ctx(4);
  OCJoinOptions options;
  options.num_partitions = 16;
  OCJoinStats stats;
  auto pairs = JoinRows(&ctx, rows, conditions, options, &stats);
  EXPECT_TRUE(pairs.empty());
  EXPECT_EQ(stats.num_partitions, 16u);
  // Only near-diagonal partition pairs can survive the min/max check.
  EXPECT_LT(stats.partition_pairs_after_pruning,
            stats.partition_pairs_total / 4);
}

TEST(OCJoin, DuplicateValuesHandled) {
  // Many ties on the join attribute stress the merge boundaries.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 60; ++i) {
    rows.emplace_back(i, std::vector<Value>{Value(i % 3), Value(i % 5)});
  }
  std::vector<OrderingCondition> conditions = {Cond(0, CmpOp::kLeq, 0),
                                               Cond(1, CmpOp::kGt, 1)};
  ExecutionContext ctx(3);
  auto pairs = JoinRows(&ctx, rows, conditions, OCJoinOptions());
  EXPECT_EQ(AsSet(rows, pairs), BruteForce(rows, conditions));
}

TEST(OCJoin, SelectivityOrderingPicksRareCondition) {
  // Condition 0 (c0 >= c0) holds for ~half of all pairs; condition 1
  // (c1 < c1 where c1 is constant) never holds. Selectivity ordering must
  // run the never-true condition first, collapsing the candidate count.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 400; ++i) {
    rows.emplace_back(i, std::vector<Value>{Value(i), Value(static_cast<int64_t>(7))});
  }
  std::vector<OrderingCondition> conditions = {Cond(0, CmpOp::kGeq, 0),
                                               Cond(1, CmpOp::kLt, 1)};
  ExecutionContext ctx(2);

  OCJoinOptions plain;
  OCJoinStats plain_stats;
  auto plain_pairs = JoinRows(&ctx, rows, conditions, plain, &plain_stats);

  OCJoinOptions ordered;
  ordered.order_conditions_by_selectivity = true;
  OCJoinStats ordered_stats;
  auto ordered_pairs = JoinRows(&ctx, rows, conditions, ordered, &ordered_stats);

  // Same (empty) result either way; far fewer candidates when ordered.
  EXPECT_EQ(AsSet(rows, plain_pairs), AsSet(rows, ordered_pairs));
  EXPECT_EQ(ordered_stats.primary_condition, 1u);
  EXPECT_LT(ordered_stats.candidate_pairs, plain_stats.candidate_pairs / 10 + 1);
}

TEST(OCJoin, SelectivityOrderingPreservesResults) {
  std::vector<Row> rows = RandomRows(300, 3, 23);
  std::vector<OrderingCondition> conditions = {
      Cond(0, CmpOp::kGeq, 0), Cond(1, CmpOp::kLt, 2), Cond(2, CmpOp::kGt, 1)};
  ExecutionContext ctx(2);
  OCJoinOptions ordered;
  ordered.order_conditions_by_selectivity = true;
  auto pairs = JoinRows(&ctx, rows, conditions, ordered);
  EXPECT_EQ(AsSet(rows, pairs), BruteForce(rows, conditions));
}

TEST(OCJoin, StatsCandidateCountBoundsResults) {
  std::vector<Row> rows = RandomRows(500, 2, 11);
  std::vector<OrderingCondition> conditions = {Cond(0, CmpOp::kGt, 0),
                                               Cond(1, CmpOp::kLt, 1)};
  ExecutionContext ctx(4);
  OCJoinStats stats;
  JoinRows(&ctx, rows, conditions, OCJoinOptions(), &stats);
  EXPECT_GE(stats.candidate_pairs, stats.result_pairs);
}

// ---------------------------------------------------------------------------
// Seeded differential sweep: the code-based OCJoin against the Value-based
// oracle (tests/ocjoin_oracle.h). Same ordered pair list, same stats.

enum class ColumnKind {
  kSmallInts,      // heavy duplicates
  kIntDoubleTies,  // 1 vs 1.0, plus halves
  kMixed,          // ints, doubles and strings in one column
  kStrings,
  kExtreme,        // int64/double extremes, 2^53 neighbours, -0.0, ±inf, NaN
  kAllNull,
};

Value RandomCell(Random& rng, ColumnKind kind, double null_rate) {
  if (kind == ColumnKind::kAllNull || rng.NextBool(null_rate)) {
    return Value::Null();
  }
  const int64_t k = static_cast<int64_t>(rng.NextBounded(6));
  switch (kind) {
    case ColumnKind::kSmallInts:
      return Value(static_cast<int64_t>(rng.NextBounded(4)));
    case ColumnKind::kIntDoubleTies:
      switch (rng.NextBounded(3)) {
        case 0:
          return Value(k);
        case 1:
          return Value(static_cast<double>(k));
        default:
          return Value(static_cast<double>(k) + 0.5);
      }
    case ColumnKind::kMixed:
      switch (rng.NextBounded(3)) {
        case 0:
          return Value(k);
        case 1:
          return Value(static_cast<double>(k) - 2.5);
        default:
          return Value(std::string(1, static_cast<char>('a' + k)));
      }
    case ColumnKind::kStrings:
      return Value(rng.NextString(static_cast<int>(rng.NextBounded(3))));
    case ColumnKind::kExtreme: {
      constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
      constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
      constexpr int64_t k53 = int64_t{1} << 53;
      const double dmax = std::numeric_limits<double>::max();
      const Value pool[] = {
          Value(kMax),      Value(kMax - 1),          Value(kMin),
          Value(kMin + 1),  Value(k53),               Value(k53 + 1),
          Value(9.223372036854775807e18),             Value(-9.223372036854775807e18),
          Value(dmax),      Value(-dmax),             Value(1e308),
          Value(std::numeric_limits<double>::denorm_min()),
          Value(-0.0),      Value(0.0),               Value(int64_t{0}),
          Value(static_cast<double>(k53)),
          Value(std::numeric_limits<double>::infinity()),
          Value(-std::numeric_limits<double>::infinity()),
          Value(std::numeric_limits<double>::quiet_NaN()),
          Value(-std::numeric_limits<double>::quiet_NaN()),
      };
      return pool[rng.NextBounded(sizeof(pool) / sizeof(pool[0]))];
    }
    case ColumnKind::kAllNull:
      break;
  }
  return Value::Null();
}

/// Renders a row pair exactly: ids plus each value's type and text.
std::string Render(const Row& a, const Row& b) {
  std::string out;
  for (const Row* row : {&a, &b}) {
    out += std::to_string(row->id()) + "(";
    for (const Value& v : row->values()) {
      out += std::string(ValueTypeName(v.type())) + ":" + v.ToString() + ",";
    }
    out += ")";
  }
  return out;
}

TEST(OCJoinDifferential, MatchesValueOracleOnRandomTables) {
  constexpr CmpOp kOps[] = {CmpOp::kLt, CmpOp::kLeq, CmpOp::kGt, CmpOp::kGeq};
  constexpr size_t kCols = 4;
  size_t nonempty_cases = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Random rng(seed);
    std::vector<ColumnKind> kinds(kCols);
    for (auto& kind : kinds) {
      kind = static_cast<ColumnKind>(rng.NextBounded(6));
    }
    const double null_rate = rng.NextBool(0.5) ? 0.0 : 0.2;
    const size_t n = rng.NextBounded(5) == 0 ? rng.NextBounded(4)
                                             : rng.NextBounded(220);
    // Occasionally repeat ids: equal ids are one tuple and never pair.
    const bool repeat_ids = rng.NextBool(0.15);
    std::vector<Row> rows;
    for (size_t i = 0; i < n; ++i) {
      std::vector<Value> values;
      for (size_t c = 0; c < kCols; ++c) {
        values.push_back(RandomCell(rng, kinds[c], null_rate));
      }
      const RowId id = repeat_ids ? static_cast<RowId>(rng.NextBounded(n / 2 + 1))
                                  : static_cast<RowId>(i);
      rows.emplace_back(id, std::move(values));
    }
    std::vector<OrderingCondition> conditions;
    const size_t num_conditions = 1 + rng.NextBounded(3);
    for (size_t j = 0; j < num_conditions; ++j) {
      const size_t left = rng.NextBounded(kCols);
      const size_t right = rng.NextBool(0.5) ? left : rng.NextBounded(kCols);
      conditions.push_back(Cond(left, kOps[rng.NextBounded(4)], right));
    }
    OCJoinOptions options;
    options.num_partitions = rng.NextBounded(17);  // 0 derives a count
    options.order_conditions_by_selectivity = rng.NextBool(0.5);
    const size_t workers = 1 + rng.NextBounded(4);
    ExecutionContext ctx(workers);
    // SIZE_MAX runs every task as one morsel.
    ctx.set_morsel_rows(rng.NextBool(0.5) ? SIZE_MAX
                                          : 1 + rng.NextBounded(40));

    OCJoinStats stats;
    const std::vector<PositionPair> got =
        JoinRows(&ctx, rows, conditions, options, &stats);
    OCJoinStats want_stats;
    const std::vector<PositionPair> want = testing_oracle::OracleOCJoin(
        workers, rows, conditions, options, &want_stats);

    SCOPED_TRACE("seed " + std::to_string(seed));
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i])
          << "pair " << i << ": got "
          << Render(rows[got[i].first], rows[got[i].second]) << ", want "
          << Render(rows[want[i].first], rows[want[i].second]);
    }
    EXPECT_EQ(stats.num_partitions, want_stats.num_partitions);
    EXPECT_EQ(stats.partition_pairs_total, want_stats.partition_pairs_total);
    EXPECT_EQ(stats.partition_pairs_after_pruning,
              want_stats.partition_pairs_after_pruning);
    EXPECT_EQ(stats.candidate_pairs, want_stats.candidate_pairs);
    EXPECT_EQ(stats.result_pairs, want_stats.result_pairs);
    EXPECT_EQ(stats.primary_condition, want_stats.primary_condition);
    if (!want.empty()) ++nonempty_cases;
  }
  // The sweep must exercise real joins, not only empty results.
  EXPECT_GT(nonempty_cases, 100u);
}

}  // namespace
}  // namespace bigdansing
