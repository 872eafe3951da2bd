#include "core/iejoin.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "common/random.h"

namespace bigdansing {
namespace {

std::vector<Row> RandomRows(size_t n, size_t cols, uint64_t seed,
                            double null_rate = 0.0) {
  Random rng(seed);
  std::vector<Row> rows;
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> values;
    for (size_t c = 0; c < cols; ++c) {
      if (rng.NextBool(null_rate)) {
        values.push_back(Value::Null());
      } else {
        values.push_back(Value(static_cast<int64_t>(rng.NextBounded(40))));
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

/// IEJoin returns positions into its input rows; tests compare row ids.
std::set<std::pair<RowId, RowId>> AsSet(
    const std::vector<Row>& rows, const std::vector<PositionPair>& pairs) {
  std::set<std::pair<RowId, RowId>> out;
  for (const auto& [a, b] : pairs) out.insert({rows[a].id(), rows[b].id()});
  return out;
}

OrderingCondition Cond(size_t left, CmpOp op, size_t right) {
  OrderingCondition c;
  c.left_column = left;
  c.op = op;
  c.right_column = right;
  return c;
}

class IEJoinProperty
    : public ::testing::TestWithParam<std::tuple<CmpOp, CmpOp, double>> {};

TEST_P(IEJoinProperty, MatchesBruteForce) {
  auto [op1, op2, null_rate] = GetParam();
  std::vector<Row> rows = RandomRows(250, 3, 19, null_rate);
  std::vector<OrderingCondition> conditions = {Cond(0, op1, 0),
                                               Cond(1, op2, 2)};
  ExecutionContext ctx(2);
  IEJoinStats stats;
  auto pairs = IEJoin(&ctx, rows, conditions, &stats);
  EXPECT_EQ(AsSet(rows, pairs), BruteForce(rows, conditions));
  EXPECT_EQ(stats.result_pairs, pairs.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, IEJoinProperty,
    ::testing::Combine(
        ::testing::Values(CmpOp::kLt, CmpOp::kGt, CmpOp::kLeq, CmpOp::kGeq),
        ::testing::Values(CmpOp::kLt, CmpOp::kGt, CmpOp::kLeq, CmpOp::kGeq),
        ::testing::Values(0.0, 0.15)));

TEST(IEJoin, ResidualThirdCondition) {
  std::vector<Row> rows = RandomRows(150, 3, 29);
  std::vector<OrderingCondition> conditions = {
      Cond(0, CmpOp::kGt, 0), Cond(1, CmpOp::kLt, 1), Cond(2, CmpOp::kLeq, 2)};
  ExecutionContext ctx(2);
  auto pairs = IEJoin(&ctx, rows, conditions);
  EXPECT_EQ(AsSet(rows, pairs), BruteForce(rows, conditions));
}

TEST(IEJoin, SingleConditionNotApplicable) {
  EXPECT_FALSE(IEJoinApplicable({Cond(0, CmpOp::kLt, 0)}));
  EXPECT_TRUE(IEJoinApplicable({Cond(0, CmpOp::kLt, 0), Cond(1, CmpOp::kGt, 1)}));
  ExecutionContext ctx(1);
  std::vector<Row> rows = RandomRows(10, 2, 3);
  EXPECT_TRUE(IEJoin(&ctx, rows, {Cond(0, CmpOp::kLt, 0)}).empty());
}

TEST(IEJoin, EmptyAndDegenerateInputs) {
  ExecutionContext ctx(1);
  std::vector<OrderingCondition> conditions = {Cond(0, CmpOp::kLt, 0),
                                               Cond(1, CmpOp::kGt, 1)};
  EXPECT_TRUE(IEJoin(&ctx, {}, conditions).empty());
  // One row cannot pair with itself.
  std::vector<Row> one = RandomRows(1, 2, 5);
  EXPECT_TRUE(IEJoin(&ctx, one, conditions).empty());
  // All-null column joins nothing.
  std::vector<Row> nulls;
  for (int i = 0; i < 10; ++i) {
    nulls.emplace_back(i, std::vector<Value>{Value::Null(), Value::Null()});
  }
  EXPECT_TRUE(IEJoin(&ctx, nulls, conditions).empty());
}

TEST(IEJoin, HeavyDuplicatesMatchBruteForce) {
  // Many ties on both join attributes stress the boundary logic.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 80; ++i) {
    rows.emplace_back(i, std::vector<Value>{Value(i % 4), Value(i % 3)});
  }
  for (CmpOp op1 : {CmpOp::kLeq, CmpOp::kGeq}) {
    for (CmpOp op2 : {CmpOp::kLeq, CmpOp::kGeq}) {
      std::vector<OrderingCondition> conditions = {Cond(0, op1, 0),
                                                   Cond(1, op2, 1)};
      ExecutionContext ctx(2);
      auto pairs = IEJoin(&ctx, rows, conditions);
      EXPECT_EQ(AsSet(rows, pairs), BruteForce(rows, conditions))
          << CmpOpName(op1) << " " << CmpOpName(op2);
    }
  }
}

TEST(IEJoin, MonotoneDataProducesNoPairsCheaply) {
  // Clean-TaxB-shaped data: the DC's conditions are jointly unsatisfiable.
  std::vector<Row> rows;
  for (int64_t i = 0; i < 20000; ++i) {
    rows.emplace_back(i, std::vector<Value>{Value(i), Value(i * 2)});
  }
  std::vector<OrderingCondition> conditions = {Cond(0, CmpOp::kGt, 0),
                                               Cond(1, CmpOp::kLt, 1)};
  ExecutionContext ctx(2);
  IEJoinStats stats;
  auto pairs = IEJoin(&ctx, rows, conditions, &stats);
  EXPECT_TRUE(pairs.empty());
  // Word-skipping keeps probing near-linear, far below n²/64 words.
  EXPECT_LT(stats.bitmap_probes, 20000u * 20000u / 64 / 8);
}

}  // namespace
}  // namespace bigdansing
