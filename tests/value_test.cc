#include "data/value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

namespace bigdansing {
namespace {

TEST(Value, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), ValueType::kNull);
  EXPECT_EQ(v.ToString(), "");
}

TEST(Value, TypedConstructors) {
  EXPECT_TRUE(Value(static_cast<int64_t>(42)).is_int());
  EXPECT_TRUE(Value(3.5).is_double());
  EXPECT_TRUE(Value("abc").is_string());
  EXPECT_TRUE(Value(std::string("abc")).is_string());
  EXPECT_TRUE(Value(static_cast<int64_t>(1)).is_numeric());
  EXPECT_TRUE(Value(1.0).is_numeric());
  EXPECT_FALSE(Value("1").is_numeric());
}

TEST(Value, ParseSniffsTypes) {
  EXPECT_EQ(Value::Parse("42").type(), ValueType::kInt);
  EXPECT_EQ(Value::Parse("-17").type(), ValueType::kInt);
  EXPECT_EQ(Value::Parse("3.14").type(), ValueType::kDouble);
  EXPECT_EQ(Value::Parse("1e3").type(), ValueType::kDouble);
  EXPECT_EQ(Value::Parse("abc").type(), ValueType::kString);
  EXPECT_EQ(Value::Parse("12ab").type(), ValueType::kString);
  EXPECT_EQ(Value::Parse("").type(), ValueType::kNull);
  EXPECT_EQ(Value::Parse("   ").type(), ValueType::kNull);
  EXPECT_EQ(Value::Parse("42").as_int(), 42);
  EXPECT_DOUBLE_EQ(Value::Parse("3.14").as_double(), 3.14);
}

TEST(Value, ParseOverflowFallsBackToString) {
  // Larger than int64 range.
  Value v = Value::Parse("99999999999999999999999999");
  EXPECT_TRUE(v.is_string());
}

TEST(Value, CrossNumericEquality) {
  EXPECT_EQ(Value(static_cast<int64_t>(1)), Value(1.0));
  EXPECT_EQ(Value(static_cast<int64_t>(1)).Hash(), Value(1.0).Hash());
  EXPECT_NE(Value(static_cast<int64_t>(1)), Value(1.5));
}

TEST(Value, TotalOrderNullNumericString) {
  Value null = Value::Null();
  Value num = Value(static_cast<int64_t>(5));
  Value str = Value("5");
  EXPECT_LT(null, num);
  EXPECT_LT(num, str);
  EXPECT_LT(null, str);
}

TEST(Value, StringComparison) {
  EXPECT_LT(Value("abc"), Value("abd"));
  EXPECT_EQ(Value("abc"), Value("abc"));
  EXPECT_GT(Value("b"), Value("aaaa"));
}

TEST(Value, ToStringRoundTripsThroughParse) {
  for (const Value& v :
       {Value(static_cast<int64_t>(-7)), Value(2.5), Value("hello"),
        Value::Null(), Value(static_cast<int64_t>(0))}) {
    EXPECT_EQ(Value::Parse(v.ToString()), v) << v.ToString();
  }
}

TEST(Value, AsNumberWidens) {
  EXPECT_DOUBLE_EQ(Value(static_cast<int64_t>(3)).AsNumber(), 3.0);
  EXPECT_DOUBLE_EQ(Value(2.5).AsNumber(), 2.5);
  EXPECT_DOUBLE_EQ(Value("x").AsNumber(), 0.0);
  EXPECT_DOUBLE_EQ(Value::Null().AsNumber(), 0.0);
}

class ValueOrderProperty : public ::testing::TestWithParam<int> {};

TEST_P(ValueOrderProperty, CompareIsAntisymmetricAndTransitive) {
  // A fixed pool of mixed-type values; every pair/triple must satisfy the
  // total-order axioms.
  std::vector<Value> pool = {
      Value::Null(),       Value(static_cast<int64_t>(-3)),
      Value(0.0),          Value(static_cast<int64_t>(0)),
      Value(7.25),         Value(static_cast<int64_t>(100)),
      Value(""),           Value("a"),
      Value("abc"),        Value("z"),
  };
  int salt = GetParam();
  std::rotate(pool.begin(), pool.begin() + salt % pool.size(), pool.end());
  for (const auto& a : pool) {
    EXPECT_EQ(a.Compare(a), 0);
    for (const auto& b : pool) {
      int ab = a.Compare(b);
      int ba = b.Compare(a);
      EXPECT_EQ(ab > 0, ba < 0);
      EXPECT_EQ(ab == 0, ba == 0);
      if (ab == 0) EXPECT_EQ(a.Hash(), b.Hash());
      for (const auto& c : pool) {
        if (ab <= 0 && b.Compare(c) <= 0) {
          EXPECT_LE(a.Compare(c), 0)
              << a.ToString() << " " << b.ToString() << " " << c.ToString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rotations, ValueOrderProperty,
                         ::testing::Range(0, 5));

TEST(Value, HashAgreesWithCompareBeyondExactInts) {
  // Compare orders ints through their double rounding, so past 2^53
  // distinct ints (and the doubles they round to) compare equal; equal
  // values must hash equally or dictionary pools split one value in two.
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t k53 = int64_t{1} << 53;
  const std::vector<Value> values = {
      Value(kMax),          Value(kMax - 1),       Value(9.223372036854775807e18),
      Value(kMin),          Value(kMin + 1),       Value(-9.223372036854775807e18),
      Value(k53),           Value(k53 + 1),        Value(static_cast<double>(k53)),
      Value(-k53 - 1),      Value(-static_cast<double>(k53)),
      Value(int64_t{0}),    Value(-0.0),           Value(1e300),
  };
  size_t equal_pairs = 0;
  for (const Value& a : values) {
    for (const Value& b : values) {
      if (a.Compare(b) != 0) continue;
      ++equal_pairs;
      EXPECT_EQ(a.Hash(), b.Hash()) << a.ToString() << " vs " << b.ToString();
    }
  }
  EXPECT_GT(equal_pairs, values.size());
  // Exactly representable ints keep their pinned hash.
  EXPECT_EQ(Value(k53).Hash(), StableHashUint64(static_cast<uint64_t>(k53)));
  EXPECT_EQ(Value(int64_t{-12345}).Hash(),
            StableHashUint64(static_cast<uint64_t>(int64_t{-12345})));
}

TEST(Value, HashIsStableAcrossRuns) {
  // Pinned values guard against accidental hash-function changes, which
  // would silently re-partition persisted experiment data.
  EXPECT_EQ(Value("").Hash(), StableHashBytes(""));
  EXPECT_EQ(Value(static_cast<int64_t>(1)).Hash(), StableHashUint64(1));
}

}  // namespace
}  // namespace bigdansing
