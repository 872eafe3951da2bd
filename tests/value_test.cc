#include "data/value.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"

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

TEST(Value, DoubleToStringIsShortestRoundTrip) {
  EXPECT_EQ(Value(0.1234567).ToString(), "0.1234567");
  EXPECT_EQ(Value(0.1 + 0.2).ToString(), "0.30000000000000004");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
  // Non-finite values keep their printf text.
  EXPECT_EQ(Value(std::numeric_limits<double>::infinity()).ToString(), "inf");
  EXPECT_EQ(Value(-std::numeric_limits<double>::infinity()).ToString(),
            "-inf");
  EXPECT_EQ(Value(std::numeric_limits<double>::quiet_NaN()).ToString(), "nan");
}

TEST(Value, SeededDoublesRoundTripThroughParse) {
  // Every finite double must read back as the same value: random bit
  // patterns (all exponents, subnormals included) plus the edges — the
  // extremes of the range, a negative zero, and integral doubles past 2^53
  // and past int64, whose plain digit form Parse would read as an int or
  // keep as text.
  std::vector<double> doubles = {1e-300,
                                 std::numeric_limits<double>::max(),
                                 -std::numeric_limits<double>::max(),
                                 std::numeric_limits<double>::min(),
                                 std::numeric_limits<double>::denorm_min(),
                                 -0.0,
                                 9007199254740994.0,  // 2^53 + 2
                                 9223372036854775808.0,  // 2^63
                                 18446744073709551616.0,  // 2^64
                                 1e20,
                                 0.1234567};
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Random rng(seed);
    for (int i = 0; i < 2000; ++i) {
      const uint64_t bits = rng.NextUint64();
      double d;
      static_assert(sizeof(d) == sizeof(bits));
      __builtin_memcpy(&d, &bits, sizeof(d));
      if (std::isfinite(d)) doubles.push_back(d);
      doubles.push_back(rng.NextDouble() * 1e6 - 5e5);
    }
  }
  for (double d : doubles) {
    const Value v(d);
    const Value back = Value::Parse(v.ToString());
    ASSERT_EQ(back, v) << v.ToString();
    ASSERT_TRUE(back.is_numeric()) << v.ToString();
    ASSERT_EQ(back.AsNumber(), d) << v.ToString();
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

TEST(Value, ParseKeepsNonDecimalNumeralsAsText) {
  // strtod also reads hex, "inf" and "nan"; CSV I/O would then rewrite the
  // cell ("0x10" -> "16"). Only decimal numerals become numbers.
  for (const char* text : {"0x10", "0X1p3", "inf", "-Infinity", "nan", "NaN",
                           "nan(1)", "1e999", ".", "1e", "e5", "+-1", "1.5x"}) {
    const Value v = Value::Parse(text);
    EXPECT_TRUE(v.is_string()) << text;
    EXPECT_EQ(v.ToString(), text);
  }
  EXPECT_DOUBLE_EQ(Value::Parse(".5").as_double(), 0.5);
  EXPECT_DOUBLE_EQ(Value::Parse("5.").as_double(), 5.0);
  EXPECT_DOUBLE_EQ(Value::Parse("-1.25E+2").as_double(), -125.0);
  EXPECT_DOUBLE_EQ(Value::Parse(" 2e-3 ").as_double(), 0.002);
}

TEST(Value, NaNIsOneValueAfterInfinity) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Value(nan), Value(-nan));
  EXPECT_EQ(Value(nan).Hash(), Value(-nan).Hash());
  EXPECT_GT(Value(nan), Value(inf));
  EXPECT_GT(Value(nan), Value(std::numeric_limits<int64_t>::max()));
  EXPECT_NE(Value(nan), Value(int64_t{1}));
  EXPECT_LT(Value(nan), Value("a"));
  EXPECT_GT(Value(nan), Value::Null());
}

TEST(Value, SeededOrderAxiomsOverEdgeValues) {
  // Random draws from the values that have broken the order before: NaN of
  // both signs, infinities, signed zeros, ints around 2^53 and the doubles
  // they round to, int/double ties, strings and nulls. Compare must be a
  // total order (antisymmetric, transitive for < and ==) and equal values
  // must hash equally, or sorted pools split one value in two.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  constexpr int64_t k53 = int64_t{1} << 53;
  const std::vector<Value> edge = {
      Value(nan),         Value(-nan),        Value(inf),
      Value(-inf),        Value(0.0),         Value(-0.0),
      Value(int64_t{0}),  Value(k53 - 1),     Value(k53),
      Value(k53 + 1),     Value(-k53 - 1),    Value(static_cast<double>(k53)),
      Value(9007199254740991.0),
      Value(std::numeric_limits<int64_t>::max()),
      Value(std::numeric_limits<int64_t>::min()),
      Value("nan"),       Value(""),          Value::Null(),
  };
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Random rng(seed);
    std::vector<Value> values;
    for (int i = 0; i < 30; ++i) {
      const int64_t k = static_cast<int64_t>(rng.NextBounded(5)) - 2;
      switch (rng.NextBounded(4)) {
        case 0:
          values.push_back(Value(k));
          break;
        case 1:
          values.push_back(Value(static_cast<double>(k)));
          break;
        default:
          values.push_back(edge[rng.NextBounded(edge.size())]);
      }
    }
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const Value& a : values) {
      ASSERT_EQ(a.Compare(a), 0) << a.ToString();
      for (const Value& b : values) {
        const int ab = a.Compare(b);
        const int ba = b.Compare(a);
        ASSERT_EQ(ab < 0, ba > 0) << a.ToString() << " vs " << b.ToString();
        ASSERT_EQ(ab == 0, ba == 0) << a.ToString() << " vs " << b.ToString();
        if (ab == 0) {
          ASSERT_EQ(a.Hash(), b.Hash())
              << a.ToString() << " vs " << b.ToString();
        }
        for (const Value& c : values) {
          const int bc = b.Compare(c);
          if (ab < 0 && bc < 0) {
            ASSERT_LT(a.Compare(c), 0)
                << a.ToString() << " " << b.ToString() << " " << c.ToString();
          }
          if (ab == 0 && bc == 0) {
            ASSERT_EQ(a.Compare(c), 0)
                << a.ToString() << " " << b.ToString() << " " << c.ToString();
          }
        }
      }
    }
  }
}

TEST(Value, HashIsStableAcrossRuns) {
  // Pinned values guard against accidental hash-function changes, which
  // would silently re-partition persisted experiment data.
  EXPECT_EQ(Value("").Hash(), StableHashBytes(""));
  EXPECT_EQ(Value(static_cast<int64_t>(1)).Hash(), StableHashUint64(1));
}

}  // namespace
}  // namespace bigdansing
