#include "rules/parser.h"

#include <gtest/gtest.h>

#include "rules/check_rule.h"
#include "rules/dc_rule.h"
#include "rules/fd_rule.h"

namespace bigdansing {
namespace {

TEST(Parser, SimpleFd) {
  auto rule = ParseRule("FD: zipcode -> city");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  auto* fd = dynamic_cast<FdRule*>(rule->get());
  ASSERT_NE(fd, nullptr);
  EXPECT_EQ(fd->lhs(), (std::vector<std::string>{"zipcode"}));
  EXPECT_EQ(fd->rhs(), (std::vector<std::string>{"city"}));
}

TEST(Parser, MultiAttributeFd) {
  auto rule = ParseRule("r8: FD: provider_id, measure -> city, phone");
  ASSERT_TRUE(rule.ok());
  auto* fd = dynamic_cast<FdRule*>(rule->get());
  ASSERT_NE(fd, nullptr);
  EXPECT_EQ((*rule)->name(), "r8");
  EXPECT_EQ(fd->lhs(), (std::vector<std::string>{"provider_id", "measure"}));
  EXPECT_EQ(fd->rhs(), (std::vector<std::string>{"city", "phone"}));
}

TEST(Parser, NamedRuleKeywordCollision) {
  // A rule literally named "fd" must still parse.
  auto rule = ParseRule("fd: FD: a -> b");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ((*rule)->name(), "fd");
  EXPECT_NE(dynamic_cast<FdRule*>(rule->get()), nullptr);
}

TEST(Parser, DcWithInequalities) {
  auto rule = ParseRule("phi2: DC: t1.salary > t2.salary & t1.rate < t2.rate");
  ASSERT_TRUE(rule.ok());
  auto* dc = dynamic_cast<DcRule*>(rule->get());
  ASSERT_NE(dc, nullptr);
  ASSERT_EQ(dc->predicates().size(), 2u);
  EXPECT_EQ(dc->predicates()[0].op, CmpOp::kGt);
  EXPECT_EQ(dc->predicates()[1].op, CmpOp::kLt);
  EXPECT_EQ(dc->OrderingConditions().size(), 2u);
  EXPECT_FALSE(dc->IsSymmetric());
}

TEST(Parser, DcWithEqualityIsSymmetricAndBlocks) {
  auto rule = ParseRule("c1: DC: t1.city = t2.city & t1.state != t2.state");
  ASSERT_TRUE(rule.ok());
  auto* dc = dynamic_cast<DcRule*>(rule->get());
  ASSERT_NE(dc, nullptr);
  EXPECT_TRUE(dc->IsSymmetric());
  EXPECT_EQ(dc->BlockingAttributes(), (std::vector<std::string>{"city"}));
  EXPECT_TRUE(dc->OrderingConditions().empty());
}

TEST(Parser, DcWithStringConstant) {
  auto rule = ParseRule(
      "c2: DC: t1.role = \"M\" & t1.city != t2.city");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  auto* dc = dynamic_cast<DcRule*>(rule->get());
  ASSERT_NE(dc, nullptr);
  EXPECT_TRUE(dc->predicates()[0].right_is_constant);
  EXPECT_EQ(dc->predicates()[0].constant, Value("M"));
}

TEST(Parser, DcWithNumericConstant) {
  auto rule = ParseRule("c3: DC: t1.salary > 100000 & t1.rate < t2.rate");
  ASSERT_TRUE(rule.ok());
  auto* dc = dynamic_cast<DcRule*>(rule->get());
  ASSERT_NE(dc, nullptr);
  EXPECT_TRUE(dc->predicates()[0].right_is_constant);
  EXPECT_EQ(dc->predicates()[0].constant, Value(static_cast<int64_t>(100000)));
}

TEST(Parser, NumericConstantsAreFiniteDecimals) {
  auto rule = ParseRule("CHECK: t1.x > -1.5e3");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  auto* check = dynamic_cast<CheckRule*>(rule->get());
  ASSERT_NE(check, nullptr);
  EXPECT_EQ(check->predicates()[0].constant, Value(-1500.0));
  // Out of double range, or read as a number only by strtod: an error, not
  // a string constant or an attribute named "inf".
  for (const char* constant : {"1e999", "-1e999", "inf", "-inf", "nan",
                               "Infinity", "0x10"}) {
    EXPECT_FALSE(ParseRule(std::string("CHECK: t1.x > ") + constant).ok())
        << constant;
    EXPECT_FALSE(
        ParseRule(std::string("DC: t1.x > ") + constant + " & t1.y = t2.y")
            .ok())
        << constant;
  }
  // A tuple-qualified attribute may still be named like one.
  EXPECT_TRUE(ParseRule("CHECK: t1.x > t1.inf").ok());
}

TEST(Parser, SimilarityPredicateWithThreshold) {
  auto rule = ParseRule("phiU: DC: t1.name ~0.85 t2.name & t1.county = t2.county");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  auto* dc = dynamic_cast<DcRule*>(rule->get());
  ASSERT_NE(dc, nullptr);
  EXPECT_EQ(dc->predicates()[0].op, CmpOp::kSimilar);
  EXPECT_DOUBLE_EQ(dc->predicates()[0].similarity_threshold, 0.85);
}

TEST(Parser, SimilarityDefaultThreshold) {
  auto rule = ParseRule("u: DC: t1.name ~ t2.name & t1.city = t2.city");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  auto* dc = dynamic_cast<DcRule*>(rule->get());
  EXPECT_DOUBLE_EQ(dc->predicates()[0].similarity_threshold, 0.8);
}

TEST(Parser, CheckRule) {
  auto rule = ParseRule("nonneg: CHECK: t1.salary < 0");
  ASSERT_TRUE(rule.ok());
  EXPECT_NE(dynamic_cast<CheckRule*>(rule->get()), nullptr);
  EXPECT_EQ((*rule)->arity(), 1);
}

TEST(Parser, CheckRuleImplicitTuple) {
  auto rule = ParseRule("CHECK: salary < 0 & rate > 50");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  EXPECT_EQ((*rule)->arity(), 1);
}

TEST(Parser, TwoCharOperators) {
  auto rule = ParseRule("x: DC: t1.a >= t2.a & t1.b <= t2.b & t1.c <> t2.c");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  auto* dc = dynamic_cast<DcRule*>(rule->get());
  ASSERT_EQ(dc->predicates().size(), 3u);
  EXPECT_EQ(dc->predicates()[0].op, CmpOp::kGeq);
  EXPECT_EQ(dc->predicates()[1].op, CmpOp::kLeq);
  EXPECT_EQ(dc->predicates()[2].op, CmpOp::kNeq);
}

TEST(Parser, DoubleEqualsAccepted) {
  auto rule = ParseRule("x: DC: t1.a == t2.a & t1.b != t2.b");
  ASSERT_TRUE(rule.ok()) << rule.status().ToString();
  auto* dc = dynamic_cast<DcRule*>(rule->get());
  EXPECT_EQ(dc->predicates()[0].op, CmpOp::kEq);
}

TEST(Parser, ErrorCases) {
  EXPECT_FALSE(ParseRule("").ok());
  EXPECT_FALSE(ParseRule("nonsense").ok());
  EXPECT_FALSE(ParseRule("FD: zipcode city").ok());        // No arrow.
  EXPECT_FALSE(ParseRule("FD: -> city").ok());             // Empty LHS.
  EXPECT_FALSE(ParseRule("DC: t1.a ? t2.a").ok());         // Bad operator.
  EXPECT_FALSE(ParseRule("DC: & t1.a = t2.a").ok());       // Empty conjunct.
  EXPECT_FALSE(ParseRule("DC: t1.a = t2.a &").ok());       // Trailing &.
  EXPECT_FALSE(ParseRule("DC: 5 = t2.a").ok());            // Constant on left.
  EXPECT_FALSE(ParseRule("DC: t1.a = \"unterminated").ok());
  EXPECT_FALSE(ParseRule("DC: t1.a = t1.b").ok());  // Single-tuple DC -> CHECK.
  EXPECT_FALSE(ParseRule("UNKNOWN: t1.a = t2.a").ok());
}

TEST(Parser, DefaultNameIsRuleText) {
  auto rule = ParseRule("FD: a -> b");
  ASSERT_TRUE(rule.ok());
  EXPECT_EQ((*rule)->name(), "FD: a -> b");
}

}  // namespace
}  // namespace bigdansing
