#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/bigdansing.h"
#include "core/rule_engine.h"
#include "datagen/datagen.h"
#include "repair/quality.h"
#include "rules/parser.h"
#include "rules/udf_rule.h"

namespace bigdansing {
namespace {

/// Incremental re-detection through the unified request API.
Result<DetectionResult> DetectIncremental(
    const RuleEngine& engine, const Table& table, const RulePtr& rule,
    const std::unordered_set<RowId>& changed) {
  DetectRequest request;
  request.table = &table;
  request.rules = {rule};
  request.changed_rows = &changed;
  auto results = engine.Detect(request);
  if (!results.ok()) return results.status();
  return std::move(results->front());
}

std::set<std::pair<RowId, RowId>> PairSet(const DetectionResult& result) {
  std::set<std::pair<RowId, RowId>> pairs;
  for (const auto& vf : result.violations) {
    auto ids = vf.violation.RowIds();
    if (ids.size() != 2) continue;
    pairs.insert({std::min(ids[0], ids[1]), std::max(ids[0], ids[1])});
  }
  return pairs;
}

TEST(Incremental, BlockedRuleFindsExactlyTouchedViolations) {
  auto data = GenerateTaxA(3000, 0.1, 31);
  auto rule = *ParseRule("phi1: FD: zipcode -> city");
  ExecutionContext ctx(4);
  RuleEngine engine(&ctx);
  auto full = engine.Detect(data.dirty, rule);
  ASSERT_TRUE(full.ok());

  // Changed rows = all rows involved in violations: the incremental pass
  // must find the same violation set.
  std::unordered_set<RowId> changed;
  for (const auto& vf : full->violations) {
    for (RowId id : vf.violation.RowIds()) changed.insert(id);
  }
  auto incremental = DetectIncremental(engine, data.dirty, rule, changed);
  ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
  EXPECT_EQ(PairSet(*incremental), PairSet(*full));
  // It visited fewer blocks than the full pass probed.
  EXPECT_LE(incremental->detect_calls, full->detect_calls);
}

TEST(Incremental, SubsetOfChangesFindsSubsetOfViolations) {
  auto data = GenerateTaxA(3000, 0.1, 32);
  auto rule = *ParseRule("phi1: FD: zipcode -> city");
  ExecutionContext ctx(4);
  RuleEngine engine(&ctx);
  auto full = engine.Detect(data.dirty, rule);
  ASSERT_TRUE(full.ok());
  ASSERT_FALSE(full->violations.empty());

  // Only one violating row marked as changed: the incremental result must
  // be a non-empty subset of the full result containing that row.
  RowId target = full->violations[0].violation.RowIds()[0];
  auto incremental = DetectIncremental(engine, data.dirty, rule, {target});
  ASSERT_TRUE(incremental.ok());
  auto inc_pairs = PairSet(*incremental);
  auto full_pairs = PairSet(*full);
  EXPECT_FALSE(inc_pairs.empty());
  for (const auto& p : inc_pairs) {
    EXPECT_TRUE(full_pairs.count(p)) << p.first << "," << p.second;
  }
}

TEST(Incremental, EmptyChangeSetFindsNothing) {
  auto data = GenerateTaxA(500, 0.1, 33);
  auto rule = *ParseRule("phi1: FD: zipcode -> city");
  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  auto incremental = DetectIncremental(engine, data.dirty, rule, {});
  ASSERT_TRUE(incremental.ok());
  EXPECT_TRUE(incremental->violations.empty());
  EXPECT_EQ(incremental->detect_calls, 0u);
}

TEST(Incremental, UnblockedDcMatchesFullOnChangedRows) {
  auto data = GenerateTaxB(800, 0.1, 34);
  auto rule = *ParseRule("phi2: DC: t1.salary > t2.salary & t1.rate < t2.rate");
  ExecutionContext ctx(4);
  RuleEngine engine(&ctx);
  auto full = engine.Detect(data.dirty, rule);
  ASSERT_TRUE(full.ok());
  std::unordered_set<RowId> changed;
  for (const auto& vf : full->violations) {
    for (RowId id : vf.violation.RowIds()) changed.insert(id);
  }
  auto incremental = DetectIncremental(engine, data.dirty, rule, changed);
  ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
  EXPECT_EQ(PairSet(*incremental), PairSet(*full));
}

TEST(Incremental, NoDuplicateProbesWhenBothSidesChanged) {
  // With every row changed, the incremental pass must report each violation
  // exactly as often as the full pass does — never once per orientation.
  // Counts, not PairSet: a set hides duplicates.
  struct Case {
    std::string name;
    Table table;
    RulePtr rule;
    size_t violations;
  };
  std::vector<Case> cases;

  // An asymmetric DC (OCJoin): two changed rows violating with each other.
  Table dc_table(Schema({"salary", "rate"}));
  dc_table.AppendRow({Value(static_cast<int64_t>(100)), Value(static_cast<int64_t>(9))});
  dc_table.AppendRow({Value(static_cast<int64_t>(200)), Value(static_cast<int64_t>(5))});
  cases.push_back(
      {"dc", std::move(dc_table),
       *ParseRule("phi2: DC: t1.salary > t2.salary & t1.rate < t2.rate"), 1});

  // A symmetric unblocked UDF (UCrossProduct): rows with equal `a` clash.
  Table udf_table(Schema({"a"}));
  for (int64_t a : {1, 2, 1, 3, 2, 1}) udf_table.AppendRow({Value(a)});
  auto udf = std::make_shared<UdfRule>("same_a");
  udf->set_symmetric(true)
      .set_detect([](const Schema& schema, const Row& x, const Row& y,
                     std::vector<Violation>* out) {
        if (x.value(0) != y.value(0)) return;
        Violation v;
        v.rule_name = "same_a";
        v.cells.push_back(UdfRule::MakeUdfCell(x, 0, schema));
        v.cells.push_back(UdfRule::MakeUdfCell(y, 0, schema));
        out->push_back(std::move(v));
      });
  // Pairs {0,2}, {0,5}, {2,5} (a = 1) and {1,4} (a = 2).
  cases.push_back({"symmetric udf", std::move(udf_table), udf, 4});

  ExecutionContext ctx(2);
  RuleEngine engine(&ctx);
  for (const Case& c : cases) {
    std::unordered_set<RowId> all;
    for (const Row& row : c.table.rows()) all.insert(row.id());
    auto full = engine.Detect(c.table, c.rule);
    ASSERT_TRUE(full.ok()) << c.name;
    EXPECT_EQ(full->violations.size(), c.violations) << c.name;
    auto incremental = DetectIncremental(engine, c.table, c.rule, all);
    ASSERT_TRUE(incremental.ok()) << c.name;
    EXPECT_EQ(incremental->violations.size(), c.violations) << c.name;
    EXPECT_EQ(PairSet(*incremental), PairSet(*full)) << c.name;
    // Each violation names its rows in the orientation the full pass uses.
    std::multiset<std::vector<RowId>> inc_ids;
    std::multiset<std::vector<RowId>> full_ids;
    for (const auto& vf : incremental->violations) {
      inc_ids.insert(vf.violation.RowIds());
    }
    for (const auto& vf : full->violations) {
      full_ids.insert(vf.violation.RowIds());
    }
    EXPECT_EQ(inc_ids, full_ids) << c.name;
  }
}

TEST(Incremental, CleanLoopMatchesNonIncrementalResult) {
  auto data = GenerateHai(4000, 0.1, 35, {3, 4});
  std::vector<RulePtr> rules = {*ParseRule("phi6: FD: zipcode -> state"),
                                *ParseRule("phi7: FD: phone -> zipcode")};
  ExecutionContext ctx(4);

  Table plain = data.dirty;
  CleanOptions plain_options;
  auto plain_report = BigDansing(&ctx, plain_options).Clean(&plain, rules);
  ASSERT_TRUE(plain_report.ok());

  Table inc = data.dirty;
  CleanOptions inc_options;
  inc_options.incremental_redetection = true;
  auto inc_report = BigDansing(&ctx, inc_options).Clean(&inc, rules);
  ASSERT_TRUE(inc_report.ok());

  EXPECT_TRUE(inc_report->converged);
  EXPECT_EQ(plain, inc);  // Identical repaired instances.
}

}  // namespace
}  // namespace bigdansing
