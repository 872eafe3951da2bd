// Column profiler tests: known-table statistics (null rate, distinct,
// min/max, top-k with deterministic tie-breaks), the exact JSON of fixture
// tables, agreement of the driver-side and encoded paths, strict JSON
// rendering, and the profile's encode stages publishing through the metrics
// plane like any other engine stage.
#include "data/profile.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "data/table.h"
#include "dataflow/context.h"
#include "strict_json_test_util.h"

namespace bigdansing {
namespace {

Table MakeMixedTable() {
  Table t(Schema({"city", "salary"}));
  t.AppendRow({Value("paris"), Value(int64_t{100})});
  t.AppendRow({Value("paris"), Value(int64_t{200})});
  t.AppendRow({Value("oslo"), Value::Null()});
  t.AppendRow({Value(), Value(int64_t{100})});
  t.AppendRow({Value("lima"), Value(int64_t{50})});
  t.AppendRow({Value("paris"), Value(int64_t{200})});
  return t;
}

TEST(ColumnProfiler, ProfilesKnownTable) {
  ExecutionContext ctx(4);
  const Table t = MakeMixedTable();
  TableProfile profile = ProfileTable(&ctx, t);

  ASSERT_EQ(profile.rows, 6u);
  ASSERT_EQ(profile.columns.size(), 2u);

  const ColumnProfile* city = profile.Find("city");
  ASSERT_NE(city, nullptr);
  EXPECT_EQ(city->index, 0u);
  EXPECT_EQ(city->rows, 6u);
  EXPECT_EQ(city->nulls, 1u);
  EXPECT_DOUBLE_EQ(city->null_rate(), 1.0 / 6.0);
  EXPECT_EQ(city->distinct, 3u);
  EXPECT_EQ(city->min, Value("lima"));
  EXPECT_EQ(city->max, Value("paris"));
  // Top-k: count-descending, ties broken by ascending Value order.
  ASSERT_GE(city->top.size(), 3u);
  EXPECT_EQ(city->top[0].value, Value("paris"));
  EXPECT_EQ(city->top[0].count, 3u);
  EXPECT_EQ(city->top[1].value, Value("lima"));
  EXPECT_EQ(city->top[1].count, 1u);
  EXPECT_EQ(city->top[2].value, Value("oslo"));
  EXPECT_EQ(city->top[2].count, 1u);

  const ColumnProfile* salary = profile.Find("salary");
  ASSERT_NE(salary, nullptr);
  EXPECT_EQ(salary->nulls, 1u);
  EXPECT_EQ(salary->distinct, 3u);
  EXPECT_EQ(salary->min, Value(int64_t{50}));
  EXPECT_EQ(salary->max, Value(int64_t{200}));
  ASSERT_GE(salary->top.size(), 3u);
  // 100 and 200 both occur twice: the smaller value leads the tie.
  EXPECT_EQ(salary->top[0].value, Value(int64_t{100}));
  EXPECT_EQ(salary->top[0].count, 2u);
  EXPECT_EQ(salary->top[1].value, Value(int64_t{200}));
  EXPECT_EQ(salary->top[1].count, 2u);

  EXPECT_EQ(profile.Find("missing"), nullptr);
}

TEST(ColumnProfiler, TopKTruncates) {
  ExecutionContext ctx(2);
  Table t(Schema({"v"}));
  for (int i = 0; i < 10; ++i) {
    for (int reps = 0; reps <= i; ++reps) {
      t.AppendRow({Value(int64_t{i})});
    }
  }
  TableProfile profile = ProfileTable(&ctx, t);
  ASSERT_EQ(profile.columns.size(), 1u);
  ASSERT_EQ(profile.columns[0].top.size(), kProfileTopK);
  EXPECT_EQ(profile.columns[0].top[0].value, Value(int64_t{9}));
  EXPECT_EQ(profile.columns[0].top[0].count, 10u);
  EXPECT_EQ(profile.columns[0].top[4].value, Value(int64_t{5}));
  EXPECT_EQ(profile.columns[0].distinct, 10u);
}

TEST(ColumnProfiler, RendersFixtureTablesExactly) {
  // Byte-exact JSON: downstream consumers (drift diff, JSONL export) read
  // this rendering, so it is pinned, not just the parsed statistics.
  ExecutionContext ctx(4);
  EXPECT_EQ(
      ProfileTable(&ctx, MakeMixedTable()).ToJson(),
      "{\"rows\":6,\"columns\":["
      "{\"name\":\"city\",\"index\":0,\"rows\":6,\"nulls\":1,"
      "\"null_rate\":0.166667,\"distinct\":3,\"min\":\"lima\","
      "\"max\":\"paris\",\"top\":[{\"value\":\"paris\",\"count\":3},"
      "{\"value\":\"lima\",\"count\":1},{\"value\":\"oslo\",\"count\":1}]},"
      "{\"name\":\"salary\",\"index\":1,\"rows\":6,\"nulls\":1,"
      "\"null_rate\":0.166667,\"distinct\":3,\"min\":50,"
      "\"max\":200,\"top\":[{\"value\":100,\"count\":2},"
      "{\"value\":200,\"count\":2},{\"value\":50,\"count\":1}]}]}");

  // Int/double ties share one pooled value; every NaN is one value, after
  // +inf; "nan" text stays a string, after every number.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Table numbers(Schema({"x"}));
  for (const Value& v :
       {Value(int64_t{1}), Value(1.0), Value(2.5), Value::Parse("nan"),
        Value(nan), Value(-nan), Value(std::numeric_limits<double>::infinity()),
        Value::Null()}) {
    numbers.AppendRow({v});
  }
  const TableProfile profile = ProfileTable(&ctx, numbers);
  const ColumnProfile& x = profile.columns[0];
  EXPECT_EQ(x.nulls, 1u);
  EXPECT_EQ(x.distinct, 5u);
  EXPECT_EQ(x.min, Value(int64_t{1}));
  EXPECT_EQ(x.max, Value("nan"));
  ASSERT_EQ(x.top.size(), 5u);
  EXPECT_EQ(x.top[0].value, Value(int64_t{1}));
  EXPECT_EQ(x.top[0].count, 2u);
  EXPECT_TRUE(x.top[1].value.is_double());
  EXPECT_TRUE(std::isnan(x.top[1].value.as_double()));
  EXPECT_EQ(x.top[1].count, 2u);
  EXPECT_EQ(x.top[4].value, Value("nan"));
  EXPECT_EQ(x.top[0].count, 2u);
}

TEST(ColumnProfiler, EmptyTableAndNullContext) {
  ExecutionContext ctx(2);
  Table empty(Schema({"a", "b"}));
  TableProfile profile = ProfileTable(&ctx, empty);
  EXPECT_EQ(profile.rows, 0u);
  ASSERT_EQ(profile.columns.size(), 2u);
  EXPECT_EQ(profile.columns[0].nulls, 0u);
  EXPECT_EQ(profile.columns[0].distinct, 0u);
  EXPECT_DOUBLE_EQ(profile.columns[0].null_rate(), 0.0);
  EXPECT_TRUE(profile.columns[0].min.is_null());

  // Null context degrades to the name-only shell instead of crashing.
  TableProfile no_ctx = ProfileTable(nullptr, MakeMixedTable());
  ASSERT_EQ(no_ctx.columns.size(), 2u);
  EXPECT_EQ(no_ctx.columns[0].name, "city");
  EXPECT_EQ(no_ctx.columns[0].distinct, 0u);
}

TEST(ColumnProfiler, ToJsonIsStrictAndTyped) {
  ExecutionContext ctx(4);
  Table t(Schema({"na\"me"}));
  t.AppendRow({Value("a\nb")});
  t.AppendRow({Value()});
  TableProfile profile = ProfileTable(&ctx, t);

  JsonValue doc;
  ASSERT_TRUE(ParsesStrictly(profile.ToJson(), &doc));
  EXPECT_EQ(doc.Find("rows")->number, 2.0);
  const JsonValue* columns = doc.Find("columns");
  ASSERT_NE(columns, nullptr);
  ASSERT_EQ(columns->array.size(), 1u);
  const JsonValue& col = columns->array[0];
  EXPECT_EQ(col.Find("name")->str, "na\"me");
  EXPECT_EQ(col.Find("nulls")->number, 1.0);
  EXPECT_EQ(col.Find("distinct")->number, 1.0);
  EXPECT_EQ(col.Find("min")->str, "a\nb");
  ASSERT_EQ(col.Find("top")->array.size(), 1u);
  EXPECT_EQ(col.Find("top")->array[0].Find("value")->str, "a\nb");
  EXPECT_EQ(col.Find("top")->array[0].Find("count")->number, 1.0);
}

TEST(ColumnProfiler, DriverAndEncodedPathsAgree) {
  // A fixture repeated past kProfileStageMinRows takes the encoded path;
  // its profile is the fixture's inline one with every count scaled.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Table small(Schema({"city", "x"}));
  const std::vector<std::vector<Value>> fixture = {
      {Value("paris"), Value(int64_t{1})},
      {Value("oslo"), Value(1.0)},
      {Value::Null(), Value(2.5)},
      {Value("paris"), Value::Parse("nan")},
      {Value("lima"), Value(nan)},
      {Value("oslo"), Value(-nan)},
      {Value("paris"), Value(-std::numeric_limits<double>::infinity())},
      {Value("9"), Value::Null()},
      {Value(int64_t{9}), Value(-0.0)},
  };
  for (const auto& row : fixture) small.AppendRow(row);
  const size_t reps = kProfileStageMinRows / fixture.size() + 1;
  Table large(small.schema());
  for (size_t r = 0; r < reps; ++r) {
    for (const auto& row : fixture) large.AppendRow(row);
  }
  ASSERT_LT(small.num_rows(), kProfileStageMinRows);
  ASSERT_GE(large.num_rows(), kProfileStageMinRows);

  ExecutionContext ctx(4);
  TableProfile expected = ProfileTable(&ctx, small);
  expected.rows *= reps;
  for (ColumnProfile& c : expected.columns) {
    c.rows *= reps;
    c.nulls *= reps;
    for (TopValue& t : c.top) t.count *= reps;
  }
  EXPECT_EQ(ProfileTable(&ctx, large).ToJson(), expected.ToJson());
}

TEST(ColumnProfiler, PublishesProfileStagesFromTheCutoff) {
  // From kProfileStageMinRows rows on, the profile's encode stages publish
  // through the metrics plane like any other engine stage; smaller tables
  // run no stage.
  Table t(Schema({"v"}));
  for (size_t i = 0; i < kProfileStageMinRows; ++i) {
    t.AppendRow({Value(static_cast<int64_t>(i % 7))});
  }
  ExecutionContext ctx(4);
  ProfileTable(&ctx, t);
  std::set<std::string> seen;
  for (const StageReport& r : ctx.metrics().StageReports()) {
    if (r.name != "encode:pool" && r.name != "encode:codes") continue;
    seen.insert(r.name);
    EXPECT_TRUE(r.finished);
    EXPECT_EQ(r.records_in, t.num_rows());
    EXPECT_GT(r.start_ms, 0u);
    EXPECT_GE(r.end_ms, r.start_ms);
  }
  EXPECT_EQ(seen.size(), 2u);

  ExecutionContext small_ctx(4);
  ProfileTable(&small_ctx, MakeMixedTable());
  EXPECT_TRUE(small_ctx.metrics().StageReports().empty());
}

}  // namespace
}  // namespace bigdansing
