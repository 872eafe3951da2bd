// Detection against the brute-force oracle (tests/detect_oracle.h). Seeded
// random tables and one rule of every shape — FD, CFD, DCs with =, !=, <
// and <=, CHECK, UDFs keyed by a column and by a procedural key, and a
// similarity DC — run as full, incremental (random changed sets) and
// storage-replica requests, with kernels on and off, 1-4 workers and
// random morsel sizes. The kernel and row deciders must agree byte for
// byte (violations in order, detect_calls, OCJoin statistics), and both
// must be set-equal to the oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "core/rule_engine.h"
#include "data/storage.h"
#include "detect_oracle.h"
#include "rules/cfd_rule.h"
#include "rules/parser.h"
#include "rules/udf_rule.h"

namespace bigdansing {
namespace {

using testing_oracle::OracleDetect;
using testing_oracle::RenderViolation;

/// Blocking key `k` (heavy duplicates, int/double ties, NaN, nulls),
/// numbers `a`..`c` (ties, NaN, infinities, nulls), short strings `s` and
/// `t`, and an unread `u`, so every plan carries a scope.
Table RandomTable(Random& rng, size_t n) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  auto number = [&](size_t range) -> Value {
    if (rng.NextBool(0.1)) return Value::Null();
    if (rng.NextBool(0.05)) return Value(rng.NextBool(0.5) ? nan : -nan);
    if (rng.NextBool(0.03)) return Value(rng.NextBool(0.5) ? inf : -inf);
    const int64_t k = static_cast<int64_t>(rng.NextBounded(range));
    return rng.NextBool(0.3) ? Value(static_cast<double>(k)) : Value(k);
  };
  auto text = [&]() -> Value {
    if (rng.NextBool(0.1)) return Value::Null();
    return Value(std::string(1 + rng.NextBounded(3),
                             static_cast<char>('x' + rng.NextBounded(3))));
  };
  Table table(Schema({"k", "a", "b", "c", "s", "t", "u"}));
  for (size_t i = 0; i < n; ++i) {
    table.AppendRow({number(6), number(5), number(5), number(5), text(), text(),
                     Value(static_cast<int64_t>(i))});
  }
  return table;
}

RulePtr UdfColumnKey() {
  auto rule = std::make_shared<UdfRule>("udf_col");
  rule->set_relevant_attributes({"k", "s"})
      .set_blocking_attributes({"k"})
      .set_symmetric(true)
      .set_detect([](const Schema& schema, const Row& x, const Row& y,
                     std::vector<Violation>* out) {
        const size_t s = *schema.IndexOf("s");
        if (x.value(s) == y.value(s)) return;
        Violation v;
        v.rule_name = "udf_col";
        v.cells.push_back(UdfRule::MakeUdfCell(x, s, schema));
        v.cells.push_back(UdfRule::MakeUdfCell(y, s, schema));
        out->push_back(std::move(v));
      })
      .set_gen_fix([](const Schema&, const Violation& v,
                      std::vector<Fix>* out) {
        Fix fix;
        fix.left = v.cells[0];
        fix.op = FixOp::kEq;
        fix.right = FixTerm::MakeCell(v.cells[1]);
        out->push_back(std::move(fix));
      });
  return rule;
}

/// Procedural key (first character of `t`; null `t` joins no block) and an
/// asymmetric detect, so both orientations are probed.
RulePtr UdfFunctionKey() {
  auto rule = std::make_shared<UdfRule>("udf_fn");
  rule->set_relevant_attributes({"t", "a", "b"})
      .set_symmetric(false)
      .set_block_key([](const Schema& schema, const Row& row) {
        const Value& t = row.value(*schema.IndexOf("t"));
        return t.is_null() ? Value::Null() : Value(t.ToString().substr(0, 1));
      })
      .set_detect([](const Schema& schema, const Row& x, const Row& y,
                     std::vector<Violation>* out) {
        const size_t a = *schema.IndexOf("a");
        const size_t b = *schema.IndexOf("b");
        if (x.value(a).is_null() || !(x.value(a) < y.value(b))) return;
        Violation v;
        v.rule_name = "udf_fn";
        v.cells.push_back(UdfRule::MakeUdfCell(x, a, schema));
        v.cells.push_back(UdfRule::MakeUdfCell(y, b, schema));
        out->push_back(std::move(v));
      });
  return rule;
}

std::vector<RulePtr> Rules() {
  std::vector<RulePtr> rules;
  for (const char* text : {
           "fd: FD: k -> s",
           "dc_eq: DC: t1.k = t2.k & t1.a != t2.a",
           "dc_neq: DC: t1.s != t2.s & t1.t != t2.t & t1.b = t2.c",
           "dc_lt: DC: t1.a < t2.a & t1.b > t2.c",
           "dc_leq: DC: t1.k = t2.k & t1.a <= t2.b & t1.s != t2.s",
           "chk: CHECK: t1.a > 1 & t1.b < 3",
           "sim: DC: t1.k = t2.k & t1.s ~0.6 t2.s & t1.t != t2.t",
       }) {
    auto rule = ParseRule(text);
    EXPECT_TRUE(rule.ok()) << text << ": " << rule.status().ToString();
    rules.push_back(*rule);
  }
  rules.push_back(std::make_shared<CfdRule>(
      "cfd",
      std::vector<CfdPatternAttr>{{"t", Value("x")}, {"k", std::nullopt}},
      CfdPatternAttr{"s", std::nullopt}));
  rules.push_back(UdfColumnKey());
  rules.push_back(UdfFunctionKey());
  return rules;
}

std::string Fingerprint(const DetectionResult& result) {
  std::string out;
  for (const auto& vf : result.violations) out += RenderViolation(vf) + "\n";
  const OCJoinStats& s = result.ocjoin_stats;
  out += "calls=" + std::to_string(result.detect_calls) + " ocjoin=" +
         std::to_string(s.num_partitions) + "/" +
         std::to_string(s.partition_pairs_after_pruning) + "/" +
         std::to_string(s.candidate_pairs) + "/" +
         std::to_string(s.result_pairs) + "/" +
         std::to_string(s.primary_condition);
  return out;
}

std::multiset<std::string> AsSet(const DetectionResult& result) {
  std::multiset<std::string> out;
  for (const auto& vf : result.violations) out.insert(RenderViolation(vf));
  return out;
}

/// Runs `request` with kernels on and off on fresh contexts with the same
/// workers and morsel size; checks the deciders agree byte for byte and
/// returns the kernel run's results.
std::vector<DetectionResult> RunBothDeciders(const DetectRequest& request,
                                             size_t workers, size_t morsel) {
  std::vector<DetectionResult> runs[2];
  for (int kernels = 0; kernels < 2; ++kernels) {
    ExecutionContext ctx(workers);
    ctx.set_kernels_enabled(kernels == 1);
    ctx.set_morsel_rows(morsel);
    auto results = RuleEngine(&ctx).Detect(request);
    EXPECT_TRUE(results.ok()) << results.status().ToString();
    if (!results.ok()) return {};
    runs[kernels] = std::move(*results);
  }
  EXPECT_EQ(runs[0].size(), runs[1].size());
  for (size_t r = 0; r < runs[0].size() && r < runs[1].size(); ++r) {
    SCOPED_TRACE(request.rules[r]->name());
    EXPECT_EQ(Fingerprint(runs[1][r]), Fingerprint(runs[0][r]));
    EXPECT_EQ(runs[0][r].plan_description.find("[kernel]"), std::string::npos);
  }
  return runs[1];
}

TEST(DetectOracle, FullIncrementalAndStorageMatchBruteForce) {
  const std::vector<RulePtr> rules = Rules();
  size_t nonempty = 0;
  size_t kernel_routes = 0;
  size_t pushed_down = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Random rng(seed);
    const Table table = RandomTable(rng, 10 + rng.NextBounded(110));
    const size_t workers = 1 + rng.NextBounded(4);
    // SIZE_MAX runs every task as one morsel.
    const size_t morsel =
        rng.NextBool(0.3) ? SIZE_MAX : 1 + rng.NextBounded(50);
    SCOPED_TRACE("seed " + std::to_string(seed) + " rows " +
                 std::to_string(table.num_rows()) + " workers " +
                 std::to_string(workers) + " morsel " + std::to_string(morsel));

    // Full: every rule in one request, so encodings, scopes and blocks are
    // shared across rules.
    DetectRequest full;
    full.table = &table;
    full.rules = rules;
    const std::vector<DetectionResult> got =
        RunBothDeciders(full, workers, morsel);
    ASSERT_EQ(got.size(), rules.size());
    for (size_t r = 0; r < rules.size(); ++r) {
      SCOPED_TRACE("full " + rules[r]->name());
      EXPECT_EQ(AsSet(got[r]), OracleDetect(table, rules[r], PlannerOptions()));
      if (!got[r].violations.empty()) ++nonempty;
      if (got[r].plan_description.find("[kernel]") != std::string::npos) {
        ++kernel_routes;
      }
    }

    // Incremental: a random changed set per rule.
    for (const RulePtr& rule : rules) {
      SCOPED_TRACE("incremental " + rule->name());
      std::unordered_set<RowId> changed;
      const double rate = rng.NextBool(0.5) ? 0.05 : 0.3;
      for (const Row& row : table.rows()) {
        if (rng.NextBool(rate)) changed.insert(row.id());
      }
      DetectRequest incremental;
      incremental.table = &table;
      incremental.rules = {rule};
      incremental.changed_rows = &changed;
      const auto inc = RunBothDeciders(incremental, workers, morsel);
      ASSERT_EQ(inc.size(), 1u);
      EXPECT_EQ(AsSet(inc[0]),
                OracleDetect(table, rule, PlannerOptions(), &changed));
    }

    // Storage: a replica partitioned on `k` pushes the Block down for the
    // rules that block on `k` alone; the rest fall back to the table.
    StorageManager storage;
    ASSERT_TRUE(storage.Store("t", table, "k", 1 + rng.NextBounded(5)).ok());
    for (const RulePtr& rule : rules) {
      SCOPED_TRACE("storage " + rule->name());
      DetectRequest stored;
      stored.storage = &storage;
      stored.dataset = "t";
      stored.rules = {rule};
      const auto res = RunBothDeciders(stored, workers, morsel);
      ASSERT_EQ(res.size(), 1u);
      EXPECT_EQ(AsSet(res[0]), OracleDetect(table, rule, PlannerOptions()));
      if (res[0].plan_description.find("pushed down") != std::string::npos) {
        ++pushed_down;
      }
    }
  }
  // The sweep must exercise real violations and both deciders.
  EXPECT_GT(nonempty, 60u);
  EXPECT_EQ(kernel_routes, 12u * 7u);  // all but the UDF and similarity rules
  // fd, dc_eq, dc_leq, sim, cfd and udf_col block on k alone.
  EXPECT_EQ(pushed_down, 12u * 6u);
}

TEST(DetectOracle, ProceduralKeysAreNotSharedAcrossRules) {
  // Two UDF rules with one name but different procedural keys in one
  // request: each must block on its own key.
  auto keyed_by_prefix = [](size_t prefix) {
    auto rule = std::make_shared<UdfRule>("same-name");
    rule->set_relevant_attributes({"s"})
        .set_symmetric(true)
        .set_block_key([prefix](const Schema& schema, const Row& row) {
          const Value& s = row.value(*schema.IndexOf("s"));
          return s.is_null() ? Value::Null()
                             : Value(s.ToString().substr(0, prefix));
        })
        .set_detect([](const Schema& schema, const Row& x, const Row& y,
                       std::vector<Violation>* out) {
          Violation v;
          v.rule_name = "same-name";
          v.cells.push_back(UdfRule::MakeUdfCell(x, 0, schema));
          v.cells.push_back(UdfRule::MakeUdfCell(y, 0, schema));
          out->push_back(std::move(v));
        });
    return rule;
  };
  Random rng(5);
  const Table table = RandomTable(rng, 60);
  DetectRequest request;
  request.table = &table;
  request.rules = {keyed_by_prefix(2), keyed_by_prefix(1)};
  const auto got = RunBothDeciders(request, 3, 16);
  ASSERT_EQ(got.size(), 2u);
  for (size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(AsSet(got[r]),
              OracleDetect(table, request.rules[r], PlannerOptions()));
  }
  EXPECT_GT(got[1].violations.size(), got[0].violations.size());
}

}  // namespace
}  // namespace bigdansing
