// Columnar detect kernels: the kernel decider against the row decider.
// Every test runs the same detection twice — kernels on vs BD_KERNELS=0
// semantics (ctx.set_kernels_enabled(false)), which share one enumeration
// and differ only in who decides each candidate — and requires
// byte-identical violation streams (same violations, same fixes, same
// order) plus equal detect_calls, across FD/DC/CFD/CHECK/dedup rules,
// null-heavy data, empty and single-row blocks, injected faults, and the
// Clean() fixpoint. tests/detect_oracle_test.cc checks both against an
// independent brute-force oracle.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <set>
#include <unordered_set>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "core/bigdansing.h"
#include "core/rule_engine.h"
#include "data/csv.h"
#include "data/dictionary.h"
#include "datagen/datagen.h"
#include "dataflow/context.h"
#include "rules/cfd_rule.h"
#include "rules/detect_kernel.h"
#include "rules/parser.h"
#include "rules/udf_rule.h"

namespace bigdansing {
namespace {

Table PaperTable() {
  const char* csv =
      "name,zipcode,city,state,salary,rate\n"
      "Annie,10011,NY,NY,24000,15\n"
      "Laure,90210,LA,CA,25000,10\n"
      "John,60601,CH,IL,40000,25\n"
      "Mark,90210,SF,CA,88000,30\n"
      "Robert,68027,CH,IL,30000,5\n"
      "Mary,90210,LA,CA,88000,30\n";
  auto table = ReadCsvString(csv, CsvOptions{});
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return *table;
}

/// Nulls in blocking keys, RHS values, and whole rows; a unique key
/// (single-row block) and an all-null key row (no block at all).
Table NullTable() {
  const char* csv =
      "name,zipcode,city,state\n"
      "a,90210,LA,CA\n"
      "b,90210,,CA\n"
      "c,,NY,NY\n"
      "d,90210,SF,\n"
      "e,,,\n"
      "f,10011,NY,NY\n"
      "g,90210,,CA\n";
  auto table = ReadCsvString(csv, CsvOptions{});
  EXPECT_TRUE(table.ok()) << table.status().ToString();
  return *table;
}

/// Byte rendering of a full detection result: violations, cells, and fixes
/// in stream order. Two results with equal fingerprints are bit-identical
/// for every downstream consumer (repair, lineage, reporting).
std::string DetectFingerprint(const DetectionResult& result) {
  std::string out;
  auto cell = [&](const Cell& c) {
    out += "t" + std::to_string(c.ref.row_id) + "[" +
           std::to_string(c.ref.column) + "]" + c.attribute + "=" +
           c.value.ToString() + ";";
  };
  for (const auto& vf : result.violations) {
    out += vf.violation.rule_name + ":";
    for (const auto& c : vf.violation.cells) cell(c);
    out += "fixes{";
    for (const auto& fix : vf.fixes) {
      cell(fix.left);
      out += FixOpName(fix.op);
      if (fix.right.is_cell) {
        cell(fix.right.cell);
      } else {
        out += fix.right.constant.ToString();
      }
      out += "&";
    }
    out += "}\n";
  }
  return out;
}

std::string TableFingerprint(const Table& table) {
  std::string out;
  for (const Row& row : table.rows()) {
    out += std::to_string(row.id());
    for (size_t c = 0; c < row.size(); ++c) {
      out += '|';
      out += row.value(c).ToString();
    }
    out += "\n";
  }
  return out;
}

std::vector<DetectionResult> RunDetect(const Table& table,
                                       const std::vector<RulePtr>& rules,
                                       bool kernels, size_t workers = 4,
                                       PlannerOptions options = {}) {
  ExecutionContext ctx(workers);
  ctx.set_kernels_enabled(kernels);
  RuleEngine engine(&ctx, options);
  DetectRequest request;
  request.table = &table;
  request.rules = rules;
  auto results = engine.Detect(request);
  EXPECT_TRUE(results.ok()) << results.status().ToString();
  return std::move(*results);
}

/// Kernel vs row decider runs must agree byte for byte. `expect_kernel`
/// additionally asserts the kernel decider actually engaged (plan
/// description carries the [kernel] marker) — without it a rule the
/// registry silently stopped compiling would vacuously pass.
void ExpectBitIdentical(const Table& table, const std::vector<RulePtr>& rules,
                        bool expect_kernel = true, size_t workers = 4,
                        PlannerOptions options = {}) {
  auto kernel = RunDetect(table, rules, /*kernels=*/true, workers, options);
  auto interp = RunDetect(table, rules, /*kernels=*/false, workers, options);
  ASSERT_EQ(kernel.size(), interp.size());
  for (size_t r = 0; r < kernel.size(); ++r) {
    EXPECT_EQ(DetectFingerprint(kernel[r]), DetectFingerprint(interp[r]))
        << "rule " << r << " diverged";
    EXPECT_EQ(kernel[r].detect_calls, interp[r].detect_calls)
        << "rule " << r << " evaluated a different candidate count";
    if (expect_kernel) {
      EXPECT_NE(kernel[r].plan_description.find("[kernel]"),
                std::string::npos)
          << kernel[r].plan_description;
    }
    EXPECT_EQ(interp[r].plan_description.find("[kernel]"), std::string::npos)
        << interp[r].plan_description;
  }
}

TEST(ValuePoolTest, CodesPreserveOrderEqualityAndHashes) {
  ValuePool pool({Value(int64_t{5}), Value(10.5), Value("NY"), Value("ny")});
  EXPECT_EQ(pool.size(), 4u);
  EXPECT_EQ(pool.CodeOf(Value(int64_t{5})), 0u);
  EXPECT_EQ(pool.CodeOf(Value(5.0)), 0u);  // int 5 == double 5.0
  EXPECT_EQ(pool.CodeOf(Value("NY")), 2u);
  EXPECT_EQ(pool.CodeOf(Value::Null()), ValuePool::kNullCode);
  EXPECT_EQ(pool.CodeOf(Value("absent")), ValuePool::kAbsentCode);
  // value < 10.5 ⟺ code < LowerBound; value <= 10.5 ⟺ code < UpperBound.
  EXPECT_EQ(pool.LowerBound(Value(10.5)), 1u);
  EXPECT_EQ(pool.UpperBound(Value(10.5)), 2u);
  for (uint32_t c = 0; c < pool.size(); ++c) {
    EXPECT_EQ(pool.hash(c), pool.value(c).Hash());
  }
}

TEST(StablePoolTest, CodesFollowArrivalOrderAndNeverChange) {
  StablePool pool;
  EXPECT_EQ(pool.Intern(Value(int64_t{50})), 0u);
  EXPECT_EQ(pool.Intern(Value(int64_t{1})), 1u);
  EXPECT_EQ(pool.Intern(Value(5.0)), 2u);
  EXPECT_EQ(pool.Intern(Value(int64_t{5})), 2u);  // int 5 == double 5.0
  EXPECT_EQ(pool.Intern(Value::Null()), ValuePool::kNullCode);
  // Growing past the initial index keeps every earlier code.
  for (int64_t v = 100; v < 200; ++v) pool.Intern(Value(v));
  EXPECT_EQ(pool.size(), 103u);
  EXPECT_EQ(pool.Intern(Value(int64_t{50})), 0u);
  EXPECT_EQ(pool.Intern(Value(int64_t{1})), 1u);
  for (uint32_t c = 0; c < pool.size(); ++c) {
    EXPECT_EQ(pool.hash(c), pool.value(c).Hash());
  }
}

TEST(KernelRegistryTest, CompilesDeclarativeRulesRejectsUdfAndSimilarity) {
  Table table = PaperTable();
  auto fd = *ParseRule("f: FD: zipcode -> city");
  ASSERT_TRUE(fd->Bind(table.schema()).ok());
  EXPECT_NE(KernelRegistry::Instance().Compile(*fd, table.schema()), nullptr);

  auto udf = std::make_shared<UdfRule>("u");
  EXPECT_EQ(KernelRegistry::Instance().Compile(*udf, table.schema()), nullptr);

  Predicate sim;
  sim.left_attr = "city";
  sim.op = CmpOp::kSimilar;
  sim.right_attr = "city";
  DcRule sim_rule("s", {sim});
  EXPECT_EQ(KernelRegistry::Instance().Compile(sim_rule, table.schema()),
            nullptr);
}

TEST(KernelBitEquality, FdPaperTable) {
  Table table = PaperTable();
  auto rule = *ParseRule("phiF: FD: zipcode -> city");
  ExpectBitIdentical(table, {rule});
  // The canonical result survives the kernel routing unchanged.
  auto results = RunDetect(table, {rule}, /*kernels=*/true);
  std::set<std::pair<RowId, RowId>> pairs;
  for (const auto& vf : results[0].violations) {
    auto ids = vf.violation.RowIds();
    pairs.insert({std::min(ids[0], ids[1]), std::max(ids[0], ids[1])});
  }
  EXPECT_EQ(pairs, (std::set<std::pair<RowId, RowId>>{{1, 3}, {3, 5}}));
  EXPECT_EQ(results[0].detect_calls, 3u);
}

TEST(KernelBitEquality, FdTaxWorkloadSharedScope) {
  auto data = GenerateTaxA(3000, 0.1, /*seed=*/17);
  // Two FDs sharing scope/blocking columns exercise the encode/block caches.
  ExpectBitIdentical(data.dirty, {*ParseRule("phi1: FD: zipcode -> city"),
                                  *ParseRule("phi6: FD: zipcode -> state")});
}

TEST(KernelBitEquality, BlockedSymmetricDc) {
  auto data = GenerateTaxA(1500, 0.15, /*seed=*/5);
  ExpectBitIdentical(
      data.dirty,
      {*ParseRule("dcb: DC: t1.zipcode = t2.zipcode & t1.state != t2.state")});
}

TEST(KernelBitEquality, BlockedOrderingDcUsesCrossProductOrder) {
  // Equality blocking plus an ordering predicate: the planner picks OCJoin
  // but the blocked executor enumerates ordered pairs per block — the
  // kernel must reproduce that exact (asymmetric) order.
  Table table = PaperTable();
  ExpectBitIdentical(
      table,
      {*ParseRule("dco: DC: t1.zipcode = t2.zipcode & t1.salary > t2.salary")});
}

TEST(KernelBitEquality, UnblockedDcAndCrossProductWrapper) {
  Table table = PaperTable();
  auto rule =
      *ParseRule("dcu: DC: t1.city != t2.city & t1.state != t2.state");
  ExpectBitIdentical(table, {rule});
  // Same rule through the CrossProduct wrapper (UCrossProduct disabled):
  // pair-list materialization order must survive kernelization too.
  PlannerOptions no_ucross;
  no_ucross.enable_ucross_product = false;
  ExpectBitIdentical(table, {rule}, /*expect_kernel=*/true, 4, no_ucross);
  // And with blocking disabled entirely for an FD (unblocked FD path).
  PlannerOptions no_block;
  no_block.enable_blocking = false;
  ExpectBitIdentical(table, {*ParseRule("f: FD: zipcode -> city")},
                     /*expect_kernel=*/true, 4, no_block);
}

TEST(KernelBitEquality, CheckRuleSinglePath) {
  Table table = PaperTable();
  ExpectBitIdentical(
      table, {*ParseRule("chk: CHECK: t1.salary > 30000 & t1.rate < 27")});
}

TEST(KernelBitEquality, VariableAndConstantCfd) {
  Table table = PaperTable();
  // Variable CFD: within state = CA, zipcode -> city.
  auto variable = std::make_shared<CfdRule>(
      "cfd_var",
      std::vector<CfdPatternAttr>{{"state", Value("CA")},
                                  {"zipcode", std::nullopt}},
      CfdPatternAttr{"city", std::nullopt});
  // Constant CFD: zipcode 90210 implies city LA (Mark/SF violates).
  auto constant = std::make_shared<CfdRule>(
      "cfd_const",
      std::vector<CfdPatternAttr>{{"zipcode", Value(int64_t{90210})}},
      CfdPatternAttr{"city", Value("LA")});
  ExpectBitIdentical(table, {variable, constant});
  auto results = RunDetect(table, {constant}, /*kernels=*/true);
  ASSERT_EQ(results[0].violations.size(), 1u);  // Mark only
  EXPECT_EQ(results[0].violations[0].violation.cells[0].ref.row_id, 3);
}

TEST(KernelBitEquality, NullKeysEmptyAndSingleRowBlocks) {
  Table table = NullTable();
  ExpectBitIdentical(table, {*ParseRule("f: FD: zipcode -> city"),
                             *ParseRule("g: FD: zipcode -> state"),
                             *ParseRule("h: FD: city -> state")});
  // Empty input: zero blocks everywhere.
  Table empty =
      *ReadCsvString("name,zipcode,city,state\n", CsvOptions{});
  ExpectBitIdentical(empty, {*ParseRule("f: FD: zipcode -> city")});
}

TEST(KernelBitEquality, ConstantsAbsentNullAndRanges) {
  Table table = PaperTable();
  // Range constant between two pooled values, an absent equality constant,
  // and a never-true null constant.
  Predicate range;  // t1.salary >= 30000 (range bound in code space)
  range.left_attr = "salary";
  range.op = CmpOp::kGeq;
  range.right_is_constant = true;
  range.constant = Value(int64_t{30000});
  Predicate block;  // t1.zipcode = t2.zipcode
  block.left_attr = "zipcode";
  block.op = CmpOp::kEq;
  block.right_attr = "zipcode";
  Predicate neq;  // t1.city != t2.city
  neq.left_attr = "city";
  neq.op = CmpOp::kNeq;
  neq.right_attr = "city";
  auto ranged = std::make_shared<DcRule>(
      "ranged", std::vector<Predicate>{range, block, neq});

  Predicate absent = range;  // = 12345 appears nowhere in the data
  absent.op = CmpOp::kEq;
  absent.constant = Value(int64_t{12345});
  auto absent_rule = std::make_shared<DcRule>(
      "absent", std::vector<Predicate>{absent, block, neq});

  Predicate null_const = range;  // null constant: statically false
  null_const.constant = Value::Null();
  auto never_rule = std::make_shared<DcRule>(
      "never", std::vector<Predicate>{null_const, block, neq});

  ExpectBitIdentical(table, {ranged, absent_rule, never_rule});
  auto results = RunDetect(table, {absent_rule, never_rule}, true);
  EXPECT_TRUE(results[0].violations.empty());
  EXPECT_TRUE(results[1].violations.empty());
}

TEST(KernelBitEquality, UdfDedupStaysInterpreted) {
  DedupData data = GenerateCustomerDedup(300, 2, 0.05, /*seed=*/3);
  auto dedup = std::make_shared<UdfRule>("dedup");
  dedup->set_relevant_attributes({"name", "address", "phone"})
      .set_blocking_attributes({"address"})
      .set_symmetric(true)
      .set_detect([](const Schema& schema, const Row& a, const Row& b,
                     std::vector<Violation>* out) {
        // Detect sees the scoped schema — resolve columns by name.
        size_t name_col = *schema.IndexOf("name");
        size_t phone_col = *schema.IndexOf("phone");
        if (a.value(name_col) == b.value(name_col) &&
            a.value(phone_col) == b.value(phone_col)) {
          Violation v;
          v.rule_name = "dedup";
          v.cells.push_back(UdfRule::MakeUdfCell(a, name_col, schema));
          v.cells.push_back(UdfRule::MakeUdfCell(b, name_col, schema));
          out->push_back(std::move(v));
        }
      });
  // UDF rules have no kernel compiler: the row decider runs either way, and
  // the kernels-on run must NOT carry the kernel marker.
  ExpectBitIdentical(data.table, {dedup}, /*expect_kernel=*/false);
}

TEST(KernelBitEquality, UnderInjectedFaults) {
  struct InjectorGuard {
    ~InjectorGuard() {
      FaultInjector::Instance().Clear();
      FaultInjector::Instance().set_site_tracking(false);
      FaultInjector::Instance().ClearSeenSites();
    }
  } guard;
  auto data = GenerateTaxA(800, 0.1, /*seed=*/23);
  std::vector<RulePtr> rules = {*ParseRule("phi1: FD: zipcode -> city")};

  auto fault_free = RunDetect(data.dirty, rules, /*kernels=*/true);
  auto interp = RunDetect(data.dirty, rules, /*kernels=*/false);

  ASSERT_TRUE(FaultInjector::Instance()
                  .Configure("stage=*,kind=throw,prob=0.05", /*seed=*/13)
                  .ok());
  auto faulted = RunDetect(data.dirty, rules, /*kernels=*/true);
  FaultInjector::Instance().Clear();

  EXPECT_EQ(DetectFingerprint(faulted[0]), DetectFingerprint(fault_free[0]));
  EXPECT_EQ(DetectFingerprint(faulted[0]), DetectFingerprint(interp[0]));
  EXPECT_EQ(faulted[0].detect_calls, interp[0].detect_calls);
}

TEST(KernelBitEquality, CleanFixpointByteIdentical) {
  auto data = GenerateTaxA(600, 0.1, /*seed=*/29);
  std::vector<RulePtr> rules = {*ParseRule("phi1: FD: zipcode -> city"),
                                *ParseRule("phi6: FD: zipcode -> state")};
  std::string with_kernels;
  {
    ExecutionContext ctx(4);
    ctx.set_kernels_enabled(true);
    BigDansing system(&ctx);
    Table working = data.dirty;
    auto report = system.Clean(&working, rules);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    with_kernels = TableFingerprint(working);
  }
  std::string interpreted;
  {
    ExecutionContext ctx(4);
    ctx.set_kernels_enabled(false);
    BigDansing system(&ctx);
    Table working = data.dirty;
    auto report = system.Clean(&working, rules);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    interpreted = TableFingerprint(working);
  }
  EXPECT_EQ(with_kernels, interpreted);
}

TEST(KernelStages, KernelPrefixOnlyOnStagesTheKernelDecides) {
  // Both deciders share the encode and block stages; only the stages where
  // the kernel decides candidates carry the kernel: prefix.
  Table table = PaperTable();
  auto rule = *ParseRule("phiF: FD: zipcode -> city");
  for (bool kernels : {true, false}) {
    SCOPED_TRACE(kernels ? "kernels on" : "kernels off");
    ExecutionContext ctx(4);
    ctx.set_kernels_enabled(kernels);
    RuleEngine engine(&ctx);
    ASSERT_TRUE(engine.Detect(table, rule).ok());
    std::set<std::string> names;
    for (const auto& report : ctx.metrics().StageReports()) {
      names.insert(report.name);
    }
    EXPECT_TRUE(names.count("encode:pool")) << ::testing::PrintToString(names);
    EXPECT_TRUE(names.count("encode:codes"));
    EXPECT_TRUE(names.count("block"));
    EXPECT_EQ(names.count("kernel:iterate|detect|genfix"), kernels ? 1u : 0u);
    EXPECT_EQ(names.count("iterate|detect|genfix"), kernels ? 0u : 1u);
    for (const std::string& name : names) {
      if (name.rfind("kernel:", 0) == 0) {
        EXPECT_TRUE(kernels) << name;
        EXPECT_NE(name.find("detect"), std::string::npos) << name;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Global inequality DCs: the kernel route runs OCJoin over codes and the DC
// kernel decides every emitted pair. Seeded random tables and rules; every
// result must equal the row decider's (BD_KERNELS=0) byte for byte,
// with the same OCJoin statistics.

/// Six columns; rules never read `f`, so every plan carries a scope.
/// Heavy duplicates, int/double ties, NaN of both signs, nulls, mixed types
/// in `d` and strings in `e`.
Table RandomInequalityTable(Random& rng, size_t n) {
  Table table(Schema({"a", "b", "c", "d", "e", "f"}));
  auto number = [&rng]() {
    const int64_t k = static_cast<int64_t>(rng.NextBounded(7));
    if (rng.NextBool(0.15)) return Value::Null();
    if (rng.NextBool(0.05)) {
      const double nan = std::numeric_limits<double>::quiet_NaN();
      return Value(rng.NextBool(0.5) ? nan : -nan);
    }
    return rng.NextBool(0.3) ? Value(static_cast<double>(k)) : Value(k);
  };
  for (size_t i = 0; i < n; ++i) {
    Value d = rng.NextBool(0.3) ? Value(std::string(1, 'p' + rng.NextBounded(3)))
                                : number();
    Value e = rng.NextBool(0.1) ? Value::Null()
                                : Value(std::string(1, 'x' + rng.NextBounded(3)));
    table.AppendRow({number(), number(), number(), std::move(d), std::move(e),
                     Value(static_cast<int64_t>(i))});
  }
  return table;
}

/// A DC with 1-3 cross-tuple ordering predicates over a/b/c (same- and
/// cross-column) plus optional `=` / `!=` residuals: cross-column equality,
/// same-tuple ordering and constants, none of which blocks the rule.
std::string RandomInequalityDc(Random& rng, size_t index) {
  static const char* kCols[] = {"a", "b", "c"};
  static const char* kOps[] = {"<", "<=", ">", ">="};
  static const char* kResiduals[] = {
      "t1.d != t2.d", "t1.e = t2.d",  "t1.e != t2.e", "t1.a < t1.b",
      "t2.d != 3",    "t1.e = \"x\"", "t1.c = t2.a",
  };
  std::string text = "dc" + std::to_string(index) + ": DC: ";
  const size_t ordering = 1 + rng.NextBounded(3);
  for (size_t j = 0; j < ordering; ++j) {
    if (j > 0) text += " & ";
    const char* left = kCols[rng.NextBounded(3)];
    const char* right = rng.NextBool(0.5) ? left : kCols[rng.NextBounded(3)];
    text += std::string("t1.") + left + " " + kOps[rng.NextBounded(4)] +
            " t2." + right;
  }
  const size_t residuals = rng.NextBounded(3);
  for (size_t j = 0; j < residuals; ++j) {
    text += std::string(" & ") + kResiduals[rng.NextBounded(7)];
  }
  return text;
}

void ExpectSameOCJoinStats(const OCJoinStats& a, const OCJoinStats& b) {
  EXPECT_EQ(a.num_partitions, b.num_partitions);
  EXPECT_EQ(a.partition_pairs_total, b.partition_pairs_total);
  EXPECT_EQ(a.partition_pairs_after_pruning, b.partition_pairs_after_pruning);
  EXPECT_EQ(a.candidate_pairs, b.candidate_pairs);
  EXPECT_EQ(a.result_pairs, b.result_pairs);
  EXPECT_EQ(a.primary_condition, b.primary_condition);
}

TEST(KernelOCJoinDifferential, DetectMatchesInterpreted) {
  size_t violating_rules = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Random rng(seed);
    Table table = RandomInequalityTable(rng, 20 + rng.NextBounded(180));
    std::vector<RulePtr> rules;
    for (size_t r = 0; r < 3; ++r) {
      auto rule = ParseRule(RandomInequalityDc(rng, r));
      ASSERT_TRUE(rule.ok()) << rule.status().ToString();
      rules.push_back(*rule);
    }
    PlannerOptions options;
    options.ocjoin_selectivity_ordering = rng.NextBool(0.5);
    const size_t workers = 1 + rng.NextBounded(4);
    SCOPED_TRACE("seed " + std::to_string(seed));
    auto kernel = RunDetect(table, rules, /*kernels=*/true, workers, options);
    auto interp = RunDetect(table, rules, /*kernels=*/false, workers, options);
    ASSERT_EQ(kernel.size(), interp.size());
    for (size_t r = 0; r < kernel.size(); ++r) {
      SCOPED_TRACE(rules[r]->name());
      EXPECT_EQ(DetectFingerprint(kernel[r]), DetectFingerprint(interp[r]));
      EXPECT_EQ(kernel[r].detect_calls, interp[r].detect_calls);
      ExpectSameOCJoinStats(kernel[r].ocjoin_stats, interp[r].ocjoin_stats);
      EXPECT_NE(kernel[r].plan_description.find("OCJoin"), std::string::npos);
      EXPECT_NE(kernel[r].plan_description.find("[kernel]"), std::string::npos)
          << kernel[r].plan_description;
      if (!kernel[r].violations.empty()) ++violating_rules;
    }
  }
  EXPECT_GT(violating_rules, 40u);
}

TEST(KernelOCJoinDifferential, IEJoinRouteUsesKernelDecider) {
  Random rng(77);
  Table table = RandomInequalityTable(rng, 150);
  auto two = *ParseRule("dc2: DC: t1.a > t2.a & t1.b < t2.c & t1.d != t2.d");
  auto one = *ParseRule("dc1: DC: t1.a > t2.b & t1.e = t2.d");
  PlannerOptions iejoin;
  iejoin.use_iejoin = true;
  auto kernel = RunDetect(table, {two, one}, /*kernels=*/true, 4, iejoin);
  auto interp = RunDetect(table, {two, one}, /*kernels=*/false, 4, iejoin);
  // Two ordering conditions: IEJoin enumerates the pairs over Values and
  // the kernel decides each one.
  EXPECT_NE(kernel[0].plan_description.find("[kernel]"), std::string::npos);
  EXPECT_GT(kernel[0].iejoin_stats.result_pairs, 0u);
  EXPECT_EQ(kernel[0].ocjoin_stats.result_pairs, 0u);
  // One ordering condition: IEJoin does not apply, OCJoin runs on codes.
  EXPECT_NE(kernel[1].plan_description.find("[kernel]"), std::string::npos);
  for (size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(DetectFingerprint(kernel[r]), DetectFingerprint(interp[r]));
    EXPECT_EQ(kernel[r].detect_calls, interp[r].detect_calls);
    ExpectSameOCJoinStats(kernel[r].ocjoin_stats, interp[r].ocjoin_stats);
    EXPECT_EQ(kernel[r].iejoin_stats.result_pairs,
              interp[r].iejoin_stats.result_pairs);
  }
}

TEST(KernelOCJoinDifferential, IncrementalAndCleanMatchInterpreted) {
  size_t repaired = 0;
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    Random rng(1000 + seed);
    Table table = RandomInequalityTable(rng, 20 + rng.NextBounded(100));
    auto rule = ParseRule(RandomInequalityDc(rng, 0));
    ASSERT_TRUE(rule.ok()) << rule.status().ToString();
    SCOPED_TRACE("seed " + std::to_string(seed) + " " + (*rule)->name());

    std::unordered_set<RowId> changed;
    for (const Row& row : table.rows()) {
      if (rng.NextBool(0.2)) changed.insert(row.id());
    }
    std::string incremental[2];
    std::string cleaned[2];
    for (int kernels = 0; kernels < 2; ++kernels) {
      ExecutionContext ctx(3);
      ctx.set_kernels_enabled(kernels == 1);
      RuleEngine engine(&ctx);
      DetectRequest request;
      request.table = &table;
      request.rules = {*rule};
      request.changed_rows = &changed;
      auto result = engine.Detect(request);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      incremental[kernels] = DetectFingerprint((*result)[0]) + "calls=" +
                             std::to_string((*result)[0].detect_calls);

      CleanOptions clean_options;
      clean_options.repair_mode = RepairMode::kHypergraph;
      clean_options.incremental_redetection = seed % 2 == 0;
      BigDansing system(&ctx, clean_options);
      Table working = table;
      auto report = system.Clean(&working, {*rule});
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      cleaned[kernels] = TableFingerprint(working);
    }
    EXPECT_EQ(incremental[1], incremental[0]);
    EXPECT_EQ(cleaned[1], cleaned[0]);
    if (cleaned[0] != TableFingerprint(table)) ++repaired;
  }
  EXPECT_GT(repaired, 6u);
}

}  // namespace
}  // namespace bigdansing
