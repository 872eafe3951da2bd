#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "common/fault.h"
#include "common/lineage.h"
#include "core/bigdansing.h"
#include "core/rule_engine.h"
#include "data/csv.h"
#include "repair/blackbox.h"
#include "repair/connected_components.h"
#include "repair/equivalence_class.h"
#include "repair/hypergraph.h"
#include "repair/hypergraph_repair.h"
#include "repair/partitioner.h"
#include "repair/quality.h"
#include "rules/parser.h"

namespace bigdansing {
namespace {

Cell MakeTestCell(RowId row, size_t col, Value v) {
  Cell c;
  c.ref = CellRef{row, col};
  c.attribute = "a" + std::to_string(col);
  c.value = std::move(v);
  return c;
}

ViolationWithFixes EqViolation(RowId r1, RowId r2, size_t col, Value v1,
                               Value v2) {
  ViolationWithFixes vf;
  vf.violation.rule_name = "test";
  Cell c1 = MakeTestCell(r1, col, std::move(v1));
  Cell c2 = MakeTestCell(r2, col, std::move(v2));
  vf.violation.cells = {c1, c2};
  Fix fix;
  fix.left = c1;
  fix.op = FixOp::kEq;
  fix.right = FixTerm::MakeCell(c2);
  vf.fixes = {fix};
  return vf;
}

TEST(ConnectedComponents, UnionFindBasics) {
  auto labels = UnionFindConnectedComponents(5, {{0, 1}, {1, 2}, {3, 4}});
  EXPECT_EQ(labels.at(0), labels.at(1));
  EXPECT_EQ(labels.at(1), labels.at(2));
  EXPECT_EQ(labels.at(3), labels.at(4));
  EXPECT_NE(labels.at(0), labels.at(3));
  EXPECT_EQ(labels.at(0), 0u);
  EXPECT_EQ(labels.at(3), 3u);
}

TEST(ConnectedComponents, BspMatchesUnionFind) {
  // A chain (worst-case diameter), a star, and isolated nodes.
  const size_t num_nodes = 30;
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (uint64_t i = 9; i > 0; --i) edges.emplace_back(i, i - 1);  // Chain 0-9.
  for (uint64_t i = 11; i < 20; ++i) edges.emplace_back(10, i);   // Star.
  // 20..29 isolated.
  ExecutionContext ctx(4);
  auto bsp = BspConnectedComponents(&ctx, num_nodes, edges);
  auto uf = UnionFindConnectedComponents(num_nodes, edges);
  ASSERT_EQ(bsp.size(), uf.size());
  for (uint64_t node = 0; node < uf.size(); ++node) {
    EXPECT_EQ(bsp.at(node), uf[node]) << "node " << node;
  }
}

TEST(Hypergraph, GroupsEdgesByComponent) {
  std::vector<ViolationWithFixes> violations;
  violations.push_back(EqViolation(0, 1, 2, Value("a"), Value("b")));
  violations.push_back(EqViolation(1, 2, 2, Value("b"), Value("a")));
  violations.push_back(EqViolation(5, 6, 2, Value("x"), Value("y")));
  ViolationHypergraph graph(violations);
  EXPECT_EQ(graph.num_edges(), 3u);
  EXPECT_EQ(graph.num_nodes(), 5u);
  auto groups = graph.ConnectedComponentGroups();
  ASSERT_EQ(groups.size(), 2u);
  // First two violations share cell (1,2).
  EXPECT_EQ(groups[0].size(), 2u);
  EXPECT_EQ(groups[1].size(), 1u);

  // Interleaved components: groups come in ascending component-id order
  // (a component's id is its smallest node id) and list their hyperedges
  // in ascending order.
  std::vector<ViolationWithFixes> interleaved;
  interleaved.push_back(EqViolation(10, 11, 0, Value("a"), Value("b")));
  interleaved.push_back(EqViolation(20, 21, 0, Value("a"), Value("b")));
  interleaved.push_back(EqViolation(30, 31, 0, Value("a"), Value("b")));
  interleaved.push_back(EqViolation(31, 21, 0, Value("b"), Value("b")));
  interleaved.push_back(EqViolation(40, 10, 0, Value("a"), Value("a")));
  ViolationHypergraph mixed(interleaved);
  EXPECT_EQ(mixed.NodeOf(CellRef{10, 0}), 0u);
  EXPECT_EQ(mixed.NodeOf(CellRef{20, 0}), 2u);
  EXPECT_EQ(mixed.NodeOf(CellRef{40, 0}), 6u);
  auto mixed_groups = mixed.ConnectedComponentGroups();
  ASSERT_EQ(mixed_groups.size(), 2u);
  EXPECT_EQ(mixed_groups[0], (std::vector<size_t>{0, 4}));
  EXPECT_EQ(mixed_groups[1], (std::vector<size_t>{1, 2, 3}));

  // Node ids follow first appearance across enough distinct cells to grow
  // the cell table several times; every tenth cell repeats an earlier one.
  std::vector<ViolationWithFixes> wide;
  std::map<CellRef, uint64_t> first_seen;
  RowId next_row = 0;
  for (size_t v = 0; v < 200; ++v) {
    ViolationWithFixes vf;
    vf.violation.rule_name = "wide";
    for (size_t j = 0; j < 60; ++j) {
      const RowId row = j % 10 == 9 ? next_row / 2 : next_row++;
      const size_t col = static_cast<size_t>(row % 3);
      vf.violation.cells.push_back(MakeTestCell(row, col, Value("x")));
      first_seen.emplace(CellRef{row, col}, first_seen.size());
    }
    wide.push_back(std::move(vf));
  }
  ASSERT_GE(first_seen.size(), 10000u);
  ViolationHypergraph wide_graph(wide);
  ASSERT_EQ(wide_graph.num_nodes(), first_seen.size());
  for (const auto& [ref, id] : first_seen) {
    ASSERT_EQ(wide_graph.NodeOf(ref), id) << ref.ToString();
    ASSERT_EQ(wide_graph.cell(id), ref);
  }
}

TEST(EquivalenceClass, MajorityWins) {
  // Cells (0,2)="LA", (1,2)="LA", (2,2)="SF" all equated.
  std::vector<ViolationWithFixes> violations;
  violations.push_back(EqViolation(0, 2, 2, Value("LA"), Value("SF")));
  violations.push_back(EqViolation(1, 2, 2, Value("LA"), Value("SF")));
  std::vector<const ViolationWithFixes*> edges;
  for (const auto& v : violations) edges.push_back(&v);
  EquivalenceClassAlgorithm ec;
  auto assignments = ec.RepairComponent(edges);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].cell, (CellRef{2, 2}));
  EXPECT_EQ(assignments[0].value, Value("LA"));
}

TEST(EquivalenceClass, ConstantFixesVote) {
  std::vector<ViolationWithFixes> violations;
  ViolationWithFixes vf;
  Cell c = MakeTestCell(0, 1, Value("bad"));
  vf.violation.cells = {c};
  Fix f1;
  f1.left = c;
  f1.op = FixOp::kEq;
  f1.right = FixTerm::MakeConstant(Value("good"));
  Fix f2 = f1;  // Same constant proposed twice: must count once.
  vf.fixes = {f1, f2};
  violations.push_back(vf);
  // A second violation adds another vote for "good" from a different fix
  // on the same component via a linked cell.
  ViolationWithFixes vf2;
  Cell c2 = MakeTestCell(1, 1, Value("good"));
  vf2.violation.cells = {c, c2};
  Fix f3;
  f3.left = c;
  f3.op = FixOp::kEq;
  f3.right = FixTerm::MakeCell(c2);
  vf2.fixes = {f3};
  violations.push_back(vf2);

  std::vector<const ViolationWithFixes*> edges;
  for (const auto& v : violations) edges.push_back(&v);
  EquivalenceClassAlgorithm ec;
  auto assignments = ec.RepairComponent(edges);
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].cell, (CellRef{0, 1}));
  EXPECT_EQ(assignments[0].value, Value("good"));

  // Votes (cell A, 1) and (cell B, 0) are distinct and both count: with
  // A=5, B=7 and A=B, the class tallies 0, 1, 5 and 7 once each, and the
  // tie goes to the smallest value, 0.
  ViolationWithFixes swapped;
  Cell a = MakeTestCell(0, 0, Value(static_cast<int64_t>(5)));
  Cell b = MakeTestCell(1, 0, Value(static_cast<int64_t>(7)));
  swapped.violation.rule_name = "test";
  swapped.violation.cells = {a, b};
  Fix a_eq_b;
  a_eq_b.left = a;
  a_eq_b.op = FixOp::kEq;
  a_eq_b.right = FixTerm::MakeCell(b);
  Fix a_eq_1 = a_eq_b;
  a_eq_1.right = FixTerm::MakeConstant(Value(static_cast<int64_t>(1)));
  Fix b_eq_0 = a_eq_1;
  b_eq_0.left = b;
  b_eq_0.right = FixTerm::MakeConstant(Value(static_cast<int64_t>(0)));
  swapped.fixes = {a_eq_b, a_eq_1, b_eq_0};
  ExecutionContext ctx(2);
  for (const auto& result :
       {ec.RepairComponent({&swapped}),
        DistributedEquivalenceClassRepair(&ctx, {swapped})}) {
    ASSERT_EQ(result.size(), 2u);
    EXPECT_EQ(result[0].cell, a.ref);
    EXPECT_EQ(result[1].cell, b.ref);
    for (const auto& assignment : result) {
      EXPECT_EQ(assignment.value, Value(static_cast<int64_t>(0)));
    }
  }
}

TEST(EquivalenceClass, DistributedMatchesCentralized) {
  // Several components with clear majorities.
  std::vector<ViolationWithFixes> violations;
  violations.push_back(EqViolation(0, 1, 2, Value("NY"), Value("XX")));
  violations.push_back(EqViolation(0, 2, 2, Value("NY"), Value("NY")));
  violations.push_back(EqViolation(10, 11, 3, Value("CA"), Value("YY")));
  violations.push_back(EqViolation(10, 12, 3, Value("CA"), Value("CA")));

  EquivalenceClassAlgorithm ec;
  ExecutionContext ctx(3);
  BlackBoxOptions options;
  auto parallel = BlackBoxRepair(&ctx, violations, ec, options);
  auto distributed = DistributedEquivalenceClassRepair(&ctx, violations);

  auto sort_assignments = [](std::vector<CellAssignment> v) {
    std::sort(v.begin(), v.end(),
              [](const CellAssignment& a, const CellAssignment& b) {
                return a.cell < b.cell;
              });
    return v;
  };
  EXPECT_EQ(sort_assignments(parallel.applied),
            sort_assignments(distributed));
  EXPECT_EQ(parallel.num_components, 2u);
}

TEST(HypergraphRepair, ResolvesInequalityViolation) {
  // Violation: t0.rate(=20) > t1.rate(=10) while t0.salary < t1.salary.
  // Fixes: t0.rate <= t1.rate OR t0.salary >= t1.salary.
  ViolationWithFixes vf;
  Cell rate0 = MakeTestCell(0, 5, Value(static_cast<int64_t>(20)));
  Cell rate1 = MakeTestCell(1, 5, Value(static_cast<int64_t>(10)));
  Cell sal0 = MakeTestCell(0, 4, Value(static_cast<int64_t>(100)));
  Cell sal1 = MakeTestCell(1, 4, Value(static_cast<int64_t>(200)));
  vf.violation.cells = {rate0, rate1, sal0, sal1};
  Fix f1;
  f1.left = rate0;
  f1.op = FixOp::kLeq;
  f1.right = FixTerm::MakeCell(rate1);
  Fix f2;
  f2.left = sal0;
  f2.op = FixOp::kGeq;
  f2.right = FixTerm::MakeCell(sal1);
  vf.fixes = {f1, f2};

  HypergraphRepairAlgorithm hg;
  auto assignments = hg.RepairComponent({&vf});
  ASSERT_FALSE(assignments.empty());
  // Verify the assignment actually resolves the violation.
  std::unordered_map<CellRef, Value, CellRefHash> values = {
      {rate0.ref, rate0.value},
      {rate1.ref, rate1.value},
      {sal0.ref, sal0.value},
      {sal1.ref, sal1.value}};
  for (const auto& a : assignments) values[a.cell] = a.value;
  bool resolved = values[rate0.ref] <= values[rate1.ref] ||
                  values[sal0.ref] >= values[sal1.ref];
  EXPECT_TRUE(resolved);
}

TEST(Partitioner, BalancedAndComplete) {
  std::vector<std::vector<uint64_t>> edges;
  for (uint64_t i = 0; i < 100; ++i) {
    edges.push_back({i, i + 1, i + 2});
  }
  auto assignment = GreedyKWayPartition(edges, 4);
  ASSERT_EQ(assignment.size(), edges.size());
  std::vector<size_t> load(4, 0);
  for (size_t p : assignment) {
    ASSERT_LT(p, 4u);
    ++load[p];
  }
  for (size_t l : load) {
    EXPECT_GT(l, 0u);
    EXPECT_LT(l, 60u);  // No part hogs everything.
  }
  EXPECT_GT(CountCutNodes(edges, assignment), 0u);  // A chain must be cut.
  // Connectivity heuristic keeps the cut modest: at most one boundary per
  // part transition region (2 shared nodes each).
  EXPECT_LT(CountCutNodes(edges, assignment), 40u);
}

TEST(BlackBox, SplitComponentProtocolUndoesConflicts) {
  // One big chain component forced to split: cells 0..N linked by eq fixes.
  std::vector<ViolationWithFixes> violations;
  for (RowId i = 0; i < 40; ++i) {
    violations.push_back(
        EqViolation(i, i + 1, 0, Value("v" + std::to_string(i % 3)),
                    Value("v" + std::to_string((i + 1) % 3))));
  }
  EquivalenceClassAlgorithm ec;
  ExecutionContext ctx(4);
  BlackBoxOptions options;
  options.max_component_edges = 10;  // Force the k-way split.
  options.kway_parts = 4;
  auto result = BlackBoxRepair(&ctx, violations, ec, options);
  EXPECT_EQ(result.num_components, 1u);
  EXPECT_EQ(result.num_split_components, 1u);
  EXPECT_FALSE(result.applied.empty());
  // No applied assignment may target the same cell twice (master immunity).
  std::set<std::pair<RowId, size_t>> cells;
  for (const auto& a : result.applied) {
    EXPECT_TRUE(cells.insert({a.cell.row_id, a.cell.column}).second)
        << "cell repaired twice: " << a.cell.ToString();
  }
}

/// The black-box scheme written as a plain loop over the components in
/// component order: one repair per component, the master/slave protocol
/// for components over `max_component_edges`, and each assignment
/// attributed to the first hyperedge of its component whose fixes mention
/// the assigned cell.
RepairPassResult PerComponentReference(
    const std::vector<ViolationWithFixes>& violations,
    const RepairAlgorithm& algorithm, const BlackBoxOptions& options) {
  ViolationHypergraph graph(violations);
  const auto groups = graph.ConnectedComponentGroups();
  RepairPassResult ref;
  ref.num_components = groups.size();
  for (size_t g = 0; g < groups.size(); ++g) {
    std::vector<CellAssignment> assignments;
    if (groups[g].size() > options.max_component_edges) {
      ++ref.num_split_components;
      std::vector<std::vector<uint64_t>> edge_nodes;
      for (size_t e : groups[g]) {
        edge_nodes.emplace_back(graph.edge_nodes(e).begin(),
                                graph.edge_nodes(e).end());
      }
      auto part_of = GreedyKWayPartition(edge_nodes, options.kway_parts);
      const size_t k = 1 + *std::max_element(part_of.begin(), part_of.end());
      std::vector<std::vector<const ViolationWithFixes*>> parts(k);
      for (size_t i = 0; i < groups[g].size(); ++i) {
        parts[part_of[i]].push_back(&graph.edge(groups[g][i]));
      }
      assignments = algorithm.RepairComponent(parts[0]);
      std::set<CellRef> immutable;
      for (const auto& a : assignments) immutable.insert(a.cell);
      for (size_t p = 1; p < k; ++p) {
        for (const auto& a : algorithm.RepairComponent(parts[p])) {
          if (immutable.insert(a.cell).second) {
            assignments.push_back(a);
          } else {
            ++ref.num_undone;
          }
        }
      }
    } else {
      std::vector<const ViolationWithFixes*> edges;
      for (size_t e : groups[g]) edges.push_back(&graph.edge(e));
      assignments = algorithm.RepairComponent(edges);
    }
    for (const auto& a : assignments) {
      auto mentions = [&](size_t i) {
        const auto& fixes = graph.edge(groups[g][i]).fixes;
        return std::any_of(fixes.begin(), fixes.end(), [&](const Fix& f) {
          return f.left.ref == a.cell ||
                 (f.right.is_cell && f.right.cell.ref == a.cell);
        });
      };
      size_t owner = 0;
      while (owner < groups[g].size() && !mentions(owner)) ++owner;
      if (owner == groups[g].size()) owner = 0;
      FixProvenance p;
      p.rule = graph.edge(groups[g][owner]).violation.rule_name;
      p.violation_id = groups[g][owner];
      p.component = g;
      p.strategy = algorithm.name();
      ref.provenance.push_back(p);
      ref.applied.push_back(a);
    }
  }
  return ref;
}

TEST(BlackBox, PackedTasksMatchPerComponentReference) {
  // 300 small components of 1-3 chained edges, a 300-edge chain that is
  // large enough to run alone, and a 400-edge component over
  // max_component_edges (a chain plus chords, so the k-way split cuts many
  // cells) that takes the split protocol. Their edges are interleaved so
  // components are not contiguous in the input.
  std::vector<std::vector<ViolationWithFixes>> components;
  RowId base = 0;
  auto link = [](RowId a, RowId b, size_t col) {
    return EqViolation(a, b, col, Value("v" + std::to_string(a % 3)),
                       Value("v" + std::to_string(b % 3)));
  };
  auto chain = [&](RowId edges, size_t col, bool chords) {
    std::vector<ViolationWithFixes> out;
    for (RowId i = 0; i < edges; ++i) {
      out.push_back(link(base + i, base + i + 1, col));
      const RowId chord = (i * 37 + 11) % (edges + 1);
      if (chords && chord != i) {
        out.push_back(link(base + i, base + chord, col));
      }
    }
    base += edges + 1;
    return out;
  };
  for (size_t c = 0; c < 300; ++c) {
    components.push_back(chain(1 + c % 3, c % 2, /*chords=*/false));
  }
  components.push_back(chain(300, 0, /*chords=*/false));
  components.push_back(chain(200, 1, /*chords=*/true));
  std::vector<ViolationWithFixes> violations;
  for (size_t i = 0; i < 400; ++i) {
    for (const auto& component : components) {
      if (i < component.size()) violations.push_back(component[i]);
    }
  }
  BlackBoxOptions options;
  options.max_component_edges = 350;

  // Lineage on (so provenance is compared too) and faults off again when
  // the test ends, however it ends.
  struct Guard {
    Guard() { LineageRecorder::Instance().set_enabled(true); }
    ~Guard() {
      LineageRecorder::Instance().set_enabled(false);
      FaultInjector::Instance().Clear();
    }
  } guard;
  EquivalenceClassAlgorithm ec;
  const RepairPassResult ref = PerComponentReference(violations, ec, options);
  ASSERT_EQ(ref.num_components, 302u);
  ASSERT_EQ(ref.num_split_components, 1u);
  ASSERT_GT(ref.num_undone, 0u);
  auto expect_matches = [&](const RepairPassResult& got) {
    EXPECT_EQ(got.applied, ref.applied);
    EXPECT_EQ(got.num_components, ref.num_components);
    EXPECT_EQ(got.num_split_components, ref.num_split_components);
    EXPECT_EQ(got.num_undone, ref.num_undone);
    ASSERT_EQ(got.provenance.size(), ref.provenance.size());
    for (size_t i = 0; i < ref.provenance.size(); ++i) {
      EXPECT_EQ(got.provenance[i].rule, ref.provenance[i].rule);
      EXPECT_EQ(got.provenance[i].violation_id,
                ref.provenance[i].violation_id);
      EXPECT_EQ(got.provenance[i].component, ref.provenance[i].component);
      EXPECT_EQ(got.provenance[i].strategy, ref.provenance[i].strategy);
    }
  };
  for (size_t workers : {1, 4}) {
    ExecutionContext ctx(workers);
    expect_matches(BlackBoxRepair(&ctx, violations, ec, options));
  }

  // Retried tasks reproduce their outcomes: the same result under injected
  // task failures, with the retry budget deepened so a 0.3 fault rate
  // cannot plausibly exhaust it.
  FaultInjector& injector = FaultInjector::Instance();
  FaultPolicy policy;
  policy.max_attempts = 10;
  policy.stage_retry_budget = 4096;
  size_t injected = 0;
  for (uint64_t seed : {1, 2, 3}) {
    ASSERT_TRUE(
        injector.Configure("stage=repair:components,kind=throw,prob=0.3", seed)
            .ok());
    ExecutionContext ctx(4);
    ScopedFaultPolicy scoped(&ctx, policy);
    expect_matches(BlackBoxRepair(&ctx, violations, ec, options));
    injected += injector.injected_total();
  }
  EXPECT_GT(injected, 0u);
}

TEST(BlackBox, BspAndUnionFindComponentsAgree) {
  std::vector<ViolationWithFixes> violations;
  violations.push_back(EqViolation(0, 1, 2, Value("a"), Value("b")));
  violations.push_back(EqViolation(2, 3, 2, Value("c"), Value("d")));
  violations.push_back(EqViolation(3, 4, 2, Value("d"), Value("c")));
  EquivalenceClassAlgorithm ec;
  ExecutionContext ctx(2);
  BlackBoxOptions uf_options;
  BlackBoxOptions bsp_options;
  bsp_options.use_bsp_connected_components = true;
  auto a = BlackBoxRepair(&ctx, violations, ec, uf_options);
  auto b = BlackBoxRepair(&ctx, violations, ec, bsp_options);
  EXPECT_EQ(a.num_components, b.num_components);
  auto key = [](std::vector<CellAssignment> v) {
    std::sort(v.begin(), v.end(),
              [](const CellAssignment& x, const CellAssignment& y) {
                return x.cell < y.cell;
              });
    return v;
  };
  EXPECT_EQ(key(a.applied), key(b.applied));
}

TEST(CleanEndToEnd, FdRepairReachesCleanInstance) {
  // 90210 block: LA, LA, LA, SF — majority repairs SF to LA.
  const char* csv =
      "zipcode,city\n"
      "90210,LA\n"
      "90210,LA\n"
      "90210,LA\n"
      "90210,SF\n"
      "10011,NY\n";
  auto table = ReadCsvString(csv, CsvOptions{});
  ASSERT_TRUE(table.ok());
  auto rule = ParseRule("fd: FD: zipcode -> city");
  ASSERT_TRUE(rule.ok());
  ExecutionContext ctx(2);
  BigDansing system(&ctx);
  Table working = *table;
  auto report = system.Clean(&working, {*rule});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->converged);
  EXPECT_EQ(working.row(3).value(1), Value("LA"));
  // Final state has no violations.
  RuleEngine engine(&ctx);
  auto final_check = engine.Detect(working, *rule);
  ASSERT_TRUE(final_check.ok());
  EXPECT_TRUE(final_check->violations.empty());
}

TEST(CleanEndToEnd, DistributedEcModeMatchesBlackBox) {
  const char* csv =
      "zipcode,city\n"
      "90210,LA\n"
      "90210,LA\n"
      "90210,SF\n"
      "60601,CH\n"
      "60601,CH\n"
      "60601,XX\n";
  auto table = ReadCsvString(csv, CsvOptions{});
  ASSERT_TRUE(table.ok());
  ExecutionContext ctx(2);
  auto rule = *ParseRule("fd: FD: zipcode -> city");

  Table a = *table;
  CleanOptions opt_a;
  BigDansing(&ctx, opt_a).Clean(&a, {rule});

  Table b = *table;
  CleanOptions opt_b;
  opt_b.repair_mode = RepairMode::kDistributedEquivalenceClass;
  BigDansing(&ctx, opt_b).Clean(&b, {rule});

  EXPECT_EQ(a, b);
  EXPECT_EQ(a.row(2).value(1), Value("LA"));
  EXPECT_EQ(a.row(5).value(1), Value("CH"));
}

TEST(Quality, PrecisionRecallComputation) {
  auto dirty = ReadCsvString("a,b\n1,x\n2,y\n3,z\n", CsvOptions{});
  auto truth = ReadCsvString("a,b\n1,X\n2,Y\n3,z\n", CsvOptions{});
  // Repair fixes row 0 correctly, row 1 wrongly, and touches row 2
  // needlessly.
  auto repaired = ReadCsvString("a,b\n1,X\n2,W\n3,q\n", CsvOptions{});
  ASSERT_TRUE(dirty.ok() && truth.ok() && repaired.ok());
  auto q = EvaluateRepair(*dirty, *repaired, *truth);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->errors, 2u);
  EXPECT_EQ(q->updates, 3u);
  EXPECT_EQ(q->correct_updates, 1u);
  EXPECT_NEAR(q->precision, 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(q->recall, 0.5, 1e-9);
}

}  // namespace
}  // namespace bigdansing
