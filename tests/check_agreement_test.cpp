// Agreement between mvcheck's fusability report and the fused engine's
// runtime, on plan shapes built to sit exactly on the acceptance
// boundaries: OR/NOT predicates, bool comparisons, shared interior DAG
// nodes, degenerate literal predicates, pure-projection chains, selects
// over aggregates. The report is the engine's own detector, so the
// verdict checks are same-code checks; the refusal texts are pinned here
// because they are what mvcheck users read. The engine-equivalence fuzzer
// covers the common shapes; this file covers the refusal edges, plus a
// fuzzer of its own so every boundary is crossed many times per run.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <set>

#include "src/check/check.hpp"
#include "src/common/error.hpp"
#include "src/exec/executor.hpp"
#include "src/exec/fused.hpp"
#include "src/exec/sharded.hpp"
#include "src/storage/sharded_table.hpp"

namespace mvd {
namespace {

/// Node-by-node verdict equality between mvcheck's predict_fused_chain
/// and the engine's detect_fused_chain, plus shape equality for accepted
/// chains.
void expect_verdicts_agree(const PlanPtr& plan) {
  const auto uses = plan_use_counts(plan);
  std::set<const LogicalOp*> seen;
  std::function<void(const PlanPtr&)> walk = [&](const PlanPtr& node) {
    if (!seen.insert(node.get()).second) return;
    for (const PlanPtr& child : node->children()) walk(child);
    const FusePrediction pred = predict_fused_chain(node, uses);
    const std::optional<FusedChain> chain = detect_fused_chain(node, uses);
    ASSERT_EQ(pred.fusable, chain.has_value())
        << node->label() << ": static said '"
        << (pred.fusable ? "fusable" : pred.refusal) << "', runtime "
        << (chain.has_value() ? "compiled a chain" : "refused");
    if (chain.has_value()) {
      EXPECT_EQ(pred.source.get(), chain->source.get());
      EXPECT_EQ(pred.stage_count, chain->stages.size());
      EXPECT_EQ(pred.select_count, chain->select_count);
      EXPECT_TRUE(pred.out_schema == chain->out_schema);
    }
  };
  walk(plan);
}

class CheckAgreementTest : public ::testing::Test {
 protected:
  CheckAgreementTest() {
    Table t(Schema({{"a", ValueType::kInt64, ""},
                    {"b", ValueType::kDouble, ""},
                    {"s", ValueType::kString, ""},
                    {"flag", ValueType::kBool, ""}}),
            10.0);
    std::mt19937 rng(7);
    const char* words[] = {"x", "y", "z"};
    for (int i = 0; i < 500; ++i) {
      t.append({Value::int64(static_cast<std::int64_t>(rng() % 40)),
                Value::real(static_cast<double>(rng() % 100) / 10.0 - 5.0),
                Value::string(words[rng() % 3]),
                Value::boolean(rng() % 2 == 0)});
    }
    db_.add_table("T", std::move(t));
    Table d(Schema({{"key", ValueType::kInt64, ""},
                    {"w", ValueType::kDouble, ""}}),
            10.0);
    for (int i = 0; i < 60; ++i) {
      d.append({Value::int64(i % 40), Value::real(i * 0.25)});
    }
    db_.add_table("D", std::move(d));
    for (const char* name : {"T", "D"}) {
      catalog_.add_relation(name, db_.table(name).schema(),
                            db_.table(name).compute_stats());
    }
  }

  PlanPtr scan_t() const { return make_scan(catalog_, "T"); }

  Database db_;
  Catalog catalog_{10.0};
};

TEST_F(CheckAgreementTest, RefusalEdges) {
  // Each plan sits on one acceptance boundary of the fused-chain
  // detector; agreement must hold on both sides of every edge.
  const std::vector<PlanPtr> plans = {
      // Fusable: typed comparisons over a scan.
      make_select(scan_t(), conj({gt(col("T.a"), lit_i64(10)),
                                  lt(col("T.b"), lit_real(2.0))})),
      // OR predicate: refused.
      make_select(scan_t(), disj({gt(col("T.a"), lit_i64(10)),
                                  lt(col("T.b"), lit_real(0.0))})),
      // NOT predicate: refused.
      make_select(scan_t(), neg(gt(col("T.a"), lit_i64(10)))),
      // Bool column comparison: interpreted fallback.
      make_select(scan_t(), eq(col("T.flag"), lit(Value::boolean(true)))),
      // Mixed int/double column-column comparison: both numeric, fusable.
      make_select(scan_t(), lt(col("T.b"), col("T.a"))),
      // String comparisons, both operand shapes.
      make_select(scan_t(), conj({eq(col("T.s"), lit_str("x")),
                                  cmp(CompareOp::kNe, col("T.s"),
                                      col("T.s"))})),
      // Literal-only predicate: degenerate, refused.
      make_select(scan_t(), lit(Value::boolean(true))),
      // Pure-projection chain: no select, nothing to fuse.
      make_project(make_project(scan_t(), {"T.a", "T.b", "T.s"}),
                   {"T.a", "T.b"}),
      // Project over select over project: fusable as one chain.
      make_project(
          make_select(make_project(scan_t(), {"T.a", "T.b"}),
                      gt(col("T.a"), lit_i64(5))),
          {"T.b"}),
      // Select directly over an aggregate: chain source is the aggregate.
      make_select(
          make_aggregate(scan_t(), {"T.a"}, {AggSpec{AggFn::kCount, "", "n"}}),
          gt(col("n"), lit_i64(3))),
  };
  for (const PlanPtr& plan : plans) {
    SCOPED_TRACE(plan_tree_string(plan));
    expect_verdicts_agree(plan);
  }
}

TEST_F(CheckAgreementTest, RefusalReasonsArePinned) {
  // One row per boundary shape: the segment check_plan reports for
  // `head`, with the exact refusal text mvcheck prints (empty = fused)
  // and the stage count of the accepted chain.
  const ExprPtr or_pred = disj({gt(col("T.a"), lit_i64(10)),
                                lt(col("T.b"), lit_real(0.0))});
  const ExprPtr not_pred = neg(gt(col("T.a"), lit_i64(10)));
  const ExprPtr bool_pred = eq(col("T.flag"), lit(Value::boolean(true)));
  const ExprPtr mixed_pred = eq(col("T.s"), col("T.a"));
  const std::string interpreted =
      " (OR/NOT/literal predicates run interpreted)";

  // A select shared by two parents: the project→select chain above it
  // stops there (two stages, not three) and it heads its own chain.
  const PlanPtr shared = make_select(scan_t(), gt(col("T.a"), lit_i64(5)));
  const PlanPtr above_shared = make_project(
      make_select(shared, lt(col("T.b"), lit_real(1.0))), {"T.a", "T.b"});
  const PlanPtr shared_root = make_join(
      above_shared,
      make_aggregate(shared, {"T.s"}, {AggSpec{AggFn::kCount, "", "n"}}),
      lit(Value::boolean(true)));

  const PlanPtr pure_projection =
      make_project(make_project(scan_t(), {"T.a", "T.b", "T.s"}),
                   {"T.a", "T.b"});
  const PlanPtr over_aggregate = make_select(
      make_aggregate(scan_t(), {"T.a"}, {AggSpec{AggFn::kCount, "", "n"}}),
      gt(col("n"), lit_i64(3)));
  const PlanPtr literal_left =
      make_select(scan_t(), lt(lit_i64(10), col("T.a")));

  struct Row {
    const char* shape;
    PlanPtr root;
    PlanPtr head;
    std::string refusal;
    std::size_t stages;
  };
  const PlanPtr or_plan = make_select(scan_t(), or_pred);
  const PlanPtr not_plan = make_select(scan_t(), not_pred);
  const PlanPtr bool_plan = make_select(scan_t(), bool_pred);
  const PlanPtr mixed_plan = make_select(scan_t(), mixed_pred);
  const std::vector<Row> rows = {
      {"OR", or_plan, or_plan,
       "non-comparison conjunct " + or_pred->to_string() + interpreted, 0},
      {"NOT", not_plan, not_plan,
       "non-comparison conjunct " + not_pred->to_string() + interpreted, 0},
      {"bool comparison", bool_plan, bool_plan,
       "mixed-type or boolean comparison " + bool_pred->to_string(), 0},
      {"mixed-type comparison", mixed_plan, mixed_plan,
       "mixed-type or boolean comparison " + mixed_pred->to_string(), 0},
      {"shared interior node", shared_root, above_shared, "", 2},
      {"shared node heads its own chain", shared_root, shared, "", 1},
      {"pure projection chain", pure_projection, pure_projection,
       "pure projection chain (already free interpreted)", 0},
      {"select over aggregate", over_aggregate, over_aggregate, "", 1},
      {"literal on the left", literal_left, literal_left, "", 1},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.shape);
    const CheckReport report = check_plan(row.root);
    const auto seg = std::find_if(
        report.segments.begin(), report.segments.end(),
        [&](const ChainSegment& s) { return s.head == row.head.get(); });
    ASSERT_NE(seg, report.segments.end());
    EXPECT_EQ(seg->prediction.refusal, row.refusal);
    EXPECT_EQ(seg->prediction.fusable, row.refusal.empty());
    EXPECT_EQ(seg->prediction.stage_count, row.stages);
  }
}

TEST_F(CheckAgreementTest, CorruptedProjectionIsRefusedNotThrown) {
  // A projection naming a column its input dropped (mvcheck's
  // projection-of-dropped-column mutation) under a select. Detection
  // refuses the chain instead of throwing; execution still raises the
  // BindError on every engine.
  const PlanPtr keep_a = make_project(scan_t(), {"T.a"});
  const PlanPtr corrupted = std::make_shared<ProjectOp>(
      keep_a, Schema({Attribute{"b", ValueType::kDouble, "T"}}),
      std::vector<std::string>{"T.b"});
  const PlanPtr plan = make_select(corrupted, gt(col("T.b"), lit_real(0.0)));

  CheckReport report;
  ASSERT_NO_THROW(report = check_plan(plan));
  ASSERT_FALSE(report.segments.empty());
  EXPECT_EQ(report.segments.front().head, plan.get());
  EXPECT_FALSE(report.segments.front().prediction.fusable);
  EXPECT_EQ(report.segments.front().prediction.refusal,
            "projection references 'T.b' absent from the chain");

  for (const ExecMode mode :
       {ExecMode::kRow, ExecMode::kVectorized, ExecMode::kFused}) {
    SCOPED_TRACE(exec_mode_name(mode));
    EXPECT_THROW(Executor(db_, mode).run(plan), BindError);
  }
}

TEST_F(CheckAgreementTest, SharedInteriorNodesBreakChains) {
  // A select shared by two parents executes once (the engines memoize);
  // fusing through it would re-run it per chain, so both the detector
  // and the prediction must handle it identically. The two branches
  // project/aggregate to disjoint schemas so the joining root is legal.
  const PlanPtr shared = make_select(scan_t(), gt(col("T.a"), lit_i64(5)));
  const PlanPtr rows = make_project(shared, {"T.a", "T.b"});
  const PlanPtr counts = make_aggregate(shared, {"T.s"},
                                        {AggSpec{AggFn::kCount, "", "n"}});
  const PlanPtr top = make_join(rows, counts, lit(Value::boolean(true)));
  expect_verdicts_agree(top);

  // Rooted alone the same select fuses; its verdict under the shared DAG
  // is whatever the runtime detector says — asserted equal above.
  EXPECT_TRUE(predict_fused_chain(shared, plan_use_counts(shared)).fusable);
}

TEST_F(CheckAgreementTest, FuzzedBoundaryChains) {
  // 60 random plans biased toward the refusal edges: every conjunct
  // shape above appears with equal probability, chains are 1-5 deep,
  // half the plans share a subtree through a self-join.
  std::mt19937 rng(20260807);
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  auto any_op = [&] { return ops[rng() % 6]; };
  auto conjunct = [&]() -> ExprPtr {
    switch (rng() % 8) {
      case 0:
        return cmp(any_op(), col("T.a"), lit_i64(rng() % 40));
      case 1:
        return cmp(any_op(), col("T.b"), lit_real(rng() % 10 - 5.0));
      case 2:
        return cmp(any_op(), col("T.s"), lit_str("y"));
      case 3:
        return cmp(any_op(), col("T.b"), col("T.a"));  // mixed types
      case 4:
        return eq(col("T.flag"), lit(Value::boolean(rng() % 2 == 0)));
      case 5:
        return disj({gt(col("T.a"), lit_i64(rng() % 40)),
                     lt(col("T.a"), lit_i64(rng() % 10))});
      case 6:
        return neg(eq(col("T.s"), lit_str("x")));
      default:
        return lit(Value::boolean(rng() % 2 == 0));
    }
  };
  for (int iter = 0; iter < 60; ++iter) {
    SCOPED_TRACE("fuzz iteration " + std::to_string(iter));
    PlanPtr plan = scan_t();
    std::vector<std::string> live = {"T.a", "T.b", "T.s", "T.flag"};
    const int depth = 1 + static_cast<int>(rng() % 5);
    for (int i = 0; i < depth; ++i) {
      if (rng() % 4 == 0 && live.size() > 2) {
        live.resize(live.size() - 1);
        plan = make_project(plan, live);
      } else {
        std::vector<ExprPtr> cs;
        const int nc = 1 + static_cast<int>(rng() % 3);
        for (int c = 0; c < nc; ++c) {
          ExprPtr e = conjunct();
          // Retry conjuncts over dropped columns; literals always bind.
          const std::set<std::string> cols = columns_of(e);
          const bool ok = std::all_of(
              cols.begin(), cols.end(), [&](const std::string& name) {
                return std::find(live.begin(), live.end(), name) !=
                       live.end();
              });
          if (ok) cs.push_back(std::move(e));
        }
        if (cs.empty()) cs.push_back(lit(Value::boolean(true)));
        plan = make_select(plan, conj(std::move(cs)));
      }
    }
    if (rng() % 2 == 0) {
      plan = make_join(plan, make_scan(catalog_, "D"),
                       eq(col("T.a"), col("D.key")));
      plan = make_select(plan, cmp(any_op(), col("D.w"), lit_real(3.0)));
    }
    expect_verdicts_agree(plan);
  }
}

TEST_F(CheckAgreementTest, CardinalityBoundsHoldAcrossEngines) {
  const std::vector<PlanPtr> plans = {
      make_select(scan_t(), gt(col("T.a"), lit_i64(20))),
      make_join(make_select(scan_t(), lt(col("T.a"), lit_i64(30))),
                make_scan(catalog_, "D"), eq(col("T.a"), col("D.key"))),
      make_aggregate(scan_t(), {"T.s"}, {AggSpec{AggFn::kCount, "", "n"},
                                         AggSpec{AggFn::kSum, "T.b", "sb"}}),
      make_aggregate(scan_t(), {}, {AggSpec{AggFn::kCount, "", "n"}}),
  };
  CheckOptions opts;
  opts.database = &db_;
  for (const PlanPtr& plan : plans) {
    SCOPED_TRACE(plan_tree_string(plan));
    const CheckReport report = check_plan(plan, opts);
    EXPECT_TRUE(report.ok()) << report.render_text();
    for (const ExecMode mode :
         {ExecMode::kRow, ExecMode::kVectorized, ExecMode::kFused}) {
      ExecStats stats;
      Executor(db_, mode).run(plan, &stats);
      for (const auto& [label, rows] : stats.rows_out) {
        const auto bounds = report.card_of(label);
        ASSERT_TRUE(bounds.has_value()) << label;
        EXPECT_TRUE(bounds->contains(rows))
            << label << ": " << rows << " outside [" << bounds->lo << ", "
            << bounds->hi << "]";
      }
    }
  }
}

TEST_F(CheckAgreementTest, CardinalityBoundsHoldUnderShardedExecution) {
  // mvcheck's CardIntervals are derived for single-site plans; sharded
  // execution must not escape them. Two levels are checked per plan:
  //
  //   final merge    the coordinator result row count sits inside the
  //                  root's static bounds, and for aggregate spines the
  //                  merged group count sits inside the aggregate's;
  //   partials       a bucket sees a subset of the input, so its partial
  //                  group count cannot exceed the whole input's upper
  //                  bound — a shard owning k buckets ships at most
  //                  k x hi partial rows, and all shards together at
  //                  least the merged row count.
  const PlanPtr grouped = make_aggregate(
      scan_t(), {"T.s"},
      {AggSpec{AggFn::kCount, "", "n"}, AggSpec{AggFn::kSum, "T.b", "sb"}});
  struct Case {
    PlanPtr plan;
    bool expect_partials;
  };
  const std::vector<Case> cases = {
      {grouped, true},                                             // root agg
      {make_select(grouped, gt(col("n"), lit_i64(0))), true},      // interior
      {make_aggregate(scan_t(), {}, {AggSpec{AggFn::kCount, "", "n"}}), true},
      {make_join(make_select(scan_t(), lt(col("T.a"), lit_i64(30))),
                 make_scan(catalog_, "D"), eq(col("T.a"), col("D.key"))),
       false},
  };
  CheckOptions opts;
  opts.database = &db_;
  for (const Case& c : cases) {
    SCOPED_TRACE(plan_tree_string(c.plan));
    const CheckReport report = check_plan(c.plan, opts);
    EXPECT_TRUE(report.ok()) << report.render_text();

    ShardedDatabase sdb = shard_database(db_, 4, {{"T", "a"}});
    ExecStats stats;
    const Table out = ShardedExecutor(sdb).run(c.plan, &stats);

    const auto root = report.card_of(c.plan->label());
    ASSERT_TRUE(root.has_value());
    EXPECT_TRUE(root->contains(static_cast<double>(out.row_count())))
        << out.row_count() << " outside [" << root->lo << ", " << root->hi
        << "]";

    bool saw_partials = false;
    for (const auto& [label, total] : stats.rows_out) {
      if (label.rfind("partial(", 0) != 0) continue;
      saw_partials = true;
      const std::string inner = label.substr(8, label.size() - 9);
      const auto bounds = report.card_of(inner);
      ASSERT_TRUE(bounds.has_value()) << inner;
      const auto merged = stats.rows_out.find(inner);
      ASSERT_NE(merged, stats.rows_out.end()) << inner;
      EXPECT_TRUE(bounds->contains(merged->second))
          << inner << ": merged " << merged->second << " outside ["
          << bounds->lo << ", " << bounds->hi << "]";

      ASSERT_EQ(stats.per_shard.size(), sdb.shards());
      double partial_total = 0;
      for (std::size_t s = 0; s < stats.per_shard.size(); ++s) {
        const auto it = stats.per_shard[s].rows_out.find(label);
        if (it == stats.per_shard[s].rows_out.end()) continue;
        const auto [b0, b1] = sdb.bucket_range(s);
        EXPECT_LE(it->second, bounds->hi * static_cast<double>(b1 - b0))
            << label << " on shard " << s;
        partial_total += it->second;
      }
      EXPECT_DOUBLE_EQ(partial_total, total) << label;
      EXPECT_GE(partial_total, merged->second) << label;
    }
    EXPECT_EQ(saw_partials, c.expect_partials);
  }
}

}  // namespace
}  // namespace mvd
