// mvserve tests: view-subsumption matching and compensation synthesis
// (src/optimizer/view_rewrite), the deployed-view registry lifecycle
// (VALID / STALE / BUILDING gating the matcher), MvServer's serve /
// ingest / refresh protocol, writers' table sharing across epochs, and
// the snapshot-swap concurrency contract (MvserveTsanTest, also run
// under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/hash.hpp"
#include "src/common/random.hpp"
#include "src/check/implication.hpp"
#include "src/lint/registry.hpp"
#include "src/serve/server.hpp"
#include "src/sql/parser.hpp"
#include "src/warehouse/designer.hpp"
#include "src/workload/paper_example.hpp"

namespace mvd {
namespace {

WarehouseDesigner paper_designer() {
  DesignerOptions options;
  options.cost = paper_cost_config();
  WarehouseDesigner designer(make_paper_catalog(), options);
  for (const QuerySpec& q : make_paper_example().queries) {
    designer.add_query(q);
  }
  return designer;
}

/// Force-materialize every query's result node, so each registered query
/// has a covering view — deterministic fixtures for the matcher and the
/// lifecycle tests regardless of what the selection heuristic picks.
DesignResult forced_design(const WarehouseDesigner& designer) {
  DesignResult design = designer.design();
  MaterializedSet m;
  const MvppGraph& g = design.graph();
  for (const NodeId q : g.query_ids()) {
    m.insert(g.node(q).children[0]);
  }
  design.selection.materialized = std::move(m);
  return design;
}

/// A view summarized from a SQL definition's canonical plan.
ViewDef view_from_sql(const Catalog& c, const std::string& name,
                      const std::string& sql) {
  const QuerySpec spec = parse_and_bind(c, name, 1.0, sql);
  return extract_view_def(name, canonical_plan(c, spec), 100.0);
}

/// Order-independent digest of a table's bag of rows: the wrapping sum of
/// per-row hashes, mixed with the row count.
std::uint64_t bag_digest(const Table& t) {
  std::uint64_t sum = 0;
  for (const Tuple& row : t.rows()) {
    std::size_t h = 0;
    for (const Value& v : row) hash_combine(h, v);
    sum += h;
  }
  std::size_t out = sum;
  hash_combine(out, t.row_count());
  return out;
}

/// bag_digest of every table of `db`, by name.
std::map<std::string, std::uint64_t> digests_of(const Database& db) {
  std::map<std::string, std::uint64_t> out;
  for (const std::string& name : db.table_names()) {
    out.emplace(name, bag_digest(db.table(name)));
  }
  return out;
}

// ---- Matching & compensation ----------------------------------------------

class ViewMatchTest : public ::testing::Test {
 protected:
  ViewMatchTest() : catalog_(make_paper_catalog()) {}

  QuerySpec query(const std::string& sql) const {
    return parse_adhoc(catalog_, sql);
  }

  Catalog catalog_;
};

TEST_F(ViewMatchTest, ExactMatchHasEmptyResidual) {
  const ViewDef v = view_from_sql(
      catalog_, "v_q4",
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  std::string why;
  const auto m = match_query_to_view(
      query("SELECT Customer.city, date FROM Order, Customer "
            "WHERE quantity > 100 AND Order.Cid = Customer.Cid"),
      v, catalog_, &why);
  ASSERT_TRUE(m.has_value()) << why;
  EXPECT_EQ(m->view, "v_q4");
  EXPECT_TRUE(m->residual.empty());
}

TEST_F(ViewMatchTest, StrictlyNarrowerPredicateLeavesResidual) {
  const ViewDef v = view_from_sql(
      catalog_, "v_q4",
      "SELECT Customer.city, date, quantity FROM Order, Customer "
      "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  const auto m = match_query_to_view(
      query("SELECT Customer.city, date FROM Order, Customer "
            "WHERE quantity > 150 AND Order.Cid = Customer.Cid"),
      v, catalog_);
  ASSERT_TRUE(m.has_value());
  ASSERT_EQ(m->residual.size(), 1u);  // quantity > 150; the join is entailed
}

TEST_F(ViewMatchTest, NeSharpenedBoundaryStillMatches) {
  // quantity >= 100 AND quantity <> 100 == quantity > 100 on an integer
  // column — the ne-set endpoint sharpening the oracle fix added.
  const ViewDef v = view_from_sql(
      catalog_, "v_q4",
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  const auto m = match_query_to_view(
      query("SELECT Customer.city, date FROM Order, Customer "
            "WHERE quantity >= 100 AND quantity <> 100 "
            "AND Order.Cid = Customer.Cid"),
      v, catalog_);
  EXPECT_TRUE(m.has_value());
}

TEST_F(ViewMatchTest, NearMissPredicateJustOutsideRefuses) {
  const ViewDef v = view_from_sql(
      catalog_, "v_q4",
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  // quantity > 99 admits quantity = 100, which the view discarded.
  std::string why;
  EXPECT_FALSE(match_query_to_view(
                   query("SELECT Customer.city, date FROM Order, Customer "
                         "WHERE quantity > 99 AND Order.Cid = Customer.Cid"),
                   v, catalog_, &why)
                   .has_value());
  EXPECT_FALSE(why.empty());
  // So does the closed endpoint quantity >= 100.
  EXPECT_FALSE(match_query_to_view(
                   query("SELECT Customer.city, date FROM Order, Customer "
                         "WHERE quantity >= 100 AND Order.Cid = Customer.Cid"),
                   v, catalog_)
                   .has_value());
}

TEST_F(ViewMatchTest, NearMissExtraOrMissingJoinRefuses) {
  const ViewDef v = view_from_sql(
      catalog_, "v_q4",
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  std::string why;
  // Extra join (one more relation than the view).
  EXPECT_FALSE(
      match_query_to_view(
          query("SELECT Customer.city FROM Order, Customer, Product "
                "WHERE quantity > 100 AND Order.Cid = Customer.Cid "
                "AND Order.Pid = Product.Pid"),
          v, catalog_, &why)
          .has_value());
  EXPECT_EQ(why, "relation sets differ");
  // Missing join (a subset of the view's relations).
  EXPECT_FALSE(match_query_to_view(
                   query("SELECT date FROM Order WHERE quantity > 100"), v,
                   catalog_)
                   .has_value());
}

TEST_F(ViewMatchTest, ProjectionColumnNotStoredRefuses) {
  const ViewDef v = view_from_sql(
      catalog_, "v_q4",
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  std::string why;
  EXPECT_FALSE(match_query_to_view(
                   query("SELECT Customer.name FROM Order, Customer "
                         "WHERE quantity > 100 AND Order.Cid = Customer.Cid"),
                   v, catalog_, &why)
                   .has_value());
  EXPECT_NE(why.find("not stored"), std::string::npos);
}

TEST_F(ViewMatchTest, AggregatePassThroughProjectsStoredColumns) {
  const ViewDef v = view_from_sql(
      catalog_, "v_agg",
      "SELECT Customer.city, count(*) AS cnt, sum(quantity) AS sq "
      "FROM Order, Customer WHERE Order.Cid = Customer.Cid "
      "GROUP BY Customer.city");
  std::string why;
  const auto m = match_query_to_view(
      query("SELECT Customer.city, count(*), sum(quantity) "
            "FROM Order, Customer WHERE Order.Cid = Customer.Cid "
            "GROUP BY Customer.city"),
      v, catalog_, &why);
  ASSERT_TRUE(m.has_value()) << why;
  // Pass-through: no re-aggregation, just a projection of stored columns.
  EXPECT_EQ(m->plan->kind(), OpKind::kProject);
}

TEST_F(ViewMatchTest, RollupFromFinerGrouping) {
  const ViewDef v = view_from_sql(
      catalog_, "v_fine",
      "SELECT Customer.city, date, count(*) AS cnt, sum(quantity) AS sq, "
      "min(quantity) AS mn, max(quantity) AS mx "
      "FROM Order, Customer WHERE Order.Cid = Customer.Cid "
      "GROUP BY Customer.city, date");
  std::string why;
  const auto m = match_query_to_view(
      query("SELECT Customer.city, count(*), sum(quantity), min(quantity), "
            "max(quantity) FROM Order, Customer "
            "WHERE Order.Cid = Customer.Cid GROUP BY Customer.city"),
      v, catalog_, &why);
  ASSERT_TRUE(m.has_value()) << why;
  ASSERT_EQ(m->plan->kind(), OpKind::kAggregate);
  const auto& agg = static_cast<const AggregateOp&>(*m->plan);
  ASSERT_EQ(agg.aggregates().size(), 4u);
  // COUNT rolls up as an integer-preserving sum of stored counts.
  EXPECT_EQ(agg.aggregates()[0].fn, AggFn::kSumInt);
  EXPECT_EQ(agg.aggregates()[1].fn, AggFn::kSum);
  EXPECT_EQ(agg.aggregates()[2].fn, AggFn::kMin);
  EXPECT_EQ(agg.aggregates()[3].fn, AggFn::kMax);
}

TEST_F(ViewMatchTest, AvgRefusesRollupButAllowsPassThrough) {
  const ViewDef v = view_from_sql(
      catalog_, "v_fine",
      "SELECT Customer.city, date, avg(quantity) AS aq "
      "FROM Order, Customer WHERE Order.Cid = Customer.Cid "
      "GROUP BY Customer.city, date");
  std::string why;
  EXPECT_FALSE(match_query_to_view(
                   query("SELECT Customer.city, avg(quantity) "
                         "FROM Order, Customer WHERE Order.Cid = Customer.Cid "
                         "GROUP BY Customer.city"),
                   v, catalog_, &why)
                   .has_value());
  EXPECT_NE(why.find("avg"), std::string::npos);
  EXPECT_TRUE(match_query_to_view(
                  query("SELECT Customer.city, date, avg(quantity) "
                        "FROM Order, Customer WHERE Order.Cid = Customer.Cid "
                        "GROUP BY Customer.city, date"),
                  v, catalog_)
                  .has_value());
}

TEST_F(ViewMatchTest, NearMissCoarserViewGroupingRefuses) {
  // The view groups coarser than the query asks — the stored rows no
  // longer hold the query's groups.
  const ViewDef v = view_from_sql(
      catalog_, "v_coarse",
      "SELECT Customer.city, count(*) AS cnt FROM Order, Customer "
      "WHERE Order.Cid = Customer.Cid GROUP BY Customer.city");
  EXPECT_FALSE(match_query_to_view(
                   query("SELECT Customer.city, date, count(*) "
                         "FROM Order, Customer WHERE Order.Cid = Customer.Cid "
                         "GROUP BY Customer.city, date"),
                   v, catalog_)
                   .has_value());
}

TEST_F(ViewMatchTest, SpjQueryOverAggregateViewRefuses) {
  const ViewDef v = view_from_sql(
      catalog_, "v_agg",
      "SELECT Customer.city, count(*) AS cnt FROM Order, Customer "
      "WHERE Order.Cid = Customer.Cid GROUP BY Customer.city");
  std::string why;
  EXPECT_FALSE(match_query_to_view(
                   query("SELECT Customer.city FROM Order, Customer "
                         "WHERE Order.Cid = Customer.Cid"),
                   v, catalog_, &why)
                   .has_value());
  EXPECT_NE(why.find("SPJ query over an aggregate view"), std::string::npos);
}

TEST_F(ViewMatchTest, ResidualFinerThanAggregateGroupingRefuses) {
  const ViewDef v = view_from_sql(
      catalog_, "v_agg",
      "SELECT Customer.city, count(*) AS cnt FROM Order, Customer "
      "WHERE Order.Cid = Customer.Cid GROUP BY Customer.city");
  // quantity > 100 filters inside groups; the stored rows cannot apply it.
  std::string why;
  EXPECT_FALSE(match_query_to_view(
                   query("SELECT Customer.city, count(*) "
                         "FROM Order, Customer "
                         "WHERE Order.Cid = Customer.Cid AND quantity > 100 "
                         "GROUP BY Customer.city"),
                   v, catalog_, &why)
                   .has_value());
  EXPECT_FALSE(why.empty());
}

TEST_F(ViewMatchTest, AggregateQueryOverSpjViewReaggregates) {
  const ViewDef v = view_from_sql(
      catalog_, "v_spj",
      "SELECT Customer.city, quantity, date FROM Order, Customer "
      "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  std::string why;
  const auto m = match_query_to_view(
      query("SELECT Customer.city, count(*), max(quantity) "
            "FROM Order, Customer "
            "WHERE quantity > 150 AND Order.Cid = Customer.Cid "
            "GROUP BY Customer.city"),
      v, catalog_, &why);
  ASSERT_TRUE(m.has_value()) << why;
  EXPECT_EQ(m->plan->kind(), OpKind::kAggregate);
  EXPECT_EQ(m->residual.size(), 1u);
}

TEST_F(ViewMatchTest, BestMatchPrefersFewestStoredBlocks) {
  ViewDef big = view_from_sql(
      catalog_, "v_big",
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  ViewDef small = big;
  small.name = "v_small";
  big.stored_blocks = 500;
  small.stored_blocks = 50;
  const QuerySpec q =
      query("SELECT Customer.city, date FROM Order, Customer "
            "WHERE quantity > 100 AND Order.Cid = Customer.Cid");
  const auto m = best_view_match(q, {big, small}, catalog_);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->view, "v_small");
}

// ---- MvServer: serving, lifecycle, refresh ---------------------------------

class ServeTest : public ::testing::Test {
 protected:
  ServeTest()
      : designer_(paper_designer()),
        design_(forced_design(designer_)),
        server_(std::make_unique<MvServer>(designer_.catalog(), design_,
                                           populate_paper_database(0.02, 23))) {
  }

  /// Name of the stored view answering query root `q` (its result node).
  std::string view_of(const std::string& query_name) const {
    const MvppGraph& g = design_.graph();
    const NodeId q = g.find_by_name(query_name);
    return g.node(g.node(q).children[0]).name;
  }

  WarehouseDesigner designer_;
  DesignResult design_;
  std::unique_ptr<MvServer> server_;
};

TEST_F(ServeTest, RegisteredWorkloadRewritesAndMatchesBase) {
  for (const QuerySpec& q : designer_.queries()) {
    const ServeResult hit = server_->serve(q);
    const ServeResult base = server_->serve(q, ServePath::kBaseOnly);
    EXPECT_TRUE(hit.rewritten) << q.name() << ": " << hit.refusal;
    EXPECT_FALSE(base.rewritten);
    EXPECT_TRUE(same_bag(hit.table, base.table)) << q.name();
    // ExecStats sanity: both paths did real block work, and the rewritten
    // path never scans more rows than it reports reading.
    EXPECT_GT(hit.stats.blocks_read, 0) << q.name();
    EXPECT_GT(base.stats.blocks_read, 0) << q.name();
    EXPECT_GE(hit.stats.rows_scanned,
              static_cast<double>(hit.table.row_count()));
  }
}

TEST_F(ServeTest, SqlEntryPointServesAdhocResidualQuery) {
  // Narrower than Q4's view (extra date conjunct); the residual runs over
  // the stored date column.
  const std::string sql =
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND date > DATE '1996-07-01' "
      "AND Order.Cid = Customer.Cid";
  const ServeResult hit = server_->serve(sql);
  EXPECT_TRUE(hit.rewritten) << hit.refusal;
  const ServeResult base = server_->serve(sql, ServePath::kBaseOnly);
  EXPECT_TRUE(same_bag(hit.table, base.table));
  EXPECT_LT(hit.table.row_count(), base.stats.rows_scanned);
}

TEST_F(ServeTest, UncoveredQueryFallsBackWithReason) {
  const ServeResult r = server_->serve("SELECT name FROM Division");
  EXPECT_FALSE(r.rewritten);
  EXPECT_FALSE(r.refusal.empty());
  EXPECT_EQ(r.table.schema().size(), 1u);
  EXPECT_THROW(server_->serve("SELECT name FROM Division",
                              ServePath::kViewOnly),
               ExecError);
}

TEST_F(ServeTest, RewriteSwitchDisablesMatching) {
  MvServer plain(designer_.catalog(), design_,
                 populate_paper_database(0.02, 23),
                 ServeOptions{ExecMode::kRow, 1, /*rewrite=*/false});
  const ServeResult r = plain.serve(designer_.queries()[0]);
  EXPECT_FALSE(r.rewritten);
  EXPECT_EQ(r.refusal, "rewriting disabled");
  // The forced view-only path overrides the switch.
  EXPECT_TRUE(plain.serve(designer_.queries()[0], ServePath::kViewOnly)
                  .rewritten);
}

TEST_F(ServeTest, IngestMarksDependentViewsStaleAndMatcherSkipsThem) {
  const QuerySpec& q4 = designer_.queries()[3];
  ASSERT_TRUE(server_->serve(q4).rewritten);

  Rng rng(99);
  const std::uint64_t epoch = server_->ingest("Order", {}, rng);
  EXPECT_EQ(epoch, 1u);
  EXPECT_EQ(server_->status(view_of("Q4")), ViewStatus::kStale);
  EXPECT_EQ(server_->status(view_of("Q3")), ViewStatus::kStale);
  // Q1 reads Product/Division only; untouched.
  EXPECT_EQ(server_->status(view_of("Q1")), ViewStatus::kValid);

  // The stale view no longer serves, but the fallback answer is already
  // consistent with the updated base tables of the same snapshot.
  const ServeResult r = server_->serve(q4);
  EXPECT_FALSE(r.rewritten);
  EXPECT_TRUE(same_bag(r.table,
                       server_->serve(q4, ServePath::kBaseOnly).table));
  // Q1's view still serves.
  EXPECT_TRUE(server_->serve(designer_.queries()[0]).rewritten);
}

TEST_F(ServeTest, BuildingViewsNeverServe) {
  Rng rng(99);
  server_->ingest("Order", {}, rng);
  server_->begin_refresh();
  EXPECT_EQ(server_->status(view_of("Q4")), ViewStatus::kBuilding);
  const ServeResult r = server_->serve(designer_.queries()[3]);
  EXPECT_FALSE(r.rewritten);

  server_->finish_refresh(RefreshMode::kRecompute);
  EXPECT_EQ(server_->status(view_of("Q4")), ViewStatus::kValid);
  const ServeResult again = server_->serve(designer_.queries()[3]);
  EXPECT_TRUE(again.rewritten);
  EXPECT_TRUE(same_bag(
      again.table,
      server_->serve(designer_.queries()[3], ServePath::kBaseOnly).table));
}

TEST_F(ServeTest, IncrementalRefreshRestoresServingWithCorrectContent) {
  Rng rng(7);
  server_->ingest("Order", {}, rng);
  server_->ingest("Customer", {}, rng);
  server_->refresh(RefreshMode::kIncremental);
  for (const QuerySpec& q : designer_.queries()) {
    const ServeResult hit = server_->serve(q);
    EXPECT_TRUE(hit.rewritten) << q.name() << ": " << hit.refusal;
    EXPECT_TRUE(same_bag(hit.table,
                         server_->serve(q, ServePath::kBaseOnly).table))
        << q.name();
  }
}

TEST_F(ServeTest, PinnedSnapshotSurvivesConcurrentSwap) {
  const QuerySpec& q4 = designer_.queries()[3];
  const auto pre = server_->snapshot();
  const ServeResult before = server_->serve_on(pre, q4);

  Rng rng(5);
  server_->update_and_refresh("Order", {}, rng, RefreshMode::kRecompute);
  EXPECT_EQ(server_->epoch(), 1u);

  // The pinned snapshot still answers, and still answers the *old* state.
  const ServeResult replay = server_->serve_on(pre, q4);
  EXPECT_TRUE(same_bag(before.table, replay.table));
  // The current snapshot serves the new state from a VALID view.
  const ServeResult now = server_->serve(q4);
  EXPECT_TRUE(now.rewritten);
  EXPECT_TRUE(same_bag(now.table,
                       server_->serve(q4, ServePath::kBaseOnly).table));
}

// latency_ms spans the whole answer — parse/bind, matching, compensation
// and execution — so it is positive and bounded by the caller's own wall
// time, and the journal records exactly that value.
TEST_F(ServeTest, LatencyCoversTheWholeServeAndReachesTheJournal) {
  ServeOptions options;
  options.observe = true;
  MvServer server(designer_.catalog(), design_,
                  populate_paper_database(0.02, 23), options);
  const std::string sql =
      "SELECT Customer.city, date FROM Order, Customer "
      "WHERE quantity > 100 AND date > DATE '1996-07-01' "
      "AND Order.Cid = Customer.Cid";
  const auto t0 = std::chrono::steady_clock::now();
  const ServeResult r = server.serve(sql);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_TRUE(r.rewritten) << r.refusal;
  EXPECT_GT(r.latency_ms, 0.0);
  EXPECT_LE(r.latency_ms, wall_ms);

  ASSERT_NE(server.observatory(), nullptr);
  const std::vector<JournalEvent> events =
      server.observatory()->journal()->events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().kind, EventKind::kServe);
  EXPECT_EQ(events.back().latency_ms, r.latency_ms);
}

// Writers stage each epoch on aliases of the current snapshot's tables
// and replace only what they write: a pinned snapshot never changes, an
// untouched table is the same object in the old and the new epoch, and
// every written table (the ingested relation, each refreshed view) is a
// new one — including the views incremental refresh applies deltas to.
TEST_F(ServeTest, WritersShareUnchangedTablesAcrossEpochs) {
  const auto pinned = server_->snapshot();
  const std::map<std::string, std::uint64_t> pinned_digests =
      digests_of(*pinned->db);

  std::set<std::string> over_order;
  for (const DeployedView& v : pinned->registry.views()) {
    if (v.def.relations.contains("Order")) over_order.insert(v.def.name);
  }
  ASSERT_FALSE(over_order.empty());
  std::set<std::string> order_and_views = over_order;
  order_and_views.insert("Order");

  struct Step {
    std::string name;
    std::function<void()> run;
    std::set<std::string> written;
  };
  Rng rng(11);
  const std::vector<Step> steps = {
      {"ingest", [&] { server_->ingest("Order", {}, rng); }, {"Order"}},
      {"refresh(recompute)",
       [&] { server_->refresh(RefreshMode::kRecompute); }, over_order},
      {"ingest again", [&] { server_->ingest("Order", {}, rng); }, {"Order"}},
      {"refresh(incremental)",
       [&] { server_->refresh(RefreshMode::kIncremental); }, over_order},
      {"update_and_refresh",
       [&] {
         server_->update_and_refresh("Order", {}, rng,
                                     RefreshMode::kIncremental);
       },
       order_and_views},
  };
  for (const Step& step : steps) {
    const auto before = server_->snapshot();
    const std::map<std::string, std::uint64_t> before_digests =
        digests_of(*before->db);
    step.run();
    const auto after = server_->snapshot();
    ASSERT_GT(after->epoch, before->epoch) << step.name;

    EXPECT_EQ(digests_of(*pinned->db), pinned_digests) << step.name;
    EXPECT_EQ(digests_of(*before->db), before_digests) << step.name;
    ASSERT_EQ(after->db->table_names(), before->db->table_names());
    for (const std::string& name : before->db->table_names()) {
      const bool shared = &before->db->table(name) == &after->db->table(name);
      EXPECT_EQ(shared, !step.written.contains(name))
          << step.name << ": " << name;
    }
  }
  // Sharing never costs correctness: every view serves the final state.
  for (const QuerySpec& q : designer_.queries()) {
    const ServeResult hit = server_->serve(q);
    EXPECT_TRUE(hit.rewritten) << q.name() << ": " << hit.refusal;
    EXPECT_TRUE(same_bag(hit.table,
                         server_->serve(q, ServePath::kBaseOnly).table))
        << q.name();
  }
}

TEST_F(ServeTest, RewriteLogEvidenceRechecks) {
  for (const QuerySpec& q : designer_.queries()) server_->serve(q);
  const std::vector<RewriteRecord> log = server_->rewrite_log();
  ASSERT_EQ(log.size(), designer_.queries().size());
  for (const RewriteRecord& r : log) {
    EXPECT_TRUE(implies(r.query_pred, r.view_pred, r.joint))
        << r.query << " -> " << r.view;
  }
}

// The rewrite log plugs into mvlint's serve/rewrite-consistent rule: a
// genuine log lints clean, and corrupting one record's evidence fires
// exactly that rule.
TEST_F(ServeTest, RewriteLogFeedsTheLintRule) {
  for (const QuerySpec& q : designer_.queries()) server_->serve(q);

  LintContext ctx;
  ctx.graph = &design_.graph();
  for (const RewriteRecord& r : server_->rewrite_log()) {
    ctx.rewrites.push_back(
        ServeRewriteCheck{r.query, r.view, r.query_pred, r.view_pred, r.joint});
  }
  ASSERT_FALSE(ctx.rewrites.empty());

  const LintRegistry& lint = LintRegistry::builtin();
  EXPECT_FALSE(lint.run(ctx).has_errors()) << lint.run(ctx).render_text();

  // Tamper: make one record's view predicate unsatisfiable over an int64
  // column of its joint schema. No satisfiable query predicate implies it.
  ServeRewriteCheck& victim = ctx.rewrites.front();
  const auto attr =
      std::find_if(victim.joint.attributes().begin(),
                   victim.joint.attributes().end(), [](const Attribute& a) {
                     return a.type == ValueType::kInt64;
                   });
  ASSERT_NE(attr, victim.joint.attributes().end());
  victim.view_pred = conj({cmp(CompareOp::kGt, col(attr->qualified()),
                               lit_i64(0)),
                           cmp(CompareOp::kLt, col(attr->qualified()),
                               lit_i64(0))});

  const LintReport tampered = lint.run(ctx);
  EXPECT_TRUE(tampered.has_errors());
  EXPECT_EQ(tampered.fired_rules(),
            std::set<std::string>{"serve/rewrite-consistent"});
}

// ---- Concurrency: the snapshot/epoch contract (also run under TSan) --------

TEST(MvserveTsanTest, ReadersNeverObserveTornSnapshots) {
  WarehouseDesigner designer = paper_designer();
  const DesignResult design = forced_design(designer);
  MvServer server(designer.catalog(), design,
                  populate_paper_database(0.005, 31));
  const std::vector<QuerySpec> queries = designer.queries();

  std::atomic<bool> done{false};
  std::atomic<int> mixes{0};
  std::atomic<int> served{0};

  // Readers pin a snapshot and check its internal consistency: on one
  // snapshot, the view path and the base path must agree — a torn swap
  // (views from one epoch, bases from another) shows up as a mismatch.
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      // Run until the writer quiesces, but at least a few rounds even if
      // the writer wins the race — the consistency check must execute.
      std::size_t i = static_cast<std::size_t>(t);
      while (i < static_cast<std::size_t>(t) + 6 ||
             !done.load(std::memory_order_acquire)) {
        const QuerySpec& q = queries[i++ % queries.size()];
        const auto snap = server.snapshot();
        const ServeResult a = server.serve_on(snap, q);
        const ServeResult b = server.serve_on(snap, q, ServePath::kBaseOnly);
        if (!same_bag(a.table, b.table)) mixes.fetch_add(1);
        served.fetch_add(1);
      }
    });
  }

  // Writer: update + refresh in one atomic publish per round, alternating
  // refresh modes and touched relations.
  Rng rng(77);
  for (int round = 0; round < 6; ++round) {
    const char* relation = (round % 2 == 0) ? "Order" : "Customer";
    const RefreshMode mode = (round % 2 == 0) ? RefreshMode::kIncremental
                                              : RefreshMode::kRecompute;
    server.update_and_refresh(relation, {}, rng, mode);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(mixes.load(), 0);
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(server.epoch(), 6u);

  // After the writer quiesces, every view is VALID again and serves the
  // final state.
  for (const QuerySpec& q : queries) {
    const ServeResult r = server.serve(q);
    EXPECT_TRUE(r.rewritten) << q.name() << ": " << r.refusal;
    EXPECT_TRUE(
        same_bag(r.table, server.serve(q, ServePath::kBaseOnly).table))
        << q.name();
  }
}

// Split writer rounds (ingest, then begin_refresh, then an incremental
// finish_refresh) take the path whose SPJ delta apply mutates a table in
// place; the views it applies to must be private copies by then. Readers
// pin snapshots and re-check every pinned table's digest around a serve:
// a write into a table a published snapshot can reach shows up as a
// changed digest here, and as a data race under TSan.
TEST(MvserveTsanTest, SplitWritersNeverTouchPinnedTables) {
  WarehouseDesigner designer = paper_designer();
  const DesignResult design = forced_design(designer);
  MvServer server(designer.catalog(), design,
                  populate_paper_database(0.005, 53));
  const std::vector<QuerySpec> queries = designer.queries();

  std::atomic<bool> done{false};
  std::atomic<int> changed{0};
  std::atomic<int> checks{0};
  std::atomic<int> started{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      // The first pinned snapshot is held to the end: every round's
      // writes happen while it is pinned.
      const auto first = server.snapshot();
      const std::map<std::string, std::uint64_t> first_digests =
          digests_of(*first->db);
      started.fetch_add(1);
      std::size_t i = static_cast<std::size_t>(t);
      while (i < static_cast<std::size_t>(t) + 6 ||
             !done.load(std::memory_order_acquire)) {
        const auto snap = server.snapshot();
        const std::map<std::string, std::uint64_t> pinned =
            digests_of(*snap->db);
        server.serve_on(snap, queries[i++ % queries.size()]);
        if (digests_of(*snap->db) != pinned) changed.fetch_add(1);
        checks.fetch_add(1);
      }
      if (digests_of(*first->db) != first_digests) changed.fetch_add(1);
    });
  }

  // Start writing once every reader has pinned its first snapshot.
  while (started.load() < 4) std::this_thread::yield();
  Rng rng(91);
  for (int round = 0; round < 6; ++round) {
    server.ingest(round % 2 == 0 ? "Order" : "Customer", {}, rng);
    server.begin_refresh();
    server.finish_refresh(RefreshMode::kIncremental);
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(changed.load(), 0);
  EXPECT_GT(checks.load(), 0);
  EXPECT_EQ(server.epoch(), 18u);
  for (const QuerySpec& q : queries) {
    const ServeResult r = server.serve(q);
    EXPECT_TRUE(r.rewritten) << q.name() << ": " << r.refusal;
    EXPECT_TRUE(
        same_bag(r.table, server.serve(q, ServePath::kBaseOnly).table))
        << q.name();
  }
}

TEST(MvserveTsanTest, ConcurrentServesShareOneSnapshotSafely) {
  WarehouseDesigner designer = paper_designer();
  const DesignResult design = forced_design(designer);
  MvServer server(designer.catalog(), design,
                  populate_paper_database(0.005, 47));
  const std::vector<QuerySpec> queries = designer.queries();

  // Purely concurrent readers (no writer): per-serve executors must not
  // share mutable state (the columnar cache is per-call).
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        const QuerySpec& q = queries[(t + i) % queries.size()];
        const ServeResult hit = server.serve(q);
        const ServeResult base = server.serve(q, ServePath::kBaseOnly);
        if (!hit.rewritten || !same_bag(hit.table, base.table)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace mvd
