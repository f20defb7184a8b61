// Warehouse lifecycle benchmark: design -> deploy -> serve -> ingest ->
// refresh through the public API (WarehouseDesigner, MvServer), end to
// end and per layer.
//
//   lifecycle_bench --workload NAME --seed N --seconds S --trace 0|1
//                   [--trace-dir DIR]
//   lifecycle_bench --selftest
//
// A run generates the workload's inputs from the seed, times one cold
// set-up (design() plus MvServer construction), then repeats whole
// passes of the workload's schedule until S seconds have passed, checks
// every output with the oracle (oracle.hpp), and prints one JSON object
// as its last line of standard output. With --trace 0 it reports the
// end-to-end metrics; with --trace 1 it additionally replicates the
// calls into each layer's public functions, timed as spans, and reports
// the per-layer metrics (the span log goes to DIR when given).
//
// Configuration is whatever the program defaults to: the benchmark sets
// no engine, thread count or refresh mode.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "oracle.hpp"
#include "src/cost/cost_model.hpp"
#include "src/exec/executor.hpp"
#include "src/maintenance/refresh.hpp"
#include "src/mvpp/builder.hpp"
#include "src/mvpp/rewrite.hpp"
#include "src/optimizer/view_rewrite.hpp"
#include "src/serve/server.hpp"
#include "src/sql/parser.hpp"
#include "workloads.hpp"

namespace lcb {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
  bool selftest = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a.selftest = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--trace-dir") {
      a.trace_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!a.selftest && !have_workload) {
    throw std::invalid_argument("--workload is required");
  }
  return a;
}

/// Collects oracle verdicts from every thread; keeps the first few
/// reasons for the log.
class Verdicts {
 public:
  void record(const std::string& verdict) {
    if (verdict.empty()) return;
    std::lock_guard<std::mutex> lock(mutex_);
    ++failures_;
    if (reasons_.size() < 10) reasons_.push_back(verdict);
  }
  bool ok() const { return failures_ == 0; }
  const std::vector<std::string>& reasons() const { return reasons_; }

 private:
  std::mutex mutex_;
  std::size_t failures_ = 0;
  std::vector<std::string> reasons_;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Per-layer samples gathered by the traced run beside its spans.
struct LayerSamples {
  std::vector<double> views_probed;
  std::size_t rewrite_attempts = 0;
  std::size_t rewrite_hits = 0;
  std::vector<double> overhead_us;
  std::vector<double> view_run_ms;
  std::vector<double> base_run_ms;
  std::vector<double> blocks_read;
  std::vector<double> rows_scanned;
  std::vector<double> qerror;
  /// ServeResult::latency_ms beside the benchmark's parse + serve_on time.
  std::vector<double> reported_latency_ms;
  std::vector<double> serve_latency_ms;
  std::vector<double> ingest_delta_rows;
  std::vector<double> refresh_applied;
  std::vector<double> refresh_recomputed;
  std::vector<double> refresh_skipped;
  std::vector<double> refresh_delta_rows;
  std::vector<double> refresh_blocks;
  double operation_nodes = 0;
  double candidates = 0;
  double stored_rows = 0;
};

class Lifecycle {
 public:
  Lifecycle(Workload workload, bool traced, Clock::time_point origin)
      : w_(std::move(workload)),
        traced_(traced),
        spans_(origin),
        pass_rng_(w_.seed * 0x2545f4914f6cdd1dULL + 11),
        ingest_rng_(w_.seed * 0x2545f4914f6cdd1dULL + 12) {}

  void setup();
  void run(double seconds);
  void final_checks();

  std::vector<Metric> end_to_end() const;
  std::vector<Metric> per_layer() const;
  const LayerSamples& layer_samples() const { return layer_; }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }
  const Verdicts& verdicts() const { return verdicts_; }
  const SpanLog& spans() const { return spans_; }
  const Workload& workload() const { return w_; }

 private:
  /// Runs one step; returns its wall time in seconds, oracle work
  /// excluded.
  double run_pass();
  double serve_step(const Step& step);
  double ingest_step(const Step& step);
  double refresh_step();

  /// Traced replica of one serve: parse, the program's serve_on, then the
  /// matcher and the executor called again on the same snapshot.
  /// `latency_ms` receives parse plus serve_on, the traced counterpart
  /// of an untraced serve(sql).
  mvd::ServeResult traced_serve(const std::string& sql, int thread,
                                double& latency_ms);
  void trace_refresh_replicas();
  double predicted_blocks(const mvd::PlanPtr& plan) const;

  std::uint64_t next_op() { return op_.fetch_add(1) + 1; }

  Workload w_;
  bool traced_;
  SpanLog spans_;
  mvd::Rng pass_rng_;
  mvd::Rng ingest_rng_;
  std::atomic<std::uint64_t> op_{0};
  /// False during the warm-up pass: samples and spans are not kept.
  bool measuring_ = false;

  std::unique_ptr<mvd::WarehouseDesigner> designer_;
  mvd::DesignResult design_;
  std::unique_ptr<mvd::MvServer> server_;
  /// Catalog plus every deployed view, for the cost model's predictions.
  std::unique_ptr<mvd::Catalog> view_catalog_;
  std::unique_ptr<mvd::CostModel> view_cost_;
  /// Base deltas captured by the ingest replicas since the last refresh.
  mvd::DeltaSet pending_deltas_;

  double setup_s_ = 0;
  std::vector<double> serve_ms_;
  /// Serves completed and serving wall time of the current pass, and the
  /// resulting throughput of every measured pass.
  std::size_t pass_serves_ = 0;
  double pass_serve_wall_s_ = 0;
  std::vector<double> pass_qps_;
  std::vector<double> ingest_ms_;
  std::vector<double> refresh_ms_;
  std::vector<double> pass_s_;
  double peak_rss_mb_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  Verdicts verdicts_;
  std::mutex samples_mutex_;
  LayerSamples layer_;
};

void Lifecycle::setup() {
  const Clock::time_point t0 = Clock::now();
  designer_ = std::make_unique<mvd::WarehouseDesigner>(w_.catalog, w_.designer);
  for (const DesignQuery& q : w_.queries) {
    designer_->add_query(q.name, q.frequency, q.sql);
  }
  mvd::DesignResult design = designer_->design();
  const Clock::time_point t1 = Clock::now();
  design_ = design;  // the oracle's copy, outside the timed set-up
  const Clock::time_point t2 = Clock::now();
  server_ = std::make_unique<mvd::MvServer>(w_.catalog, std::move(design), w_.base);
  const Clock::time_point t3 = Clock::now();
  setup_s_ = (ms_between(t0, t1) + ms_between(t2, t3)) / 1e3;
  w_.base = mvd::Database();  // the server holds its own copy

  verdicts_.record(check_design_cost(design_, w_.designer.maintenance,
                                     design_.selection.costs.total()));
  verdicts_.record(check_views(*server_->snapshot(), design_));
  {
    const auto snap = server_->snapshot();
    std::cerr << "design: " << design_.candidates.size() << " candidate MVPPs, "
              << design_.graph().operation_ids().size()
              << " operation nodes; deployed";
    for (const mvd::DeployedView& v : snap->registry.views()) {
      std::cerr << " " << v.def.name << "("
                << snap->db->table(v.def.name).row_count() << " rows)";
    }
    std::cerr << "\n";
  }

  if (!traced_) return;
  const std::uint64_t op = next_op();
  spans_.add("setup.design", op, -1, t0, t1, 0);
  spans_.add("deploy", op, -1, t2, t3, 0);

  // Replicate design(): the k rotation MVPPs, then Fig. 9 selection on
  // each, through the same public entry points.
  const mvd::Optimizer optimizer(designer_->cost_model());
  const mvd::MvppBuilder builder(optimizer);
  const Clock::time_point b0 = Clock::now();
  const std::vector<mvd::MvppBuildResult> candidates =
      builder.build_all_rotations(designer_->queries());
  const Clock::time_point b1 = Clock::now();
  const mvd::MvppChoice choice = mvd::choose_best_mvpp(
      candidates, w_.designer.maintenance,
      [](const mvd::MvppEvaluator& e) { return mvd::yang_heuristic(e); });
  const Clock::time_point b2 = Clock::now();
  spans_.add("mvpp.build", op, -1, b0, b1, 0);
  spans_.add("mvpp.select", op, -1, b1, b2, 0);
  if (choice.selection.materialized != design_.selection.materialized) {
    verdicts_.record("replicated selection chose a different set");
  }
  layer_.operation_nodes =
      static_cast<double>(design_.graph().operation_ids().size());
  layer_.candidates = static_cast<double>(design_.candidates.size());

  const auto snap = server_->snapshot();
  view_catalog_ = std::make_unique<mvd::Catalog>(w_.catalog);
  for (const mvd::DeployedView& v : snap->registry.views()) {
    const mvd::Table& t = snap->db->table(v.def.name);
    layer_.stored_rows += static_cast<double>(t.row_count());
    mvd::RelationStats stats;
    stats.rows = static_cast<double>(t.row_count());
    stats.blocks = t.blocks();
    view_catalog_->add_relation(v.def.name, t.schema(), stats, 1.0);
  }
  view_cost_ = std::make_unique<mvd::CostModel>(*view_catalog_, w_.designer.cost);
}

double Lifecycle::predicted_blocks(const mvd::PlanPtr& plan) const {
  try {
    return view_cost_->full_cost(plan);
  } catch (const std::exception&) {
    return -1;  // outside the cost model's reach; left out of the q-error
  }
}

mvd::ServeResult Lifecycle::traced_serve(const std::string& sql, int thread,
                                         double& latency_ms) {
  const std::uint64_t op = next_op();
  const Clock::time_point a = Clock::now();
  const mvd::QuerySpec spec = mvd::parse_adhoc(w_.catalog, sql);
  const Clock::time_point b = Clock::now();
  const auto snap = server_->snapshot();
  const Clock::time_point c = Clock::now();
  mvd::ServeResult r = server_->serve_on(snap, spec);
  const Clock::time_point d = Clock::now();

  // Replicated matching over the same VALID views.
  std::optional<mvd::ViewMatch> best;
  std::size_t probed = 0;
  for (const mvd::ViewDef& v : snap->registry.matchable()) {
    ++probed;
    std::string why;
    std::optional<mvd::ViewMatch> m =
        mvd::match_query_to_view(spec, v, w_.catalog, &why);
    if (m.has_value() &&
        (!best.has_value() || m->stored_blocks < best->stored_blocks ||
         (m->stored_blocks == best->stored_blocks && m->view < best->view))) {
      best = std::move(m);
    }
  }
  const Clock::time_point e = Clock::now();
  const mvd::PlanPtr plan =
      best.has_value() ? best->plan : mvd::canonical_plan(w_.catalog, spec);
  // The same plan twice on one Executor: the first run is what serve_on
  // pays (it builds a fresh Executor per query), the repeat shows what a
  // reused one would.
  const mvd::Executor exec(snap->db, server_->options().mode,
                           server_->options().threads);
  exec.run(plan);
  const Clock::time_point f = Clock::now();
  exec.run(plan);
  const Clock::time_point g = Clock::now();

  latency_ms = ms_between(a, b) + ms_between(c, d);
  const int root = spans_.open("serve", op, a, thread);
  spans_.add("sql.parse_bind", op, root, a, b, thread);
  spans_.add("serve.serve_on", op, root, c, d, thread);
  spans_.add("rewrite.match", op, root, d, e, thread);
  spans_.add("exec.first_run", op, root, e, f, thread);
  spans_.add("exec.repeat_run", op, root, f, g, thread);
  spans_.finish(root, g);

  const double predicted = predicted_blocks(plan);
  std::lock_guard<std::mutex> lock(samples_mutex_);
  layer_.views_probed.push_back(static_cast<double>(probed));
  if (server_->options().rewrite) ++layer_.rewrite_attempts;
  if (r.rewritten) ++layer_.rewrite_hits;
  if (r.rewritten != best.has_value()) {
    verdicts_.record("replicated matcher disagrees with serve_on on: " + sql);
  }
  const double run_ms = ms_between(e, f);
  (r.rewritten ? layer_.view_run_ms : layer_.base_run_ms).push_back(run_ms);
  layer_.overhead_us.push_back(
      (ms_between(c, d) - ms_between(d, e) - run_ms) * 1e3);
  layer_.blocks_read.push_back(r.stats.blocks_read);
  layer_.reported_latency_ms.push_back(r.latency_ms);
  layer_.serve_latency_ms.push_back(latency_ms);
  layer_.rows_scanned.push_back(r.stats.rows_scanned);
  if (predicted > 0 && r.stats.blocks_read > 0) {
    layer_.qerror.push_back(std::max(predicted / r.stats.blocks_read,
                                     r.stats.blocks_read / predicted));
  }
  return r;
}

double Lifecycle::serve_step(const Step& step) {
  // Oracle first, outside the timed step: the expected answer of every
  // distinct query of the batch at the snapshot the batch will read.
  const auto snap = server_->snapshot();
  std::map<std::size_t, BagDigest> expected;
  std::map<std::size_t, std::uint64_t> rollup_rows;
  for (const std::size_t i : step.batch) {
    if (expected.contains(i)) continue;
    expected[i] = expected_answer(w_.mix[i].shape, *snap->db);
    if (const auto* q = std::get_if<StarQuery>(&w_.mix[i].shape);
        q != nullptr && q->group_dim >= 0) {
      rollup_rows[i] = qualifying_fact_rows(*q, *snap->db);
    }
  }
  std::vector<std::size_t> order = step.batch;
  pass_rng_.shuffle(order);

  // Closed loop: each client takes the next query of the shuffled batch
  // once its previous one has been answered.
  const int clients = w_.clients;
  std::vector<std::vector<double>> latencies(static_cast<std::size_t>(clients));
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failed{0};
  auto client = [&](int c) {
    std::vector<double>& mine = latencies[static_cast<std::size_t>(c)];
    for (std::size_t k = next.fetch_add(1); k < order.size(); k = next.fetch_add(1)) {
      const MixQuery& m = w_.mix[order[k]];
      mvd::ServeResult r;
      try {
        double latency = 0;
        if (traced_ && measuring_) {
          r = traced_serve(m.sql, c, latency);
        } else {
          const Clock::time_point a = Clock::now();
          r = server_->serve(m.sql);
          latency = ms_between(a, Clock::now());
        }
        mine.push_back(latency);
      } catch (const std::exception& ex) {
        failed.fetch_add(1);
        std::cerr << "serve failed: " << m.sql << ": " << ex.what() << "\n";
        continue;
      }
      try {
        if (r.epoch != snap->epoch) {
          verdicts_.record("serve read epoch " + std::to_string(r.epoch) +
                           ", batch pinned " + std::to_string(snap->epoch));
        }
        verdicts_.record(check_answer(expected.at(order[k]), r.table));
        if (const auto it = rollup_rows.find(order[k]); it != rollup_rows.end()) {
          verdicts_.record(check_rollup_count(it->second, r.table));
        }
      } catch (const std::exception& ex) {
        // A malformed answer (say, a text COUNT column) must not end the
        // client thread; it is a wrong answer.
        verdicts_.record("answer to " + m.sql + " could not be checked: " + ex.what());
      }
    }
  };
  const Clock::time_point t0 = Clock::now();
  if (clients == 1) {
    client(0);
  } else {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) threads.emplace_back(client, c);
    for (std::thread& t : threads) t.join();
  }
  const double wall = ms_between(t0, Clock::now()) / 1e3;

  attempted_ += order.size();
  failed_ += failed.load();
  if (measuring_) {
    pass_serves_ += order.size() - failed.load();
    pass_serve_wall_s_ += wall;
    for (const std::vector<double>& l : latencies) {
      serve_ms_.insert(serve_ms_.end(), l.begin(), l.end());
    }
  }
  return wall;
}

double Lifecycle::ingest_step(const Step& step) {
  const auto snap = server_->snapshot();
  const std::string& rel = step.relation;
  const std::size_t before = snap->db->table(rel).row_count();

  // The oracle's replica of the batch: same rows, same random stream.
  // Traced runs copy the whole snapshot as ingest does, and time the
  // copy and the apply as spans.
  const std::uint64_t op = next_op();
  mvd::Rng replica_rng = ingest_rng_;
  auto counts = [&] {
    const auto it = pending_deltas_.find(rel);
    return it == pending_deltas_.end()
               ? std::pair<std::size_t, std::size_t>{0, 0}
               : std::pair{it->second.inserts().row_count(),
                           it->second.deletes().row_count()};
  };
  const auto [ins0, del0] = counts();
  if (traced_) {
    const Clock::time_point a = Clock::now();
    mvd::Database copy = *snap->db;
    const Clock::time_point b = Clock::now();
    mvd::apply_update_batch(copy, rel, step.updates, replica_rng, &pending_deltas_);
    const Clock::time_point c = Clock::now();
    if (measuring_) {
      spans_.add("ingest.snapshot_copy", op, -1, a, b, 0);
      spans_.add("ingest.apply", op, -1, b, c, 0);
    }
  } else {
    mvd::Database replica;
    replica.add_table(rel, snap->db->table(rel));
    mvd::apply_update_batch(replica, rel, step.updates, replica_rng, &pending_deltas_);
  }
  const auto [ins1, del1] = counts();

  ++attempted_;
  const Clock::time_point t0 = Clock::now();
  try {
    server_->ingest(rel, step.updates, ingest_rng_);
  } catch (const std::exception& ex) {
    ++failed_;
    std::cerr << "ingest failed: " << ex.what() << "\n";
    return ms_between(t0, Clock::now()) / 1e3;
  }
  const Clock::time_point t1 = Clock::now();
  if (measuring_) ingest_ms_.push_back(ms_between(t0, t1));
  if (traced_ && measuring_) {
    spans_.add("serve.ingest", op, -1, t0, t1, 0);
    layer_.ingest_delta_rows.push_back(
        static_cast<double>((ins1 - ins0) + (del1 - del0)));
  }
  const std::size_t after = server_->snapshot()->db->table(rel).row_count();
  verdicts_.record(check_ingest(before, after, ins1 - ins0, del1 - del0));
  return ms_between(t0, t1) / 1e3;
}

void Lifecycle::trace_refresh_replicas() {
  const auto snap = server_->snapshot();
  const mvd::MvppGraph& graph = design_.graph();
  const mvd::MaterializedSet& m = design_.selection.materialized;
  const std::vector<std::string> pending = snap->registry.pending();
  const std::set<std::string> pending_set(pending.begin(), pending.end());
  const mvd::ExecMode mode = server_->options().mode;
  const std::size_t threads = server_->options().threads;
  const std::uint64_t op = next_op();

  // Recompute, as MvServer rebuilds pending views by default.
  mvd::Database copy = *snap->db;
  mvd::ExecStats recompute;
  const Clock::time_point a = Clock::now();
  for (const mvd::NodeId id : m) {
    const std::string& name = graph.node(id).name;
    if (!pending_set.contains(name)) continue;
    const mvd::Executor exec(copy, mode, threads);
    copy.put_table(name, exec.run(mvd::refresh_plan(graph, id, m), &recompute));
  }
  const Clock::time_point b = Clock::now();
  spans_.add("refresh.recompute", op, -1, a, b, 0);

  // Incremental, from the deltas the ingest replicas captured.
  mvd::Database copy2 = *snap->db;
  const Clock::time_point c = Clock::now();
  const mvd::RefreshReport report =
      mvd::incremental_refresh(graph, m, copy2, pending_deltas_, nullptr, mode, threads);
  const Clock::time_point d = Clock::now();
  spans_.add("refresh.incremental", op, -1, c, d, 0);

  layer_.refresh_applied.push_back(static_cast<double>(
      report.count(mvd::RefreshPath::kApplied) +
      report.count(mvd::RefreshPath::kGroupApplied)));
  layer_.refresh_recomputed.push_back(
      static_cast<double>(report.count(mvd::RefreshPath::kRecomputed)));
  layer_.refresh_skipped.push_back(
      static_cast<double>(report.count(mvd::RefreshPath::kSkipped)));
  layer_.refresh_delta_rows.push_back(report.total_delta_rows());
  layer_.refresh_blocks.push_back(recompute.blocks_read);
}

double Lifecycle::refresh_step() {
  if (traced_ && measuring_) trace_refresh_replicas();
  ++attempted_;
  const Clock::time_point t0 = Clock::now();
  try {
    server_->refresh();
  } catch (const std::exception& ex) {
    ++failed_;
    std::cerr << "refresh failed: " << ex.what() << "\n";
    return ms_between(t0, Clock::now()) / 1e3;
  }
  const Clock::time_point t1 = Clock::now();
  if (measuring_) refresh_ms_.push_back(ms_between(t0, t1));
  if (traced_ && measuring_) spans_.add("serve.refresh", next_op(), -1, t0, t1, 0);
  pending_deltas_.clear();
  verdicts_.record(check_views(*server_->snapshot(), design_));
  return ms_between(t0, t1) / 1e3;
}

double Lifecycle::run_pass() {
  double pass = 0;
  for (const Step& step : w_.pass) {
    switch (step.kind) {
      case Step::Kind::kServe:
        pass += serve_step(step);
        break;
      case Step::Kind::kIngest:
        pass += ingest_step(step);
        break;
      case Step::Kind::kRefresh:
        pass += refresh_step();
        break;
    }
  }
  return pass;
}

void Lifecycle::run(double seconds) {
  // One warm-up pass lets caches fill and the allocator grow; it is
  // checked like any other but not measured. Then untraced runs make at
  // least the passes the tail percentile is sized for, and whole passes
  // until the time is up.
  run_pass();
  measuring_ = true;
  const std::size_t min_passes = traced_ ? 1 : w_.min_passes;
  const Clock::time_point start = Clock::now();
  do {
    pass_serves_ = 0;
    pass_serve_wall_s_ = 0;
    pass_s_.push_back(run_pass());
    pass_qps_.push_back(static_cast<double>(pass_serves_) / pass_serve_wall_s_);
  } while (pass_s_.size() < min_passes ||
           ms_between(start, Clock::now()) / 1e3 < seconds);
  peak_rss_mb_ = peak_rss_mb();
  std::cerr << "measured passes (s):";
  for (const double p : pass_s_) std::cerr << " " << p;
  std::cerr << "\n";
}

void Lifecycle::final_checks() {
  // The generated workloads' reference: canonical_plan over base tables
  // on the row engine must agree with the benchmark's own evaluator at
  // the final snapshot, after every update the run applied.
  if (w_.dimensions == 0) return;
  const auto snap = server_->snapshot();
  std::set<std::string> seen;
  for (const MixQuery& m : w_.mix) {
    if (!seen.insert(m.sql).second) continue;
    if (!(reference_answer(w_.catalog, m.sql, snap->db) ==
          expected_answer(m.shape, *snap->db))) {
      verdicts_.record("canonical_plan and the oracle disagree on: " + m.sql);
    }
  }
}

std::vector<Metric> Lifecycle::end_to_end() const {
  return {
      {"setup_s", setup_s_, "s"},
      {"design_cost_blocks", design_.selection.costs.total(), "blocks"},
      {"serve_p50_ms", median(serve_ms_), "ms"},
      {"serve_tail_ms", percentile(serve_ms_, w_.tail_percentile), "ms"},
      {"serve_qps", median(pass_qps_), "queries/s"},
      {"ingest_p50_ms", median(ingest_ms_), "ms"},
      {"refresh_p50_ms", median(refresh_ms_), "ms"},
      {"lifecycle_s", median(pass_s_), "s"},
      {"peak_rss_mb", peak_rss_mb_, "MB"},
  };
}

std::vector<Metric> Lifecycle::per_layer() const {
  const LayerSamples& l = layer_;
  auto med = [this](const char* span, double scale) {
    return median(spans_.durations_ms(span)) * scale;
  };
  const double attempts = static_cast<double>(l.rewrite_attempts);
  return {
      {"sql.parse_bind_us", med("sql.parse_bind", 1e3), "us"},
      {"rewrite.match_us", med("rewrite.match", 1e3), "us"},
      {"rewrite.views_probed", mean(l.views_probed), "count"},
      {"rewrite.hit_ratio",
       attempts > 0 ? static_cast<double>(l.rewrite_hits) / attempts : 0, "ratio"},
      {"rewrite.attempts", attempts, "count"},
      {"serve.overhead_us", median(l.overhead_us), "us"},
      {"serve.rewrite_log_records",
       static_cast<double>(server_->rewrite_log().size()), "count"},
      {"exec.view_run_ms", median(l.view_run_ms), "ms"},
      {"exec.base_run_ms", median(l.base_run_ms), "ms"},
      {"exec.blocks_read_per_query", mean(l.blocks_read), "blocks"},
      {"exec.rows_scanned_per_query", mean(l.rows_scanned), "rows"},
      {"exec.first_run_ms", med("exec.first_run", 1), "ms"},
      {"exec.repeat_run_ms", med("exec.repeat_run", 1), "ms"},
      {"cost.blocks_qerror_p50", median(l.qerror), "ratio"},
      {"mvpp.build_ms", med("mvpp.build", 1), "ms"},
      {"mvpp.select_ms", med("mvpp.select", 1), "ms"},
      {"mvpp.operation_nodes", l.operation_nodes, "count"},
      {"mvpp.candidates", l.candidates, "count"},
      {"deploy.ms", med("deploy", 1), "ms"},
      {"deploy.stored_rows", l.stored_rows, "rows"},
      {"ingest.snapshot_copy_ms", med("ingest.snapshot_copy", 1), "ms"},
      {"ingest.apply_ms", med("ingest.apply", 1), "ms"},
      {"ingest.delta_rows", median(l.ingest_delta_rows), "rows"},
      {"refresh.recompute_ms", med("refresh.recompute", 1), "ms"},
      {"refresh.incremental_ms", med("refresh.incremental", 1), "ms"},
      {"refresh.views_applied", mean(l.refresh_applied), "count"},
      {"refresh.views_recomputed", mean(l.refresh_recomputed), "count"},
      {"refresh.views_skipped", mean(l.refresh_skipped), "count"},
      {"refresh.delta_rows", mean(l.refresh_delta_rows), "rows"},
      {"refresh.blocks_read", mean(l.refresh_blocks), "blocks"},
  };
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string result_json(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

void log_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::cerr << title << ":\n";
  for (const Metric& m : metrics) {
    std::cerr << "  " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
}

int run(const Args& args) {
  const Clock::time_point origin = Clock::now();
  if (args.selftest) {
    const int wrong = oracle_selftest(std::cerr);
    std::cerr << "oracle selftest: " << (wrong == 0 ? "ok" : "FAILED") << "\n";
    return wrong == 0 ? 0 : 1;
  }

  Lifecycle life(make_workload(args.workload, args.seed), args.trace, origin);
  const Workload& w = life.workload();
  std::cerr << "workload " << w.name << " seed " << w.seed << ": " << w.summary
            << "; " << w.mix.size() << " distinct mix queries, "
            << w.serves_per_pass << " serves per pass, tail p"
            << w.tail_percentile << "\n";
  const mvd::ServeOptions defaults;
  std::cerr << "program defaults: engine " << mvd::exec_mode_name(defaults.mode)
            << ", exec threads " << defaults.threads << ", refresh "
            << mvd::to_string(mvd::default_refresh_mode()) << ", hardware threads "
            << std::thread::hardware_concurrency() << "\n";

  life.setup();
  life.run(args.seconds);
  life.final_checks();

  // The oracle must be able to fail: its self-test runs every check on
  // corrupted inputs, in every run.
  const int selftest_wrong = oracle_selftest(std::cerr);

  const bool correct = life.verdicts().ok() && selftest_wrong == 0;
  for (const std::string& why : life.verdicts().reasons()) {
    std::cerr << "INCORRECT: " << why << "\n";
  }
  if (selftest_wrong != 0) std::cerr << "INCORRECT: oracle selftest failed\n";

  const std::vector<Metric> e2e = life.end_to_end();
  log_metrics("end-to-end", e2e);
  std::vector<Metric> reported = e2e;
  if (args.trace) {
    reported = life.per_layer();
    log_metrics("per-layer", reported);
    std::cerr << "serve latency p50 " << median(life.layer_samples().serve_latency_ms)
              << " ms (parse + serve_on), ServeResult::latency_ms p50 "
              << median(life.layer_samples().reported_latency_ms) << " ms\n";
    std::cerr << "self time by span (ms):\n";
    for (const auto& [name, ms] : life.spans().self_time_ms()) {
      std::cerr << "  " << name << " " << ms << "\n";
    }
    if (!args.trace_dir.empty()) {
      const std::string path = args.trace_dir + "/" + w.name + "-seed" +
                               std::to_string(w.seed) + ".json";
      std::ofstream out(path);
      out << life.spans().chrome_json();
      if (!out) throw std::runtime_error("cannot write " + path);
      std::cerr << "trace: " << path << "\n";
    }
  }
  std::cout << result_json(correct, life.attempted(), life.failed(), reported)
            << std::endl;
  return 0;
}

}  // namespace
}  // namespace lcb

int main(int argc, char** argv) {
  try {
    return lcb::run(lcb::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "lifecycle_bench: " << e.what() << "\n";
    return 2;
  }
}
