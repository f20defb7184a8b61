#include "src/exec/executor.hpp"

#include <algorithm>
#include <cstdlib>
#include <unordered_map>

#include "src/algebra/eval.hpp"
#include "src/check/check.hpp"
#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/common/strings.hpp"
#include "src/exec/exec_internal.hpp"
#include "src/exec/vectorized.hpp"
#include "src/obs/publish.hpp"
#include "src/obs/trace.hpp"

namespace mvd {

/// Per-run row-engine state. Per-operator block/row tallies accumulate
/// locally (no registry traffic inside the plan walk) and flush once at
/// the end of run().
struct Executor::RunContext {
  std::map<const LogicalOp*, TableRef> memo;
  double op_blocks[kExecOpKinds] = {};
  double op_rows[kExecOpKinds] = {};
};

void publish_op_tallies(const char* engine, const double* blocks,
                        const double* rows) {
  MetricsRegistry& reg = MetricsRegistry::global();
  for (std::size_t k = 0; k < kExecOpKinds; ++k) {
    reg.counter(str_cat("exec/op/", kExecOpNames[k], "/blocks_read"))
        .add(blocks[k]);
    reg.counter(str_cat("exec/op/", kExecOpNames[k], "/rows_scanned"))
        .add(rows[k]);
    reg.counter(str_cat("exec/", engine, "/op/", kExecOpNames[k],
                        "/blocks_read"))
        .add(blocks[k]);
    reg.counter(str_cat("exec/", engine, "/op/", kExecOpNames[k],
                        "/rows_scanned"))
        .add(rows[k]);
  }
}

const char* exec_mode_name(ExecMode mode) {
  switch (mode) {
    case ExecMode::kFused:
      return "fused";
    case ExecMode::kVectorized:
      return "vec";
    case ExecMode::kRow:
      break;
  }
  return "row";
}

ExecMode default_exec_mode() {
  ExecMode mode = ExecMode::kRow;
  if (const char* env = std::getenv("MVD_EXEC_MODE")) {
    const std::string m(env);
    if (m == "vectorized" || m == "vec") mode = ExecMode::kVectorized;
    if (m == "fused") mode = ExecMode::kFused;
  }
  return mode;
}

std::size_t default_exec_threads() {
  const char* env = std::getenv("MVD_EXEC_THREADS");
  if (env == nullptr) return 1;
  char* end = nullptr;
  const unsigned long n = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0') return 1;
  return static_cast<std::size_t>(n);
}

std::size_t default_exec_shards() {
  const char* env = std::getenv("MVD_EXEC_SHARDS");
  if (env == nullptr) return 0;
  char* end = nullptr;
  const unsigned long n = std::strtoul(env, &end, 10);
  if (end == env || *end != '\0') return 0;
  return static_cast<std::size_t>(n);
}

Executor::Executor(const Database& db, ExecMode mode, std::size_t threads)
    : db_(&db),
      mode_(mode),
      threads_(threads),
      column_cache_(mode != ExecMode::kRow
                        ? std::make_shared<ColumnTableCache>()
                        : nullptr) {}

Executor::Executor(std::shared_ptr<const Database> db, ExecMode mode,
                   std::size_t threads)
    : Executor(*db, mode, threads) {
  pinned_ = std::move(db);
}

Table Executor::run(const PlanPtr& plan, ExecStats* stats) const {
  MVD_ASSERT(plan != nullptr);
  // Static pre-flight (MVD_CHECK=off|warn|error): reject plans that would
  // die row-by-row before any engine touches data.
  check_stage_hook("exec", plan, db_);
  // With counters on, always account into an ExecStats — the registry
  // sees the same numbers whether or not the caller asked for a copy.
  const bool publish = counters_enabled();
  ExecStats local;
  ExecStats* s = stats;
  if (publish && s == nullptr) s = &local;

  // Callers may pass an accumulator that is already non-zero; the engines
  // only add, so the entry values subtract out to this run's deltas.
  const double blocks0 = s != nullptr ? s->blocks_read : 0;
  const double rows0 = s != nullptr ? s->rows_scanned : 0;
  const double batches0 = s != nullptr ? s->batches : 0;

  const char* engine = exec_mode_name(mode_);
  TraceSpan span("exec", mode_ == ExecMode::kFused        ? "fused-run"
                         : mode_ == ExecMode::kVectorized ? "vec-run"
                                                          : "row-run");
  Table out = [&] {
    if (mode_ != ExecMode::kRow) {
      return run_vectorized(*db_, plan, s, threads_, *column_cache_,
                            mode_ == ExecMode::kFused);
    }
    RunContext ctx;
    Table t = *run_node(plan, s, ctx);
    if (publish) publish_op_tallies(engine, ctx.op_blocks, ctx.op_rows);
    return t;
  }();
  if (span.active()) {
    span.arg("rows_out", static_cast<double>(out.row_count()));
    if (s != nullptr) {
      span.arg("blocks_read", s->blocks_read - blocks0);
      span.arg("rows_scanned", s->rows_scanned - rows0);
    }
  }
  if (publish && s != nullptr) {
    ExecStats run_stats;
    run_stats.blocks_read = s->blocks_read - blocks0;
    run_stats.rows_scanned = s->rows_scanned - rows0;
    run_stats.batches = s->batches - batches0;
    publish_exec_stats(run_stats, engine);
  }
  return out;
}

Executor::TableRef Executor::run_node(const PlanPtr& plan, ExecStats* stats,
                                      RunContext& ctx) const {
  if (auto it = ctx.memo.find(plan.get()); it != ctx.memo.end()) {
    return it->second;
  }
  // Children first (left to right, as before), so the operator's span and
  // per-operator tallies cover only its own work.
  std::vector<TableRef> in;
  in.reserve(plan->children().size());
  for (const PlanPtr& c : plan->children()) {
    in.push_back(run_node(c, stats, ctx));
  }

  const double blocks0 = stats != nullptr ? stats->blocks_read : 0;
  const double rows0 = stats != nullptr ? stats->rows_scanned : 0;
  TraceSpan span("exec.row", kExecOpNames[static_cast<std::size_t>(
                                 plan->kind())]);
  TableRef result;
  switch (plan->kind()) {
    case OpKind::kScan:
      result = exec_scan(static_cast<const ScanOp&>(*plan), stats);
      break;
    case OpKind::kSelect:
      result = exec_select(static_cast<const SelectOp&>(*plan), in[0], stats);
      break;
    case OpKind::kProject:
      result = exec_project(static_cast<const ProjectOp&>(*plan), in[0]);
      break;
    case OpKind::kJoin:
      result = exec_join(static_cast<const JoinOp&>(*plan), in[0], in[1],
                         stats);
      break;
    case OpKind::kAggregate:
      result = exec_aggregate(static_cast<const AggregateOp&>(*plan), in[0],
                              stats);
      break;
  }
  MVD_ASSERT(result != nullptr);
  if (stats != nullptr) {
    stats->rows_out[plan->label()] = static_cast<double>(result->row_count());
    const auto k = static_cast<std::size_t>(plan->kind());
    ctx.op_blocks[k] += stats->blocks_read - blocks0;
    ctx.op_rows[k] += stats->rows_scanned - rows0;
  }
  if (span.active()) {
    span.arg("label", plan->label());
    span.arg("rows_out", static_cast<double>(result->row_count()));
    if (stats != nullptr) {
      span.arg("blocks_read", stats->blocks_read - blocks0);
      span.arg("rows_scanned", stats->rows_scanned - rows0);
    }
  }
  ctx.memo.emplace(plan.get(), result);
  return result;
}

Executor::TableRef Executor::exec_scan(const ScanOp& op,
                                       ExecStats* stats) const {
  const Table& src = db_->table(op.relation());
  if (stats != nullptr) {
    stats->blocks_read += src.blocks();
    stats->rows_scanned += static_cast<double>(src.row_count());
    stats->batches += 1;
  }
  if (src.schema().size() != op.output_schema().size()) {
    throw ExecError("stored table '" + op.relation() +
                    "' does not match the scan schema");
  }
  // When the stored schema already matches the plan's, alias the stored
  // table instead of copying it (the database outlives the run). Stored
  // views read back through named scans hit this path every time.
  if (src.schema() == op.output_schema()) {
    return TableRef(TableRef{}, &src);
  }
  // Otherwise rebind under the plan's (qualified) schema so downstream
  // binding by qualified name works even when the stored table has bare
  // names — one bulk row copy, types validated per column.
  return std::make_shared<Table>(Table::rebind(op.output_schema(), src));
}

Executor::TableRef Executor::exec_select(const SelectOp& op,
                                         const TableRef& in,
                                         ExecStats* stats) const {
  if (stats != nullptr) {
    stats->blocks_read += in->blocks();
    stats->rows_scanned += static_cast<double>(in->row_count());
    stats->batches += 1;
  }
  const CompiledExpr pred(op.predicate(), in->schema());
  auto out = std::make_shared<Table>(in->schema(), in->blocking_factor());
  for (const Tuple& t : in->rows()) {
    if (pred.matches(t)) out->append(t);
  }
  return out;
}

Executor::TableRef Executor::exec_project(const ProjectOp& op,
                                          const TableRef& in) const {
  std::vector<std::size_t> indices;
  indices.reserve(op.columns().size());
  for (const std::string& c : op.columns()) {
    indices.push_back(in->schema().index_of(c));
  }
  auto out = std::make_shared<Table>(op.output_schema(), in->blocking_factor());
  for (const Tuple& t : in->rows()) {
    Tuple projected;
    projected.reserve(indices.size());
    for (std::size_t i : indices) projected.push_back(t[i]);
    out->append(std::move(projected));
  }
  return out;
}

Executor::TableRef Executor::exec_join(const JoinOp& op, const TableRef& left,
                                       const TableRef& right,
                                       ExecStats* stats) const {
  const Schema& ls = left->schema();
  const Schema& rs = right->schema();
  const JoinSplit split = split_join_predicate(op, ls, rs);

  auto out = std::make_shared<Table>(op.output_schema(),
                                     left->blocking_factor());
  const Schema joint = Schema::concat(ls, rs);
  std::unique_ptr<CompiledExpr> residual;
  if (!split.residual.empty()) {
    std::vector<ExprPtr> preds = split.residual;
    residual = std::make_unique<CompiledExpr>(conj(std::move(preds)), joint);
  }

  auto emit = [&](const Tuple& l, const Tuple& r) {
    Tuple joined = l;
    joined.insert(joined.end(), r.begin(), r.end());
    if (residual == nullptr || residual->matches(joined)) {
      out->append(std::move(joined));
    }
  };

  if (stats != nullptr) {
    stats->rows_scanned +=
        static_cast<double>(left->row_count() + right->row_count());
    stats->batches += 2;
  }
  if (!split.equi.empty()) {
    // Build on the smaller side, probe with the larger.
    const bool build_right = right->row_count() <= left->row_count();
    const Table& build = build_right ? *right : *left;
    const Table& probe = build_right ? *left : *right;
    std::vector<std::size_t> build_idx, probe_idx;
    for (const auto& [li, ri] : split.equi) {
      build_idx.push_back(build_right ? ri : li);
      probe_idx.push_back(build_right ? li : ri);
    }
    std::unordered_multimap<std::size_t, std::size_t> table;
    table.reserve(build.row_count());
    for (std::size_t i = 0; i < build.row_count(); ++i) {
      table.emplace(tuple_hash_key(build.row(i), build_idx), i);
    }
    for (std::size_t i = 0; i < probe.row_count(); ++i) {
      const Tuple& p = probe.row(i);
      auto [lo, hi] = table.equal_range(tuple_hash_key(p, probe_idx));
      for (auto it = lo; it != hi; ++it) {
        const Tuple& b = build.row(it->second);
        if (!tuple_keys_equal(p, probe_idx, b, build_idx)) continue;
        if (build_right) {
          emit(p, b);
        } else {
          emit(b, p);
        }
      }
    }
    if (stats != nullptr) stats->blocks_read += left->blocks() + right->blocks();
  } else {
    // Nested loop (cross product or theta join).
    for (const Tuple& l : left->rows()) {
      for (const Tuple& r : right->rows()) emit(l, r);
    }
    if (stats != nullptr) {
      // Outer = the smaller input, matching CostModel::join_op_cost (the
      // previous formula charged the left side as outer unconditionally,
      // double-counting whenever the left input was the larger one).
      const double outer = std::min(left->blocks(), right->blocks());
      const double inner = std::max(left->blocks(), right->blocks());
      stats->blocks_read += outer + outer * inner;
    }
  }
  return out;
}

Executor::TableRef Executor::exec_aggregate(const AggregateOp& op,
                                            const TableRef& in,
                                            ExecStats* stats) const {
  if (stats != nullptr) {
    stats->rows_scanned += static_cast<double>(in->row_count());
    stats->batches += 1;
  }
  const Schema& is = in->schema();
  std::vector<std::size_t> group_idx;
  for (const std::string& g : op.group_by()) {
    group_idx.push_back(is.index_of(g));
  }
  std::vector<std::size_t> agg_idx;  // SIZE_MAX for COUNT(*)
  for (const AggSpec& a : op.aggregates()) {
    agg_idx.push_back(a.column.empty() ? SIZE_MAX : is.index_of(a.column));
  }

  // Hash aggregation over packed group keys (see exec_internal.hpp);
  // first-seen order vector keeps the output deterministic.
  struct Group {
    Tuple key_values;
    std::vector<Accumulator> accs;
  };
  std::unordered_map<std::string, std::size_t> index;
  std::vector<Group> groups;
  std::string key;
  for (const Tuple& t : in->rows()) {
    key.clear();
    for (std::size_t gi : group_idx) append_packed_key(key, t[gi]);
    auto [it, inserted] = index.try_emplace(key, groups.size());
    if (inserted) {
      Group g;
      g.key_values.reserve(group_idx.size());
      for (std::size_t gi : group_idx) g.key_values.push_back(t[gi]);
      g.accs.resize(op.aggregates().size());
      groups.push_back(std::move(g));
    }
    std::vector<Accumulator>& accs = groups[it->second].accs;
    for (std::size_t a = 0; a < agg_idx.size(); ++a) {
      accs[a].feed(agg_idx[a] == SIZE_MAX ? Value::int64(1) : t[agg_idx[a]]);
    }
  }
  // SQL semantics: a global aggregate over an empty input yields one row.
  if (groups.empty() && op.group_by().empty()) {
    groups.push_back({Tuple{}, std::vector<Accumulator>(op.aggregates().size())});
  }

  auto out = std::make_shared<Table>(op.output_schema(),
                                     in->blocking_factor());
  const Schema& os = op.output_schema();
  for (const Group& g : groups) {
    Tuple row = g.key_values;
    for (std::size_t a = 0; a < g.accs.size(); ++a) {
      row.push_back(g.accs[a].result(op.aggregates()[a].fn,
                                     os.at(group_idx.size() + a).type));
    }
    out->append(std::move(row));
  }
  return out;
}

bool same_bag(const Table& a, const Table& b) {
  if (a.schema().size() != b.schema().size()) return false;
  if (a.row_count() != b.row_count()) return false;
  auto key = [](const Tuple& t) {
    std::string k;
    for (const Value& v : t) {
      k += v.to_string();
      k += '\x1f';
    }
    return k;
  };
  std::map<std::string, int> counts;
  for (const Tuple& t : a.rows()) counts[key(t)]++;
  for (const Tuple& t : b.rows()) {
    if (--counts[key(t)] < 0) return false;
  }
  return true;
}

}  // namespace mvd
