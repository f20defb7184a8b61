#include "src/exec/vectorized.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_map>

#include "src/algebra/eval.hpp"
#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/common/hash.hpp"
#include "src/common/parallel.hpp"
#include "src/exec/exec_internal.hpp"
#include "src/exec/fused.hpp"
#include "src/exec/vec_internal.hpp"
#include "src/obs/trace.hpp"

namespace mvd {

std::shared_ptr<const ColumnTable> ColumnTableCache::get(const Table& table) {
  auto it = cache_.find(&table);
  if (it != cache_.end() && it->second.rows == table.row_count()) {
    return it->second.data;
  }
  auto data =
      std::make_shared<const ColumnTable>(ColumnTable::from_table(table));
  cache_[&table] = {table.row_count(), data};
  return data;
}

namespace {

class VectorizedEngine {
 public:
  VectorizedEngine(const Database& db, ExecStats* stats, std::size_t threads,
                   ColumnTableCache& cache, bool fused)
      : db_(&db),
        stats_(stats),
        threads_(threads),
        cache_(&cache),
        fused_(fused) {}

  Table run(const PlanPtr& plan) {
    MVD_ASSERT(plan != nullptr);
    if (fused_) {
      for (FusedSegment& seg : fused_segments(plan)) {
        chains_.emplace(seg.head.get(), std::move(seg.chain));
      }
    }
    Table out = sink(node(plan));
    if (counters_enabled() && stats_ != nullptr) {
      publish_op_tallies(fused_ ? "fused" : "vec", op_blocks_, op_rows_);
    }
    return out;
  }

 private:
  const VecRel& node(const PlanPtr& plan) {
    if (auto it = memo_.find(plan.get()); it != memo_.end()) {
      return it->second;
    }
    if (fused_) {
      const auto seg = chains_.find(plan.get());
      if (seg != chains_.end() && seg->second.has_value()) {
        const FusedChain& chain = *seg->second;
        const VecRel& src = node(chain.source);
        VecRel result =
            run_fused_chain(chain, src, threads_, stats_, op_blocks_,
                            op_rows_);
        return memo_.emplace(plan.get(), std::move(result)).first->second;
      }
      if (plan->kind() == OpKind::kSelect && counters_enabled()) {
        MetricsRegistry::global().counter("exec/kernel/fallbacks").add(1);
      }
    }
    // Children first (same order as the switch below used to evaluate
    // them), so the operator's span and per-op tallies cover its own
    // work only.
    std::vector<const VecRel*> in;
    in.reserve(plan->children().size());
    for (const PlanPtr& c : plan->children()) in.push_back(&node(c));

    const double blocks0 = stats_ != nullptr ? stats_->blocks_read : 0;
    const double rows0 = stats_ != nullptr ? stats_->rows_scanned : 0;
    const double batches0 = stats_ != nullptr ? stats_->batches : 0;
    TraceSpan span("exec.vec", kExecOpNames[static_cast<std::size_t>(
                                   plan->kind())]);
    VecRel result;
    switch (plan->kind()) {
      case OpKind::kScan:
        result = scan(static_cast<const ScanOp&>(*plan));
        break;
      case OpKind::kSelect:
        result = select(static_cast<const SelectOp&>(*plan), *in[0]);
        break;
      case OpKind::kProject:
        result = project(static_cast<const ProjectOp&>(*plan), *in[0]);
        break;
      case OpKind::kJoin:
        result = join(static_cast<const JoinOp&>(*plan), *in[0], *in[1]);
        break;
      case OpKind::kAggregate:
        result = aggregate(static_cast<const AggregateOp&>(*plan), *in[0]);
        break;
    }
    if (stats_ != nullptr) {
      stats_->rows_out[plan->label()] =
          static_cast<double>(result.active_rows());
      const auto k = static_cast<std::size_t>(plan->kind());
      op_blocks_[k] += stats_->blocks_read - blocks0;
      op_rows_[k] += stats_->rows_scanned - rows0;
    }
    if (span.active()) {
      span.arg("label", plan->label());
      span.arg("rows_out", static_cast<double>(result.active_rows()));
      if (stats_ != nullptr) {
        span.arg("blocks_read", stats_->blocks_read - blocks0);
        span.arg("rows_scanned", stats_->rows_scanned - rows0);
        span.arg("morsels", stats_->batches - batches0);
      }
    }
    return memo_.emplace(plan.get(), std::move(result)).first->second;
  }

  VecRel scan(const ScanOp& op) {
    const Table& src = db_->table(op.relation());
    if (src.schema().size() != op.output_schema().size()) {
      throw ExecError("stored table '" + op.relation() +
                      "' does not match the scan schema");
    }
    VecRel r;
    r.data = cache_->get(src);
    // Rebinding to the plan's (qualified) schema is free: only the
    // logical schema changes, the arrays are shared.
    for (std::size_t c = 0; c < src.schema().size(); ++c) {
      if (column_kind(op.output_schema().at(c).type) != r.data->kind(c)) {
        throw ExecError("stored table '" + op.relation() +
                        "' does not match the scan schema");
      }
    }
    r.identity = true;
    r.cols.resize(src.schema().size());
    std::iota(r.cols.begin(), r.cols.end(), std::size_t{0});
    r.schema = op.output_schema();
    r.blocking_factor = src.blocking_factor();
    if (stats_ != nullptr) {
      stats_->blocks_read += src.blocks();
      stats_->rows_scanned += static_cast<double>(src.row_count());
      stats_->batches += static_cast<double>(morsel_count(src.row_count()));
    }
    return r;
  }

  /// Morsel-parallel filter of `in`'s active rows; per-morsel survivors
  /// are concatenated in morsel order, so the result is independent of
  /// the thread count.
  std::vector<std::uint32_t> filter_rows(const VecRel& in,
                                         const CompiledExpr& pred) {
    const std::size_t n = in.active_rows();
    const std::size_t morsels = morsel_count(n);
    std::vector<std::vector<std::uint32_t>> parts(morsels);
    parallel_shards(morsels, threads_,
                    [&](std::size_t, std::size_t mb, std::size_t me) {
                      WorkerProbe wp(vec_worker_track(), "filter");
                      for (std::size_t m = mb; m < me; ++m) {
                        const std::size_t lo = m * kMorselRows;
                        const std::size_t hi = std::min(n, lo + kMorselRows);
                        std::vector<std::uint32_t> part;
                        part.reserve(hi - lo);
                        for (std::size_t i = lo; i < hi; ++i) {
                          part.push_back(in.physical(i));
                        }
                        pred.filter_batch(*in.data, in.cols, part);
                        parts[m] = std::move(part);
                      }
                    });
    std::size_t total = 0;
    for (const auto& p : parts) total += p.size();
    std::vector<std::uint32_t> sel;
    sel.reserve(total);
    for (const auto& p : parts) sel.insert(sel.end(), p.begin(), p.end());
    return sel;
  }

  VecRel select(const SelectOp& op, const VecRel& in) {
    const CompiledExpr pred(op.predicate(), in.schema);
    VecRel r;
    r.data = in.data;
    r.identity = false;
    r.sel = filter_rows(in, pred);
    r.cols = in.cols;
    r.schema = in.schema;
    r.blocking_factor = in.blocking_factor;
    if (stats_ != nullptr) {
      stats_->blocks_read += in.blocks();
      stats_->rows_scanned += static_cast<double>(in.active_rows());
      stats_->batches += static_cast<double>(morsel_count(in.active_rows()));
    }
    return r;
  }

  VecRel project(const ProjectOp& op, const VecRel& in) {
    // Pure column remap: no data movement, no row movement.
    VecRel r;
    r.data = in.data;
    r.identity = in.identity;
    r.sel = in.sel;
    r.schema = op.output_schema();
    r.blocking_factor = in.blocking_factor;
    r.cols.reserve(op.columns().size());
    for (const std::string& c : op.columns()) {
      r.cols.push_back(in.cols[in.schema.index_of(c)]);
    }
    return r;
  }

  /// Compact matched (left, right) physical row pairs into a fresh
  /// ColumnTable under the join's output schema, gathering column by
  /// column (columns are independent, so the gather parallelizes without
  /// affecting the output).
  VecRel gather_join(const JoinOp& op, const VecRel& left, const VecRel& right,
                     const std::vector<std::uint32_t>& lrows,
                     const std::vector<std::uint32_t>& rrows) {
    auto data = std::make_shared<ColumnTable>(op.output_schema(),
                                              left.blocking_factor);
    const std::size_t nl = left.schema.size();
    const std::size_t total_cols = nl + right.schema.size();
    parallel_for_each_index(total_cols, threads_, [&](std::size_t c) {
      WorkerProbe wp(vec_worker_track(), "join-gather");
      if (c < nl) {
        data->append_gather(c, *left.data, left.cols[c], lrows.data(),
                            lrows.size());
      } else {
        data->append_gather(c, *right.data, right.cols[c - nl], rrows.data(),
                            rrows.size());
      }
    });
    data->set_row_count(lrows.size());
    VecRel r;
    r.data = std::move(data);
    r.identity = true;
    r.cols.resize(total_cols);
    std::iota(r.cols.begin(), r.cols.end(), std::size_t{0});
    r.schema = op.output_schema();
    r.blocking_factor = left.blocking_factor;
    return r;
  }

  /// The interpreted equi-join: hash key columns morsel-parallel, insert
  /// serially in active order (deterministic chain order), probe
  /// morsel-parallel with matches concatenated in morsel order.
  JoinPairs hash_join_pairs(const VecRel& build,
                            const std::vector<std::size_t>& build_keys,
                            const VecRel& probe,
                            const std::vector<std::size_t>& probe_keys) {
    const std::size_t nb = build.active_rows();
    std::vector<std::uint64_t> build_hash(nb);
    parallel_shards(morsel_count(nb), threads_,
                    [&](std::size_t, std::size_t mb, std::size_t me) {
                      WorkerProbe wp(vec_worker_track(), "join-build-hash");
                      const std::size_t lo = mb * kMorselRows;
                      const std::size_t hi = std::min(nb, me * kMorselRows);
                      for (std::size_t i = lo; i < hi; ++i) {
                        build_hash[i] = column_hash_keys(
                            *build.data, build_keys, build.physical(i));
                      }
                    });
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> table;
    table.reserve(nb);
    for (std::size_t i = 0; i < nb; ++i) {
      table[build_hash[i]].push_back(build.physical(i));
    }

    const std::size_t np = probe.active_rows();
    const std::size_t pm = morsel_count(np);
    std::vector<JoinPairs> chunks(pm);
    parallel_shards(
        pm, threads_, [&](std::size_t, std::size_t mb, std::size_t me) {
          WorkerProbe wp(vec_worker_track(), "join-probe");
          for (std::size_t m = mb; m < me; ++m) {
            const std::size_t lo = m * kMorselRows;
            const std::size_t hi = std::min(np, lo + kMorselRows);
            JoinPairs& ch = chunks[m];
            for (std::size_t i = lo; i < hi; ++i) {
              const std::uint32_t pr = probe.physical(i);
              const auto it = table.find(
                  column_hash_keys(*probe.data, probe_keys, pr));
              if (it == table.end()) continue;
              for (const std::uint32_t br : it->second) {
                if (column_keys_equal(*probe.data, probe_keys, pr,
                                      *build.data, build_keys, br)) {
                  ch.probe_rows.push_back(pr);
                  ch.build_rows.push_back(br);
                }
              }
            }
          }
        });
    JoinPairs out;
    std::size_t total = 0;
    for (const JoinPairs& ch : chunks) total += ch.probe_rows.size();
    out.probe_rows.reserve(total);
    out.build_rows.reserve(total);
    for (const JoinPairs& ch : chunks) {
      out.probe_rows.insert(out.probe_rows.end(), ch.probe_rows.begin(),
                            ch.probe_rows.end());
      out.build_rows.insert(out.build_rows.end(), ch.build_rows.begin(),
                            ch.build_rows.end());
    }
    return out;
  }

  VecRel join(const JoinOp& op, const VecRel& left, const VecRel& right) {
    const JoinSplit split =
        split_join_predicate(op, left.schema, right.schema);
    std::vector<std::uint32_t> lrows, rrows;

    if (!split.equi.empty()) {
      // Build on the smaller side, probe with the larger.
      const bool build_right = right.active_rows() <= left.active_rows();
      const VecRel& build = build_right ? right : left;
      const VecRel& probe = build_right ? left : right;
      std::vector<std::size_t> build_keys, probe_keys;  // physical cols
      for (const auto& [li, ri] : split.equi) {
        build_keys.push_back(build_right ? right.cols[ri] : left.cols[li]);
        probe_keys.push_back(build_right ? left.cols[li] : right.cols[ri]);
      }

      const std::size_t nb = build.active_rows();
      const std::size_t np = probe.active_rows();
      JoinPairs pairs;
      if (fused_ && fused_join_keys_ok(*build.data, build_keys, *probe.data,
                                       probe_keys)) {
        // Packed-key kernel path: emits (probe, build) pairs in exactly
        // the interpreted engine's order (insertion-ordered per-key
        // chains, probe in morsel order).
        pairs = run_fused_join(build, build_keys, probe, probe_keys, threads_);
      } else {
        if (fused_ && counters_enabled()) {
          MetricsRegistry::global().counter("exec/kernel/fallbacks").add(1);
        }
        pairs = hash_join_pairs(build, build_keys, probe, probe_keys);
      }
      lrows = build_right ? std::move(pairs.probe_rows)
                          : std::move(pairs.build_rows);
      rrows = build_right ? std::move(pairs.build_rows)
                          : std::move(pairs.probe_rows);
      if (stats_ != nullptr) {
        stats_->blocks_read += left.blocks() + right.blocks();
        stats_->rows_scanned +=
            static_cast<double>(left.active_rows() + right.active_rows());
        stats_->batches +=
            static_cast<double>(morsel_count(nb) + morsel_count(np));
      }
      VecRel out = gather_join(op, left, right, lrows, rrows);
      if (!split.residual.empty()) {
        std::vector<ExprPtr> preds = split.residual;
        const CompiledExpr residual(conj(std::move(preds)), out.schema);
        out.sel = filter_rows(out, residual);
        out.identity = false;
      }
      return out;
    }

    // Nested loop (cross product or theta join): the rare fallback, kept
    // row-at-a-time — it is O(n*m) regardless of layout.
    const Schema joint = op.output_schema();
    const CompiledExpr pred(op.predicate(), joint);
    const std::size_t nl = left.schema.size();
    for (std::size_t i = 0; i < left.active_rows(); ++i) {
      const std::uint32_t lr = left.physical(i);
      Tuple joined(joint.size());
      for (std::size_t c = 0; c < nl; ++c) {
        joined[c] = left.data->value_at(lr, left.cols[c]);
      }
      for (std::size_t j = 0; j < right.active_rows(); ++j) {
        const std::uint32_t rr = right.physical(j);
        for (std::size_t c = 0; c < right.schema.size(); ++c) {
          joined[nl + c] = right.data->value_at(rr, right.cols[c]);
        }
        if (pred.matches(joined)) {
          lrows.push_back(lr);
          rrows.push_back(rr);
        }
      }
    }
    if (stats_ != nullptr) {
      // Outer = the smaller input, matching CostModel::join_op_cost.
      const double outer = std::min(left.blocks(), right.blocks());
      const double inner = std::max(left.blocks(), right.blocks());
      stats_->blocks_read += outer + outer * inner;
      stats_->rows_scanned +=
          static_cast<double>(left.active_rows() + right.active_rows());
      stats_->batches += 1;
    }
    return gather_join(op, left, right, lrows, rrows);
  }

  VecRel aggregate(const AggregateOp& op, const VecRel& in) {
    std::vector<std::size_t> group_cols;
    for (const std::string& g : op.group_by()) {
      group_cols.push_back(in.cols[in.schema.index_of(g)]);
    }
    std::vector<std::size_t> agg_cols;  // SIZE_MAX for COUNT(*)
    for (const AggSpec& a : op.aggregates()) {
      agg_cols.push_back(a.column.empty()
                             ? SIZE_MAX
                             : in.cols[in.schema.index_of(a.column)]);
    }

    const std::size_t n = in.active_rows();
    const std::size_t morsels = morsel_count(n);
    const ColumnTable& data = *in.data;

    if (fused_ && fused_aggregate_ok(op, data, group_cols, agg_cols)) {
      VecRel r = run_fused_aggregate(op, in, group_cols, agg_cols, threads_);
      if (stats_ != nullptr) {
        stats_->rows_scanned += static_cast<double>(n);
        stats_->batches += static_cast<double>(morsels);
      }
      return r;
    }
    if (fused_ && counters_enabled()) {
      MetricsRegistry::global().counter("exec/kernel/fallbacks").add(1);
    }

    const auto pack_key = [&](std::string& key, std::uint32_t r) {
      key.clear();
      for (const std::size_t c : group_cols) {
        switch (data.kind(c)) {
          case ColumnKind::kInt64Col:
            append_packed_f64(key, static_cast<double>(data.i64(c)[r]));
            break;
          case ColumnKind::kDoubleCol:
            append_packed_f64(key, data.f64(c)[r]);
            break;
          case ColumnKind::kStringCol:
            append_packed_str(key, data.str(c)[r]);
            break;
          case ColumnKind::kBoolCol:
            append_packed_bool(key, data.b8(c)[r] != 0);
            break;
        }
      }
    };

    std::vector<std::string> keys;
    std::vector<std::uint32_t> first_row;
    std::vector<std::vector<Accumulator>> accs;
    std::unordered_map<std::string, std::size_t> index;

    if (threads_ <= 1 || morsels <= 1) {
      // Single pass straight into the global table. Output order is the
      // global first-seen order — exactly what the morsel-order merge
      // below produces, so both paths are interchangeable.
      std::string key;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t r = in.physical(i);
        pack_key(key, r);
        auto [it, inserted] = index.try_emplace(key, keys.size());
        if (inserted) {
          keys.push_back(key);
          first_row.push_back(r);
          accs.emplace_back(op.aggregates().size());
        }
        std::vector<Accumulator>& ga = accs[it->second];
        for (std::size_t a = 0; a < agg_cols.size(); ++a) {
          ga[a].feed(agg_cols[a] == SIZE_MAX ? Value::int64(1)
                                             : data.value_at(r, agg_cols[a]));
        }
      }
    } else {
      // Per-morsel hash aggregation over packed keys, first-seen order.
      struct Partial {
        std::vector<std::string> keys;
        std::vector<std::uint32_t> first_row;  // physical row of first hit
        std::vector<std::vector<Accumulator>> accs;
        std::unordered_map<std::string, std::size_t> index;
      };
      std::vector<Partial> partials(morsels);
      parallel_shards(
          morsels, threads_, [&](std::size_t, std::size_t mb, std::size_t me) {
            WorkerProbe wp(vec_worker_track(), "aggregate-partial");
            std::string key;
            for (std::size_t m = mb; m < me; ++m) {
              const std::size_t lo = m * kMorselRows;
              const std::size_t hi = std::min(n, lo + kMorselRows);
              Partial& p = partials[m];
              for (std::size_t i = lo; i < hi; ++i) {
                const std::uint32_t r = in.physical(i);
                pack_key(key, r);
                auto [it, inserted] = p.index.try_emplace(key, p.keys.size());
                if (inserted) {
                  p.keys.push_back(key);
                  p.first_row.push_back(r);
                  p.accs.emplace_back(op.aggregates().size());
                }
                std::vector<Accumulator>& pa = p.accs[it->second];
                for (std::size_t a = 0; a < agg_cols.size(); ++a) {
                  pa[a].feed(agg_cols[a] == SIZE_MAX
                                 ? Value::int64(1)
                                 : data.value_at(r, agg_cols[a]));
                }
              }
            }
          });

      // Merge partials in morsel order: global first-seen order equals
      // the serial order, independent of the thread count.
      for (Partial& p : partials) {
        for (std::size_t g = 0; g < p.keys.size(); ++g) {
          auto [it, inserted] = index.try_emplace(p.keys[g], keys.size());
          if (inserted) {
            keys.push_back(std::move(p.keys[g]));
            first_row.push_back(p.first_row[g]);
            accs.push_back(std::move(p.accs[g]));
          } else {
            std::vector<Accumulator>& into = accs[it->second];
            for (std::size_t a = 0; a < into.size(); ++a) {
              into[a].merge(p.accs[g][a]);
            }
          }
        }
      }
    }
    // SQL semantics: a global aggregate over an empty input yields one
    // row.
    const bool empty_global = keys.empty() && op.group_by().empty();

    const Schema& os = op.output_schema();
    auto out = std::make_shared<ColumnTable>(os, in.blocking_factor);
    const std::size_t ngroups = empty_global ? 1 : keys.size();
    const std::vector<Accumulator> empty_accs(op.aggregates().size());
    for (std::size_t g = 0; g < ngroups; ++g) {
      for (std::size_t k = 0; k < group_cols.size(); ++k) {
        out->append_value(k, data.value_at(first_row[g], group_cols[k]));
      }
      const std::vector<Accumulator>& ga = empty_global ? empty_accs : accs[g];
      for (std::size_t a = 0; a < ga.size(); ++a) {
        out->append_value(group_cols.size() + a,
                          ga[a].result(op.aggregates()[a].fn,
                                       os.at(group_cols.size() + a).type));
      }
    }
    out->set_row_count(ngroups);

    if (stats_ != nullptr) {
      stats_->rows_scanned += static_cast<double>(n);
      stats_->batches += static_cast<double>(morsels);
    }
    VecRel r;
    r.data = std::move(out);
    r.identity = true;
    r.cols.resize(os.size());
    std::iota(r.cols.begin(), r.cols.end(), std::size_t{0});
    r.schema = os;
    r.blocking_factor = in.blocking_factor;
    return r;
  }

  /// The only tuple materialization in the engine: the final sink.
  Table sink(const VecRel& r) {
    Table out(r.schema, r.blocking_factor);
    const std::size_t n = r.active_rows();
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint32_t pr = r.physical(i);
      Tuple t;
      t.reserve(r.cols.size());
      for (const std::size_t c : r.cols) {
        t.push_back(r.data->value_at(pr, c));
      }
      out.append(std::move(t));
    }
    return out;
  }

  const Database* db_;
  ExecStats* stats_;
  std::size_t threads_;
  ColumnTableCache* cache_;
  bool fused_ = false;
  /// Segment heads of the fused walk -> their chain (nullopt: refused).
  std::map<const LogicalOp*, std::optional<FusedChain>> chains_;
  std::map<const LogicalOp*, VecRel> memo_;
  /// Per-operator work tallies (indexed by OpKind), flushed once at the
  /// end of run() under the same names as the row engine.
  double op_blocks_[kExecOpKinds] = {};
  double op_rows_[kExecOpKinds] = {};
};

}  // namespace

Table run_vectorized(const Database& db, const PlanPtr& plan, ExecStats* stats,
                     std::size_t threads, ColumnTableCache& cache,
                     bool fused) {
  VectorizedEngine engine(db, stats, threads, cache, fused);
  return engine.run(plan);
}

}  // namespace mvd
