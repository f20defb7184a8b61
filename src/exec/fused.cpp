#include "src/exec/fused.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "src/common/parallel.hpp"
#include "src/exec/exec_internal.hpp"
#include "src/exec/kernels.hpp"

namespace mvd {

namespace {

bool numeric_kind(ColumnKind k) {
  return k == ColumnKind::kInt64Col || k == ColumnKind::kDoubleCol;
}

/// Compile one conjunct against `schema`, translating column indices
/// through `map` (current logical index -> source logical index). False
/// when the conjunct is not a simple typed comparison the kernels cover;
/// `refusal` then names the first rule that failed.
bool compile_conjunct(const ExprPtr& e, const Schema& schema,
                      const std::vector<std::size_t>& map, FilterStep& out,
                      std::string& refusal) {
  if (e == nullptr) {
    refusal = "empty conjunct";
    return false;
  }
  if (e->kind() != ExprKind::kComparison) {
    refusal = "non-comparison conjunct " + e->to_string() +
              " (OR/NOT/literal predicates run interpreted)";
    return false;
  }
  const auto& c = static_cast<const ComparisonExpr&>(*e);
  const Expr* lhs = c.lhs().get();
  const Expr* rhs = c.rhs().get();
  CompareOp op = c.op();
  if (lhs->kind() == ExprKind::kLiteral && rhs->kind() == ExprKind::kColumn) {
    std::swap(lhs, rhs);
    op = flip(op);
  }
  if (lhs->kind() != ExprKind::kColumn) {
    refusal = "conjunct " + e->to_string() + " has no column operand";
    return false;
  }
  // An unresolved column runs interpreted, which raises the BindError.
  const std::string& lname = static_cast<const ColumnExpr&>(*lhs).name();
  const auto li = schema.find(lname);
  if (!li.has_value()) {
    refusal = "column '" + lname + "' absent from the chain input";
    return false;
  }
  const ColumnKind lk = column_kind(schema.at(*li).type);
  out.op = op;
  out.lhs_col = map[*li];
  out.lhs_kind = lk;
  if (rhs->kind() == ExprKind::kLiteral) {
    const Value& v = static_cast<const LiteralExpr&>(*rhs).value();
    if (numeric_kind(lk) && is_numeric(v.type())) {
      out.shape = FilterStep::Shape::kNumColLit;
      out.num_lit = v.as_double();
      return true;
    }
    if (lk == ColumnKind::kStringCol && v.type() == ValueType::kString) {
      out.shape = FilterStep::Shape::kStrColLit;
      out.str_lit = v.as_string();
      return true;
    }
    refusal = "mixed-type or boolean comparison " + e->to_string();
    return false;
  }
  if (rhs->kind() != ExprKind::kColumn) {
    refusal = "conjunct " + e->to_string() + " compares non-column operands";
    return false;
  }
  const std::string& rname = static_cast<const ColumnExpr&>(*rhs).name();
  const auto ri = schema.find(rname);
  if (!ri.has_value()) {
    refusal = "column '" + rname + "' absent from the chain input";
    return false;
  }
  const ColumnKind rk = column_kind(schema.at(*ri).type);
  out.rhs_col = map[*ri];
  out.rhs_kind = rk;
  if (numeric_kind(lk) && numeric_kind(rk)) {
    out.shape = FilterStep::Shape::kNumColCol;
    return true;
  }
  if (lk == ColumnKind::kStringCol && rk == ColumnKind::kStringCol) {
    out.shape = FilterStep::Shape::kStrColCol;
    return true;
  }
  refusal = "mixed-type or boolean comparison " + e->to_string();
  return false;
}

/// Can `n` join a chain? Projects always; selects only when every
/// conjunct compiles to a typed kernel against the node's input schema.
bool node_fusable(const LogicalOp& n, std::string& refusal) {
  if (n.kind() == OpKind::kProject) return true;
  if (n.kind() != OpKind::kSelect) {
    refusal = "not a select/project";
    return false;
  }
  const auto& sel = static_cast<const SelectOp&>(n);
  const Schema& in = n.children()[0]->output_schema();
  std::vector<std::size_t> identity(in.size());
  std::iota(identity.begin(), identity.end(), std::size_t{0});
  FilterStep scratch;
  for (const ExprPtr& c : conjuncts_of(sel.predicate())) {
    if (!compile_conjunct(c, in, identity, scratch, refusal)) return false;
  }
  return true;
}

void count_uses(const PlanPtr& plan,
                std::map<const LogicalOp*, std::size_t>& counts,
                std::set<const LogicalOp*>& visited) {
  for (const PlanPtr& c : plan->children()) {
    ++counts[c.get()];
    if (visited.insert(c.get()).second) count_uses(c, counts, visited);
  }
}

// ---- Execution-time binding -------------------------------------------

/// Rewrite `(double)v OP lit` over an int64 column into an equivalent
/// pure-int64 comparison (no per-row int→double conversion in the loop).
/// Exact for every int64 v when |lit| < 2^52: int→double conversion is
/// monotone and exact on [-2^52, 2^52], and any |v| > 2^52 lands on the
/// same side of the literal after rounding since |(double)v| >= 2^52 >
/// |lit|. Ordering ops translate through floor/ceil of the literal;
/// equality keeps the double path for non-integral literals.
bool int_cmp_rewrite(CompareOp op, double lit, CompareOp& iop,
                     std::int64_t& ilit) {
  constexpr double kExact = 4503599627370496.0;  // 2^52
  if (!(lit > -kExact && lit < kExact)) return false;  // rejects NaN too
  const double fl = std::floor(lit);
  switch (op) {
    case CompareOp::kGt:  // v > 900.5  <=>  v > 900;  v > 900 unchanged
    case CompareOp::kLe:  // v <= 900.5 <=>  v <= 900
      iop = op;
      ilit = static_cast<std::int64_t>(fl);
      return true;
    case CompareOp::kGe:  // v >= 900.5 <=>  v >= 901
    case CompareOp::kLt:  // v < 900.5  <=>  v < 901
      iop = op;
      ilit = static_cast<std::int64_t>(std::ceil(lit));
      return true;
    case CompareOp::kEq:
    case CompareOp::kNe:
      if (fl != lit) return false;
      iop = op;
      ilit = static_cast<std::int64_t>(lit);
      return true;
  }
  return false;
}

/// A FilterStep bound to raw column arrays of the chain's source table.
/// Exactly one of the lhs pointers is set, per lhs_kind; rhs likewise for
/// column shapes, while literal shapes read num_lit / the str pointer.
struct BoundStep {
  FilterStep::Shape shape = FilterStep::Shape::kNumColLit;
  CompareOp op = CompareOp::kEq;
  const std::int64_t* li = nullptr;
  const double* lf = nullptr;
  const std::string* ls = nullptr;
  const std::int64_t* ri = nullptr;
  const double* rf = nullptr;
  const std::string* rs = nullptr;  // column array or the literal itself
  double num_lit = 0;
  bool use_int = false;  // int64 col-lit comparison rewritten exactly
  CompareOp iop = CompareOp::kEq;
  std::int64_t int_lit = 0;
};

BoundStep bind_step(const FilterStep& f, const VecRel& src) {
  BoundStep b;
  b.shape = f.shape;
  b.op = f.op;
  b.num_lit = f.num_lit;
  if (f.shape == FilterStep::Shape::kNumColLit &&
      f.lhs_kind == ColumnKind::kInt64Col) {
    b.use_int = int_cmp_rewrite(f.op, f.num_lit, b.iop, b.int_lit);
  }
  const ColumnTable& d = *src.data;
  const std::size_t lp = src.cols[f.lhs_col];
  switch (f.lhs_kind) {
    case ColumnKind::kInt64Col:
      b.li = d.i64(lp).data();
      break;
    case ColumnKind::kDoubleCol:
      b.lf = d.f64(lp).data();
      break;
    case ColumnKind::kStringCol:
      b.ls = d.str(lp).data();
      break;
    case ColumnKind::kBoolCol:
      MVD_ASSERT(false);  // the detector never emits bool steps
      break;
  }
  if (f.shape == FilterStep::Shape::kNumColCol ||
      f.shape == FilterStep::Shape::kStrColCol) {
    const std::size_t rp = src.cols[f.rhs_col];
    switch (f.rhs_kind) {
      case ColumnKind::kInt64Col:
        b.ri = d.i64(rp).data();
        break;
      case ColumnKind::kDoubleCol:
        b.rf = d.f64(rp).data();
        break;
      case ColumnKind::kStringCol:
        b.rs = d.str(rp).data();
        break;
      case ColumnKind::kBoolCol:
        MVD_ASSERT(false);
        break;
    }
  } else if (f.shape == FilterStep::Shape::kStrColLit) {
    b.rs = &f.str_lit;  // stable: the chain outlives the run
  }
  return b;
}

/// Filter the dense physical row range [lo, hi) through one bound
/// comparison, emitting surviving ids to `out`. Expands into the
/// monomorphic kernels of kernels.hpp.
std::size_t apply_range_step(const BoundStep& b, std::uint32_t lo,
                             std::uint32_t hi, std::uint32_t* out) {
  switch (b.shape) {
    case FilterStep::Shape::kNumColLit:
      if (b.use_int) {
        return dispatch_filter_range(b.iop, IntColAcc{b.li},
                                     IntLitAcc{b.int_lit}, lo, hi, out);
      }
      if (b.li != nullptr) {
        return dispatch_filter_range(b.op, NumColAcc<std::int64_t>{b.li},
                                     NumLitAcc{b.num_lit}, lo, hi, out);
      }
      return dispatch_filter_range(b.op, NumColAcc<double>{b.lf},
                                   NumLitAcc{b.num_lit}, lo, hi, out);
    case FilterStep::Shape::kNumColCol:
      if (b.li != nullptr && b.ri != nullptr) {
        return dispatch_filter_range(b.op, NumColAcc<std::int64_t>{b.li},
                                     NumColAcc<std::int64_t>{b.ri}, lo, hi,
                                     out);
      }
      if (b.li != nullptr) {
        return dispatch_filter_range(b.op, NumColAcc<std::int64_t>{b.li},
                                     NumColAcc<double>{b.rf}, lo, hi, out);
      }
      if (b.ri != nullptr) {
        return dispatch_filter_range(b.op, NumColAcc<double>{b.lf},
                                     NumColAcc<std::int64_t>{b.ri}, lo, hi,
                                     out);
      }
      return dispatch_filter_range(b.op, NumColAcc<double>{b.lf},
                                   NumColAcc<double>{b.rf}, lo, hi, out);
    case FilterStep::Shape::kStrColLit:
      return dispatch_filter_range(b.op, StrColAcc{b.ls}, StrLitAcc{b.rs}, lo,
                                   hi, out);
    case FilterStep::Shape::kStrColCol:
      return dispatch_filter_range(b.op, StrColAcc{b.ls}, StrColAcc{b.rs}, lo,
                                   hi, out);
  }
  MVD_ASSERT(false);
  return 0;
}

/// Filter `sel[0, n)` through one bound comparison (in place allowed).
std::size_t apply_sel_step(const BoundStep& b, const std::uint32_t* sel,
                           std::size_t n, std::uint32_t* out) {
  switch (b.shape) {
    case FilterStep::Shape::kNumColLit:
      if (b.use_int) {
        return dispatch_filter_sel(b.iop, IntColAcc{b.li},
                                   IntLitAcc{b.int_lit}, sel, n, out);
      }
      if (b.li != nullptr) {
        return dispatch_filter_sel(b.op, NumColAcc<std::int64_t>{b.li},
                                   NumLitAcc{b.num_lit}, sel, n, out);
      }
      return dispatch_filter_sel(b.op, NumColAcc<double>{b.lf},
                                 NumLitAcc{b.num_lit}, sel, n, out);
    case FilterStep::Shape::kNumColCol:
      if (b.li != nullptr && b.ri != nullptr) {
        return dispatch_filter_sel(b.op, NumColAcc<std::int64_t>{b.li},
                                   NumColAcc<std::int64_t>{b.ri}, sel, n, out);
      }
      if (b.li != nullptr) {
        return dispatch_filter_sel(b.op, NumColAcc<std::int64_t>{b.li},
                                   NumColAcc<double>{b.rf}, sel, n, out);
      }
      if (b.ri != nullptr) {
        return dispatch_filter_sel(b.op, NumColAcc<double>{b.lf},
                                   NumColAcc<std::int64_t>{b.ri}, sel, n, out);
      }
      return dispatch_filter_sel(b.op, NumColAcc<double>{b.lf},
                                 NumColAcc<double>{b.rf}, sel, n, out);
    case FilterStep::Shape::kStrColLit:
      return dispatch_filter_sel(b.op, StrColAcc{b.ls}, StrLitAcc{b.rs}, sel,
                                 n, out);
    case FilterStep::Shape::kStrColCol:
      return dispatch_filter_sel(b.op, StrColAcc{b.ls}, StrColAcc{b.rs}, sel,
                                 n, out);
  }
  MVD_ASSERT(false);
  return 0;
}

/// Same accounting as VecRel::blocks() over an arbitrary row count.
double blocks_of(double rows, double blocking_factor) {
  if (rows == 0) return 0;
  return std::max(1.0, std::ceil(rows / blocking_factor));
}

/// One bound numeric key column (join / group keys).
struct NumKeyCol {
  const std::int64_t* i = nullptr;
  const double* f = nullptr;
  double at(std::uint32_t r) const {
    return i != nullptr ? static_cast<double>(i[r]) : f[r];
  }
};

NumKeyCol bind_num_key(const ColumnTable& d, std::size_t c) {
  NumKeyCol k;
  if (d.kind(c) == ColumnKind::kInt64Col) {
    k.i = d.i64(c).data();
  } else {
    k.f = d.f64(c).data();
  }
  return k;
}

/// Pack up to two numeric key cells into a join key; false when any cell
/// is NaN (NaN joins nothing under numeric equality — the interpreted
/// engine's x != y test fails for NaN, so those rows are dropped here).
bool pack_join_key(const NumKeyCol* cols, std::size_t nk, std::uint32_t r,
                   PackedKey& out) {
  const double v0 = cols[0].at(r);
  if (v0 != v0) return false;
  out.a = key_bits_join(v0);
  out.b = 0;
  if (nk == 2) {
    const double v1 = cols[1].at(r);
    if (v1 != v1) return false;
    out.b = key_bits_join(v1);
  }
  return true;
}

}  // namespace

std::map<const LogicalOp*, std::size_t> plan_use_counts(const PlanPtr& plan) {
  std::map<const LogicalOp*, std::size_t> counts;
  std::set<const LogicalOp*> visited;
  counts[plan.get()] = 1;
  count_uses(plan, counts, visited);
  return counts;
}

std::optional<FusedChain> detect_fused_chain(
    const PlanPtr& plan,
    const std::map<const LogicalOp*, std::size_t>& use_count,
    std::string* why) {
  std::string unused;
  std::string& refusal = why != nullptr ? *why : unused;
  refusal.clear();
  if (!node_fusable(*plan, refusal)) return std::nullopt;

  // Downward walk collecting the maximal chain (top-down). An interior
  // node joins only when it is fusable AND has exactly one parent —
  // fusing through a shared node would re-run it once per consumer
  // instead of once per run (and skip its memo entry).
  std::vector<PlanPtr> nodes;
  PlanPtr cur = plan;
  while (true) {
    nodes.push_back(cur);
    const PlanPtr& child = cur->children()[0];
    if (child->kind() != OpKind::kSelect &&
        child->kind() != OpKind::kProject) {
      break;
    }
    const auto it = use_count.find(child.get());
    if (it != use_count.end() && it->second > 1) break;
    std::string ignored;
    if (!node_fusable(*child, ignored)) break;
    cur = child;
  }

  // Bottom-up compile: resolve every column reference down to an index of
  // the source schema, folding project re-maps as they appear.
  FusedChain chain;
  chain.source = nodes.back()->children()[0];
  Schema cur_schema = chain.source->output_schema();
  std::vector<std::size_t> map(cur_schema.size());
  std::iota(map.begin(), map.end(), std::size_t{0});
  for (auto it = nodes.rbegin(); it != nodes.rend(); ++it) {
    const LogicalOp& n = **it;
    FusedStage stage;
    stage.kind = n.kind();
    stage.label = n.label();
    if (n.kind() == OpKind::kSelect) {
      const auto& sel = static_cast<const SelectOp&>(n);
      for (const ExprPtr& c : conjuncts_of(sel.predicate())) {
        FilterStep step;
        if (!compile_conjunct(c, cur_schema, map, step, refusal)) {
          return std::nullopt;
        }
        stage.steps.push_back(std::move(step));
      }
      if (stage.steps.empty()) {
        refusal = "degenerate predicate with no conjuncts";
        return std::nullopt;
      }
      ++chain.select_count;
    } else {
      // A corrupted projection runs interpreted, which raises the
      // BindError.
      const auto& proj = static_cast<const ProjectOp&>(n);
      std::vector<std::size_t> next;
      next.reserve(proj.columns().size());
      for (const std::string& c : proj.columns()) {
        const auto idx = cur_schema.find(c);
        if (!idx.has_value()) {
          refusal = "projection references '" + c + "' absent from the chain";
          return std::nullopt;
        }
        next.push_back(map[*idx]);
      }
      map = std::move(next);
      cur_schema = n.output_schema();
    }
    chain.stages.push_back(std::move(stage));
  }
  if (chain.select_count == 0) {
    refusal = "pure projection chain (already free interpreted)";
    return std::nullopt;
  }
  chain.out_cols = std::move(map);
  chain.out_schema = std::move(cur_schema);
  return chain;
}

std::vector<FusedSegment> fused_segments(const PlanPtr& plan) {
  const auto uses = plan_use_counts(plan);
  std::vector<FusedSegment> segments;
  std::set<const LogicalOp*> visited;
  // Depth-first with an explicit stack: the last child is visited first.
  std::vector<PlanPtr> stack{plan};
  while (!stack.empty()) {
    const PlanPtr n = stack.back();
    stack.pop_back();
    if (!visited.insert(n.get()).second) continue;
    if (n->kind() == OpKind::kSelect || n->kind() == OpKind::kProject) {
      FusedSegment seg;
      seg.head = n;
      seg.chain = detect_fused_chain(n, uses, &seg.refusal);
      const PlanPtr source =
          seg.chain.has_value() ? seg.chain->source : nullptr;
      segments.push_back(std::move(seg));
      if (source != nullptr) {
        stack.push_back(source);  // interior nodes are consumed
        continue;
      }
    }
    for (const PlanPtr& c : n->children()) stack.push_back(c);
  }
  return segments;
}

VecRel run_fused_chain(const FusedChain& chain, const VecRel& src,
                       std::size_t threads, ExecStats* stats,
                       double* op_blocks, double* op_rows) {
  TraceSpan span("exec.kernel", "chain");

  // Bind all select stages to the source's physical columns once.
  std::vector<std::vector<BoundStep>> selects;
  selects.reserve(chain.select_count);
  for (const FusedStage& st : chain.stages) {
    if (st.kind != OpKind::kSelect) continue;
    std::vector<BoundStep> bound;
    bound.reserve(st.steps.size());
    for (const FilterStep& f : st.steps) bound.push_back(bind_step(f, src));
    selects.push_back(std::move(bound));
  }
  const std::size_t ns = selects.size();

  // Every source morsel runs through the whole chain in one stint. The
  // very first conjunct filters the dense physical range directly when
  // the source is an identity view (survivor ids are implicit — nothing
  // is materialized for the full morsel) or reads straight out of the
  // source's selection slice otherwise; every later conjunct shrinks the
  // survivor buffer in place, so the scan narrows exactly like the
  // interpreted engine's conjunct short-circuit without its per-node
  // selection-vector round-trips. Morsels are fixed over the *source*
  // rows and survivors concatenate in morsel order, so output order
  // matches the interpreted engine at any thread count (order-preserving
  // filters compose independently of where morsel boundaries fall).
  const std::size_t n0 = src.active_rows();
  const std::size_t morsels = morsel_count(n0);
  // One survivor buffer per shard, not per morsel: shards own contiguous
  // morsel ranges in shard order, so concatenating the shard buffers
  // reproduces morsel order with a handful of allocations total.
  std::vector<std::vector<std::uint32_t>> parts(morsels);
  std::vector<std::size_t> counts(morsels * ns, 0);
  parallel_shards(
      morsels, threads, [&](std::size_t t, std::size_t mb, std::size_t me) {
        WorkerProbe wp(kernel_worker_track(), "chain");
        std::vector<std::uint32_t> buf(kMorselRows);
        std::vector<std::uint32_t>& mine = parts[t];
        const std::vector<BoundStep>& first = selects[0];
        for (std::size_t m = mb; m < me; ++m) {
          const std::size_t lo = m * kMorselRows;
          const std::size_t hi = std::min(n0, lo + kMorselRows);
          std::size_t cnt =
              src.identity
                  ? apply_range_step(first[0], static_cast<std::uint32_t>(lo),
                                     static_cast<std::uint32_t>(hi),
                                     buf.data())
                  : apply_sel_step(first[0], src.sel.data() + lo, hi - lo,
                                   buf.data());
          for (std::size_t c = 1; c < first.size() && cnt > 0; ++c) {
            cnt = apply_sel_step(first[c], buf.data(), cnt, buf.data());
          }
          counts[m * ns] = cnt;
          for (std::size_t s = 1; s < ns; ++s) {
            for (const BoundStep& b : selects[s]) {
              if (cnt == 0) break;
              cnt = apply_sel_step(b, buf.data(), cnt, buf.data());
            }
            counts[m * ns + s] = cnt;
          }
          mine.insert(mine.end(), buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(cnt));
        }
      });

  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  VecRel out;
  out.data = src.data;
  out.identity = false;
  out.sel.reserve(total);
  for (const auto& p : parts) out.sel.insert(out.sel.end(), p.begin(), p.end());
  out.cols.reserve(chain.out_cols.size());
  for (const std::size_t c : chain.out_cols) out.cols.push_back(src.cols[c]);
  out.schema = chain.out_schema;
  out.blocking_factor = src.blocking_factor;

  // Replicate the interpreted engine's per-node stats arithmetic: each
  // select charges its (chain-internal) input's blocks, rows and morsel
  // count; projects only record rows_out. Interior cardinalities fall out
  // of the per-morsel survivor counts.
  std::vector<std::size_t> select_out(ns, 0);
  for (std::size_t m = 0; m < morsels; ++m) {
    for (std::size_t s = 0; s < ns; ++s) select_out[s] += counts[m * ns + s];
  }
  if (stats != nullptr || op_blocks != nullptr || op_rows != nullptr) {
    std::size_t flowing = n0;
    std::size_t s = 0;
    for (const FusedStage& st : chain.stages) {
      if (st.kind == OpKind::kSelect) {
        const double in_rows = static_cast<double>(flowing);
        const double in_blocks = blocks_of(in_rows, src.blocking_factor);
        if (stats != nullptr) {
          stats->blocks_read += in_blocks;
          stats->rows_scanned += in_rows;
          stats->batches += static_cast<double>(morsel_count(flowing));
          stats->rows_out[st.label] = static_cast<double>(select_out[s]);
        }
        const auto k = static_cast<std::size_t>(OpKind::kSelect);
        if (op_blocks != nullptr) op_blocks[k] += in_blocks;
        if (op_rows != nullptr) op_rows[k] += in_rows;
        flowing = select_out[s];
        ++s;
      } else if (stats != nullptr) {
        stats->rows_out[st.label] = static_cast<double>(flowing);
      }
    }
  }

  if (counters_enabled()) {
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.counter("exec/kernel/chains").add(1);
    reg.counter("exec/kernel/fused_ops")
        .add(static_cast<double>(chain.stages.size()));
    reg.counter("exec/kernel/rows_in").add(static_cast<double>(n0));
    reg.counter("exec/kernel/rows_out").add(static_cast<double>(total));
  }
  if (span.active()) {
    span.arg("ops", static_cast<double>(chain.stages.size()));
    span.arg("selects", static_cast<double>(ns));
    span.arg("rows_in", static_cast<double>(n0));
    span.arg("rows_out", static_cast<double>(total));
    span.arg("morsels", static_cast<double>(morsels));
  }
  return out;
}

bool fused_join_keys_ok(const ColumnTable& build,
                        const std::vector<std::size_t>& build_keys,
                        const ColumnTable& probe,
                        const std::vector<std::size_t>& probe_keys) {
  if (build_keys.empty() || build_keys.size() > 2) return false;
  for (const std::size_t c : build_keys) {
    if (!numeric_kind(build.kind(c))) return false;
  }
  for (const std::size_t c : probe_keys) {
    if (!numeric_kind(probe.kind(c))) return false;
  }
  return true;
}

JoinPairs run_fused_join(const VecRel& build,
                         const std::vector<std::size_t>& build_keys,
                         const VecRel& probe,
                         const std::vector<std::size_t>& probe_keys,
                         std::size_t threads) {
  TraceSpan span("exec.kernel", "join-probe");
  const std::size_t nk = build_keys.size();
  NumKeyCol bkc[2], pkc[2];
  for (std::size_t k = 0; k < nk; ++k) {
    bkc[k] = bind_num_key(*build.data, build_keys[k]);
    pkc[k] = bind_num_key(*probe.data, probe_keys[k]);
  }

  // Build phase: pack key columns morsel-parallel, then insert serially
  // in active order so per-key chains — and therefore match emission
  // order — are deterministic.
  const std::size_t nb = build.active_rows();
  std::vector<PackedKey> bkeys(nb);
  std::vector<std::uint8_t> bok(nb);
  parallel_shards(morsel_count(nb), threads,
                  [&](std::size_t, std::size_t mb, std::size_t me) {
                    WorkerProbe wp(kernel_worker_track(), "join-build-key");
                    const std::size_t lo = mb * kMorselRows;
                    const std::size_t hi = std::min(nb, me * kMorselRows);
                    for (std::size_t i = lo; i < hi; ++i) {
                      bok[i] = pack_join_key(bkc, nk, build.physical(i),
                                             bkeys[i])
                                   ? 1
                                   : 0;
                    }
                  });
  JoinKeyMap table(nb);
  for (std::size_t i = 0; i < nb; ++i) {
    if (bok[i] != 0) table.insert(bkeys[i], build.physical(i));
  }

  // Probe phase: morsel-parallel, matches concatenated in morsel order.
  const std::size_t np = probe.active_rows();
  const std::size_t pm = morsel_count(np);
  std::vector<JoinPairs> chunks(pm);
  parallel_shards(
      pm, threads, [&](std::size_t, std::size_t mb, std::size_t me) {
        WorkerProbe wp(kernel_worker_track(), "join-probe");
        for (std::size_t m = mb; m < me; ++m) {
          const std::size_t lo = m * kMorselRows;
          const std::size_t hi = std::min(np, lo + kMorselRows);
          JoinPairs& ch = chunks[m];
          PackedKey key;
          for (std::size_t i = lo; i < hi; ++i) {
            const std::uint32_t r = probe.physical(i);
            if (!pack_join_key(pkc, nk, r, key)) continue;
            for (std::int32_t e = table.find(key); e >= 0;
                 e = table.entry(e).next) {
              ch.probe_rows.push_back(r);
              ch.build_rows.push_back(table.entry(e).row);
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

  if (counters_enabled()) {
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.counter("exec/kernel/join_build_rows").add(static_cast<double>(nb));
    reg.counter("exec/kernel/join_probe_rows").add(static_cast<double>(np));
    reg.counter("exec/kernel/join_matches").add(static_cast<double>(total));
  }
  if (span.active()) {
    span.arg("build_rows", static_cast<double>(nb));
    span.arg("probe_rows", static_cast<double>(np));
    span.arg("matches", static_cast<double>(total));
    span.arg("keys", static_cast<double>(nk));
  }
  return out;
}

bool fused_aggregate_ok(const AggregateOp& op, const ColumnTable& data,
                        const std::vector<std::size_t>& group_cols,
                        const std::vector<std::size_t>& agg_cols) {
  if (group_cols.size() > 2) return false;
  for (const std::size_t c : group_cols) {
    if (data.kind(c) == ColumnKind::kStringCol) return false;
  }
  const std::vector<AggSpec>& aggs = op.aggregates();
  for (std::size_t a = 0; a < aggs.size(); ++a) {
    const AggFn fn = aggs[a].fn;
    if (fn != AggFn::kCount && fn != AggFn::kSum && fn != AggFn::kAvg) {
      return false;  // MIN/MAX carry Values, SUM_INT is rare: interpreted path
    }
    if (fn != AggFn::kCount && agg_cols[a] != SIZE_MAX &&
        !numeric_kind(data.kind(agg_cols[a]))) {
      return false;
    }
  }
  return true;
}

VecRel run_fused_aggregate(const AggregateOp& op, const VecRel& in,
                           const std::vector<std::size_t>& group_cols,
                           const std::vector<std::size_t>& agg_cols,
                           std::size_t threads) {
  TraceSpan span("exec.kernel", "aggregate");
  const ColumnTable& data = *in.data;
  const std::size_t n = in.active_rows();
  const std::size_t morsels = morsel_count(n);
  const std::size_t ngc = group_cols.size();
  const std::size_t naggs = agg_cols.size();

  // Bind group key columns. Raw double bit patterns (via key_bits_raw)
  // reproduce the packed-string key equality of the interpreted engine
  // exactly — including -0.0 vs 0.0 grouping separately. Bool columns
  // contribute a 0/1 word.
  struct GKeyCol {
    const std::int64_t* i = nullptr;
    const double* f = nullptr;
    const std::uint8_t* b = nullptr;
    std::uint64_t bits(std::uint32_t r) const {
      if (i != nullptr) return key_bits_raw(static_cast<double>(i[r]));
      if (f != nullptr) return key_bits_raw(f[r]);
      return b[r] != 0 ? 1 : 0;
    }
  };
  GKeyCol gkc[2];
  for (std::size_t k = 0; k < ngc; ++k) {
    const std::size_t c = group_cols[k];
    switch (data.kind(c)) {
      case ColumnKind::kInt64Col:
        gkc[k].i = data.i64(c).data();
        break;
      case ColumnKind::kDoubleCol:
        gkc[k].f = data.f64(c).data();
        break;
      case ColumnKind::kBoolCol:
        gkc[k].b = data.b8(c).data();
        break;
      case ColumnKind::kStringCol:
        MVD_ASSERT(false);  // excluded by fused_aggregate_ok
        break;
    }
  }
  const auto make_key = [&](std::uint32_t r) {
    PackedKey k;
    if (ngc > 0) k.a = gkc[0].bits(r);
    if (ngc > 1) k.b = gkc[1].bits(r);
    return k;
  };

  // Bind aggregate inputs: SIZE_MAX (COUNT *) contributes a constant 1,
  // exactly what the interpreted engine feeds its accumulators; for
  // COUNT(col) the cell value never reaches the result, so non-numeric
  // columns contribute 0 to the (unused) sum.
  struct AggCol {
    const std::int64_t* i = nullptr;
    const double* f = nullptr;
    double constant = 0;
    double at(std::uint32_t r) const {
      if (i != nullptr) return static_cast<double>(i[r]);
      if (f != nullptr) return f[r];
      return constant;
    }
  };
  std::vector<AggCol> acols(naggs);
  for (std::size_t a = 0; a < naggs; ++a) {
    if (agg_cols[a] == SIZE_MAX) {
      acols[a].constant = 1;
      continue;
    }
    const std::size_t c = agg_cols[a];
    if (data.kind(c) == ColumnKind::kInt64Col) {
      acols[a].i = data.i64(c).data();
    } else if (data.kind(c) == ColumnKind::kDoubleCol) {
      acols[a].f = data.f64(c).data();
    }
    // Other kinds: constant 0 (only reachable under COUNT(col)).
  }

  /// Packed-key group table with per-(group, aggregate) count/sum pairs.
  struct Groups {
    GroupKeyMap index;
    std::vector<PackedKey> keys;
    std::vector<std::uint32_t> first_row;
    std::vector<double> count, sum;  // group-major, naggs per group
  };
  const auto add_row = [&](Groups& g, std::uint32_t r) {
    const PackedKey key = make_key(r);
    const auto next = static_cast<std::int32_t>(g.keys.size());
    const std::int32_t gi = g.index.find_or_insert(key, next);
    if (gi == next) {
      g.keys.push_back(key);
      g.first_row.push_back(r);
      g.count.resize(g.count.size() + naggs, 0);
      g.sum.resize(g.sum.size() + naggs, 0);
    }
    const std::size_t base = static_cast<std::size_t>(gi) * naggs;
    for (std::size_t a = 0; a < naggs; ++a) {
      g.count[base + a] += 1;
      g.sum[base + a] += acols[a].at(r);
    }
  };

  Groups global;
  if (threads <= 1 || morsels <= 1) {
    // Single pass; accumulation order matches the interpreted serial
    // path row for row (same floating-point addition order).
    for (std::size_t i = 0; i < n; ++i) add_row(global, in.physical(i));
  } else {
    // Per-morsel partials merged in morsel order — the same partial
    // boundaries and merge order as the interpreted parallel path, so
    // group order and floating-point sums agree bit for bit.
    std::vector<Groups> partials(morsels);
    parallel_shards(
        morsels, threads, [&](std::size_t, std::size_t mb, std::size_t me) {
          WorkerProbe wp(kernel_worker_track(), "aggregate-partial");
          for (std::size_t m = mb; m < me; ++m) {
            const std::size_t lo = m * kMorselRows;
            const std::size_t hi = std::min(n, lo + kMorselRows);
            Groups& p = partials[m];
            for (std::size_t i = lo; i < hi; ++i) add_row(p, in.physical(i));
          }
        });
    for (const Groups& p : partials) {
      for (std::size_t g = 0; g < p.keys.size(); ++g) {
        const auto next = static_cast<std::int32_t>(global.keys.size());
        const std::int32_t gi = global.index.find_or_insert(p.keys[g], next);
        const std::size_t src_base = g * naggs;
        if (gi == next) {
          global.keys.push_back(p.keys[g]);
          global.first_row.push_back(p.first_row[g]);
          global.count.insert(global.count.end(),
                              p.count.begin() + src_base,
                              p.count.begin() + src_base + naggs);
          global.sum.insert(global.sum.end(), p.sum.begin() + src_base,
                            p.sum.begin() + src_base + naggs);
        } else {
          const std::size_t dst = static_cast<std::size_t>(gi) * naggs;
          for (std::size_t a = 0; a < naggs; ++a) {
            global.count[dst + a] += p.count[src_base + a];
            global.sum[dst + a] += p.sum[src_base + a];
          }
        }
      }
    }
  }

  // SQL semantics: a global aggregate over an empty input yields one row
  // (zero count/sum), same as the interpreted engines.
  const bool empty_global = global.keys.empty() && op.group_by().empty();
  const Schema& os = op.output_schema();
  auto out = std::make_shared<ColumnTable>(os, in.blocking_factor);
  const std::size_t ngroups = empty_global ? 1 : global.keys.size();
  for (std::size_t g = 0; g < ngroups; ++g) {
    for (std::size_t k = 0; k < ngc; ++k) {
      out->append_value(k, data.value_at(global.first_row[g], group_cols[k]));
    }
    for (std::size_t a = 0; a < naggs; ++a) {
      const double cnt = empty_global ? 0 : global.count[g * naggs + a];
      const double sum = empty_global ? 0 : global.sum[g * naggs + a];
      Value v;
      switch (op.aggregates()[a].fn) {
        case AggFn::kCount:
          v = Value::int64(static_cast<std::int64_t>(cnt));
          break;
        case AggFn::kSum:
          v = Value::real(sum);
          break;
        case AggFn::kAvg:
          v = Value::real(cnt > 0 ? sum / cnt : 0.0);
          break;
        case AggFn::kMin:
        case AggFn::kMax:
        case AggFn::kSumInt:
          MVD_ASSERT(false);  // excluded by fused_aggregate_ok
          break;
      }
      out->append_value(ngc + a, v);
    }
  }
  out->set_row_count(ngroups);

  if (counters_enabled()) {
    MetricsRegistry& reg = MetricsRegistry::global();
    reg.counter("exec/kernel/agg_rows").add(static_cast<double>(n));
    reg.counter("exec/kernel/agg_groups").add(static_cast<double>(ngroups));
  }
  if (span.active()) {
    span.arg("rows", static_cast<double>(n));
    span.arg("groups", static_cast<double>(ngroups));
    span.arg("morsels", static_cast<double>(morsels));
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

}  // namespace mvd
