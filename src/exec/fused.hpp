// Fused typed operator kernels — the ExecMode::kFused layer over the
// vectorized engine.
//
// The interpreted batch engine runs one operator per pass: each select
// builds a per-morsel selection vector, hands it to
// CompiledExpr::filter_batch (which re-dispatches on column type per
// conjunct), and each project re-maps columns in a separate node visit.
// The fused layer collapses a maximal scan→select→project segment into
// one FusedChain compiled ahead of execution: every predicate conjunct
// becomes a FilterStep bound to a concrete (compare-op × column-type ×
// operand-shape) kernel from kernels.hpp, and each source morsel flows
// through the whole chain in a single specialized loop — a dense range
// filter for the first conjunct over an identity source (survivor ids
// are implicit, nothing materializes for the full morsel), branch-free
// shrinking-selection filtering for every conjunct after that, no
// intermediate selection-vector round-trips between operators.
//
// Contracts preserved exactly (the equivalence tests compare all three
// engines):
//   * Output rows are bit-identical to the interpreted engine at any
//     thread count: chains partition over the *source's* fixed morsels
//     and concatenate survivors in morsel order, and order-preserving
//     filters compose independently of morsel boundaries.
//   * ExecStats and per-operator registry tallies replicate the
//     interpreted engine's per-node arithmetic (each fused select still
//     charges its input's blocks/rows/morsels; projects stay free).
//   * Unfusable operators — OR/NOT predicates, mixed-type or non-simple
//     comparisons, shared interior DAG nodes — terminate the chain and
//     run interpreted; detect_fused_chain refuses them and says why.
//
// Join probe and aggregation get packed-key kernels (PackedKey +
// JoinKeyMap/GroupKeyMap) used by vectorized.cpp's fast paths when keys
// are numeric and narrow; they reproduce the interpreted match/group
// order row for row.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/algebra/logical_plan.hpp"
#include "src/exec/executor.hpp"
#include "src/exec/vec_internal.hpp"

namespace mvd {

/// One compiled comparison conjunct of a fused select. Column operands
/// are *source-logical* indices (positions in the chain source's schema);
/// they bind to physical columns through the source VecRel's column map
/// at execution time.
struct FilterStep {
  enum class Shape { kNumColLit, kNumColCol, kStrColLit, kStrColCol };
  Shape shape = Shape::kNumColLit;
  CompareOp op = CompareOp::kEq;
  std::size_t lhs_col = 0;
  ColumnKind lhs_kind = ColumnKind::kInt64Col;
  std::size_t rhs_col = 0;  // column shapes only
  ColumnKind rhs_kind = ColumnKind::kInt64Col;
  double num_lit = 0;       // kNumColLit
  std::string str_lit;      // kStrColLit
};

/// One operator of a fused chain, listed bottom-up (nearest the source
/// first). Projects carry no steps — their column re-maps are folded into
/// later steps' indices and the chain's output map at compile time; they
/// remain listed so their rows_out entries get recorded.
struct FusedStage {
  OpKind kind = OpKind::kSelect;
  std::string label;
  std::vector<FilterStep> steps;  // kSelect only
};

/// A compiled scan→select→project segment.
struct FusedChain {
  PlanPtr source;  // executed through the normal engine, then fed here
  std::vector<FusedStage> stages;          // bottom-up
  std::vector<std::size_t> out_cols;       // output logical -> source logical
  Schema out_schema;
  std::size_t select_count = 0;
};

/// Parent-edge counts for every node of the plan DAG. A node referenced
/// by two parents executes once (the engines memoize); fusing *through*
/// it would re-run it per chain, so the detector only passes through
/// interior nodes with one use.
std::map<const LogicalOp*, std::size_t> plan_use_counts(const PlanPtr& plan);

/// Compile the maximal fusable select/project chain rooted at `plan`.
/// This detector is the one definition of fusability: the engine runs
/// what it accepts and mvcheck reports its verdicts. Returns nullopt when
/// `plan` itself is not a fusable select/project or the chain contains no
/// select (pure projections are already free in the interpreted engine);
/// `refusal`, when given, then receives the first rule that failed —
/// OR/NOT/non-comparison conjuncts, boolean or mixed-type comparisons,
/// columns or projections absent from the chain, degenerate predicates,
/// pure-projection chains — and is cleared on success.
std::optional<FusedChain> detect_fused_chain(
    const PlanPtr& plan,
    const std::map<const LogicalOp*, std::size_t>& use_count,
    std::string* refusal = nullptr);

/// One select/project head the fused engine's plan walk visits.
struct FusedSegment {
  PlanPtr head;
  std::optional<FusedChain> chain;  // nullopt: the head runs interpreted
  std::string refusal;              // why not; empty when `chain` is set
};

/// The fused engine's segmentation of `plan`, computed once per run: from
/// the root, each select/project either heads a chain (the walk resumes at
/// the chain source, its interior nodes are consumed) or runs interpreted
/// (the walk resumes at its children). Depth-first, last child first,
/// each shared node once.
std::vector<FusedSegment> fused_segments(const PlanPtr& plan);

/// Execute `chain` over the evaluated source. Morsel-parallel over the
/// source's fixed morsels; survivors concatenate in morsel order. Updates
/// `stats` (plus rows_out per stage label) and the per-OpKind tallies
/// with the same arithmetic the interpreted engine applies per node;
/// either may be null.
VecRel run_fused_chain(const FusedChain& chain, const VecRel& src,
                       std::size_t threads, ExecStats* stats,
                       double* op_blocks, double* op_rows);

// ---- Join / aggregation kernels ---------------------------------------

/// Matched (probe, build) physical row pairs, probe-morsel-major — the
/// same emission order as the interpreted probe loop.
struct JoinPairs {
  std::vector<std::uint32_t> probe_rows;
  std::vector<std::uint32_t> build_rows;
};

/// True when every join key column on both sides is numeric (int64 or
/// double) and there are one or two keys — the shapes PackedKey covers.
bool fused_join_keys_ok(const ColumnTable& build,
                        const std::vector<std::size_t>& build_keys,
                        const ColumnTable& probe,
                        const std::vector<std::size_t>& probe_keys);

/// Packed-key hash join: morsel-parallel key packing, serial insertion in
/// active order (deterministic per-key chains), morsel-parallel probe.
/// Rows whose key is NaN are skipped on both sides — NaN joins nothing
/// under numeric equality, matching the interpreted engine. Requires
/// fused_join_keys_ok.
JoinPairs run_fused_join(const VecRel& build,
                         const std::vector<std::size_t>& build_keys,
                         const VecRel& probe,
                         const std::vector<std::size_t>& probe_keys,
                         std::size_t threads);

/// True when the aggregate fits the packed-key kernel: at most two group
/// columns, each int64/double/bool; aggregates restricted to
/// COUNT/SUM/AVG with numeric (or COUNT-star / COUNT-anything) inputs.
/// MIN/MAX and string group keys use the interpreted path.
bool fused_aggregate_ok(const AggregateOp& op, const ColumnTable& data,
                        const std::vector<std::size_t>& group_cols,
                        const std::vector<std::size_t>& agg_cols);

/// Packed-key hash aggregation with count/sum accumulators. Serial when
/// `threads <= 1` or the input fits one morsel, otherwise per-morsel
/// partials merged in morsel order — the same split (and therefore the
/// same floating-point addition order) as the interpreted engine.
/// `group_cols`/`agg_cols` are physical columns (SIZE_MAX = COUNT(*)).
/// Requires fused_aggregate_ok.
VecRel run_fused_aggregate(const AggregateOp& op, const VecRel& in,
                           const std::vector<std::size_t>& group_cols,
                           const std::vector<std::size_t>& agg_cols,
                           std::size_t threads);

}  // namespace mvd
