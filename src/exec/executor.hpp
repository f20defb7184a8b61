// Execution of logical plans against an in-memory Database.
//
// Two engines share one entry point. The row engine materializes each
// operator's result bottom-up as tuple vectors (shared plan fragments are
// computed once per run); the vectorized engine (ExecMode::kVectorized,
// src/exec/vectorized.hpp) runs the same plans over columnar batches with
// selection vectors and morsel parallelism — ExecMode::kFused adds its
// typed kernel layer (src/exec/fused.hpp). Both split equi-join
// conjuncts into a build/probe hash join and fall back to a nested loop
// otherwise, and both exist to (a) ground-truth the optimizer and MVPP
// rewrites — every rewritten plan must return the same bag of tuples as
// the canonical plan — and (b) measure the real effect of materializing
// the chosen views (bench Ext-D).
#pragma once

#include <map>
#include <memory>
#include <vector>

#include "src/algebra/aggregate.hpp"
#include "src/algebra/logical_plan.hpp"
#include "src/storage/database.hpp"

namespace mvd {

/// Work counters accumulated across one run().
struct ExecStats {
  /// Block accesses in the same accounting the cost model uses: scans and
  /// selects charge their input's blocks; a hash join charges both inputs
  /// once; a nested loop charges outer + outer-blocks * inner re-scans
  /// (outer = the smaller input, as in CostModel::join_op_cost).
  double blocks_read = 0;
  /// Tuples inspected by scan/select/join/aggregate operators (inputs,
  /// before filtering).
  double rows_scanned = 0;
  /// Row batches processed: one per operator input in the row engine, one
  /// per morsel in the vectorized engine.
  double batches = 0;
  /// Tuples that flowed out of each operator, keyed by the node's label
  /// (used to validate cardinality estimates).
  std::map<std::string, double> rows_out;
  /// Incremental maintenance only: compacted delta rows (inserts + deletes)
  /// applied to each refreshed view, keyed by the view's MVPP node name.
  std::map<std::string, double> delta_rows;
  /// Sharded execution only: rows/blocks moved by exchange operators
  /// (shuffle + broadcast + gather) during this run or refresh round.
  double rows_exchanged = 0;
  double blocks_exchanged = 0;
  /// Sharded execution only: one entry per shard with that shard's own
  /// counters (blocks read, rows out per node, ...). Empty for
  /// single-site runs. Totals above include every shard plus coordinator
  /// work (final merges, remainder plans).
  std::vector<ExecStats> per_shard;
};

/// Which engine Executor::run uses. kFused is the vectorized engine with
/// the typed kernel layer (src/exec/fused) enabled: fusable
/// select/project chains, numeric equi-joins and COUNT/SUM/AVG
/// aggregates run through specialized loops, everything else falls back
/// to the interpreted operators per node.
enum class ExecMode { kRow, kVectorized, kFused };

/// Engine selected by the MVD_EXEC_MODE environment variable ("row",
/// "vectorized"/"vec", or "fused"); kRow when unset or unrecognized.
ExecMode default_exec_mode();

/// Short engine label for metrics and journal events: "row", "vec" or
/// "fused".
const char* exec_mode_name(ExecMode mode);

/// Vectorized-engine worker count from MVD_EXEC_THREADS (0 = hardware
/// auto); 1 (serial) when unset or unparsable.
std::size_t default_exec_threads();

/// Shard count from MVD_EXEC_SHARDS; 0 (single-site execution, no
/// sharded layer) when unset or unparsable. N >= 1 selects the sharded
/// execution layer (src/exec/sharded.hpp) in shard-aware drivers (mvprof,
/// benches) — N = 1 is the degenerate one-shard layout, still
/// bucket-partitioned and bit-identical to any other shard count.
std::size_t default_exec_shards();

class ColumnTableCache;

class Executor {
 public:
  explicit Executor(const Database& db, ExecMode mode = default_exec_mode(),
                    std::size_t threads = default_exec_threads());

  /// Snapshot-pinning overload: the executor co-owns `db`, so a serving
  /// layer can atomically swap in a newer snapshot while in-flight
  /// queries finish against the one they started on (mvserve's reader
  /// protocol). The pinned database must not be mutated while pinned.
  explicit Executor(std::shared_ptr<const Database> db,
                    ExecMode mode = default_exec_mode(),
                    std::size_t threads = default_exec_threads());

  ExecMode mode() const { return mode_; }

  /// Execute `plan`. Scan nodes resolve by relation name in the database
  /// (base tables and stored views alike). Throws ExecError for unknown
  /// relations, BindError for predicate binding failures.
  Table run(const PlanPtr& plan, ExecStats* stats = nullptr) const;

 private:
  using TableRef = std::shared_ptr<const Table>;

  /// Per-run row-engine state: the shared-fragment memo plus per-operator
  /// work tallies flushed to the MetricsRegistry at the end of run().
  struct RunContext;

  TableRef run_node(const PlanPtr& plan, ExecStats* stats,
                    RunContext& ctx) const;

  TableRef exec_scan(const ScanOp& op, ExecStats* stats) const;
  TableRef exec_select(const SelectOp& op, const TableRef& in,
                       ExecStats* stats) const;
  TableRef exec_project(const ProjectOp& op, const TableRef& in) const;
  TableRef exec_join(const JoinOp& op, const TableRef& left,
                     const TableRef& right, ExecStats* stats) const;
  TableRef exec_aggregate(const AggregateOp& op, const TableRef& in,
                          ExecStats* stats) const;

  const Database* db_;
  /// Set by the pinning constructor; keeps the snapshot alive for the
  /// executor's lifetime (db_ points into it).
  std::shared_ptr<const Database> pinned_;
  ExecMode mode_;
  std::size_t threads_;
  /// Columnar conversions, shared across runs of this Executor (filled
  /// lazily, vectorized/fused modes only).
  std::shared_ptr<ColumnTableCache> column_cache_;
};

/// Convenience: bag-equality of two tables (same schema arity, same
/// multiset of tuples, order-insensitive). Used by plan-equivalence tests.
bool same_bag(const Table& a, const Table& b);

}  // namespace mvd
