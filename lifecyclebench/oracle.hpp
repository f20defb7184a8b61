// The benchmark's output oracle, kept apart from the code under test.
//
//   * Served answers: the benchmark's own loops and hash maps evaluate
//     every mix query over the pinned snapshot's base tables (no
//     Executor) — expected_answer(). On the generated workloads the
//     program's own reference, canonical_plan over base tables on the row
//     engine, is compared as well (reference_answer), and a rollup's
//     COUNT(*) column must sum to the benchmark's count of qualifying
//     fact rows.
//   * After every refresh each VALID view must be bag-equal to its
//     definition recomputed from base tables.
//   * After every ingest the relation's row count must equal the old
//     count plus the captured delta's inserts minus its deletes.
//   * The reported design cost must equal the chosen set's total as the
//     plain MvppEvaluator re-evaluates it, and must not exceed the
//     select-nothing total.
//
// Each check returns an empty string when it holds and a reason when it
// does not. oracle_selftest() feeds every check a corrupted input and
// counts the corruptions it missed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "harness.hpp"
#include "src/serve/server.hpp"
#include "workloads.hpp"

namespace lcb {

/// Expected answer of `shape` over the base tables of `db`.
BagDigest expected_answer(const QueryShape& shape, const mvd::Database& db);

/// Star rollups: fact rows that satisfy the query (the sum of COUNT(*)
/// over its groups).
std::uint64_t qualifying_fact_rows(const StarQuery& q, const mvd::Database& db);

/// canonical_plan of `sql` over base tables only, on the row engine.
BagDigest reference_answer(const mvd::Catalog& catalog, const std::string& sql,
                           const std::shared_ptr<const mvd::Database>& db);

std::string check_answer(const BagDigest& expected, const mvd::Table& served);

/// Sum of the last (COUNT(*)) column of a served rollup against `rows`.
std::string check_rollup_count(std::uint64_t rows, const mvd::Table& served);

/// Every VALID view of `snap` (every view when `all_views`) against its
/// definition recomputed from the base tables of the same snapshot.
std::string check_views(const mvd::ServeSnapshot& snap,
                        const mvd::DesignResult& design, bool all_views = false);

std::string check_ingest(std::size_t rows_before, std::size_t rows_after,
                         std::size_t delta_inserts, std::size_t delta_deletes);

std::string check_design_cost(const mvd::DesignResult& design,
                              const mvd::MaintenancePolicy& policy,
                              double reported_total);

/// Runs every check on small warehouses, once as-is (each must hold) and
/// once per corruption (each must fail). Returns the number of checks
/// that behaved wrongly; the log names them.
int oracle_selftest(std::ostream& log);

}  // namespace lcb
