// mvserve — the warehouse's serving front door.
//
// MvServer wraps a deployed design (catalog + MVPP + materialized set +
// data) behind a thread-safe serve() that accepts arbitrary SQL in the
// parser's subset, rewrites it onto the cheapest covering materialized
// view (src/optimizer/view_rewrite) or falls back to the canonical
// base-table plan, and executes on any engine.
//
// Concurrency model — snapshot/epoch, in the ArcadeDB materialized-view
// style:
//   * The server publishes an immutable ServeSnapshot: an epoch number,
//     a shared const Database (base tables + stored views), and the view
//     registry with each view's VALID / STALE / BUILDING status.
//   * Readers pin the current snapshot (one shared_ptr copy under the
//     snapshot mutex) and run entirely against it; the pinning Executor
//     overload keeps the data alive even when the server swaps mid-query.
//   * Writers (ingest / refresh) are serialized by a writer mutex. Their
//     staging database shares every table of the current snapshot
//     (Database::put_shared); a write replaces the entries it changes
//     and never mutates a table a published snapshot can reach, so the
//     tables it leaves alone keep their identity into the next epoch.
//     The new snapshot is published in one swap, so a reader sees
//     pre-state or post-state, never a mix.
//   * ingest() applies an update batch to one base relation, captures its
//     signed delta for later incremental refresh, and marks every view
//     over that relation STALE — the matcher skips STALE views, so
//     queries fall back to the (already updated) base tables of the same
//     snapshot.
//   * refresh() = begin_refresh() (publish STALE views as BUILDING) +
//     finish_refresh() (rebuild them on the staging database —
//     incrementally from the captured deltas, on private copies of the
//     views the walk applies deltas to, or by recompute — then publish
//     them VALID). update_and_refresh() does batch + rebuild with one
//     publish, for writers that must never expose an intermediate state.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/exec/executor.hpp"
#include "src/maintenance/refresh.hpp"
#include "src/maintenance/update_stream.hpp"
#include "src/obs/workload.hpp"
#include "src/sql/parser.hpp"
#include "src/warehouse/deployed.hpp"
#include "src/warehouse/designer.hpp"

namespace mvd {

/// Rewriting switch from MVD_SERVE_REWRITE: truthy/unset = on, falsy
/// ("0"/"false"/"off") = every query takes the base-table path.
bool default_serve_rewrite();

/// Workload-observatory switch from MVD_SERVE_OBSERVE: truthy/unset =
/// on, falsy = the server records nothing and journals nothing.
bool default_serve_observe();

struct ServeOptions {
  ExecMode mode = default_exec_mode();
  std::size_t threads = default_exec_threads();
  bool rewrite = default_serve_rewrite();
  bool observe = default_serve_observe();
};

/// Which answer path serve() may take. kAuto tries the rewriter first;
/// the forced paths exist for differential tests (run both on one pinned
/// snapshot and compare) and for measuring the rewrite win.
enum class ServePath { kAuto, kViewOnly, kBaseOnly };

/// One immutable published state of the warehouse.
struct ServeSnapshot {
  std::uint64_t epoch = 0;
  std::shared_ptr<const Database> db;
  DeployedViewRegistry registry;
};

struct ServeResult {
  Table table{Schema{}};
  /// True when a materialized view answered; view names it.
  bool rewritten = false;
  std::string view;
  /// The matcher's refusal reason on the fallback path (best effort;
  /// the flattened form of `refusals`).
  std::string refusal;
  /// Structured per-view refusal reasons on the fallback path.
  std::vector<ServeRefusal> refusals;
  /// Engine that executed the answer plan ("row" | "vec" | "fused").
  std::string engine;
  std::uint64_t epoch = 0;
  ExecStats stats;
  /// Wall-clock time of the whole answer: view matching, compensation
  /// plan and execution, plus parse/bind when served from SQL. The same
  /// value feeds the serve/latency_ms histogram and the journal event.
  double latency_ms = 0;
};

/// Evidence that one query was answered from one view — what the mvlint
/// serve/rewrite-consistent rule re-derives (implies(query_pred,
/// view_pred) over joint must hold for every record).
struct RewriteRecord {
  std::string query;  // QuerySpec name
  std::string view;
  ExprPtr query_pred;
  ExprPtr view_pred;
  Schema joint;
};

class MvServer {
 public:
  /// `db` holds the base tables; chosen views are deployed into the first
  /// snapshot (reusing stored tables already present in `db`, computing
  /// the missing ones with their refresh plans).
  MvServer(Catalog catalog, DesignResult design, const Database& db,
           ServeOptions options = {});

  // ---- Read path (thread-safe, lock-free after the snapshot pin) ----

  /// Parse, bind, rewrite-or-fallback, execute. Throws ParseError /
  /// BindError on bad SQL, ExecError on a forced kViewOnly miss.
  ServeResult serve(const std::string& sql, ServePath path = ServePath::kAuto);
  ServeResult serve(const QuerySpec& query, ServePath path = ServePath::kAuto);

  /// The current snapshot (readers may hold it as long as they like).
  std::shared_ptr<const ServeSnapshot> snapshot() const;

  /// serve() against an explicitly pinned snapshot — the differential
  /// harness runs kViewOnly and kBaseOnly against one snapshot and
  /// compares.
  ServeResult serve_on(const std::shared_ptr<const ServeSnapshot>& snap,
                       const QuerySpec& query,
                       ServePath path = ServePath::kAuto) const;

  // ---- Write path (writers serialize; each publish is atomic) ----

  /// Apply one synthetic update batch to `relation`, capture its delta,
  /// mark dependent views STALE, publish. Returns the new epoch.
  std::uint64_t ingest(const std::string& relation,
                       const UpdateStreamOptions& options, Rng& rng);

  /// Publish every non-VALID view as BUILDING (content unchanged).
  std::uint64_t begin_refresh();

  /// Rebuild every non-VALID view on a staging database that shares the
  /// unchanged tables (kIncremental consumes the captured deltas,
  /// kRecompute re-runs refresh plans), publish them VALID. Returns the
  /// new epoch.
  std::uint64_t finish_refresh(RefreshMode mode = default_refresh_mode());

  /// begin + finish (two publishes; queries between them fall back).
  std::uint64_t refresh(RefreshMode mode = default_refresh_mode());

  /// Batch + rebuild with a single publish: readers see the old state or
  /// the fully refreshed one, never the gap. The writer loop of the
  /// concurrency tests.
  std::uint64_t update_and_refresh(const std::string& relation,
                                   const UpdateStreamOptions& options,
                                   Rng& rng,
                                   RefreshMode mode = default_refresh_mode());

  // ---- Introspection ----

  const Catalog& catalog() const { return catalog_; }
  const ServeOptions& options() const { return options_; }
  std::uint64_t epoch() const;
  ViewStatus status(const std::string& view) const;

  /// All rewrite evidence accumulated so far (thread-safe copy).
  std::vector<RewriteRecord> rewrite_log() const;

  /// The workload observatory recording this server's traffic (null when
  /// options.observe is off). Seeded at construction with the declared
  /// fq/fu catalog annotations; its journal has a file sink when
  /// MVD_JOURNAL is set.
  WorkloadObservatory* observatory() const { return observatory_.get(); }

 private:
  void publish(std::shared_ptr<const ServeSnapshot> next);
  /// serve_on with latency_ms measured from `start`, so serve(sql) can
  /// count its parse/bind in the recorded latency.
  ServeResult serve_from(std::chrono::steady_clock::time_point start,
                         const std::shared_ptr<const ServeSnapshot>& snap,
                         const QuerySpec& query, ServePath path) const;
  /// Rebuild every pending view of `registry` inside `db` (incremental
  /// from `deltas` when possible, recompute otherwise) and mark them
  /// VALID. Pending views are replaced, never mutated in place: `db`
  /// shares its tables with published snapshots. Caller holds
  /// writer_mutex_.
  void rebuild_pending(Database& db, DeployedViewRegistry& registry,
                       RefreshMode mode, const DeltaSet& deltas) const;

  Catalog catalog_;
  DesignResult design_;
  ServeOptions options_;

  mutable std::mutex snapshot_mutex_;
  std::shared_ptr<const ServeSnapshot> snapshot_;

  /// Serializes ingest/refresh; pending_deltas_ is guarded by it.
  std::mutex writer_mutex_;
  DeltaSet pending_deltas_;

  mutable std::mutex log_mutex_;
  /// Mutable: serve_on is logically const (it only reads the snapshot)
  /// but records its rewrite evidence.
  mutable std::vector<RewriteRecord> rewrite_log_;

  /// Thread-safe itself; serve_on records through the pointer.
  std::unique_ptr<WorkloadObservatory> observatory_;
};

}  // namespace mvd
