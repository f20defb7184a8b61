#include "src/serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <set>
#include <utility>

#include "src/common/assert.hpp"
#include "src/common/error.hpp"
#include "src/mvpp/rewrite.hpp"
#include "src/obs/publish.hpp"

namespace mvd {

namespace {

/// A staging database whose entries alias every table of `db`. Writers
/// only replace entries of it (put_table), so the published snapshot that
/// owns `db` never sees a change, and a table the write does not touch
/// keeps its identity into the next epoch.
Database share_tables(const Database& db) {
  Database staging;
  for (const std::string& name : db.table_names()) {
    staging.put_shared(name, db.shared_table(name));
  }
  return staging;
}

}  // namespace

bool default_serve_rewrite() {
  if (const char* env = std::getenv("MVD_SERVE_REWRITE")) {
    const std::string f(env);
    if (f == "0" || f == "false" || f == "off") return false;
  }
  return true;
}

bool default_serve_observe() {
  if (const char* env = std::getenv("MVD_SERVE_OBSERVE")) {
    const std::string f(env);
    if (f == "0" || f == "false" || f == "off") return false;
  }
  return true;
}

MvServer::MvServer(Catalog catalog, DesignResult design, const Database& db,
                   ServeOptions options)
    : catalog_(std::move(catalog)),
      design_(std::move(design)),
      options_(options) {
  const MvppGraph& graph = design_.graph();
  const MaterializedSet& m = design_.selection.materialized;

  // Deploy any chosen view the caller has not already stored. NodeId
  // order is topological, so refresh plans read stored descendants.
  Database deployed = db;
  for (const NodeId id : m) {
    const MvppNode& node = graph.node(id);
    if (deployed.has_table(node.name)) continue;
    const Executor exec(deployed, options_.mode, options_.threads);
    deployed.put_table(node.name, exec.run(refresh_plan(graph, id, m)));
  }

  auto first = std::make_shared<ServeSnapshot>();
  first->epoch = 0;
  first->db = std::make_shared<const Database>(std::move(deployed));
  first->registry = DeployedViewRegistry(graph, m, *first->db);
  snapshot_ = std::move(first);

  if (options_.observe) {
    observatory_ = std::make_unique<WorkloadObservatory>();
    // The journal picks up MVD_JOURNAL as its file sink; the kOpen event
    // plus the declarations below make it replay self-contained.
    observatory_->attach_journal(std::make_shared<EventJournal>());
    for (const NodeId q : graph.query_ids()) {
      const MvppNode& node = graph.node(q);
      observatory_->declare_query(node.name, node.frequency);
    }
    for (const std::string& rel : catalog_.relation_names()) {
      observatory_->declare_update(rel, catalog_.update_frequency(rel));
    }
  }
}

std::shared_ptr<const ServeSnapshot> MvServer::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

void MvServer::publish(std::shared_ptr<const ServeSnapshot> next) {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_ = std::move(next);
}

ServeResult MvServer::serve(const std::string& sql, ServePath path) {
  const auto start = std::chrono::steady_clock::now();
  const QuerySpec query = parse_adhoc(catalog_, sql);
  return serve_from(start, snapshot(), query, path);
}

ServeResult MvServer::serve(const QuerySpec& query, ServePath path) {
  return serve_on(snapshot(), query, path);
}

ServeResult MvServer::serve_on(const std::shared_ptr<const ServeSnapshot>& snap,
                               const QuerySpec& query, ServePath path) const {
  return serve_from(std::chrono::steady_clock::now(), snap, query, path);
}

ServeResult MvServer::serve_from(
    std::chrono::steady_clock::time_point start,
    const std::shared_ptr<const ServeSnapshot>& snap, const QuerySpec& query,
    ServePath path) const {
  MVD_ASSERT(snap != nullptr && snap->db != nullptr);
  ServeResult out;
  out.epoch = snap->epoch;

  // The forced kViewOnly path overrides the global rewrite switch — it
  // exists to assert coverage, not to measure the default configuration.
  const bool try_rewrite =
      path == ServePath::kViewOnly ||
      (path == ServePath::kAuto && options_.rewrite);

  std::optional<ViewMatch> best;
  std::string refusals;
  if (try_rewrite) {
    for (const ViewDef& v : snap->registry.matchable()) {
      std::string why;
      std::optional<ViewMatch> match =
          match_query_to_view(query, v, catalog_, &why);
      if (match.has_value()) {
        const bool better =
            !best.has_value() || match->stored_blocks < best->stored_blocks ||
            (match->stored_blocks == best->stored_blocks &&
             match->view < best->view);
        if (better) best = std::move(match);
      } else {
        if (!refusals.empty()) refusals += "; ";
        refusals += v.name + ": " + why;
        out.refusals.push_back({v.name, why});
      }
    }
  } else if (path == ServePath::kBaseOnly) {
    refusals = "base-only path forced";
  } else {
    refusals = "rewriting disabled";
  }

  if (path == ServePath::kViewOnly && !best.has_value()) {
    throw ExecError("no materialized view covers query '" + query.name() +
                    "'" + (refusals.empty() ? "" : " (" + refusals + ")"));
  }

  PlanPtr plan;
  if (best.has_value()) {
    out.rewritten = true;
    out.view = best->view;
    out.refusals.clear();
    plan = best->plan;
  } else {
    out.refusal = refusals.empty() ? "no deployed views" : refusals;
    plan = canonical_plan(catalog_, query);
  }
  out.engine = exec_mode_name(options_.mode);

  const Executor exec(snap->db, options_.mode, options_.threads);
  out.table = exec.run(plan, &out.stats);
  out.latency_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();

  if (out.rewritten) {
    std::lock_guard<std::mutex> lock(log_mutex_);
    rewrite_log_.push_back({query.name(), best->view, best->query_pred,
                            best->view_pred, best->joint});
  }
  publish_serve_result(out.rewritten, out.view, out.latency_ms, out.engine,
                       out.refusals);

  if (observatory_ != nullptr) {
    JournalEvent e;
    e.kind = EventKind::kServe;
    e.epoch = snap->epoch;
    e.query = query.name();
    e.fingerprint = query_fingerprint(query);
    e.rewritten = out.rewritten;
    e.view = out.view;
    e.engine = out.engine;
    e.latency_ms = out.latency_ms;
    e.refusals = out.refusals;
    if (!out.rewritten) {
      // Stale coverage this fallback could have used: non-VALID matchable
      // views over exactly the query's relation set.
      const std::set<std::string> query_rels(query.relations().begin(),
                                             query.relations().end());
      for (const DeployedView& v : snap->registry.views()) {
        if (v.status != ViewStatus::kValid && v.def.matchable &&
            v.def.relations == query_rels) {
          e.stale_views.push_back(v.def.name);
        }
      }
    }
    observatory_->record(std::move(e));
  }
  return out;
}

std::uint64_t MvServer::ingest(const std::string& relation,
                               const UpdateStreamOptions& options, Rng& rng) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  const std::shared_ptr<const ServeSnapshot> cur = snapshot();

  auto next = std::make_shared<ServeSnapshot>();
  next->epoch = cur->epoch + 1;
  Database staging = share_tables(*cur->db);
  const auto before = pending_deltas_.find(relation);
  const std::size_t rows0 =
      before != pending_deltas_.end() ? before->second.row_count() : 0;
  apply_update_batch(staging, relation, options, rng, &pending_deltas_);
  const std::size_t rows1 = pending_deltas_.at(relation).row_count();
  next->registry = cur->registry;
  const std::vector<std::string> marked = next->registry.mark_stale(relation);
  next->db = std::make_shared<const Database>(std::move(staging));
  publish(next);
  if (observatory_ != nullptr) {
    JournalEvent e;
    e.kind = EventKind::kIngest;
    e.epoch = next->epoch;
    e.relation = relation;
    e.delta_rows = static_cast<double>(rows1 - rows0);
    e.marked_stale = marked;
    observatory_->record(std::move(e));
    observatory_->publish_gauges();
  }
  return next->epoch;
}

std::uint64_t MvServer::begin_refresh() {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  const std::shared_ptr<const ServeSnapshot> cur = snapshot();

  // Content is unchanged, so the new snapshot shares the database; only
  // the registry advances (STALE -> BUILDING).
  auto next = std::make_shared<ServeSnapshot>(*cur);
  next->epoch = cur->epoch + 1;
  for (const std::string& name : next->registry.pending()) {
    next->registry.set_status(name, ViewStatus::kBuilding);
  }
  publish(next);
  return next->epoch;
}

std::uint64_t MvServer::finish_refresh(RefreshMode mode) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  const std::shared_ptr<const ServeSnapshot> cur = snapshot();

  auto next = std::make_shared<ServeSnapshot>();
  next->epoch = cur->epoch + 1;
  Database staging = share_tables(*cur->db);
  DeployedViewRegistry registry = cur->registry;
  const std::vector<std::string> pending = registry.pending();
  const DeltaSet deltas = std::exchange(pending_deltas_, DeltaSet{});
  rebuild_pending(staging, registry, mode, deltas);
  next->db = std::make_shared<const Database>(std::move(staging));
  next->registry = std::move(registry);
  publish(next);
  if (observatory_ != nullptr && !pending.empty()) {
    JournalEvent e;
    e.kind = EventKind::kRefresh;
    e.epoch = next->epoch;
    e.refreshed = pending;
    e.mode = to_string(mode);
    observatory_->record(std::move(e));
    observatory_->publish_gauges();
  }
  return next->epoch;
}

std::uint64_t MvServer::refresh(RefreshMode mode) {
  begin_refresh();
  return finish_refresh(mode);
}

std::uint64_t MvServer::update_and_refresh(const std::string& relation,
                                           const UpdateStreamOptions& options,
                                           Rng& rng, RefreshMode mode) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  const std::shared_ptr<const ServeSnapshot> cur = snapshot();

  auto next = std::make_shared<ServeSnapshot>();
  next->epoch = cur->epoch + 1;
  Database staging = share_tables(*cur->db);
  DeployedViewRegistry registry = cur->registry;
  DeltaSet deltas = std::exchange(pending_deltas_, DeltaSet{});
  const auto before = deltas.find(relation);
  const std::size_t rows0 =
      before != deltas.end() ? before->second.row_count() : 0;
  apply_update_batch(staging, relation, options, rng, &deltas);
  const std::size_t rows1 = deltas.at(relation).row_count();
  const std::vector<std::string> marked = registry.mark_stale(relation);
  const std::vector<std::string> pending = registry.pending();
  rebuild_pending(staging, registry, mode, deltas);
  next->db = std::make_shared<const Database>(std::move(staging));
  next->registry = std::move(registry);
  publish(next);
  if (observatory_ != nullptr) {
    JournalEvent ingest_event;
    ingest_event.kind = EventKind::kIngest;
    ingest_event.epoch = next->epoch;
    ingest_event.relation = relation;
    ingest_event.delta_rows = static_cast<double>(rows1 - rows0);
    ingest_event.marked_stale = marked;
    observatory_->record(std::move(ingest_event));
    if (!pending.empty()) {
      JournalEvent refresh_event;
      refresh_event.kind = EventKind::kRefresh;
      refresh_event.epoch = next->epoch;
      refresh_event.refreshed = pending;
      refresh_event.mode = to_string(mode);
      observatory_->record(std::move(refresh_event));
    }
    observatory_->publish_gauges();
  }
  return next->epoch;
}

void MvServer::rebuild_pending(Database& db, DeployedViewRegistry& registry,
                               RefreshMode mode,
                               const DeltaSet& deltas) const {
  const std::vector<std::string> pending = registry.pending();
  if (pending.empty()) return;
  const MvppGraph& graph = design_.graph();
  const MaterializedSet& m = design_.selection.materialized;

  if (mode == RefreshMode::kIncremental && !deltas.empty()) {
    // The incremental walk covers every view a delta reaches — exactly
    // the set ingest marked stale for those relations. It applies SPJ
    // deltas in place, so each of those views first gets a private copy:
    // the shared one still belongs to published snapshots.
    for (const std::string& name : pending) {
      db.put_table(name, Table(db.table(name)));
    }
    incremental_refresh(graph, m, db, deltas, nullptr, options_.mode,
                        options_.threads);
  } else {
    for (const NodeId id : m) {
      const MvppNode& node = graph.node(id);
      if (std::find(pending.begin(), pending.end(), node.name) ==
          pending.end()) {
        continue;
      }
      const Executor exec(db, options_.mode, options_.threads);
      db.put_table(node.name, exec.run(refresh_plan(graph, id, m)));
    }
  }
  for (const std::string& name : pending) {
    registry.set_status(name, ViewStatus::kValid);
  }
}

std::uint64_t MvServer::epoch() const { return snapshot()->epoch; }

ViewStatus MvServer::status(const std::string& view) const {
  return snapshot()->registry.status(view);
}

std::vector<RewriteRecord> MvServer::rewrite_log() const {
  std::lock_guard<std::mutex> lock(log_mutex_);
  return rewrite_log_;
}

}  // namespace mvd
