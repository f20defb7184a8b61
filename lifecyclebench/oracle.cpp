#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <unordered_map>

#include "src/algebra/query_spec.hpp"
#include "src/common/random.hpp"
#include "src/exec/executor.hpp"
#include "src/mvpp/rewrite.hpp"
#include "src/mvpp/selection.hpp"
#include "src/sql/parser.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/paper_example.hpp"

namespace lcb {

namespace {

using mvd::Database;
using mvd::Table;
using mvd::Tuple;
using RowIndex = std::unordered_map<std::int64_t, std::vector<std::size_t>>;

std::size_t col(const Table& t, const std::string& name) {
  return t.schema().index_of(name);
}

std::int64_t int_at(const Tuple& row, std::size_t c) {
  return row[c].as_int64();
}

/// Rows of `t` keyed by integer column `key`, keeping those `keep` accepts.
template <typename Keep>
RowIndex index_rows(const Table& t, const std::string& key, Keep keep) {
  RowIndex out;
  const std::size_t k = col(t, key);
  for (std::size_t i = 0; i < t.row_count(); ++i) {
    const Tuple& row = t.row(i);
    if (keep(row)) out[int_at(row, k)].push_back(i);
  }
  return out;
}

const std::vector<std::size_t>& lookup(const RowIndex& index, std::int64_t key) {
  static const std::vector<std::size_t> none;
  const auto it = index.find(key);
  return it == index.end() ? none : it->second;
}

BagDigest paper_answer(const PaperQuery& q, const Database& db) {
  using K = PaperQuery::Kind;
  const Table& product = db.table("Product");
  const Table& division = db.table("Division");
  const Table& order = db.table("Order");
  const Table& customer = db.table("Customer");
  const Table& part = db.table("Part");
  const std::size_t div_city = col(division, "city");
  const std::size_t prod_did = col(product, "Did");
  const std::size_t prod_name = col(product, "name");

  // Divisions in LA, by Did (a Did can repeat once updates touch it).
  const RowIndex la = index_rows(division, "Did", [&](const Tuple& r) {
    return r[div_city].as_string() == "LA";
  });
  auto la_count = [&](const Tuple& prod) {
    return lookup(la, int_at(prod, prod_did)).size();
  };

  BagDigest out;
  switch (q.kind) {
    case K::kQ1:
      for (const Tuple& p : product.rows()) {
        if (q.product_did_above >= 0 &&
            !(int_at(p, prod_did) > q.product_did_above)) {
          continue;
        }
        const std::uint64_t h = hash_value(p[prod_name]);
        for (std::size_t n = la_count(p); n > 0; --n) out.add_hashed({h});
      }
      break;
    case K::kQ2: {
      const RowIndex by_pid = index_rows(product, "Pid", [](const Tuple&) {
        return true;
      });
      const std::size_t part_pid = col(part, "Pid");
      const std::size_t part_name = col(part, "name");
      for (const Tuple& t : part.rows()) {
        for (const std::size_t pi : lookup(by_pid, int_at(t, part_pid))) {
          const std::uint64_t h = hash_value(t[part_name]);
          for (std::size_t n = la_count(product.row(pi)); n > 0; --n) {
            out.add_hashed({h});
          }
        }
      }
      break;
    }
    case K::kQ3: {
      const RowIndex by_pid = index_rows(product, "Pid", [](const Tuple&) {
        return true;
      });
      const RowIndex by_cid = index_rows(customer, "Cid", [](const Tuple&) {
        return true;
      });
      const std::int64_t h2 = mvd::Value::days_from_civil(1996, 7, 1);
      const std::size_t o_pid = col(order, "Pid");
      const std::size_t o_cid = col(order, "Cid");
      const std::size_t o_qty = col(order, "quantity");
      const std::size_t o_date = col(order, "date");
      const std::size_t c_name = col(customer, "name");
      for (const Tuple& o : order.rows()) {
        if (!(int_at(o, o_date) > h2)) continue;
        for (const std::size_t pi : lookup(by_pid, int_at(o, o_pid))) {
          const Tuple& p = product.row(pi);
          const std::size_t n_la = la_count(p);
          if (n_la == 0) continue;
          for (const std::size_t ci : lookup(by_cid, int_at(o, o_cid))) {
            const std::vector<std::uint64_t> row{
                hash_value(customer.row(ci)[c_name]), hash_value(p[prod_name]),
                hash_value(o[o_qty])};
            for (std::size_t n = n_la; n > 0; --n) out.add_hashed(row);
          }
        }
      }
      break;
    }
    case K::kQ4: {
      const RowIndex by_cid = index_rows(customer, "Cid", [](const Tuple&) {
        return true;
      });
      const std::size_t o_cid = col(order, "Cid");
      const std::size_t o_qty = col(order, "quantity");
      const std::size_t o_date = col(order, "date");
      const std::size_t c_city = col(customer, "city");
      for (const Tuple& o : order.rows()) {
        if (!(int_at(o, o_qty) > q.quantity_above)) continue;
        if (q.date_after >= 0 && !(int_at(o, o_date) > q.date_after)) continue;
        for (const std::size_t ci : lookup(by_cid, int_at(o, o_cid))) {
          out.add_hashed({hash_value(customer.row(ci)[c_city]),
                          hash_value(o[o_date])});
        }
      }
      break;
    }
    case K::kDivisionCity: {
      const std::size_t d_name = col(division, "name");
      for (const Tuple& d : division.rows()) {
        if (d[div_city].as_string() == q.city) out.add_hashed({hash_value(d[d_name])});
      }
      break;
    }
    case K::kCustomerBelow: {
      const std::size_t c_cid = col(customer, "Cid");
      const std::size_t c_name = col(customer, "name");
      for (const Tuple& c : customer.rows()) {
        if (int_at(c, c_cid) < q.cid_below) out.add_hashed({hash_value(c[c_name])});
      }
      break;
    }
  }
  return out;
}

/// Walks every fact row the star query keeps, with one matching row per
/// joined dimension (the cartesian product of matches when a dimension
/// id repeats). `emit(fact_row, dim_rows)` sees each combination.
template <typename Emit>
void for_each_star_match(const StarQuery& q, const Database& db, Emit emit) {
  std::vector<const Table*> dims;
  std::vector<RowIndex> matches;
  for (std::size_t k = 0; k < q.dims.size(); ++k) {
    const Table& t = db.table("Dim" + std::to_string(q.dims[k]));
    const std::size_t cat = col(t, "category");
    const std::string want = "cat_" + std::to_string(q.category[k]);
    const bool filter = q.category[k] >= 0;
    dims.push_back(&t);
    matches.push_back(index_rows(t, "id", [&](const Tuple& r) {
      return !filter || r[cat].as_string() == want;
    }));
  }
  const Table& fact = db.table("Fact");
  const std::size_t measure = col(fact, "measure");
  std::vector<std::size_t> fk;
  for (const int d : q.dims) fk.push_back(col(fact, "d" + std::to_string(d)));

  std::vector<const Tuple*> picked(q.dims.size(), nullptr);
  for (const Tuple& f : fact.rows()) {
    const std::int64_t m = int_at(f, measure);
    if (q.measure_above >= 0 && !(m > q.measure_above)) continue;
    if (q.measure_below >= 0 && !(m < q.measure_below)) continue;
    // Depth-first over the dimensions' matching rows.
    auto walk = [&](auto&& self, std::size_t k) -> void {
      if (k == q.dims.size()) {
        emit(f, picked);
        return;
      }
      for (const std::size_t r : lookup(matches[k], int_at(f, fk[k]))) {
        picked[k] = &dims[k]->row(r);
        self(self, k + 1);
      }
    };
    walk(walk, 0);
  }
}

BagDigest star_answer(const StarQuery& q, const Database& db) {
  BagDigest out;
  if (q.dimension_only) {
    const Table& t = db.table("Dim" + std::to_string(q.dims.front()));
    const std::size_t cat = col(t, "category");
    const std::size_t label = col(t, "label");
    const std::string want = "cat_" + std::to_string(q.category.front());
    for (const Tuple& r : t.rows()) {
      if (r[cat].as_string() == want) out.add_hashed({hash_value(r[label])});
    }
    return out;
  }
  const std::size_t measure = col(db.table("Fact"), "measure");
  if (q.group_dim < 0) {
    const std::size_t label = col(db.table("Dim" + std::to_string(q.dims[0])),
                                  "label");
    std::vector<std::uint64_t> row;
    for_each_star_match(q, db, [&](const Tuple& f,
                                   const std::vector<const Tuple*>& ds) {
      row.assign(1, hash_value(f[measure]));
      for (const Tuple* d : ds) row.push_back(hash_value((*d)[label]));
      out.add_hashed(row);
    });
    return out;
  }
  const auto g = static_cast<std::size_t>(
      std::find(q.dims.begin(), q.dims.end(), q.group_dim) - q.dims.begin());
  const std::size_t cat = col(db.table("Dim" + std::to_string(q.group_dim)),
                              "category");
  struct Group {
    double sum = 0;
    std::int64_t count = 0;
  };
  std::unordered_map<std::string, Group> groups;
  for_each_star_match(q, db, [&](const Tuple& f,
                                 const std::vector<const Tuple*>& ds) {
    Group& grp = groups[(*ds[g])[cat].as_string()];
    grp.sum += f[measure].as_double();
    ++grp.count;
  });
  for (const auto& [key, grp] : groups) {
    out.add_hashed({hash_text(key), hash_number(grp.sum),
                    hash_number(static_cast<double>(grp.count))});
  }
  return out;
}

}  // namespace

BagDigest expected_answer(const QueryShape& shape, const Database& db) {
  if (const auto* p = std::get_if<PaperQuery>(&shape)) return paper_answer(*p, db);
  return star_answer(std::get<StarQuery>(shape), db);
}

std::uint64_t qualifying_fact_rows(const StarQuery& q, const Database& db) {
  std::uint64_t n = 0;
  for_each_star_match(q, db, [&](const Tuple&, const std::vector<const Tuple*>&) {
    ++n;
  });
  return n;
}

BagDigest reference_answer(const mvd::Catalog& catalog, const std::string& sql,
                           const std::shared_ptr<const Database>& db) {
  const mvd::Executor exec(db, mvd::ExecMode::kRow, 1);
  return digest(exec.run(mvd::canonical_plan(catalog, mvd::parse_adhoc(catalog, sql))));
}

std::string check_answer(const BagDigest& expected, const Table& served) {
  const BagDigest got = digest(served);
  if (got == expected) return "";
  return "answer differs from the oracle (" + std::to_string(got.rows()) +
         " rows served, " + std::to_string(expected.rows()) + " expected)";
}

std::string check_rollup_count(std::uint64_t rows, const Table& served) {
  double total = 0;
  for (const Tuple& r : served.rows()) total += r.back().as_double();
  if (total == static_cast<double>(rows)) return "";
  return "rollup COUNT(*) sums to " + std::to_string(total) + ", " +
         std::to_string(rows) + " qualifying fact rows";
}

std::string check_views(const mvd::ServeSnapshot& snap,
                        const mvd::DesignResult& design, bool all_views) {
  const mvd::MvppGraph& graph = design.graph();
  const mvd::Executor exec(snap.db, mvd::ExecMode::kFused, 2);
  for (const mvd::DeployedView& v : snap.registry.views()) {
    if (!all_views && v.status != mvd::ViewStatus::kValid) continue;
    const mvd::NodeId id = graph.find_by_name(v.def.name);
    const Table fresh = exec.run(mvd::refresh_plan(graph, id, {}));
    if (!(digest(fresh) == digest(snap.db->table(v.def.name)))) {
      return "view " + v.def.name + " differs from its definition over base "
             "tables at epoch " + std::to_string(snap.epoch);
    }
  }
  return "";
}

std::string check_ingest(std::size_t rows_before, std::size_t rows_after,
                         std::size_t delta_inserts, std::size_t delta_deletes) {
  if (rows_after + delta_deletes == rows_before + delta_inserts) return "";
  return "ingest left " + std::to_string(rows_after) + " rows; " +
         std::to_string(rows_before) + " + " + std::to_string(delta_inserts) +
         " - " + std::to_string(delta_deletes) + " expected";
}

std::string check_design_cost(const mvd::DesignResult& design,
                              const mvd::MaintenancePolicy& policy,
                              double reported_total) {
  const mvd::MvppEvaluator eval(design.graph(), policy);
  const double total = eval.evaluate(design.selection.materialized).total();
  if (std::abs(total - reported_total) > 1e-9 * std::max(1.0, std::abs(total))) {
    return "design cost " + std::to_string(reported_total) +
           " differs from the re-evaluated " + std::to_string(total);
  }
  const double nothing = mvd::select_nothing(eval).costs.total();
  if (reported_total > nothing * (1 + 1e-12)) {
    return "design cost " + std::to_string(reported_total) +
           " exceeds the select-nothing total " + std::to_string(nothing);
  }
  return "";
}

namespace {

/// Tallies self-test outcomes: a check on intact input must hold, a
/// check on corrupted input must fail.
struct SelfTest {
  std::ostream& log;
  int wrong = 0;

  void intact(const std::string& what, const std::string& verdict) {
    if (!verdict.empty()) {
      ++wrong;
      log << "selftest: intact " << what << " reported: " << verdict << "\n";
    }
  }
  void corrupt(const std::string& what, const std::string& verdict) {
    if (verdict.empty()) {
      ++wrong;
      log << "selftest: corrupted " << what << " was not caught\n";
    }
  }
};

mvd::MvServer small_server(const mvd::Catalog& catalog,
                           const std::vector<DesignQuery>& queries,
                           const mvd::DesignerOptions& options,
                           const Database& db, mvd::DesignResult& design) {
  mvd::WarehouseDesigner designer(catalog, options);
  for (const DesignQuery& q : queries) designer.add_query(q.name, q.frequency, q.sql);
  design = designer.design();
  return mvd::MvServer(catalog, design, db);
}

}  // namespace

int oracle_selftest(std::ostream& log) {
  SelfTest t{log};

  // The paper warehouse at a small scale, designed as paper-serve is.
  Workload paper = make_workload("paper-serve", 7);
  paper.base = mvd::populate_paper_database(0.05, 7);
  mvd::DesignResult design;
  mvd::MvServer server =
      small_server(paper.catalog, paper.queries, paper.designer, paper.base, design);
  const auto snap = server.snapshot();

  // Served answers: intact, one row dropped, one value changed.
  for (const MixQuery& m : paper.mix) {
    const mvd::ServeResult r = server.serve(m.sql);
    t.intact("answer " + m.family, check_answer(expected_answer(m.shape, *snap->db), r.table));
  }
  {
    const MixQuery& q4 = paper.mix[3];
    const BagDigest expected = expected_answer(q4.shape, *snap->db);
    const Table served = server.serve(q4.sql).table;
    Table dropped(served.schema());
    for (std::size_t i = 1; i < served.row_count(); ++i) dropped.append(served.row(i));
    t.corrupt("answer with one row dropped", check_answer(expected, dropped));
    Table changed = served;
    Tuple row = changed.row(0);
    row[1] = mvd::Value::date(row[1].as_int64() + 1);
    changed.update_row(0, row);
    t.corrupt("answer with one value changed", check_answer(expected, changed));
  }

  // Views after a refresh, and a stale view presented as VALID.
  t.intact("views at deploy", check_views(*snap, design));
  mvd::Rng rng(3);
  const std::size_t before = snap->db->table("Order").row_count();
  {
    Database replica;
    replica.add_table("Order", snap->db->table("Order"));
    mvd::DeltaSet delta;
    mvd::Rng copy = rng;
    mvd::apply_update_batch(replica, "Order", {}, copy, &delta);
    server.ingest("Order", {}, rng);
    const std::size_t after = server.snapshot()->db->table("Order").row_count();
    const mvd::DeltaTable& d = delta.at("Order");
    const std::size_t ins = d.inserts().row_count();
    const std::size_t del = d.deletes().row_count();
    t.intact("ingest row count", check_ingest(before, after, ins, del));
    t.corrupt("ingest row count off by one", check_ingest(before, after + 1, ins, del));
  }
  t.corrupt("stale view presented as VALID",
            check_views(*server.snapshot(), design, /*all_views=*/true));
  server.refresh();
  t.intact("views after refresh", check_views(*server.snapshot(), design));

  // Design cost: as reported, and mis-stated by one block.
  const double total = design.selection.costs.total();
  t.intact("design cost", check_design_cost(design, paper.designer.maintenance, total));
  t.corrupt("design cost mis-stated",
            check_design_cost(design, paper.designer.maintenance, total + 1));

  // A small star: canonical reference, rollup counts.
  Workload star = make_workload("design-wide", 7);
  mvd::StarSchemaOptions tiny;
  tiny.fact_rows = 2'000;
  tiny.dimension_rows = 200;
  star.base = mvd::populate_star_database(tiny, 7);
  mvd::DesignResult star_design;
  mvd::MvServer star_server = small_server(star.catalog, star.queries, star.designer,
                                           star.base, star_design);
  const auto star_snap = star_server.snapshot();
  bool rollup_tested = false;
  for (const MixQuery& m : star.mix) {
    const mvd::ServeResult r = star_server.serve(m.sql);
    const BagDigest expected = expected_answer(m.shape, *star_snap->db);
    t.intact("answer " + m.family, check_answer(expected, r.table));
    t.intact("reference " + m.family,
             expected == reference_answer(star.catalog, m.sql, star_snap->db)
                 ? ""
                 : "own evaluator and canonical_plan disagree");
    const StarQuery& q = std::get<StarQuery>(m.shape);
    if (q.group_dim < 0 || r.table.row_count() == 0) continue;
    const std::uint64_t rows = qualifying_fact_rows(q, *star_snap->db);
    t.intact("rollup count " + m.family, check_rollup_count(rows, r.table));
    if (!rollup_tested) {
      Table changed = r.table;
      Tuple row = changed.row(0);
      row.back() = mvd::Value::int64(row.back().as_int64() + 1);
      changed.update_row(0, row);
      t.corrupt("rollup with one count changed", check_rollup_count(rows, changed));
      t.corrupt("rollup answer with one count changed", check_answer(expected, changed));
      rollup_tested = true;
    }
  }
  if (!rollup_tested) t.corrupt("rollup count (no rollup served)", "");
  return t.wrong;
}

}  // namespace lcb
