#include "workloads.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "src/common/random.hpp"
#include "src/storage/value.hpp"
#include "src/workload/generator.hpp"
#include "src/workload/paper_example.hpp"

namespace lcb {

namespace {

using mvd::Rng;

std::string date_literal(std::int64_t days) {
  int y = 0;
  int m = 0;
  int d = 0;
  mvd::Value::civil_from_days(days, y, m, d);
  char buf[32];
  std::snprintf(buf, sizeof buf, "DATE '%04d-%02d-%02d'", y, m, d);
  return buf;
}

std::string dim(int d) { return "Dim" + std::to_string(d); }

/// Highest percentile with at least ten of `count` samples beyond it.
double tail_percentile_for(std::size_t count) {
  return 100.0 * static_cast<double>(count - 10) / static_cast<double>(count);
}

void finish_pass(Workload& w) {
  w.serves_per_pass = 0;
  for (const Step& s : w.pass) w.serves_per_pass += s.batch.size();
  w.tail_percentile = tail_percentile_for(w.serves_per_pass * w.min_passes);
}

/// `n` values in [0, k), each appearing n / k or n / k + 1 times, in a
/// seeded order. Balanced columns give every seed the same selectivities
/// (exactly 2% of divisions in LA, exactly half the orders above quantity
/// 100), so a seed changes which rows qualify but not how many: the work
/// of a pass does not move with the seed.
std::vector<std::int64_t> balanced(std::size_t n, std::int64_t k, Rng& rng) {
  std::vector<std::int64_t> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::int64_t>(i % static_cast<std::size_t>(k));
  }
  rng.shuffle(out);
  return out;
}

mvd::Value str(const std::string& prefix, std::int64_t i) {
  return mvd::Value::string(prefix + std::to_string(i));
}

/// The Section 2 warehouse at Table 1 scale (Product 30k, Division 5k,
/// Order 50k, Customer 20k, Part 80k rows), with the catalog's
/// statistics: 50 cities ('LA' and 'SF' are two of them), 1996 order
/// dates, quantities on [1, 200].
mvd::Database paper_database(const mvd::Catalog& catalog, std::uint64_t seed) {
  Rng rng(seed);
  mvd::Database db;
  auto city = [](std::int64_t c) {
    return mvd::Value::string(c == 0 ? "LA" : c == 1 ? "SF" : "city_" + std::to_string(c));
  };
  auto table = [&](const std::string& name) {
    return mvd::Table(catalog.schema(name), catalog.blocking_factor());
  };
  const std::size_t n_division = 5'000;
  const std::size_t n_product = 30'000;
  const std::size_t n_customer = 20'000;
  const std::size_t n_order = 50'000;
  const std::size_t n_part = 80'000;
  {
    mvd::Table t = table("Division");
    const auto cities = balanced(n_division, 50, rng);
    for (std::size_t i = 0; i < n_division; ++i) {
      const auto id = static_cast<std::int64_t>(i);
      t.append({mvd::Value::int64(id), i == 0 ? mvd::Value::string("Re") : str("div_", id),
                city(cities[i])});
    }
    db.add_table("Division", std::move(t));
  }
  {
    mvd::Table t = table("Product");
    const auto did = balanced(n_product, n_division, rng);
    for (std::size_t i = 0; i < n_product; ++i) {
      const auto id = static_cast<std::int64_t>(i);
      t.append({mvd::Value::int64(id), str("prod_", id), mvd::Value::int64(did[i])});
    }
    db.add_table("Product", std::move(t));
  }
  {
    mvd::Table t = table("Customer");
    const auto cities = balanced(n_customer, 50, rng);
    for (std::size_t i = 0; i < n_customer; ++i) {
      const auto id = static_cast<std::int64_t>(i);
      t.append({mvd::Value::int64(id), str("cust_", id), city(cities[i])});
    }
    db.add_table("Customer", std::move(t));
  }
  {
    mvd::Table t = table("Order");
    const std::int64_t jan1 = mvd::Value::days_from_civil(1996, 1, 1);
    const auto pid = balanced(n_order, n_product, rng);
    const auto cid = balanced(n_order, n_customer, rng);
    const auto qty = balanced(n_order, 200, rng);
    const auto day = balanced(n_order, 366, rng);
    for (std::size_t i = 0; i < n_order; ++i) {
      t.append({mvd::Value::int64(pid[i]), mvd::Value::int64(cid[i]),
                mvd::Value::int64(qty[i] + 1), mvd::Value::date(jan1 + day[i])});
    }
    db.add_table("Order", std::move(t));
  }
  {
    mvd::Table t = table("Part");
    const auto pid = balanced(n_part, n_product, rng);
    const auto sup = balanced(n_part, 1'000, rng);
    for (std::size_t i = 0; i < n_part; ++i) {
      const auto id = static_cast<std::int64_t>(i);
      t.append({mvd::Value::int64(id), str("part_", id), mvd::Value::int64(pid[i]),
                str("sup_", sup[i])});
    }
    db.add_table("Part", std::move(t));
  }
  return db;
}

/// Star tables matching make_star_catalog's schema and statistics, with
/// balanced categories, foreign keys and measures.
mvd::Database star_database(const mvd::Catalog& catalog,
                            const mvd::StarSchemaOptions& o, std::uint64_t seed) {
  Rng rng(seed);
  mvd::Database db;
  const auto cats = static_cast<std::int64_t>(o.categories);
  for (std::size_t d = 0; d < o.dimensions; ++d) {
    const std::string name = dim(static_cast<int>(d));
    mvd::Table t(catalog.schema(name), o.blocking_factor);
    const auto cat = balanced(o.dimension_rows, cats, rng);
    const auto weight = balanced(o.dimension_rows, 100, rng);
    for (std::size_t r = 0; r < o.dimension_rows; ++r) {
      const auto id = static_cast<std::int64_t>(r);
      t.append({mvd::Value::int64(id), str("cat_", cat[r]),
                str("label_" + std::to_string(d) + "_", id),
                mvd::Value::int64(weight[r] + 1)});
    }
    db.add_table(name, std::move(t));
  }
  std::vector<std::vector<std::int64_t>> fk;
  for (std::size_t d = 0; d < o.dimensions; ++d) {
    fk.push_back(balanced(o.fact_rows, static_cast<std::int64_t>(o.dimension_rows), rng));
  }
  const auto measure =
      balanced(o.fact_rows, static_cast<std::int64_t>(o.measure_range), rng);
  mvd::Table fact(catalog.schema("Fact"), o.blocking_factor);
  for (std::size_t r = 0; r < o.fact_rows; ++r) {
    mvd::Tuple t{mvd::Value::int64(static_cast<std::int64_t>(r))};
    for (std::size_t d = 0; d < o.dimensions; ++d) t.push_back(mvd::Value::int64(fk[d][r]));
    t.push_back(mvd::Value::int64(measure[r] + 1));
    t.push_back(mvd::Value::real(rng.uniform(0, 1'000)));
    fact.append(std::move(t));
  }
  db.add_table("Fact", std::move(fact));
  return db;
}

/// Adds `copies` of mix entry `index` to `batch`.
void repeat(std::vector<std::size_t>& batch, std::size_t index, int copies) {
  for (int i = 0; i < copies; ++i) batch.push_back(index);
}

// ---- paper-serve -------------------------------------------------------

Workload paper_serve(std::uint64_t seed) {
  Workload w;
  w.name = "paper-serve";
  w.seed = seed;
  w.catalog = mvd::make_paper_catalog();
  w.designer.cost = mvd::paper_cost_config();
  w.clients = 2;

  // The four Section 2 queries with the paper's access frequencies.
  using K = PaperQuery::Kind;
  auto of = [](K kind) {
    PaperQuery q;
    q.kind = kind;
    return q;
  };
  const PaperQuery q1 = of(K::kQ1);
  const PaperQuery q2 = of(K::kQ2);
  const PaperQuery q3 = of(K::kQ3);
  const PaperQuery q4 = of(K::kQ4);
  w.queries = {{"Q1", 10, paper_sql(q1)},
               {"Q2", 0.5, paper_sql(q2)},
               {"Q3", 0.8, paper_sql(q3)},
               {"Q4", 5, paper_sql(q4)}};
  w.base = paper_database(w.catalog, seed);

  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  auto add = [&w](std::string family, PaperQuery q) {
    w.mix.push_back({std::move(family), paper_sql(q), q});
    return w.mix.size() - 1;
  };
  const std::size_t i1 = add("Q1", q1);
  const std::size_t i2 = add("Q2", q2);
  const std::size_t i3 = add("Q3", q3);
  const std::size_t i4 = add("Q4", q4);

  // Ten copies per unit of fq (Q3's 0.8 rounds to 8), then residual
  // variants the deployed views answer with compensation, then queries
  // no view covers.
  std::vector<std::size_t> batch;
  repeat(batch, i1, 100);
  repeat(batch, i2, 5);
  repeat(batch, i3, 8);
  repeat(batch, i4, 50);
  for (int v = 0; v < 3; ++v) {
    PaperQuery q = q1;
    q.product_did_above = rng.uniform_int(2'400, 2'600);
    repeat(batch, add("Q1-residual", q), 10);
  }
  const std::int64_t jan1 = mvd::Value::days_from_civil(1996, 1, 1);
  for (int v = 0; v < 4; ++v) {
    PaperQuery q = q4;
    q.date_after = jan1 + rng.uniform_int(175, 185);
    repeat(batch, add("Q4-residual", q), 5);
  }
  for (int v = 0; v < 5; ++v) {
    PaperQuery q = of(K::kDivisionCity);
    q.city = "city_" + std::to_string(rng.uniform_int(2, 49));
    repeat(batch, add("uncovered", q), 2);
  }
  for (int v = 0; v < 5; ++v) {
    PaperQuery q = of(K::kCustomerBelow);
    q.cid_below = rng.uniform_int(240, 260);
    repeat(batch, add("uncovered", q), 2);
  }

  Step serve{Step::Kind::kServe, batch, "", {}};
  Step ingest{Step::Kind::kIngest, {}, "Order", {}};
  Step refresh{Step::Kind::kRefresh, {}, "", {}};
  w.pass = {serve, ingest, refresh, ingest, refresh};
  finish_pass(w);
  w.summary = "paper warehouse at Table 1 scale (Product 30k, Division 5k, "
              "Order 50k, Customer 20k, Part 80k rows)";
  return w;
}

// ---- generated star workloads -------------------------------------------

struct StarSpec {
  mvd::StarSchemaOptions schema;
  std::size_t queries = 10;
  int max_dims = 2;
  double selection_probability = 0.7;
  std::uint64_t query_seed = 0;
  double top_frequency = 10;
};

/// The designed star queries: fixed per workload (their seed is part of
/// the workload, not of the run). Queries i with i % 5 in {1, 3} are
/// rollups, 40% of the set; star_base gives them fq = top / rank.
std::vector<StarQuery> designed_star_queries(const StarSpec& spec) {
  Rng rng(spec.query_seed);
  const int ndim = static_cast<int>(spec.schema.dimensions);
  const auto cats = static_cast<std::int64_t>(spec.schema.categories);
  const auto range = static_cast<std::int64_t>(spec.schema.measure_range);
  std::vector<StarQuery> out;
  for (std::size_t i = 0; i < spec.queries; ++i) {
    StarQuery q;
    const int n = static_cast<int>(rng.uniform_int(1, spec.max_dims));
    std::vector<int> all(static_cast<std::size_t>(ndim));
    for (int d = 0; d < ndim; ++d) all[static_cast<std::size_t>(d)] = d;
    rng.shuffle(all);
    q.dims.assign(all.begin(), all.begin() + n);
    std::sort(q.dims.begin(), q.dims.end());
    for (std::size_t k = 0; k < q.dims.size(); ++k) {
      q.category.push_back(rng.chance(spec.selection_probability)
                               ? static_cast<int>(rng.uniform_int(0, cats - 1))
                               : -1);
    }
    if (rng.chance(spec.selection_probability)) {
      q.measure_above = rng.uniform_int(1, range - 1);
    }
    if (i % 5 == 1 || i % 5 == 3) q.group_dim = q.dims.front();
    out.push_back(std::move(q));
  }
  return out;
}

/// An ad-hoc variant of a designed query that a view holding the
/// designed query's result can still answer: an extra measure bound on
/// an SPJ query (Fact.measure is projected), an extra category filter on
/// a rollup's grouping column.
StarQuery variant_of(const StarQuery& q, Rng& rng, const StarSpec& spec) {
  StarQuery v = q;
  const auto range = static_cast<std::int64_t>(spec.schema.measure_range);
  if (q.group_dim < 0) {
    // Keep about half of the designed query's measure range.
    const std::int64_t lo = std::max<std::int64_t>(q.measure_above, 0);
    const std::int64_t mid = lo + (range - lo) / 2;
    v.measure_below = mid + rng.uniform_int(-(range - lo) / 50, (range - lo) / 50);
  } else {
    const auto pos = static_cast<std::size_t>(
        std::find(q.dims.begin(), q.dims.end(), q.group_dim) - q.dims.begin());
    if (v.category[pos] < 0) {
      v.category[pos] = static_cast<int>(rng.uniform_int(
          0, static_cast<std::int64_t>(spec.schema.categories) - 1));
    } else {
      v.measure_below = range / 2 + rng.uniform_int(-range / 50, range / 50);
    }
  }
  return v;
}

StarQuery uncovered_star(Rng& rng, const StarSpec& spec) {
  StarQuery q;
  q.dimension_only = true;
  q.dims = {static_cast<int>(rng.uniform_int(
      0, static_cast<std::int64_t>(spec.schema.dimensions) - 1))};
  q.category = {static_cast<int>(rng.uniform_int(
      0, static_cast<std::int64_t>(spec.schema.categories) - 1))};
  return q;
}

Workload star_base(const std::string& name, std::uint64_t seed,
                   const StarSpec& spec, const std::vector<StarQuery>& designed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  w.catalog = mvd::make_star_catalog(spec.schema);
  w.base = star_database(w.catalog, spec.schema, seed);
  w.dimensions = static_cast<int>(spec.schema.dimensions);
  for (std::size_t i = 0; i < designed.size(); ++i) {
    const std::string qname = "W" + std::to_string(i + 1);
    w.queries.push_back({qname, spec.top_frequency / static_cast<double>(i + 1),
                         star_sql(designed[i])});
    w.mix.push_back({qname, star_sql(designed[i]), designed[i]});
  }
  return w;
}

std::string star_summary(const StarSpec& spec, std::size_t queries) {
  std::ostringstream os;
  os << "star: Fact " << spec.schema.fact_rows << " rows, "
     << spec.schema.dimensions << " dimensions of "
     << spec.schema.dimension_rows << " rows, " << spec.schema.categories
     << " categories; " << queries << " designed queries (40% rollups)";
  return os.str();
}

Workload star_refresh(std::uint64_t seed) {
  StarSpec spec;
  spec.schema.dimensions = 4;
  spec.schema.fact_rows = 100'000;
  spec.schema.dimension_rows = 2'000;
  spec.queries = 10;
  spec.max_dims = 2;
  spec.query_seed = 41;
  const std::vector<StarQuery> designed = designed_star_queries(spec);
  Workload w = star_base("star-refresh", seed, spec, designed);

  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 2);
  std::vector<std::size_t> before;  // views VALID
  std::vector<std::size_t> after;   // views STALE: base-table fallbacks
  for (std::size_t i = 0; i < designed.size(); ++i) {
    repeat(before, i, 2);
    repeat(after, i, 1);
  }
  for (std::size_t i = 0; i < designed.size(); i += 2) {
    const StarQuery v = variant_of(designed[i], rng, spec);
    w.mix.push_back({w.mix[i].family + "-variant", star_sql(v), v});
    repeat(before, w.mix.size() - 1, 2);
  }
  for (int u = 0; u < 2; ++u) {
    const StarQuery q = uncovered_star(rng, spec);
    w.mix.push_back({"uncovered", star_sql(q), q});
    repeat(before, w.mix.size() - 1, 2);
  }
  Step ingest{Step::Kind::kIngest, {}, "Fact", {}};
  w.pass = {{Step::Kind::kServe, before, "", {}},
            ingest,
            {Step::Kind::kServe, after, "", {}},
            {Step::Kind::kRefresh, {}, "", {}}};
  finish_pass(w);
  w.summary = star_summary(spec, designed.size());
  return w;
}

Workload design_wide(std::uint64_t seed) {
  StarSpec spec;
  spec.schema.dimensions = 4;
  spec.schema.fact_rows = 20'000;
  spec.schema.dimension_rows = 1'000;
  spec.queries = 60;
  spec.max_dims = 3;
  spec.query_seed = 43;
  const std::vector<StarQuery> designed = designed_star_queries(spec);
  Workload w = star_base("design-wide", seed, spec, designed);

  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
  std::vector<std::size_t> batch;
  for (std::size_t i = 0; i < designed.size(); ++i) repeat(batch, i, 1);
  for (std::size_t i = 0; i < designed.size(); i += 5) {
    const StarQuery v = variant_of(designed[i], rng, spec);
    w.mix.push_back({w.mix[i].family + "-variant", star_sql(v), v});
    repeat(batch, w.mix.size() - 1, 1);
  }
  for (int u = 0; u < 2; ++u) {
    const StarQuery q = uncovered_star(rng, spec);
    w.mix.push_back({"uncovered", star_sql(q), q});
    repeat(batch, w.mix.size() - 1, 1);
  }
  mvd::UpdateStreamOptions small;
  small.modify_fraction = 0.001;
  small.insert_fraction = 0.001;
  small.delete_fraction = 0.0005;
  w.pass = {{Step::Kind::kServe, batch, "", {}},
            {Step::Kind::kIngest, {}, "Fact", small},
            {Step::Kind::kRefresh, {}, "", {}}};
  finish_pass(w);
  w.summary = star_summary(spec, designed.size());
  return w;
}

}  // namespace

std::string paper_sql(const PaperQuery& q) {
  using K = PaperQuery::Kind;
  std::ostringstream os;
  switch (q.kind) {
    case K::kQ1:
      os << "SELECT Product.name FROM Product, Division "
            "WHERE Product.Did = Division.Did AND Division.city = 'LA'";
      if (q.product_did_above >= 0) {
        os << " AND Product.Did > " << q.product_did_above;
      }
      break;
    case K::kQ2:
      os << "SELECT Part.name FROM Product, Part, Division "
            "WHERE Product.Did = Division.Did AND Part.Pid = Product.Pid "
            "AND Division.city = 'LA'";
      break;
    case K::kQ3:
      os << "SELECT Customer.name, Product.name, Order.quantity "
            "FROM Product, Division, Order, Customer "
            "WHERE Product.Did = Division.Did AND Product.Pid = Order.Pid "
            "AND Order.Cid = Customer.Cid AND Division.city = 'LA' "
            "AND Order.date > DATE '1996-07-01'";
      break;
    case K::kQ4:
      os << "SELECT Customer.city, Order.date FROM Order, Customer "
            "WHERE Order.Cid = Customer.Cid AND Order.quantity > "
         << q.quantity_above;
      if (q.date_after >= 0) {
        os << " AND Order.date > " << date_literal(q.date_after);
      }
      break;
    case K::kDivisionCity:
      os << "SELECT Division.name FROM Division WHERE Division.city = '"
         << q.city << "'";
      break;
    case K::kCustomerBelow:
      os << "SELECT Customer.name FROM Customer WHERE Customer.Cid < "
         << q.cid_below;
      break;
  }
  return os.str();
}

std::string star_sql(const StarQuery& q) {
  std::ostringstream os;
  if (q.dimension_only) {
    const std::string d = dim(q.dims.front());
    os << "SELECT " << d << ".label FROM " << d << " WHERE " << d
       << ".category = 'cat_" << q.category.front() << "'";
    return os.str();
  }
  if (q.group_dim >= 0) {
    os << "SELECT " << dim(q.group_dim)
       << ".category, SUM(Fact.measure), COUNT(*)";
  } else {
    os << "SELECT Fact.measure";
    for (const int d : q.dims) os << ", " << dim(d) << ".label";
  }
  os << " FROM Fact";
  for (const int d : q.dims) os << ", " << dim(d);
  std::vector<std::string> where;
  for (std::size_t k = 0; k < q.dims.size(); ++k) {
    const int d = q.dims[k];
    where.push_back("Fact.d" + std::to_string(d) + " = " + dim(d) + ".id");
    if (q.category[k] >= 0) {
      where.push_back(dim(d) + ".category = 'cat_" +
                      std::to_string(q.category[k]) + "'");
    }
  }
  if (q.measure_above >= 0) {
    where.push_back("Fact.measure > " + std::to_string(q.measure_above));
  }
  if (q.measure_below >= 0) {
    where.push_back("Fact.measure < " + std::to_string(q.measure_below));
  }
  for (std::size_t i = 0; i < where.size(); ++i) {
    os << (i == 0 ? " WHERE " : " AND ") << where[i];
  }
  if (q.group_dim >= 0) os << " GROUP BY " << dim(q.group_dim) << ".category";
  return os.str();
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "paper-serve") return paper_serve(seed);
  if (name == "star-refresh") return star_refresh(seed);
  if (name == "design-wide") return design_wide(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace lcb
