// The benchmark's workloads: the inputs a user hands the warehouse
// (catalog, SQL workload with frequencies, base tables) plus the
// operation schedule one pass of the lifecycle runs against MvServer.
//
// Everything is generated from the run's --seed: base-table contents,
// the constants of ad-hoc queries and the order of every serve batch.
// The designed query set and the schema sizes are fixed per workload so
// the design, and with it the work of a pass, is the same on every seed.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/catalog/catalog.hpp"
#include "src/maintenance/update_stream.hpp"
#include "src/storage/database.hpp"
#include "src/warehouse/designer.hpp"

namespace lcb {

/// A query over the paper's Section 2 warehouse, in the form the paper
/// oracle evaluates it.
struct PaperQuery {
  enum class Kind {
    kQ1,             // Product.name of LA divisions [and Product.Did > x]
    kQ2,             // Part.name of LA divisions' products
    kQ3,             // Customer.name, Product.name, quantity; LA, H2 1996
    kQ4,             // Customer.city, Order.date; quantity > x [date > d]
    kDivisionCity,   // Division.name of one city (no view covers it)
    kCustomerBelow,  // Customer.name with Cid < x (no view covers it)
  };
  Kind kind = Kind::kQ1;
  std::int64_t product_did_above = -1;
  std::int64_t quantity_above = 100;
  std::int64_t date_after = -1;  // days since epoch; -1 = no bound
  std::string city;
  std::int64_t cid_below = 0;
};

/// A star query: Fact joined to each listed dimension on its foreign key.
struct StarQuery {
  std::vector<int> dims;            // ascending dimension numbers
  std::vector<int> category;        // per dim: required category, -1 = any
  std::int64_t measure_above = -1;  // Fact.measure > x when >= 0
  std::int64_t measure_below = -1;  // Fact.measure < x when >= 0
  /// Rollup: GROUP BY Dim<group_dim>.category with SUM(Fact.measure) and
  /// COUNT(*) when >= 0; otherwise the SPJ projection Fact.measure plus
  /// each dimension's label.
  int group_dim = -1;
  /// Dimension-only query (no Fact): Dim<dims[0]>.label of one category.
  bool dimension_only = false;
};

using QueryShape = std::variant<PaperQuery, StarQuery>;

struct MixQuery {
  std::string family;  // e.g. "Q4", "Q4-residual", "W3", "uncovered"
  std::string sql;
  QueryShape shape;
};

/// A workload query as the designer receives it.
struct DesignQuery {
  std::string name;
  double frequency = 1;
  std::string sql;
};

struct Step {
  enum class Kind { kServe, kIngest, kRefresh };
  Kind kind = Kind::kServe;
  /// kServe: the batch, as indices into Workload::mix (reshuffled every
  /// pass; the multiset is fixed).
  std::vector<std::size_t> batch;
  /// kIngest: target relation and batch shape.
  std::string relation;
  mvd::UpdateStreamOptions updates;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  mvd::Catalog catalog;
  mvd::DesignerOptions designer;
  std::vector<DesignQuery> queries;
  mvd::Database base;
  std::vector<MixQuery> mix;
  std::vector<Step> pass;
  /// Closed-loop client threads in serve steps.
  int clients = 1;
  /// An untraced run makes at least `min_passes` passes. The tail
  /// percentile is the highest with at least ten samples beyond it at the
  /// serve count of that many passes.
  std::size_t serves_per_pass = 0;
  std::size_t min_passes = 3;
  double tail_percentile = 0;
  /// Star workloads: dimension count (the paper workload leaves it 0).
  int dimensions = 0;
  std::string summary;
};

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

std::string paper_sql(const PaperQuery& q);
std::string star_sql(const StarQuery& q);

}  // namespace lcb
