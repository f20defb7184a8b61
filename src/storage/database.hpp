// A Database is the named collection of base-relation Tables the executor
// runs against (the "member databases" of the paper, already mirrored and
// homogenized). Materialized views live beside base tables under their
// MVPP node names.
//
// Entries are held through shared_ptr so one physical table can be
// registered in several databases at once — the sharded execution layer
// aliases each replicated dimension (and every coordinator-resident view)
// into its per-bucket databases instead of copying it 64 times, and
// MvServer's writers stage each epoch on aliases of the current
// snapshot's tables, replacing only the entries they change. Copying a
// Database still deep-copies every table (value semantics), so snapshot
// twins used by the differential refresh tests stay independent.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "src/storage/table.hpp"

namespace mvd {

class Database {
 public:
  Database() = default;
  Database(const Database& other);
  Database& operator=(const Database& other);
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  /// Add a table under `name`; throws ExecError on duplicates.
  void add_table(const std::string& name, Table table);

  /// Replace-or-insert, used when refreshing materialized views.
  void put_table(const std::string& name, Table table);

  /// Replace-or-insert an *alias*: the entry shares `table` with every
  /// other holder instead of owning a private copy. In-place mutations
  /// through any holder are visible to all of them; put_table replaces
  /// only this database's entry (other aliases keep the old object).
  void put_shared(const std::string& name, std::shared_ptr<Table> table);

  bool has_table(const std::string& name) const;
  const Table& table(const std::string& name) const;

  /// Mutable access for in-place maintenance (incremental refresh applies
  /// deltas to stored views without copying them). Throws like table().
  /// Mutating a shared entry (see put_shared) is visible through every
  /// alias of it.
  Table& mutable_table(const std::string& name);

  /// The shared handle behind `name`, for aliasing into other databases.
  std::shared_ptr<Table> shared_table(const std::string& name) const;

  void drop_table(const std::string& name);

  std::vector<std::string> table_names() const;

 private:
  std::map<std::string, std::shared_ptr<Table>> tables_;
};

}  // namespace mvd
