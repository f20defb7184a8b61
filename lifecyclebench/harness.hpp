// Shared pieces of the lifecycle benchmark: clocks, order statistics,
// bag fingerprints for checking answers, and the in-memory span log of
// the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/storage/table.hpp"

namespace lcb {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile (p in [0, 100]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double p);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// The process's peak resident set in MB (VmHWM of /proc/self/status).
double peak_rss_mb();

/// Order-insensitive digest of a bag of rows. Values compare the way
/// mvd::same_bag compares them: numeric kinds (int64, double, date) by
/// their double value, strings by content. The digest is the benchmark's
/// own code, so a fault in the program's hashing cannot hide a wrong
/// answer.
class BagDigest {
 public:
  void add(const mvd::Tuple& row);
  /// Adds a row given as already-hashed column values.
  void add_hashed(const std::vector<std::uint64_t>& column_hashes);

  std::uint64_t rows() const { return rows_; }
  friend bool operator==(const BagDigest&, const BagDigest&) = default;

 private:
  void add_row_hash(std::uint64_t h);

  std::uint64_t rows_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t sum_squares_ = 0;
};

std::uint64_t hash_value(const mvd::Value& v);
std::uint64_t hash_number(double v);
std::uint64_t hash_text(const std::string& s);
BagDigest digest(const mvd::Table& table);

/// Spans recorded by the traced run: kept in memory, written out once at
/// the end. A span's parent is the operation (serve, ingest, refresh,
/// setup) that caused it; spans of one operation share its id.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t op = 0;
    int parent = -1;  // index of the enclosing span, -1 for a root
    double start_us = 0;
    double end_us = 0;
    int thread = 0;
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Records a finished span and returns its index.
  int add(std::string name, std::uint64_t op, int parent, Clock::time_point a,
          Clock::time_point b, int thread);
  /// Reserves a root span for an operation; close it with finish().
  int open(std::string name, std::uint64_t op, Clock::time_point a,
           int thread);
  void finish(int index, Clock::time_point b);

  std::vector<Span> spans() const;
  /// Durations (ms) of every span called `name`.
  std::vector<double> durations_ms(const std::string& name) const;
  /// Total self time (ms) per span name: its duration minus the time its
  /// child spans cover.
  std::map<std::string, double> self_time_ms() const;
  /// Chrome trace-event JSON (one complete event per span).
  std::string chrome_json() const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace lcb
