#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>

namespace lcb {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t i =
      rank < 1 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[i];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream in(line.substr(6));
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

namespace {

std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

std::uint64_t hash_number(double v) {
  if (v == 0) v = 0;  // -0.0 and 0.0 compare equal
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return mix64(bits ^ 0x6e756d626572ULL);
}

std::uint64_t hash_text(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return mix64(h);
}

std::uint64_t hash_value(const mvd::Value& v) {
  switch (v.type()) {
    case mvd::ValueType::kString:
      return hash_text(v.as_string());
    case mvd::ValueType::kBool:
      return hash_number(v.as_bool() ? 1 : 0);
    default:
      return hash_number(v.as_double());
  }
}

namespace {
constexpr std::uint64_t kRowSeed = 0x726f77ULL;
}  // namespace

void BagDigest::add_row_hash(std::uint64_t h) {
  ++rows_;
  sum_ += h;
  sum_squares_ += mix64(h) * (h | 1);
}

void BagDigest::add_hashed(const std::vector<std::uint64_t>& column_hashes) {
  std::uint64_t h = kRowSeed;
  for (const std::uint64_t c : column_hashes) h = mix64(h ^ c);
  add_row_hash(h);
}

void BagDigest::add(const mvd::Tuple& row) {
  std::uint64_t h = kRowSeed;
  for (const mvd::Value& v : row) h = mix64(h ^ hash_value(v));
  add_row_hash(h);
}

BagDigest digest(const mvd::Table& table) {
  BagDigest d;
  for (const mvd::Tuple& row : table.rows()) d.add(row);
  return d;
}

int SpanLog::add(std::string name, std::uint64_t op, int parent,
                 Clock::time_point a, Clock::time_point b, int thread) {
  const double start = ms_between(origin_, a) * 1e3;
  const double end = ms_between(origin_, b) * 1e3;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({std::move(name), op, parent, start, end, thread});
  return static_cast<int>(spans_.size()) - 1;
}

int SpanLog::open(std::string name, std::uint64_t op, Clock::time_point a,
                  int thread) {
  return add(std::move(name), op, -1, a, a, thread);
}

void SpanLog::finish(int index, Clock::time_point b) {
  const double end = ms_between(origin_, b) * 1e3;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(index)].end_us = end;
}

std::vector<SpanLog::Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> SpanLog::durations_ms(const std::string& name) const {
  std::vector<double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back((s.end_us - s.start_us) / 1e3);
  }
  return out;
}

std::map<std::string, double> SpanLog::self_time_ms() const {
  const std::vector<Span> all = spans();
  std::vector<double> child_us(all.size(), 0);
  for (const Span& s : all) {
    if (s.parent >= 0) {
      child_us[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
    }
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < all.size(); ++i) {
    out[all[i].name] += (all[i].end_us - all[i].start_us - child_us[i]) / 1e3;
  }
  return out;
}

std::string SpanLog::chrome_json() const {
  std::ostringstream os;
  os.precision(12);
  os << "{\"traceEvents\":[";
  const std::vector<Span> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (i != 0) os << ",";
    os << "\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
       << s.thread << ",\"ts\":" << s.start_us
       << ",\"dur\":" << (s.end_us - s.start_us) << ",\"args\":{\"op\":"
       << s.op << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace lcb
