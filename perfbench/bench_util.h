// Shared helpers of the service benchmark: timing, sample statistics, the
// run's output record, and the fatal-check helpers every workload uses.

#ifndef DEDDB_PERFBENCH_BENCH_UTIL_H_
#define DEDDB_PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Aborts the run without a result line: a benchmark that cannot set itself
/// up has nothing truthful to report.
[[noreturn]] inline void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(3);
}

inline void CheckOk(const deddb::Status& status, const char* what) {
  if (!status.ok()) Die(std::string(what) + ": " + status.ToString());
}

template <typename T>
T Unwrap(deddb::Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(*result);
}

/// The run's seeded generator. Every input the program sees comes from one
/// of these, so a seed fixes the inputs exactly.
class Gen {
 public:
  explicit Gen(uint64_t seed) : engine_(seed) {}
  uint64_t Below(uint64_t bound) {
    return std::uniform_int_distribution<uint64_t>(0, bound - 1)(engine_);
  }
  bool Chance(unsigned percent) { return Below(100) < percent; }

 private:
  std::mt19937_64 engine_;
};

/// Mixes a run seed with stream indices into an independent stream seed.
inline uint64_t StreamSeed(uint64_t seed, uint64_t a, uint64_t b = 0) {
  uint64_t x = seed ^ (a * 0x9E3779B97F4A7C15ull) ^ (b * 0xC2B2AE3D27D4EB4Full);
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  return x;
}

/// Latency samples in microseconds, optionally stamped with the time each
/// operation completed.
class Samples {
 public:
  void Add(double us) { values_.push_back(us); }
  void Add(double us, Clock::time_point done) {
    values_.push_back(us);
    stamps_.push_back(done);
  }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    stamps_.insert(stamps_.end(), other.stamps_.begin(), other.stamps_.end());
  }
  const std::vector<Clock::time_point>& stamps() const { return stamps_; }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// Nearest-rank percentile, p in [0, 100]; 0 for an empty sample.
  double Percentile(double p) const {
    if (values_.empty()) return 0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    size_t rank = static_cast<size_t>(p / 100.0 * sorted.size() + 0.999999);
    rank = std::clamp<size_t>(rank, 1, sorted.size());
    return sorted[rank - 1];
  }
  double Median() const { return Percentile(50); }

  /// Splits [start, start + span) into `windows` equal windows and returns
  /// the median over windows of each window's percentile p (windows without
  /// samples are skipped). Needs stamped samples.
  double WindowedPercentile(double p, Clock::time_point start, double span_s,
                            int windows) const;
  double Mean() const {
    if (values_.empty()) return 0;
    double sum = 0;
    for (double v : values_) sum += v;
    return sum / values_.size();
  }

 private:
  std::vector<double> values_;
  std::vector<Clock::time_point> stamps_;
};

/// Median over `windows` equal windows of [start, start + span) of the
/// completions per second in each window.
double WindowedRate(const std::vector<Clock::time_point>& stamps,
                    Clock::time_point start, double span_s, int windows);

inline double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

inline double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

/// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

/// Bytes the allocator has handed out and not had back (all arenas plus
/// mmapped blocks), in MiB.
double HeapInUseMb();

/// What one invocation reports: the oracle's verdict, operation counts, the
/// metrics by name, and the descriptive fields that make a number
/// reproducible.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// name -> (value, unit); the metrics this mode puts on the result line.
  std::map<std::string, std::pair<double, std::string>> metrics;
  /// Per-operation-class detail (name -> (value, unit)), printed beside the
  /// metrics for readers.
  std::map<std::string, std::pair<double, std::string>> report;
  /// Oracle bookkeeping: how many answers each check compared.
  std::map<std::string, uint64_t> checks;
  /// Descriptive fields (sizes, client counts, mix), string-valued.
  std::map<std::string, std::string> info;
  std::vector<std::string> errors;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Report(const std::string& name, double value, const std::string& unit) {
    report[name] = {value, unit};
  }
  /// Records an oracle mismatch; the run then reports correct=false. Only
  /// the first few are kept verbatim.
  void Wrong(const std::string& what) {
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
  }

  std::string ToJson() const;
};

}  // namespace perfbench

#endif  // DEDDB_PERFBENCH_BENCH_UTIL_H_
