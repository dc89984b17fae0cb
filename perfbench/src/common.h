// Shared helpers of the repo benchmark: clocks, order statistics, the
// metric set printed as the result line, CPU placement and RSS sampling.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "detect/finding.h"
#include "table/table.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time of the whole process, every thread (ended ones included)
/// summed. Time a shared host steals from the vCPUs is not in it.
double ProcessCpuSeconds();

/// Nearest-rank quantile of `values` (copied and sorted); 0 when empty.
double Quantile(std::vector<double> values, double q);
double Median(const std::vector<double>& values);
double Mean(const std::vector<double>& values);

/// Deterministic sub-seed derivation (SplitMix64 finalizer over
/// seed ^ tag), so each input stream of a run has its own generator.
uint64_t SubSeed(uint64_t seed, uint64_t tag);

/// Ordered name -> (value, unit) list rendered as the result JSON.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  bool Has(const std::string& name) const;
  /// The value of `name`, or `fallback` when it was never set.
  double Get(const std::string& name, double fallback) const;
  std::string Json() const;

 private:
  struct Entry {
    std::string name;
    double value = 0;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

std::string JsonEscape(const std::string& text);
std::string FormatNumber(double value);

/// CPUs this process may run on (sched_getaffinity).
std::vector<int> AllowedCpus();
/// Restricts the calling thread (and threads it creates later) to `cpus`.
void PinCurrentThread(const std::vector<int>& cpus);
std::string CpuList(const std::vector<int>& cpus);

/// Where the load generator and the system under test run. With two or
/// more CPUs the generator gets the first one and the server the rest;
/// with one CPU both share it.
struct Placement {
  size_t nproc = 1;
  std::vector<int> generator;
  std::vector<int> server;
};
Placement ChoosePlacement();

/// Samples the process's resident set every 20 ms between Start() and
/// Stop(); peak_mb() is the highest sample.
class RssSampler {
 public:
  RssSampler() = default;
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  ~RssSampler() { Stop(); }

  void Start();
  void Stop();
  double peak_mb() const { return peak_bytes_.load() / (1024.0 * 1024.0); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> peak_bytes_{0};
  std::thread thread_;
};

/// A copy of `table` built from its cells alone, so it carries none of
/// the per-column values the library caches on first use: the cost a
/// freshly received table pays.
unidetect::Table ColdCopy(const unidetect::Table& table);

/// Canonical bytes of one table's ranked findings: the UDWIRE encoding,
/// which covers every field byte for byte (scores bitwise).
std::string FindingsBytes(const std::vector<unidetect::Finding>& findings);

}  // namespace perfbench
