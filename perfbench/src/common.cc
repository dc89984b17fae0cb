#include "common.h"

#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "server/wire.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

uint64_t SubSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed ^ (tag * 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Entry& entry : entries_) {
    if (entry.name == name) {
      entry.value = value;
      entry.unit = unit;
      return;
    }
  }
  entries_.push_back({name, value, unit});
}

bool MetricSet::Has(const std::string& name) const {
  return std::any_of(entries_.begin(), entries_.end(),
                     [&](const Entry& e) { return e.name == name; });
}

double MetricSet::Get(const std::string& name, double fallback) const {
  for (const Entry& entry : entries_) {
    if (entry.name == name) return entry.value;
  }
  return fallback;
}

std::string FormatNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::string MetricSet::Json() const {
  std::string out = "{";
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + JsonEscape(entries_[i].name) + "\": {\"value\": " +
           FormatNumber(entries_[i].value) + ", \"unit\": \"" +
           JsonEscape(entries_[i].unit) + "\"}";
  }
  return out + "}";
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(0);
  return cpus;
}

void PinCurrentThread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  // Best effort: a refused pin leaves the thread where it was, and the
  // recorded placement is then read back from the kernel.
  (void)sched_setaffinity(0, sizeof(set), &set);
}

std::string CpuList(const std::vector<int>& cpus) {
  std::string out;
  for (size_t i = 0; i < cpus.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(cpus[i]);
  }
  return out;
}

Placement ChoosePlacement() {
  Placement placement;
  const std::vector<int> cpus = AllowedCpus();
  placement.nproc = cpus.size();
  if (cpus.size() >= 2) {
    placement.generator = {cpus.front()};
    placement.server.assign(cpus.begin() + 1, cpus.end());
  } else {
    placement.generator = cpus;
    placement.server = cpus;
  }
  return placement;
}

namespace {

// Current resident set size in bytes (0 when unavailable).
uint64_t CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0, resident_pages = 0;
  if (!(statm >> size_pages >> resident_pages)) return 0;
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace

void RssSampler::Start() {
  stop_ = false;
  peak_bytes_ = CurrentRssBytes();
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      const uint64_t rss = CurrentRssBytes();
      if (rss > peak_bytes_.load()) peak_bytes_ = rss;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
}

void RssSampler::Stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
  const uint64_t rss = CurrentRssBytes();
  if (rss > peak_bytes_.load()) peak_bytes_ = rss;
}

unidetect::Table ColdCopy(const unidetect::Table& table) {
  unidetect::Table copy(table.name());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const unidetect::Column& column = table.column(c);
    // Columns of one table share a row count, so this cannot fail.
    (void)copy.AddColumn(unidetect::Column(column.name(), column.cells()));
  }
  return copy;
}

std::string FindingsBytes(const std::vector<unidetect::Finding>& findings) {
  return unidetect::wire::EncodeOkResponseFrame(0, 0, {findings});
}

}  // namespace perfbench
