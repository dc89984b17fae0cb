#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

void Tracer::Add(uint64_t id, const char* name, uint64_t parent,
                 uint64_t request, Clock::time_point start,
                 Clock::time_point end) {
  const Span span{id, parent, request, name, Ns(start), Ns(end)};
  unidetect::MutexLock lock(&mu_);
  spans_.push_back(span);
}

uint64_t Tracer::Add(const char* name, uint64_t parent, uint64_t request,
                     Clock::time_point start, Clock::time_point end) {
  const uint64_t id = NewId();
  Add(id, name, parent, request, start, end);
  return id;
}

std::vector<Span> Tracer::spans() const {
  unidetect::MutexLock lock(&mu_);
  return spans_;
}

std::vector<double> Tracer::DurationsUs(const std::string& name) const {
  std::vector<double> out;
  unidetect::MutexLock lock(&mu_);
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back((span.end_ns - span.start_ns) / 1e3);
  }
  return out;
}

std::map<std::string, double> Tracer::LayerSelfUs() const {
  const std::vector<Span> all = spans();
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& span : all) {
    if (span.parent != 0) {
      children[span.parent].emplace_back(span.start_ns, span.end_ns);
    }
  }
  std::map<std::string, double> self;
  for (const Span& span : all) {
    int64_t covered = 0;
    auto it = children.find(span.id);
    if (it != children.end()) {
      auto& intervals = it->second;
      std::sort(intervals.begin(), intervals.end());
      int64_t cursor = span.start_ns;
      for (const auto& [begin, end] : intervals) {
        const int64_t lo = std::max(begin, cursor);
        const int64_t hi = std::min(end, span.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          cursor = hi;
        }
      }
    }
    const std::string name = span.name;
    const std::string layer = name.substr(0, name.find('.'));
    self[layer] += (span.end_ns - span.start_ns - covered) / 1e3;
  }
  return self;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& span : all) {
    std::fprintf(file,
                 "{\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request), span.name,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
