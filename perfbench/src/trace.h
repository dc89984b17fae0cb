// In-memory span recorder of the benchmark's traced run.
//
// Spans are taken from the benchmark's own code around calls into each
// layer's public functions; nothing inside the library is instrumented.
// A span's name is "<layer>.<stage>", where the layer is a module of the
// library (server, wire, serving, detect, metrics, featurize, learn) or
// the harness itself (bench). Spans are kept in memory and written out
// as JSON lines when the run ends.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "util/mutex.h"

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 for a root span
  uint64_t request = 0;  ///< spans of one request share this id
  const char* name = "";
  int64_t start_ns = 0;  ///< relative to the tracer's origin
  int64_t end_ns = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Reserves a span id, for a parent whose children close before it.
  uint64_t NewId() { return next_id_.fetch_add(1); }

  /// Records a finished span under a reserved id.
  void Add(uint64_t id, const char* name, uint64_t parent, uint64_t request,
           Clock::time_point start, Clock::time_point end);
  /// Records a finished span under a fresh id and returns the id.
  uint64_t Add(const char* name, uint64_t parent, uint64_t request,
               Clock::time_point start, Clock::time_point end);

  std::vector<Span> spans() const;

  /// Durations in microseconds of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;

  /// Self time in microseconds summed per layer: each span's duration
  /// minus the part of it that its child spans cover.
  std::map<std::string, double> LayerSelfUs() const;

  /// Writes one JSON object per span:
  /// {"id","parent","request","name","start_ns","end_ns"}.
  bool WriteJsonLines(const std::string& path) const;

 private:
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  const Clock::time_point origin_;
  std::atomic<uint64_t> next_id_{1};
  mutable unidetect::Mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// Times the enclosing scope as one span; a null tracer records nothing
/// and reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, uint64_t parent,
             uint64_t request)
      : tracer_(tracer), name_(name), parent_(parent), request_(request) {
    if (tracer_ != nullptr) {
      id_ = tracer_->NewId();
      start_ = Clock::now();
    }
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->Add(id_, name_, parent_, request_, start_, Clock::now());
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  Tracer* const tracer_;
  const char* const name_;
  const uint64_t parent_;
  const uint64_t request_;
  uint64_t id_ = 0;
  Clock::time_point start_;
};

}  // namespace perfbench
