// The traced layer replay: re-runs a seeded sample of a workload's
// requests one public call at a time, each call inside its own span, so
// the time of one request splits into wire, serving, detect, metrics,
// featurize and learn stages.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common.h"
#include "learn/model_stack.h"
#include "serving/detection_service.h"
#include "table/table.h"
#include "trace.h"

namespace perfbench {

struct ReplayConfig {
  /// Target of the serving.detect_batch stage (serve workloads).
  const unidetect::DetectionService* service = nullptr;
  /// The served base, and the base with the whole delta chain on top.
  std::shared_ptr<const unidetect::ModelStack> stack;
  std::shared_ptr<const unidetect::ModelStack> deep_stack;
  /// Replay the UDWIRE codec and a single-table DetectBatch around each
  /// table, as a served request goes (serve workloads only).
  bool served = false;
  /// Stops after this long even when tables remain.
  double seconds = 1.0;
};

struct ReplayResult {
  size_t tables = 0;
  /// Per replayed request: the sum of its serial stage spans (the
  /// UDWIRE codec and DetectBatch), in microseconds.
  std::vector<double> stage_sums_us;
};

/// Replays `pool[order[i]]` for as many i as the time allows, recording
/// spans into `tracer` and the per-layer metrics into `out`.
ReplayResult RunReplay(const ReplayConfig& config,
                       const std::vector<unidetect::Table>& pool,
                       const std::vector<uint32_t>& order, Tracer* tracer,
                       MetricSet* out);

}  // namespace perfbench
