// The three benchmark workloads and the metric catalogue they report.
// perfbench/README.md explains why each workload exists and which layer
// metric should move which end-to-end metric.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"

namespace perfbench {

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// Printed with --trace 0, on every workload. Must match BENCHMARK.json.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"tables_per_cpu_s", "1/s"},
    {"publish_p50_ms", "ms"},
    {"ok_ratio", "ratio"},
    {"rss_mb", "MB"},
};

/// Printed with --trace 1, on every workload (0 where a layer is not on
/// the workload's path). Must match BENCHMARK.json.
inline constexpr MetricSpec kPerLayer[] = {
    {"server.requests_per_batch", "count"},
    {"server.queue_wait_p50_us", "us_pow2_bound"},
    {"server.queue_wait_p99_us", "us_pow2_bound"},
    {"server.request_p50_us", "us_pow2_bound"},
    {"server.request_p99_us", "us_pow2_bound"},
    {"server.shed_ratio", "ratio"},
    {"server.bytes_per_request", "bytes"},
    {"wire.encode_request_us", "us"},
    {"wire.decode_request_us", "us"},
    {"wire.encode_response_us", "us"},
    {"wire.decode_response_us", "us"},
    {"serving.detect_batch_p50_us", "us"},
    {"serving.detect_batch_p99_us", "us"},
    {"serving.cache_hit_rate", "ratio"},
    {"serving.cache_lookups", "count"},
    {"serving.cache_resident_mb", "MB"},
    {"serving.reload_us", "us"},
    {"serving.delta_layers_mean", "count"},
    {"detect.outlier_us", "us"},
    {"detect.spelling_us", "us"},
    {"detect.uniqueness_us", "us"},
    {"detect.fd_us", "us"},
    {"detect.facade_overhead_us", "us"},
    {"detect.findings_per_table", "count"},
    {"metrics.mpd_us_per_column", "us"},
    {"metrics.fr_us_per_pair", "us"},
    {"metrics.ur_us_per_column", "us"},
    {"metrics.mpd_columns", "count/table"},
    {"metrics.fr_pairs", "count/table"},
    {"featurize.us_per_column", "us"},
    {"learn.lr_lookup_ns", "ns"},
    {"learn.lr_lookup_ns_depth_k", "ns"},
    {"bench.latency_p50_ms", "ms"},
    {"bench.latency_p90_ms", "ms"},
    {"bench.latency_p99_ms", "ms"},
    {"bench.generator_lag_p99_ms", "ms"},
    {"bench.tracing_overhead_pct", "%"},
    {"bench.stage_sum_ratio", "ratio"},
    {"bench.self_pct", "%"},
    {"server.self_pct", "%"},
    {"wire.self_pct", "%"},
    {"serving.self_pct", "%"},
    {"detect.self_pct", "%"},
    {"metrics.self_pct", "%"},
    {"featurize.self_pct", "%"},
    {"learn.self_pct", "%"},
};

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for artifacts, traces and result records.
  std::string out_dir = ".bench_build/perfbench";
};

struct RunReport {
  MetricSet metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when any output differed from its reference, or the run was
  /// invalid (the generator fell behind its schedule).
  bool correct = true;
  /// Host, placement and per-run facts written beside the metrics.
  std::vector<std::pair<std::string, std::string>> info;
};

RunReport RunServeSmall(const RunArgs& args, const Placement& placement);
RunReport RunScanTall(const RunArgs& args, const Placement& placement);
RunReport RunServePublish(const RunArgs& args, const Placement& placement);

}  // namespace perfbench
