#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "corpus/generator.h"
#include "layers.h"
#include "loadgen.h"
#include "model_format/model_view.h"
#include "server/metrics.h"
#include "setup.h"
#include "trace.h"
#include "util/latency_histogram.h"
#include "util/random.h"

namespace perfbench {

namespace {

namespace wire = unidetect::wire;
using unidetect::DetectionService;
using unidetect::Table;

// Workload parameters. BENCHMARK.json and README.md state the same
// values; change them together.
constexpr size_t kSetupRepeats = 3;
constexpr size_t kConnections = 2;
/// A window whose generator sent its p99 request later than this after
/// its due time is late: its latencies would describe the generator, not
/// the server. A late window is measured again, at most as many times as
/// its phase has windows; a run whose kept windows are still late
/// (median over them) is invalid.
constexpr double kMaxGeneratorLagP99Ms = 10.0;
/// Latency charged to a failed request: it misses every limit.
constexpr double kFailedLatencyMs = 10000.0;
constexpr double kWarmupSeconds = 0.5;
/// Fixed-rate traffic runs as windows of about this many seconds (at the
/// serve rate, 1200 requests: twelve beyond p99); percentiles are taken
/// per window.
constexpr double kWindowSeconds = 1.5;

struct ServeConfig {
  size_t pool_tables;
  double zipf_s;  ///< 0 draws tables uniformly
  uint64_t cache_bytes;
  double rate_qps;
  bool publisher;
};
constexpr ServeConfig kServeSmall{2048, 0.0, 0, 800.0, false};
constexpr ServeConfig kServePublish{256, 1.0, 1u << 20, 800.0, true};

/// Saturation: closed-loop windows that keep this many requests in
/// flight over the connections. Well under the default admission queue
/// (256) and per-connection cap (256), so nothing is shed: the figure is
/// the rate the server completes, not how it refuses.
constexpr size_t kSaturationInFlight = 64;
constexpr size_t kSaturationWindows = 6;
/// Time a saturation window spends besides sending: draining the
/// pipeline and the quiet publish burst after it (the reloads dominate).
constexpr double kSaturationOverheadSeconds = 0.3;

constexpr size_t kScanPool = 512;
constexpr size_t kScanBatch = 8;
constexpr size_t kScanThreads = 2;
constexpr size_t kScanCheckSample = 64;
/// Seed of the table-shape stream of every request pool (see ShapedPool).
constexpr uint64_t kPoolShapeSeed = 3;

constexpr auto kPublishInterval = std::chrono::milliseconds(100);
/// Publish cycles (K applies + one reload) per quiet burst. Bursts run
/// after the warm-up, every fixed-rate window and every saturation window
/// (serve_small) or every 1/24 of the scan (scan_tall), so the publish
/// figures sample the whole run rather than one moment of it.
constexpr size_t kQuietBurstCycles = 3;

std::string WorkDir(const RunArgs& args) {
  return args.out_dir + "/work/" + args.workload + "-" +
         std::to_string(getpid());
}

std::unique_ptr<World> TimedSetUp(const RunArgs& args, uint64_t cache_bytes,
                                  bool with_server, RunReport* report) {
  const size_t repeats = args.trace ? 1 : kSetupRepeats;
  std::vector<double> seconds;
  std::unique_ptr<World> world;
  for (size_t r = 0; r < repeats; ++r) {
    world.reset();
    const Clock::time_point start = Clock::now();
    world = SetUp(args.seed, WorkDir(args) + "/setup" + std::to_string(r),
                  cache_bytes, with_server);
    seconds.push_back(SecondsBetween(start, Clock::now()));
  }
  report->metrics.Set("setup_s", Median(seconds), "s");
  return world;
}

// refs[depth][table]: canonical findings bytes of a direct DetectBatch on
// the base plus `depth` deltas, from a service of its own. Only the
// tables listed in `subset` (all when empty) get a reference.
std::vector<std::vector<std::string>> References(
    const Artifacts& artifacts, const std::vector<Table>& pool,
    size_t max_depth, const std::vector<uint32_t>& subset) {
  auto created = DetectionService::Create(artifacts.base_path);
  if (!created.ok()) throw std::runtime_error(created.status().ToString());
  const std::unique_ptr<DetectionService> reference =
      std::move(created).ValueOrDie();
  std::vector<std::vector<std::string>> refs(max_depth + 1);
  for (size_t depth = 0; depth <= max_depth; ++depth) {
    if (depth > 0) {
      const auto status = reference->ApplyDelta(
          artifacts.delta_paths[depth - 1]);
      if (!status.ok()) throw std::runtime_error(status.ToString());
    }
    refs[depth].resize(pool.size());
    const auto fill = [&](uint32_t t) {
      refs[depth][t] = FindingsBytes(
          reference->DetectBatch(std::span<const Table>(&pool[t], 1))
              .per_table[0]);
    };
    if (subset.empty()) {
      for (uint32_t t = 0; t < pool.size(); ++t) fill(t);
    } else {
      for (const uint32_t t : subset) fill(t);
    }
  }
  return refs;
}

std::shared_ptr<const unidetect::ModelStack> OpenStack(
    const Artifacts& artifacts, size_t depth) {
  std::vector<std::shared_ptr<const unidetect::Model>> layers;
  for (size_t i = 0; i <= depth; ++i) {
    const std::string& path =
        i == 0 ? artifacts.base_path : artifacts.delta_paths[i - 1];
    auto view = unidetect::ModelView::Open(path);
    if (!view.ok()) throw std::runtime_error(view.status().ToString());
    layers.push_back(view->shared_model());
  }
  return std::make_shared<const unidetect::ModelStack>(std::move(layers));
}

// Publishes on a fixed cadence: ApplyDelta d1..dK one step at a time,
// then Reload(base) to reset the chain, and again. The publisher is the
// service's only writer and every successful swap bumps the generation
// by one, so a response's generation names the depth that served it.
class Publisher {
 public:
  Publisher(DetectionService* service, const Artifacts& artifacts)
      : service_(service),
        artifacts_(artifacts),
        first_generation_(service->generation()),
        thread_([this] { Loop(); }) {}
  ~Publisher() { Stop(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  void Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

  /// Chain depth served under `generation`; -1 when the generation was
  /// never published (or a swap failed and the mapping is lost).
  int DepthOf(uint64_t generation) const {
    if (failures_.load() != 0 || generation < first_generation_) return -1;
    return static_cast<int>((generation - first_generation_) %
                            (kDeltaDepth + 1));
  }

  const std::vector<double>& apply_ms() const { return apply_ms_; }
  const std::vector<double>& reload_us() const { return reload_us_; }
  uint64_t failures() const { return failures_.load(); }

 private:
  void Loop() {
    size_t depth = 0;
    Clock::time_point next = Clock::now() + kPublishInterval;
    while (!stop_.load()) {
      std::this_thread::sleep_until(next);
      next += kPublishInterval;
      if (stop_.load()) break;
      const Clock::time_point start = Clock::now();
      unidetect::Status status;
      if (depth < kDeltaDepth) {
        status = service_->ApplyDelta(artifacts_.delta_paths[depth]);
        apply_ms_.push_back(SecondsBetween(start, Clock::now()) * 1e3);
        ++depth;
      } else {
        status = service_->Reload(artifacts_.base_path);
        reload_us_.push_back(SecondsBetween(start, Clock::now()) * 1e6);
        depth = 0;
      }
      if (!status.ok()) ++failures_;
    }
  }

  DetectionService* const service_;
  const Artifacts& artifacts_;
  const uint64_t first_generation_;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> failures_{0};
  // Written by the publisher thread only; read after Stop().
  std::vector<double> apply_ms_;
  std::vector<double> reload_us_;
  std::thread thread_;
};

// Publishes back to back on an otherwise idle service: the publish cost
// with no reads beside it. Leaves the service on its base.
void QuietPublish(DetectionService* service, const Artifacts& artifacts,
                  std::vector<double>* apply_ms,
                  std::vector<double>* reload_us) {
  for (size_t cycle = 0; cycle < kQuietBurstCycles; ++cycle) {
    for (const std::string& delta : artifacts.delta_paths) {
      const Clock::time_point start = Clock::now();
      const auto status = service->ApplyDelta(delta);
      apply_ms->push_back(SecondsBetween(start, Clock::now()) * 1e3);
      if (!status.ok()) throw std::runtime_error(status.ToString());
    }
    const Clock::time_point start = Clock::now();
    const auto status = service->Reload(artifacts.base_path);
    reload_us->push_back(SecondsBetween(start, Clock::now()) * 1e6);
    if (!status.ok()) throw std::runtime_error(status.ToString());
  }
}

// p90 goes to the info line only: it falls among the first applies
// after each reload, whose cost swings with the host (see README.md).
void SetPublishMetrics(const std::vector<double>& apply_ms,
                       const std::vector<double>& reload_us,
                       RunReport* report) {
  report->metrics.Set("publish_p50_ms", Quantile(apply_ms, 0.5), "ms");
  report->info.emplace_back("publish_p90_ms",
                            FormatNumber(Quantile(apply_ms, 0.9)));
  report->metrics.Set("serving.reload_us", Median(reload_us), "us");
}

// The outcome of open-loop traffic at one offered rate, kept per window
// of arrivals.
struct Phase {
  uint64_t attempted = 0;
  uint64_t failed = 0;      ///< non-OK responses plus wrong findings
  uint64_t mismatched = 0;  ///< OK responses whose findings were wrong
  uint64_t ok = 0;
  double rate_qps = 0;      ///< offered rate
  double seconds = 0;       ///< length of the arrival schedules
  /// Requests still outstanding when the last one of a window fell due:
  /// the backlog the arrivals left behind (largest over the windows).
  uint64_t backlog = 0;
  double depth_sum = 0;     ///< chain depth summed over OK responses
  /// Per kept window, in due order: latency from the due time (failures
  /// charged kFailedLatencyMs) and generator lag.
  std::vector<std::vector<double>> latency_ms;
  std::vector<std::vector<double>> lag_ms;
  /// Windows dropped as late and measured again; their responses still
  /// count in attempted, failed and mismatched.
  uint64_t late_windows = 0;
  /// Generator lag p99 of every window, kept or late.
  std::vector<double> window_lag_p99_ms;

  // Quantile q of each window, and the median over the windows: one
  // disturbed window (a host stall) moves the figure by one rank
  // instead of deciding it.
  static double MedianOverWindows(
      const std::vector<std::vector<double>>& windows, double q) {
    std::vector<double> per_window;
    for (const std::vector<double>& window : windows) {
      per_window.push_back(Quantile(window, q));
    }
    return Median(per_window);
  }
  double p50() const { return MedianOverWindows(latency_ms, 0.5); }
  double p90() const { return MedianOverWindows(latency_ms, 0.9); }
  double p99() const { return MedianOverWindows(latency_ms, 0.99); }
  double lag_p99() const { return MedianOverWindows(lag_ms, 0.99); }
  bool late() const { return lag_p99() > kMaxGeneratorLagP99Ms; }

  void Append(Phase window) {
    Count(window);
    ok += window.ok;
    rate_qps = window.rate_qps;
    seconds += window.seconds;
    backlog = std::max(backlog, window.backlog);
    depth_sum += window.depth_sum;
    for (auto& w : window.latency_ms) latency_ms.push_back(std::move(w));
    for (auto& w : window.lag_ms) lag_ms.push_back(std::move(w));
  }

  // A late window: its outcomes are checked and counted, its timings
  // are not kept.
  void Drop(const Phase& window) {
    Count(window);
    ++late_windows;
  }

 private:
  void Count(const Phase& window) {
    attempted += window.attempted;
    failed += window.failed;
    mismatched += window.mismatched;
    window_lag_p99_ms.insert(window_lag_p99_ms.end(),
                             window.window_lag_p99_ms.begin(),
                             window.window_lag_p99_ms.end());
  }
};

// One window of traffic, with every response checked against its
// reference.
template <typename DepthOf>
Phase CheckOutcomes(const std::vector<Outcome>& outcomes, double rate_qps,
                    double seconds,
                    const std::vector<std::vector<std::string>>& refs,
                    const DepthOf& depth_of) {
  Phase phase;
  phase.rate_qps = rate_qps;
  phase.seconds = seconds;
  std::vector<double>& latency_ms = phase.latency_ms.emplace_back();
  std::vector<double>& lag_ms = phase.lag_ms.emplace_back();
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Outcome& outcome = outcomes[i];
    ++phase.attempted;
    lag_ms.push_back(outcome.lag_ms());
    bool good = outcome.code == wire::WireCode::kOk;
    if (good) {
      const int depth = depth_of(outcome.generation);
      good = depth >= 0 &&
             FindingsBytes(outcome.findings) ==
                 refs[static_cast<size_t>(depth)][outcome.table];
      if (good) {
        ++phase.ok;
        phase.depth_sum += depth;
      } else {
        ++phase.mismatched;
      }
    }
    if (!good) ++phase.failed;
    latency_ms.push_back(good ? outcome.latency_ms() : kFailedLatencyMs);
  }
  phase.window_lag_p99_ms.push_back(Quantile(lag_ms, 0.99));
  if (!outcomes.empty()) {
    const double last_due = outcomes.back().due_s;
    for (const Outcome& outcome : outcomes) {
      if (outcome.done_s > last_due) ++phase.backlog;
    }
  }
  return phase;
}

// One open-loop window at `rate_qps`.
template <typename DepthOf>
Phase RunPhase(LoadGenerator* generator, const std::vector<Table>& pool,
               const std::function<uint32_t(unidetect::Rng&)>& pick,
               uint64_t seed, double rate_qps, double seconds,
               const std::vector<std::vector<std::string>>& refs,
               const DepthOf& depth_of, Tracer* tracer,
               uint64_t first_request_id) {
  const std::vector<Arrival> schedule =
      PoissonSchedule(seed, rate_qps, seconds, pick);
  return CheckOutcomes(
      generator->Run(schedule, pool, tracer, first_request_id), rate_qps,
      seconds, refs, depth_of);
}

struct ServerSnapshot {
  std::array<uint64_t, static_cast<size_t>(unidetect::ServerMetric::COUNT)>
      counters = {};
  unidetect::LatencyBuckets request = {};
  unidetect::LatencyBuckets queue = {};
};

ServerSnapshot Snapshot(const unidetect::MetricsRegistry& registry) {
  ServerSnapshot snap;
  for (size_t i = 0; i < snap.counters.size(); ++i) {
    snap.counters[i] =
        registry.Count(static_cast<unidetect::ServerMetric>(i));
  }
  snap.request = registry.request_latency().Snapshot();
  snap.queue = registry.queue_latency().Snapshot();
  return snap;
}

double BucketQuantile(const unidetect::LatencyBuckets& before,
                      const unidetect::LatencyBuckets& after, double q) {
  unidetect::LatencyBuckets diff = {};
  uint64_t count = 0;
  for (size_t i = 0; i < diff.size(); ++i) {
    diff[i] = after[i] - before[i];
    count += diff[i];
  }
  if (count == 0) return 0;
  return unidetect::LatencyPercentileUpperBound(diff, count, q);
}

void SetServerMetrics(const ServerSnapshot& before,
                      const ServerSnapshot& after, MetricSet* metrics) {
  using unidetect::ServerMetric;
  const auto delta = [&](ServerMetric m) {
    const size_t i = static_cast<size_t>(m);
    return static_cast<double>(after.counters[i] - before.counters[i]);
  };
  const double requests = delta(ServerMetric::kRequests);
  const double batches = delta(ServerMetric::kBatches);
  const double shed = delta(ServerMetric::kShedOverload) +
                      delta(ServerMetric::kShedConnectionCap) +
                      delta(ServerMetric::kExpiredDeadline) +
                      delta(ServerMetric::kShedDraining);
  metrics->Set("server.requests_per_batch",
               batches > 0 ? delta(ServerMetric::kAdmitted) / batches : 0,
               "count");
  metrics->Set("server.queue_wait_p50_us",
               BucketQuantile(before.queue, after.queue, 0.5),
               "us_pow2_bound");
  metrics->Set("server.queue_wait_p99_us",
               BucketQuantile(before.queue, after.queue, 0.99),
               "us_pow2_bound");
  metrics->Set("server.request_p50_us",
               BucketQuantile(before.request, after.request, 0.5),
               "us_pow2_bound");
  metrics->Set("server.request_p99_us",
               BucketQuantile(before.request, after.request, 0.99),
               "us_pow2_bound");
  metrics->Set("server.shed_ratio", requests > 0 ? shed / requests : 0,
               "ratio");
  metrics->Set("server.bytes_per_request",
               requests > 0 ? (delta(ServerMetric::kBytesRead) +
                               delta(ServerMetric::kBytesWritten)) /
                                  requests
                            : 0,
               "bytes");
}

void SetCacheMetrics(const unidetect::ServiceStats& before,
                     const unidetect::ServiceStats& after,
                     MetricSet* metrics) {
  const double hits = static_cast<double>(after.cache_hits - before.cache_hits);
  const double lookups =
      hits + static_cast<double>(after.cache_misses - before.cache_misses);
  metrics->Set("serving.cache_hit_rate", lookups > 0 ? hits / lookups : 0,
               "ratio");
  metrics->Set("serving.cache_lookups", lookups, "count");
  metrics->Set("serving.cache_resident_mb",
               static_cast<double>(after.cache_resident_bytes) /
                   (1024.0 * 1024.0),
               "MB");
}

void SetTraceMetrics(const Tracer& tracer, double traced_e2e,
                     double untraced_e2e, double stage_sum,
                     MetricSet* metrics) {
  metrics->Set("bench.tracing_overhead_pct",
               untraced_e2e > 0
                   ? (traced_e2e - untraced_e2e) / untraced_e2e * 100.0
                   : 0,
               "%");
  metrics->Set("bench.stage_sum_ratio",
               traced_e2e > 0 ? stage_sum / traced_e2e : 0, "ratio");
  std::map<std::string, double> self = tracer.LayerSelfUs();
  for (const char* layer : {"bench", "server", "wire", "serving", "detect",
                            "metrics", "featurize", "learn"}) {
    self.emplace(layer, 0.0);  // a layer off the workload's path shows 0
  }
  double total = 0;
  for (const auto& [layer, us] : self) total += us;
  for (const auto& [layer, us] : self) {
    metrics->Set(layer + ".self_pct", total > 0 ? us / total * 100.0 : 0,
                 "%");
  }
}

void WriteTrace(const RunArgs& args, const Tracer& tracer, RunReport* report) {
  const std::string dir = args.out_dir + "/traces";
  std::filesystem::create_directories(dir);
  const std::string path =
      dir + "/" + args.workload + "-seed" + std::to_string(args.seed) +
      ".jsonl";
  if (!tracer.WriteJsonLines(path)) {
    throw std::runtime_error("cannot write trace " + path);
  }
  report->info.emplace_back("trace_file", path);
  report->info.emplace_back("trace_spans",
                            std::to_string(tracer.spans().size()));
}

std::vector<uint32_t> SampleOrder(
    uint64_t seed, size_t count,
    const std::function<uint32_t(unidetect::Rng&)>& pick) {
  unidetect::Rng rng(seed);
  std::vector<uint32_t> order(count);
  for (uint32_t& t : order) t = pick(rng);
  return order;
}

// A request pool drawn like GenerateCorpus(spec), except that each
// table's archetype and row count come from a fixed stream and only the
// cell contents from the run's seed: every seed then has the same mix of
// table shapes, and a figure moves with the system rather than with how
// many tall tables, or which hot tables, a seed happened to draw.
std::vector<Table> ShapedPool(const unidetect::CorpusSpec& spec,
                              uint64_t content_seed) {
  unidetect::Rng shape(kPoolShapeSeed);
  unidetect::Rng content(content_seed);
  const size_t span = spec.rows.max_rows - spec.rows.min_rows + 1;
  std::vector<Table> pool;
  for (size_t i = 0; i < spec.num_tables; ++i) {
    const auto archetype = static_cast<unidetect::Archetype>(
        shape.PickWeighted(spec.archetype_weights));
    const size_t rows =
        spec.rows.min_rows +
        static_cast<size_t>(spec.rows.skew > 0 ? shape.Zipf(span, spec.rows.skew)
                                               : shape.NextBounded(span));
    pool.push_back(unidetect::GenerateTable(archetype, rows, content).table);
    pool.back().set_name(pool.back().name() + "_" + std::to_string(i));
  }
  return pool;
}

RunReport RunServe(const ServeConfig& config, const RunArgs& args,
                   const Placement& placement) {
  RunReport report;
  // The service, the server's threads and the publisher inherit this
  // placement; the generator's threads move to their own CPU.
  PinCurrentThread(placement.server);
  const std::vector<Table> pool =
      ShapedPool(unidetect::WikiCorpusSpec(config.pool_tables),
                 SubSeed(args.seed, 2));
  const uint32_t pool_size = static_cast<uint32_t>(pool.size());
  const std::function<uint32_t(unidetect::Rng&)> pick =
      [&](unidetect::Rng& rng) -> uint32_t {
    return static_cast<uint32_t>(config.zipf_s > 0
                                     ? rng.Zipf(pool_size, config.zipf_s)
                                     : rng.NextBounded(pool_size));
  };

  std::unique_ptr<World> world =
      TimedSetUp(args, config.cache_bytes, /*with_server=*/true, &report);
  DetectionService* service = world->service.get();
  const auto refs = References(world->artifacts, pool,
                               config.publisher ? kDeltaDepth : 0, {});
  LoadGenerator generator(world->server->port(), kConnections,
                          placement.generator);

  // Without a publisher the reads all see the base; quiet publish bursts
  // between phases leave it there under a new generation.
  std::unique_ptr<Publisher> publisher;
  uint64_t base_generation = service->generation();
  if (config.publisher) {
    publisher = std::make_unique<Publisher>(service, world->artifacts);
  }
  const auto depth_of = [&](uint64_t generation) {
    if (publisher != nullptr) return publisher->DepthOf(generation);
    return generation == base_generation ? 0 : -1;
  };
  std::vector<double> apply_ms, reload_us;
  uint64_t next_id = 1;
  uint64_t stream = 10;
  // Without a publisher, quiet publish bursts between phases and windows
  // sample the publish cost over the whole run.
  const auto quiet_publish = [&] {
    if (publisher != nullptr) return;
    QuietPublish(service, world->artifacts, &apply_ms, &reload_us);
    base_generation = service->generation();
  };
  // Traffic at `rate` for `seconds`. A windowed phase runs as windows of
  // about kWindowSeconds with the pipeline drained and a quiet publish
  // burst after each, and measures a late window again, up to `windows`
  // times in all; an unwindowed phase is one window and no burst.
  const auto phase = [&](double rate, double seconds, Tracer* tracer,
                         bool windowed) {
    const size_t windows =
        windowed ? std::max<size_t>(1, static_cast<size_t>(std::lround(
                                           seconds / kWindowSeconds)))
                 : 1;
    size_t retries = windowed ? windows : 0;
    Phase p;
    for (size_t w = 0; w < windows;) {
      Phase window = RunPhase(&generator, pool, pick,
                              SubSeed(args.seed, stream++), rate,
                              seconds / windows, refs, depth_of, tracer,
                              next_id);
      next_id += window.attempted;
      if (window.late() && retries > 0) {
        --retries;
        p.Drop(window);
      } else {
        p.Append(std::move(window));
        ++w;
      }
      if (windowed) quiet_publish();
    }
    return p;
  };

  phase(config.rate_qps, kWarmupSeconds, nullptr, false);
  quiet_publish();
  RssSampler rss;
  rss.Start();
  // Closed-loop saturation windows (--trace 0 only): checked like the
  // fixed-rate traffic, but not part of its latency or lag figures.
  Phase saturation;
  std::vector<Phase> measured;
  if (!args.trace) {
    const double fixed_seconds = std::max(1.0, 0.4 * args.seconds);
    measured.push_back(phase(config.rate_qps, fixed_seconds, nullptr, true));
    // Tables the server completes with kSaturationInFlight requests
    // outstanding, per CPU-second of the process (gated: time a shared
    // host steals is not in it) and per second from a window's first
    // send to its last completion (info); medians over windows.
    const double window_seconds = std::max(
        0.3, (args.seconds - fixed_seconds) / kSaturationWindows -
                 kSaturationOverheadSeconds);
    unidetect::Rng rng(SubSeed(args.seed, 8));
    const std::function<uint32_t()> next_table = [&] { return pick(rng); };
    std::vector<double> tables_per_s, tables_per_cpu_s;
    for (size_t w = 0; w < kSaturationWindows; ++w) {
      const double cpu_before = ProcessCpuSeconds();
      const std::vector<Outcome> outcomes = generator.RunClosed(
          kSaturationInFlight, window_seconds, next_table, pool);
      const double cpu_s = ProcessCpuSeconds() - cpu_before;
      double last_done_s = 0;
      for (const Outcome& outcome : outcomes) {
        last_done_s = std::max(last_done_s, outcome.done_s);
      }
      Phase window = CheckOutcomes(outcomes, 0, window_seconds, refs,
                                   depth_of);
      tables_per_s.push_back(last_done_s > 0 ? window.ok / last_done_s : 0);
      tables_per_cpu_s.push_back(cpu_s > 0 ? window.ok / cpu_s : 0);
      saturation.Append(std::move(window));
      quiet_publish();
    }
    report.metrics.Set("tables_per_cpu_s", Median(tables_per_cpu_s), "1/s");
    report.info.emplace_back("tables_per_s",
                             FormatNumber(Median(tables_per_s)));
  } else {
    const double pass_seconds = std::max(0.5, 0.35 * args.seconds);
    measured.push_back(phase(config.rate_qps, pass_seconds, nullptr, true));
  }

  // The traced pass and the layer replay (--trace 1 only).
  Tracer tracer;
  if (args.trace) {
    const ServerSnapshot server_before = Snapshot(world->server->metrics());
    const unidetect::ServiceStats stats_before = service->Stats();
    measured.push_back(phase(config.rate_qps,
                             std::max(0.5, 0.35 * args.seconds), &tracer,
                             true));
    SetServerMetrics(server_before, Snapshot(world->server->metrics()),
                     &report.metrics);
    SetCacheMetrics(stats_before, service->Stats(), &report.metrics);
    const Phase& traced = measured.back();
    report.metrics.Set("serving.delta_layers_mean",
                       traced.ok > 0 ? traced.depth_sum / traced.ok : 0,
                       "count");
    ReplayConfig replay;
    replay.service = service;
    replay.stack = OpenStack(world->artifacts, 0);
    replay.deep_stack = OpenStack(world->artifacts, kDeltaDepth);
    replay.served = true;
    replay.seconds = std::max(0.3, 0.3 * args.seconds);
    const ReplayResult replayed =
        RunReplay(replay, pool, SampleOrder(SubSeed(args.seed, 7), 4096, pick),
                  &tracer, &report.metrics);
    SetTraceMetrics(tracer, traced.p50(), measured.front().p50(),
                    Median(replayed.stage_sums_us) / 1e3, &report.metrics);
    report.info.emplace_back("replay_tables",
                             std::to_string(replayed.tables));
  }
  rss.Stop();

  if (publisher != nullptr) {
    publisher->Stop();
    apply_ms = publisher->apply_ms();
    reload_us = publisher->reload_us();
    if (publisher->failures() != 0) {
      report.correct = false;
      report.info.emplace_back("publish_failures",
                               std::to_string(publisher->failures()));
    }
  }
  SetPublishMetrics(apply_ms, reload_us, &report);

  // End-to-end figures come from the untraced fixed-rate pass.
  const Phase& fixed = measured.front();
  bool late = false;
  uint64_t late_windows = 0;
  std::vector<double> window_lag_p99_ms;
  for (const Phase& p : measured) {
    report.attempted += p.attempted;
    report.failed += p.failed;
    if (p.mismatched != 0) report.correct = false;
    late = late || p.late();
    late_windows += p.late_windows;
    window_lag_p99_ms.insert(window_lag_p99_ms.end(),
                             p.window_lag_p99_ms.begin(),
                             p.window_lag_p99_ms.end());
  }
  report.info.emplace_back("late_windows_remeasured",
                           std::to_string(late_windows));
  report.attempted += saturation.attempted;
  report.failed += saturation.failed;
  if (saturation.mismatched != 0) report.correct = false;
  // Over every window, late ones included: the generator as it ran.
  report.metrics.Set("bench.generator_lag_p99_ms", Median(window_lag_p99_ms),
                     "ms");
  if (late) {
    report.correct = false;
    report.info.emplace_back("invalid", "generator lag p99 above bound");
  }
  report.metrics.Set("bench.latency_p50_ms", fixed.p50(), "ms");
  report.metrics.Set("bench.latency_p90_ms", fixed.p90(), "ms");
  report.metrics.Set("bench.latency_p99_ms", fixed.p99(), "ms");
  report.metrics.Set("ok_ratio",
                     report.attempted > 0
                         ? 1.0 - static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted)
                         : 0,
                     "ratio");
  report.metrics.Set("rss_mb", rss.peak_mb(), "MB");
  report.info.emplace_back("offered_qps", FormatNumber(config.rate_qps));
  report.info.emplace_back("saturation_in_flight",
                           std::to_string(kSaturationInFlight));
  report.info.emplace_back("latency_p50_ms", FormatNumber(fixed.p50()));
  report.info.emplace_back("latency_p90_ms", FormatNumber(fixed.p90()));
  report.info.emplace_back("latency_p99_ms", FormatNumber(fixed.p99()));
  report.info.emplace_back("requests_checked",
                           std::to_string(report.attempted));
  if (args.trace) WriteTrace(args, tracer, &report);
  return report;
}

}  // namespace

RunReport RunServeSmall(const RunArgs& args, const Placement& placement) {
  return RunServe(kServeSmall, args, placement);
}

RunReport RunServePublish(const RunArgs& args, const Placement& placement) {
  return RunServe(kServePublish, args, placement);
}

RunReport RunScanTall(const RunArgs& args, const Placement& placement) {
  RunReport report;
  // One closed-loop caller; DetectBatch's workers may use every CPU.
  PinCurrentThread(AllowedCpus());
  const std::vector<Table> pool =
      ShapedPool(unidetect::EnterpriseCorpusSpec(kScanPool),
                 SubSeed(args.seed, 3));
  std::unique_ptr<World> world =
      TimedSetUp(args, /*cache_bytes=*/0, /*with_server=*/false, &report);
  DetectionService* service = world->service.get();

  // Reference findings for a seeded sample of the pool; every batch that
  // carries a sampled table is checked on it.
  std::vector<uint32_t> sample(pool.size());
  for (uint32_t t = 0; t < sample.size(); ++t) sample[t] = t;
  {
    unidetect::Rng rng(SubSeed(args.seed, 4));
    for (size_t i = sample.size(); i > 1; --i) {
      std::swap(sample[i - 1], sample[rng.NextBounded(i)]);
    }
    sample.resize(std::min(kScanCheckSample, sample.size()));
  }
  const auto refs = References(world->artifacts, pool, 0, sample);
  const size_t threads = std::min(kScanThreads, placement.nproc);

  size_t cursor = 0;
  double cpu_busy_s = 0;    // process CPU time inside DetectBatch
  uint64_t mismatched = 0;  // batches with any wrong findings
  std::vector<double> apply_ms, reload_us;
  // Runs the closed loop for `seconds`, with a quiet publish burst
  // between batches every 1/24 of it; returns per-batch latencies in ms.
  const auto loop = [&](double seconds, Tracer* tracer, uint64_t* tables) {
    std::vector<double> latency_ms;
    const auto span = [](double s) {
      return std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(s));
    };
    Clock::time_point end = Clock::now() + span(seconds);
    Clock::time_point next_burst = Clock::now();
    while (Clock::now() < end) {
      if (Clock::now() >= next_burst) {
        const Clock::time_point burst = Clock::now();
        QuietPublish(service, world->artifacts, &apply_ms, &reload_us);
        end += Clock::now() - burst;  // bursts do not eat scan time
        next_burst = Clock::now() + span(seconds / 24);
      }
      const size_t first = cursor;
      cursor = (cursor + kScanBatch) % (pool.size() - pool.size() % kScanBatch);
      // Fresh tables each pass, as a scan over new data would see them.
      std::vector<Table> batch;
      for (size_t j = 0; j < kScanBatch; ++j) {
        batch.push_back(ColdCopy(pool[first + j]));
      }
      const double cpu_before = ProcessCpuSeconds();
      const Clock::time_point start = Clock::now();
      const DetectionService::BatchResult result =
          service->DetectBatch(batch, nullptr, threads);
      const Clock::time_point done = Clock::now();
      cpu_busy_s += ProcessCpuSeconds() - cpu_before;
      latency_ms.push_back(SecondsBetween(start, done) * 1e3);
      *tables += kScanBatch;
      bool wrong = false;
      for (size_t j = 0; j < kScanBatch; ++j) {
        const std::string& ref = refs[0][first + j];
        if (!ref.empty() && FindingsBytes(result.per_table[j]) != ref) {
          wrong = true;
        }
      }
      if (wrong) ++mismatched;
      if (tracer != nullptr) {
        const uint64_t root = tracer->NewId();
        const uint64_t request = latency_ms.size();
        tracer->Add("serving.detect_batch", root, request, start, done);
        tracer->Add(root, "bench.batch", 0, request, start, Clock::now());
      }
    }
    return latency_ms;
  };

  uint64_t warm_tables = 0;
  loop(kWarmupSeconds, nullptr, &warm_tables);
  RssSampler rss;
  rss.Start();
  uint64_t tables = 0;
  const double main_seconds =
      args.trace ? std::max(0.5, 0.35 * args.seconds) : args.seconds;
  cpu_busy_s = 0;
  const std::vector<double> latency = loop(main_seconds, nullptr, &tables);
  // Time inside DetectBatch: the caller's own work (copying tables,
  // checking findings, publish bursts) is not the system's.
  const double busy_s =
      std::accumulate(latency.begin(), latency.end(), 0.0) / 1e3;
  const double busy_cpu_s = cpu_busy_s;
  uint64_t batches = latency.size();

  Tracer tracer;
  if (args.trace) {
    uint64_t traced_tables = 0;
    const std::vector<double> traced =
        loop(std::max(0.5, 0.35 * args.seconds), &tracer, &traced_tables);
    tables += traced_tables;
    batches += traced.size();
    const std::vector<double> batch_us = tracer.DurationsUs(
        "serving.detect_batch");
    report.metrics.Set("serving.detect_batch_p50_us",
                       Quantile(batch_us, 0.5), "us");
    report.metrics.Set("serving.detect_batch_p99_us",
                       Quantile(batch_us, 0.99), "us");
    ReplayConfig replay;
    replay.stack = OpenStack(world->artifacts, 0);
    replay.deep_stack = OpenStack(world->artifacts, kDeltaDepth);
    replay.seconds = std::max(0.3, 0.3 * args.seconds);
    std::vector<uint32_t> order(pool.size());
    for (uint32_t t = 0; t < order.size(); ++t) order[t] = t;
    const ReplayResult replayed =
        RunReplay(replay, pool, order, &tracer, &report.metrics);
    // A batch's stages: its tables' detection spread over the workers.
    const double stage_ms = Mean(tracer.DurationsUs("detect.table")) / 1e3 *
                            kScanBatch / static_cast<double>(threads);
    SetTraceMetrics(tracer, Median(traced), Median(latency), stage_ms,
                    &report.metrics);
    report.info.emplace_back("replay_tables",
                             std::to_string(replayed.tables));
  }
  rss.Stop();

  SetPublishMetrics(apply_ms, reload_us, &report);

  report.attempted = batches;
  report.failed = mismatched;
  report.correct = mismatched == 0;
  report.metrics.Set("bench.latency_p50_ms", Median(latency), "ms");
  report.metrics.Set("bench.latency_p90_ms", Quantile(latency, 0.9), "ms");
  report.metrics.Set("bench.latency_p99_ms", Quantile(latency, 0.99), "ms");
  for (const double q : {0.5, 0.9, 0.99}) {
    report.info.emplace_back(
        "latency_p" + std::to_string(static_cast<int>(q * 100)) + "_ms",
        FormatNumber(Quantile(latency, q)));
  }
  // Gated per CPU-second, which time a shared host steals is not in; the
  // wall-clock rate goes to the info line.
  const double scanned = static_cast<double>(latency.size() * kScanBatch);
  report.metrics.Set("tables_per_cpu_s", scanned / busy_cpu_s, "1/s");
  report.info.emplace_back("tables_per_s", FormatNumber(scanned / busy_s));
  report.metrics.Set("ok_ratio",
                     batches > 0 ? 1.0 - static_cast<double>(mismatched) /
                                             static_cast<double>(batches)
                                 : 0,
                     "ratio");
  report.metrics.Set("rss_mb", rss.peak_mb(), "MB");
  // Not on this workload's path: no network front end, no cache, no
  // delta layers under the reads, no open-loop generator.
  for (const MetricSpec& spec : kPerLayer) {
    const std::string name(spec.name);
    if (name.rfind("server.", 0) == 0 || name.rfind("serving.cache", 0) == 0 ||
        name == "serving.delta_layers_mean" ||
        name == "bench.generator_lag_p99_ms") {
      if (!report.metrics.Has(name)) {
        report.metrics.Set(name, 0, std::string(spec.unit));
      }
    }
  }
  report.info.emplace_back("batch_tables", std::to_string(kScanBatch));
  report.info.emplace_back("detect_threads", std::to_string(threads));
  report.info.emplace_back("tables_checked_per_pass",
                           std::to_string(sample.size()));
  if (args.trace) WriteTrace(args, tracer, &report);
  return report;
}

}  // namespace perfbench
