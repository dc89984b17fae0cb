#include "layers.h"

#include <array>
#include <string>

#include "detect/detector_registry.h"
#include "detect/unidetect.h"
#include "featurize/features.h"
#include "learn/candidates.h"
#include "metrics/metric_functions.h"
#include "server/wire.h"

namespace perfbench {

namespace {

using unidetect::Column;
using unidetect::ErrorClass;
using unidetect::Table;

constexpr std::array<ErrorClass, 4> kClasses = {
    ErrorClass::kOutlier, ErrorClass::kSpelling, ErrorClass::kUniqueness,
    ErrorClass::kFd};
constexpr std::array<const char*, 4> kClassSpans = {
    "detect.outlier", "detect.spelling", "detect.uniqueness", "detect.fd"};

// Keeps the replayed calls' results observable, so none is optimized out.
volatile double g_sink = 0;

struct LrQuery {
  ErrorClass cls;
  unidetect::FeatureKey key;
  double theta1;
  double theta2;
};

// Runs `fn` inside a span and returns its duration in microseconds.
template <typename Fn>
double Timed(Tracer* tracer, const char* name, uint64_t parent,
             uint64_t request, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  fn();
  const Clock::time_point end = Clock::now();
  tracer->Add(name, parent, request, start, end);
  return std::chrono::duration<double, std::micro>(end - start).count();
}

// The lookups the four detectors make for `table`, taken from the
// library's own candidate extraction.
std::vector<LrQuery> LrQueries(const Table& table,
                               const unidetect::ModelStack& stack,
                               size_t max_pairs) {
  const unidetect::ModelOptions& options = stack.options();
  std::vector<LrQuery> queries;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);
    const auto outlier = unidetect::ExtractOutlierCandidate(column, options);
    if (outlier.valid) {
      queries.push_back({ErrorClass::kOutlier, outlier.key, outlier.theta1,
                         outlier.theta2});
    }
    const auto spelling = unidetect::ExtractSpellingCandidate(column, options);
    if (spelling.valid) {
      queries.push_back({ErrorClass::kSpelling, spelling.key,
                         spelling.theta1, spelling.theta2});
    }
    const auto unique = unidetect::ExtractUniquenessCandidate(
        column, c, stack.token_prevalence(), options);
    if (unique.valid) {
      queries.push_back({ErrorClass::kUniqueness, unique.key, unique.theta1,
                         unique.theta2});
    }
  }
  size_t pairs = 0;
  for (size_t l = 0; l < table.num_columns() && pairs < max_pairs; ++l) {
    for (size_t r = 0; r < table.num_columns() && pairs < max_pairs; ++r) {
      if (l == r) continue;
      ++pairs;
      const auto fd = unidetect::ExtractFdCandidate(
          table.column(l), table.column(r), stack.token_prevalence(),
          options);
      if (fd.valid) {
        queries.push_back({ErrorClass::kFd, fd.key, fd.theta1, fd.theta2});
      }
    }
  }
  return queries;
}

}  // namespace

ReplayResult RunReplay(const ReplayConfig& config,
                       const std::vector<Table>& pool,
                       const std::vector<uint32_t>& order, Tracer* tracer,
                       MetricSet* out) {
  namespace wire = unidetect::wire;
  const unidetect::ModelStack& stack = *config.stack;
  const unidetect::ModelOptions& model_options = stack.options();
  const unidetect::UniDetectOptions options;
  const unidetect::UniDetect facade(config.stack, options);
  const unidetect::DetectorContext context{&stack, nullptr, &options};
  std::array<std::unique_ptr<unidetect::Detector>, 4> detectors;
  for (size_t i = 0; i < kClasses.size(); ++i) {
    detectors[i] =
        unidetect::DetectorRegistry::Builtin().Create(kClasses[i], context);
  }
  const size_t max_pairs = options.max_fd_pairs_per_table;

  ReplayResult result;
  std::array<double, 4> wire_us = {0, 0, 0, 0};
  std::vector<double> detect_batch_us;
  std::array<double, 4> class_us = {0, 0, 0, 0};
  double table_us = 0, findings = 0;
  double mpd_us = 0, ur_us = 0, fr_us = 0, featurize_us = 0;
  size_t mpd_columns = 0, ur_columns = 0, fr_pairs = 0, columns = 0;
  double lr_us = 0, lr_deep_us = 0;
  size_t lookups = 0;
  double sink = 0;

  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(config.seconds));
  for (size_t k = 0; k < order.size() && Clock::now() < deadline; ++k) {
    const uint64_t request = (uint64_t{1} << 40) + k;
    ScopedSpan root(tracer, "bench.replay", 0, request);
    const uint64_t parent = root.id();
    ++result.tables;

    if (config.served) {
      // The serial stages of one served request, in order.
      wire::DetectRequest message;
      message.request_id = request;
      message.tables.push_back(pool[order[k]]);
      std::string bytes;
      wire::DetectRequest decoded;
      unidetect::DetectionService::BatchResult batch;
      std::array<double, 5> stage = {0, 0, 0, 0, 0};
      stage[0] = Timed(tracer, "wire.encode_request", parent, request,
                       [&] { bytes = wire::EncodeDetectRequest(message); });
      stage[1] = Timed(tracer, "wire.decode_request", parent, request, [&] {
        auto frame = wire::TryParseFrame(bytes, wire::kAbsoluteMaxPayload);
        decoded = std::move(
            wire::DecodeDetectRequestPayload((*frame.ValueOrDie()).payload)
                .ValueOrDie());
      });
      stage[2] = Timed(tracer, "serving.detect_batch", parent, request, [&] {
        batch = config.service->DetectBatch(decoded.tables);
      });
      stage[3] = Timed(tracer, "wire.encode_response", parent, request, [&] {
        bytes = wire::EncodeOkResponseFrame(request, batch.generation,
                                            batch.per_table);
      });
      stage[4] = Timed(tracer, "wire.decode_response", parent, request, [&] {
        auto frame = wire::TryParseFrame(bytes, wire::kAbsoluteMaxPayload);
        sink += static_cast<double>(
            wire::DecodeDetectResponsePayload((*frame.ValueOrDie()).payload)
                .ValueOrDie()
                .per_table.size());
      });
      wire_us[0] += stage[0];
      wire_us[1] += stage[1];
      wire_us[2] += stage[3];
      wire_us[3] += stage[4];
      detect_batch_us.push_back(stage[2]);
      result.stage_sums_us.push_back(stage[0] + stage[1] + stage[2] +
                                     stage[3] + stage[4]);
    }

    // The detector and kernel stages run on a warmed copy: the facade
    // and every per-class detector then see the same table state, and
    // the first caller does not pay the lazy column parsing for all.
    const Table table = ColdCopy(pool[order[k]]);
    (void)facade.DetectTable(table);
    table_us += Timed(tracer, "detect.table", parent, request, [&] {
      findings += static_cast<double>(facade.DetectTable(table).size());
    });
    for (size_t i = 0; i < detectors.size(); ++i) {
      std::vector<unidetect::Finding> found;
      class_us[i] += Timed(tracer, kClassSpans[i], parent, request,
                           [&] { detectors[i]->Detect(table, &found); });
    }

    // The metric kernels and featurizers, on the columns and column
    // pairs the detectors evaluate.
    for (size_t c = 0; c < table.num_columns(); ++c) {
      const Column& column = table.column(c);
      ++columns;
      unidetect::MpdProfile mpd;
      if (column.size() >= model_options.min_column_rows) {
        mpd_us += Timed(tracer, "metrics.mpd", parent, request, [&] {
          mpd = unidetect::ComputeMpdProfile(column, model_options.mpd);
        });
        ++mpd_columns;
        ur_us += Timed(tracer, "metrics.ur", parent, request, [&] {
          sink += unidetect::ComputeUrProfile(column).ur;
        });
        ++ur_columns;
      }
      featurize_us += Timed(tracer, "featurize.column", parent, request, [&] {
        const auto& f = model_options.featurize;
        uint64_t keys = unidetect::OutlierFeatures(column, f).packed;
        keys ^= unidetect::UniquenessFeatures(column, c,
                                              stack.token_prevalence(), f)
                    .packed;
        if (mpd.valid) {
          keys ^= unidetect::SpellingFeatures(column, mpd, f).packed;
        }
        sink += static_cast<double>(keys & 1);
      });
    }
    size_t pairs = 0;
    for (size_t l = 0; l < table.num_columns() && pairs < max_pairs; ++l) {
      for (size_t r = 0; r < table.num_columns() && pairs < max_pairs; ++r) {
        if (l == r) continue;
        ++pairs;
        if (table.column(l).size() < model_options.min_column_rows) continue;
        fr_us += Timed(tracer, "metrics.fr", parent, request, [&] {
          sink += unidetect::ComputeFrProfile(table.column(l),
                                              table.column(r))
                      .fr;
        });
        ++fr_pairs;
        featurize_us += Timed(tracer, "featurize.pair", parent, request, [&] {
          sink += static_cast<double>(
              unidetect::FdFeatures(table.column(l), table.column(r),
                                    stack.token_prevalence(),
                                    model_options.featurize)
                  .packed &
              1);
        });
      }
    }

    const std::vector<LrQuery> queries = LrQueries(table, stack, max_pairs);
    lookups += queries.size();
    lr_us += Timed(tracer, "learn.lr_lookup", parent, request, [&] {
      for (const LrQuery& q : queries) {
        sink += stack.LikelihoodRatio(q.cls, q.key, q.theta1, q.theta2);
      }
    });
    lr_deep_us += Timed(tracer, "learn.lr_lookup_depth_k", parent, request,
                        [&] {
                          for (const LrQuery& q : queries) {
                            sink += config.deep_stack->LikelihoodRatio(
                                q.cls, q.key, q.theta1, q.theta2);
                          }
                        });
  }

  const double tables = static_cast<double>(std::max<size_t>(result.tables, 1));
  const auto per = [](double total, size_t count) {
    return count == 0 ? 0.0 : total / static_cast<double>(count);
  };
  out->Set("wire.encode_request_us", wire_us[0] / tables, "us");
  out->Set("wire.decode_request_us", wire_us[1] / tables, "us");
  out->Set("wire.encode_response_us", wire_us[2] / tables, "us");
  out->Set("wire.decode_response_us", wire_us[3] / tables, "us");
  if (config.served) {
    out->Set("serving.detect_batch_p50_us", Quantile(detect_batch_us, 0.5),
             "us");
    out->Set("serving.detect_batch_p99_us", Quantile(detect_batch_us, 0.99),
             "us");
  }
  double class_sum = 0;
  for (size_t i = 0; i < kClasses.size(); ++i) {
    out->Set(std::string(kClassSpans[i]) + "_us", class_us[i] / tables, "us");
    class_sum += class_us[i];
  }
  out->Set("detect.facade_overhead_us", (table_us - class_sum) / tables, "us");
  out->Set("detect.findings_per_table", findings / tables, "count");
  out->Set("metrics.mpd_us_per_column", per(mpd_us, mpd_columns), "us");
  out->Set("metrics.fr_us_per_pair", per(fr_us, fr_pairs), "us");
  out->Set("metrics.ur_us_per_column", per(ur_us, ur_columns), "us");
  out->Set("metrics.mpd_columns", mpd_columns / tables, "count/table");
  out->Set("metrics.fr_pairs", fr_pairs / tables, "count/table");
  out->Set("featurize.us_per_column", per(featurize_us, columns), "us");
  out->Set("learn.lr_lookup_ns", per(lr_us * 1e3, lookups), "ns");
  out->Set("learn.lr_lookup_ns_depth_k", per(lr_deep_us * 1e3, lookups),
           "ns");
  g_sink = sink;
  return result;
}

}  // namespace perfbench
