// perfbench: the repo benchmark. One run sets the system up, drives one
// workload for --seconds, checks every output it can against a direct
// reference, and prints one JSON result line last on stdout:
//
//   perfbench --workload serve_small|scan_tall|serve_publish --seed N
//             --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the traced
// pass and the layer replay and prints the per-layer metrics. The line
// before the result carries the host and placement record, which is
// also written to DIR/results/. perfbench/run.py builds and runs this.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <string_view>
#include <thread>

#include "common.h"
#include "util/logging.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

bool ParseArgs(int argc, char** argv, RunArgs* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::string_view(value) == "1";
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty() && args->seconds > 0;
}

std::string InfoJson(const RunArgs& args, const Placement& placement,
                     const RunReport& report) {
  std::string out = "{\"perfbench_info\": {";
  const auto field = [&](const std::string& key, const std::string& value) {
    if (out.back() != '{') out += ", ";
    out += "\"" + JsonEscape(key) + "\": \"" + JsonEscape(value) + "\"";
  };
  field("workload", args.workload);
  field("seed", std::to_string(args.seed));
  field("seconds", FormatNumber(args.seconds));
  field("trace", args.trace ? "1" : "0");
  field("nproc", std::to_string(placement.nproc));
  field("hardware_concurrency",
        std::to_string(std::thread::hardware_concurrency()));
  field("generator_cpus", CpuList(placement.generator));
  field("server_cpus", CpuList(placement.server));
  field("build_type", PERFBENCH_BUILD_TYPE);
  field("compiler", PERFBENCH_COMPILER);
  for (const auto& [key, value] : report.info) field(key, value);
  return out + "}}";
}

int Main(int argc, char** argv) {
  unidetect::SetLogLevel(unidetect::LogLevel::kWarning);
  RunArgs args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  const Placement placement = ChoosePlacement();
  RunReport report;
  if (args.workload == "serve_small") {
    report = RunServeSmall(args, placement);
  } else if (args.workload == "scan_tall") {
    report = RunScanTall(args, placement);
  } else if (args.workload == "serve_publish") {
    report = RunServePublish(args, placement);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // Exactly the catalogue of the requested mode, in catalogue order; a
  // metric the run could not produce is a harness bug, not a zero.
  MetricSet printed;
  bool complete = true;
  const MetricSpec* begin = args.trace ? std::begin(kPerLayer)
                                       : std::begin(kEndToEnd);
  const MetricSpec* end = args.trace ? std::end(kPerLayer)
                                     : std::end(kEndToEnd);
  for (const MetricSpec* spec = begin; spec != end; ++spec) {
    const std::string name(spec->name);
    if (!report.metrics.Has(name)) {
      std::fprintf(stderr, "metric %s was not produced\n", name.c_str());
      complete = false;
    }
    printed.Set(name, report.metrics.Get(name, 0), std::string(spec->unit));
  }
  if (!complete) return 1;

  const std::string info = InfoJson(args, placement, report);
  const std::string result =
      std::string("{\"correct\": ") + (report.correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(report.attempted) +
      ", \"failed\": " + std::to_string(report.failed) +
      ", \"metrics\": " + printed.Json() + "}";
  const std::string dir = args.out_dir + "/results";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  if (std::FILE* file = std::fopen(path.c_str(), "w")) {
    std::fprintf(file, "%s\n%s\n", info.c_str(), result.c_str());
    std::fclose(file);
  }
  std::printf("%s\n%s\n", info.c_str(), result.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
