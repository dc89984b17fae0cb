// Benchmark set-up: the part a deployment pays before serving. It
// generates the seeded training corpus, trains the base model, writes
// it as a snapshot, builds a chain of delta snapshots on top of it, and
// starts the service (and, for the serve workloads, the network server).

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "server/server.h"
#include "serving/detection_service.h"

namespace perfbench {

/// Tables in the seeded WEB training corpus of the base model.
inline constexpr size_t kTrainTables = 3000;
/// Depth K of the delta chain d1..dK built over the base.
inline constexpr size_t kDeltaDepth = 4;
/// WIKI tables trained into each delta.
inline constexpr size_t kDeltaTables = 40;

struct Artifacts {
  std::string dir;
  std::string base_path;
  std::vector<std::string> delta_paths;  ///< d1..dK, in chain order
};

/// A set-up system: artifacts on disk, the service over the base, and
/// the server in front of it when the workload goes over the network.
struct World {
  World() = default;
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World();

  Artifacts artifacts;
  std::unique_ptr<unidetect::DetectionService> service;
  std::unique_ptr<unidetect::DetectionServer> server;
};

/// Runs the whole set-up into `dir` (created empty). Throws
/// std::runtime_error on any failure.
std::unique_ptr<World> SetUp(uint64_t seed, const std::string& dir,
                             uint64_t findings_cache_bytes, bool with_server);

}  // namespace perfbench
