#include "setup.h"

#include <filesystem>
#include <stdexcept>

#include "common.h"
#include "corpus/corpus_io.h"
#include "corpus/generator.h"
#include "learn/trainer.h"
#include "offline/delta_build.h"

namespace perfbench {

namespace {

void Check(const unidetect::Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.ToString());
  }
}

Artifacts BuildArtifacts(uint64_t seed, const std::string& dir) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  fs::create_directories(dir);
  Artifacts artifacts;
  artifacts.dir = dir;
  artifacts.base_path = dir + "/base.udsnap";
  {
    const unidetect::Corpus corpus =
        unidetect::GenerateCorpus(
            unidetect::WebCorpusSpec(kTrainTables, SubSeed(seed, 1)))
            .corpus;
    const unidetect::Model base = unidetect::Trainer().Train(corpus);
    Check(base.Save(artifacts.base_path), "save base");
  }
  std::string parent;
  for (size_t k = 1; k <= kDeltaDepth; ++k) {
    const std::string shard = dir + "/shard" + std::to_string(k);
    Check(unidetect::SaveCorpusToDirectory(
              unidetect::GenerateCorpus(
                  unidetect::WikiCorpusSpec(kDeltaTables,
                                            SubSeed(seed, 100 + k)))
                  .corpus,
              shard),
          "write delta shard");
    unidetect::DeltaBuildSpec spec;
    spec.base_path = artifacts.base_path;
    spec.parent_path = parent;
    spec.input_dirs = {shard};
    spec.out_path = dir + "/delta" + std::to_string(k) + ".udsnap";
    Check(unidetect::BuildDeltaSnapshot(spec).status(), "build delta");
    artifacts.delta_paths.push_back(spec.out_path);
    parent = spec.out_path;
  }
  return artifacts;
}

}  // namespace

World::~World() {
  if (server != nullptr) server->Stop();
  server.reset();
  service.reset();
  if (!artifacts.dir.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(artifacts.dir, ignored);
  }
}

std::unique_ptr<World> SetUp(uint64_t seed, const std::string& dir,
                             uint64_t findings_cache_bytes, bool with_server) {
  auto world = std::make_unique<World>();
  world->artifacts = BuildArtifacts(seed, dir);
  auto service = unidetect::DetectionService::Create(
      world->artifacts.base_path, unidetect::UniDetectOptions{},
      findings_cache_bytes);
  Check(service.status(), "create service");
  world->service = std::move(service).ValueOrDie();
  if (with_server) {
    // Default ServerOptions on purpose: a change to a default is
    // measured the way users get it.
    world->server = std::make_unique<unidetect::DetectionServer>(
        world->service.get(), unidetect::ServerOptions{});
    Check(world->server->Start(), "start server");
  }
  return world;
}

}  // namespace perfbench
