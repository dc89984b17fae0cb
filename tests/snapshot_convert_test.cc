// snapshot_convert end to end: drives the built tool binary (its path
// and offline_build's are compiled in) over real artifacts — the f16/f32
// re-encode round trip, chain audits of a real `offline_build delta`
// against a real compaction, and the typed refusal of a retired v1
// input. Exit codes are the contract: 0 success, 1 typed error.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

#include "corpus/corpus_io.h"
#include "corpus/generator.h"
#include "learn/trainer.h"
#include "model_format/model_snapshot.h"
#include "offline/compactor.h"
#include "serving/detection_service.h"
#include "util/binary_io.h"
#include "util/logging.h"

namespace unidetect {
namespace {

struct ToolRun {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

// ctest runs each case as its own process, concurrently, so every
// process gets its own scratch directory.
const std::string& Dir() {
  static const std::string* const dir = [] {
    auto* d = new std::string(testing::TempDir() + "/snapshot_convert." +
                              std::to_string(::getpid()));
    std::filesystem::create_directories(*d);
    return d;
  }();
  return *dir;
}

std::string Quote(const std::string& s) { return "'" + s + "'"; }

ToolRun Run(const std::string& tool, const std::string& args) {
  const std::string log = Dir() + "/tool.log";
  const std::string command =
      Quote(tool) + " " + args + " > " + Quote(log) + " 2>&1";
  const int raw = std::system(command.c_str());
  ToolRun run;
  if (raw != -1 && WIFEXITED(raw)) run.exit_code = WEXITSTATUS(raw);
  run.output = ReadFileToString(log).ValueOr(std::string());
  return run;
}

ToolRun Convert(const std::string& args) {
  return Run(UNIDETECT_SNAPSHOT_CONVERT, args);
}

std::string Bytes(const std::string& path) {
  return ReadFileToString(path).ValueOr(std::string());
}

// A saved base, one delta built by the offline_build tool, and the
// compaction of the two written by the serving tier's Compactor.
struct Chain {
  std::string base;
  std::string delta;
  std::string compacted;
};

const Chain& SharedChain() {
  static const Chain* const chain = [] {
    SetLogLevel(LogLevel::kWarning);
    auto* c = new Chain{Dir() + "/base.udsnap", Dir() + "/d1.udsnap",
                        Dir() + "/compacted.udsnap"};
    const Model base =
        Trainer().Train(GenerateCorpus(WebCorpusSpec(150, 9101)).corpus);
    UNIDETECT_CHECK(base.Save(c->base).ok());
    const std::string shard = Dir() + "/shard";
    UNIDETECT_CHECK(SaveCorpusToDirectory(
                        GenerateCorpus(WebCorpusSpec(40, 9102)).corpus, shard)
                        .ok());
    const ToolRun delta =
        Run(UNIDETECT_OFFLINE_BUILD, "delta " + Quote(c->base) + " " +
                                         Quote(c->delta) + " " + Quote(shard));
    UNIDETECT_CHECK(delta.exit_code == 0);

    auto service = DetectionService::Create(c->base);
    UNIDETECT_CHECK(service.ok());
    UNIDETECT_CHECK((*service)->ApplyDelta(c->delta).ok());
    Compactor compactor(service->get(), {.output_path = c->compacted});
    auto swapped = compactor.CompactOnce();
    UNIDETECT_CHECK(swapped.ok() && *swapped);
    return c;
  }();
  return *chain;
}

TEST(SnapshotConvertTest, F16ThenF32RoundTripsWithCheck) {
  const std::string& original = SharedChain().base;
  const std::string half = Dir() + "/half.udsnap";
  const std::string widened = Dir() + "/widened.udsnap";
  const std::string requantized = Dir() + "/requantized.udsnap";
  const std::string same = Dir() + "/same.udsnap";

  ToolRun run =
      Convert(Quote(original) + " --f16 --check --out " + Quote(half));
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("[checked]"), std::string::npos) << run.output;
  EXPECT_LT(Bytes(half).size(), Bytes(original).size());

  run = Convert(Quote(half) + " --f32 --check --out " + Quote(widened));
  ASSERT_EQ(run.exit_code, 0) << run.output;

  // Widening is exact, so narrowing the widened artifact again must
  // reproduce the f16 bytes.
  run = Convert(Quote(widened) + " --f16 --check --out " + Quote(requantized));
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_TRUE(Bytes(requantized) == Bytes(half));

  // An f32 re-encode of an f32 model is the identity.
  run = Convert(Quote(original) + " --f32 --check --out " + Quote(same));
  ASSERT_EQ(run.exit_code, 0) << run.output;
  const std::string original_bytes = Bytes(original);
  ASSERT_FALSE(original_bytes.empty());
  EXPECT_TRUE(Bytes(same) == original_bytes);
}

TEST(SnapshotConvertTest, ChainAuditAcceptsRealFoldAndRejectsMismatch) {
  const Chain& chain = SharedChain();
  const std::string layers = Quote(chain.base) + " " + Quote(chain.delta);

  ToolRun run = Convert(Quote(chain.compacted) + " --check --chain " + layers);
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("[chain verified]"), std::string::npos)
      << run.output;

  // The base alone is not the fold of base + delta.
  run = Convert(Quote(chain.base) + " --check --chain " + layers);
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("not bit-identical"), std::string::npos)
      << run.output;

  // Layers out of chain order fail the manifest checks.
  run = Convert(Quote(chain.compacted) + " --check --chain " +
                Quote(chain.delta) + " " + Quote(chain.base));
  EXPECT_EQ(run.exit_code, 1) << run.output;
}

TEST(SnapshotConvertTest, RetiredV1InputIsATypedError) {
  std::string v1(kSnapshotMagic);
  AppendU32(&v1, 1);  // format_version
  AppendU32(&v1, 0);  // section_count
  const std::string in = Dir() + "/retired.udsnap";
  const std::string out = Dir() + "/retired_out.udsnap";
  ASSERT_TRUE(WriteStringToFile(in, v1).ok());

  const ToolRun run = Convert(Quote(in) + " --check --out " + Quote(out));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("Corruption"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("format version 1"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("retired"), std::string::npos) << run.output;
  EXPECT_FALSE(std::filesystem::exists(out));
}

TEST(SnapshotConvertTest, RemovedFormatFlagIsAUsageError) {
  const ToolRun run = Convert(Quote(Dir() + "/any.udsnap") + " --to v2");
  EXPECT_EQ(run.exit_code, 2) << run.output;
  EXPECT_NE(run.output.find("usage:"), std::string::npos) << run.output;
}

}  // namespace
}  // namespace unidetect
