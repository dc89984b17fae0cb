#include "learn/trainer.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>

#include "corpus/generator.h"
#include "learn/candidates.h"
#include "model_format/model_snapshot.h"

namespace unidetect {
namespace {

Corpus SmallCorpus(size_t tables = 200, uint64_t seed = 21) {
  return GenerateCorpus(WebCorpusSpec(tables, seed)).corpus;
}

TEST(TrainerTest, ProducesObservationsForEveryClass) {
  Trainer trainer;
  const Model model = trainer.Train(SmallCorpus());
  EXPECT_GT(model.num_subsets(), 10u);
  EXPECT_GT(model.num_observations(), 200u);
  EXPECT_GT(model.token_index().num_tables(), 0u);
  EXPECT_GT(model.token_index().num_tokens(), 100u);
}

TEST(TrainerTest, ThreadCountDoesNotChangeStatistics) {
  const Corpus corpus = SmallCorpus();
  TrainerOptions one;
  one.num_threads = 1;
  TrainerOptions four;
  four.num_threads = 4;
  const Model a = Trainer(one).Train(corpus);
  const Model b = Trainer(four).Train(corpus);
  EXPECT_EQ(a.num_subsets(), b.num_subsets());
  EXPECT_EQ(a.num_observations(), b.num_observations());
  EXPECT_EQ(a.token_index().num_tokens(), b.token_index().num_tokens());

  // LR queries agree on a real candidate.
  const Column probe("Hometown",
                     {"London", "Paris", "Paris", "Berlin", "Madrid", "Rome",
                      "Tokyo", "Delhi", "Oslo", "Cairo"});
  const auto cand =
      ExtractUniquenessCandidate(probe, 0, a.token_index(), a.options());
  if (cand.valid) {
    EXPECT_DOUBLE_EQ(a.LikelihoodRatio(ErrorClass::kUniqueness, cand.key,
                                       cand.theta1, cand.theta2),
                     b.LikelihoodRatio(ErrorClass::kUniqueness, cand.key,
                                       cand.theta1, cand.theta2));
  }
}

TEST(TrainerTest, FdPairCapLimitsWork) {
  TrainerOptions options;
  options.max_fd_pairs_per_table = 2;
  const Model capped = Trainer(options).Train(SmallCorpus(50));
  TrainerOptions uncapped_options;
  uncapped_options.max_fd_pairs_per_table = 100;
  const Model uncapped = Trainer(uncapped_options).Train(SmallCorpus(50));
  EXPECT_LT(capped.num_observations(), uncapped.num_observations());
}

TEST(TrainerTest, ModelOptionsArePropagated) {
  TrainerOptions options;
  options.model.min_support = 77;
  options.model.featurize.enabled = false;
  const Model model = Trainer(options).Train(SmallCorpus(30));
  EXPECT_EQ(model.options().min_support, 77u);
  EXPECT_FALSE(model.options().featurize.enabled);
  // With featurization off there is at most one subset per error class.
  EXPECT_LE(model.num_subsets(), 4u);
}

// The serialized model of a fixed seeded corpus, pinned by length and
// FNV-1a hash. The values were recorded from the string-keyed kernels
// (nested-map FR, per-pair Prev(rhs), WithoutRows re-computations), so
// the encoded kernels, the split key path and the prevalence memo are
// shown to leave every trained statistic unchanged. The corpus mixes
// WEB, WIKI and tall Enterprise tables so partial perturbations and
// distance-1 MPD columns occur.
Corpus PinCorpus() {
  Corpus corpus = GenerateCorpus(WebCorpusSpec(300, 21)).corpus;
  for (Table& table : GenerateCorpus(WikiCorpusSpec(100, 22)).corpus.tables) {
    corpus.tables.push_back(std::move(table));
  }
  for (Table& table :
       GenerateCorpus(EnterpriseCorpusSpec(16, 5)).corpus.tables) {
    corpus.tables.push_back(std::move(table));
  }
  return corpus;
}

uint64_t Fnv1a(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(TrainedModelPinTest, SerializedModelMatchesRecordedHash) {
  const Corpus corpus = PinCorpus();
  struct Pin {
    bool featurize;
    size_t size;
    uint64_t hash;
  };
  for (const Pin& pin : {Pin{true, 788744, 0x61b6b7194b288bfaULL},
                         Pin{false, 946824, 0x750387624dfa1fb5ULL}}) {
    TrainerOptions options;
    options.num_threads = 2;
    options.model.featurize.enabled = pin.featurize;
    const std::string bytes =
        EncodeModelSnapshot(Trainer(options).Train(corpus));
    EXPECT_EQ(bytes.size(), pin.size) << "featurize=" << pin.featurize;
    EXPECT_EQ(Fnv1a(bytes), pin.hash) << "featurize=" << pin.featurize;
  }
}

}  // namespace
}  // namespace unidetect
