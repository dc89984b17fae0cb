#include "learn/candidates.h"

#include <gtest/gtest.h>

#include "table/table.h"

namespace unidetect {
namespace {

ModelOptions TestOptions() {
  ModelOptions options;
  options.min_column_rows = 4;
  return options;
}

TEST(OutlierCandidateTest, FindsTheExtremeValue) {
  Column col("c", {"10", "11", "12", "10.5", "11.5", "9000"});
  const OutlierCandidate cand = ExtractOutlierCandidate(col, TestOptions());
  ASSERT_TRUE(cand.valid);
  EXPECT_EQ(cand.row, 5u);
  EXPECT_EQ(cand.cell, "9000");
  EXPECT_DOUBLE_EQ(cand.value, 9000.0);
  EXPECT_GT(cand.theta1, cand.theta2);  // removal cleans the column
}

TEST(OutlierCandidateTest, RejectsNonNumericAndTiny) {
  EXPECT_FALSE(
      ExtractOutlierCandidate(Column("c", {"a", "b", "c", "d", "e"}),
                              TestOptions())
          .valid);
  EXPECT_FALSE(
      ExtractOutlierCandidate(Column("c", {"1", "2"}), TestOptions()).valid);
  // Mostly-text columns with a few numbers are not outlier targets.
  EXPECT_FALSE(ExtractOutlierCandidate(
                   Column("c", {"1", "2", "x", "y", "z", "w"}), TestOptions())
                   .valid);
}

TEST(SpellingCandidateTest, ThetasComeFromProfile) {
  Column col("c", {"Chicago", "Chicagoo", "Boston", "Denver", "Seattle"});
  const SpellingCandidate cand = ExtractSpellingCandidate(col, TestOptions());
  ASSERT_TRUE(cand.valid);
  EXPECT_DOUBLE_EQ(cand.theta1, 1.0);
  EXPECT_GT(cand.theta2, cand.theta1);
}

TEST(UniquenessCandidateTest, EpsilonCapsTheDrop) {
  ModelOptions options = TestOptions();
  options.epsilon.min_rows = 1;
  options.epsilon.fraction = 0.0;
  // Three duplicate rows but epsilon = 1: only one may be dropped, and
  // theta2 is the partially-cleaned UR.
  Column col("c", {"a", "a", "a", "b", "c", "d"});
  TokenIndex index;
  const UniquenessCandidate cand =
      ExtractUniquenessCandidate(col, 0, index, options);
  ASSERT_TRUE(cand.valid);
  EXPECT_EQ(cand.dropped_rows.size(), 1u);
  EXPECT_DOUBLE_EQ(cand.theta1, 4.0 / 6.0);
  EXPECT_DOUBLE_EQ(cand.theta2, 4.0 / 5.0);
}

TEST(UniquenessCandidateTest, FullDropReachesOne) {
  ModelOptions options = TestOptions();
  Column col("c", {"a", "a", "b", "c", "d", "e"});
  TokenIndex index;
  const UniquenessCandidate cand =
      ExtractUniquenessCandidate(col, 0, index, options);
  ASSERT_TRUE(cand.valid);
  EXPECT_DOUBLE_EQ(cand.theta2, 1.0);
}

TEST(FdCandidateTest, ViolatingRowsDropped) {
  ModelOptions options = TestOptions();
  Column lhs("k", {"a", "a", "b", "b", "c", "d"});
  Column rhs("v", {"1", "2", "3", "3", "4", "5"});
  const FdCandidate cand =
      ExtractFdCandidate(lhs, rhs, TokenIndex(), options);
  ASSERT_TRUE(cand.valid);
  EXPECT_EQ(cand.violating_groups, 1u);
  EXPECT_EQ(cand.dropped_rows.size(), 1u);
  EXPECT_LT(cand.theta1, 1.0);
  EXPECT_DOUBLE_EQ(cand.theta2, 1.0);
}

TEST(FdCandidateTest, CleanPairHasNoDrops) {
  ModelOptions options = TestOptions();
  Column lhs("k", {"a", "a", "b", "b"});
  Column rhs("v", {"1", "1", "2", "2"});
  const FdCandidate cand =
      ExtractFdCandidate(lhs, rhs, TokenIndex(), options);
  ASSERT_TRUE(cand.valid);
  EXPECT_TRUE(cand.dropped_rows.empty());
  EXPECT_DOUBLE_EQ(cand.theta1, 1.0);
}

TEST(CandidateKeysTest, MatchDirectFeaturization) {
  // The extraction layer must produce exactly the keys the featurizers
  // produce — train/serve consistency.
  ModelOptions options = TestOptions();
  Column col("c", {"10", "11", "12", "13", "900"});
  const OutlierCandidate cand = ExtractOutlierCandidate(col, options);
  ASSERT_TRUE(cand.valid);
  EXPECT_TRUE(cand.key == OutlierFeatures(col, options.featurize));
}

TEST(CandidateKeysTest, SplitKeyMatchesCombinedExtraction) {
  // The metric-only overloads plus the featurizer give the same
  // candidate and key as the combined overloads, and the prevalence
  // overloads of the featurizers the same key as the index overloads.
  ModelOptions options = TestOptions();
  options.epsilon.min_rows = 1;
  options.epsilon.fraction = 0.0;
  TokenIndex index;
  Table corpus_table("t");
  ASSERT_TRUE(corpus_table.AddColumn(Column("c", {"Paris", "France"})).ok());
  index.AddTable(corpus_table);
  const Column lhs("city", {"Paris", "Paris", "Lyon", "Paris", "Lyon", "Nice"});
  const Column rhs("country",
                   {"France", "FR", "France", "Fr", "France", "France"});

  const FdCandidate combined = ExtractFdCandidate(lhs, rhs, index, options);
  const FdCandidate split = ExtractFdCandidate(lhs, rhs, options);
  ASSERT_TRUE(combined.valid);
  ASSERT_TRUE(split.valid);
  EXPECT_EQ(split.theta1, combined.theta1);
  EXPECT_EQ(split.theta2, combined.theta2);
  EXPECT_EQ(split.dropped_rows, combined.dropped_rows);
  EXPECT_TRUE(FdFeatures(lhs, rhs, index, options.featurize) == combined.key);
  EXPECT_TRUE(FdFeatures(lhs, rhs, index.AveragePrevalence(rhs),
                         options.featurize) == combined.key);

  const UniquenessCandidate u_combined =
      ExtractUniquenessCandidate(lhs, 2, index, options);
  const UniquenessCandidate u_split = ExtractUniquenessCandidate(lhs, options);
  ASSERT_TRUE(u_combined.valid);
  EXPECT_EQ(u_split.theta1, u_combined.theta1);
  EXPECT_EQ(u_split.theta2, u_combined.theta2);
  EXPECT_EQ(u_split.dropped_rows, u_combined.dropped_rows);
  EXPECT_TRUE(UniquenessFeatures(lhs, 2, index.AveragePrevalence(lhs),
                                 options.featurize) == u_combined.key);
}

}  // namespace
}  // namespace unidetect
