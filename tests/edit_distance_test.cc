#include "metrics/edit_distance.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/random.h"

namespace unidetect {
namespace {

TEST(EditDistanceTest, KnownPairs) {
  EXPECT_EQ(EditDistance("", ""), 0u);
  EXPECT_EQ(EditDistance("abc", "abc"), 0u);
  EXPECT_EQ(EditDistance("", "abc"), 3u);
  EXPECT_EQ(EditDistance("kitten", "sitting"), 3u);
  EXPECT_EQ(EditDistance("flaw", "lawn"), 2u);
  // The paper's examples.
  EXPECT_EQ(EditDistance("Kevin Doeling", "Kevin Dowling"), 1u);
  EXPECT_EQ(EditDistance("Mississippi", "Mississipi"), 1u);
  EXPECT_EQ(EditDistance("H2O", "H2O2"), 1u);
  EXPECT_EQ(EditDistance("Super Bowl XXI", "Super Bowl XXII"), 1u);
  EXPECT_EQ(EditDistance("Bromine", "Bromide"), 1u);
}

TEST(EditDistanceTest, Symmetry) {
  EXPECT_EQ(EditDistance("abcdef", "azced"), EditDistance("azced", "abcdef"));
}

TEST(BoundedEditDistanceTest, AgreesWithinBound) {
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 3), 3u);
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 5), 3u);
}

TEST(BoundedEditDistanceTest, ReportsBoundPlusOneWhenExceeded) {
  EXPECT_EQ(BoundedEditDistance("kitten", "sitting", 2), 3u);
  EXPECT_EQ(BoundedEditDistance("", "abcdef", 3), 4u);
  EXPECT_EQ(BoundedEditDistance("aaaa", "bbbb", 1), 2u);
}

TEST(BoundedEditDistanceTest, LengthGapShortCircuit) {
  // |len difference| > bound can never fit.
  EXPECT_EQ(BoundedEditDistance("ab", "abcdefgh", 3), 4u);
}

// Property: bounded distance equals full distance whenever it fits the
// bound, over random string pairs.
class EditDistancePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EditDistancePropertyTest, BoundedMatchesFull) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    const std::string a = rng.AlphaString(rng.NextBounded(12));
    std::string b = a;
    // Mutate b a random number of times for interesting distances.
    const size_t edits = rng.NextBounded(5);
    for (size_t e = 0; e < edits && !b.empty(); ++e) {
      const size_t pos = rng.NextBounded(b.size());
      switch (rng.NextBounded(3)) {
        case 0:
          b[pos] = static_cast<char>('a' + rng.NextBounded(26));
          break;
        case 1:
          b.erase(pos, 1);
          break;
        default:
          b.insert(pos, 1, static_cast<char>('a' + rng.NextBounded(26)));
          break;
      }
    }
    const size_t full = EditDistance(a, b);
    for (size_t bound : {size_t{1}, size_t{3}, size_t{20}}) {
      const size_t bounded = BoundedEditDistance(a, b, bound);
      if (full <= bound) {
        EXPECT_EQ(bounded, full) << a << " vs " << b << " bound " << bound;
      } else {
        EXPECT_EQ(bounded, bound + 1) << a << " vs " << b;
      }
    }
    // Triangle inequality against a third string.
    const std::string c = rng.AlphaString(rng.NextBounded(12));
    EXPECT_LE(EditDistance(a, c), full + EditDistance(b, c));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditDistancePropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// A reused MyersPattern (as the MPD scan keeps one per probe value) must
// give every text the exact bounded distance, with patterns reassigned
// in between: longer to shorter, sharing and not sharing bytes, up to the
// 64-byte word, and bytes >= 128.
TEST(MyersPatternTest, ReusedPatternMatchesFullDistance) {
  Rng rng(0x3E75);
  MyersPattern pattern;
  for (int trial = 0; trial < 300; ++trial) {
    std::string p = rng.AlphaString(rng.NextBounded(65));
    if (trial % 7 == 0 && !p.empty()) p[0] = static_cast<char>(0xE9);
    pattern.Assign(p);
    for (int t = 0; t < 8; ++t) {
      std::string text = p;
      for (size_t e = 0, k = rng.NextBounded(8); e < k && !text.empty(); ++e) {
        text[rng.NextBounded(text.size())] =
            static_cast<char>('a' + rng.NextBounded(26));
      }
      text += rng.AlphaString(rng.NextBounded(4));
      const size_t full = EditDistance(p, text);
      for (size_t bound : {size_t{0}, size_t{2}, size_t{5}, size_t{64}}) {
        EXPECT_EQ(pattern.BoundedDistance(text, bound),
                  full <= bound ? full : bound + 1)
            << p << " vs " << text << " bound " << bound;
      }
    }
  }
}

TEST(MyersPatternTest, ReassignClearsThePreviousPattern) {
  MyersPattern pattern;
  pattern.Assign("abcabc");
  pattern.Assign("xy");
  EXPECT_EQ(pattern.BoundedDistance("ab", 5), 2u);
  EXPECT_EQ(pattern.BoundedDistance("xy", 5), 0u);
  pattern.Assign("");
  EXPECT_EQ(pattern.BoundedDistance("abc", 5), 3u);
  EXPECT_EQ(pattern.BoundedDistance("abc", 2), 3u);
}

}  // namespace
}  // namespace unidetect
