#include "metrics/metric_functions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "util/random.h"
#include "util/simd.h"

namespace unidetect {
namespace {

// ---------------------------------------------------------------------------
// Uniqueness ratio.

TEST(UrProfileTest, AllUnique) {
  Column col("c", {"a", "b", "c", "d"});
  const UrProfile profile = ComputeUrProfile(col);
  ASSERT_TRUE(profile.valid);
  EXPECT_DOUBLE_EQ(profile.ur, 1.0);
  EXPECT_DOUBLE_EQ(profile.ur_perturbed, 1.0);
  EXPECT_TRUE(profile.duplicate_rows.empty());
}

TEST(UrProfileTest, OneDuplicatePair) {
  Column col("c", {"a", "b", "a", "c"});
  const UrProfile profile = ComputeUrProfile(col);
  ASSERT_TRUE(profile.valid);
  EXPECT_DOUBLE_EQ(profile.ur, 0.75);
  EXPECT_DOUBLE_EQ(profile.ur_perturbed, 1.0);
  EXPECT_EQ(profile.duplicate_rows, (std::vector<size_t>{2}));
}

TEST(UrProfileTest, TripleValueDropsTwoRows) {
  Column col("c", {"a", "a", "a", "b"});
  const UrProfile profile = ComputeUrProfile(col);
  EXPECT_DOUBLE_EQ(profile.ur, 0.5);
  EXPECT_EQ(profile.duplicate_rows, (std::vector<size_t>{1, 2}));
  EXPECT_DOUBLE_EQ(profile.ur_perturbed, 1.0);
}

TEST(UrProfileTest, EmptyCellsIgnored) {
  Column col("c", {"a", "", "a", "  "});
  const UrProfile profile = ComputeUrProfile(col);
  ASSERT_TRUE(profile.valid);
  EXPECT_DOUBLE_EQ(profile.ur, 0.5);  // 1 distinct / 2 non-empty
  EXPECT_EQ(profile.duplicate_rows, (std::vector<size_t>{2}));
}

TEST(UrProfileTest, AllEmptyInvalid) {
  Column col("c", {"", " "});
  EXPECT_FALSE(ComputeUrProfile(col).valid);
}

// ---------------------------------------------------------------------------
// Minimum pair-wise distance.

TEST(MpdProfileTest, PaperExample1Shape) {
  // "Kevin Doeling"/"Kevin Dowling" are the closest pair; removing one
  // jumps the MPD to the distance between unrelated names.
  Column col("cast", {"Kevin Doeling", "Kevin Dowling", "Alan Myerson",
                      "Rob Morrow", "Jane Lynch"});
  const MpdProfile profile = ComputeMpdProfile(col);
  ASSERT_TRUE(profile.valid);
  EXPECT_EQ(profile.mpd, 1u);
  EXPECT_TRUE((profile.value_a == "Kevin Doeling" &&
               profile.value_b == "Kevin Dowling") ||
              (profile.value_a == "Kevin Dowling" &&
               profile.value_b == "Kevin Doeling"));
  EXPECT_GT(profile.mpd_perturbed, 5u);
  EXPECT_TRUE(profile.drop_row == profile.row_a ||
              profile.drop_row == profile.row_b);
}

TEST(MpdProfileTest, InherentlyClosePairsKeepMpdLow) {
  // Roman-numeral series: removing one value leaves other distance-1
  // pairs (Figure 2(h)); the perturbed MPD stays small.
  Column col("event", {"Super Bowl XX", "Super Bowl XXI", "Super Bowl XXII",
                       "Super Bowl XXV", "Super Bowl XXVI"});
  const MpdProfile profile = ComputeMpdProfile(col);
  ASSERT_TRUE(profile.valid);
  EXPECT_EQ(profile.mpd, 1u);
  EXPECT_LE(profile.mpd_perturbed, 2u);
}

TEST(MpdProfileTest, NumericColumnsInvalid) {
  Column ints("c", {"1", "2", "3", "4"});
  EXPECT_FALSE(ComputeMpdProfile(ints).valid);
  Column dates("c", {"2015-04-01", "2015-05-26", "2015-06-02"});
  EXPECT_FALSE(ComputeMpdProfile(dates).valid);
}

TEST(MpdProfileTest, NeedsThreeDistinctValues) {
  Column col("c", {"abc", "abd", "abc", "abd"});
  EXPECT_FALSE(ComputeMpdProfile(col).valid);
}

TEST(MpdProfileTest, DistanceCapApplies) {
  Column col("c", {"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
                   "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbb",
                   "cccccccccccccccccccccccccccccc"});
  MpdOptions options;
  options.distance_cap = 5;
  const MpdProfile profile = ComputeMpdProfile(col, options);
  ASSERT_TRUE(profile.valid);
  EXPECT_EQ(profile.mpd, 6u);  // cap + 1 means "far"
}

TEST(MpdProfileTest, DiffTokenLengthLongVsShort) {
  Column long_tokens("c", {"Kevin Doeling", "Kevin Dowling", "Alan Myerson",
                           "Rob Morrow"});
  Column short_tokens("c", {"Super Bowl XXI", "Super Bowl XXII",
                            "Super Bowl XXV", "Super Bowl XL"});
  const MpdProfile lp = ComputeMpdProfile(long_tokens);
  const MpdProfile sp = ComputeMpdProfile(short_tokens);
  ASSERT_TRUE(lp.valid);
  ASSERT_TRUE(sp.valid);
  EXPECT_GT(lp.avg_diff_token_length, 5.0);  // "Doeling"/"Dowling"
  EXPECT_LT(sp.avg_diff_token_length, 5.0);  // "XXI"/"XXII"
}

// ---------------------------------------------------------------------------
// FD compliance ratio.

TEST(FrProfileTest, ExactFd) {
  Column lhs("city", {"London", "Paris", "London", "Paris"});
  Column rhs("country", {"UK", "France", "UK", "France"});
  const FrProfile profile = ComputeFrProfile(lhs, rhs);
  ASSERT_TRUE(profile.valid);
  EXPECT_DOUBLE_EQ(profile.fr, 1.0);
  EXPECT_TRUE(profile.violating_rows.empty());
  EXPECT_EQ(profile.violating_groups, 0u);
}

TEST(FrProfileTest, OneViolatingGroup) {
  Column lhs("city", {"London", "Paris", "London", "Berlin"});
  Column rhs("country", {"UK", "France", "England", "Germany"});
  const FrProfile profile = ComputeFrProfile(lhs, rhs);
  ASSERT_TRUE(profile.valid);
  // Distinct pairs: (London,UK), (London,England), (Paris,France),
  // (Berlin,Germany): 2 of 4 conform... the London group contributes two
  // conflicting pairs, so FR = 2/4.
  EXPECT_DOUBLE_EQ(profile.fr, 0.5);
  EXPECT_EQ(profile.violating_groups, 1u);
  // Majority tie resolved toward the first-seen rhs: row 2 is dropped.
  EXPECT_EQ(profile.violating_rows, (std::vector<size_t>{2}));
  EXPECT_DOUBLE_EQ(profile.fr_perturbed, 1.0);
}

TEST(FrProfileTest, MajorityRhsKept) {
  Column lhs("k", {"a", "a", "a", "b"});
  Column rhs("v", {"1", "2", "2", "9"});
  const FrProfile profile = ComputeFrProfile(lhs, rhs);
  ASSERT_TRUE(profile.valid);
  // "2" has majority support in group "a"; row 0 (value "1") is dropped.
  EXPECT_EQ(profile.violating_rows, (std::vector<size_t>{0}));
}

TEST(FrProfileTest, PaperFigure4cRatio) {
  // FR("ID" -> "Awardee") = 4/6 in the paper's example: 6 distinct pairs,
  // 4 in conforming groups. Reconstruct an equivalent shape.
  Column lhs("id", {"1", "2", "3", "3", "4", "5", "5"});
  Column rhs("awardee", {"A", "B", "C", "C2", "D", "E", "E2"});
  const FrProfile profile = ComputeFrProfile(lhs, rhs);
  ASSERT_TRUE(profile.valid);
  // Pairs: 1A 2B 3C 3C2 4D 5E 5E2 -> 7 distinct, 3 conforming (1A,2B,4D).
  EXPECT_NEAR(profile.fr, 3.0 / 7.0, 1e-12);
  EXPECT_EQ(profile.violating_groups, 2u);
}

TEST(FrProfileTest, ConstantLhsInvalid) {
  Column lhs("k", {"a", "a", "a"});
  Column rhs("v", {"1", "2", "3"});
  EXPECT_FALSE(ComputeFrProfile(lhs, rhs).valid);
}

TEST(FrProfileTest, EmptyCellsSkipped) {
  Column lhs("k", {"a", "", "a", "b"});
  Column rhs("v", {"1", "9", "2", "3"});
  const FrProfile profile = ComputeFrProfile(lhs, rhs);
  ASSERT_TRUE(profile.valid);
  EXPECT_EQ(profile.violating_groups, 1u);
}

TEST(FrProfileTest, ViolatingRowsSorted) {
  Column lhs("k", {"a", "b", "a", "b", "a"});
  Column rhs("v", {"1", "7", "2", "8", "1"});
  const FrProfile profile = ComputeFrProfile(lhs, rhs);
  ASSERT_TRUE(profile.valid);
  EXPECT_TRUE(std::is_sorted(profile.violating_rows.begin(),
                             profile.violating_rows.end()));
}

// ---------------------------------------------------------------------------
// Single-pass closest pair vs the three-scan reference.

void ExpectSameMpdProfile(const Column& column, const MpdOptions& options,
                          const std::string& context) {
  const MpdProfile fast = ComputeMpdProfile(column, options);
  const MpdProfile ref = ComputeMpdProfileReference(column, options);
  ASSERT_EQ(fast.valid, ref.valid) << context;
  if (!fast.valid) return;
  EXPECT_EQ(fast.mpd, ref.mpd) << context;
  EXPECT_EQ(fast.mpd_perturbed, ref.mpd_perturbed) << context;
  EXPECT_EQ(fast.row_a, ref.row_a) << context;
  EXPECT_EQ(fast.row_b, ref.row_b) << context;
  EXPECT_EQ(fast.value_a, ref.value_a) << context;
  EXPECT_EQ(fast.value_b, ref.value_b) << context;
  EXPECT_EQ(fast.drop_row, ref.drop_row) << context;
  EXPECT_DOUBLE_EQ(fast.avg_diff_token_length, ref.avg_diff_token_length)
      << context;
}

class MpdEquivalencePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MpdEquivalencePropertyTest, SinglePassMatchesThreeScans) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 3 + rng.NextBounded(40);
    std::vector<std::string> cells;
    const int flavor = static_cast<int>(rng.NextBounded(4));
    for (size_t i = 0; i < n; ++i) {
      switch (flavor) {
        case 0:  // random short strings, many near-collisions
          cells.push_back(rng.AlphaString(1 + rng.NextBounded(5)));
          break;
        case 1:  // equal-length ids (length-gap prefilter never fires)
          cells.push_back(rng.AlphaString(8));
          break;
        case 2: {  // clustered values: common prefix + small suffix edit
          std::string s = "prefix-" + rng.AlphaString(3);
          cells.push_back(std::move(s));
          break;
        }
        default:  // wide length spread, stresses the sorted-order break
          cells.push_back(rng.AlphaString(rng.NextBounded(30)));
          break;
      }
    }
    const Column column("c", cells);
    MpdOptions options;
    // Small caps exercise the cap+1 clamp paths; the default cap the
    // common ones.
    options.distance_cap = trial % 3 == 0 ? 2 : 20;
    ExpectSameMpdProfile(column, options,
                         "seed=" + std::to_string(GetParam()) +
                             " trial=" + std::to_string(trial));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MpdEquivalencePropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505));

TEST(MpdEquivalenceTest, AllPairsBeyondCap) {
  // No pair within the cap: both implementations must report the first
  // two distinct values with mpd = cap + 1.
  Column column("c", {"aaaaaaaa", "bbbbbbbb", "cccccccc", "dddddddd"});
  MpdOptions options;
  options.distance_cap = 3;
  ExpectSameMpdProfile(column, options, "beyond-cap");
  const MpdProfile fast = ComputeMpdProfile(column, options);
  ASSERT_TRUE(fast.valid);
  EXPECT_EQ(fast.mpd, 4u);
  EXPECT_EQ(fast.value_a, "aaaaaaaa");
  EXPECT_EQ(fast.value_b, "bbbbbbbb");
}

TEST(MpdEquivalenceTest, TieOnMinimumPicksFirstPair) {
  // Two distance-1 pairs; the reference's in-order scan reports the
  // lexicographically-first one.
  Column column("c", {"gamma", "gamme", "delto", "delta"});
  ExpectSameMpdProfile(column, MpdOptions{}, "ties");
  const MpdProfile fast = ComputeMpdProfile(column);
  ASSERT_TRUE(fast.valid);
  EXPECT_EQ(fast.mpd, 1u);
  EXPECT_EQ(fast.value_a, "gamma");
  EXPECT_EQ(fast.value_b, "gamme");
}

TEST(MpdEquivalenceTest, SimdPrefilterMatchesReferenceWithSimdOnAndOff) {
  // The chunked SIMD prefilter (util/simd.h MpdPrefilterMask) must leave
  // every profile field identical to the reference with the vector path
  // forced on and off — including dethrone-heavy columns (many
  // progressively closer pairs, which re-mask mid-chunk) and columns
  // larger than one 64-candidate chunk.
  Rng rng(0xE017);
  for (int trial = 0; trial < 12; ++trial) {
    const size_t n = 70 + rng.NextBounded(80);  // > one prefilter chunk
    std::vector<std::string> cells;
    for (size_t i = 0; i < n; ++i) {
      // Near-duplicates around a handful of stems create repeated
      // dethrones as the scan tightens the best distance.
      std::string s = "stem" + std::to_string(rng.NextBounded(6)) +
                      rng.AlphaString(1 + rng.NextBounded(6));
      if (rng.NextBounded(3) == 0) s[rng.NextBounded(s.size())] = 'q';
      cells.push_back(std::move(s));
    }
    const Column column("c", cells);
    MpdOptions options;
    options.distance_cap = trial % 2 == 0 ? 20 : 3;
    for (bool enabled : {true, false}) {
      simd::SetSimdEnabled(enabled);
      ExpectSameMpdProfile(column, options,
                           "trial=" + std::to_string(trial) +
                               " simd=" + std::to_string(enabled));
    }
    simd::SetSimdEnabled(true);
  }
}

TEST(MpdEquivalenceTest, LongStringsUseBandedFallback) {
  // Values longer than 64 chars leave the bit-parallel kernel's word
  // width and must fall back to the banded DP.
  const std::string base(70, 'x');
  std::string typo = base;
  typo[35] = 'y';
  Column column("c", {base + "a", typo + "a", base + "zzz", "short"});
  ExpectSameMpdProfile(column, MpdOptions{}, "long-strings");
  const MpdProfile fast = ComputeMpdProfile(column);
  ASSERT_TRUE(fast.valid);
  EXPECT_EQ(fast.mpd, 1u);
}

// ---------------------------------------------------------------------------
// Exact distance-1 fast path vs the three-scan reference. Each case runs
// with the SIMD prefilter on and off: when the fast path falls through,
// the scan must still agree.

void ExpectSameMpdProfileSimdOnOff(const Column& column,
                                   const MpdOptions& options,
                                   const std::string& context) {
  for (bool enabled : {true, false}) {
    simd::SetSimdEnabled(enabled);
    ExpectSameMpdProfile(column, options,
                         context + " simd=" + std::to_string(enabled));
  }
  simd::SetSimdEnabled(true);
}

TEST(MpdEquivalenceTest, DenseDistanceOnePairs) {
  // Stems with one-character substitutions, insertions and deletions:
  // many distance-1 pairs, often sharing endpoints.
  Rng rng(0xD151);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<std::string> stems;
    for (int s = 0; s < 4; ++s) stems.push_back(rng.AlphaString(3 + s));
    std::vector<std::string> cells;
    const size_t n = 3 + rng.NextBounded(60);
    for (size_t i = 0; i < n; ++i) {
      std::string v = stems[rng.NextBounded(stems.size())];
      const size_t pos = rng.NextBounded(v.size());
      switch (rng.NextBounded(4)) {
        case 0:
          v[pos] = static_cast<char>('a' + rng.NextBounded(3));
          break;
        case 1:
          v.insert(pos, 1, static_cast<char>('a' + rng.NextBounded(3)));
          break;
        case 2:
          v.erase(pos, 1);
          break;
        default:
          break;
      }
      cells.push_back(std::move(v));
    }
    MpdOptions options;
    options.distance_cap = trial % 3 == 0 ? 1 : 20;
    ExpectSameMpdProfileSimdOnOff(Column("c", cells), options,
                                  "trial=" + std::to_string(trial));
  }
}

TEST(MpdEquivalenceTest, DistanceOnePairsSharingEndpoints) {
  // (0,1), (0,2), (1,2) are all distance 1: every endpoint of the
  // closest pair (0,1) is avoided by another distance-1 pair.
  const Column column("c", {"abc", "abd", "abe", "zzzzzz"});
  ExpectSameMpdProfileSimdOnOff(column, MpdOptions{}, "shared");
  const MpdProfile fast = ComputeMpdProfile(column);
  ASSERT_TRUE(fast.valid);
  EXPECT_EQ(fast.mpd, 1u);
  EXPECT_EQ(fast.mpd_perturbed, 1u);
  EXPECT_EQ(fast.value_a, "abc");
  EXPECT_EQ(fast.value_b, "abd");
  EXPECT_EQ(fast.drop_row, fast.row_a);
}

TEST(MpdEquivalenceTest, StarGraphFallsThroughToScan) {
  // Every distance-1 pair touches the hub "cat"; the spokes are pairwise
  // distance 2, so dropping the hub leaves MPD 2: no shortcut applies.
  const Column column("c", {"cat", "bat", "cut", "cab", "cats"});
  ExpectSameMpdProfileSimdOnOff(column, MpdOptions{}, "star");
  const MpdProfile fast = ComputeMpdProfile(column);
  ASSERT_TRUE(fast.valid);
  EXPECT_EQ(fast.mpd, 1u);
  EXPECT_EQ(fast.mpd_perturbed, 2u);
  EXPECT_EQ(fast.drop_row, 0u);  // the hub
}

TEST(MpdEquivalenceTest, OneEndpointAvoidedFallsThroughToScan) {
  // Distance-1 pairs (cat,cut) and (cut,cub): a pair avoids "cat" but
  // none avoids "cut", so dropping "cut" leaves MPD 2.
  const Column column("c", {"cat", "cut", "cub", "dog"});
  ExpectSameMpdProfileSimdOnOff(column, MpdOptions{}, "one-sided");
  const MpdProfile fast = ComputeMpdProfile(column);
  ASSERT_TRUE(fast.valid);
  EXPECT_EQ(fast.mpd, 1u);
  EXPECT_EQ(fast.mpd_perturbed, 2u);
  EXPECT_EQ(fast.drop_row, 1u);
  EXPECT_EQ(fast.value_a, "cat");
  EXPECT_EQ(fast.value_b, "cut");
}

TEST(MpdEquivalenceTest, InsertionsAndRepeatedCharacters) {
  // Insertions at both ends and inside runs of equal characters, where
  // several deletions give the same variant; "ab"/"ba" collide on a
  // deletion variant but are at distance 2.
  const Column column("c",
                      {"aab", "ab", "aaab", "ba", "xaab", "aabx", "acb"});
  ExpectSameMpdProfileSimdOnOff(column, MpdOptions{}, "insertions");
  const Column swaps("c", {"ab", "ba", "xyzw", "wzyx"});
  ExpectSameMpdProfileSimdOnOff(swaps, MpdOptions{}, "swaps");
  EXPECT_EQ(ComputeMpdProfile(swaps).mpd, 2u);
}

TEST(MpdEquivalenceTest, DistanceCapZeroAndOne) {
  const Column column("c", {"abc", "abd", "abe", "xyz", "xyw"});
  for (size_t cap : {size_t{0}, size_t{1}}) {
    MpdOptions options;
    options.distance_cap = cap;
    ExpectSameMpdProfileSimdOnOff(column, options,
                                  "cap=" + std::to_string(cap));
  }
  const Column far("c", {"aaaa", "bbbb", "cccc", "abcd"});
  for (size_t cap : {size_t{0}, size_t{1}}) {
    MpdOptions options;
    options.distance_cap = cap;
    ExpectSameMpdProfileSimdOnOff(far, options,
                                  "far cap=" + std::to_string(cap));
  }
}

TEST(MpdEquivalenceTest, MaxValuesCutoffBoundsTheFastPath) {
  // The only distance-1 pairs involve values past the cutoff, or need a
  // value past it to avoid an endpoint.
  const Column column("c", {"alpha", "bravo", "charlie", "delta", "alphq",
                            "bravx", "deltq"});
  for (size_t max_values : {size_t{3}, size_t{4}, size_t{5}, size_t{6},
                            size_t{7}}) {
    MpdOptions options;
    options.max_values = max_values;
    ExpectSameMpdProfileSimdOnOff(
        column, options, "max_values=" + std::to_string(max_values));
  }
}

// ---------------------------------------------------------------------------
// Oracles at scale: 65-400 distinct values, so the scan spans several
// 64-candidate prefilter chunks and dethrones mid-chunk, with the SIMD
// prefilter on and off and caps 2 and 20. Each shape targets one of the
// scan's lower bounds or seeds.

// `count` distinct cells from `make`, in generation order.
template <typename Make>
std::vector<std::string> DistinctCells(size_t count, Make make) {
  std::vector<std::string> cells;
  std::set<std::string> seen;
  while (cells.size() < count) {
    std::string v = make();
    if (seen.insert(v).second) cells.push_back(std::move(v));
  }
  return cells;
}

void ExpectOracleAtScale(const std::vector<std::string>& cells,
                         const std::string& context) {
  const Column column("c", cells);
  ASSERT_TRUE(ComputeMpdProfileReference(column, MpdOptions{}).valid)
      << context;
  for (size_t cap : {size_t{2}, size_t{20}}) {
    MpdOptions options;
    options.distance_cap = cap;
    ExpectSameMpdProfileSimdOnOff(column, options,
                                  context + " cap=" + std::to_string(cap));
  }
}

// Copies `s` with `edits` random substitutions drawn from `alphabet`.
std::string Mutate(Rng& rng, std::string s, size_t edits,
                   const std::string& alphabet) {
  for (size_t e = 0; e < edits && !s.empty(); ++e) {
    s[rng.NextBounded(s.size())] = alphabet[rng.NextBounded(alphabet.size())];
  }
  return s;
}

TEST(MpdEquivalenceTest, FixedLengthCodesAtScale) {
  // AB123-456C7D8-style part numbers: one length, so the length gate
  // never fires and only the class and count gates prune. Seed 11 has
  // independent codes only (minimum around 5, like real part numbers);
  // the others add near copies two or more substitutions away.
  const std::string letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
  const std::string digits = "0123456789";
  for (uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    const size_t n = 65 + rng.NextBounded(336);
    const auto code = [&] {
      std::string s;
      for (const char shape : std::string("LLDDD-DDDLDLD")) {
        if (shape == '-') {
          s += '-';
        } else {
          const std::string& from = shape == 'L' ? letters : digits;
          s += from[rng.NextBounded(from.size())];
        }
      }
      return s;
    };
    std::vector<std::string> made;
    const std::vector<std::string> cells = DistinctCells(n, [&] {
      if (seed != 11 && !made.empty() && rng.NextBounded(8) == 0) {
        return Mutate(rng, rng.Pick(made), 2 + rng.NextBounded(5),
                      letters + digits);
      }
      made.push_back(code());
      return made.back();
    });
    ExpectOracleAtScale(cells, "codes seed=" + std::to_string(seed));
  }
}

TEST(MpdEquivalenceTest, FoldedByteClassesAtScale) {
  // Bytes that share a `c & 63` class ('@' and '\0', 'A' and 0x01, bytes
  // >= 128): the signature and count gates see one class where the edit
  // distance sees several.
  const std::string alphabet = std::string("@A\x01\xC0\xC1\x80xy", 8) +
                               std::string(1, '\0');
  for (uint64_t seed : {21u, 22u}) {
    Rng rng(seed);
    const size_t n = 65 + rng.NextBounded(200);
    const std::vector<std::string> cells = DistinctCells(n, [&] {
      std::string s = "k";  // never numeric, never all-blank
      const size_t len = 6 + rng.NextBounded(4);
      for (size_t t = 0; t < len; ++t) {
        s += alphabet[rng.NextBounded(alphabet.size())];
      }
      return s;
    });
    ExpectOracleAtScale(cells, "folded seed=" + std::to_string(seed));
  }
}

TEST(MpdEquivalenceTest, SaturatedRunsAtScale) {
  // Runs of more than 255 of one byte saturate its count, so the count
  // gate is weaker than the class gate on these pairs; run lengths step
  // by 3 and tails are 4 bytes, so most close pairs sit at 2 or more.
  const std::string tails = "abcdexyz";
  Rng rng(31);
  const std::vector<std::string> cells = DistinctCells(70, [&] {
    std::string s(300 + 3 * rng.NextBounded(10),
                  rng.NextBounded(2) ? 'x' : 'y');
    for (size_t t = 0; t < 4; ++t) s += tails[rng.NextBounded(tails.size())];
    return s;
  });
  ExpectOracleAtScale(cells, "saturated");
  // The closest pair straddles 256 copies of one byte, where a count
  // that wrapped instead of saturating would read 0 against 254.
  std::vector<std::string> straddle = {std::string(254, 'x') + "ab",
                                       std::string(256, 'x') + "ab"};
  while (straddle.size() < 68) straddle.push_back("far" + rng.AlphaString(12));
  ExpectOracleAtScale(straddle, "straddle");
}

TEST(MpdEquivalenceTest, LongValuesAtScale) {
  // Values longer than 64 bytes take the banded path as the probe value;
  // short ones mixed in keep the bit-parallel probe next to them.
  const std::string alphabet = "abcdefgh ";
  Rng rng(41);
  std::vector<std::string> stems;
  for (int s = 0; s < 8; ++s) {
    std::string stem;
    for (size_t t = 0; t < 60 + rng.NextBounded(30); ++t) {
      stem += alphabet[rng.NextBounded(alphabet.size())];
    }
    stems.push_back(std::move(stem));
  }
  const std::vector<std::string> cells = DistinctCells(90, [&] {
    if (rng.NextBounded(5) == 0) return "v" + rng.AlphaString(5);
    return Mutate(rng, rng.Pick(stems), 3 + rng.NextBounded(3), alphabet);
  });
  ExpectOracleAtScale(cells, "long");
}

TEST(MpdEquivalenceTest, StarDistanceOneAtScale) {
  // Every distance-1 pair touches one hub (spokes substitute different
  // positions, so they are pairwise distance 2): the scan starts from
  // the distance-1 pairs with one endpoint never avoided. A second trial
  // adds a second hub, where both endpoints are avoided and no scan runs.
  for (int hubs : {1, 2}) {
    Rng rng(51 + static_cast<uint64_t>(hubs));
    std::vector<std::string> cells;
    std::set<std::string> seen;
    for (int h = 0; h < hubs; ++h) {
      const std::string hub = "hub" + std::to_string(h) + "-" +
                              rng.AlphaString(9);
      seen.insert(hub);
      cells.push_back(hub);
      for (size_t k = 4; k < hub.size(); ++k) {
        std::string spoke = hub;
        spoke[k] = '#';
        if (seen.insert(spoke).second) cells.push_back(spoke);
      }
    }
    while (cells.size() < 150) {
      std::string filler = "f" + rng.AlphaString(13);
      if (seen.insert(filler).second) cells.push_back(std::move(filler));
    }
    rng.Shuffle(cells);
    ExpectOracleAtScale(cells, "star hubs=" + std::to_string(hubs));
  }
}

}  // namespace
}  // namespace unidetect
