// Equivalence of the encoded metric kernels with string-keyed oracles:
//
//   FR    ComputeFrProfile (integer group-by over Column::Encoding) vs
//         ComputeFrProfileReference (nested string hash maps);
//   UR    ComputeUrProfile vs the string-keyed loop it replaced;
//   Prev  TokenPrevalence::AveragePrevalence (one tokenization per
//         distinct raw cell) vs the per-row loop it replaced, bit for bit.
//
// Partial perturbations run under a RowMask; they are checked against
// the same metric on Column::WithoutRows copies, with row indices of the
// reduced column mapped back to the original rows.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "corpus/token_index.h"
#include "metrics/metric_functions.h"
#include "table/table.h"
#include "util/random.h"
#include "util/string_util.h"

namespace unidetect {
namespace {

// Cells that collide or not under Trim: empty and whitespace-only cells,
// values padded with spaces, tabs, \v and \f, and case variants.
std::string RandomCell(Rng* rng, size_t alphabet) {
  static const char* const kPads[] = {"", " ", "\t", "\v", "\f", "  "};
  switch (rng->NextBounded(10)) {
    case 0:
      return "";
    case 1:
      return kPads[1 + rng->NextBounded(5)];
    default: {
      std::string value(1, static_cast<char>('a' + rng->NextBounded(alphabet)));
      if (rng->NextBounded(4) == 0) value[0] = static_cast<char>(value[0] - 32);
      if (rng->NextBounded(3) == 0) value += "x";
      return kPads[rng->NextBounded(6)] + value + kPads[rng->NextBounded(6)];
    }
  }
}

std::vector<std::string> RandomCells(Rng* rng, size_t n, size_t alphabet) {
  std::vector<std::string> cells;
  cells.reserve(n);
  for (size_t i = 0; i < n; ++i) cells.push_back(RandomCell(rng, alphabet));
  return cells;
}

// Rows of the original column that survive dropping `dropped`, in order:
// row k of the reduced column is kept[k].
std::vector<size_t> KeptRows(size_t n, const std::vector<size_t>& dropped) {
  const RowMask mask = MakeRowMask(n, dropped);
  std::vector<size_t> kept;
  for (size_t row = 0; row < n; ++row) {
    if (!mask[row]) kept.push_back(row);
  }
  return kept;
}

std::vector<size_t> MapRows(const std::vector<size_t>& rows,
                            const std::vector<size_t>& kept) {
  std::vector<size_t> out;
  out.reserve(rows.size());
  for (size_t row : rows) out.push_back(kept[row]);
  return out;
}

std::vector<size_t> RandomRows(Rng* rng, size_t n) {
  std::vector<size_t> rows;
  const size_t count = rng->NextBounded(n / 2 + 2);
  // Out-of-range rows are ignored by both WithoutRows and MakeRowMask.
  for (size_t i = 0; i < count; ++i) rows.push_back(rng->NextBounded(n + 3));
  return rows;
}

// ---------------------------------------------------------------------------
// FR.

void ExpectSameFr(const FrProfile& got, const FrProfile& want,
                  const std::string& context) {
  ASSERT_EQ(got.valid, want.valid) << context;
  if (!got.valid) return;
  EXPECT_EQ(got.fr, want.fr) << context;
  EXPECT_EQ(got.fr_perturbed, want.fr_perturbed) << context;
  EXPECT_EQ(got.violating_rows, want.violating_rows) << context;
  EXPECT_EQ(got.violating_groups, want.violating_groups) << context;
}

class FrEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FrEquivalenceTest, EncodedGroupByMatchesReference) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 1 + rng.NextBounded(60);
    // Unequal lengths in a third of the trials (only the common prefix
    // of rows takes part).
    const size_t m = trial % 3 == 0 ? 1 + rng.NextBounded(60) : n;
    // A one-letter lhs alphabet yields single-group (invalid) pairs.
    const size_t lhs_alphabet = trial % 7 == 0 ? 1 : 2 + rng.NextBounded(6);
    const Column lhs("l", RandomCells(&rng, n, lhs_alphabet));
    const Column rhs("r", RandomCells(&rng, m, 1 + rng.NextBounded(4)));
    const std::string context = "seed=" + std::to_string(GetParam()) +
                                " trial=" + std::to_string(trial);
    ExpectSameFr(ComputeFrProfile(lhs, rhs),
                 ComputeFrProfileReference(lhs, rhs), context);
    ExpectSameFr(ComputeFrProfile(rhs, lhs),
                 ComputeFrProfileReference(rhs, lhs), context + " swapped");
  }
}

TEST_P(FrEquivalenceTest, RowMaskMatchesWithoutRows) {
  Rng rng(GetParam() ^ 0xF00D);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 1 + rng.NextBounded(50);
    const Column lhs("l", RandomCells(&rng, n, 2 + rng.NextBounded(5)));
    const Column rhs("r", RandomCells(&rng, n, 1 + rng.NextBounded(4)));
    const std::vector<size_t> dropped = RandomRows(&rng, n);
    const std::string context = "seed=" + std::to_string(GetParam()) +
                                " trial=" + std::to_string(trial);

    const FrProfile masked =
        ComputeFrProfile(lhs, rhs, MakeRowMask(n, dropped));
    FrProfile want = ComputeFrProfileReference(lhs.WithoutRows(dropped),
                                               rhs.WithoutRows(dropped));
    want.violating_rows = MapRows(want.violating_rows, KeptRows(n, dropped));
    ExpectSameFr(masked, want, context);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrEquivalenceTest,
                         ::testing::Values(11, 22, 33, 44, 55));

TEST(FrEquivalenceTest, PaddingAndWhitespaceCells) {
  // "a", " a", "a\v" and "\fa" are one lhs value after Trim; whitespace-
  // only cells are empty and skip their row.
  const Column lhs("l", {"a", " a", "a\v", "\fa", "b", "\t", "b", " "});
  const Column rhs("r", {"x", "x ", "y", "x", "z", "q", "\vz", "w"});
  ExpectSameFr(ComputeFrProfile(lhs, rhs), ComputeFrProfileReference(lhs, rhs),
               "padding");
  const FrProfile profile = ComputeFrProfile(lhs, rhs);
  ASSERT_TRUE(profile.valid);
  EXPECT_EQ(profile.violating_groups, 1u);
  EXPECT_EQ(profile.violating_rows, (std::vector<size_t>{2}));
}

TEST(FrEquivalenceTest, MajorityTieKeepsFirstRow) {
  // Group "a" holds rhs "2" (rows 1, 3) and "1" (rows 2, 4): a tie,
  // broken toward "2", which appears first.
  const Column lhs("l", {"b", "a", "a", "a", "a", "b"});
  const Column rhs("r", {"9", "2", "1", "2", "1", "9"});
  const FrProfile profile = ComputeFrProfile(lhs, rhs);
  ExpectSameFr(profile, ComputeFrProfileReference(lhs, rhs), "tie");
  EXPECT_EQ(profile.violating_rows, (std::vector<size_t>{2, 4}));
}

TEST(FrEquivalenceTest, SingleGroupAndEmptyInputsInvalid) {
  const Column one("l", {"a", " a", "a\f", ""});
  const Column rhs("r", {"1", "2", "3", "4"});
  EXPECT_FALSE(ComputeFrProfile(one, rhs).valid);
  EXPECT_FALSE(ComputeFrProfileReference(one, rhs).valid);
  const Column none("l", {});
  EXPECT_FALSE(ComputeFrProfile(none, rhs).valid);
  EXPECT_FALSE(ComputeFrProfile(rhs, Column("r", {"", " ", "\t", "\v"})).valid);
}

// ---------------------------------------------------------------------------
// UR.

// The string-keyed UR loop the encoded kernel replaced.
UrProfile ReferenceUrProfile(const Column& column) {
  UrProfile out;
  std::unordered_map<std::string_view, size_t> first_row;
  size_t total = 0;
  for (size_t row = 0; row < column.size(); ++row) {
    std::string_view cell = Trim(column.cell(row));
    if (cell.empty()) continue;
    ++total;
    auto [it, inserted] = first_row.emplace(cell, row);
    if (!inserted) out.duplicate_rows.push_back(row);
  }
  if (total == 0) return out;
  out.valid = true;
  const double distinct = static_cast<double>(first_row.size());
  out.ur = distinct / static_cast<double>(total);
  const double remaining =
      static_cast<double>(total - out.duplicate_rows.size());
  out.ur_perturbed = remaining > 0 ? distinct / remaining : 1.0;
  return out;
}

void ExpectSameUr(const UrProfile& got, const UrProfile& want,
                  const std::string& context) {
  ASSERT_EQ(got.valid, want.valid) << context;
  if (!got.valid) return;
  EXPECT_EQ(got.ur, want.ur) << context;
  EXPECT_EQ(got.ur_perturbed, want.ur_perturbed) << context;
  EXPECT_EQ(got.duplicate_rows, want.duplicate_rows) << context;
}

class UrEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UrEquivalenceTest, EncodedMatchesReference) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 80; ++trial) {
    const size_t n = rng.NextBounded(70);
    const Column column("c", RandomCells(&rng, n, 1 + rng.NextBounded(26)));
    const std::string context = "seed=" + std::to_string(GetParam()) +
                                " trial=" + std::to_string(trial);
    ExpectSameUr(ComputeUrProfile(column), ReferenceUrProfile(column),
                 context);

    const std::vector<size_t> dropped = RandomRows(&rng, n);
    UrProfile want = ReferenceUrProfile(column.WithoutRows(dropped));
    want.duplicate_rows = MapRows(want.duplicate_rows, KeptRows(n, dropped));
    ExpectSameUr(ComputeUrProfile(column, MakeRowMask(n, dropped)), want,
                 context + " masked");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UrEquivalenceTest,
                         ::testing::Values(7, 77, 777));

// ---------------------------------------------------------------------------
// Token prevalence.

// The per-row loop the memoized AveragePrevalence replaced.
double ReferenceAveragePrevalence(const TokenPrevalence& index,
                                  const Column& column) {
  double sum = 0.0;
  size_t cells = 0;
  for (const auto& cell : column.cells()) {
    auto tokens = TokenizeCell(cell);
    if (tokens.empty()) continue;
    double cell_sum = 0.0;
    for (const auto& token : tokens) {
      cell_sum += static_cast<double>(index.TableCount(token));
    }
    sum += cell_sum / static_cast<double>(tokens.size());
    ++cells;
  }
  return cells > 0 ? sum / static_cast<double>(cells) : 0.0;
}

void ExpectBitIdentical(double got, double want, const std::string& context) {
  uint64_t got_bits = 0;
  uint64_t want_bits = 0;
  std::memcpy(&got_bits, &got, sizeof(got));
  std::memcpy(&want_bits, &want, sizeof(want));
  EXPECT_EQ(got_bits, want_bits) << context << ": " << got << " vs " << want;
}

TokenIndex IndexOf(Rng* rng, size_t tables) {
  TokenIndex index;
  for (size_t t = 0; t < tables; ++t) {
    Table table("t");
    std::vector<std::string> cells;
    for (size_t i = 0; i < 6; ++i) {
      cells.push_back(RandomCell(rng, 8) + " " + RandomCell(rng, 8));
    }
    EXPECT_TRUE(table.AddColumn(Column("c", std::move(cells))).ok());
    index.AddTable(table);
  }
  return index;
}

TEST(PrevalenceEquivalenceTest, MemoIsBitIdenticalToPerRowLoop) {
  Rng rng(0x9E7);
  const TokenIndex base = IndexOf(&rng, 40);
  const TokenIndex delta = IndexOf(&rng, 15);
  const TokenPrevalence single(base);
  const TokenPrevalence layered(std::vector<const TokenIndex*>{&base, &delta});
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<std::string> cells;
    const size_t n = rng.NextBounded(40);
    for (size_t i = 0; i < n; ++i) {
      // Multi-token cells, repeated often, in varying case and padding:
      // "\va" and "a" are one trimmed value but different tokens.
      std::string cell = RandomCell(&rng, 6);
      if (rng.NextBounded(2) == 0) cell += " " + RandomCell(&rng, 6);
      cells.push_back(std::move(cell));
    }
    const Column column("c", cells);
    const std::string context = "trial=" + std::to_string(trial);
    ExpectBitIdentical(single.AveragePrevalence(column),
                       ReferenceAveragePrevalence(single, column), context);
    ExpectBitIdentical(layered.AveragePrevalence(column),
                       ReferenceAveragePrevalence(layered, column),
                       context + " layered");
  }
}

TEST(PrevalenceEquivalenceTest, VerticalTabAndFormFeedStayInTokens) {
  // Trim strips \v and \f, but the tokenizer keeps them inside the
  // token: "\vParis" is an unseen token while "Paris" and "PARIS" are not.
  TokenIndex index;
  Table table("t");
  ASSERT_TRUE(table.AddColumn(Column("c", {"paris"})).ok());
  index.AddTable(table);
  const Column column("c", {"Paris", "\vParis", "PARIS", "Paris\f", "Paris"});
  const double got = index.AveragePrevalence(column);
  ExpectBitIdentical(got, ReferenceAveragePrevalence(index, column), "vf");
  EXPECT_DOUBLE_EQ(got, 3.0 / 5.0);
}

}  // namespace
}  // namespace unidetect
