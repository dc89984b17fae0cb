#include "corpus/token_index.h"

#include <gtest/gtest.h>

#include "learn/model.h"
#include "model_format/model_snapshot.h"

namespace unidetect {
namespace {

Table MakeTable(const std::string& name,
                std::vector<std::vector<std::string>> columns) {
  Table table(name);
  for (size_t i = 0; i < columns.size(); ++i) {
    EXPECT_TRUE(
        table.AddColumn(Column("c" + std::to_string(i), columns[i])).ok());
  }
  return table;
}

TEST(TokenIndexTest, CountsTablesNotOccurrences) {
  TokenIndex index;
  // "london" appears twice in one table: counts once.
  index.AddTable(MakeTable("t1", {{"London", "London", "Paris"}}));
  index.AddTable(MakeTable("t2", {{"London"}}));
  EXPECT_EQ(index.num_tables(), 2u);
  EXPECT_EQ(index.TableCount("london"), 2u);
  EXPECT_EQ(index.TableCount("paris"), 1u);
  EXPECT_EQ(index.TableCount("berlin"), 0u);
}

TEST(TokenIndexTest, CaseFolded) {
  TokenIndex index;
  index.AddTable(MakeTable("t", {{"LONDON"}}));
  EXPECT_EQ(index.TableCount("London"), 1u);
  EXPECT_EQ(index.TableCount("london"), 1u);
}

TEST(TokenIndexTest, MultiTokenCells) {
  TokenIndex index;
  index.AddTable(MakeTable("t", {{"Keane, Mr. Andrew"}}));
  EXPECT_EQ(index.TableCount("keane"), 1u);
  EXPECT_EQ(index.TableCount("mr."), 1u);
  EXPECT_EQ(index.TableCount("andrew"), 1u);
}

TEST(TokenIndexTest, AveragePrevalence) {
  TokenIndex index;
  for (int i = 0; i < 10; ++i) {
    index.AddTable(MakeTable("t", {{"common"}}));
  }
  index.AddTable(MakeTable("t", {{"rare"}}));
  // A column of one "common" (11 occurrences... 10 tables) and one "rare".
  Column col("c", {"common", "rare"});
  // common counts 10, rare counts 1 -> average (10 + 1) / 2.
  EXPECT_NEAR(index.AveragePrevalence(col), 5.5, 1e-12);
  // Empty columns yield zero.
  Column empty("c", {"", " "});
  EXPECT_DOUBLE_EQ(index.AveragePrevalence(empty), 0.0);
}

TEST(TokenIndexTest, MergeAddsCounts) {
  TokenIndex a;
  TokenIndex b;
  a.AddTable(MakeTable("t", {{"x"}}));
  b.AddTable(MakeTable("t", {{"x", "y"}}));
  a.Merge(b);
  EXPECT_EQ(a.num_tables(), 2u);
  EXPECT_EQ(a.TableCount("x"), 2u);
  EXPECT_EQ(a.TableCount("y"), 1u);
}

// The index persists inside the model snapshot (the v2 pool-ref token
// section): table totals and per-token counts survive exactly.
TEST(TokenIndexTest, SerializationRoundTrip) {
  Model model;
  model.mutable_token_index()->AddTable(
      MakeTable("t", {{"alpha beta", "gamma"}}));
  model.mutable_token_index()->AddTable(MakeTable("t", {{"alpha"}}));
  model.Finalize();
  auto restored = DecodeModelSnapshot(EncodeModelSnapshot(model));
  ASSERT_TRUE(restored.ok()) << restored.status();
  const TokenIndex& index = restored->token_index();
  EXPECT_EQ(index.num_tables(), 2u);
  EXPECT_EQ(index.TableCount("alpha"), 2u);
  EXPECT_EQ(index.TableCount("beta"), 1u);
  EXPECT_EQ(index.num_tokens(), model.token_index().num_tokens());
}

TEST(TokenIndexTest, ForEachTokenVisitsAll) {
  TokenIndex index;
  index.AddTable(MakeTable("t", {{"a b c"}}));
  size_t visited = 0;
  index.ForEachToken([&](std::string_view, uint64_t count) {
    ++visited;
    EXPECT_EQ(count, 1u);
  });
  EXPECT_EQ(visited, 3u);
}

}  // namespace
}  // namespace unidetect
