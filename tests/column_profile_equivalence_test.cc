// Equivalence of the one-pass column profile with the per-cell rules:
//
//   value   ProfileTrimmedValue (one byte-class scan, exact fallback) vs
//           ClassifyValue and ParseNumeric of the same value;
//   column  type() folded over Encoding().types, and NumericValues(),
//           NumericRows(), NumericFraction() gathered from the ids, vs
//           ClassifyValue per cell with the 0.8/0.5 ladder and Trim plus
//           ParseNumeric per row.
//
// Numbers are compared bit for bit, so a -0.0 or a rounding difference
// shows.

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "corpus/generator.h"
#include "table/column.h"
#include "table/types.h"
#include "util/random.h"
#include "util/string_util.h"

namespace unidetect {
namespace {

struct ReferenceProfile {
  ColumnType type = ColumnType::kUnknown;
  std::vector<double> values;
  std::vector<size_t> rows;
  double fraction = 0.0;
};

// The per-cell computation the column caches replaced.
ReferenceProfile Reference(const std::vector<std::string>& cells) {
  ReferenceProfile ref;
  std::array<size_t, 6> counts{};
  size_t non_empty = 0;
  for (const auto& cell : cells) {
    const ValueType vt = ClassifyValue(cell);
    counts[static_cast<size_t>(vt)]++;
    if (vt != ValueType::kEmpty) ++non_empty;
  }
  if (non_empty > 0) {
    const size_t n_int = counts[static_cast<size_t>(ValueType::kInteger)];
    const size_t n_float = counts[static_cast<size_t>(ValueType::kFloat)];
    const size_t n_date = counts[static_cast<size_t>(ValueType::kDate)];
    const size_t n_mixed = counts[static_cast<size_t>(ValueType::kMixedAlnum)];
    const double denom = static_cast<double>(non_empty);
    if (n_date / denom > 0.8) {
      ref.type = ColumnType::kDate;
    } else if ((n_int + n_float) / denom > 0.8) {
      ref.type = n_float > 0 ? ColumnType::kFloat : ColumnType::kInteger;
    } else if ((n_mixed + n_int + n_float + n_date) / denom > 0.5 &&
               n_mixed > 0) {
      ref.type = ColumnType::kMixedAlnum;
    } else {
      ref.type = ColumnType::kString;
    }
  }
  size_t parsed_non_empty = 0;
  for (size_t row = 0; row < cells.size(); ++row) {
    if (Trim(cells[row]).empty()) continue;
    ++parsed_non_empty;
    if (auto v = ParseNumeric(cells[row])) {
      ref.values.push_back(*v);
      ref.rows.push_back(row);
    }
  }
  if (parsed_non_empty > 0) {
    ref.fraction = static_cast<double>(ref.values.size()) /
                   static_cast<double>(parsed_non_empty);
  }
  return ref;
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits;
  bits.reserve(values.size());
  for (double v : values) bits.push_back(std::bit_cast<uint64_t>(v));
  return bits;
}

void ExpectValueMatches(std::string_view cell) {
  const ValueProfile profile = ProfileTrimmedValue(Trim(cell));
  EXPECT_EQ(profile.type, ClassifyValue(cell))
      << "cell \"" << cell << "\" (" << cell.size() << " bytes)";
  const std::optional<double> parsed = ParseNumeric(cell);
  if (parsed) {
    EXPECT_EQ(std::bit_cast<uint64_t>(profile.number),
              std::bit_cast<uint64_t>(*parsed))
        << "cell \"" << cell << "\"";
  } else {
    EXPECT_TRUE(std::isnan(profile.number)) << "cell \"" << cell << "\"";
  }
}

// Checks every accessor against the per-cell reference, reading them in
// the given order so that each one in turn makes the first read.
void ExpectColumnMatches(const Column& column, int first_read = 0) {
  const ReferenceProfile ref = Reference(column.cells());
  switch (first_read % 3) {
    case 0:
      (void)column.type();
      break;
    case 1:
      (void)column.NumericValues();
      break;
    default:
      (void)column.NumericFraction();
      break;
  }
  EXPECT_EQ(column.type(), ref.type) << column.name();
  EXPECT_EQ(Bits(column.NumericValues()), Bits(ref.values)) << column.name();
  EXPECT_EQ(column.NumericRows(), ref.rows) << column.name();
  EXPECT_EQ(column.NumericFraction(), ref.fraction) << column.name();
  const ColumnEncoding& enc = column.Encoding();
  ASSERT_EQ(enc.types.size(), enc.num_distinct());
  ASSERT_TRUE(enc.numbers.empty() || enc.numbers.size() == enc.num_distinct());
  for (uint32_t id = 0; id < enc.num_distinct(); ++id) {
    EXPECT_EQ(enc.types[id], ClassifyValue(column.EncodedValue(id)));
  }
  EXPECT_EQ(column.NumDistinct(), enc.num_distinct());
}

// Values that probe each byte class and each exact rule, one edge each.
std::vector<std::string> HostileValues() {
  std::vector<std::string> v = {
      "", " ", "\t\v\f\r\n ", "+", "-", ".", ",", "%", "e", "E",
      ",5", "5,", "1,,2", "1,234", "-1,234", "+1,234", "1,234.5", "12%",
      " 7 %", "7 %%", "%7", "1 2", "1e5", "1E-3", "e5", "5e", "1e", "1e+",
      "-1e-3%", "+.5", "-.5", ".5", "5.", "-0", "+0", "-0.0", "0", "00",
      "007", "+-1", "--1", "1-", "nan", "NaN", "inf", "-inf", "Infinity",
      "nan(1)", "1e400", "-1e400", "1e-400", "0x1F", "0X1f", "1_000",
      "2020-1-1", "1/2/2020", "2020/01/05", "2020-01-05-1", "2020-1-1 ",
      "1-2-3", "12-12-2020", "20201-1-1", "-2020-1-1", "2020--1",
      "2020-1/1", "2020-+1-1", "1/2", "1/2/3/2020", "A12", "12a", "a-1",
      "KV214-310B8K2", "London", "H-O", "e-5", "E5e5", "1.2.3", "1..2",
      "3.14", "43.2%", "61,044", "999999999999999", "1000000000000000",
      "9007199254740993", "-9007199254740993", "123456789012345678901",
      "18446744073709551616", "99999999999999999999", "0000000000000001",
      "\xC3\xA9", "caf\xC3\xA9 12", "12\xA0", "\xFF" "1", "1\xA0%",
      "\x80\x81", "#1", "(1)", "$5", "1;2", "1\\2", "1\x7f", "(1e5)", "1e5#",
      std::string("1\0" "2", 3), std::string("\0", 1), std::string("7\0", 2),
      std::string(4096, '7'), std::string(4096, 'a'),
      std::string(4095, '0') + "1", std::string(4094, '1') + ".5",
      "1" + std::string(4094, ' ') + "%", std::string(2048, '1') + "e-2048",
      std::string(4096, ','), std::string(1000, '1') + "/1/2020",
  };
  return v;
}

TEST(ColumnProfileEquivalenceTest, HostileValuesMatchPerValueRules) {
  for (const std::string& value : HostileValues()) {
    ExpectValueMatches(value);
    ExpectValueMatches(" " + value + "\t");
  }
}

// Random values over the bytes that reach the exact fallback, plus a
// letter and a pad now and then.
TEST(ColumnProfileEquivalenceTest, RandomNumericAlphabetMatchesPerValueRules) {
  static constexpr std::string_view kAlphabet = "0123456789+-.,/%eE  x\t";
  Rng rng(1515);
  for (int i = 0; i < 200000; ++i) {
    std::string value;
    const size_t len = 1 + rng.NextBounded(i % 4 == 0 ? 24 : 8);
    for (size_t k = 0; k < len; ++k) {
      // Digits half of the time, so the numeric shapes are common.
      value.push_back(rng.NextBounded(2) == 0
                          ? static_cast<char>('0' + rng.NextBounded(10))
                          : kAlphabet[rng.NextBounded(kAlphabet.size())]);
    }
    ExpectValueMatches(value);
    if (HasFailure()) break;
  }
}

TEST(ColumnProfileEquivalenceTest, HostileColumnsMatchReference) {
  const std::vector<std::string> hostile = HostileValues();
  ExpectColumnMatches(Column("all", hostile));
  // Each hostile value dominating, or sitting in, a numeric column moves
  // the column across the ladder's 0.8 and 0.5 thresholds.
  int k = 0;
  for (const std::string& value : hostile) {
    for (size_t copies : {1, 2, 5, 9}) {
      std::vector<std::string> cells(copies, value);
      cells.insert(cells.begin(), {"1", " 2", "3.5", ""});
      ExpectColumnMatches(Column("mixed", cells), k++);
      std::vector<std::string> dates(copies, value);
      for (int d = 0; d < 5; ++d) dates.push_back("2020-01-0" + std::to_string(d + 1));
      ExpectColumnMatches(Column("dates", dates), k++);
      std::vector<std::string> codes(copies, value);
      for (int d = 0; d < 3; ++d) codes.push_back("AB" + std::to_string(d));
      ExpectColumnMatches(Column("codes", codes), k++);
    }
  }
  ExpectColumnMatches(Column("empty", {}));
  ExpectColumnMatches(Column("blank", {"", " ", "\t"}));
}

TEST(ColumnProfileEquivalenceTest, GeneratorArchetypesMatchReference) {
  int k = 0;
  for (uint64_t seed : {3, 17, 1515}) {
    Rng rng(seed);
    for (int a = 0; a < kNumArchetypes; ++a) {
      for (size_t rows : {5, 60, 400}) {
        const AnnotatedTable t =
            GenerateTable(static_cast<Archetype>(a), rows, rng);
        for (size_t c = 0; c < t.table.num_columns(); ++c) {
          const Column& source = t.table.column(c);
          ExpectColumnMatches(Column(source.name(), source.cells()), k++);
        }
      }
    }
  }
}

TEST(ColumnProfileEquivalenceTest, SetCellAndAppendInvalidate) {
  Column col("c", {"1", "2", "3", "4", "5"});
  EXPECT_EQ(col.type(), ColumnType::kInteger);
  EXPECT_EQ(col.NumericValues().size(), 5u);
  col.SetCell(0, "1.5");
  ExpectColumnMatches(col);
  EXPECT_EQ(col.type(), ColumnType::kFloat);
  col.SetCell(1, "abc");
  col.SetCell(2, "x1");
  ExpectColumnMatches(col);
  EXPECT_EQ(col.type(), ColumnType::kMixedAlnum);
  col.Append("2020-01-01");
  ExpectColumnMatches(col);
  col.Append(" 7 %");
  ExpectColumnMatches(col);
  EXPECT_EQ(col.NumericRows().back(), 6u);
  col.SetCell(6, "");
  ExpectColumnMatches(col);
  // A numeric-free column after a numeric one: the per-id numbers go.
  for (size_t row = 0; row < col.size(); ++row) col.SetCell(row, "text");
  ExpectColumnMatches(col);
  EXPECT_TRUE(col.NumericValues().empty());
  EXPECT_TRUE(col.Encoding().numbers.empty());
}

TEST(ColumnProfileEquivalenceTest, ReleaseCachesRebuildsTheSameProfile) {
  Column col("c", {"1", "1,234", "-0", "x", "", "2.5%", "1"});
  ExpectColumnMatches(col);
  const std::vector<double> before = col.NumericValues();
  col.ReleaseCaches();
  ExpectColumnMatches(col, 1);
  EXPECT_EQ(Bits(col.NumericValues()), Bits(before));
  col.ReleaseCaches();
  ExpectColumnMatches(col, 2);
}

TEST(ColumnProfileEquivalenceTest, CopyAndMoveAfterFirstRead) {
  auto source = std::make_unique<Column>(
      "c", std::vector<std::string>{"1", "2.5", " 1", "x", "", "3", "-0"});
  ASSERT_EQ(source->type(), ColumnType::kFloat);
  ASSERT_EQ(source->NumericValues().size(), 5u);  // warm both caches
  Column copied = *source;
  auto moved_from = std::make_unique<Column>(*source);
  Column moved = std::move(*moved_from);
  const ReferenceProfile ref = Reference(source->cells());
  source.reset();
  moved_from.reset();
  for (const Column* col : {&copied, &moved}) {
    EXPECT_EQ(col->type(), ref.type);
    EXPECT_EQ(Bits(col->NumericValues()), Bits(ref.values));
    EXPECT_EQ(col->NumericRows(), ref.rows);
    EXPECT_EQ(col->NumericFraction(), ref.fraction);
  }
  // A mutated copy rebuilds; the other keeps its profile.
  copied.SetCell(3, "4");
  ExpectColumnMatches(copied);
  EXPECT_EQ(copied.NumericValues().size(), 6u);
  EXPECT_EQ(moved.NumericValues().size(), 5u);
}

}  // namespace
}  // namespace unidetect
