#include "table/column.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <functional>
#include <limits>

#include "util/logging.h"
#include "util/string_util.h"

namespace unidetect {

namespace {
constexpr double kNoNumber = std::numeric_limits<double>::quiet_NaN();
}  // namespace

void Column::SetCell(size_t row, std::string value) {
  cells_[row] = std::move(value);
  InvalidateCaches();
}

void Column::Append(std::string value) {
  cells_.push_back(std::move(value));
  InvalidateCaches();
}

void Column::InvalidateCaches() const {
  numeric_cached_ = false;
  encoding_cached_ = false;
}

void Column::ReleaseCaches() const {
  InvalidateCaches();
  numeric_values_ = {};
  numeric_rows_ = {};
  encoding_ = {};
}

ColumnType Column::type() const {
  Encoding();
  return type_;
}

void Column::FoldType() const {
  const ColumnEncoding& enc = encoding_;
  std::array<size_t, 6> counts{};
  for (size_t id = 0; id < enc.num_distinct(); ++id) {
    counts[static_cast<size_t>(enc.types[id])] += enc.counts[id];
  }
  ColumnType result = ColumnType::kUnknown;
  if (enc.non_empty > 0) {
    const size_t n_int = counts[static_cast<size_t>(ValueType::kInteger)];
    const size_t n_float = counts[static_cast<size_t>(ValueType::kFloat)];
    const size_t n_date = counts[static_cast<size_t>(ValueType::kDate)];
    const size_t n_mixed = counts[static_cast<size_t>(ValueType::kMixedAlnum)];
    // Generalization ladder: a column is numeric only if numbers strongly
    // dominate; a few stray strings in a numeric column (headers leaked
    // into data, "Unknown" markers) should not flip the type, but a
    // genuinely mixed column is kString/kMixedAlnum.
    const double denom = static_cast<double>(enc.non_empty);
    if (n_date / denom > 0.8) {
      result = ColumnType::kDate;
    } else if ((n_int + n_float) / denom > 0.8) {
      result = n_float > 0 ? ColumnType::kFloat : ColumnType::kInteger;
    } else if ((n_mixed + n_int + n_float + n_date) / denom > 0.5 &&
               n_mixed > 0) {
      result = ColumnType::kMixedAlnum;
    } else {
      result = ColumnType::kString;
    }
  }
  type_ = result;
}

void Column::EnsureNumericCache() const {
  if (numeric_cached_) return;
  const ColumnEncoding& enc = Encoding();
  numeric_values_.clear();
  numeric_rows_.clear();
  if (!enc.numbers.empty()) {
    size_t n = 0;
    for (size_t id = 0; id < enc.num_distinct(); ++id) {
      if (!std::isnan(enc.numbers[id])) n += enc.counts[id];
    }
    numeric_values_.reserve(n);
    numeric_rows_.reserve(n);
    for (size_t row = 0; row < enc.ids.size(); ++row) {
      const uint32_t id = enc.ids[row];
      if (id == ColumnEncoding::kEmpty || std::isnan(enc.numbers[id])) {
        continue;
      }
      numeric_values_.push_back(enc.numbers[id]);
      numeric_rows_.push_back(row);
    }
  }
  numeric_cached_ = true;
}

const std::vector<double>& Column::NumericValues() const {
  EnsureNumericCache();
  return numeric_values_;
}

const std::vector<size_t>& Column::NumericRows() const {
  EnsureNumericCache();
  return numeric_rows_;
}

double Column::NumericFraction() const {
  EnsureNumericCache();
  if (encoding_.non_empty == 0) return 0.0;
  return static_cast<double>(numeric_values_.size()) /
         static_cast<double>(encoding_.non_empty);
}

size_t Column::NumDistinct() const { return Encoding().num_distinct(); }

const ColumnEncoding& Column::Encoding() const {
  if (encoding_cached_) return encoding_;
  // Rows and ids are u32 with UINT32_MAX reserved for kEmpty.
  UNIDETECT_CHECK(cells_.size() < ColumnEncoding::kEmpty);
  ColumnEncoding& enc = encoding_;
  enc.ids.assign(cells_.size(), ColumnEncoding::kEmpty);
  enc.first_rows.clear();
  enc.counts.clear();
  enc.types.clear();
  enc.numbers.clear();
  enc.non_empty = 0;
  // Open addressing over ids: a slot holds id + 1 (0 = free) and a probe
  // compares the trimmed text of the id's first row, so nothing outlives
  // this build but row indices. One flat table, no per-value nodes.
  const size_t slots = std::bit_ceil(2 * cells_.size() + 1);
  std::vector<uint32_t> table(slots, 0);
  std::vector<size_t> id_hash;
  const std::hash<std::string_view> hasher;
  for (size_t row = 0; row < cells_.size(); ++row) {
    const std::string_view cell = Trim(cells_[row]);
    if (cell.empty()) continue;
    ++enc.non_empty;
    const size_t hash = hasher(cell);
    size_t slot = hash & (slots - 1);
    while (table[slot] != 0) {
      const uint32_t id = table[slot] - 1;
      if (id_hash[id] == hash && Trim(cells_[enc.first_rows[id]]) == cell) {
        break;
      }
      slot = (slot + 1) & (slots - 1);
    }
    if (table[slot] == 0) {
      const size_t new_id = enc.first_rows.size();
      table[slot] = static_cast<uint32_t>(new_id) + 1;
      enc.first_rows.push_back(static_cast<uint32_t>(row));
      enc.counts.push_back(0);
      id_hash.push_back(hash);
      const ValueProfile profile = ProfileTrimmedValue(cell);
      enc.types.push_back(profile.type);
      // numbers grows only at ids with a number; the gaps are NaN.
      if (!std::isnan(profile.number)) {
        enc.numbers.resize(new_id, kNoNumber);
        enc.numbers.push_back(profile.number);
      }
    }
    const uint32_t id = table[slot] - 1;
    enc.ids[row] = id;
    ++enc.counts[id];
  }
  // The encoding lives as long as the column: drop the growth slack.
  enc.first_rows.shrink_to_fit();
  enc.counts.shrink_to_fit();
  enc.types.shrink_to_fit();
  if (!enc.numbers.empty()) enc.numbers.resize(enc.num_distinct(), kNoNumber);
  enc.numbers.shrink_to_fit();
  encoding_cached_ = true;
  FoldType();
  return enc;
}

std::string_view Column::EncodedValue(uint32_t id) const {
  return Trim(cells_[Encoding().first_rows[id]]);
}

Column Column::WithoutRows(const std::vector<size_t>& rows) const {
  std::vector<bool> drop(cells_.size(), false);
  for (size_t row : rows) {
    if (row < cells_.size()) drop[row] = true;
  }
  std::vector<std::string> kept;
  kept.reserve(cells_.size());
  for (size_t row = 0; row < cells_.size(); ++row) {
    if (!drop[row]) kept.push_back(cells_[row]);
  }
  return Column(name_, std::move(kept));
}

}  // namespace unidetect
