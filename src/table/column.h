// Column: an ordered list of cell strings with lazily computed type and
// numeric views. Columns are the unit Uni-Detect reasons about.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "table/types.h"

namespace unidetect {

/// \brief Dense integer encoding of a column's trimmed cell values, with
/// the type and number of each distinct value.
///
/// Equal `Trim`med cells share one id; ids are assigned 0, 1, 2, ... in
/// order of first occurrence, so id k's value is the trimmed text of
/// row `first_rows[k]`. Each id is classified and parsed once, when it
/// is first seen (ProfileTrimmedValue), so the column's type and numeric
/// views are folds over the ids, not passes over the cells. The encoding holds row indices only, never views
/// into the cell strings, so it stays valid when its Column is copied or
/// moved (short strings live inline and change address with the Column).
/// Rows and ids are 32-bit: a column holds fewer than 2^32 - 1 rows.
struct ColumnEncoding {
  /// Id of a cell that is empty after trimming.
  static constexpr uint32_t kEmpty = UINT32_MAX;

  /// Per row: the value id, or kEmpty.
  std::vector<uint32_t> ids;
  /// Per id: the row of its first occurrence (ascending).
  std::vector<uint32_t> first_rows;
  /// Per id: the number of rows holding it.
  std::vector<uint32_t> counts;
  /// Per id: ClassifyValue of its value.
  std::vector<ValueType> types;
  /// Per id: ParseNumeric of its value, NaN where it has none. Empty
  /// when no id has one (most text columns).
  std::vector<double> numbers;
  /// Rows whose cell is not empty after trimming.
  size_t non_empty = 0;

  size_t num_distinct() const { return first_rows.size(); }
};

/// \brief A single table column.
///
/// Cells are stored as strings (tables in the wild are untyped text).
/// Everything else is derived on demand from one pass over the cells:
/// Encoding() dedups the trimmed cells and classifies and parses each
/// distinct value once; type() is a count-weighted fold over its ids,
/// and NumericValues()/NumericRows() are gathered from its ids on their
/// first read. Mutation invalidates both caches.
///
/// Thread safety: the lazy caches are filled on first read through a
/// const method, so two threads must not make the first read of one
/// Column at once (the first call of type(), NumericValues(),
/// NumericRows(), NumericFraction(), NumDistinct() or Encoding() builds
/// the encoding). Detection respects this by giving each table to
/// exactly one worker: UniDetect::DetectCorpus and
/// DetectionService::DetectBatch shard by table, never within one.
class Column {
 public:
  Column() = default;
  Column(std::string name, std::vector<std::string> cells)
      : name_(std::move(name)), cells_(std::move(cells)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  size_t size() const { return cells_.size(); }
  bool empty() const { return cells_.empty(); }
  const std::string& cell(size_t row) const { return cells_[row]; }
  const std::vector<std::string>& cells() const { return cells_; }

  /// \brief Replaces one cell, invalidating cached derived state.
  void SetCell(size_t row, std::string value);

  /// \brief Appends a cell, invalidating cached derived state.
  void Append(std::string value);

  /// \brief Dominant type: the most frequent non-empty ValueType, with a
  /// tie broken toward the more general type (string > mixed > float >
  /// int). A column of ints with a few floats is kFloat; a column of
  /// numbers with >20% strings is kString.
  ColumnType type() const;

  /// \brief Numeric values of all cells that parse as numbers, in row
  /// order. Rows that do not parse are skipped.
  const std::vector<double>& NumericValues() const;

  /// \brief Row indices corresponding to NumericValues(), aligned 1:1.
  const std::vector<size_t>& NumericRows() const;

  /// \brief Fraction of non-empty cells that parse as numbers.
  double NumericFraction() const;

  /// \brief Number of distinct non-empty trimmed values
  /// (Encoding().num_distinct()).
  size_t NumDistinct() const;

  /// \brief The value encoding of the trimmed cells (see ColumnEncoding).
  const ColumnEncoding& Encoding() const;

  /// \brief Trimmed text of value `id` of Encoding(). The view points into
  /// this Column's cells and lives as long as they are unmodified.
  std::string_view EncodedValue(uint32_t id) const;

  /// \brief Frees the cached derived state; the next read rebuilds it.
  /// For single-pass consumers (the trainer), so a corpus does not keep
  /// every column's caches alive after their one use. Same thread-safety
  /// rule as a first read.
  void ReleaseCaches() const;

  /// \brief Returns a copy with the given rows removed (the perturbation
  /// primitive D \ O from Definition 2). Row indices may be unsorted.
  Column WithoutRows(const std::vector<size_t>& rows) const;

 private:
  void InvalidateCaches() const;
  void FoldType() const;
  void EnsureNumericCache() const;

  std::string name_;
  std::vector<std::string> cells_;

  // Lazily computed caches. type_ is folded when the encoding is built.
  mutable bool encoding_cached_ = false;
  mutable ColumnEncoding encoding_;
  mutable ColumnType type_ = ColumnType::kUnknown;
  mutable bool numeric_cached_ = false;
  mutable std::vector<double> numeric_values_;
  mutable std::vector<size_t> numeric_rows_;
};

}  // namespace unidetect
