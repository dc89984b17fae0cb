// Value and column type classification used by Uni-Detect featurization.
//
// The paper (Sections 2.2.2, 3.1-3.4) featurizes columns by data type:
// string vs. integer vs. floating-point vs. mixed-alphanumeric. Dates are
// recognized separately because date columns behave like "numbers that can
// collide by chance" for uniqueness reasoning (Figure 2(b)).

#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>

namespace unidetect {

/// \brief Type of a single cell value (one byte: ColumnEncoding keeps one
/// per distinct value).
enum class ValueType : uint8_t {
  kEmpty = 0,
  kInteger = 1,
  kFloat = 2,
  kDate = 3,
  kMixedAlnum = 4,  ///< letters and digits mixed, e.g. "KV214-310B8K2"
  kString = 5,      ///< letters/punctuation only
};

const char* ValueTypeToString(ValueType type);

/// \brief Dominant type of a column, the first featurization dimension.
enum class ColumnType : int {
  kUnknown = 0,
  kInteger = 1,
  kFloat = 2,
  kDate = 3,
  kMixedAlnum = 4,
  kString = 5,
};

const char* ColumnTypeToString(ColumnType type);

/// \brief Classifies one cell.
///
/// Rules (checked in order):
///  - empty / whitespace-only        -> kEmpty
///  - ISO-like date (Y-M-D, M/D/Y)   -> kDate
///  - LooksLikeInteger (commas ok)   -> kInteger
///  - parses as number               -> kFloat
///  - contains letters AND digits    -> kMixedAlnum
///  - otherwise                      -> kString
///
/// This is the per-cell reference; columns classify each distinct value
/// once through ProfileTrimmedValue.
ValueType ClassifyValue(std::string_view cell);

/// \brief ClassifyValue and ParseNumeric of one value, from one scan.
struct ValueProfile {
  ValueType type = ValueType::kEmpty;
  /// ParseNumeric of the value, or NaN where it has none (ParseNumeric
  /// never returns a non-finite value). Only kInteger and kFloat values
  /// carry a number; a kInteger value may not ("1,,2", 400 digits).
  double number = std::numeric_limits<double>::quiet_NaN();
};

/// \brief Profiles an already trimmed value (`Trim(value) == value`):
/// `type == ClassifyValue(value)` and `number == ParseNumeric(value)`.
///
/// One pass over the bytes sorts them into classes. A value with no
/// digit, or with a letter other than e/E or a byte no number contains,
/// is settled without parsing; a short run of digits is an integer read
/// in place. Only values made of digits, signs, '.', ',', '/', '%', e/E
/// and inner spaces (and values with digits and bytes >= 0x80, whose
/// ctype class depends on the locale) take the exact LooksLikeDate /
/// LooksLikeInteger / ParseNumeric path. Dates are never parsed.
ValueProfile ProfileTrimmedValue(std::string_view value);

/// \brief True for "2015-04-01", "04/01/2015", "2015/04/01" shapes.
bool LooksLikeDate(std::string_view cell);

}  // namespace unidetect
