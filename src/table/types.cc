#include "table/types.h"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <optional>

#include "util/string_util.h"

namespace unidetect {

const char* ValueTypeToString(ValueType type) {
  switch (type) {
    case ValueType::kEmpty:
      return "empty";
    case ValueType::kInteger:
      return "integer";
    case ValueType::kFloat:
      return "float";
    case ValueType::kDate:
      return "date";
    case ValueType::kMixedAlnum:
      return "mixed-alnum";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

const char* ColumnTypeToString(ColumnType type) {
  switch (type) {
    case ColumnType::kUnknown:
      return "unknown";
    case ColumnType::kInteger:
      return "integer";
    case ColumnType::kFloat:
      return "float";
    case ColumnType::kDate:
      return "date";
    case ColumnType::kMixedAlnum:
      return "mixed-alnum";
    case ColumnType::kString:
      return "string";
  }
  return "?";
}

namespace {
bool AllDigits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c))) return false;
  }
  return true;
}
}  // namespace

bool LooksLikeDate(std::string_view cell) {
  std::string_view s = Trim(cell);
  for (char sep : {'-', '/'}) {
    // Find exactly two separators.
    size_t p1 = s.find(sep);
    if (p1 == std::string_view::npos) continue;
    size_t p2 = s.find(sep, p1 + 1);
    if (p2 == std::string_view::npos) continue;
    if (s.find(sep, p2 + 1) != std::string_view::npos) continue;
    std::string_view a = s.substr(0, p1);
    std::string_view b = s.substr(p1 + 1, p2 - p1 - 1);
    std::string_view c = s.substr(p2 + 1);
    if (!AllDigits(a) || !AllDigits(b) || !AllDigits(c)) continue;
    // Y-M-D or D-M-Y / M-D-Y: one 4-digit year part at either end,
    // the others 1-2 digits.
    const bool ymd = a.size() == 4 && b.size() <= 2 && c.size() <= 2;
    const bool dmy = c.size() == 4 && a.size() <= 2 && b.size() <= 2;
    if (ymd || dmy) return true;
  }
  return false;
}

ValueType ClassifyValue(std::string_view cell) {
  std::string_view s = Trim(cell);
  if (s.empty()) return ValueType::kEmpty;
  if (LooksLikeDate(s)) return ValueType::kDate;
  if (LooksLikeInteger(s)) return ValueType::kInteger;
  if (ParseNumeric(s).has_value()) return ValueType::kFloat;
  bool has_letter = false;
  bool has_digit = false;
  for (char c : s) {
    if (std::isalpha(static_cast<unsigned char>(c))) has_letter = true;
    if (std::isdigit(static_cast<unsigned char>(c))) has_digit = true;
  }
  if (has_letter && has_digit) return ValueType::kMixedAlnum;
  return ValueType::kString;
}

namespace {

// Byte classes of ProfileTrimmedValue's one scan.
enum ByteClass : uint16_t {
  kDigit = 1 << 0,
  kExp = 1 << 1,      // 'e' / 'E': a letter, and a float's exponent mark
  kLetter = 1 << 2,   // every other ASCII letter
  kSign = 1 << 3,     // '+' / '-' ('-' also separates a date)
  kDot = 1 << 4,
  kComma = 1 << 5,
  kSlash = 1 << 6,    // separates a date
  kPercent = 1 << 7,
  kSpace = 1 << 8,    // inner whitespace, as in "7 %"
  kHigh = 1 << 9,     // bytes >= 0x80
  kOther = 1 << 10,   // any other ASCII byte (NUL, '#', '(', ...)
};

constexpr std::array<uint16_t, 256> MakeByteClasses() {
  std::array<uint16_t, 256> classes{};
  for (int c = 0; c < 256; ++c) {
    uint16_t k = kOther;
    if (c >= '0' && c <= '9') {
      k = kDigit;
    } else if (c == 'e' || c == 'E') {
      k = kExp;
    } else if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')) {
      k = kLetter;
    } else if (c == '+' || c == '-') {
      k = kSign;
    } else if (c == '.') {
      k = kDot;
    } else if (c == ',') {
      k = kComma;
    } else if (c == '/') {
      k = kSlash;
    } else if (c == '%') {
      k = kPercent;
    } else if (c == ' ' || (c >= '\t' && c <= '\r')) {
      k = kSpace;  // exactly std::isspace in the "C" locale
    } else if (c >= 0x80) {
      k = kHigh;
    }
    classes[static_cast<size_t>(c)] = k;
  }
  return classes;
}

constexpr std::array<uint16_t, 256> kByteClasses = MakeByteClasses();

// Runs of at most 15 digits are below 2^53, so their double is exact and
// equals the correctly rounded from_chars result.
constexpr size_t kMaxExactDigits = 15;

// ParseNumeric of a trimmed value whose bytes have classes `mask`. With
// no ',', '%' or space, ParseNumeric's clean-up leaves the text as it is
// except a leading '+', so from_chars runs on the view without a copy.
std::optional<double> ParseTrimmed(std::string_view s, uint16_t mask) {
  if (mask & ~(kDigit | kExp | kSign | kDot)) return ParseNumeric(s);
  if (s.front() == '+') s.remove_prefix(1);
  if (s.empty()) return std::nullopt;
  double value = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc() || ptr != s.data() + s.size()) return std::nullopt;
  if (!std::isfinite(value)) return std::nullopt;
  return value;
}

}  // namespace

ValueProfile ProfileTrimmedValue(std::string_view s) {
  ValueProfile out;
  if (s.empty()) return out;
  uint16_t mask = 0;
  for (const char c : s) mask |= kByteClasses[static_cast<unsigned char>(c)];
  // Every date, integer and number holds an ASCII digit; without one the
  // value is kString whatever its letters.
  if (!(mask & kDigit)) {
    out.type = ValueType::kString;
    return out;
  }
  if (mask & kHigh) {
    // Whether a byte >= 0x80 is a letter or a space depends on the
    // locale: ask the per-cell rules.
    out.type = ClassifyValue(s);
    if (out.type == ValueType::kInteger || out.type == ValueType::kFloat) {
      if (auto v = ParseNumeric(s)) out.number = *v;
    }
    return out;
  }
  // A letter other than e/E, or a byte outside the numeric alphabet,
  // rules out a date, an integer and a finite number (from_chars' "inf"
  // and "nan" spellings are non-finite, which ParseNumeric rejects).
  if (mask & (kLetter | kOther)) {
    out.type = (mask & (kLetter | kExp)) ? ValueType::kMixedAlnum
                                         : ValueType::kString;
    return out;
  }
  if (mask == kDigit && s.size() <= kMaxExactDigits) {
    uint64_t v = 0;
    for (const char c : s) v = v * 10 + static_cast<uint64_t>(c - '0');
    out.type = ValueType::kInteger;
    out.number = static_cast<double>(v);
    return out;
  }
  // The exact rules, in ClassifyValue's order, each asked only when the
  // bytes allow it: a date needs a '-' or '/', an integer only digits,
  // signs and commas.
  if ((mask & (kSign | kSlash)) && LooksLikeDate(s)) {
    out.type = ValueType::kDate;
    return out;
  }
  if (!(mask & ~(kDigit | kSign | kComma)) && LooksLikeInteger(s)) {
    out.type = ValueType::kInteger;
    if (auto v = ParseTrimmed(s, mask)) out.number = *v;
    return out;
  }
  if (auto v = ParseTrimmed(s, mask)) {
    out.type = ValueType::kFloat;
    out.number = *v;
    return out;
  }
  out.type = (mask & kExp) ? ValueType::kMixedAlnum : ValueType::kString;
  return out;
}

}  // namespace unidetect
