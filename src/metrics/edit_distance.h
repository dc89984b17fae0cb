// Levenshtein edit distance. Three implementations share one contract:
//
//   EditDistance          -- classic rolling-row DP, O(|a| * |b|).
//   BoundedEditDistance   -- early-exit variant: Myers bit-parallel scan
//                            (O(max(|a|,|b|)) word operations) when the
//                            shorter string fits in one 64-bit word,
//                            otherwise a banded DP of width 2*bound+1.
//   MyersPattern          -- the bit-parallel scan with its pattern table
//                            built once and reused against many texts
//                            (BoundedEditDistance runs through it too).
//
// The bounded variant powers the O(n^2) closest-pair loop behind the MPD
// metric, so it must not allocate per call: callers inside hot loops pass
// an EditDistanceScratch they own, and the scratch-less overload falls
// back to a thread_local buffer.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace unidetect {

/// \brief Myers' bit-parallel Levenshtein scan (Hyyrö's formulation) for
/// one pattern of at most kMaxLength bytes, reusable against many texts.
///
/// Assign() builds the 256-entry pattern-match table; the table is kept
/// all-zero outside the current pattern's bytes (Assign clears exactly
/// the entries the previous pattern set), so switching patterns costs
/// O(|old| + |new|), not a 2 KiB clear.
class MyersPattern {
 public:
  static constexpr size_t kMaxLength = 64;

  /// Requires pattern.size() <= kMaxLength. The bytes are copied, so the
  /// argument need not outlive the call.
  void Assign(std::string_view pattern);

  /// \brief Levenshtein distance from the pattern to `text`, or
  /// `bound + 1` as soon as it provably exceeds `bound`.
  size_t BoundedDistance(std::string_view text, size_t bound) const;

 private:
  uint64_t peq_[256] = {};
  unsigned char bytes_[kMaxLength] = {};
  size_t size_ = 0;
};

/// \brief Reusable work space for BoundedEditDistance.
///
/// Holds the two DP rows of the banded fallback and the pattern of the
/// Myers bit-parallel kernel, so reuse costs nothing.
struct EditDistanceScratch {
  std::vector<size_t> row;
  std::vector<size_t> next;
  MyersPattern pattern;
};

/// \brief Levenshtein distance (unit-cost insert/delete/substitute).
size_t EditDistance(std::string_view a, std::string_view b);

/// \brief Levenshtein distance with early exit: returns `bound + 1` as
/// soon as the true distance provably exceeds `bound`.
///
/// Allocation-free: all per-call state lives in `*scratch`.
size_t BoundedEditDistance(std::string_view a, std::string_view b,
                           size_t bound, EditDistanceScratch* scratch);

/// \brief Convenience overload using a thread_local scratch buffer.
size_t BoundedEditDistance(std::string_view a, std::string_view b,
                           size_t bound);

}  // namespace unidetect
