// Candidate extraction: computes, for one column (or column pair), the
// feature key and the (theta1, theta2) metric transition of the natural
// perturbation for each error class.
//
// The uniqueness and FD keys need Prev(C) of a column, which costs more
// than the metric itself, so their extraction comes in two forms: the
// metric-only overload leaves `key` unset for callers that compute it
// only when used (the detectors after their discards, the trainer with
// one Prev(C) per column); the overload taking a TokenPrevalence also
// fills `key` from the same featurizer.
//
// The Trainer records these transitions for every corpus column; the
// detectors compute the same transition for a test column and look up its
// likelihood ratio. Keeping extraction in one place guarantees the
// offline and online paths agree on metrics, perturbations, and keys.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "corpus/token_index.h"
#include "featurize/features.h"
#include "learn/model.h"
#include "metrics/metric_functions.h"
#include "table/column.h"

namespace unidetect {

/// \brief Numeric-outlier candidate (Section 3.1): theta = max-MAD score
/// before/after dropping the most outlying value.
struct OutlierCandidate {
  bool valid = false;
  FeatureKey key;
  double theta1 = 0.0;
  double theta2 = 0.0;
  size_t row = 0;        ///< row of the suspected outlier
  std::string cell;      ///< its raw cell text
  double value = 0.0;    ///< its numeric value
};

OutlierCandidate ExtractOutlierCandidate(const Column& column,
                                         const ModelOptions& options);

/// \brief Spelling candidate (Section 3.2): theta = MPD before/after
/// dropping one endpoint of the closest pair.
struct SpellingCandidate {
  bool valid = false;
  FeatureKey key;
  double theta1 = 0.0;
  double theta2 = 0.0;
  MpdProfile profile;
};

SpellingCandidate ExtractSpellingCandidate(const Column& column,
                                           const ModelOptions& options);

/// \brief Uniqueness candidate (Section 3.3): theta = UR before/after
/// dropping up to epsilon duplicate rows.
struct UniquenessCandidate {
  bool valid = false;
  FeatureKey key;
  double theta1 = 0.0;
  double theta2 = 0.0;
  /// Duplicate rows the perturbation drops (already capped by epsilon).
  std::vector<size_t> dropped_rows;
};

/// Metric-only: `key` is left unset (see UniquenessFeatures).
UniquenessCandidate ExtractUniquenessCandidate(const Column& column,
                                               const ModelOptions& options);

/// Metrics plus `key` = UniquenessFeatures(column, column_position, ...).
UniquenessCandidate ExtractUniquenessCandidate(const Column& column,
                                               size_t column_position,
                                               const TokenPrevalence& index,
                                               const ModelOptions& options);

/// \brief FD candidate (Section 3.4) for the ordered pair (lhs -> rhs):
/// theta = FR before/after dropping up to epsilon violating rows.
struct FdCandidate {
  bool valid = false;
  FeatureKey key;
  double theta1 = 0.0;
  double theta2 = 0.0;
  /// Violating rows the perturbation drops (already capped by epsilon).
  std::vector<size_t> dropped_rows;
  size_t violating_groups = 0;
};

/// Metric-only: `key` is left unset (see FdFeatures).
FdCandidate ExtractFdCandidate(const Column& lhs, const Column& rhs,
                               const ModelOptions& options);

/// Metrics plus `key` = FdFeatures(lhs, rhs, ...).
FdCandidate ExtractFdCandidate(const Column& lhs, const Column& rhs,
                               const TokenPrevalence& index,
                               const ModelOptions& options);

}  // namespace unidetect
