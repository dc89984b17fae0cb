// Portable SIMD kernels for the detection hot paths (DESIGN.md §13).
//
// Design: every kernel exists twice — a plain scalar reference
// (`*Scalar`) and a dispatch entry point that routes to the widest
// vector implementation the host supports (AVX2 on x86-64, NEON on
// aarch64, otherwise the scalar body). The contract is that the
// dispatched kernel is BIT-IDENTICAL to its scalar reference on every
// input, including NaN/Inf/denormal values, odd lengths, and unaligned
// tails: counting kernels reduce integer lane counts (order-free by
// construction), and the argmax kernel resolves cross-lane ties by
// smallest index, which is provably the element the scalar first-strict-
// improvement scan selects. Property tests (tests/simd_test.cc) pin the
// equivalence with dispatch forced on and off.
//
// Runtime dispatch: the implementation is chosen once per process from
// CPU feature detection; setting the environment variable
// UNIDETECT_DISABLE_SIMD (to anything but "0" or the empty string)
// forces the scalar path. Tests and benchmarks flip the same switch via
// SetSimdEnabled().

#pragma once

#include <cstddef>
#include <cstdint>

namespace unidetect {
namespace simd {

/// \brief Which kernel family the dispatcher selected.
enum class SimdLevel : int {
  kScalar = 0,
  kAvx2 = 1,
  kNeon = 2,
};

/// \brief The active kernel family (after the UNIDETECT_DISABLE_SIMD
/// override and any SetSimdEnabled() call).
SimdLevel ActiveSimdLevel();

const char* SimdLevelName(SimdLevel level);

/// \brief Forces the scalar kernels (false) or restores the detected
/// vector kernels (true). Used by the equivalence tests and the
/// SIMD-vs-scalar benchmarks; not thread-safe against in-flight kernels,
/// so flip it only from a quiesced process.
void SetSimdEnabled(bool enabled);

// ---------------------------------------------------------------------------
// Counting kernels (the CountSurprising leaf scans).
//
// Count elements v[i] <= theta (or >= theta). NaN elements compare false
// on both sides, exactly like the scalar `<=` / `>=` operators; the
// vector implementations use ordered-quiet comparisons for this reason.

uint64_t CountLessEqualF32(const float* v, size_t n, float theta);
uint64_t CountGreaterEqualF32(const float* v, size_t n, float theta);
uint64_t CountLessEqualF32Scalar(const float* v, size_t n, float theta);
uint64_t CountGreaterEqualF32Scalar(const float* v, size_t n, float theta);

/// f16 variants for the half-precision observation encoding: elements
/// are IEEE 754 binary16 bit patterns, widened to f32 before the
/// comparison (widening is exact, so ordering matches the f32 kernels on
/// the dequantized values).
uint64_t CountLessEqualF16(const uint16_t* v, size_t n, float theta);
uint64_t CountGreaterEqualF16(const uint16_t* v, size_t n, float theta);
uint64_t CountLessEqualF16Scalar(const uint16_t* v, size_t n, float theta);
uint64_t CountGreaterEqualF16Scalar(const uint16_t* v, size_t n, float theta);

// ---------------------------------------------------------------------------
// Dispersion argmax kernel (the max-MAD / max-SD scans).

struct ArgMaxResult {
  double score = 0.0;
  size_t index = 0;
};

/// \brief Computes scores s[i] = |v[i] - center| / denom and returns the
/// first index attaining the maximum score, with the exact semantics of
/// the sequential first-strict-improvement scan: index 0 always seeds
/// (even when s[0] is NaN, in which case it wins outright because no
/// comparison against NaN succeeds), later NaN scores are never
/// selected, and among equal maxima the smallest index wins.
/// Requires n >= 1.
ArgMaxResult ArgMaxAbsDeviation(const double* v, size_t n, double center,
                                double denom);
ArgMaxResult ArgMaxAbsDeviationScalar(const double* v, size_t n,
                                      double center, double denom);

// ---------------------------------------------------------------------------
// MPD prefilter kernel (the Myers edit-distance length / character gates).
//
// For up to 64 candidate values, decides in one pass which candidates
// survive three cheap lower bounds against a probe value `a`:
//
//   lengths[i] - len_a       <= bound   (length gap; candidates are
//                                        scanned in ascending length, so
//                                        the gap is non-negative)
//   max(popcount(sig_a & ~sigs[i]),
//       popcount(sigs[i] & ~sig_a)) <= bound   (character-class bound:
//                                        every unit edit fixes at most
//                                        one class present on one side
//                                        only)
//   (L1(hist_a, hists[i]) + |lengths[i] - len_a|) / 2 <= bound
//                                       (character-count bound; see
//                                        below)
//
// Signatures and histograms fold each byte c into class c & 63. A
// histogram holds kMpdHistBytes u8 counts, one per class, saturating at
// 255; candidate i's histogram is hists[i * kMpdHistBytes, ...). For the
// true byte counts, with P = sum (ca - cb)+ and N = sum (cb - ca)+, every
// unit edit lowers P or N by at most one, so max(P, N) bounds the edit
// distance; L1 = P + N and |len_a - len_b| = |P - N| make the third gate
// exactly max(P, N). Folding merges classes (triangle inequality) and
// saturation is 1-Lipschitz per class, so both only shrink L1: they
// weaken the bound but never break it.
// Saturation can make the count gate weaker than the class gate (300
// 'x' + "abcde" vs 305 'x'), which is why both are kept.
//
// Lengths are byte counts (non-negative int32). Bit i of the result is
// set iff candidate i survives all three gates.
// Every gate is per-candidate exact integer work, so the vector and
// scalar masks are identical bit for bit.

inline constexpr size_t kMpdHistBytes = 64;

uint64_t MpdPrefilterMask(const int32_t* lengths, const uint64_t* sigs,
                          const uint8_t* hists, size_t count, int32_t len_a,
                          uint64_t sig_a, const uint8_t* hist_a,
                          int32_t bound);
uint64_t MpdPrefilterMaskScalar(const int32_t* lengths, const uint64_t* sigs,
                                const uint8_t* hists, size_t count,
                                int32_t len_a, uint64_t sig_a,
                                const uint8_t* hist_a, int32_t bound);

// ---------------------------------------------------------------------------
// IEEE 754 binary16 conversions (the f16 observation encoding).

/// \brief Exact widening of a binary16 bit pattern (handles subnormals,
/// infinities, and NaN payload-preserving enough for equality-free use).
float HalfToFloat(uint16_t half);

/// \brief Round-to-nearest-even narrowing to binary16. Values beyond
/// the f16 range saturate to +/-inf; NaN maps to a quiet NaN. Monotone
/// (order-preserving), so sorted arrays stay sorted after quantization.
uint16_t FloatToHalf(float value);

}  // namespace simd
}  // namespace unidetect
