// Property tests for the portable SIMD kernels (util/simd.h): the
// dispatched implementation must be BIT-identical to the scalar
// reference on every input — random data plus the adversarial corners
// (NaN/Inf/denormal values, odd lengths, unaligned tails) — with the
// vector path forced on and off via SetSimdEnabled().

#include "util/simd.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "gtest/gtest.h"
#include "util/random.h"

namespace unidetect {
namespace simd {
namespace {

// Restores the detected dispatch level when a test scope ends.
class ScopedSimd {
 public:
  explicit ScopedSimd(bool enabled) { SetSimdEnabled(enabled); }
  ~ScopedSimd() { SetSimdEnabled(true); }
};

bool SameBitsF64(double a, double b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

// The interesting lengths: empty, sub-lane, exact lane multiples, and
// one-off-a-lane tails for both 4-wide and 8-wide kernels.
const size_t kLengths[] = {0,  1,  2,  3,  4,  5,  7,  8,  9,
                           15, 16, 17, 31, 32, 33, 63, 64, 65, 257};

std::vector<float> RandomFloats(Rng& rng, size_t n, bool adversarial) {
  std::vector<float> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(rng.Normal(0.0, 100.0));
    if (!adversarial) continue;
    switch (rng.NextBounded(8)) {
      case 0:
        v[i] = std::numeric_limits<float>::quiet_NaN();
        break;
      case 1:
        v[i] = std::numeric_limits<float>::infinity();
        break;
      case 2:
        v[i] = -std::numeric_limits<float>::infinity();
        break;
      case 3:
        v[i] = std::numeric_limits<float>::denorm_min() *
               static_cast<float>(rng.NextBounded(5));
        break;
      default:
        break;
    }
  }
  return v;
}

// ---------------------------------------------------------------------------
// Counting kernels.

TEST(SimdCountTest, MatchesScalarOnRandomAndAdversarialInputs) {
  Rng rng(0xC0047);
  const float thetas[] = {0.0f, 1.5f, -273.0f,
                          std::numeric_limits<float>::infinity(),
                          std::numeric_limits<float>::quiet_NaN()};
  for (bool adversarial : {false, true}) {
    for (size_t n : kLengths) {
      std::vector<float> v = RandomFloats(rng, n, adversarial);
      for (float theta : thetas) {
        const uint64_t le = CountLessEqualF32Scalar(v.data(), n, theta);
        const uint64_t ge = CountGreaterEqualF32Scalar(v.data(), n, theta);
        ScopedSimd on(true);
        EXPECT_EQ(CountLessEqualF32(v.data(), n, theta), le) << n;
        EXPECT_EQ(CountGreaterEqualF32(v.data(), n, theta), ge) << n;
        SetSimdEnabled(false);
        EXPECT_EQ(CountLessEqualF32(v.data(), n, theta), le) << n;
        EXPECT_EQ(CountGreaterEqualF32(v.data(), n, theta), ge) << n;
      }
    }
  }
}

TEST(SimdCountTest, UnalignedTailPointers) {
  Rng rng(0xA1167ED);
  // Slice at every offset into an aligned buffer: the kernels take raw
  // pointers, so the vector loads must be unaligned-safe.
  std::vector<float> buffer = RandomFloats(rng, 96, /*adversarial=*/true);
  for (size_t offset = 0; offset < 9; ++offset) {
    for (size_t n : {size_t{7}, size_t{8}, size_t{33}, size_t{80}}) {
      const float* base = buffer.data() + offset;
      ScopedSimd on(true);
      EXPECT_EQ(CountLessEqualF32(base, n, 10.0f),
                CountLessEqualF32Scalar(base, n, 10.0f));
      EXPECT_EQ(CountGreaterEqualF32(base, n, -10.0f),
                CountGreaterEqualF32Scalar(base, n, -10.0f));
    }
  }
}

TEST(SimdCountTest, F16MatchesScalarAndWidenedF32) {
  Rng rng(0xF16);
  for (size_t n : kLengths) {
    std::vector<uint16_t> halves(n);
    std::vector<float> widened(n);
    for (size_t i = 0; i < n; ++i) {
      halves[i] = static_cast<uint16_t>(rng.NextBounded(65536));
      widened[i] = HalfToFloat(halves[i]);
    }
    for (float theta : {0.0f, 3.25f, -1e4f}) {
      const uint64_t le = CountLessEqualF16Scalar(halves.data(), n, theta);
      const uint64_t ge = CountGreaterEqualF16Scalar(halves.data(), n, theta);
      // The scalar f16 kernel must agree with the f32 kernel over the
      // exactly-widened values (widening preserves order and NaN-ness).
      EXPECT_EQ(le, CountLessEqualF32Scalar(widened.data(), n, theta));
      EXPECT_EQ(ge, CountGreaterEqualF32Scalar(widened.data(), n, theta));
      ScopedSimd on(true);
      EXPECT_EQ(CountLessEqualF16(halves.data(), n, theta), le) << n;
      EXPECT_EQ(CountGreaterEqualF16(halves.data(), n, theta), ge) << n;
      SetSimdEnabled(false);
      EXPECT_EQ(CountLessEqualF16(halves.data(), n, theta), le) << n;
      EXPECT_EQ(CountGreaterEqualF16(halves.data(), n, theta), ge) << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Dispersion argmax kernel.

std::vector<double> RandomDoubles(Rng& rng, size_t n, bool adversarial) {
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = rng.Normal(50.0, 10.0);
    if (!adversarial) continue;
    switch (rng.NextBounded(10)) {
      case 0:
        v[i] = std::numeric_limits<double>::quiet_NaN();
        break;
      case 1:
        v[i] = std::numeric_limits<double>::infinity();
        break;
      case 2:
        v[i] = -std::numeric_limits<double>::infinity();
        break;
      case 3:
        v[i] = std::numeric_limits<double>::denorm_min();
        break;
      case 4:
        // Force exact ties: duplicated magnitudes around the center.
        v[i] = (i % 2 == 0) ? 40.0 : 60.0;
        break;
      default:
        break;
    }
  }
  return v;
}

void ExpectArgMaxMatches(const std::vector<double>& v, double center,
                         double denom) {
  const ArgMaxResult want =
      ArgMaxAbsDeviationScalar(v.data(), v.size(), center, denom);
  for (bool enabled : {true, false}) {
    ScopedSimd scoped(enabled);
    const ArgMaxResult got =
        ArgMaxAbsDeviation(v.data(), v.size(), center, denom);
    EXPECT_EQ(got.index, want.index) << "n=" << v.size();
    EXPECT_TRUE(SameBitsF64(got.score, want.score))
        << "n=" << v.size() << " got=" << got.score
        << " want=" << want.score;
  }
}

TEST(SimdArgMaxTest, MatchesScalarOnRandomAndAdversarialInputs) {
  Rng rng(0xA26);
  for (bool adversarial : {false, true}) {
    for (size_t n : kLengths) {
      if (n == 0) continue;  // kernel requires n >= 1
      std::vector<double> v = RandomDoubles(rng, n, adversarial);
      ExpectArgMaxMatches(v, 50.0, 7.5);
      ExpectArgMaxMatches(v, 0.0, 1.0);
      // Degenerate denominators route to the scalar path internally but
      // must still agree with the reference bit for bit.
      ExpectArgMaxMatches(v, 50.0, 0.0);
      ExpectArgMaxMatches(v, 50.0, -3.0);
      ExpectArgMaxMatches(v, 50.0,
                          std::numeric_limits<double>::quiet_NaN());
    }
  }
}

TEST(SimdArgMaxTest, NanSeedAndTieBreakCorners) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  // NaN at index 0 wins outright: no later comparison against it succeeds.
  ExpectArgMaxMatches({nan, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0}, 0.0,
                      1.0);
  // Later NaNs are never selected.
  ExpectArgMaxMatches({1.0, nan, 2.0, nan, 3.0, nan, 2.0, 1.0, nan}, 0.0,
                      1.0);
  // Exact ties across lane boundaries: smallest index must win.
  ExpectArgMaxMatches({5.0, -5.0, 5.0, -5.0, 5.0, -5.0, 5.0, -5.0, 5.0},
                      0.0, 1.0);
  // The maximum in the scalar tail only wins by strict improvement.
  ExpectArgMaxMatches({9.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 9.0}, 0.0,
                      1.0);
}

// ---------------------------------------------------------------------------
// MPD prefilter kernel.

// Copies of `base` with `moves` random counts each shifted by at most
// `spread` (so the count gate sits near small bounds); counts saturate
// like the real ones.
std::vector<uint8_t> NearbyHistograms(Rng& rng,
                                      const std::vector<uint8_t>& base,
                                      size_t count, size_t moves,
                                      uint32_t spread) {
  std::vector<uint8_t> hists(count * kMpdHistBytes);
  for (size_t i = 0; i < count; ++i) {
    uint8_t* hist = hists.data() + i * kMpdHistBytes;
    std::copy(base.begin(), base.end(), hist);
    for (size_t m = 0; m < moves; ++m) {
      uint8_t& h = hist[rng.NextBounded(kMpdHistBytes)];
      const int moved = static_cast<int>(h) +
                        static_cast<int>(rng.NextBounded(2 * spread + 1)) -
                        static_cast<int>(spread);
      h = static_cast<uint8_t>(std::clamp(moved, 0, 255));
    }
  }
  return hists;
}

void ExpectMpdMaskMatchesScalar(const std::vector<int32_t>& lengths,
                                const std::vector<uint64_t>& sigs,
                                const std::vector<uint8_t>& hists,
                                int32_t len_a, uint64_t sig_a,
                                const std::vector<uint8_t>& hist_a,
                                int32_t bound) {
  const uint64_t want = MpdPrefilterMaskScalar(
      lengths.data(), sigs.data(), hists.data(), lengths.size(), len_a, sig_a,
      hist_a.data(), bound);
  for (bool enabled : {true, false}) {
    ScopedSimd scoped(enabled);
    EXPECT_EQ(MpdPrefilterMask(lengths.data(), sigs.data(), hists.data(),
                               lengths.size(), len_a, sig_a, hist_a.data(),
                               bound),
              want)
        << "count=" << lengths.size() << " bound=" << bound
        << " simd=" << enabled;
  }
}

TEST(SimdMpdPrefilterTest, MatchesScalarOnRandomInputs) {
  Rng rng(0x3DD);
  for (size_t count : {size_t{0}, size_t{1}, size_t{5}, size_t{8},
                       size_t{13}, size_t{16}, size_t{37}, size_t{64}}) {
    for (int trial = 0; trial < 50; ++trial) {
      const int32_t len_a = static_cast<int32_t>(rng.NextBounded(40));
      const uint64_t sig_a = rng.Next() & rng.Next();  // sparse-ish classes
      std::vector<uint8_t> hist_a(kMpdHistBytes);
      for (uint8_t& h : hist_a) h = static_cast<uint8_t>(rng.NextBounded(3));
      std::vector<int32_t> lengths(count);
      std::vector<uint64_t> sigs(count);
      for (size_t i = 0; i < count; ++i) {
        // Mostly longer than the probe, as the scan orders them; a few
        // shorter ones exercise the |gap| of the count gate.
        lengths[i] = std::max(
            0, len_a + static_cast<int32_t>(rng.NextBounded(10)) - 2);
        sigs[i] = rng.Next() & rng.Next();
      }
      const std::vector<uint8_t> hists =
          NearbyHistograms(rng, hist_a, count, rng.NextBounded(8), 1);
      const int32_t bound = static_cast<int32_t>(rng.NextBounded(6));
      ExpectMpdMaskMatchesScalar(lengths, sigs, hists, len_a, sig_a, hist_a,
                                 bound);
    }
  }
}

TEST(SimdMpdPrefilterTest, BoundaryBounds) {
  // All-ones candidate signatures, length gaps 0..7, bounds at each
  // gate's edge. With all-zero histograms on both sides (L1 = 0) the
  // count gate is no stronger than the length gate, so these cases test
  // the class gate (exactly 64 against sig_a = 0, 0 against ~0) and the
  // length gate. With every candidate class at 255 against 0, L1 = 16320
  // and the count gate (L1 + gap) / 2 decides alone.
  const std::vector<int32_t> lengths = {3, 3, 4, 5, 6, 7, 8, 9, 10};
  const std::vector<uint64_t> sigs(lengths.size(), ~uint64_t{0});
  const std::vector<uint8_t> hist_a(kMpdHistBytes, 0);
  struct Case {
    uint64_t sig_a;
    uint8_t candidate_count;
    int32_t bound;
    uint64_t want;
  };
  constexpr uint64_t kAll = ~uint64_t{0};
  for (const Case& c :
       {Case{0, 0, 0, 0}, Case{0, 0, 1, 0}, Case{0, 0, 63, 0},
        Case{0, 0, 64, 0x1FF}, Case{0, 0, 1 << 20, 0x1FF},
        Case{kAll, 0, 0, 0x3}, Case{kAll, 0, 4, 0x3F}, Case{kAll, 0, 6, 0xFF},
        Case{kAll, 0, 7, 0x1FF}, Case{0, 255, 0, 0}, Case{0, 255, 64, 0},
        Case{0, 255, 8159, 0}, Case{0, 255, 8160, 0x7},
        Case{0, 255, 8162, 0x7F}, Case{0, 255, 1 << 20, 0x1FF}}) {
    const std::vector<uint8_t> hists(lengths.size() * kMpdHistBytes,
                                     c.candidate_count);
    EXPECT_EQ(MpdPrefilterMaskScalar(lengths.data(), sigs.data(), hists.data(),
                                     lengths.size(), 3, c.sig_a, hist_a.data(),
                                     c.bound),
              c.want)
        << "sig_a=" << c.sig_a << " counts=" << int{c.candidate_count}
        << " bound=" << c.bound;
    ExpectMpdMaskMatchesScalar(lengths, sigs, hists, 3, c.sig_a, hist_a,
                               c.bound);
  }
}

TEST(SimdMpdPrefilterTest, CountGateRejectsWhatTheClassGateAdmits) {
  // "aaab" vs "abbb": same classes, so the class gate reads 0; the counts
  // differ by 2 + 2 at equal length, so the count gate reads 2.
  std::vector<uint8_t> hist_a(kMpdHistBytes, 0);
  hist_a['a' & 63] = 3;
  hist_a['b' & 63] = 1;
  std::vector<uint8_t> hists(kMpdHistBytes, 0);
  hists['a' & 63] = 1;
  hists['b' & 63] = 3;
  const uint64_t sig =
      (uint64_t{1} << ('a' & 63)) | (uint64_t{1} << ('b' & 63));
  const std::vector<int32_t> lengths = {4};
  const std::vector<uint64_t> sigs = {sig};
  for (bool enabled : {true, false}) {
    ScopedSimd scoped(enabled);
    for (int32_t bound : {0, 1, 2, 3}) {
      EXPECT_EQ(MpdPrefilterMask(lengths.data(), sigs.data(), hists.data(), 1,
                                 4, sig, hist_a.data(), bound),
                bound >= 2 ? 1u : 0u)
          << "bound=" << bound << " simd=" << enabled;
    }
  }
}

TEST(SimdMpdPrefilterTest, SaturatedCountsMatchScalar) {
  // Counts pinned at or near 255 on both sides (runs of more than 255 of
  // one byte), every chunk size, bounds straddling the count gate.
  Rng rng(0x5A7);
  for (size_t count : {size_t{1}, size_t{7}, size_t{8}, size_t{9},
                       size_t{33}, size_t{64}}) {
    for (int trial = 0; trial < 30; ++trial) {
      std::vector<uint8_t> hist_a(kMpdHistBytes, 0);
      for (size_t k = 0; k < 4; ++k) {
        hist_a[rng.NextBounded(kMpdHistBytes)] =
            static_cast<uint8_t>(250 + rng.NextBounded(6));
      }
      const int32_t len_a = 300 + static_cast<int32_t>(rng.NextBounded(700));
      std::vector<int32_t> lengths(count);
      std::vector<uint64_t> sigs(count, ~uint64_t{0});
      for (size_t i = 0; i < count; ++i) {
        lengths[i] = len_a + static_cast<int32_t>(rng.NextBounded(6));
      }
      const std::vector<uint8_t> hists =
          NearbyHistograms(rng, hist_a, count, 8, 3);
      const int32_t bound = static_cast<int32_t>(rng.NextBounded(130));
      ExpectMpdMaskMatchesScalar(lengths, sigs, hists, len_a, ~uint64_t{0},
                                 hist_a, bound);
    }
  }
}

// ---------------------------------------------------------------------------
// binary16 conversions.

TEST(SimdHalfTest, RoundTripIsIdentityForEveryNonNanPattern) {
  for (uint32_t bits = 0; bits < 65536; ++bits) {
    const uint16_t half = static_cast<uint16_t>(bits);
    const float widened = HalfToFloat(half);
    if (std::isnan(widened)) {
      // NaN payloads canonicalize; the result must still be a NaN half.
      const uint16_t back = FloatToHalf(widened);
      EXPECT_TRUE((back & 0x7c00) == 0x7c00 && (back & 0x03ff) != 0)
          << std::hex << bits;
      continue;
    }
    EXPECT_EQ(FloatToHalf(widened), half) << std::hex << bits;
  }
}

TEST(SimdHalfTest, WideningIsExactAtKnownPoints) {
  EXPECT_EQ(HalfToFloat(0x0000), 0.0f);
  EXPECT_TRUE(std::signbit(HalfToFloat(0x8000)));
  EXPECT_EQ(HalfToFloat(0x3C00), 1.0f);
  EXPECT_EQ(HalfToFloat(0xC000), -2.0f);
  EXPECT_EQ(HalfToFloat(0x7BFF), 65504.0f);          // largest finite
  EXPECT_EQ(HalfToFloat(0x0400), 0x1p-14f);          // smallest normal
  EXPECT_EQ(HalfToFloat(0x0001), 0x1p-24f);          // smallest subnormal
  EXPECT_EQ(HalfToFloat(0x03FF), 0x1.FF8p-15f);      // largest subnormal
  EXPECT_EQ(HalfToFloat(0x7C00), std::numeric_limits<float>::infinity());
  EXPECT_EQ(HalfToFloat(0xFC00), -std::numeric_limits<float>::infinity());
}

TEST(SimdHalfTest, NarrowingRoundsToNearestEvenAndSaturates) {
  // Exactly halfway between 1.0 (mantissa 0, even) and 1.0 + 2^-10.
  EXPECT_EQ(FloatToHalf(1.0f + 0x1p-11f), 0x3C00);
  // Just above halfway rounds up.
  EXPECT_EQ(FloatToHalf(1.0f + 0x1p-11f + 0x1p-20f), 0x3C01);
  // Halfway between consecutive odd/even mantissas rounds to even (up).
  EXPECT_EQ(FloatToHalf(HalfToFloat(0x3C01) + 0x1p-11f), 0x3C02);
  // Below the subnormal midpoint flushes to zero; above it rounds up.
  EXPECT_EQ(FloatToHalf(0x1p-25f), 0x0000);
  EXPECT_EQ(FloatToHalf(0x1p-25f + 0x1p-40f), 0x0001);
  // Saturation: 65520 is the f16 overflow threshold under RNE.
  EXPECT_EQ(FloatToHalf(65519.0f), 0x7BFF);
  EXPECT_EQ(FloatToHalf(65520.0f), 0x7C00);
  EXPECT_EQ(FloatToHalf(-65520.0f), 0xFC00);
  EXPECT_EQ(FloatToHalf(std::numeric_limits<float>::max()), 0x7C00);
}

TEST(SimdHalfTest, NarrowingIsMonotone) {
  // Monotonicity is what lets the f16 encoder quantize sorted arrays
  // and merge-sort trees in place: order never inverts. Sweep an
  // ascending grid spanning subnormals through saturation.
  uint16_t prev = FloatToHalf(-std::numeric_limits<float>::infinity());
  for (int step = -2048; step <= 2048; ++step) {
    const float value = static_cast<float>(step) * 33.3f;
    const uint16_t half = FloatToHalf(value);
    // Compare as signed magnitudes: flip the sign bit encoding.
    auto ordered = [](uint16_t h) {
      return (h & 0x8000) ? (0x8000 - (h & 0x7fff)) : (0x8000 + h);
    };
    EXPECT_GE(ordered(half), ordered(prev)) << value;
    prev = half;
  }
}

TEST(SimdDispatchTest, LevelNameAndToggle) {
  // The initial level may already be kScalar (UNIDETECT_DISABLE_SIMD is
  // applied at first use); SetSimdEnabled overrides in both directions
  // and always lands back on the same detected hardware level.
  EXPECT_NE(SimdLevelName(ActiveSimdLevel()), nullptr);
  SetSimdEnabled(true);
  const SimdLevel hardware = ActiveSimdLevel();
  EXPECT_NE(SimdLevelName(hardware), nullptr);
  SetSimdEnabled(false);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  SetSimdEnabled(true);
  EXPECT_EQ(ActiveSimdLevel(), hardware);
}

}  // namespace
}  // namespace simd
}  // namespace unidetect
