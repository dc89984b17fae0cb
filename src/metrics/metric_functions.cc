#include "metrics/metric_functions.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <map>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "metrics/edit_distance.h"
#include "util/simd.h"
#include "util/string_util.h"

namespace unidetect {

RowMask MakeRowMask(size_t num_rows, const std::vector<size_t>& rows) {
  RowMask mask(num_rows, false);
  for (const size_t row : rows) {
    if (row < num_rows) mask[row] = true;
  }
  return mask;
}

namespace {

bool IsDropped(const RowMask& dropped, size_t row) {
  return row < dropped.size() && dropped[row];
}

}  // namespace

UrProfile ComputeUrProfile(const Column& column, const RowMask& dropped) {
  UrProfile out;
  const ColumnEncoding& enc = column.Encoding();
  std::vector<bool> seen(enc.num_distinct(), false);
  size_t total = 0;
  size_t distinct = 0;
  for (size_t row = 0; row < column.size(); ++row) {
    const uint32_t id = enc.ids[row];
    if (id == ColumnEncoding::kEmpty || IsDropped(dropped, row)) continue;
    ++total;
    if (seen[id]) {
      out.duplicate_rows.push_back(row);
    } else {
      seen[id] = true;
      ++distinct;
    }
  }
  if (total == 0) return out;
  out.valid = true;
  out.ur = static_cast<double>(distinct) / static_cast<double>(total);
  const double remaining =
      static_cast<double>(total - out.duplicate_rows.size());
  out.ur_perturbed =
      remaining > 0 ? static_cast<double>(distinct) / remaining : 1.0;
  return out;
}

namespace {

struct DistinctValue {
  std::string_view value;
  size_t first_row;
};

// The first `max_values` distinct trimmed values, in first-occurrence
// order: a prefix of the column's value ids.
std::vector<DistinctValue> CollectDistinctValues(const Column& column,
                                                 const MpdOptions& options) {
  const ColumnEncoding& enc = column.Encoding();
  const size_t n = std::min(enc.num_distinct(), options.max_values);
  std::vector<DistinctValue> values;
  values.reserve(n);
  for (uint32_t id = 0; id < n; ++id) {
    values.push_back({column.EncodedValue(id), enc.first_rows[id]});
  }
  return values;
}

// Closest pair among `values`, optionally excluding one index.
struct ClosestPair {
  size_t dist = std::numeric_limits<size_t>::max();
  size_t i = 0;
  size_t j = 0;
};

// The seed implementation of the bounded distance (banded DP with per-call
// allocations), kept verbatim so ComputeMpdProfileReference benchmarks the
// pre-optimization cost and property tests have an independent oracle.
size_t ReferenceBoundedEditDistance(std::string_view a, std::string_view b,
                                    size_t bound) {
  if (a.size() > b.size()) std::swap(a, b);
  const size_t n = a.size();
  const size_t m = b.size();
  if (m - n > bound) return bound + 1;
  if (n == 0) return m;

  const size_t kInf = bound + 1;
  std::vector<size_t> row(n + 1, kInf);
  std::vector<size_t> next(n + 1, kInf);
  for (size_t i = 0; i <= std::min(n, bound); ++i) row[i] = i;

  for (size_t j = 1; j <= m; ++j) {
    std::fill(next.begin(), next.end(), kInf);
    const size_t lo = j > bound ? j - bound : 0;
    const size_t hi = std::min(n, j + bound);
    if (lo == 0) next[0] = j <= bound ? j : kInf;
    size_t row_min = next[0];
    for (size_t i = std::max<size_t>(lo, 1); i <= hi; ++i) {
      const size_t sub = row[i - 1] == kInf
                             ? kInf
                             : row[i - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
      const size_t del = row[i] == kInf ? kInf : row[i] + 1;
      const size_t ins = next[i - 1] == kInf ? kInf : next[i - 1] + 1;
      next[i] = std::min({sub, del, ins, kInf});
      row_min = std::min(row_min, next[i]);
    }
    if (row_min > bound) return bound + 1;
    std::swap(row, next);
  }
  return std::min(row[n], kInf);
}

ClosestPair FindClosestPair(const std::vector<DistinctValue>& values,
                            size_t cap, size_t exclude) {
  ClosestPair best;
  for (size_t i = 0; i < values.size(); ++i) {
    if (i == exclude) continue;
    for (size_t j = i + 1; j < values.size(); ++j) {
      if (j == exclude) continue;
      const size_t bound = best.dist == std::numeric_limits<size_t>::max()
                               ? cap
                               : std::min(cap, best.dist);
      const size_t d =
          ReferenceBoundedEditDistance(values[i].value, values[j].value, bound);
      if (d < best.dist) {
        best.dist = d;
        best.i = i;
        best.j = j;
        if (d == 1) return best;  // cannot do better for distinct values
      }
    }
  }
  return best;
}

// ---------------------------------------------------------------------------
// Single-pass closest-pair search.
//
// One scan over all value pairs yields the closest pair AND the closest
// distances avoiding each of its endpoints (the two perturbed MPDs),
// replacing the three full scans of the reference implementation.
//
// Correctness of the single pass rests on a 4-tracker invariant. Besides
// the running best pair B = (bi, bj), three buckets hold the minimum
// distance among scanned pairs classified RELATIVE TO THE CURRENT BEST:
// pairs touching bi only, pairs touching bj only, and pairs disjoint from
// both. When B is dethroned, the (at most four) retained argmin pairs are
// reclassified against the new endpoints. A pair dropped from a bucket
// always loses to a same-bucket pair of smaller-or-equal distance, and
// buckets separate "touches v" from "avoids v" whenever v is an endpoint
// of the current best — which is exactly when losing an avoids-v pair to
// a touches-v pair could corrupt the final answer. Hence at every moment
// the minimum over scanned pairs avoiding bi (resp. bj) is attained by a
// retained candidate, and at the end of the scan the two exclusion minima
// are exact. (The property test in metric_functions_test.cc checks this
// against the three-scan reference on randomized columns.)
//
// All distances are clamped to cap + 1, matching the adaptive bounds of
// the reference scans. The best pair additionally tracks the
// lexicographically-smallest (i, j) among ties, which is the pair the
// reference's in-order strict-improvement scan selects.
//
// Which pairs can be skipped (ScanNeeds): a pair P at distance d is
// never needed when d exceeds min(best.dist, cap) and the retained pairs
// DOMINATE it: for every value v that P avoids, some retained pair at
// distance <= d avoids v too. Then no choice of final endpoints makes P
// the minimum avoiding one of them, and dominance is transitive through
// later bucket replacements and dethrones (a replaced argmin is itself
// dominated by its replacement plus the best pair). With B the best pair
// (which avoids every v other than bi and bj, at a distance below d):
//   P touches bi only: any retained pair avoiding bj at distance <= d
//     completes the cover, i.e. the touch_i or the disjoint argmin;
//   P touches bj only: symmetrically, touch_j or disjoint;
//   P is disjoint: the disjoint argmin alone, or touch_i and touch_j
//     together (touch_j avoids bi, touch_i avoids bj).
// So each class needs exact distances only up to one below the
// smallest such cover, and never below min(best.dist, cap) (ties with the
// best decide the lexicographic rule).

constexpr size_t kNoPair = std::numeric_limits<size_t>::max();

struct PairTracker {
  size_t dist;
  size_t i = kNoPair;
  size_t j = kNoPair;
};

struct SinglePassResult {
  ClosestPair best;
  size_t excl_i = 0;  ///< min distance over pairs avoiding best.i (clamped)
  size_t excl_j = 0;  ///< min distance over pairs avoiding best.j (clamped)
};

// Value-index pairs (i < j), possibly repeated.
using PairList = std::vector<std::pair<uint32_t, uint32_t>>;

// 64-bit character-presence signature; folding via `c & 63` only merges
// bits, which can weaken but never invalidate the derived lower bound.
uint64_t CharSignature(std::string_view s) {
  uint64_t sig = 0;
  for (const char c : s) sig |= uint64_t{1} << (static_cast<unsigned char>(c) & 63);
  return sig;
}

// Per-class byte counts over the signature's `c & 63` classes, saturating
// at 255: the input of the prefilter's count gate (util/simd.h).
void CountHistogram(std::string_view s, uint8_t* hist) {
  for (const char c : s) {
    uint8_t& count = hist[static_cast<unsigned char>(c) & 63];
    if (count < 255) ++count;
  }
}

// Lower bound on the edit distance: every unit edit can eliminate at most
// one character present in a but absent from b, and introduce at most one
// present in b but absent from a.
size_t SignatureLowerBound(uint64_t sa, uint64_t sb) {
  const auto a_only = static_cast<size_t>(std::popcount(sa & ~sb));
  const auto b_only = static_cast<size_t>(std::popcount(sb & ~sa));
  return std::max(a_only, b_only);
}

int32_t ClampToInt32(size_t v) {
  return static_cast<int32_t>(
      std::min(v, static_cast<size_t>(std::numeric_limits<int32_t>::max())));
}

// `distance_one` lists every distance-1 pair (DistanceOnePairs), or is
// empty when there is none or it was not computed.
SinglePassResult SinglePassClosestPair(const std::vector<DistinctValue>& values,
                                       size_t cap,
                                       const PairList& distance_one) {
  const size_t n = values.size();
  const size_t far = cap + 1;

  // When no pair is within cap, every pair clamps to cap + 1 and the
  // reference scan reports the first pair it evaluated: seed the best
  // tracker with exactly that outcome.
  ClosestPair best{far, 0, 1};
  PairTracker touch_i{far};    // pairs sharing best.i only
  PairTracker touch_j{far};    // pairs sharing best.j only
  PairTracker disjoint{far};   // pairs avoiding both endpoints

  // Classifies (i, j, d) into the bucket it belongs to under the current
  // best and records it on improvement.
  const auto bucket_of = [&](size_t i, size_t j) -> PairTracker& {
    const bool on_i = i == best.i || j == best.i;
    const bool on_j = i == best.j || j == best.j;
    return on_i ? touch_i : (on_j ? touch_j : disjoint);
  };
  const auto offer_to_bucket = [&](size_t i, size_t j, size_t d) {
    PairTracker& bucket = bucket_of(i, j);
    if (d < bucket.dist) bucket = {d, i, j};
  };
  const auto result = [&] {
    SinglePassResult out;
    out.best = best;
    out.excl_i = std::min(disjoint.dist, touch_j.dist);
    out.excl_j = std::min(disjoint.dist, touch_i.dist);
    return out;
  };

  // Known distance-1 pairs settle the best pair up front: values are
  // distinct, so 1 is the minimum, and the lexicographically smallest
  // distance-1 pair is the reference's pick. Every other pair is offered
  // to the buckets as if already scanned. No later pair can dethrone
  // this best, so the invariant holds from here on; when pairs avoiding
  // each endpoint are among them, both exclusion minima are 1 already.
  if (!distance_one.empty()) {
    const auto [i, j] = *std::min_element(distance_one.begin(),
                                          distance_one.end());
    best = {1, i, j};
    for (const auto& [p, q] : distance_one) {
      if (p != i || q != j) offer_to_bucket(p, q, 1);
    }
    const SinglePassResult seeded = result();
    if (seeded.excl_i == 1 && seeded.excl_j == 1) return seeded;
  }

  // Length-sorted processing: similar-length pairs (the likely close ones)
  // are scanned first, so the adaptive thresholds collapse early and the
  // length-gap prefilter can break out of the inner loop. The shorter (or
  // equal) value of every scanned pair is the probe value `va`.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const size_t la = values[a].value.size();
    const size_t lb = values[b].value.size();
    return la != lb ? la < lb : a < b;
  });

  // Lengths, signatures and count histograms in scan (length-sorted)
  // order so the SIMD prefilter reads contiguous arrays. Lengths clamp to
  // int32; clamping can only weaken the prefilter (admit extra
  // candidates), and every survivor still goes through the exact
  // per-pair gates below.
  constexpr size_t kHist = simd::kMpdHistBytes;
  std::vector<int32_t> ord_len(n);
  std::vector<uint64_t> ord_sig(n);
  std::vector<uint8_t> ord_hist(n * kHist, 0);
  for (size_t p = 0; p < n; ++p) {
    const std::string_view v = values[order[p]].value;
    ord_len[p] = ClampToInt32(v.size());
    ord_sig[p] = CharSignature(v);
    CountHistogram(v, ord_hist.data() + p * kHist);
  }

  // Per-class `need` (the skipping rule at the top of this section): the
  // largest distance at which a pair of that class can still change the
  // result. `any` is the largest of the three.
  struct ScanNeeds {
    size_t touch_i;
    size_t touch_j;
    size_t disjoint;
    size_t any;
  };
  const auto needs = [&] {
    const size_t floor = std::min(best.dist, cap);
    const auto below = [&](size_t cover) {
      return std::max(floor, cover == 0 ? size_t{0} : cover - 1);
    };
    ScanNeeds out;
    out.touch_i = below(std::min(touch_i.dist, disjoint.dist));
    out.touch_j = below(std::min(touch_j.dist, disjoint.dist));
    out.disjoint =
        below(std::min(disjoint.dist, std::max(touch_i.dist, touch_j.dist)));
    out.any = std::max({out.touch_i, out.touch_j, out.disjoint});
    return out;
  };

  // scratch.pattern holds va when it fits one word; longer values take
  // BoundedEditDistance's banded path, which leaves the pattern alone.
  EditDistanceScratch scratch;

  for (size_t a = 0; a < n; ++a) {
    const size_t va = order[a];
    const std::string_view value_a = values[va].value;
    const int32_t len_a = ord_len[a];
    const uint64_t sig_a = ord_sig[a];
    const uint8_t* hist_a = ord_hist.data() + a * kHist;
    const bool bit_parallel = value_a.size() <= MyersPattern::kMaxLength;
    if (bit_parallel) scratch.pattern.Assign(value_a);
    bool done_a = false;
    size_t b = a + 1;
    // Candidates are masked 64 at a time through the SIMD length/
    // signature/count gates at a chunk-entry bound, then only survivors
    // run the exact scalar per-pair logic. Sound because every need is
    // non-increasing while no dethrone happens (buckets only shrink), so
    // a chunk-entry bound over-approximates every later per-pair `need`
    // in the chunk: masked-out pairs are exactly pairs the sequential
    // scan would have skipped anyway. While va is an endpoint of the
    // best pair, every candidate pair touches that endpoint, so the
    // bound is that class's need. A dethrone resets the buckets (the
    // bound can jump back up), so the rest of the chunk is re-masked
    // from the pair after it.
    while (b < n && !done_a) {
      const ScanNeeds entry = needs();
      if (static_cast<size_t>(ord_len[b] - len_a) > entry.any) {
        break;  // later b's are even longer
      }
      const size_t chunk = std::min<size_t>(64, n - b);
      const size_t mask_bound = va == best.i   ? entry.touch_i
                                : va == best.j ? entry.touch_j
                                               : entry.any;
      uint64_t mask = simd::MpdPrefilterMask(
          ord_len.data() + b, ord_sig.data() + b, ord_hist.data() + b * kHist,
          chunk, len_a, sig_a, hist_a, ClampToInt32(mask_bound));
      size_t next_b = b + chunk;
      while (mask != 0) {
        const size_t bidx = b + static_cast<size_t>(std::countr_zero(mask));
        mask &= mask - 1;
        const size_t vb = order[bidx];
        const ScanNeeds now = needs();
        const size_t gap = static_cast<size_t>(ord_len[bidx] - len_a);
        if (gap > now.any) {
          // Skipped candidates between survivors never update trackers,
          // so the needs are unchanged since the previous evaluation and
          // gap is non-decreasing: the sequential scan would have broken
          // at or before this pair.
          done_a = true;
          break;
        }

        const size_t i = std::min(va, vb);
        const size_t j = std::max(va, vb);
        const bool on_i = i == best.i || j == best.i;
        const bool on_j = i == best.j || j == best.j;
        // A best pair seeded from `distance_one` is already scored.
        if (on_i && on_j && best.dist <= cap) continue;
        const size_t need =
            on_i ? now.touch_i : (on_j ? now.touch_j : now.disjoint);
        if (gap > need) continue;
        if (SignatureLowerBound(sig_a, ord_sig[bidx]) > need) continue;

        const std::string_view value_b = values[vb].value;
        const size_t d =
            bit_parallel
                ? scratch.pattern.BoundedDistance(value_b, need)
                : BoundedEditDistance(value_a, value_b, need, &scratch);
        if (d > need) continue;  // beyond every tracker's interest

        if (d < best.dist ||
            (d == best.dist &&
             (i < best.i || (i == best.i && j < best.j)))) {
          // Dethrone: the old best and the bucket argmins are the only
          // candidates that can seed the buckets of the new best.
          const ClosestPair old_best = best;
          const PairTracker old[3] = {touch_i, touch_j, disjoint};
          best = {d, i, j};
          touch_i = {far};
          touch_j = {far};
          disjoint = {far};
          if (old_best.dist < far) {
            offer_to_bucket(old_best.i, old_best.j, old_best.dist);
          }
          for (const PairTracker& t : old) {
            if (t.i != kNoPair) offer_to_bucket(t.i, t.j, t.dist);
          }
          next_b = bidx + 1;  // stale mask: re-filter the rest of the chunk
          break;
        }
        offer_to_bucket(i, j, d);
      }
      b = next_b;
    }
  }
  return result();
}

// ---------------------------------------------------------------------------
// Exact distance-1 pairs.
//
// Two distinct strings are at edit distance 1 exactly when
//   (a) they have equal length and differ in one position k, so they
//       agree after deleting position k from both (one substitution), or
//   (b) one is one character longer and equals the other after one
//       deletion (one insertion).
// So every distance-1 pair shows up as a collision between the
// single-deletion variants of equal-length values with the same k, or
// between a value and a deletion variant of a value one longer. The
// variants are hashed (never materialized) into a chained hash table,
// and every same-hash collision is checked against (a)/(b) character by
// character, so the listed pairs are exactly the distance-1 pairs.
//
// When a distance-1 pair exists, it is the minimum (values are distinct),
// the closest pair is the lexicographically smallest distance-1 (i, j),
// and each perturbed MPD is 1 iff some distance-1 pair avoids that
// endpoint. SinglePassClosestPair starts from these pairs: if both
// endpoints are avoided the profile is settled without a pair scan;
// otherwise the scan runs from best = 1 (an exclusion minimum above 1
// still needs it).

constexpr int32_t kWholeValue = -1;  // the value itself, no deletion
constexpr uint32_t kNoVariant = std::numeric_limits<uint32_t>::max();

struct DeletionVariant {
  uint64_t hash;
  uint32_t value;  // index into the distinct values
  int32_t skip;    // deleted position, or kWholeValue
};

// Character `t` of `s` with position `skip` deleted.
char VariantChar(std::string_view s, int32_t skip, size_t t) {
  return skip >= 0 && t >= static_cast<size_t>(skip) ? s[t + 1] : s[t];
}

// Whether variants x and y witness a distance-1 pair by rule (a) or (b).
bool IsDistanceOneWitness(const std::vector<DistinctValue>& values,
                          const DeletionVariant& x, const DeletionVariant& y) {
  if (x.value == y.value) return false;
  const std::string_view a = values[x.value].value;
  const std::string_view b = values[y.value].value;
  const bool substitution =
      x.skip >= 0 && x.skip == y.skip && a.size() == b.size();
  const bool insertion =
      (x.skip == kWholeValue && y.skip >= 0 && b.size() == a.size() + 1) ||
      (y.skip == kWholeValue && x.skip >= 0 && a.size() == b.size() + 1);
  if (!substitution && !insertion) return false;
  const size_t len = a.size() - (x.skip >= 0 ? 1 : 0);
  for (size_t t = 0; t < len; ++t) {
    if (VariantChar(a, x.skip, t) != VariantChar(b, y.skip, t)) return false;
  }
  return true;
}

PairList DistanceOnePairs(const std::vector<DistinctValue>& values) {
  // Polynomial hash over bytes + 1 (so NUL bytes still move the hash).
  constexpr uint64_t kBase = 0x100000001b3ULL;
  size_t num_variants = 0;
  for (const DistinctValue& v : values) num_variants += v.value.size() + 1;
  std::vector<DeletionVariant> variants;
  variants.reserve(num_variants);
  // Open addressing on the hash; each slot heads a chain (`next`) of the
  // variants sharing that exact 64-bit hash.
  const size_t slots = std::bit_ceil(2 * num_variants);
  // Fibonacci hashing: the top bits of the product mix every hash bit
  // (the low bits of a polynomial hash are weak).
  const int slot_shift = 64 - std::countr_zero(slots);
  std::vector<uint32_t> head(slots, kNoVariant);
  std::vector<uint32_t> next(num_variants, kNoVariant);
  PairList pairs;
  const auto insert = [&](const DeletionVariant& variant) {
    const auto self = static_cast<uint32_t>(variants.size());
    variants.push_back(variant);
    size_t slot = static_cast<size_t>(
        (variant.hash * 0x9e3779b97f4a7c15ULL) >> slot_shift);
    while (head[slot] != kNoVariant &&
           variants[head[slot]].hash != variant.hash) {
      slot = (slot + 1) & (slots - 1);
    }
    for (uint32_t o = head[slot]; o != kNoVariant; o = next[o]) {
      if (IsDistanceOneWitness(values, variants[o], variant)) {
        // Chained variants belong to earlier values: o's value < ours.
        pairs.emplace_back(variants[o].value, variant.value);
      }
    }
    next[self] = head[slot];
    head[slot] = self;
  };

  std::vector<uint64_t> prefix;
  std::vector<uint64_t> suffix;
  std::vector<uint64_t> power;
  for (size_t v = 0; v < values.size(); ++v) {
    const std::string_view s = values[v].value;
    const size_t len = s.size();
    prefix.assign(len + 1, 0);
    suffix.assign(len + 1, 0);
    power.assign(len + 1, 1);
    for (size_t t = 0; t < len; ++t) {
      power[t + 1] = power[t] * kBase;
      prefix[t + 1] =
          prefix[t] * kBase + static_cast<unsigned char>(s[t]) + 1;
    }
    for (size_t t = len; t-- > 0;) {
      suffix[t] = (static_cast<uint64_t>(static_cast<unsigned char>(s[t])) +
                   1) * power[len - 1 - t] +
                  suffix[t + 1];
    }
    const auto idx = static_cast<uint32_t>(v);
    insert({prefix[len], idx, kWholeValue});
    for (size_t k = 0; k < len; ++k) {
      insert({prefix[k] * power[len - 1 - k] + suffix[k + 1], idx,
              static_cast<int32_t>(k)});
    }
  }
  return pairs;
}

double AvgDifferingTokenLength(std::string_view a, std::string_view b) {
  std::vector<std::string> ta = TokenizeCell(a);
  std::vector<std::string> tb = TokenizeCell(b);
  // Multiset difference in both directions.
  std::map<std::string, int> counts;
  for (const auto& t : ta) counts[t]++;
  for (const auto& t : tb) counts[t]--;
  double total_len = 0.0;
  size_t n = 0;
  for (const auto& [token, count] : counts) {
    if (count == 0) continue;
    total_len += static_cast<double>(token.size()) *
                 static_cast<double>(std::abs(count));
    n += static_cast<size_t>(std::abs(count));
  }
  if (n > 0) return total_len / static_cast<double>(n);
  // Values differ only in separators; fall back to mean token length.
  total_len = 0.0;
  n = 0;
  for (const auto& t : ta) {
    total_len += static_cast<double>(t.size());
    ++n;
  }
  for (const auto& t : tb) {
    total_len += static_cast<double>(t.size());
    ++n;
  }
  return n > 0 ? total_len / static_cast<double>(n)
               : static_cast<double>(a.size() + b.size()) / 2.0;
}

bool IsMpdEligible(const Column& column) {
  const ColumnType type = column.type();
  // Numeric-ish columns are not spelling targets.
  return type != ColumnType::kInteger && type != ColumnType::kFloat &&
         type != ColumnType::kDate;
}

}  // namespace

MpdProfile ComputeMpdProfile(const Column& column, const MpdOptions& options) {
  MpdProfile out;
  if (!IsMpdEligible(column)) return out;

  const std::vector<DistinctValue> values =
      CollectDistinctValues(column, options);
  if (values.size() < 3) return out;

  const SinglePassResult found = SinglePassClosestPair(
      values, options.distance_cap,
      options.distance_cap >= 1 ? DistanceOnePairs(values) : PairList{});

  out.valid = true;
  out.mpd = std::min(found.best.dist, options.distance_cap + 1);
  out.row_a = values[found.best.i].first_row;
  out.row_b = values[found.best.j].first_row;
  out.value_a = std::string(values[found.best.i].value);
  out.value_b = std::string(values[found.best.j].value);
  out.avg_diff_token_length = AvgDifferingTokenLength(
      values[found.best.i].value, values[found.best.j].value);

  // Perturbation: drop whichever endpoint of the closest pair makes the
  // remaining column "cleanest" (largest perturbed MPD => smallest LR).
  const size_t mpd_i = std::min(found.excl_i, options.distance_cap + 1);
  const size_t mpd_j = std::min(found.excl_j, options.distance_cap + 1);
  if (mpd_i >= mpd_j) {
    out.mpd_perturbed = mpd_i;
    out.drop_row = out.row_a;
  } else {
    out.mpd_perturbed = mpd_j;
    out.drop_row = out.row_b;
  }
  return out;
}

MpdProfile ComputeMpdProfileReference(const Column& column,
                                      const MpdOptions& options) {
  MpdProfile out;
  if (!IsMpdEligible(column)) return out;

  const std::vector<DistinctValue> values =
      CollectDistinctValues(column, options);
  if (values.size() < 3) return out;

  const size_t no_exclude = std::numeric_limits<size_t>::max();
  const ClosestPair closest =
      FindClosestPair(values, options.distance_cap, no_exclude);
  if (closest.dist == std::numeric_limits<size_t>::max()) return out;

  out.valid = true;
  out.mpd = std::min(closest.dist, options.distance_cap + 1);
  out.row_a = values[closest.i].first_row;
  out.row_b = values[closest.j].first_row;
  out.value_a = std::string(values[closest.i].value);
  out.value_b = std::string(values[closest.j].value);
  out.avg_diff_token_length =
      AvgDifferingTokenLength(values[closest.i].value, values[closest.j].value);

  const ClosestPair without_i =
      FindClosestPair(values, options.distance_cap, closest.i);
  const ClosestPair without_j =
      FindClosestPair(values, options.distance_cap, closest.j);
  const size_t mpd_i = std::min(without_i.dist, options.distance_cap + 1);
  const size_t mpd_j = std::min(without_j.dist, options.distance_cap + 1);
  if (mpd_i >= mpd_j) {
    out.mpd_perturbed = mpd_i;
    out.drop_row = out.row_a;
  } else {
    out.mpd_perturbed = mpd_j;
    out.drop_row = out.row_b;
  }
  return out;
}

FrProfile ComputeFrProfile(const Column& lhs, const Column& rhs,
                           const RowMask& dropped) {
  FrProfile out;
  const size_t n = std::min(lhs.size(), rhs.size());
  if (n == 0) return out;
  const ColumnEncoding& lhs_enc = lhs.Encoding();
  const ColumnEncoding& rhs_enc = rhs.Encoding();
  const auto used = [&](size_t row) {
    return lhs_enc.ids[row] != ColumnEncoding::kEmpty &&
           rhs_enc.ids[row] != ColumnEncoding::kEmpty &&
           !IsDropped(dropped, row);
  };

  // Counting sort of the used rows by lhs id: group g's rows are
  // by_lhs[start[g], start[g + 1]), ascending.
  const size_t num_lhs = lhs_enc.num_distinct();
  std::vector<size_t> start(num_lhs + 1, 0);
  size_t used_rows = 0;
  for (size_t row = 0; row < n; ++row) {
    if (!used(row)) continue;
    ++start[lhs_enc.ids[row] + 1];
    ++used_rows;
  }
  if (used_rows == 0) return out;
  size_t groups = 0;
  for (size_t g = 0; g < num_lhs; ++g) {
    if (start[g + 1] > 0) ++groups;
    start[g + 1] += start[g];
  }
  // Degenerate candidates where an FD is trivially true or meaningless:
  // a single-group lhs is a constant column.
  if (groups <= 1) return out;
  std::vector<size_t> by_lhs(used_rows);
  {
    std::vector<size_t> cursor(start.begin(), start.end() - 1);
    for (size_t row = 0; row < n; ++row) {
      if (used(row)) by_lhs[cursor[lhs_enc.ids[row]]++] = row;
    }
  }

  // Per group, tally rows and first row per rhs id. `stamp` marks which
  // group last touched an rhs id, so the tallies reset lazily.
  const size_t num_rhs = rhs_enc.num_distinct();
  std::vector<size_t> stamp(num_rhs, num_lhs);
  std::vector<size_t> tally(num_rhs, 0);
  std::vector<size_t> first_row(num_rhs, 0);
  std::vector<uint32_t> group_rhs;
  size_t distinct_pairs = 0;
  size_t conforming_pairs = 0;
  for (size_t g = 0; g < num_lhs; ++g) {
    if (start[g] == start[g + 1]) continue;
    group_rhs.clear();
    for (size_t p = start[g]; p < start[g + 1]; ++p) {
      const uint32_t r = rhs_enc.ids[by_lhs[p]];
      if (stamp[r] != g) {
        stamp[r] = g;
        tally[r] = 0;
        first_row[r] = by_lhs[p];
        group_rhs.push_back(r);
      }
      ++tally[r];
    }
    distinct_pairs += group_rhs.size();
    if (group_rhs.size() == 1) {
      ++conforming_pairs;
      continue;
    }
    ++out.violating_groups;
    // Keep the majority rhs (ties: the one appearing first); all rows of
    // the minority rhs values form the perturbation set.
    uint32_t best = group_rhs.front();
    for (const uint32_t r : group_rhs) {
      if (tally[r] > tally[best] ||
          (tally[r] == tally[best] && first_row[r] < first_row[best])) {
        best = r;
      }
    }
    for (size_t p = start[g]; p < start[g + 1]; ++p) {
      if (rhs_enc.ids[by_lhs[p]] != best) {
        out.violating_rows.push_back(by_lhs[p]);
      }
    }
  }
  out.valid = true;
  out.fr = static_cast<double>(conforming_pairs) /
           static_cast<double>(distinct_pairs);
  // Dropping all minority rows leaves exactly one rhs per lhs group.
  out.fr_perturbed = 1.0;
  std::sort(out.violating_rows.begin(), out.violating_rows.end());
  return out;
}

FrProfile ComputeFrProfileReference(const Column& lhs, const Column& rhs) {
  FrProfile out;
  const size_t n = std::min(lhs.size(), rhs.size());
  if (n == 0) return out;

  // Group rows by lhs value; within each group count distinct rhs values.
  struct Group {
    std::unordered_map<std::string_view, std::vector<size_t>> rhs_rows;
  };
  std::unordered_map<std::string_view, Group> groups;
  size_t used_rows = 0;
  for (size_t row = 0; row < n; ++row) {
    std::string_view l = Trim(lhs.cell(row));
    std::string_view r = Trim(rhs.cell(row));
    if (l.empty() || r.empty()) continue;
    ++used_rows;
    groups[l].rhs_rows[r].push_back(row);
  }
  if (used_rows == 0) return out;

  // Degenerate candidates where an FD is trivially true or meaningless:
  // lhs (almost) all-distinct pairs carry no repeat evidence, and a
  // single-group lhs is a constant column.
  if (groups.size() <= 1) return out;

  size_t distinct_pairs = 0;
  size_t conforming_pairs = 0;
  for (auto& [l, group] : groups) {
    distinct_pairs += group.rhs_rows.size();
    if (group.rhs_rows.size() == 1) {
      conforming_pairs += 1;
      continue;
    }
    ++out.violating_groups;
    // Keep the majority rhs (ties: the one appearing first); all rows of
    // the minority rhs values form the perturbation set.
    size_t best_support = 0;
    size_t best_first_row = std::numeric_limits<size_t>::max();
    std::string_view best_rhs;
    for (const auto& [r, rows] : group.rhs_rows) {
      if (rows.size() > best_support ||
          (rows.size() == best_support && rows.front() < best_first_row)) {
        best_support = rows.size();
        best_first_row = rows.front();
        best_rhs = r;
      }
    }
    for (const auto& [r, rows] : group.rhs_rows) {
      if (r == best_rhs) continue;
      out.violating_rows.insert(out.violating_rows.end(), rows.begin(),
                                rows.end());
    }
  }
  out.valid = true;
  out.fr = static_cast<double>(conforming_pairs) /
           static_cast<double>(distinct_pairs);
  // Dropping all minority rows leaves exactly one rhs per lhs group.
  out.fr_perturbed = 1.0;
  std::sort(out.violating_rows.begin(), out.violating_rows.end());
  return out;
}

}  // namespace unidetect
