#include "backend/simd_kernels.h"

#include <algorithm>

#include "backend/doc_values.h"

namespace dio::backend::simd {

namespace {

std::atomic<bool> g_enabled{true};

// The mask kernels hardcode the kind bytes so the inner loops compare plain
// integers; pin them to the enum so a ValueKind reorder cannot silently
// change kernel semantics.
constexpr auto kMissing = static_cast<std::uint8_t>(ValueKind::kMissing);
constexpr auto kInt = static_cast<std::uint8_t>(ValueKind::kInt);
constexpr auto kDouble = static_cast<std::uint8_t>(ValueKind::kDouble);
static_assert(kMissing == 0 && kInt == 1 && kDouble == 2);

}  // namespace

void SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

// ---- Bitmap word kernels ----------------------------------------------------
// 4× unrolled so the compiler emits one vector op per group instead of a
// scalar loop-carried chain; the tail (< 4 words) finishes scalar.

void AndWords(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    dst[w] &= src[w];
    dst[w + 1] &= src[w + 1];
    dst[w + 2] &= src[w + 2];
    dst[w + 3] &= src[w + 3];
  }
  for (; w < n; ++w) dst[w] &= src[w];
}

void OrWords(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    dst[w] |= src[w];
    dst[w + 1] |= src[w + 1];
    dst[w + 2] |= src[w + 2];
    dst[w + 3] |= src[w + 3];
  }
  for (; w < n; ++w) dst[w] |= src[w];
}

void AndNotWords(std::uint64_t* dst, const std::uint64_t* src, std::size_t n) {
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    dst[w] &= ~src[w];
    dst[w + 1] &= ~src[w + 1];
    dst[w + 2] &= ~src[w + 2];
    dst[w + 3] &= ~src[w + 3];
  }
  for (; w < n; ++w) dst[w] &= ~src[w];
}

void NotWords(std::uint64_t* words, std::size_t n) {
  std::size_t w = 0;
  for (; w + 4 <= n; w += 4) {
    words[w] = ~words[w];
    words[w + 1] = ~words[w + 1];
    words[w + 2] = ~words[w + 2];
    words[w + 3] = ~words[w + 3];
  }
  for (; w < n; ++w) words[w] = ~words[w];
}

// ---- Column predicate kernels -----------------------------------------------
// Shape shared by all three: 64 rows at a time, a branch-free inner compare
// loop accumulating match bits into one word, then a single OR into the
// output — the vectorizer turns the inner loop into packed compares + a
// movemask-style reduction, and the output write is 1/64th of the loads.

void RangeMaskInt64(const std::int64_t* ints, const std::uint8_t* kinds,
                    std::size_t n, std::int64_t lo, std::int64_t hi,
                    std::uint64_t* words) {
  std::size_t i = 0;
  for (std::size_t w = 0; i < n; ++w) {
    const std::size_t limit = std::min<std::size_t>(n - i, 64);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < limit; ++b, ++i) {
      const bool is_number = kinds[i] == kInt || kinds[i] == kDouble;
      const bool in_range = ints[i] >= lo && ints[i] <= hi;
      word |= static_cast<std::uint64_t>(is_number && in_range) << b;
    }
    words[w] |= word;
  }
}

void EqMaskInt64(const std::int64_t* ints, const std::uint8_t* kinds,
                 std::size_t n, std::uint8_t kind, std::int64_t value,
                 std::uint64_t* words) {
  std::size_t i = 0;
  for (std::size_t w = 0; i < n; ++w) {
    const std::size_t limit = std::min<std::size_t>(n - i, 64);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < limit; ++b, ++i) {
      word |= static_cast<std::uint64_t>(kinds[i] == kind &&
                                         ints[i] == value)
              << b;
    }
    words[w] |= word;
  }
}

void NonMissingMask(const std::uint8_t* kinds, std::size_t n,
                    std::uint64_t* words) {
  std::size_t i = 0;
  for (std::size_t w = 0; i < n; ++w) {
    const std::size_t limit = std::min<std::size_t>(n - i, 64);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < limit; ++b, ++i) {
      word |= static_cast<std::uint64_t>(kinds[i] != kMissing) << b;
    }
    words[w] |= word;
  }
}

// ---- Aggregation kernels ----------------------------------------------------

void HistogramBins(const std::int64_t* ints, const std::uint8_t* kinds,
                   std::size_t n, std::int64_t interval, std::int64_t* out) {
  const auto width = static_cast<std::uint64_t>(interval);
  std::int64_t last = 0;  // the previous row's bucket (0 is 0's bucket)
  for (std::size_t i = 0; i < n; ++i) {
    const bool is_number = kinds[i] == kInt || kinds[i] == kDouble;
    const std::int64_t v = is_number ? ints[i] : 0;
    // Rows in time order mostly fall in the previous row's bucket; a value
    // in [last, last + interval) has that bucket, so the divisions run once
    // per bucket change. Unsigned arithmetic: the difference may wrap.
    if (static_cast<std::uint64_t>(v) - static_cast<std::uint64_t>(last) <
        width) {
      out[i] = last;
      continue;
    }
    // Truncating division, shifted down one bucket for negative values that
    // are not exactly on a boundary — floor-division bucketing.
    std::int64_t bucket = v / interval * interval;
    bucket -= static_cast<std::int64_t>(v < 0 && v % interval != 0) * interval;
    out[i] = last = bucket;
  }
}

}  // namespace dio::backend::simd
