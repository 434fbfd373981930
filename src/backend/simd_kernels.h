// SIMD-friendly kernels for the columnar query engine.
//
// The doc-value columns are dense parallel arrays (kind byte + int64 +
// double per slot), so the hot predicates — bitmap combination, numeric
// range filters, ordinal equality, histogram binning — are flat loops over
// contiguous memory with no per-element branches on shared state. The
// kernels here write those loops in the shape auto-vectorizers reliably
// turn into vector code: word-at-a-time bitwise ops, 4–8× unrolled compare
// loops accumulating into a bit mask, and bucket arithmetic that divides
// once per bucket change. Every kernel has exactly the semantics of the
// scalar loop it replaces (CompiledQuery::MatchesNode / the histogram
// collector's floor-division bucketing in aggregation.cc), so routing a
// predicate through a kernel can never change a query result — only its
// cost. `backend.simd_kernels=false` keeps the original scalar loops as the
// parity/debug fallback.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace dio::backend::simd {

// Process-wide kernel switch (the `backend.simd_kernels` knob). Call sites
// in doc_values.cc / aggregation.cc consult it and fall back to their scalar
// loops when disabled. Relaxed atomic: flipping it mid-query is benign
// because both paths compute identical results.
void SetEnabled(bool enabled);
[[nodiscard]] bool Enabled();

// ---- Bitmap word kernels ----------------------------------------------------
// dst[i] op= src[i] for n 64-bit words (FilterBitmap::AndWith / OrWith).
void AndWords(std::uint64_t* dst, const std::uint64_t* src, std::size_t n);
void OrWords(std::uint64_t* dst, const std::uint64_t* src, std::size_t n);
// dst[i] &= ~src[i]; the must_not combination without a Negate round trip.
void AndNotWords(std::uint64_t* dst, const std::uint64_t* src, std::size_t n);
// words[i] = ~words[i] (FilterBitmap::Negate; caller masks the tail bits).
void NotWords(std::uint64_t* words, std::size_t n);

// ---- Column predicate kernels -----------------------------------------------
// All mask kernels OR their matches into `words` (n bits, words pre-zeroed
// or partially filled by a prior value of an OR-combined term list), and
// read `kinds` as backend::ValueKind bytes.

// Range filter: sets bit i where kinds[i] is a number (kInt or kDouble) and
// lo <= ints[i] <= hi — exactly CompiledQuery's kRange semantics (the int64
// shadow value is what the oracle compares). Open bounds are INT64_MIN/MAX.
void RangeMaskInt64(const std::int64_t* ints, const std::uint8_t* kinds,
                    std::size_t n, std::int64_t lo, std::int64_t hi,
                    std::uint64_t* words);

// Equality filter: sets bit i where kinds[i] == kind and ints[i] == value.
// Serves string terms (value = dictionary ordinal) and bool terms (0/1).
void EqMaskInt64(const std::int64_t* ints, const std::uint8_t* kinds,
                 std::size_t n, std::uint8_t kind, std::int64_t value,
                 std::uint64_t* words);

// Exists filter: sets bit i where kinds[i] != kMissing (the byte 0).
void NonMissingMask(const std::uint8_t* kinds, std::size_t n,
                    std::uint64_t* words);

// ---- Aggregation kernels ----------------------------------------------------
// Histogram binning: out[i] = floor(ints[i] / interval) * interval with the
// toward-negative-infinity adjustment the histogram aggregation applies
// ((v/interval)*interval, minus interval when v < 0 and v % interval != 0).
// Rows whose kind is not a number get out[i] = 0; callers skip them by
// re-checking kinds, so the fill value never leaks into a bucket. A row
// whose value falls in the previous row's bucket reuses it without dividing
// (time-ordered rows mostly do). `interval` must be > 0 (enforced by
// Aggregation parsing).
void HistogramBins(const std::int64_t* ints, const std::uint8_t* kinds,
                   std::size_t n, std::int64_t interval, std::int64_t* out);

}  // namespace dio::backend::simd
