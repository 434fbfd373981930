// Columnar doc-values for the ElasticStore query engine.
//
// At Refresh each segment of a SubShard appends its new rows to one typed
// column per field (Lucene doc-values shape): a kind byte per document slot
// plus parallel int64/double arrays and a string dictionary with
// lexicographic ranks. Query evaluation, sorting, and aggregation then read
// flat arrays instead of calling `Json::Find` per document per field — the
// difference between dashboard-rate analytics and a per-document tree walk.
//
// Three pieces live here:
//   * ColumnSet / DocValueColumn — one segment's column storage, append-only
//     in docid order (update-by-query rewrites single rows in place).
//   * CompiledQuery — a Query tree resolved against one ColumnSet: column
//     pointers looked up once, string terms translated to dictionary
//     ordinals, prefix predicates to rank ranges. `Eval` is the
//     column-aware replica of `Query::Matches(doc)` over every slot and
//     must agree with it bit-for-bit (the tests' JSON reference).
//   * FilterBitmap / FilterBitmapCache — dense per-segment match bitmaps
//     for leaf predicates, cached per query text and invalidated when the
//     segment's rows change, in the spirit of Lucene's cached filter
//     bitsets.
#pragma once

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "backend/query.h"
#include "common/json.h"

namespace dio::backend {

// Per-slot value kind. kOther covers the non-scalar shapes (null members,
// arrays, objects) that keep their JSON fallback; everything else is fully
// decoded into the columns.
enum class ValueKind : std::uint8_t {
  kMissing = 0,  // field absent from the document
  kInt,
  kDouble,
  kString,
  kBool,
  kOther,
};

struct DocValueColumn {
  // One entry per document slot (docid / stride), in slot order.
  std::vector<std::uint8_t> kinds;
  // kInt/kDouble: Json::as_int(); kString: dictionary ordinal; kBool: 0/1.
  std::vector<std::int64_t> ints;
  // Numbers only: Json::as_double() (drives term equality across numeric
  // types and sort comparisons, exactly like the JSON comparator).
  std::vector<double> dbls;

  // String dictionary. Ordinals are assigned in first-seen order so
  // incremental refresh never reshuffles existing slots; sorted_rank maps
  // ordinal -> lexicographic rank so a prefix predicate is an O(1) rank
  // range test per document.
  std::vector<std::string> dict;
  std::unordered_map<std::string, std::uint32_t> dict_lookup;
  std::vector<std::uint32_t> sorted_rank;  // ordinal -> rank
  std::vector<std::uint32_t> rank_to_ord;  // rank -> ordinal
  bool ranks_dirty = false;

  // Pads the parallel arrays with kMissing slots up to `slots` entries.
  void EnsureSlots(std::size_t slots) {
    if (kinds.size() >= slots) return;
    kinds.resize(slots, static_cast<std::uint8_t>(ValueKind::kMissing));
    ints.resize(slots, 0);
    dbls.resize(slots, 0.0);
  }

  [[nodiscard]] ValueKind kind(std::size_t pos) const {
    return static_cast<ValueKind>(kinds[pos]);
  }
  [[nodiscard]] bool is_number(std::size_t pos) const {
    return kind(pos) == ValueKind::kInt || kind(pos) == ValueKind::kDouble;
  }
  [[nodiscard]] std::string_view str(std::size_t pos) const {
    return dict[static_cast<std::size_t>(ints[pos])];
  }
  // Lexicographic rank range [lo, hi) of dictionary entries starting with
  // `prefix`.
  void PrefixRankRange(std::string_view prefix, std::uint32_t* lo,
                       std::uint32_t* hi) const;
};

class ColumnSet {
 public:
  // Appends one document slot (in docid order). Fields absent from this
  // document stay kMissing; fields first seen now are backfilled kMissing
  // for all earlier slots.
  void AppendDoc(const Json& doc);
  // Pads every column to the current slot count and rebuilds the
  // lexicographic ranks of dictionaries that grew. Call after a batch of
  // AppendDoc()s, before the columns become visible to queries.
  void FinishBatch();
  void Clear();

  // Typed-ingest append path (backend/typed_ingest.cc): claims the next
  // document slot without reading any Json. The appender then writes field
  // values directly into TypedColumn() cells; untouched columns are padded
  // kMissing by the next FinishBatch, exactly like a Json row that lacked
  // the field.
  std::size_t BeginTypedRow() { return num_docs_++; }
  // The named column, created empty on first use. References stay stable
  // across later insertions (std::map nodes don't move).
  DocValueColumn& TypedColumn(const std::string& field) {
    return columns_[field];
  }

  // Rewrites one existing slot from `doc` (update-by-query over a shard that
  // holds typed rows): every column's cell at `pos` is reset to kMissing,
  // then the document's members are re-decoded in place. Dictionaries only
  // grow; call FinishBatch afterwards to refresh ranks.
  void ReplaceRow(std::size_t pos, const Json& doc);

  [[nodiscard]] std::size_t num_docs() const { return num_docs_; }
  [[nodiscard]] std::size_t num_fields() const { return columns_.size(); }
  [[nodiscard]] const DocValueColumn* Find(std::string_view field) const;
  template <typename Fn>
  void ForEachField(Fn&& fn) const {
    for (const auto& [field, col] : columns_) fn(field);
  }

 private:
  void DecodeMember(DocValueColumn& col, std::size_t pos, const Json& value);

  std::map<std::string, DocValueColumn, std::less<>> columns_;
  std::size_t num_docs_ = 0;
};

// Dense bitmap over the document slots of one sub-shard.
class FilterBitmap {
 public:
  FilterBitmap() = default;
  FilterBitmap(std::size_t bits, bool value);

  [[nodiscard]] std::size_t bits() const { return bits_; }
  void Set(std::size_t pos) { words_[pos >> 6] |= 1ULL << (pos & 63); }
  [[nodiscard]] bool Test(std::size_t pos) const {
    return (words_[pos >> 6] >> (pos & 63)) & 1ULL;
  }

  void AndWith(const FilterBitmap& other);
  void OrWith(const FilterBitmap& other);
  void Negate();  // complement, with the tail bits past bits() kept zero

  // Raw word storage for the simd mask kernels (bits() bits, tail zero).
  [[nodiscard]] std::span<std::uint64_t> words() { return words_; }
  [[nodiscard]] std::span<const std::uint64_t> words() const { return words_; }

  [[nodiscard]] std::size_t CountSet() const;
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t word = words_[w];
      while (word != 0) {
        const int bit = std::countr_zero(word);
        fn((w << 6) + static_cast<std::size_t>(bit));
        word &= word - 1;
      }
    }
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

// Per-segment cache of leaf-predicate bitmaps, keyed by the
// predicate's ToString form. A cached bitmap covers exactly the rows of the
// segment it belongs to, so it stays valid for as long as those rows do:
// sealed segments keep their entries across refreshes, the growing tail's
// cache is replaced on every refresh, and update-by-query clears only the
// caches of segments whose rows it rewrote. Entries evict in LRU order once
// `capacity` is reached (capacity 0 disables caching entirely — the
// drop-all-caches parity twin). Hit/miss/eviction counts feed IndexStats.
class FilterBitmapCache {
 public:
  static constexpr std::size_t kDefaultEntries = 128;

  explicit FilterBitmapCache(std::size_t capacity = kDefaultEntries)
      : capacity_(capacity) {}

  [[nodiscard]] std::shared_ptr<const FilterBitmap> Lookup(
      const std::string& key) const;
  void Insert(const std::string& key, FilterBitmap bitmap);
  void Clear();
  // Adopts another cache's traffic counters. A refresh replaces the growing
  // tail's cache with a fresh one; carrying the old counters over keeps the
  // store's cumulative hit/miss stats from going backwards.
  void CarryCountersFrom(const FilterBitmapCache& other);

  [[nodiscard]] std::uint64_t hits() const;
  [[nodiscard]] std::uint64_t misses() const;
  [[nodiscard]] std::uint64_t evictions() const;

 private:
  struct Entry {
    std::shared_ptr<const FilterBitmap> bitmap;
    std::uint64_t last_used = 0;
  };

  std::size_t capacity_;
  mutable std::mutex mu_;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  mutable std::uint64_t tick_ = 0;
  mutable std::unordered_map<std::string, Entry> entries_;
};

// A Query resolved against one sub-shard's columns. The compiled tree owns
// no documents: `query` and `columns` must outlive it (both are pinned by
// the store's refresh lock for the duration of a request).
class CompiledQuery {
 public:
  CompiledQuery(const Query& query, const ColumnSet& columns);

  // The match bitmap over all `docs` slots, built from cached per-predicate
  // bitmaps where possible. Reads the columns for every scalar value and
  // falls back to `docs[pos]` only for kOther slots; slot for slot it
  // returns exactly what query.Matches(docs[pos]) returns.
  [[nodiscard]] FilterBitmap Eval(std::span<const Json> docs,
                                  FilterBitmapCache* cache) const;

 private:
  struct TermValue {
    ValueKind kind = ValueKind::kOther;
    std::int64_t i = 0;        // int value, or 0/1 for bools
    double d = 0.0;            // as_double() for numbers
    std::uint32_t ord = 0;     // dictionary ordinal for strings...
    bool ord_resolved = false;  // ...when the term exists in this shard
    const Json* raw = nullptr;  // the original query value (kOther fallback)
  };

  struct Node {
    const Query* query = nullptr;
    const DocValueColumn* col = nullptr;
    std::vector<TermValue> values;          // kTerm / kTerms
    std::uint32_t prefix_lo = 0;            // kPrefix rank range
    std::uint32_t prefix_hi = 0;
    std::vector<Node> children;

    [[nodiscard]] bool IsLeaf() const {
      const Query::Type t = query->type();
      return t != Query::Type::kAnd && t != Query::Type::kOr &&
             t != Query::Type::kNot;
    }
  };

  static Node Compile(const Query& query, const ColumnSet& columns);
  static bool MatchesNode(const Node& node, std::size_t pos, const Json& doc);
  static FilterBitmap EvalNode(const Node& node, std::span<const Json> docs,
                               FilterBitmapCache* cache);
  // Vectorized leaf evaluation (backend/simd_kernels.h): fills `out` for the
  // predicate shapes the kernels cover (numeric ranges, exists, string/bool
  // term lists) and returns true; returns false when the leaf needs the
  // scalar per-row loop (prefix ranks, numeric terms, kOther fallbacks).
  static bool EvalLeafKernel(const Node& node, std::size_t n,
                             FilterBitmap* out);

  Node root_;
};

}  // namespace dio::backend
