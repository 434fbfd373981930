// Sealed-segment columnar layout for the ElasticStore (Lucene segment
// shape): each sub-shard's doc-value columns are an ordered list of
// immutable sealed blocks plus one growing tail. A refresh stages the new
// rows' columns entirely off-lock — sealed segments are shared by pointer,
// the old tail is cloned and appended into, blocks seal at exactly
// `segment_docs` rows — and the staged list is swapped in under the store's
// brief exclusive window. Because sealed segments never change, their
// cached filter bitmaps and string-dictionary ranks survive refreshes; a
// visibility change invalidates only the tail. `segment_docs` is at least
// 1; SIZE_MAX keeps every row in one tail that never seals.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "backend/doc_values.h"

namespace dio::backend {

// One block of a sub-shard's columns, covering shard-local row positions
// [base, base + columns.num_docs()). Sealed blocks hold exactly the shard's
// segment_docs rows and are immutable under refresh; only update-by-query
// may rewrite a sealed row in place (clearing just this block's cache).
struct ColumnSegment {
  ColumnSegment(std::size_t base_pos, std::size_t cache_entries)
      : base(base_pos), cache(cache_entries) {}
  // Tail clone for a staged refresh: copies rows and carries the traffic
  // counters over so cumulative cache stats never go backwards, but starts
  // with an empty cache (the tail's bitmaps die with the visibility change).
  ColumnSegment(const ColumnSegment& other, std::size_t cache_entries)
      : base(other.base), sealed(other.sealed), columns(other.columns),
        cache(cache_entries) {
    cache.CarryCountersFrom(other.cache);
  }

  std::size_t base = 0;
  bool sealed = false;
  ColumnSet columns;
  mutable FilterBitmapCache cache;

  [[nodiscard]] std::size_t rows() const { return columns.num_docs(); }
  [[nodiscard]] std::size_t end() const { return base + columns.num_docs(); }
};

// The ordered segment list of one sub-shard. Readers walk `segments()`
// under the store's shared refresh lock; every mutation happens under the
// exclusive lock (swap-in of a staged build, update-by-query row
// rewrites).
class SegmentedColumns {
 public:
  SegmentedColumns(std::size_t segment_docs, std::size_t cache_entries)
      : segment_docs_(segment_docs), cache_entries_(cache_entries) {}

  [[nodiscard]] std::size_t segment_docs() const { return segment_docs_; }
  [[nodiscard]] std::size_t cache_entries() const { return cache_entries_; }
  [[nodiscard]] std::size_t num_rows() const { return num_rows_; }
  [[nodiscard]] std::uint64_t generation() const { return generation_; }
  [[nodiscard]] const std::vector<std::shared_ptr<ColumnSegment>>& segments()
      const {
    return segments_;
  }
  [[nodiscard]] std::size_t num_segments() const { return segments_.size(); }
  [[nodiscard]] std::size_t num_sealed() const;

  // Segment lookup for a shard-local row position. Sealed segments hold
  // exactly segment_docs rows, so this is pure arithmetic.
  [[nodiscard]] std::size_t SegmentIndexFor(std::size_t pos) const {
    return pos / segment_docs_;
  }
  [[nodiscard]] std::size_t LocalPos(std::size_t pos) const {
    return pos % segment_docs_;
  }
  [[nodiscard]] ColumnSegment& SegmentFor(std::size_t pos) const {
    return *segments_[SegmentIndexFor(pos)];
  }

  // Union field count / summed cache traffic across segments (IndexStats).
  [[nodiscard]] std::size_t num_fields() const;
  [[nodiscard]] std::uint64_t cache_hits() const;
  [[nodiscard]] std::uint64_t cache_misses() const;
  [[nodiscard]] std::uint64_t cache_evictions() const;

 private:
  friend class StagedSegmentBuild;

  std::size_t segment_docs_;
  std::size_t cache_entries_;
  std::size_t num_rows_ = 0;
  std::uint64_t generation_ = 0;
  std::vector<std::shared_ptr<ColumnSegment>> segments_;
};

// Off-lock staged refresh build for one sub-shard. Constructed against the
// shard's current segment list while queries keep running: sealed segments
// are adopted by pointer, the unsealed tail (if any) is cloned so the live
// copy is never touched. The caller then appends the new rows' columns —
// calling PrepareRow() before each row so blocks seal exactly at the
// segment_docs boundary — and finally Commit() swaps the staged list in
// under the store's exclusive window (O(segments) pointer moves, no column
// work). The store's ingest mutex serializes builders against every other
// mutator, so the base list cannot change between construction and Commit.
class StagedSegmentBuild {
 public:
  explicit StagedSegmentBuild(const SegmentedColumns& base);

  // Seals the tail if it is full and opens a fresh one; returns true when
  // the tail ColumnSet changed (appenders caching column pointers must
  // re-bind). Call once before every appended row.
  bool PrepareRow();
  // The ColumnSet the next row appends into. Valid after PrepareRow().
  [[nodiscard]] ColumnSet& tail() { return tail_->columns; }

  // FinishBatch on every staged segment that grew (pads columns, re-ranks
  // only dictionaries that changed — sealed blocks keep their ranks).
  void Finish();
  [[nodiscard]] std::size_t staged_rows() const { return staged_rows_; }

  // Publishes the staged list into `target` under the exclusive lock.
  void Commit(SegmentedColumns* target);

 private:
  std::uint64_t base_generation_;
  std::size_t base_rows_;
  std::size_t segment_docs_;
  std::size_t cache_entries_;
  std::size_t next_base_;
  std::size_t staged_rows_ = 0;
  std::size_t first_touched_;
  std::shared_ptr<ColumnSegment> tail_;
  std::vector<std::shared_ptr<ColumnSegment>> staged_;
};

}  // namespace dio::backend
