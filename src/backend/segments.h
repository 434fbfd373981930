// Sealed-segment columnar layout for the ElasticStore (Lucene segment
// shape): each sub-shard's doc-value columns are an ordered list of
// immutable sealed blocks plus one growing tail. A refresh decodes the new
// rows off-lock — the rows bound for the live tail into a staging set that
// already carries the tail's dictionary ordinals, the rest into fresh
// blocks that seal at exactly `segment_docs` rows — and then, under the
// store's brief exclusive window, appends the staged cells to the tail in
// place and publishes the fresh blocks. The pause is O(new rows) however
// large the tail. Because sealed segments never change, their cached
// filter bitmaps and string-dictionary ranks survive refreshes; an append
// invalidates only the tail's bitmaps. `segment_docs` is at least 1;
// SIZE_MAX keeps every row in one tail that never seals.
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

  std::size_t base = 0;
  bool sealed = false;
  ColumnSet columns;
  mutable FilterBitmapCache cache;

  [[nodiscard]] std::size_t rows() const { return columns.num_docs(); }
  [[nodiscard]] std::size_t end() const { return base + columns.num_docs(); }
};

// The ordered segment list of one sub-shard. Readers walk `segments()`
// under the store's shared refresh lock; every mutation happens under the
// exclusive lock (a staged build's commit, update-by-query row rewrites).
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
// shard's current segment list while queries keep running. Rows that fit in
// the unsealed tail (if any) are decoded into a staging ColumnSet bound to
// the tail's columns; the rest go into fresh blocks that no reader can see
// yet. The caller appends rows — calling PrepareRow() before each so blocks
// seal exactly at the segment_docs boundary — then Finish() does the
// remaining column work off-lock, and Commit() applies the build under the
// store's exclusive window: the staged cells are appended to the tail in
// place and the fresh blocks are published, O(new rows) in all. The store's
// ingest mutex serializes builders against every other mutator, so the
// live tail cannot change between construction and Commit.
class StagedSegmentBuild {
 public:
  // `rows`, when known, is how many rows the caller will append: each
  // ColumnSet they land in reserves its share up front.
  explicit StagedSegmentBuild(const SegmentedColumns& base,
                              std::size_t rows = 0);

  // Moves on to a fresh block when the current one is full; returns true
  // when the ColumnSet behind tail() changed (appenders caching column
  // pointers must re-bind). Call once before every appended row.
  bool PrepareRow();
  // The ColumnSet the next row appends into. Valid after PrepareRow().
  [[nodiscard]] ColumnSet& tail() { return *current_; }

  // FinishBatch on the staged rows: pads columns, ranks dictionaries that
  // grew (merging the tail's suffixes with its live ranks), and regrows
  // tail columns that lack room. Sealed blocks keep their ranks.
  void Finish();
  [[nodiscard]] std::size_t staged_rows() const { return staged_rows_; }

  // Appends the staged rows to `target` under the exclusive lock.
  void Commit(SegmentedColumns* target);

 private:
  std::uint64_t base_generation_;
  std::size_t base_rows_;
  std::size_t segment_docs_;
  std::size_t cache_entries_;
  std::size_t rows_hint_;
  std::size_t staged_rows_ = 0;
  // The live unsealed tail and the rows staged for it (null / empty when
  // the shard has no unsealed tail).
  std::shared_ptr<ColumnSegment> live_tail_;
  std::size_t tail_room_ = 0;
  ColumnSet tail_rows_;
  // Blocks opened by this build, in order; the last may stay unsealed.
  std::vector<std::shared_ptr<ColumnSegment>> fresh_;
  ColumnSet* current_ = nullptr;

  // Makes `columns` the target of the next rows, reserving the rows it will
  // take of those still to come.
  void Target(ColumnSet* columns, std::size_t room);
};

}  // namespace dio::backend
