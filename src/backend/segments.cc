#include "backend/segments.h"

#include <cassert>
#include <set>
#include <string>
#include <utility>

namespace dio::backend {

std::size_t SegmentedColumns::num_sealed() const {
  std::size_t sealed = 0;
  for (const auto& segment : segments_) {
    if (segment->sealed) ++sealed;
  }
  return sealed;
}

std::size_t SegmentedColumns::num_fields() const {
  if (segments_.empty()) return 0;
  if (segments_.size() == 1) return segments_[0]->columns.num_fields();
  // Typed streams columnarize the same field set in every segment; mixed
  // schemaless streams can differ per block, so report the union.
  std::set<std::string, std::less<>> fields;
  for (const auto& segment : segments_) {
    segment->columns.ForEachField(
        [&fields](const std::string& field) { fields.insert(field); });
  }
  return fields.size();
}

std::uint64_t SegmentedColumns::cache_hits() const {
  std::uint64_t total = 0;
  for (const auto& segment : segments_) total += segment->cache.hits();
  return total;
}

std::uint64_t SegmentedColumns::cache_misses() const {
  std::uint64_t total = 0;
  for (const auto& segment : segments_) total += segment->cache.misses();
  return total;
}

std::uint64_t SegmentedColumns::cache_evictions() const {
  std::uint64_t total = 0;
  for (const auto& segment : segments_) total += segment->cache.evictions();
  return total;
}

// ---- StagedSegmentBuild -----------------------------------------------------

StagedSegmentBuild::StagedSegmentBuild(const SegmentedColumns& base)
    : base_generation_(base.generation()),
      base_rows_(base.num_rows()),
      segment_docs_(base.segment_docs()),
      cache_entries_(base.cache_entries()),
      next_base_(base.num_rows()),
      staged_(base.segments_) {
  if (!staged_.empty() && !staged_.back()->sealed) {
    // Clone the growing tail so appends never touch the copy concurrent
    // readers are scanning; the clone carries the cache counters over.
    tail_ = std::make_shared<ColumnSegment>(*staged_.back(), cache_entries_);
    staged_.back() = tail_;
    first_touched_ = staged_.size() - 1;
  } else {
    first_touched_ = staged_.size();
  }
}

bool StagedSegmentBuild::PrepareRow() {
  ++staged_rows_;
  if (tail_ != nullptr && tail_->rows() < segment_docs_) return false;
  if (tail_ != nullptr) tail_->sealed = true;
  const std::size_t base =
      tail_ == nullptr ? next_base_ : tail_->base + tail_->rows();
  tail_ = std::make_shared<ColumnSegment>(base, cache_entries_);
  staged_.push_back(tail_);
  return true;
}

void StagedSegmentBuild::Finish() {
  for (std::size_t i = first_touched_; i < staged_.size(); ++i) {
    staged_[i]->columns.FinishBatch();
    // A block that filled to the brim this refresh is sealed immediately so
    // the very next refresh opens a new tail and this block's cache starts
    // accumulating reusable bitmaps.
    if (staged_[i]->rows() >= segment_docs_) {
      staged_[i]->sealed = true;
    }
  }
}

void StagedSegmentBuild::Commit(SegmentedColumns* target) {
  // The store's ingest mutex serializes all mutators, so the base list the
  // build started from must still be current.
  assert(target->generation_ == base_generation_);
  assert(target->num_rows_ == base_rows_);
  (void)base_generation_;
  (void)base_rows_;
  target->segments_ = std::move(staged_);
  target->num_rows_ =
      target->segments_.empty() ? 0 : target->segments_.back()->end();
  ++target->generation_;
}

}  // namespace dio::backend
