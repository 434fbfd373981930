#include "backend/segments.h"

#include <algorithm>
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

StagedSegmentBuild::StagedSegmentBuild(const SegmentedColumns& base,
                                       std::size_t rows)
    : base_generation_(base.generation()),
      base_rows_(base.num_rows()),
      segment_docs_(base.segment_docs()),
      cache_entries_(base.cache_entries()),
      rows_hint_(rows) {
  if (!base.segments_.empty() && !base.segments_.back()->sealed) {
    // Finish() seals a block the moment it fills, so an unsealed tail
    // always has room.
    live_tail_ = base.segments_.back();
    tail_room_ = segment_docs_ - live_tail_->rows();
    tail_rows_ = ColumnSet(&live_tail_->columns);
  }
}

void StagedSegmentBuild::Target(ColumnSet* columns, std::size_t room) {
  current_ = columns;
  const std::size_t coming =
      rows_hint_ >= staged_rows_ ? rows_hint_ - staged_rows_ + 1 : 0;
  current_->Reserve(std::min(coming, room));
}

bool StagedSegmentBuild::PrepareRow() {
  ++staged_rows_;
  if (current_ == nullptr && tail_room_ > 0) {
    Target(&tail_rows_, tail_room_);
    return true;
  }
  if (current_ != nullptr) {
    const std::size_t room =
        current_ == &tail_rows_ ? tail_room_ : segment_docs_;
    if (current_->num_docs() < room) return false;
  }
  const std::size_t base = fresh_.empty()
                               ? base_rows_ + tail_rows_.num_docs()
                               : fresh_.back()->end();
  if (!fresh_.empty()) fresh_.back()->sealed = true;
  fresh_.push_back(std::make_shared<ColumnSegment>(base, cache_entries_));
  Target(&fresh_.back()->columns, segment_docs_);
  return true;
}

void StagedSegmentBuild::Finish() {
  if (tail_rows_.num_docs() > 0) {
    // A tail this build fills seals at Commit: rank all its strings now.
    tail_rows_.FinishBatch(/*rank_all=*/tail_rows_.num_docs() == tail_room_);
  }
  for (const auto& segment : fresh_) {
    segment->columns.FinishBatch();
    // A block that filled to the brim this refresh is sealed immediately so
    // the very next refresh opens a new tail and this block's cache starts
    // accumulating reusable bitmaps.
    if (segment->rows() >= segment_docs_) segment->sealed = true;
  }
}

void StagedSegmentBuild::Commit(SegmentedColumns* target) {
  // The store's ingest mutex serializes all mutators, so the list the build
  // started from must still be current.
  assert(target->generation_ == base_generation_);
  assert(target->num_rows_ == base_rows_);
  (void)base_generation_;
  if (tail_rows_.num_docs() > 0) {
    live_tail_->columns.Append(std::move(tail_rows_));
    // The tail's bitmaps covered the old row count; its counters stay.
    live_tail_->cache.Clear();
    if (live_tail_->rows() >= segment_docs_) live_tail_->sealed = true;
  }
  for (auto& segment : fresh_) target->segments_.push_back(std::move(segment));
  fresh_.clear();
  target->num_rows_ = base_rows_ + staged_rows_;
  ++target->generation_;
}

}  // namespace dio::backend
