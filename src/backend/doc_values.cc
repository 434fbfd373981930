#include "backend/doc_values.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <numeric>

#include "backend/simd_kernels.h"

namespace dio::backend {

// ---- DocValueColumn ---------------------------------------------------------

void DocValueColumn::PrefixRankRange(std::string_view prefix,
                                     std::uint32_t* lo,
                                     std::uint32_t* hi) const {
  // Dictionary entries starting with `prefix` form one contiguous rank
  // range: everything comparing < prefix first, then the prefixed block.
  const auto cmp = [this, prefix](std::uint32_t ord) {
    return std::string_view(dict[ord]).substr(0, prefix.size())
        .compare(prefix);
  };
  const auto first = std::partition_point(
      rank_to_ord.begin(), rank_to_ord.end(),
      [&cmp](std::uint32_t ord) { return cmp(ord) < 0; });
  const auto last = std::partition_point(
      first, rank_to_ord.end(),
      [&cmp](std::uint32_t ord) { return cmp(ord) == 0; });
  *lo = static_cast<std::uint32_t>(first - rank_to_ord.begin());
  *hi = static_cast<std::uint32_t>(last - rank_to_ord.begin());
}

std::uint32_t DocValueColumn::Intern(const std::string& s) {
  if (live != nullptr) {
    auto it = live->dict_lookup.find(s);
    if (it != live->dict_lookup.end()) return it->second;
  }
  const std::size_t base = live == nullptr ? 0 : live->dict.size();
  auto [it, inserted] = dict_lookup.try_emplace(
      s, static_cast<std::uint32_t>(base + dict.size()));
  if (inserted) {
    dict.push_back(s);
    ranks_dirty = true;
  }
  return it->second;
}

// ---- ColumnSet --------------------------------------------------------------

namespace {

void PadColumn(DocValueColumn& col, std::size_t slots) {
  col.EnsureSlots(slots);
}

// A staging column over a live dictionary of at least this many ranked
// entries may leave its new strings unranked, as long as the unranked ones
// stay within 1/kUnrankedShare of the ranked ones. Merging k strings into D
// ranked ones costs O(k log D) comparisons plus an O(D) copy, so deferring
// the merge until the unranked tail is a fixed share of D keeps the
// amortized cost per new string constant, and a refresh O(new rows).
constexpr std::size_t kEagerRankEntries = 4096;
constexpr std::size_t kUnrankedShare = 16;

// Ranks the column's unranked ordinals — for a staging column, those of the
// live column past its rank order plus the staged suffix — by sorting them
// and merging them into the ranked order with binary searches, into a fresh
// vector (the live order stays untouched for concurrent readers). A plain
// column has no ranked entries, so this sorts its whole dictionary. Unless
// `rank_all`, a large staging column may keep its unranked entries instead;
// its rank_to_ord is then left empty and Append keeps the live order.
void RankColumn(DocValueColumn& col, bool rank_all) {
  col.ranks_dirty = false;
  const DocValueColumn* live = col.live;
  const std::size_t base = live == nullptr ? 0 : live->dict.size();
  const std::size_t ranked = live == nullptr ? 0 : live->rank_to_ord.size();
  const std::size_t unranked = base + col.dict.size() - ranked;
  if (unranked == 0) return;
  if (!rank_all && ranked >= kEagerRankEntries &&
      unranked * kUnrankedShare <= ranked) {
    return;
  }
  const auto entry = [&col, live, base](std::uint32_t ord) -> const auto& {
    return ord < base ? live->dict[ord] : col.dict[ord - base];
  };
  std::vector<std::uint32_t> fresh(unranked);
  std::iota(fresh.begin(), fresh.end(), static_cast<std::uint32_t>(ranked));
  std::sort(fresh.begin(), fresh.end(),
            [&entry](std::uint32_t a, std::uint32_t b) {
              return entry(a) < entry(b);
            });
  if (ranked == 0) {
    col.rank_to_ord = std::move(fresh);
    return;
  }
  const std::vector<std::uint32_t>& order = live->rank_to_ord;
  std::vector<std::uint32_t> rank_to_ord;
  rank_to_ord.reserve(ranked + unranked);
  auto from = order.begin();
  for (const std::uint32_t ord : fresh) {
    const auto at = std::partition_point(
        from, order.end(),
        [live, &s = entry(ord)](std::uint32_t o) { return live->dict[o] < s; });
    rank_to_ord.insert(rank_to_ord.end(), from, at);
    rank_to_ord.push_back(ord);
    from = at;
  }
  rank_to_ord.insert(rank_to_ord.end(), from, order.end());
  col.rank_to_ord = std::move(rank_to_ord);
}

// `whole` becomes `prefix` followed by `cells`, with room for `capacity`.
template <typename T>
void Prepend(std::vector<T>& cells, const std::vector<T>& prefix,
             std::size_t capacity) {
  std::vector<T> whole;
  whole.reserve(capacity);
  whole.assign(prefix.begin(), prefix.end());
  whole.insert(whole.end(), cells.begin(), cells.end());
  cells.swap(whole);
}

// A staging column whose live arrays cannot take its rows without
// reallocating becomes the whole grown column here, off-lock: the live
// cells (or kMissing padding, for a field new to the live set) in front and
// geometric spare capacity behind, so Append swaps it in instead of
// reallocating under the store's exclusive lock.
void GrowOffLock(DocValueColumn& col, std::size_t live_rows) {
  const DocValueColumn* live = col.live;
  const std::size_t rows = live_rows + col.kinds.size();
  std::size_t room = 0;
  if (live != nullptr) {
    room = std::min({live->kinds.capacity(), live->ints.capacity(),
                     live->dbls.capacity()});
    if (room >= rows) return;
  }
  const std::size_t capacity = std::max(rows, 2 * room);
  DocValueColumn missing;
  missing.EnsureSlots(live == nullptr ? live_rows : 0);
  const DocValueColumn& front = live == nullptr ? missing : *live;
  Prepend(col.kinds, front.kinds, capacity);
  Prepend(col.ints, front.ints, capacity);
  Prepend(col.dbls, front.dbls, capacity);
  col.cells_include_live = true;
}

void ReserveCells(DocValueColumn& col, std::size_t rows) {
  col.kinds.reserve(rows);
  col.ints.reserve(rows);
  col.dbls.reserve(rows);
}

}  // namespace

DocValueColumn& ColumnSet::Column(std::string_view field) {
  auto it = columns_.find(field);
  if (it == columns_.end()) {
    it = columns_.emplace(std::string(field), DocValueColumn()).first;
    if (live_ != nullptr) it->second.live = live_->Find(field);
    ReserveCells(it->second, reserve_rows_);
  }
  return it->second;
}

void ColumnSet::Reserve(std::size_t rows) {
  reserve_rows_ = rows;
  for (auto& [field, col] : columns_) ReserveCells(col, rows);
}

void ColumnSet::DecodeMember(DocValueColumn& col, std::size_t pos,
                             const Json& value) {
  switch (value.type()) {
    case Json::Type::kInt:
      col.kinds[pos] = static_cast<std::uint8_t>(ValueKind::kInt);
      col.ints[pos] = value.as_int();
      col.dbls[pos] = value.as_double();
      break;
    case Json::Type::kDouble:
      col.kinds[pos] = static_cast<std::uint8_t>(ValueKind::kDouble);
      col.ints[pos] = value.as_int();
      col.dbls[pos] = value.as_double();
      break;
    case Json::Type::kString:
      col.kinds[pos] = static_cast<std::uint8_t>(ValueKind::kString);
      col.ints[pos] = col.Intern(value.as_string());
      break;
    case Json::Type::kBool:
      col.kinds[pos] = static_cast<std::uint8_t>(ValueKind::kBool);
      col.ints[pos] = value.as_bool() ? 1 : 0;
      break;
    default:  // null / array / object: present, but only via JSON
      col.kinds[pos] = static_cast<std::uint8_t>(ValueKind::kOther);
      break;
  }
}

void ColumnSet::AppendDoc(const Json& doc) {
  const std::size_t pos = num_docs_++;
  if (!doc.is_object()) return;  // slot stays kMissing in every column
  for (const JsonMember& member : doc.as_object()) {
    DocValueColumn& col = Column(member.first);
    PadColumn(col, pos + 1);
    DecodeMember(col, pos, member.second);
  }
}

void ColumnSet::ReplaceRow(std::size_t pos, const Json& doc) {
  for (auto& [field, col] : columns_) {
    PadColumn(col, num_docs_);
    col.kinds[pos] = static_cast<std::uint8_t>(ValueKind::kMissing);
    col.ints[pos] = 0;
    col.dbls[pos] = 0.0;
  }
  if (!doc.is_object()) return;
  for (const JsonMember& member : doc.as_object()) {
    DocValueColumn& col = Column(member.first);
    PadColumn(col, num_docs_);
    DecodeMember(col, pos, member.second);
  }
}

void ColumnSet::FinishBatch(bool rank_all) {
  if (live_ == nullptr) {
    for (auto& [field, col] : columns_) {
      PadColumn(col, num_docs_);
      if (col.ranks_dirty) RankColumn(col, true);
    }
    return;
  }
  // Every live field gets a staging column, so a field the new rows lack
  // still reaches Append as kMissing cells (and any regrowth or ranking it
  // needs happens here, off-lock).
  live_->ForEachField([this](const std::string& field) { Column(field); });
  for (auto& [field, col] : columns_) {
    PadColumn(col, num_docs_);
    RankColumn(col, rank_all);
    GrowOffLock(col, live_->num_docs());
  }
}

void ColumnSet::Append(ColumnSet&& staged) {
  for (auto& [field, delta] : staged.columns_) {
    DocValueColumn& col = Column(field);
    if (delta.cells_include_live) {
      col.kinds.swap(delta.kinds);
      col.ints.swap(delta.ints);
      col.dbls.swap(delta.dbls);
    } else {
      col.kinds.insert(col.kinds.end(), delta.kinds.begin(),
                       delta.kinds.end());
      col.ints.insert(col.ints.end(), delta.ints.begin(), delta.ints.end());
      col.dbls.insert(col.dbls.end(), delta.dbls.begin(), delta.dbls.end());
    }
    if (!delta.rank_to_ord.empty()) col.rank_to_ord.swap(delta.rank_to_ord);
    if (delta.dict.empty()) continue;
    col.dict.insert(col.dict.end(), std::make_move_iterator(delta.dict.begin()),
                    std::make_move_iterator(delta.dict.end()));
    col.dict_lookup.merge(delta.dict_lookup);
  }
  num_docs_ += staged.num_docs_;
}

void ColumnSet::Clear() {
  columns_.clear();
  num_docs_ = 0;
}

const DocValueColumn* ColumnSet::Find(std::string_view field) const {
  auto it = columns_.find(field);
  return it == columns_.end() ? nullptr : &it->second;
}

// ---- FilterBitmap -----------------------------------------------------------

FilterBitmap::FilterBitmap(std::size_t bits, bool value)
    : bits_(bits), words_((bits + 63) / 64, value ? ~0ULL : 0ULL) {
  if (value && bits_ % 64 != 0 && !words_.empty()) {
    words_.back() = (1ULL << (bits_ % 64)) - 1;
  }
}

void FilterBitmap::AndWith(const FilterBitmap& other) {
  if (simd::Enabled()) {
    simd::AndWords(words_.data(), other.words_.data(), words_.size());
    return;
  }
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] &= other.words_[w];
}

void FilterBitmap::OrWith(const FilterBitmap& other) {
  if (simd::Enabled()) {
    simd::OrWords(words_.data(), other.words_.data(), words_.size());
    return;
  }
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= other.words_[w];
}

void FilterBitmap::Negate() {
  if (simd::Enabled()) {
    simd::NotWords(words_.data(), words_.size());
  } else {
    for (std::uint64_t& word : words_) word = ~word;
  }
  if (bits_ % 64 != 0 && !words_.empty()) {
    words_.back() &= (1ULL << (bits_ % 64)) - 1;
  }
}

std::size_t FilterBitmap::CountSet() const {
  std::size_t count = 0;
  for (const std::uint64_t word : words_) {
    count += static_cast<std::size_t>(std::popcount(word));
  }
  return count;
}

// ---- FilterBitmapCache ------------------------------------------------------

std::shared_ptr<const FilterBitmap> FilterBitmapCache::Lookup(
    const std::string& key) const {
  std::scoped_lock lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  it->second.last_used = ++tick_;
  return it->second.bitmap;
}

void FilterBitmapCache::Insert(const std::string& key, FilterBitmap bitmap) {
  if (capacity_ == 0) return;
  std::scoped_lock lock(mu_);
  if (entries_.size() >= capacity_ && entries_.find(key) == entries_.end()) {
    auto victim = entries_.begin();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    entries_.erase(victim);
    ++evictions_;
  }
  entries_[key] =
      Entry{std::make_shared<const FilterBitmap>(std::move(bitmap)), ++tick_};
}

void FilterBitmapCache::Clear() {
  std::scoped_lock lock(mu_);
  entries_.clear();
}

std::uint64_t FilterBitmapCache::hits() const {
  std::scoped_lock lock(mu_);
  return hits_;
}

std::uint64_t FilterBitmapCache::misses() const {
  std::scoped_lock lock(mu_);
  return misses_;
}

std::uint64_t FilterBitmapCache::evictions() const {
  std::scoped_lock lock(mu_);
  return evictions_;
}

// ---- CompiledQuery ----------------------------------------------------------

CompiledQuery::CompiledQuery(const Query& query, const ColumnSet& columns)
    : root_(Compile(query, columns)) {}

CompiledQuery::Node CompiledQuery::Compile(const Query& query,
                                           const ColumnSet& columns) {
  Node node;
  node.query = &query;
  switch (query.type()) {
    case Query::Type::kTerm:
    case Query::Type::kTerms: {
      node.col = columns.Find(query.field());
      node.values.reserve(query.values().size());
      for (const Json& value : query.values()) {
        TermValue tv;
        tv.raw = &value;
        switch (value.type()) {
          case Json::Type::kInt:
            tv.kind = ValueKind::kInt;
            tv.i = value.as_int();
            tv.d = value.as_double();
            break;
          case Json::Type::kDouble:
            tv.kind = ValueKind::kDouble;
            tv.d = value.as_double();
            break;
          case Json::Type::kString:
            tv.kind = ValueKind::kString;
            if (node.col != nullptr) {
              auto it = node.col->dict_lookup.find(value.as_string());
              if (it != node.col->dict_lookup.end()) {
                tv.ord = it->second;
                tv.ord_resolved = true;
              }
            }
            break;
          case Json::Type::kBool:
            tv.kind = ValueKind::kBool;
            tv.i = value.as_bool() ? 1 : 0;
            break;
          default:
            tv.kind = ValueKind::kOther;
            break;
        }
        node.values.push_back(tv);
      }
      break;
    }
    case Query::Type::kRange:
    case Query::Type::kExists:
      node.col = columns.Find(query.field());
      break;
    case Query::Type::kPrefix:
      node.col = columns.Find(query.field());
      if (node.col != nullptr) {
        // The matching ordinals, as a bitset: one bit test per row.
        std::uint32_t lo = 0;
        std::uint32_t hi = 0;
        node.col->PrefixRankRange(query.prefix(), &lo, &hi);
        const DocValueColumn& col = *node.col;
        node.prefix_ords.assign((col.dict.size() + 63) / 64, 0);
        const auto set = [&node](std::size_t ord) {
          node.prefix_ords[ord >> 6] |= 1ULL << (ord & 63);
        };
        for (std::uint32_t rank = lo; rank < hi; ++rank) {
          set(col.rank_to_ord[rank]);
        }
        // A growing tail's newest strings may not be ranked yet.
        for (std::size_t ord = col.rank_to_ord.size(); ord < col.dict.size();
             ++ord) {
          if (col.dict[ord].starts_with(query.prefix())) set(ord);
        }
      }
      break;
    case Query::Type::kAnd:
    case Query::Type::kOr:
    case Query::Type::kNot:
      node.children.reserve(query.clauses().size());
      for (const Query& clause : query.clauses()) {
        node.children.push_back(Compile(clause, columns));
      }
      break;
    case Query::Type::kMatchAll:
      break;
  }
  return node;
}

bool CompiledQuery::MatchesNode(const Node& node, std::size_t pos,
                                const Json& doc) {
  const Query& query = *node.query;
  switch (query.type()) {
    case Query::Type::kMatchAll:
      return true;
    case Query::Type::kTerm:
    case Query::Type::kTerms: {
      if (node.col == nullptr) return false;
      const ValueKind kind = node.col->kind(pos);
      if (kind == ValueKind::kMissing) return false;
      if (kind == ValueKind::kOther) {
        // Non-scalar value: defer to Query::Matches' JSON equality.
        const Json* value = doc.Find(query.field());
        if (value == nullptr) return false;
        for (const TermValue& tv : node.values) {
          if (*value == *tv.raw) return true;
        }
        return false;
      }
      for (const TermValue& tv : node.values) {
        switch (kind) {
          case ValueKind::kInt:
            // Same-type int terms compare exactly; int-vs-double compares
            // numerically — both exactly as Json::operator==.
            if (tv.kind == ValueKind::kInt
                    ? node.col->ints[pos] == tv.i
                    : (tv.kind == ValueKind::kDouble &&
                       node.col->dbls[pos] == tv.d)) {
              return true;
            }
            break;
          case ValueKind::kDouble:
            if ((tv.kind == ValueKind::kInt ||
                 tv.kind == ValueKind::kDouble) &&
                node.col->dbls[pos] == tv.d) {
              return true;
            }
            break;
          case ValueKind::kString:
            if (tv.kind == ValueKind::kString && tv.ord_resolved &&
                node.col->ints[pos] ==
                    static_cast<std::int64_t>(tv.ord)) {
              return true;
            }
            break;
          case ValueKind::kBool:
            if (tv.kind == ValueKind::kBool && node.col->ints[pos] == tv.i) {
              return true;
            }
            break;
          default:
            break;
        }
      }
      return false;
    }
    case Query::Type::kRange: {
      if (node.col == nullptr || !node.col->is_number(pos)) return false;
      const std::int64_t v = node.col->ints[pos];
      if (query.gte().has_value() && v < *query.gte()) return false;
      if (query.lte().has_value() && v > *query.lte()) return false;
      return true;
    }
    case Query::Type::kPrefix: {
      if (node.col == nullptr ||
          node.col->kind(pos) != ValueKind::kString) {
        return false;
      }
      const auto ord = static_cast<std::uint64_t>(node.col->ints[pos]);
      return ((node.prefix_ords[ord >> 6] >> (ord & 63)) & 1ULL) != 0;
    }
    case Query::Type::kExists:
      return node.col != nullptr &&
             node.col->kind(pos) != ValueKind::kMissing;
    case Query::Type::kAnd:
      for (const Node& child : node.children) {
        if (!MatchesNode(child, pos, doc)) return false;
      }
      return true;
    case Query::Type::kOr:
      for (const Node& child : node.children) {
        if (MatchesNode(child, pos, doc)) return true;
      }
      return node.children.empty();
    case Query::Type::kNot:
      return !MatchesNode(node.children.front(), pos, doc);
  }
  return false;
}

FilterBitmap CompiledQuery::Eval(std::span<const Json> docs,
                                 FilterBitmapCache* cache) const {
  return EvalNode(root_, docs, cache);
}

FilterBitmap CompiledQuery::EvalNode(const Node& node,
                                     std::span<const Json> docs,
                                     FilterBitmapCache* cache) {
  const std::size_t n = docs.size();
  switch (node.query->type()) {
    case Query::Type::kMatchAll:
      return FilterBitmap(n, true);
    case Query::Type::kAnd: {
      FilterBitmap out(n, true);
      for (const Node& child : node.children) {
        out.AndWith(EvalNode(child, docs, cache));
      }
      return out;
    }
    case Query::Type::kOr: {
      // An empty bool.should matches everything, mirroring Query::Matches
      // (the columns replicate the JSON semantics, inconsistencies included).
      if (node.children.empty()) return FilterBitmap(n, true);
      FilterBitmap out(n, false);
      for (const Node& child : node.children) {
        out.OrWith(EvalNode(child, docs, cache));
      }
      return out;
    }
    case Query::Type::kNot: {
      FilterBitmap out = EvalNode(node.children.front(), docs, cache);
      out.Negate();
      return out;
    }
    default: {
      // Leaf predicate: serve from the shard's bitmap cache when possible.
      std::string key;
      if (cache != nullptr) {
        key = node.query->ToString();
        if (auto hit = cache->Lookup(key)) return *hit;
      }
      FilterBitmap out(n, false);
      if (!EvalLeafKernel(node, n, &out)) {
        for (std::size_t pos = 0; pos < n; ++pos) {
          if (MatchesNode(node, pos, docs[pos])) out.Set(pos);
        }
      }
      if (cache != nullptr) cache->Insert(key, out);
      return out;
    }
  }
}

bool CompiledQuery::EvalLeafKernel(const Node& node, std::size_t n,
                                   FilterBitmap* out) {
  if (n == 0) return true;  // nothing to fill either way
  if (!simd::Enabled()) return false;
  const DocValueColumn* col = node.col;
  switch (node.query->type()) {
    case Query::Type::kRange: {
      // A missing column matches nothing: `out` is already all-zero.
      if (col == nullptr) return true;
      if (col->kinds.size() < n) return false;
      const std::int64_t lo =
          node.query->gte().value_or(std::numeric_limits<std::int64_t>::min());
      const std::int64_t hi =
          node.query->lte().value_or(std::numeric_limits<std::int64_t>::max());
      simd::RangeMaskInt64(col->ints.data(), col->kinds.data(), n, lo, hi,
                           out->words().data());
      return true;
    }
    case Query::Type::kExists: {
      if (col == nullptr) return true;
      if (col->kinds.size() < n) return false;
      simd::NonMissingMask(col->kinds.data(), n, out->words().data());
      return true;
    }
    case Query::Type::kTerm:
    case Query::Type::kTerms: {
      if (col == nullptr) return true;
      if (col->kinds.size() < n) return false;
      // Only string and bool term lists vectorize: both compare a single
      // int64 cell under a single kind byte, and neither can equal a kOther
      // slot under Json equality (null/array/object never equals a string
      // or bool), so skipping the per-row doc fallback is exact. Numeric
      // terms keep the scalar loop (int-vs-double cross-type equality reads
      // two arrays).
      for (const TermValue& tv : node.values) {
        if (tv.kind != ValueKind::kString && tv.kind != ValueKind::kBool) {
          return false;
        }
      }
      for (const TermValue& tv : node.values) {
        if (tv.kind == ValueKind::kString) {
          if (!tv.ord_resolved) continue;  // not in this dict: matches nothing
          simd::EqMaskInt64(col->ints.data(), col->kinds.data(), n,
                            static_cast<std::uint8_t>(ValueKind::kString),
                            static_cast<std::int64_t>(tv.ord),
                            out->words().data());
        } else {
          simd::EqMaskInt64(col->ints.data(), col->kinds.data(), n,
                            static_cast<std::uint8_t>(ValueKind::kBool), tv.i,
                            out->words().data());
        }
      }
      return true;
    }
    default:
      return false;  // kPrefix (ordinal bitset lookup) stays scalar
  }
}

}  // namespace dio::backend
