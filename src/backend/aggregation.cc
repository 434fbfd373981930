#include "backend/aggregation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_map>

#include "backend/simd_kernels.h"
#include "backend/typed_ingest.h"

namespace dio::backend {

Aggregation Aggregation::Terms(std::string field, std::size_t size) {
  Aggregation agg(Kind::kTerms);
  agg.field_ = std::move(field);
  agg.size_ = size;
  return agg;
}

Aggregation Aggregation::Histogram(std::string field, std::int64_t interval) {
  Aggregation agg(Kind::kHistogram);
  agg.field_ = std::move(field);
  agg.interval_ = interval <= 0 ? 1 : interval;
  return agg;
}

Aggregation Aggregation::DateHistogram(std::string field,
                                       std::int64_t interval) {
  Aggregation agg = Histogram(std::move(field), interval);
  agg.kind_ = Kind::kDateHistogram;
  return agg;
}

Aggregation Aggregation::Stats(std::string field) {
  Aggregation agg(Kind::kStats);
  agg.field_ = std::move(field);
  return agg;
}

Aggregation Aggregation::Percentiles(std::string field,
                                     std::vector<double> percents) {
  Aggregation agg(Kind::kPercentiles);
  agg.field_ = std::move(field);
  agg.percents_ = std::move(percents);
  return agg;
}

Aggregation Aggregation::TopHits(std::vector<SortSpec> sort,
                                 std::vector<std::string> source) {
  Aggregation agg(Kind::kTopHits);
  agg.sort_ = std::move(sort);
  agg.source_ = std::move(source);
  return agg;
}

Aggregation& Aggregation::SubAgg(std::string name, Aggregation agg) {
  subs_.emplace_back(std::move(name), std::move(agg));
  return *this;
}

namespace {

// The body of a top_hits aggregation. Errors name the key.
Expected<Aggregation> ParseTopHits(const Json& body) {
  if (!body.is_object()) {
    return InvalidArgument("top_hits must be an object (got " + body.Dump() +
                           ")");
  }
  const Json* size = body.Find("size");
  if (size == nullptr || !size->is_int() || size->as_int() != 1) {
    return InvalidArgument("top_hits \"size\" must be 1 (got " +
                           (size == nullptr ? "none" : size->Dump()) + ")");
  }
  std::vector<SortSpec> sort;
  std::vector<std::string> source;
  for (const auto& [key, value] : body.as_object()) {
    if (key == "size") continue;
    if (key == "sort") {
      if (!value.is_array()) {
        return InvalidArgument("top_hits \"sort\" must be an array (got " +
                               value.Dump() + ")");
      }
      for (const Json& spec : value.as_array()) {
        auto parsed = ParseSortSpec(spec);
        if (!parsed.ok()) {
          return InvalidArgument("top_hits " + parsed.status().message());
        }
        sort.push_back(std::move(*parsed));
      }
    } else if (key == "_source") {
      if (!value.is_array()) {
        return InvalidArgument("top_hits \"_source\" must be an array of "
                               "field names (got " + value.Dump() + ")");
      }
      for (const Json& field : value.as_array()) {
        if (!field.is_string()) {
          return InvalidArgument("top_hits \"_source\" entries must be "
                                 "field names (got " + field.Dump() + ")");
        }
        source.push_back(field.as_string());
      }
    } else {
      return InvalidArgument("unknown top_hits key: " + key);
    }
  }
  return Aggregation::TopHits(std::move(sort), std::move(source));
}

}  // namespace

Expected<Aggregation> Aggregation::FromJson(const Json& dsl) {
  if (!dsl.is_object() || dsl.as_object().empty()) {
    return InvalidArgument("aggregation must be a non-empty object");
  }
  std::optional<Aggregation> agg;
  const Json* subs = nullptr;
  for (const JsonMember& member : dsl.as_object()) {
    const std::string& kind = member.first;
    const Json& body = member.second;
    if (kind == "aggs" || kind == "aggregations") {
      subs = &body;
      continue;
    }
    if (agg.has_value()) {
      return InvalidArgument("aggregation has more than one kind");
    }
    if (kind == "top_hits") {
      auto top_hits = ParseTopHits(body);
      if (!top_hits.ok()) return top_hits;
      agg = std::move(*top_hits);
      continue;
    }
    const std::string field = body.GetString("field");
    if (field.empty()) {
      return InvalidArgument(kind + " needs a \"field\"");
    }
    if (kind == "terms") {
      const Json* size = body.Find("size");
      if (size != nullptr && (!size->is_int() || size->as_int() < 0)) {
        return InvalidArgument("terms \"size\" must be a non-negative "
                               "integer (got " + size->Dump() + ")");
      }
      agg = Terms(field, size == nullptr
                             ? 0
                             : static_cast<std::size_t>(size->as_int()));
    } else if (kind == "histogram" || kind == "date_histogram") {
      const std::int64_t interval = body.GetInt("interval", 0);
      if (interval <= 0) {
        return InvalidArgument(kind + " needs a positive \"interval\"");
      }
      agg = kind == "histogram" ? Histogram(field, interval)
                                : DateHistogram(field, interval);
    } else if (kind == "stats") {
      agg = Stats(field);
    } else if (kind == "percentiles") {
      std::vector<double> percents;
      const Json* list = body.Find("percents");
      if (list != nullptr && !list->is_array()) {
        return InvalidArgument("percentiles \"percents\" must be an array "
                               "(got " + list->Dump() + ")");
      }
      if (list != nullptr) {
        for (const Json& p : list->as_array()) {
          if (!p.is_number() || !(p.as_double() >= 0.0) ||
              p.as_double() > 100.0) {
            return InvalidArgument("percentiles \"percents\" entries must be "
                                   "numbers in [0, 100] (got " + p.Dump() +
                                   ")");
          }
          percents.push_back(p.as_double());
        }
      }
      if (percents.empty()) percents = {50.0, 95.0, 99.0};
      agg = Percentiles(field, std::move(percents));
    } else {
      return InvalidArgument("unknown aggregation kind: " + kind);
    }
  }
  if (!agg.has_value()) {
    return InvalidArgument("aggregation object has no kind");
  }
  if (subs != nullptr) {
    if (agg->kind() == Kind::kTopHits) {
      return InvalidArgument("top_hits takes no sub-aggregations (\"aggs\")");
    }
    if (!subs->is_object()) {
      return InvalidArgument("aggs must be an object of named aggregations");
    }
    for (const JsonMember& named : subs->as_object()) {
      auto sub = FromJson(named.second);
      if (!sub.ok()) return sub;
      agg->SubAgg(named.first, std::move(sub.value()));
    }
  }
  return std::move(*agg);
}

Expected<Aggregation> Aggregation::FromJsonText(std::string_view text) {
  auto parsed = Json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  return FromJson(*parsed);
}

namespace {

// Σ|v| bound below which integer sums are exact in a double, in any order.
constexpr std::uint64_t kExactLimit = std::uint64_t{1} << 53;

// Stable string key for grouping arbitrary JSON terms.
std::string GroupKey(const Json& value) {
  switch (value.type()) {
    case Json::Type::kString: return "s:" + value.as_string();
    case Json::Type::kInt: return "i:" + std::to_string(value.as_int());
    case Json::Type::kDouble: return "d:" + std::to_string(value.as_double());
    case Json::Type::kBool: return value.as_bool() ? "b:1" : "b:0";
    default: return "?:" + value.Dump();
  }
}

// Floor-division bucket start (the value simd::HistogramBins computes).
std::int64_t BucketStart(std::int64_t v, std::int64_t interval) {
  std::int64_t start = (v / interval) * interval;
  if (v < 0 && v % interval != 0) start -= interval;
  return start;
}

// Nearest-rank with linear interpolation over unordered values, by
// selection instead of a full sort (same values). The percent is clamped to
// [0, 100], so the ranks always index inside `values`.
double Percentile(std::vector<double>& values, double percent) {
  if (values.empty()) return 0.0;
  const double p = percent >= 0.0 ? std::min(percent, 100.0) : 0.0;
  const std::size_t last = values.size() - 1;
  const double rank = (p / 100.0) * static_cast<double>(last);
  const auto lo =
      std::min(static_cast<std::size_t>(std::floor(rank)), last);
  const auto hi = std::min(static_cast<std::size_t>(std::ceil(rank)), last);
  const double frac = rank - std::floor(rank);
  const auto lo_it = values.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(values.begin(), lo_it, values.end());
  const double v_lo = *lo_it;
  const double v_hi =
      hi == lo ? v_lo : *std::min_element(lo_it + 1, values.end());
  return v_lo * (1.0 - frac) + v_hi * frac;
}

// Folds one stats value, in the order the caller visits values.
void AddStat(AggPartial& stats, double v) {
  if (stats.count == 0) {
    stats.min = stats.max = v;
  } else {
    stats.min = std::min(stats.min, v);
    stats.max = std::max(stats.max, v);
  }
  stats.sum += v;
  ++stats.count;
}

// ---- per-segment collection -------------------------------------------------
// One collector per aggregation node per segment, in the shape of Lucene's
// bucket aggregators: Collect() takes a batch of ascending matched rows with
// each row's owning bucket in the parent (0 at the root); bucketing
// collectors pass the rows that found a bucket down to their sub-collectors
// with that bucket as the owner. Build() yields one open AggPartial per owner.

struct SegmentInput {
  const ColumnSet* columns = nullptr;
  std::span<const Json> docs;
  std::span<const std::uint8_t> typed;
  std::uint64_t doc_base = 0;
  std::uint64_t doc_stride = 1;
  std::size_t matched = 0;  // the largest dense table worth allocating
  bool docid_order = false;

  [[nodiscard]] std::uint64_t DocId(std::size_t row) const {
    return doc_base + row * doc_stride;
  }
  [[nodiscard]] bool IsTyped(std::size_t row) const {
    return row < typed.size() && typed[row] != 0;
  }
};

// A present cell's value: from the column, or for kOther from the row's
// JSON document.
Json CellValue(const DocValueColumn& col, std::size_t row,
               std::span<const Json> docs, const std::string& field) {
  switch (col.kind(row)) {
    case ValueKind::kInt: return Json(col.ints[row]);
    case ValueKind::kDouble: return Json(col.dbls[row]);
    case ValueKind::kString: return Json(col.str(row));
    case ValueKind::kBool: return Json(col.ints[row] != 0);
    default: return *docs[row].Find(field);
  }
}

class Collector {
 public:
  virtual ~Collector() = default;
  virtual void Collect(std::span<const std::size_t> rows,
                       std::span<const std::size_t> owners) = 0;
  virtual std::vector<AggPartial> Build(std::size_t owners) = 0;
};

std::unique_ptr<Collector> MakeCollector(const Aggregation& agg,
                                         const SegmentInput& in);

// Maps (owner, local ordinal) to a bucket id in first-seen order and counts
// each bucket's rows. A pair with ordinal < width whose slot
// owner * width + ordinal is below the match count uses a direct table;
// every other pair uses a hash on the same composite.
class BucketTable {
 public:
  BucketTable(std::size_t width, std::size_t limit)
      : width_(width), limit_(limit) {}

  std::size_t Hit(std::size_t owner, std::uint64_t ord, std::size_t row) {
    std::size_t* id;
    const std::uint64_t slot = owner * width_ + ord;
    if (ord < width_ && slot < limit_) {
      if (slot >= dense_.size()) {
        dense_.resize(std::min<std::uint64_t>(
                          limit_, std::max(slot + 1, 2 * dense_.size())),
                      kNone);
      }
      id = &dense_[slot];
    } else {
      id = &hashed_.try_emplace(Key{owner, ord}, kNone).first->second;
    }
    if (*id == kNone) {
      *id = count.size();
      this->owner.push_back(owner);
      this->ord.push_back(ord);
      first_row.push_back(row);
      count.push_back(0);
    }
    ++count[*id];
    return *id;
  }

  [[nodiscard]] std::size_t size() const { return count.size(); }

  // Per bucket id.
  std::vector<std::size_t> owner;
  std::vector<std::uint64_t> ord;
  std::vector<std::size_t> first_row;
  std::vector<std::int64_t> count;

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Key {
    std::size_t owner;
    std::uint64_t ord;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>()(k.owner * 0x9E3779B97F4A7C15ULL ^
                                        k.ord);
    }
  };

  std::size_t width_;
  std::size_t limit_;
  std::vector<std::size_t> dense_;
  std::unordered_map<Key, std::size_t, KeyHash> hashed_;
};

// Terms and histograms: the column, the bucket table and the
// sub-collectors. Collect() maps each row to a local ordinal; Build() names
// each bucket's key.
class BucketCollector final : public Collector {
 public:
  BucketCollector(const Aggregation& agg, const SegmentInput& in)
      : agg_(agg),
        in_(in),
        col_(in.columns->Find(agg.field())),
        table_(0, 0) {
    for (const auto& [name, sub] : agg.subs()) {
      subs_.push_back(MakeCollector(sub, in));
    }
    if (col_ == nullptr) return;
    if (agg.kind() == Aggregation::Kind::kTerms) {
      // Strings count on their dictionary ordinal, bools on the two after
      // it; other values get local ordinals past those (Ordinal()).
      table_ = BucketTable(col_->dict.size() + 2, in.matched);
      return;
    }
    // Histograms: a bin's ordinal is its index from the segment's lowest
    // bin.
    std::int64_t lo = std::numeric_limits<std::int64_t>::max();
    std::int64_t hi = std::numeric_limits<std::int64_t>::min();
    for (std::size_t r = 0; r < col_->kinds.size(); ++r) {
      if (!col_->is_number(r)) continue;
      lo = std::min(lo, col_->ints[r]);
      hi = std::max(hi, col_->ints[r]);
    }
    if (lo > hi) return;
    lo_ = BucketStart(lo, agg.interval());
    table_ = BucketTable(BinOrdinal(BucketStart(hi, agg.interval())) + 1,
                         in.matched);
  }

  void Collect(std::span<const std::size_t> rows,
               std::span<const std::size_t> owners) override {
    if (col_ == nullptr) return;
    if (agg_.kind() == Aggregation::Kind::kTerms) {
      for (std::size_t i = 0; i < rows.size(); ++i) {
        const std::size_t row = rows[i];
        const ValueKind kind = col_->kind(row);
        if (kind == ValueKind::kMissing) continue;
        Place(row, owners[i],
              kind == ValueKind::kString
                  ? static_cast<std::uint64_t>(col_->ints[row])
                  : Ordinal(row));
      }
    } else {
      // Bin the batch's rows with the kernel, then map bins to ordinals:
      // time-ordered rows mostly share a bin, so that divides once per
      // change.
      const std::size_t n = rows.size();
      values_.resize(n);
      kinds_.resize(n);
      bins_.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        values_[i] = col_->ints[rows[i]];
        kinds_[i] = col_->kinds[rows[i]];
      }
      const std::int64_t interval = agg_.interval();
      if (simd::Enabled()) {
        simd::HistogramBins(values_.data(), kinds_.data(), n, interval,
                            bins_.data());
      } else {
        for (std::size_t i = 0; i < n; ++i) {
          bins_[i] = BucketStart(values_[i], interval);
        }
      }
      std::int64_t last_bin = lo_;
      std::uint64_t last_ord = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const auto kind = static_cast<ValueKind>(kinds_[i]);
        if (kind != ValueKind::kInt && kind != ValueKind::kDouble) continue;
        if (bins_[i] != last_bin) {
          last_bin = bins_[i];
          last_ord = BinOrdinal(last_bin);
        }
        Place(rows[i], owners[i], last_ord);
      }
    }
    for (const auto& sub : subs_) sub->Collect(sub_rows_, sub_owners_);
    sub_rows_.clear();
    sub_owners_.clear();
  }

  std::vector<AggPartial> Build(std::size_t owners) override {
    std::vector<AggPartial> out(owners);
    std::vector<std::vector<AggPartial>> subs;
    for (const auto& sub : subs_) subs.push_back(sub->Build(table_.size()));
    for (std::size_t id = 0; id < table_.size(); ++id) {
      AggPartial::Bucket bucket;
      bucket.doc_count = table_.count[id];
      for (auto& parts : subs) bucket.subs.push_back(std::move(parts[id]));
      AggPartial& partial = out[table_.owner[id]];
      const std::uint64_t ord = table_.ord[id];
      if (agg_.kind() != Aggregation::Kind::kTerms) {
        const auto start = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(lo_) +
            ord * static_cast<std::uint64_t>(agg_.interval()));
        partial.histo.emplace(start, std::move(bucket));
        continue;
      }
      // GroupKeys are distinct per ordinal, so no two buckets of one owner
      // collide here. The key is the value at the bucket's first row: doubles
      // that share a GroupKey share an ordinal but not a value.
      const std::size_t row = table_.first_row[id];
      bucket.first_doc = in_.DocId(row);
      const std::size_t strings = col_->dict.size();
      std::string group_key;
      if (ord < strings + 2) {
        bucket.key = ord < strings ? Json(col_->dict[ord])
                                   : Json(col_->ints[row] != 0);
        group_key = GroupKey(bucket.key);
      } else {
        bucket.key = Value(row);
        group_key = keys_[ord - strings - 2];
      }
      partial.terms.emplace(std::move(group_key), std::move(bucket));
    }
    return out;
  }

 private:
  void Place(std::size_t row, std::size_t owner, std::uint64_t ord) {
    const std::size_t id = table_.Hit(owner, ord, row);
    if (!subs_.empty()) {
      sub_rows_.push_back(row);
      sub_owners_.push_back(id);
    }
  }

  [[nodiscard]] std::uint64_t BinOrdinal(std::int64_t bin) const {
    return (static_cast<std::uint64_t>(bin) - static_cast<std::uint64_t>(lo_)) /
           static_cast<std::uint64_t>(agg_.interval());
  }

  [[nodiscard]] Json Value(std::size_t row) const {
    return CellValue(*col_, row, in_.docs, agg_.field());
  }

  // Terms ordinal of a non-missing, non-string row. Ints get one local
  // ordinal per value, doubles and kOther values one per GroupKey (built per
  // row: they are rare in terms fields), each GroupKey stored once.
  std::uint64_t Ordinal(std::size_t row) {
    const std::size_t strings = col_->dict.size();
    std::size_t local = keys_.size();
    switch (col_->kind(row)) {
      case ValueKind::kBool:
        return strings + (col_->ints[row] != 0 ? 1 : 0);
      case ValueKind::kInt: {
        auto [it, inserted] = ints_.try_emplace(col_->ints[row], local);
        if (inserted) keys_.push_back(GroupKey(Value(row)));
        local = it->second;
        break;
      }
      default: {
        std::string group_key = GroupKey(Value(row));
        auto [it, inserted] = others_.try_emplace(group_key, local);
        if (inserted) keys_.push_back(std::move(group_key));
        local = it->second;
        break;
      }
    }
    return strings + 2 + local;
  }

  const Aggregation& agg_;
  const SegmentInput& in_;
  const DocValueColumn* col_;
  BucketTable table_;
  std::vector<std::unique_ptr<Collector>> subs_;
  std::vector<std::size_t> sub_rows_;
  std::vector<std::size_t> sub_owners_;
  // Histograms: the lowest bin, and per-batch scratch.
  std::int64_t lo_ = 0;
  std::vector<std::int64_t> values_;
  std::vector<std::uint8_t> kinds_;
  std::vector<std::int64_t> bins_;
  // Terms: the GroupKey of each local ordinal past the dictionary and bools.
  std::vector<std::string> keys_;
  std::unordered_map<std::int64_t, std::size_t> ints_;
  std::unordered_map<std::string, std::size_t> others_;
};

// Stats and percentiles, per owner. Stats add integers exactly and track
// Σ|v| (the cap marks a double): the double sum of integers is exact in any
// order while Σ|v| < 2^53, and ClosePartial asks for a docid-order
// collection otherwise, in which stats keep (docid, value) pairs instead.
class MetricCollector final : public Collector {
 public:
  MetricCollector(const Aggregation& agg, const SegmentInput& in)
      : stats_(agg.kind() == Aggregation::Kind::kStats),
        in_(in),
        col_(in.columns->Find(agg.field())) {}

  void Collect(std::span<const std::size_t> rows,
               std::span<const std::size_t> owners) override {
    if (col_ == nullptr) return;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::size_t row = rows[i];
      const ValueKind kind = col_->kind(row);
      if (kind != ValueKind::kInt && kind != ValueKind::kDouble) continue;
      if (owners[i] >= acc_.size()) acc_.resize(owners[i] + 1);
      Acc& acc = acc_[owners[i]];
      if (!stats_) {
        acc.values.push_back(col_->dbls[row]);
        continue;
      }
      if (in_.docid_order) {
        acc.ordered.emplace_back(in_.DocId(row), col_->dbls[row]);
        continue;
      }
      const std::int64_t v = col_->ints[row];
      acc.min = acc.count == 0 ? v : std::min(acc.min, v);
      acc.max = acc.count == 0 ? v : std::max(acc.max, v);
      ++acc.count;
      acc.sum += static_cast<std::uint64_t>(v);  // wraps; read below 2^53
      const std::uint64_t abs = v < 0 ? 0 - static_cast<std::uint64_t>(v)
                                      : static_cast<std::uint64_t>(v);
      acc.magnitude = kind == ValueKind::kDouble
                          ? kExactLimit
                          : std::min(acc.magnitude + abs, kExactLimit);
    }
  }

  std::vector<AggPartial> Build(std::size_t owners) override {
    std::vector<AggPartial> out(owners);
    for (std::size_t o = 0; o < std::min(owners, acc_.size()); ++o) {
      Acc& acc = acc_[o];
      AggPartial& part = out[o];
      part.values = std::move(acc.values);
      part.ordered = std::move(acc.ordered);
      part.count = acc.count;
      part.sum = static_cast<double>(static_cast<std::int64_t>(acc.sum));
      part.min = static_cast<double>(acc.min);
      part.max = static_cast<double>(acc.max);
      part.magnitude = acc.magnitude;
    }
    return out;
  }

 private:
  struct Acc {
    std::int64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t magnitude = 0;
    std::int64_t min = 0, max = 0;
    std::vector<double> values;
    std::vector<std::pair<std::uint64_t, double>> ordered;
  };

  bool stats_;
  const SegmentInput& in_;
  const DocValueColumn* col_;
  std::vector<Acc> acc_;
};

// top_hits (size 1), per owner: the best row by its sort keys, read off the
// columns with JsonSortBefore's rules (missing last; numbers and strings
// compare within their class; anything else ties). Rows arrive ascending,
// so a later row replaces the best only when its keys sort strictly first,
// and a tie keeps the lower docid. Build materializes only the winners.
class TopHitsCollector final : public Collector {
 public:
  TopHitsCollector(const Aggregation& agg, const SegmentInput& in)
      : agg_(agg), in_(in) {
    for (const SortSpec& spec : agg.sort()) {
      cols_.push_back(in.columns->Find(spec.field));
    }
  }

  void Collect(std::span<const std::size_t> rows,
               std::span<const std::size_t> owners) override {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (owners[i] >= best_.size()) best_.resize(owners[i] + 1, kNone);
      std::size_t& best = best_[owners[i]];
      if (best == kNone || Before(rows[i], best)) best = rows[i];
    }
  }

  std::vector<AggPartial> Build(std::size_t owners) override {
    std::vector<AggPartial> out(owners);
    std::optional<WireDocBuilder> typed_rows;
    for (std::size_t o = 0; o < std::min(owners, best_.size()); ++o) {
      const std::size_t row = best_[o];
      if (row == kNone) continue;
      AggPartial::TopHit hit;
      hit.doc = in_.DocId(row);
      hit.sort = Json::MakeObject();
      for (std::size_t j = 0; j < cols_.size(); ++j) {
        if (cols_[j] == nullptr || cols_[j]->kind(row) == ValueKind::kMissing) {
          continue;
        }
        const std::string& field = agg_.sort()[j].field;
        hit.sort.Set(field, CellValue(*cols_[j], row, in_.docs, field));
      }
      if (in_.IsTyped(row)) {
        if (!typed_rows.has_value()) {
          typed_rows.emplace(*in_.columns, agg_.source());
        }
        hit.source = typed_rows->Build(row);
      } else {
        hit.source = ProjectFields(in_.docs[row], agg_.source());
      }
      out[o].top = std::move(hit);
    }
    return out;
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  // Whether row a's sort keys sort strictly before row b's.
  [[nodiscard]] bool Before(std::size_t a, std::size_t b) const {
    for (std::size_t j = 0; j < cols_.size(); ++j) {
      const DocValueColumn* col = cols_[j];
      if (col == nullptr) continue;  // missing from the whole segment
      const ValueKind ka = col->kind(a);
      const ValueKind kb = col->kind(b);
      if (ka == ValueKind::kMissing && kb == ValueKind::kMissing) continue;
      if (ka == ValueKind::kMissing) return false;
      if (kb == ValueKind::kMissing) return true;
      int cmp = 0;
      if (col->is_number(a) && col->is_number(b)) {
        const double da = col->dbls[a];
        const double db = col->dbls[b];
        cmp = da < db ? -1 : (da > db ? 1 : 0);
      } else if (ka == ValueKind::kString && kb == ValueKind::kString) {
        cmp = col->str(a).compare(col->str(b));
      }
      if (cmp != 0) return agg_.sort()[j].ascending ? cmp < 0 : cmp > 0;
    }
    return false;
  }

  const Aggregation& agg_;
  const SegmentInput& in_;
  std::vector<const DocValueColumn*> cols_;  // per sort spec
  std::vector<std::size_t> best_;            // per owner
};

std::unique_ptr<Collector> MakeCollector(const Aggregation& agg,
                                         const SegmentInput& in) {
  if (agg.kind() == Aggregation::Kind::kTopHits) {
    return std::make_unique<TopHitsCollector>(agg, in);
  }
  if (agg.kind() == Aggregation::Kind::kStats ||
      agg.kind() == Aggregation::Kind::kPercentiles) {
    return std::make_unique<MetricCollector>(agg, in);
  }
  return std::make_unique<BucketCollector>(agg, in);
}

}  // namespace

AggResult Aggregation::Execute(const std::vector<const Json*>& docs,
                               std::span<const std::uint64_t> docids) const {
  return FinalizePartial(ExecutePartial(docs, docids));
}

AggPartial Aggregation::ExecutePartial(
    const std::vector<const Json*>& docs,
    std::span<const std::uint64_t> docids) const {
  if (!docids.empty()) return Run(docs, docids);
  std::vector<std::uint64_t> positions(docs.size());
  std::iota(positions.begin(), positions.end(), std::uint64_t{0});
  return Run(docs, positions);
}

AggPartial Aggregation::Run(std::span<const Json* const> docs,
                            std::span<const std::uint64_t> docids) const {
  // The documents (and their docids) of one bucket, in input order.
  struct Group {
    Json key;
    std::vector<const Json*> docs;
    std::vector<std::uint64_t> ids;

    void Add(const Json* doc, std::uint64_t id) {
      docs.push_back(doc);
      ids.push_back(id);
    }
  };
  const auto sub_partials = [this](const Group& group) {
    std::vector<AggPartial> subs;
    subs.reserve(subs_.size());
    for (const auto& [sub_name, sub_agg] : subs_) {
      subs.push_back(sub_agg.Run(group.docs, group.ids));
    }
    return subs;
  };
  AggPartial partial;
  switch (kind_) {
    case Kind::kTerms: {
      std::map<std::string, Group> groups;
      for (std::size_t i = 0; i < docs.size(); ++i) {
        const Json* value = docs[i]->Find(field_);
        if (value == nullptr) continue;
        Group& group = groups[GroupKey(*value)];
        if (group.docs.empty()) group.key = *value;
        group.Add(docs[i], docids[i]);
      }
      for (auto& [key, group] : groups) {
        AggPartial::Bucket bucket;
        bucket.doc_count = static_cast<std::int64_t>(group.docs.size());
        bucket.subs = sub_partials(group);
        bucket.key = std::move(group.key);
        partial.terms.emplace(key, std::move(bucket));
      }
      break;
    }
    case Kind::kHistogram:
    case Kind::kDateHistogram: {
      std::map<std::int64_t, Group> groups;
      for (std::size_t i = 0; i < docs.size(); ++i) {
        const Json* value = docs[i]->Find(field_);
        if (value == nullptr || !value->is_number()) continue;
        groups[BucketStart(value->as_int(), interval_)].Add(docs[i],
                                                            docids[i]);
      }
      for (auto& [start, group] : groups) {
        AggPartial::Bucket bucket;
        bucket.doc_count = static_cast<std::int64_t>(group.docs.size());
        bucket.subs = sub_partials(group);
        partial.histo.emplace(start, std::move(bucket));
      }
      break;
    }
    case Kind::kStats: {
      for (const Json* doc : docs) {
        const Json* value = doc->Find(field_);
        if (value != nullptr && value->is_number()) {
          AddStat(partial, value->as_double());
        }
      }
      break;
    }
    case Kind::kPercentiles: {
      partial.values.reserve(docs.size());
      for (const Json* doc : docs) {
        const Json* value = doc->Find(field_);
        if (value != nullptr && value->is_number()) {
          partial.values.push_back(value->as_double());
        }
      }
      break;
    }
    case Kind::kTopHits: {
      std::size_t best = docs.size();
      for (std::size_t i = 0; i < docs.size(); ++i) {
        if (best == docs.size() ||
            JsonSortBefore(sort_, *docs[i], *docs[best]) ||
            (!JsonSortBefore(sort_, *docs[best], *docs[i]) &&
             docids[i] < docids[best])) {
          best = i;
        }
      }
      if (best == docs.size()) break;
      AggPartial::TopHit hit;
      hit.doc = docids[best];
      hit.sort = Json::MakeObject();
      for (const SortSpec& spec : sort_) {
        if (const Json* value = docs[best]->Find(spec.field)) {
          hit.sort.Set(spec.field, *value);
        }
      }
      hit.source = ProjectFields(*docs[best], source_);
      partial.top = std::move(hit);
      break;
    }
  }
  return partial;
}

AggPartial Aggregation::CollectSegment(const ColumnSet& columns,
                                       std::span<const Json> docs,
                                       std::span<const std::uint8_t> typed,
                                       const FilterBitmap& matched,
                                       std::uint64_t doc_base,
                                       std::uint64_t doc_stride,
                                       bool docid_order) const {
  const std::size_t count = matched.CountSet();
  if (count == 0) return {};
  const SegmentInput in{&columns,   docs,  typed,      doc_base,
                        doc_stride, count, docid_order};
  const std::unique_ptr<Collector> root = MakeCollector(*this, in);
  constexpr std::size_t kBatch = 256;
  const std::vector<std::size_t> owners(kBatch, 0);
  std::vector<std::size_t> rows;
  rows.reserve(kBatch);
  matched.ForEachSet([&](std::size_t row) {
    rows.push_back(row);
    if (rows.size() == kBatch) {
      root->Collect(rows, owners);
      rows.clear();
    }
  });
  root->Collect(rows, std::span(owners).first(rows.size()));
  return std::move(root->Build(1).front());
}

bool Aggregation::NeedsDocidOrder(const AggPartial& partial) const {
  const auto buckets_need = [this](const auto& buckets) {
    for (const auto& [key, bucket] : buckets) {
      for (std::size_t i = 0; i < subs_.size(); ++i) {
        if (subs_[i].second.NeedsDocidOrder(bucket.subs[i])) return true;
      }
    }
    return false;
  };
  switch (kind_) {
    case Kind::kTerms: return buckets_need(partial.terms);
    case Kind::kHistogram:
    case Kind::kDateHistogram: return buckets_need(partial.histo);
    case Kind::kStats:
      return partial.count > 0 && partial.magnitude >= kExactLimit;
    case Kind::kPercentiles:
    case Kind::kTopHits: return false;
  }
  return false;
}

void Aggregation::Close(AggPartial& partial) const {
  for (auto& [key, bucket] : partial.terms) {
    bucket.first_doc = 0;
    for (std::size_t i = 0; i < subs_.size(); ++i) {
      subs_[i].second.Close(bucket.subs[i]);
    }
  }
  for (auto& [start, bucket] : partial.histo) {
    for (std::size_t i = 0; i < subs_.size(); ++i) {
      subs_[i].second.Close(bucket.subs[i]);
    }
  }
  partial.magnitude = 0;
  if (partial.ordered.empty()) return;
  std::sort(partial.ordered.begin(), partial.ordered.end());
  for (const auto& [docid, v] : partial.ordered) AddStat(partial, v);
  partial.ordered = {};
}

bool Aggregation::ClosePartial(AggPartial& partial) const {
  if (NeedsDocidOrder(partial)) return false;
  Close(partial);
  return true;
}

void Aggregation::MergePartial(AggPartial& into, AggPartial&& from) const {
  switch (kind_) {
    case Kind::kTerms:
    case Kind::kHistogram:
    case Kind::kDateHistogram: {
      // One ordered pass over both maps: buckets `into` lacks are spliced in
      // at the cursor, so a merge costs O(|into| + |from|) key compares.
      const auto merge = [this](auto& into_buckets, auto& from_buckets) {
        if (into_buckets.empty()) {
          into_buckets.swap(from_buckets);
          return;
        }
        auto at = into_buckets.begin();
        while (!from_buckets.empty()) {
          auto node = from_buckets.extract(from_buckets.begin());
          while (at != into_buckets.end() && at->first < node.key()) ++at;
          if (at == into_buckets.end() || node.key() < at->first) {
            into_buckets.insert(at, std::move(node));
            continue;
          }
          AggPartial::Bucket& to = at->second;
          AggPartial::Bucket& bucket = node.mapped();
          if (bucket.first_doc < to.first_doc) {  // terms: earlier key wins
            to.key = std::move(bucket.key);
            to.first_doc = bucket.first_doc;
          }
          to.doc_count += bucket.doc_count;
          for (std::size_t i = 0; i < subs_.size(); ++i) {
            subs_[i].second.MergePartial(to.subs[i],
                                         std::move(bucket.subs[i]));
          }
        }
      };
      merge(into.terms, from.terms);
      merge(into.histo, from.histo);
      break;
    }
    case Kind::kStats: {
      into.ordered.insert(into.ordered.end(), from.ordered.begin(),
                          from.ordered.end());
      into.magnitude = std::min(into.magnitude + from.magnitude, kExactLimit);
      if (from.count == 0) break;
      if (into.count == 0) {
        into.min = from.min;
        into.max = from.max;
      } else {
        into.min = std::min(into.min, from.min);
        into.max = std::max(into.max, from.max);
      }
      into.sum += from.sum;
      into.count += from.count;
      break;
    }
    case Kind::kPercentiles: {
      if (into.values.empty()) {
        into.values = std::move(from.values);
      } else {
        into.values.insert(into.values.end(), from.values.begin(),
                           from.values.end());
      }
      break;
    }
    case Kind::kTopHits: {
      if (!from.top.has_value()) break;
      if (into.top.has_value()) {
        const AggPartial::TopHit& a = *from.top;
        const AggPartial::TopHit& b = *into.top;
        const bool before =
            JsonSortBefore(sort_, a.sort, b.sort) ||
            (!JsonSortBefore(sort_, b.sort, a.sort) && a.doc < b.doc);
        if (!before) break;
      }
      into.top = std::move(from.top);
      break;
    }
  }
}

bool Aggregation::MapDocIds(AggPartial& partial,
                            std::span<const std::uint64_t> to) const {
  if (partial.top.has_value()) {
    if (partial.top->doc >= to.size()) return false;
    partial.top->doc = to[partial.top->doc];
  }
  const auto map_buckets = [this, to](auto& buckets) {
    for (auto& [key, bucket] : buckets) {
      for (std::size_t i = 0; i < subs_.size(); ++i) {
        if (!subs_[i].second.MapDocIds(bucket.subs[i], to)) return false;
      }
    }
    return true;
  };
  return map_buckets(partial.terms) && map_buckets(partial.histo);
}

AggResult Aggregation::FinalizePartial(AggPartial&& partial) const {
  AggResult result;
  const auto finalize = [this](Json key, AggPartial::Bucket& bucket) {
    AggBucket out;
    out.key = std::move(key);
    out.doc_count = bucket.doc_count;
    for (std::size_t i = 0; i < subs_.size(); ++i) {
      out.sub[subs_[i].first] =
          subs_[i].second.FinalizePartial(std::move(bucket.subs[i]));
    }
    return out;
  };
  switch (kind_) {
    case Kind::kTerms: {
      // By count, descending; ties keep GroupKey order. Only the buckets
      // `size` keeps are finalized.
      std::vector<AggPartial::Bucket*> order;
      order.reserve(partial.terms.size());
      for (auto& [group_key, bucket] : partial.terms) order.push_back(&bucket);
      std::stable_sort(order.begin(), order.end(),
                       [](const AggPartial::Bucket* a,
                          const AggPartial::Bucket* b) {
                         return a->doc_count > b->doc_count;
                       });
      if (size_ > 0 && order.size() > size_) order.resize(size_);
      result.buckets.reserve(order.size());
      for (AggPartial::Bucket* bucket : order) {
        result.buckets.push_back(finalize(std::move(bucket->key), *bucket));
      }
      break;
    }
    case Kind::kHistogram:
    case Kind::kDateHistogram:
      result.buckets.reserve(partial.histo.size());
      for (auto& [start, bucket] : partial.histo) {
        result.buckets.push_back(finalize(Json(start), bucket));
      }
      break;
    case Kind::kStats: {
      result.metrics.Set("count", partial.count);
      result.metrics.Set("min", partial.min);
      result.metrics.Set("max", partial.max);
      result.metrics.Set("sum", partial.sum);
      result.metrics.Set(
          "avg", partial.count == 0 ? 0.0 : partial.sum / partial.count);
      break;
    }
    case Kind::kPercentiles: {
      Json out = Json::MakeObject();
      for (const double p : percents_) {
        out.Set(std::to_string(p), Percentile(partial.values, p));
      }
      result.metrics = std::move(out);
      break;
    }
    case Kind::kTopHits: {
      JsonArray hits;
      if (partial.top.has_value()) {
        AggPartial::TopHit& top = *partial.top;
        JsonObject hit;
        hit.reserve(3);
        hit.emplace_back("_id", Json(top.doc));
        hit.emplace_back("_source", std::move(top.source));
        if (!sort_.empty()) {
          JsonArray values;
          values.reserve(sort_.size());
          for (const SortSpec& spec : sort_) {
            const Json* value = top.sort.Find(spec.field);
            values.push_back(value == nullptr ? Json() : *value);
          }
          hit.emplace_back("sort", Json(std::move(values)));
        }
        hits.emplace_back(std::move(hit));
      }
      result.metrics.Set("hits", Json(std::move(hits)));
      break;
    }
  }
  return result;
}

}  // namespace dio::backend
