// Aggregations over query results: the Elasticsearch subset DIO's dashboards
// use — terms (group by field), (date_)histogram (time bucketing),
// stats / percentiles (latency summaries) — with arbitrary-depth
// sub-aggregation (Fig. 4 is terms(comm) x date_histogram(time_enter)).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "backend/doc_values.h"
#include "common/json.h"
#include "common/status.h"

namespace dio::backend {

class Aggregation;

struct AggBucket {
  Json key;                 // term value or numeric bucket start
  std::int64_t doc_count = 0;
  // Sub-aggregation results keyed by name.
  std::map<std::string, struct AggResult> sub;
};

struct AggResult {
  // Bucketed aggs fill `buckets`; metric aggs fill `metrics`.
  std::vector<AggBucket> buckets;
  Json metrics = Json::MakeObject();
};

// Mergeable intermediate state. Every producer yields one: the JSON
// reference (ExecutePartial over documents), the store (one CollectSegment
// per segment, merged segment by segment, then shard by shard), and the
// cluster router (one closed store partial per logical shard). Partials
// merge in any grouping with MergePartial, and FinalizePartial orders the
// buckets, truncates terms and computes the metrics once. Counts, keys,
// min/max and percentile values combine exactly; only the stats `sum` of
// two closed partials reassociates floating-point addition, which can drift
// by an ulp on non-integer data.
struct AggPartial {
  struct Bucket {
    Json key;
    // Docid the terms key was read from. A merge keeps the key with the
    // smaller one, so a bucket's key is the value at its first matching
    // docid even when distinct doubles share a GroupKey. Closed partials
    // hold 0 here, and a tie keeps the earlier partial's key.
    std::uint64_t first_doc = 0;
    std::int64_t doc_count = 0;
    // One partial per sub-aggregation, aligned with Aggregation::subs().
    std::vector<AggPartial> subs;
  };
  std::map<std::string, Bucket> terms;   // kTerms: GroupKey -> bucket
  std::map<std::int64_t, Bucket> histo;  // k(Date)Histogram: start -> bucket
  std::int64_t count = 0;                // kStats
  double sum = 0, min = 0, max = 0;      // kStats
  // kStats while a store collects (open partials; ClosePartial clears both):
  // Σ|v| over the integer values, capped at 2^53, where the cap also marks
  // a double; and the (docid, value) pairs of a docid-order collection.
  std::uint64_t magnitude = 0;
  std::vector<std::pair<std::uint64_t, double>> ordered;
  std::vector<double> values;  // kPercentiles, in no particular order
};

class Aggregation {
 public:
  enum class Kind { kTerms, kHistogram, kDateHistogram, kStats, kPercentiles };

  // Top `size` terms by doc count (0 = all, sorted by count desc).
  static Aggregation Terms(std::string field, std::size_t size = 0);
  static Aggregation Histogram(std::string field, std::int64_t interval);
  // Identical math to Histogram; named for parity with the ES DSL.
  static Aggregation DateHistogram(std::string field, std::int64_t interval);
  static Aggregation Stats(std::string field);
  static Aggregation Percentiles(std::string field,
                                 std::vector<double> percents);

  // Attaches a named sub-aggregation (bucketed aggs only).
  Aggregation& SubAgg(std::string name, Aggregation agg);

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] const std::string& field() const { return field_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::int64_t interval() const { return interval_; }
  [[nodiscard]] const std::vector<double>& percents() const {
    return percents_;
  }
  [[nodiscard]] const std::vector<std::pair<std::string, Aggregation>>& subs()
      const {
    return subs_;
  }

  // Parses the Elasticsearch aggregation DSL subset:
  //   {"terms": {"field": "comm", "size": 5}, "aggs": {"<name>": {...}}}
  //   {"histogram": {"field": "ret", "interval": 100}, "aggs": {...}}
  //   {"date_histogram": {"field": "time_enter", "interval": 1000000}}
  //   {"stats": {"field": "duration_ns"}}
  //   {"percentiles": {"field": "duration_ns", "percents": [50, 99]}}
  static Expected<Aggregation> FromJson(const Json& dsl);
  static Expected<Aggregation> FromJsonText(std::string_view text);

  // Executes against a set of documents (pointers remain owned by caller):
  // FinalizePartial(ExecutePartial(docs)).
  [[nodiscard]] AggResult Execute(
      const std::vector<const Json*>& docs) const;

  // The JSON reference: groups with Json::Find per document and returns a
  // closed partial. Terms truncation (`size`) and bucket ordering are
  // deferred to FinalizePartial so partials stay lossless.
  [[nodiscard]] AggPartial ExecutePartial(
      const std::vector<const Json*>& docs) const;

  // One segment's open partial, read straight off its columns in one pass
  // over the set bits of `matched`: terms count on dictionary ordinals,
  // histograms on dense bin ranges, sub-aggregations per owning bucket.
  // `docs` are the segment's JSON rows (read only for kOther values); row r
  // has docid doc_base + r * doc_stride. Without `docid_order`, stats sum
  // integers exactly; with it, stats keep (docid, value) pairs so that
  // ClosePartial can sum in docid order.
  [[nodiscard]] AggPartial CollectSegment(const ColumnSet& columns,
                                          std::span<const Json> docs,
                                          const FilterBitmap& matched,
                                          std::uint64_t doc_base,
                                          std::uint64_t doc_stride,
                                          bool docid_order) const;

  // Closes the merge of one store's segment partials into what the JSON
  // reference returns over the same docid-ordered rows: sums docid-ordered
  // stats values in docid order and zeroes first_doc, so closed partials of
  // different stores merge first-come. Returns false, leaving `partial`
  // untouched, when a stats sum collected without docid order may differ
  // from the docid-order double sum (a double value, or Σ|v| ≥ 2^53); the
  // caller then collects again with docid_order.
  [[nodiscard]] bool ClosePartial(AggPartial& partial) const;

  // Folds `from` into `into`. Merging into a default-constructed partial
  // copies `from`.
  void MergePartial(AggPartial& into, AggPartial&& from) const;

  // Bucket ordering (std::map over GroupKey, then a stable sort by count),
  // terms truncation, and metric math over the merged partial.
  [[nodiscard]] AggResult FinalizePartial(AggPartial&& partial) const;

 private:
  explicit Aggregation(Kind kind) : kind_(kind) {}

  [[nodiscard]] bool NeedsDocidOrder(const AggPartial& partial) const;
  void Close(AggPartial& partial) const;

  Kind kind_;
  std::string field_;
  std::size_t size_ = 0;
  std::int64_t interval_ = 1;
  std::vector<double> percents_;
  std::vector<std::pair<std::string, Aggregation>> subs_;
};

}  // namespace dio::backend
