// Property test for the doc-values string dictionary: whatever order
// documents arrive in — and however the arrival is sliced into refresh
// batches — the dictionary's lexicographic ranks and prefix rank-ranges
// must agree with a sorted-vector oracle built from the same strings.
// Ordinals are first-seen order (append-only across incremental refreshes),
// so the rank tables are the only sorted structure and the property is
// exactly what CompiledQuery's prefix and term paths rely on.
#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "backend/doc_values.h"
#include "backend/segments.h"
#include "common/json.h"
#include "common/random.h"

namespace dio::backend {
namespace {

// The string pool: heavy shared prefixes (the interesting case for rank
// ranges), the empty string, near-miss prefixes, and case variance
// (ranks are byte-lexicographic, so 'Z' < 'a').
std::vector<std::string> Pool() {
  std::vector<std::string> pool = {
      "",      "a",     "aa",    "aab",     "ab",      "abc",
      "abd",   "ac",    "b",     "ba",      "read",    "readv",
      "write", "writev", "wri",  "/data",   "/data/f", "/data/f0",
      "/data/f1", "/datb", "Zeta", "zeta",  "open",    "openat",
  };
  return pool;
}

// Builds the oracle: unique strings, byte-lexicographically sorted.
std::vector<std::string> SortedUnique(const std::vector<std::string>& seen) {
  std::set<std::string> unique(seen.begin(), seen.end());
  return {unique.begin(), unique.end()};
}

// Inserts `order` into a ColumnSet as single-field documents, slicing the
// stream into refresh batches at the oracle-provided boundaries.
ColumnSet Build(const std::vector<std::string>& order, Random* rng) {
  ColumnSet columns;
  std::size_t since_batch = 0;
  for (const std::string& value : order) {
    Json doc = Json::MakeObject();
    doc.Set("s", Json(value));
    columns.AppendDoc(doc);
    ++since_batch;
    // Random batch boundaries model incremental refresh: the dictionary
    // grows across FinishBatch calls and must keep ranks correct each time.
    if (rng->Uniform(4) == 0) {
      columns.FinishBatch();
      since_batch = 0;
    }
  }
  if (since_batch > 0 || order.empty()) columns.FinishBatch();
  return columns;
}

void CheckAgainstOracle(const ColumnSet& columns,
                        const std::vector<std::string>& order,
                        std::uint64_t seed) {
  const std::vector<std::string> oracle = SortedUnique(order);
  const DocValueColumn* col = columns.Find("s");
  ASSERT_NE(col, nullptr) << "seed " << seed;

  // The dictionary holds exactly the unique strings, and per-slot values
  // round-trip through the ordinal indirection.
  ASSERT_EQ(col->dict.size(), oracle.size()) << "seed " << seed;
  ASSERT_EQ(columns.num_docs(), order.size()) << "seed " << seed;
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    ASSERT_EQ(col->kind(pos), ValueKind::kString) << "seed " << seed;
    EXPECT_EQ(col->str(pos), order[pos]) << "seed " << seed << " pos " << pos;
  }

  // Rank property: rank_to_ord[rank] is the ordinal of the sorted oracle's
  // entry at that rank (so, with the dictionary holding exactly the unique
  // strings, rank_to_ord is the sorting permutation).
  ASSERT_EQ(col->rank_to_ord.size(), col->dict.size()) << "seed " << seed;
  for (std::uint32_t rank = 0; rank < col->rank_to_ord.size(); ++rank) {
    EXPECT_EQ(col->dict[col->rank_to_ord[rank]], oracle[rank])
        << "seed " << seed << " rank " << rank;
  }

  // Prefix rank-range property: [lo, hi) from PrefixRankRange equals the
  // oracle's equal_range over strings starting with the prefix — for every
  // pool string, every proper prefix of pool strings, and misses.
  std::set<std::string> prefixes{"", "a", "ab", "abc", "abcd", "w", "wr",
                                 "writ", "write", "/", "/data", "/data/",
                                 "zz", "Z", "b", "c"};
  for (const std::string& value : oracle) {
    for (std::size_t len = 1; len <= value.size(); ++len) {
      prefixes.insert(value.substr(0, len));
    }
  }
  for (const std::string& prefix : prefixes) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    col->PrefixRankRange(prefix, &lo, &hi);
    const auto expect_lo = static_cast<std::uint32_t>(
        std::lower_bound(oracle.begin(), oracle.end(), prefix) -
        oracle.begin());
    std::uint32_t expect_hi = expect_lo;
    while (expect_hi < oracle.size() &&
           std::string_view(oracle[expect_hi]).substr(0, prefix.size()) ==
               prefix) {
      ++expect_hi;
    }
    EXPECT_EQ(lo, expect_lo) << "seed " << seed << " prefix '" << prefix
                             << "'";
    EXPECT_EQ(hi, expect_hi) << "seed " << seed << " prefix '" << prefix
                             << "'";
  }
}

TEST(DocValuesPropertyTest, RandomInsertOrdersMatchSortedOracle) {
  const std::vector<std::string> pool = Pool();
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Random rng(seed);
    // Random multiset: duplicates are the common case in real columns
    // (think `syscall`), so draw with replacement.
    const std::size_t docs = 8 + rng.Uniform(72);
    std::vector<std::string> order;
    order.reserve(docs);
    for (std::size_t i = 0; i < docs; ++i) {
      order.push_back(pool[rng.Uniform(pool.size())]);
    }
    ColumnSet columns = Build(order, &rng);
    CheckAgainstOracle(columns, order, seed);
  }
}

TEST(DocValuesPropertyTest, EveryPermutationOfASmallSetAgrees) {
  // Exhaustive over a small set: all 120 arrival orders of five strings
  // with shared prefixes produce identical rank tables.
  std::vector<std::string> values = {"a", "aa", "ab", "b", ""};
  std::sort(values.begin(), values.end());
  Random rng(99);
  do {
    ColumnSet columns = Build(values, &rng);
    CheckAgainstOracle(columns, values, 0);
  } while (std::next_permutation(values.begin(), values.end()));
}

// Sealed-segment rank stability: once a segment seals, its dictionary rank
// tables are final. Later refreshes build new tails through
// StagedSegmentBuild and may introduce strings that would re-rank a shared
// dictionary — sealed blocks must keep both their identity (adopted by
// pointer, never cloned) and their exact rank tables, while every segment's
// tables independently match the sorted oracle over just its own rows.
// This is the property that lets compiled prefix/term queries and cached
// bitmaps survive refreshes untouched.
TEST(DocValuesPropertyTest, SealedSegmentRanksSurviveLaterRefreshes) {
  const std::vector<std::string> pool = Pool();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Random rng(seed);
    const std::size_t segment_docs = 4 + rng.Uniform(8);
    SegmentedColumns segments(segment_docs, FilterBitmapCache::kDefaultEntries);
    // Rows actually appended, per segment index (the per-segment oracle).
    std::vector<std::vector<std::string>> rows_by_segment;
    // Snapshots taken the moment a segment sealed.
    struct SealedSnapshot {
      const ColumnSegment* identity;
      std::vector<std::string> dict;
      std::vector<std::uint32_t> rank_to_ord;
    };
    std::vector<SealedSnapshot> sealed;

    const std::size_t refreshes = 4 + rng.Uniform(5);
    for (std::size_t r = 0; r < refreshes; ++r) {
      StagedSegmentBuild build(segments);
      const std::size_t batch = 1 + rng.Uniform(3 * segment_docs);
      for (std::size_t i = 0; i < batch; ++i) {
        build.PrepareRow();
        Json doc = Json::MakeObject();
        doc.Set("s", Json(pool[rng.Uniform(pool.size())]));
        build.tail().AppendDoc(doc);
        const std::size_t pos = segments.num_rows() + i;
        const std::size_t seg = pos / segment_docs;
        if (rows_by_segment.size() <= seg) rows_by_segment.resize(seg + 1);
        rows_by_segment[seg].push_back(doc.GetString("s"));
      }
      build.Finish();
      build.Commit(&segments);

      // Every previously sealed block: same object, same rank tables.
      for (const SealedSnapshot& snap : sealed) {
        const std::size_t idx = static_cast<std::size_t>(
            snap.identity->base / segment_docs);
        ASSERT_LT(idx, segments.num_segments()) << "seed " << seed;
        const ColumnSegment* current = segments.segments()[idx].get();
        EXPECT_EQ(current, snap.identity)
            << "seed " << seed << ": sealed segment was cloned or replaced";
        const DocValueColumn* col = current->columns.Find("s");
        ASSERT_NE(col, nullptr) << "seed " << seed;
        EXPECT_EQ(col->dict, snap.dict) << "seed " << seed;
        EXPECT_EQ(col->rank_to_ord, snap.rank_to_ord) << "seed " << seed;
      }
      // Record any newly sealed blocks.
      for (std::size_t idx = sealed.size(); idx < segments.num_segments();
           ++idx) {
        const ColumnSegment* segment = segments.segments()[idx].get();
        if (!segment->sealed) break;
        const DocValueColumn* col = segment->columns.Find("s");
        ASSERT_NE(col, nullptr) << "seed " << seed;
        sealed.push_back({segment, col->dict, col->rank_to_ord});
      }
      // And independently of retention, every segment's rank tables must
      // match the sorted oracle over exactly its own rows.
      for (std::size_t idx = 0; idx < segments.num_segments(); ++idx) {
        const ColumnSegment& segment = *segments.segments()[idx];
        const DocValueColumn* col = segment.columns.Find("s");
        ASSERT_NE(col, nullptr) << "seed " << seed;
        const std::vector<std::string> oracle =
            SortedUnique(rows_by_segment[idx]);
        ASSERT_EQ(col->dict.size(), oracle.size())
            << "seed " << seed << " segment " << idx;
        ASSERT_EQ(col->rank_to_ord.size(), oracle.size())
            << "seed " << seed << " segment " << idx;
        for (std::uint32_t rank = 0; rank < oracle.size(); ++rank) {
          EXPECT_EQ(col->dict[col->rank_to_ord[rank]], oracle[rank])
              << "seed " << seed << " segment " << idx;
        }
      }
    }
    EXPECT_GT(sealed.size(), 0u) << "seed " << seed
                                 << ": no segment ever sealed";
  }
}

// Appending to a tail with a large dictionary may leave the newest strings
// unranked (rank_to_ord then covers only the older ordinals); a prefix
// query must still match exactly the rows whose string has the prefix, and
// the block must be fully ranked once it seals.
TEST(DocValuesPropertyTest, LargeTailDefersRanksAndSealsFullyRanked) {
  constexpr std::size_t kSegmentDocs = 6000;
  SegmentedColumns segments(kSegmentDocs, FilterBitmapCache::kDefaultEntries);
  Random rng(31);
  std::vector<std::string> rows;
  const auto refresh = [&](std::size_t count) {
    StagedSegmentBuild build(segments);
    for (std::size_t i = 0; i < count; ++i) {
      build.PrepareRow();
      rows.push_back("k" + std::to_string(rng.Uniform(1'000'000)));
      Json doc = Json::MakeObject();
      doc.Set("s", Json(rows.back()));
      build.tail().AppendDoc(doc);
    }
    build.Finish();
    build.Commit(&segments);
  };
  const auto expect_prefix_exact = [&](const std::string& prefix) {
    const ColumnSet& columns = segments.segments().back()->columns;
    const std::vector<Json> docs(columns.num_docs());
    const Query query = Query::Prefix("s", prefix);
    const FilterBitmap matches =
        CompiledQuery(query, columns).Eval(docs, nullptr);
    for (std::size_t pos = 0; pos < rows.size(); ++pos) {
      EXPECT_EQ(matches.Test(pos), rows[pos].starts_with(prefix))
          << "prefix '" << prefix << "' row " << pos;
    }
  };
  const auto column = [&segments]() {
    return segments.segments().back()->columns.Find("s");
  };

  refresh(5000);
  ASSERT_EQ(column()->rank_to_ord.size(), column()->dict.size());
  const std::size_t ranked = column()->rank_to_ord.size();
  ASSERT_GE(ranked, 4096u);

  refresh(40);
  EXPECT_EQ(column()->rank_to_ord.size(), ranked)
      << "a few new strings over a large dictionary should stay unranked";
  EXPECT_GT(column()->dict.size(), ranked);
  for (const std::string prefix : {"k", "k1", "k12", "k99", "k5", "x"}) {
    expect_prefix_exact(prefix);
  }
  // A prefix that only unranked strings have.
  expect_prefix_exact(rows.back());

  refresh(kSegmentDocs - rows.size());  // fills the tail: it seals
  ASSERT_TRUE(segments.segments().back()->sealed);
  const DocValueColumn* col = column();
  ASSERT_EQ(col->rank_to_ord.size(), col->dict.size());
  for (std::size_t rank = 1; rank < col->rank_to_ord.size(); ++rank) {
    EXPECT_LT(col->dict[col->rank_to_ord[rank - 1]],
              col->dict[col->rank_to_ord[rank]]);
  }
  for (const std::string prefix : {"k", "k1", "k12", "k99", "k5"}) {
    expect_prefix_exact(prefix);
  }
}

TEST(DocValuesPropertyTest, SingleAndEmptyDictionariesHaveSaneRanges) {
  Random rng(7);
  ColumnSet columns = Build({"only"}, &rng);
  const DocValueColumn* col = columns.Find("s");
  ASSERT_NE(col, nullptr);
  std::uint32_t lo = 0;
  std::uint32_t hi = 0;
  col->PrefixRankRange("o", &lo, &hi);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 1u);
  col->PrefixRankRange("only-longer", &lo, &hi);
  EXPECT_EQ(lo, hi);  // empty range, wherever it lands
  col->PrefixRankRange("z", &lo, &hi);
  EXPECT_EQ(lo, hi);
}

}  // namespace
}  // namespace dio::backend
