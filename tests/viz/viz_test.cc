#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "backend/store.h"
#include "viz/dashboard.h"
#include "viz/export.h"
#include "viz/table.h"
#include "viz/timeseries.h"
#include "test_util.h"

namespace dio::viz {
namespace {

Json EventDoc(std::int64_t ts, const std::string& comm,
              const std::string& syscall, std::int64_t ret,
              std::int64_t offset = -1) {
  Json doc = Json::MakeObject();
  doc.Set("time_enter", ts);
  doc.Set("comm", comm);
  doc.Set("syscall", syscall);
  doc.Set("ret", ret);
  doc.Set("duration_ns", 1000);
  if (offset >= 0) doc.Set("file_offset", offset);
  doc.Set("tag_dev", 7340032);
  doc.Set("tag_ino", 12);
  doc.Set("tag_ts", 999);
  return doc;
}

TEST(TableViewTest, RendersAlignedColumns) {
  TableView table;
  table.AddColumn(TableView::TimestampColumn("time", "time_enter"));
  table.AddColumn(TableView::TextColumn("proc_name", "comm"));
  table.AddColumn(TableView::IntColumn("ret_val", "ret"));
  table.AddRow(EventDoc(1679308382363981568LL, "app", "openat", 3));
  table.AddRow(EventDoc(2, "fluent-bit", "read", 26));

  const std::string out = table.Render();
  EXPECT_NE(out.find("1,679,308,382,363,981,568"), std::string::npos);
  EXPECT_NE(out.find("fluent-bit"), std::string::npos);
  EXPECT_NE(out.find("proc_name"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(TableViewTest, FileTagColumnFormatsLikeThePaper) {
  TableView table;
  table.AddColumn(TableView::FileTagColumn());
  table.AddRow(EventDoc(1, "a", "read", 0));
  EXPECT_EQ(table.rows()[0][0], "7340032 12 999");
  Json untagged = Json::MakeObject();
  table.AddRow(untagged);
  EXPECT_EQ(table.rows()[1][0], "");
}

TEST(TableViewTest, OffsetColumnBlankWhenAbsent) {
  TableView table;
  table.AddColumn(TableView::OffsetColumn());
  table.AddRow(EventDoc(1, "a", "read", 26, 0));
  table.AddRow(EventDoc(1, "a", "close", 0));
  EXPECT_EQ(table.rows()[0][0], "0");
  EXPECT_EQ(table.rows()[1][0], "");
}

TEST(TableViewTest, CsvEscapesSpecialCharacters) {
  TableView table;
  table.AddColumn(TableView::TextColumn("path", "path"));
  Json doc = Json::MakeObject();
  doc.Set("path", "with,comma\"quote");
  table.AddRow(doc);
  const std::string csv = table.RenderCsv();
  EXPECT_NE(csv.find("\"with,comma\"\"quote\""), std::string::npos);
}

TEST(SeriesTest, FromTermsHistogramSortedByName) {
  backend::AggResult result;
  for (const char* name : {"rocksdb:low1", "db_bench", "rocksdb:high0"}) {
    backend::AggBucket bucket;
    bucket.key = Json(name);
    bucket.doc_count = 2;
    backend::AggResult hist;
    backend::AggBucket t0;
    t0.key = Json(0);
    t0.doc_count = 1;
    backend::AggBucket t1;
    t1.key = Json(100);
    t1.doc_count = 1;
    hist.buckets = {t0, t1};
    bucket.sub["over_time"] = std::move(hist);
    result.buckets.push_back(std::move(bucket));
  }
  auto series = SeriesFromTermsHistogram(result, "over_time");
  ASSERT_EQ(series.size(), 3u);
  EXPECT_EQ(series[0].name, "db_bench");
  EXPECT_EQ(series[1].name, "rocksdb:high0");
  EXPECT_EQ(series[2].name, "rocksdb:low1");
  ASSERT_EQ(series[0].points.size(), 2u);
  EXPECT_EQ(series[0].points[1].t, 100);
}

TEST(ChartRendererTest, LineChartShape) {
  Series series;
  series.name = "p99";
  for (int i = 0; i < 20; ++i) {
    series.points.push_back({i, i == 10 ? 100.0 : 10.0});
  }
  const std::string chart = ChartRenderer::LineChart(series, 8);
  EXPECT_NE(chart.find("p99"), std::string::npos);
  EXPECT_NE(chart.find("max 100.00"), std::string::npos);
  EXPECT_NE(chart.find('#'), std::string::npos);
  EXPECT_NE(chart.find("> time"), std::string::npos);
}

TEST(ChartRendererTest, LineChartEmpty) {
  EXPECT_EQ(ChartRenderer::LineChart(Series{}, 5), "(no data)\n");
}

TEST(ChartRendererTest, IntensityGridOneRowPerSeries) {
  std::vector<Series> list(2);
  list[0].name = "db_bench";
  list[1].name = "rocksdb:low0";
  for (int i = 0; i < 10; ++i) {
    list[0].points.push_back({i * 100, 50.0});
    list[1].points.push_back({i * 100, i < 5 ? 0.0 : 100.0});
  }
  const std::string grid = ChartRenderer::IntensityGrid(list);
  EXPECT_NE(grid.find("db_bench"), std::string::npos);
  EXPECT_NE(grid.find("rocksdb:low0"), std::string::npos);
  EXPECT_NE(grid.find('@'), std::string::npos);  // max intensity cell
  EXPECT_NE(grid.find("scale:"), std::string::npos);
}

TEST(ChartRendererTest, SeriesCsvHasHeaderAndRows) {
  std::vector<Series> list(1);
  list[0].name = "s";
  list[0].points = {{0, 1.5}, {100, 2.5}};
  const std::string csv = ChartRenderer::SeriesCsv(list);
  EXPECT_NE(csv.find("time,s"), std::string::npos);
  EXPECT_NE(csv.find("0,1.5"), std::string::npos);
  EXPECT_NE(csv.find("100,2.5"), std::string::npos);
}

TEST(DashboardTest, SyscallTableAndSummaryFromStore) {
  backend::ElasticStore store;
  store.Bulk("s", {EventDoc(100, "app", "openat", 3),
                   EventDoc(200, "app", "write", 26, 0),
                   EventDoc(300, "fluent-bit", "read", 26, 0)});
  store.Refresh("s");
  Dashboards dashboards(&store, "s");

  auto table = dashboards.SyscallTable();
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->row_count(), 3u);

  auto filtered = dashboards.SyscallTable(
      backend::Query::Term("comm", Json("app")));
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->row_count(), 2u);

  auto summary = dashboards.SyscallSummary();
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->row_count(), 3u);  // three distinct syscalls
}

TEST(DashboardTest, ThreadTimelineProducesSeriesPerComm) {
  backend::ElasticStore store;
  std::vector<Json> docs;
  for (int i = 0; i < 50; ++i) {
    docs.push_back(EventDoc(i * 10, i % 2 == 0 ? "db_bench" : "rocksdb:low0",
                            "write", 1));
  }
  store.Bulk("s", std::move(docs));
  store.Refresh("s");
  Dashboards dashboards(&store, "s");
  auto series = dashboards.ThreadTimelineSeries(100);
  ASSERT_TRUE(series.ok());
  EXPECT_EQ(series->size(), 2u);
  auto grid = dashboards.ThreadTimeline(100);
  ASSERT_TRUE(grid.ok());
  EXPECT_NE(grid->find("db_bench"), std::string::npos);
}

TEST(DashboardTest, LatencySeriesPercentilePerWindow) {
  backend::ElasticStore store;
  std::vector<Json> docs;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 20; ++i) {
      Json doc = EventDoc(w * 1000 + i, "db_bench", "write", 1);
      doc.Set("duration_ns", (w + 1) * 1000);
      docs.push_back(std::move(doc));
    }
  }
  store.Bulk("s", std::move(docs));
  store.Refresh("s");
  Dashboards dashboards(&store, "s");
  auto series = dashboards.LatencySeries("db_bench", 1000, 99.0);
  ASSERT_TRUE(series.ok());
  ASSERT_EQ(series->points.size(), 3u);
  EXPECT_DOUBLE_EQ(series->points[0].value, 1000.0);
  EXPECT_DOUBLE_EQ(series->points[2].value, 3000.0);
}

TEST(DashboardTest, LatencyHeatmapBandsAndWindows) {
  backend::ElasticStore store;
  std::vector<Json> docs;
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 10; ++i) {
      Json doc = EventDoc(w * 1000 + i, "t", "read", 1);
      // Fast events early, slow (ms-band) events in the last window.
      doc.Set("duration_ns", w == 3 ? 2'000'000 : 500);
      docs.push_back(std::move(doc));
    }
  }
  store.Bulk("s", std::move(docs));
  store.Refresh("s");
  Dashboards dashboards(&store, "s");
  auto heatmap = dashboards.LatencyHeatmap(1000);
  ASSERT_TRUE(heatmap.ok());
  EXPECT_NE(heatmap->find("<1us"), std::string::npos);
  EXPECT_NE(heatmap->find("1-10ms"), std::string::npos);
  EXPECT_EQ(heatmap->find(">=100ms"), std::string::npos);  // band unused
}

TEST(DashboardTest, SyscallShareBreakdown) {
  backend::ElasticStore store;
  std::vector<Json> docs;
  for (int i = 0; i < 30; ++i) docs.push_back(EventDoc(i, "t", "write", 1));
  for (int i = 0; i < 10; ++i) docs.push_back(EventDoc(i, "t", "read", 1));
  store.Bulk("s", std::move(docs));
  store.Refresh("s");
  Dashboards dashboards(&store, "s");
  auto share = dashboards.SyscallShare();
  ASSERT_TRUE(share.ok());
  EXPECT_NE(share->find("75.0%  write"), std::string::npos);
  EXPECT_NE(share->find("25.0%  read"), std::string::npos);
  EXPECT_NE(share->find("write |"), std::string::npos);
}

TEST(BarChartTest, ScalesBarsToMax) {
  std::vector<CategoryCount> categories = {
      {"write", 100}, {"read", 50}, {"close", 0}};
  const std::string chart = BarChart(categories, 20);
  EXPECT_NE(chart.find("write |####################"), std::string::npos);
  EXPECT_NE(chart.find("read  |##########"), std::string::npos);
  EXPECT_NE(chart.find("close |"), std::string::npos);
  EXPECT_EQ(BarChart({}, 20), "(no data)\n");
}

TEST(ShareBreakdownTest, PercentagesSumToHundred) {
  std::vector<CategoryCount> categories = {{"a", 75}, {"b", 25}};
  const std::string breakdown = ShareBreakdown(categories);
  EXPECT_NE(breakdown.find("75.0%  a"), std::string::npos);
  EXPECT_NE(breakdown.find("25.0%  b"), std::string::npos);
  EXPECT_EQ(ShareBreakdown({}), "(no data)\n");
}

TEST(CategoriesFromTermsTest, ConvertsBuckets) {
  backend::AggResult result;
  backend::AggBucket bucket;
  bucket.key = Json("openat");
  bucket.doc_count = 7;
  result.buckets.push_back(std::move(bucket));
  auto categories = CategoriesFromTerms(result);
  ASSERT_EQ(categories.size(), 1u);
  EXPECT_EQ(categories[0].label, "openat");
  EXPECT_DOUBLE_EQ(categories[0].value, 7.0);
}

TEST(ExportTest, WritesAndFailsGracefully) {
  const std::string file = testing::TestTempPath(".txt");
  const std::string dir = testing::TestTempPath("_dir");
  EXPECT_TRUE(WriteTextFile(file, "content").ok());
  // Missing parent directories are created (artifacts land in out/).
  EXPECT_TRUE(WriteTextFile(dir + "/nested/file.txt", "x").ok());
  // A path whose parent component is a regular file cannot be created.
  EXPECT_FALSE(WriteTextFile(file + "/sub/file.txt", "x").ok());
  std::filesystem::remove(file);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dio::viz
