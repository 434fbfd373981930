#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "backend/store.h"

namespace dio::backend {
namespace {

Json Doc(int i, const std::string& syscall) {
  Json doc = Json::MakeObject();
  doc.Set("i", i);
  doc.Set("syscall", syscall);
  doc.Set("path", "/file with \"quotes\" and\nnewline");
  return doc;
}

class SnapshotTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(kPath); }
  static constexpr const char* kPath = "/tmp/dio_snapshot_test.jsonl";

  // The snapshot file's lines (header first).
  static std::vector<std::string> ReadLines() {
    std::ifstream in(kPath);
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    return lines;
  }
  static void WriteLines(const std::vector<std::string>& lines) {
    std::ofstream out(kPath, std::ios::trunc);
    for (const std::string& line : lines) out << line << "\n";
  }
  // Loads kPath into a fresh store and expects a rejection whose message
  // contains `where`, with no index left behind.
  static void ExpectRejected(const std::string& where) {
    ElasticStore fresh;
    auto loaded = fresh.LoadIndex(kPath);
    ASSERT_FALSE(loaded.ok()) << where;
    EXPECT_NE(loaded.status().message().find(where), std::string::npos)
        << loaded.status().message();
    EXPECT_TRUE(fresh.ListIndices().empty()) << where;
  }

  ElasticStore store_;
};

TEST_F(SnapshotTest, SaveLoadRoundTrip) {
  store_.Bulk("session-a", {Doc(1, "read"), Doc(2, "write"), Doc(3, "read")});
  store_.Refresh("session-a");
  ASSERT_TRUE(store_.SaveIndex("session-a", kPath).ok());

  ElasticStore fresh;
  auto loaded = fresh.LoadIndex(kPath);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, "session-a");
  EXPECT_EQ(*fresh.Count("session-a", Query::MatchAll()), 3u);
  EXPECT_EQ(*fresh.Count("session-a", Query::Term("syscall", Json("read"))),
            2u);
  // Content survives byte-exact (escaping round trip).
  auto hits = fresh.Search("session-a", SearchRequest{});
  EXPECT_EQ(hits->hits[0].source.GetString("path"),
            "/file with \"quotes\" and\nnewline");
}

TEST_F(SnapshotTest, LoadWithRename) {
  store_.Bulk("orig", {Doc(1, "read")});
  store_.Refresh("orig");
  ASSERT_TRUE(store_.SaveIndex("orig", kPath).ok());
  auto loaded = store_.LoadIndex(kPath, "copy");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, "copy");
  EXPECT_EQ(*store_.Count("copy", Query::MatchAll()), 1u);
  EXPECT_EQ(*store_.Count("orig", Query::MatchAll()), 1u);
}

TEST_F(SnapshotTest, LoadRefusesExistingIndex) {
  store_.Bulk("dup", {Doc(1, "read")});
  store_.Refresh("dup");
  ASSERT_TRUE(store_.SaveIndex("dup", kPath).ok());
  EXPECT_FALSE(store_.LoadIndex(kPath).ok());  // "dup" still present
}

TEST_F(SnapshotTest, ErrorsOnBadInputs) {
  EXPECT_FALSE(store_.SaveIndex("ghost", kPath).ok());
  EXPECT_FALSE(store_.LoadIndex("/no/such/file").ok());
  // Not a snapshot file.
  FILE* f = std::fopen(kPath, "w");
  std::fputs("{\"random\":\"json\"}\n", f);
  std::fclose(f);
  EXPECT_FALSE(store_.LoadIndex(kPath).ok());
}

TEST_F(SnapshotTest, CorruptLineRollsBack) {
  store_.Bulk("roll", {Doc(1, "read")});
  store_.Refresh("roll");
  ASSERT_TRUE(store_.SaveIndex("roll", kPath).ok());
  FILE* f = std::fopen(kPath, "a");
  std::fputs("{corrupt!!\n", f);
  std::fclose(f);
  ElasticStore fresh;
  auto loaded = fresh.LoadIndex(kPath);
  ASSERT_FALSE(loaded.ok());
  // 1-based: header, one row, then the corrupt line.
  EXPECT_NE(loaded.status().message().find(":3: corrupt snapshot line"),
            std::string::npos)
      << loaded.status().message();
  EXPECT_FALSE(fresh.HasIndex("roll"));  // no half-loaded index left behind
}

// A snapshot cut at a line boundary parses cleanly line by line; only the
// header's row count can tell it is short.
TEST_F(SnapshotTest, MissingLineIsRejected) {
  store_.Bulk("cut", {Doc(1, "read"), Doc(2, "write"), Doc(3, "read")});
  store_.Refresh("cut");
  ASSERT_TRUE(store_.SaveIndex("cut", kPath).ok());
  std::vector<std::string> lines = ReadLines();
  ASSERT_EQ(lines.size(), 4u);
  lines.pop_back();
  WriteLines(lines);
  ExpectRejected("ends after 2 of the header's 3 docs");
}

TEST_F(SnapshotTest, ExtraLineIsRejected) {
  store_.Bulk("long", {Doc(1, "read"), Doc(2, "write")});
  store_.Refresh("long");
  ASSERT_TRUE(store_.SaveIndex("long", kPath).ok());
  std::vector<std::string> lines = ReadLines();
  ASSERT_EQ(lines.size(), 3u);
  lines.push_back(lines.back());
  WriteLines(lines);
  ExpectRejected(":4: more rows than the header's 2 docs");
}

TEST_F(SnapshotTest, BadHeaderIsRejected) {
  const std::string row = Doc(1, "read").Dump();
  for (const std::string& header :
       {std::string(R"({"dio_index_snapshot":5,"docs":1})"),
        std::string(R"({"dio_index_snapshot":"","docs":1})"),
        std::string(R"({"dio_index_snapshot":"h"})"),
        std::string(R"({"dio_index_snapshot":"h","docs":"1"})"),
        std::string(R"({"dio_index_snapshot":"h","docs":1.5})"),
        std::string(R"({"dio_index_snapshot":"h","docs":-1})"),
        std::string(R"(["dio_index_snapshot"])"), std::string("{oops")}) {
    SCOPED_TRACE(header);
    WriteLines({header, row});
    ExpectRejected(std::string(kPath) + ":1:");
  }
}

TEST_F(SnapshotTest, EmptyIndexRoundTrips) {
  ASSERT_TRUE(store_.CreateIndex("empty").ok());
  ASSERT_TRUE(store_.SaveIndex("empty", kPath).ok());
  ElasticStore fresh;
  ASSERT_TRUE(fresh.LoadIndex(kPath).ok());
  EXPECT_EQ(*fresh.Count("empty", Query::MatchAll()), 0u);
}

}  // namespace
}  // namespace dio::backend
