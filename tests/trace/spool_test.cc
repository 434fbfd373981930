// The trace file as the pipeline's spool: TraceRecordSink writes it (and
// keeps its stage ledger balanced when the disk fails), LoadTrace restores
// it into a store. The loader is what crash recovery runs, so it has to be
// exact about torn tails, corruption, and at-least-once duplicates.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "backend/store.h"
#include "trace/format.h"
#include "trace/load.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "tracer/event.h"

namespace dio::trace {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

tracer::WireEvent Record(int id) {
  tracer::Event event;
  event.nr = os::SyscallNr::kWrite;
  event.pid = 7;
  event.tid = 7;
  event.comm = "spooler";
  event.proc_name = "spooler";
  event.time_enter = 1000 + id;
  event.time_exit = 1010 + id;
  event.ret = 64;
  event.fd = 3;
  event.count = 64;
  event.path = "/data/spool.log";
  tracer::WireEvent record;
  tracer::FillWireEvent(&record, event);
  return record;
}

void CheckLedger(const transport::StageStats& stage) {
  EXPECT_EQ(stage.batches_in, stage.batches_out + stage.dropped_batches +
                                  stage.dead_letter_batches)
      << stage.ToJson().Dump();
  EXPECT_EQ(stage.events_in, stage.events_out + stage.dropped_events +
                                 stage.dead_letter_events)
      << stage.ToJson().Dump();
}

TEST(TraceRecordSinkTest, WritesReplayableTrace) {
  const std::string path = TempPath("dio-sink-test.trace");
  auto sink = TraceRecordSink::Open(path);
  ASSERT_TRUE(sink.ok()) << sink.status().message();

  transport::EventBatch batch;
  batch.session = "spooled";
  batch.wire.push_back(Record(1));
  batch.wire.push_back(Record(2));
  ASSERT_TRUE((*sink)->Submit(std::move(batch)).ok());
  // JSON-only documents have no wire form: dropped, and counted.
  transport::EventBatch docs;
  docs.session = "spooled";
  docs.documents.push_back(Json::MakeObject());
  ASSERT_TRUE((*sink)->Submit(std::move(docs)).ok());
  (*sink)->Flush();

  std::vector<transport::StageStats> stats;
  (*sink)->CollectStats(&stats);
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].stage, "trace");
  EXPECT_EQ(stats[0].events_out, 2u);
  EXPECT_EQ(stats[0].dropped_events, 1u);
  CheckLedger(stats[0]);

  auto records = ReadTraceFile(path);
  ASSERT_TRUE(records.ok()) << records.status().message();
  ASSERT_EQ(records->size(), 2u);
  const Json doc = tracer::WireEventToJson((*records)[0], "spooled");
  EXPECT_EQ(doc.GetString("syscall"), "write");
  EXPECT_EQ(doc.GetString("session"), "spooled");
  EXPECT_EQ(doc.GetInt("ret"), 64);
  EXPECT_EQ((*records)[1].time_enter, 1002);
  std::remove(path.c_str());
}

TEST(TraceRecordSinkTest, RejectsEmptyOrUnwritablePath) {
  EXPECT_FALSE(TraceRecordSink::Open("").ok());
  EXPECT_FALSE(TraceRecordSink::Open("/nonexistent-dir/zzz/spool.trace").ok());
}

TEST(TraceRecordSinkTest, FailedWriteKeepsLedgerBalanced) {
  // /dev/full accepts the open and fails every write that reaches it, so
  // the writer fails part-way through some batch once its buffer spills.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  auto sink = TraceRecordSink::Open("/dev/full");
  ASSERT_TRUE(sink.ok()) << sink.status().message();

  std::size_t failed = 0;
  int id = 0;
  for (int b = 0; b < 20; ++b) {
    transport::EventBatch batch;
    batch.session = "full";
    for (int i = 0; i < 64; ++i) batch.wire.push_back(Record(id++));
    if (!(*sink)->Submit(std::move(batch)).ok()) ++failed;
  }
  (*sink)->Flush();
  EXPECT_GT(failed, 0u);
  EXPECT_TRUE((*sink)->writer()->failed());

  std::vector<transport::StageStats> stats;
  (*sink)->CollectStats(&stats);
  ASSERT_EQ(stats.size(), 1u);
  CheckLedger(stats[0]);
  // Only the batch whose write failed entered the ledger and lost events;
  // every later batch was rejected before it was counted.
  EXPECT_EQ(stats[0].batches_in, 20u - failed + 1);
  EXPECT_GT(stats[0].dropped_events, 0u);
  EXPECT_LE(stats[0].dropped_events, 64u);
}

// ---------------------------------------------------------------------------

class TraceLoadTest : public ::testing::Test {
 protected:
  // Records `records` in order to a fresh trace file.
  std::string WriteTrace(const std::vector<tracer::WireEvent>& records) {
    const std::string path = NextPath();
    auto writer = TraceWriter::Open(path);
    EXPECT_TRUE(writer.ok()) << writer.status().message();
    for (const tracer::WireEvent& record : records) {
      EXPECT_TRUE((*writer)->Append(record).ok());
    }
    EXPECT_TRUE((*writer)->Flush().ok());
    paths_.push_back(path);
    return path;
  }

  static std::string ReadBytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  std::string WriteBytes(const std::string& bytes) {
    const std::string path = NextPath();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    paths_.push_back(path);
    return path;
  }

  // Unique per test (ctest runs tests as concurrent processes) and per call.
  std::string NextPath() {
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    return TempPath("dio-load-" + test + "-" + std::to_string(counter_++) +
                    ".trace");
  }

  void TearDown() override {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }

  static constexpr TraceReadOptions kTolerant{.allow_truncated_tail = true};

  backend::ElasticStore store_;
  std::vector<std::string> paths_;
  int counter_ = 0;
};

TEST_F(TraceLoadTest, ZeroByteTraceLoadsNothing) {
  // A zero-byte file is a torn header: nothing to load when tolerated, an
  // error in strict mode (trace format rule, see trace/reader.h).
  const std::string path = WriteBytes("");
  auto stats = LoadTrace(&store_, path, "empty", "s", kTolerant);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats->loaded, 0u);
  EXPECT_EQ(stats->duplicates, 0u);
  EXPECT_TRUE(stats->truncated_tail);
  EXPECT_FALSE(LoadTrace(&store_, path, "empty-strict", "s").ok());
}

TEST_F(TraceLoadTest, MissingTraceIsNotFound) {
  auto stats = LoadTrace(&store_, TempPath("dio-nope.trace"), "gone", "s");
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), ErrorCode::kNotFound);
}

TEST_F(TraceLoadTest, TruncatedFinalRecordToleratedOnlyWithFlag) {
  // A crash mid-flush tears the last record.
  const std::string full = ReadBytes(WriteTrace({Record(1), Record(2),
                                                 Record(3)}));
  const std::string path = WriteBytes(full.substr(0, full.size() - 3));

  auto strict = LoadTrace(&store_, path, "torn-strict", "s");
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("torn"), std::string::npos)
      << strict.status().message();

  auto stats = LoadTrace(&store_, path, "torn", "s", kTolerant);
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats->loaded, 2u);
  EXPECT_TRUE(stats->truncated_tail);
  EXPECT_EQ(*store_.Count("torn", backend::Query::MatchAll()), 2u);
}

TEST_F(TraceLoadTest, CorruptFinalRecordIsNotATornTail) {
  // The bad record is last but whole (its CRC fails): that is corruption,
  // not a torn write — the tolerance flag must not mask it.
  std::string bytes = ReadBytes(WriteTrace({Record(1), Record(2)}));
  const std::size_t last_payload_byte = bytes.size() - 5;
  bytes[last_payload_byte] = static_cast<char>(bytes[last_payload_byte] ^ 1);
  const std::string path = WriteBytes(bytes);
  auto stats = LoadTrace(&store_, path, "corrupt-tail", "s", kTolerant);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find("crc"), std::string::npos)
      << stats.status().message();
}

TEST_F(TraceLoadTest, InteriorCorruptionFailsEvenWhenTolerant) {
  std::string bytes = ReadBytes(WriteTrace({Record(1), Record(2)}));
  // First payload byte of the first frame.
  const std::size_t at = kTraceHeaderBytes + kFramePreludeBytes;
  bytes[at] = static_cast<char>(bytes[at] ^ 0x5A);
  const std::string path = WriteBytes(bytes);
  auto stats = LoadTrace(&store_, path, "interior", "s", kTolerant);
  ASSERT_FALSE(stats.ok());
  EXPECT_NE(stats.status().message().find(
                "offset " + std::to_string(kTraceHeaderBytes)),
            std::string::npos)
      << stats.status().message();
}

TEST_F(TraceLoadTest, DedupeRestoresExactlyOnceAfterDuplicatedFlush) {
  // An at-least-once spool: a retry above the fan-out re-drove a whole
  // batch after a lost ack, so records 1 and 2 appear twice, the second
  // copy right after the first copy of the batch.
  const std::string path = WriteTrace(
      {Record(1), Record(2), Record(1), Record(2), Record(3)});
  auto stats = LoadTrace(&store_, path, "dedupe", "s");
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats->loaded, 3u);
  EXPECT_EQ(stats->duplicates, 2u);
  EXPECT_FALSE(stats->truncated_tail);
  EXPECT_EQ(*store_.Count("dedupe", backend::Query::MatchAll()), 3u);
  // The session is the caller's: records carry none.
  EXPECT_EQ(*store_.Count("dedupe", backend::Query::Term("session", Json("s"))),
            3u);
}

TEST_F(TraceLoadTest, DedupeStillLoadsAcrossBatchBoundaries) {
  // More records than one 512-record bulk batch, every record duplicated:
  // the batch boundary must not reset or double-count anything.
  std::vector<tracer::WireEvent> records;
  for (int i = 0; i < 600; ++i) {
    records.push_back(Record(i));
    records.push_back(Record(i));
  }
  auto stats = LoadTrace(&store_, WriteTrace(records), "big-dedupe", "s");
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats->loaded, 600u);
  EXPECT_EQ(stats->duplicates, 600u);
  EXPECT_EQ(*store_.Count("big-dedupe", backend::Query::MatchAll()), 600u);
}

TEST_F(TraceLoadTest, RecordsDifferingOnlyInTimeExitAreBothKept) {
  tracer::WireEvent later = Record(1);
  later.time_exit += 1;
  const std::string path = WriteTrace({Record(1), later});
  auto stats = LoadTrace(&store_, path, "distinct", "s");
  ASSERT_TRUE(stats.ok()) << stats.status().message();
  EXPECT_EQ(stats->loaded, 2u);
  EXPECT_EQ(stats->duplicates, 0u);
  EXPECT_EQ(*store_.Count("distinct", backend::Query::MatchAll()), 2u);
}

}  // namespace
}  // namespace dio::trace
