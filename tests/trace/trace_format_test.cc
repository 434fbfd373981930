// Trace format satellite: round-trip property (record -> read -> re-record
// is byte-identical, including against the committed golden corpus under
// tests/trace/data/), corruption rejection with record-accurate offsets, and
// the spool's tail semantics (tolerant skips a torn final record with a
// counter; strict fails; true corruption fails in both modes).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gtest/gtest.h"

#include "common/random.h"
#include "trace/corpus.h"
#include "trace/format.h"
#include "trace/reader.h"
#include "trace/replay.h"
#include "trace/writer.h"

namespace dio::trace {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::string RecordToFile(const std::vector<tracer::WireEvent>& events,
                         const std::string& path) {
  auto writer = TraceWriter::Open(path);
  EXPECT_TRUE(writer.ok()) << writer.status().message();
  for (const tracer::WireEvent& event : events) {
    EXPECT_TRUE((*writer)->Append(event).ok());
  }
  EXPECT_TRUE((*writer)->Flush().ok());
  return ReadFileBytes(path);
}

// Frame boundaries of a well-formed trace: byte offset where each frame
// (prelude + payload + CRC) starts. Computed straight from the layout in
// trace/format.h, independent of the reader under test.
std::vector<std::size_t> FrameOffsets(const std::string& bytes) {
  std::vector<std::size_t> offsets;
  std::size_t pos = kTraceHeaderBytes;
  while (pos + kFramePreludeBytes <= bytes.size()) {
    offsets.push_back(pos);
    const std::uint32_t payload_len = ReadU32(bytes.data() + pos + 1);
    pos += kFramePreludeBytes + payload_len + 4;
  }
  EXPECT_EQ(pos, bytes.size());
  return offsets;
}

TEST(TraceFormatTest, RoundTripReRecordIsByteIdentical) {
  for (const CorpusClass cls : kAllCorpusClasses) {
    SCOPED_TRACE(CorpusClassName(cls));
    const std::vector<tracer::WireEvent> events =
        GenerateCorpusEvents(cls, 300, 7);
    ASSERT_EQ(events.size(), 300u);

    const std::string path_a = TempPath("dio-roundtrip-a.trace");
    const std::string bytes_a = RecordToFile(events, path_a);

    TraceReadStats stats;
    auto decoded = ReadTraceFile(path_a, {}, &stats);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    ASSERT_EQ(decoded->size(), events.size());
    EXPECT_EQ(stats.events, events.size());
    EXPECT_EQ(stats.bytes, bytes_a.size());
    EXPECT_EQ(stats.torn_tail_records, 0u);

    // Field-exact equality via the padding-safe hash, plus spot fields.
    for (std::size_t i = 0; i < events.size(); ++i) {
      EXPECT_EQ(HashWireEvent(0, events[i]), HashWireEvent(0, (*decoded)[i]))
          << "event " << i;
      EXPECT_EQ(events[i].time_enter, (*decoded)[i].time_enter);
      EXPECT_EQ(events[i].ret, (*decoded)[i].ret);
      EXPECT_EQ(std::string(events[i].path, events[i].path_len),
                std::string((*decoded)[i].path, (*decoded)[i].path_len));
    }

    const std::string path_b = TempPath("dio-roundtrip-b.trace");
    const std::string bytes_b = RecordToFile(*decoded, path_b);
    EXPECT_EQ(bytes_a, bytes_b) << "re-record must be byte-identical";
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
  }
}

// The committed golden corpus must decode, match the in-tree generator, and
// re-record byte-identically — any format or generator drift fails here
// instead of silently invalidating recorded traces.
TEST(TraceFormatTest, GoldenCorpusIsStable) {
  for (const CorpusClass cls : kAllCorpusClasses) {
    SCOPED_TRACE(CorpusClassName(cls));
    const std::string golden_path = std::string(DIO_TRACE_DATA_DIR) + "/" +
                                    std::string(CorpusClassName(cls)) +
                                    ".trace";
    const std::string golden_bytes = ReadFileBytes(golden_path);
    ASSERT_FALSE(golden_bytes.empty()) << golden_path;

    auto decoded = ReadTraceFile(golden_path);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    ASSERT_EQ(decoded->size(), 400u);

    // The fixtures were produced by `dio-replay record --ops=400 --seed=42`.
    const std::vector<tracer::WireEvent> regenerated =
        GenerateCorpusEvents(cls, 400, 42);
    ASSERT_EQ(regenerated.size(), decoded->size());
    for (std::size_t i = 0; i < regenerated.size(); ++i) {
      ASSERT_EQ(HashWireEvent(0, regenerated[i]),
                HashWireEvent(0, (*decoded)[i]))
          << "event " << i;
    }

    const std::string path = TempPath("dio-golden-rerecord.trace");
    EXPECT_EQ(RecordToFile(*decoded, path), golden_bytes);
    std::remove(path.c_str());
  }
}

TEST(TraceFormatTest, ZeroByteFile) {
  const std::string path = TempPath("dio-zero.trace");
  WriteFileBytes(path, "");

  auto strict = ReadTraceFile(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find("offset 0"), std::string::npos)
      << strict.status().message();

  TraceReadStats stats;
  auto tolerant =
      ReadTraceFile(path, {.allow_truncated_tail = true}, &stats);
  ASSERT_TRUE(tolerant.ok()) << tolerant.status().message();
  EXPECT_TRUE(tolerant->empty());
  EXPECT_EQ(stats.torn_tail_records, 1u);
  std::remove(path.c_str());
}

TEST(TraceFormatTest, HeaderOnlyFileIsEmptyInBothModes) {
  const std::string full =
      RecordToFile(GenerateCorpusEvents(CorpusClass::kWalFsync, 50, 3),
                   TempPath("dio-header-src.trace"));
  const std::string path = TempPath("dio-header-only.trace");
  WriteFileBytes(path, full.substr(0, kTraceHeaderBytes));

  for (const bool tolerant : {false, true}) {
    TraceReadStats stats;
    auto decoded =
        ReadTraceFile(path, {.allow_truncated_tail = tolerant}, &stats);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    EXPECT_TRUE(decoded->empty());
    EXPECT_EQ(stats.torn_tail_records, 0u);
  }
  std::remove(path.c_str());
  std::remove(TempPath("dio-header-src.trace").c_str());
}

TEST(TraceFormatTest, MidRecordTornTailTolerantSkipsStrictFails) {
  const std::vector<tracer::WireEvent> events =
      GenerateCorpusEvents(CorpusClass::kLogSegment, 120, 9);
  const std::string src = TempPath("dio-torn-src.trace");
  const std::string bytes = RecordToFile(events, src);
  const std::vector<std::size_t> frames = FrameOffsets(bytes);
  ASSERT_GT(frames.size(), 2u);

  // Cut mid-way through the final frame.
  const std::size_t cut = frames.back() + 2;
  const std::string path = TempPath("dio-torn.trace");
  WriteFileBytes(path, bytes.substr(0, cut));

  auto strict = ReadTraceFile(path);
  ASSERT_FALSE(strict.ok());
  EXPECT_NE(strict.status().message().find(
                "offset " + std::to_string(frames.back())),
            std::string::npos)
      << strict.status().message();

  TraceReadStats stats;
  auto tolerant =
      ReadTraceFile(path, {.allow_truncated_tail = true}, &stats);
  ASSERT_TRUE(tolerant.ok()) << tolerant.status().message();
  EXPECT_EQ(stats.torn_tail_records, 1u);
  EXPECT_TRUE(stats.truncated_tail());
  // Every whole record before the tear decodes; frames include dict
  // records, so compare against the event count the stats report.
  EXPECT_EQ(tolerant->size(), stats.events);
  EXPECT_LT(tolerant->size(), events.size());
  EXPECT_GT(tolerant->size(), 0u);
  std::remove(src.c_str());
  std::remove(path.c_str());
}

// Random truncation property: every cut point either lands on a frame
// boundary (clean, shorter decode) or tears the tail (tolerant skips with
// the counter, strict fails naming the torn frame's exact offset).
TEST(TraceFormatTest, RandomTruncationIsAlwaysDiagnosed) {
  const std::vector<tracer::WireEvent> events =
      GenerateCorpusEvents(CorpusClass::kRocksDb, 200, 11);
  const std::string src = TempPath("dio-trunc-src.trace");
  const std::string bytes = RecordToFile(events, src);
  const std::vector<std::size_t> frames = FrameOffsets(bytes);
  const std::string path = TempPath("dio-trunc.trace");

  Random rng(1234);
  for (int round = 0; round < 40; ++round) {
    const std::size_t cut =
        kTraceHeaderBytes +
        static_cast<std::size_t>(
            rng.Uniform(bytes.size() - kTraceHeaderBytes + 1));
    WriteFileBytes(path, bytes.substr(0, cut));
    const bool on_boundary =
        cut == bytes.size() ||
        std::find(frames.begin(), frames.end(), cut) != frames.end();
    // The frame the cut falls inside: last frame offset <= cut.
    std::size_t torn_at = frames.front();
    for (const std::size_t off : frames) {
      if (off < cut || (off == cut && on_boundary)) torn_at = off;
      if (off >= cut) break;
    }

    TraceReadStats stats;
    auto tolerant =
        ReadTraceFile(path, {.allow_truncated_tail = true}, &stats);
    ASSERT_TRUE(tolerant.ok())
        << "cut=" << cut << ": " << tolerant.status().message();
    EXPECT_EQ(stats.torn_tail_records, on_boundary ? 0u : 1u) << "cut=" << cut;

    auto strict = ReadTraceFile(path);
    if (on_boundary) {
      ASSERT_TRUE(strict.ok()) << "cut=" << cut;
      EXPECT_EQ(strict->size(), tolerant->size());
    } else {
      ASSERT_FALSE(strict.ok()) << "cut=" << cut;
      EXPECT_NE(strict.status().message().find(
                    "offset " + std::to_string(torn_at)),
                std::string::npos)
          << "cut=" << cut << ": " << strict.status().message();
    }
  }
  std::remove(src.c_str());
  std::remove(path.c_str());
}

// Flipping a byte inside a frame body is corruption, not a torn tail: both
// modes must reject it, and the error names the corrupt frame's offset.
TEST(TraceFormatTest, CorruptionRejectedWithRecordAccurateOffset) {
  const std::vector<tracer::WireEvent> events =
      GenerateCorpusEvents(CorpusClass::kFluentBit, 150, 5);
  const std::string src = TempPath("dio-corrupt-src.trace");
  const std::string bytes = RecordToFile(events, src);
  const std::vector<std::size_t> frames = FrameOffsets(bytes);
  ASSERT_GT(frames.size(), 4u);
  const std::string path = TempPath("dio-corrupt.trace");

  Random rng(99);
  for (int round = 0; round < 20; ++round) {
    // Never the last frame: a flip there must still fail strict mode, but
    // tolerant mode may legally treat a bad final CRC as... no — CRC
    // mismatch is corruption in both modes; the last frame is excluded only
    // to keep the expected-offset bookkeeping simple.
    const std::size_t frame =
        static_cast<std::size_t>(rng.Uniform(frames.size() - 1));
    const std::size_t lo = frames[frame];
    const std::size_t hi = frames[frame + 1];
    // Flip inside the payload or the CRC. The type and length bytes are
    // left alone: damaging the length makes the reader mis-frame and see a
    // torn tail instead of corruption, which is the torn-tail tests' case.
    const std::size_t at =
        lo + kFramePreludeBytes +
        static_cast<std::size_t>(rng.Uniform(hi - lo - kFramePreludeBytes));
    std::string corrupted = bytes;
    corrupted[at] = static_cast<char>(corrupted[at] ^ 0x5A);
    WriteFileBytes(path, corrupted);

    for (const bool tolerant : {false, true}) {
      auto decoded =
          ReadTraceFile(path, {.allow_truncated_tail = tolerant});
      ASSERT_FALSE(decoded.ok())
          << "frame=" << frame << " at=" << at << " tolerant=" << tolerant;
      EXPECT_NE(decoded.status().message().find(
                    "offset " + std::to_string(lo) + ":"),
                std::string::npos)
          << "frame=" << frame << " at=" << at << ": "
          << decoded.status().message();
    }
  }

  // Header corruption: flip a magic byte.
  std::string bad_header = bytes;
  bad_header[3] = static_cast<char>(bad_header[3] ^ 0xFF);
  WriteFileBytes(path, bad_header);
  for (const bool tolerant : {false, true}) {
    EXPECT_FALSE(ReadTraceFile(path, {.allow_truncated_tail = tolerant}).ok());
  }
  std::remove(src.c_str());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dio::trace
