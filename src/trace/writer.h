// Trace recorder: taps the tracer's WireEvent stream and writes the compact
// CRC-framed binary trace file described in trace/format.h.
//
// Three entry points, one file format:
//   * TraceWriter        — the encoder itself (Append one wire record).
//   * TraceRecordSink    — a transport::Transport terminal, so any session's
//                          shipping chain can record by listing "trace" in
//                          transport.sinks (DioService resolves it, like
//                          "bulk"). It is the pipeline's only file sink: the
//                          on-disk spool that trace::LoadTrace (trace/load.h)
//                          restores into a store.
//   * RecordingEventSink — a tracer::EventSink tee: records the stream and
//                          forwards it untouched to a downstream sink, for
//                          capturing a live run while it still indexes.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "trace/format.h"
#include "tracer/event.h"
#include "tracer/sink.h"
#include "transport/transport.h"

namespace dio::trace {

struct TraceWriterStats {
  std::uint64_t events = 0;        // event records written
  std::uint64_t dict_entries = 0;  // interned strings emitted
  std::uint64_t bytes = 0;         // file size, header included
};

class TraceWriter {
 public:
  // Creates/truncates `path` and writes the header.
  static Expected<std::unique_ptr<TraceWriter>> Open(const std::string& path);

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  // Appends one event record (plus any dictionary records its strings need
  // first). Thread-safe; the record order is the append order.
  Status Append(const tracer::WireEvent& record);
  Status Append(const tracer::Event& event);

  // Pushes buffered bytes to the OS. The format needs no footer, so a
  // flushed trace is valid up to the last whole record — a torn tail is
  // exactly what the reader's tolerant mode (trace/reader.h) skips.
  Status Flush();

  // True once a write or flush has failed; every later Append fails too.
  [[nodiscard]] bool failed() const;
  [[nodiscard]] TraceWriterStats stats() const;
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  explicit TraceWriter(std::string path);

  // Returns the dictionary id for `s` (0 = empty), emitting the dict record
  // on first use. Caller holds mu_.
  std::uint32_t InternLocked(std::string_view s);
  void WriteFrameLocked(TraceRecordType type, const std::string& payload);

  std::string path_;
  mutable std::mutex mu_;
  std::ofstream out_;
  bool failed_ = false;
  std::unordered_map<std::string, std::uint32_t> dict_;
  std::int64_t prev_time_enter_ = 0;
  TraceWriterStats stats_;
  std::string scratch_;  // reused payload buffer
};

// Transport terminal sink: records every batch's events to a trace file.
// Wire records are written verbatim; deferred Events are converted through
// the same FillWireEvent the hook path uses. Pre-materialized JSON documents
// cannot be mapped back onto the fixed wire layout losslessly, so they are
// counted as dropped (the stage ledger in == out + dropped still balances) —
// recording is a wire-level tap, and every production route ships binary.
// A failed write drops the rest of its batch (counted) and fails the
// Submit; once the writer has failed, later batches are rejected before
// they enter the ledger.
class TraceRecordSink final : public transport::Transport {
 public:
  static Expected<std::unique_ptr<TraceRecordSink>> Open(
      const std::string& path);

  Status Submit(transport::EventBatch batch) override;
  void Flush() override;
  void CollectStats(std::vector<transport::StageStats>* out) const override;
  [[nodiscard]] std::string_view name() const override { return "trace"; }

  [[nodiscard]] TraceWriter* writer() { return writer_.get(); }

 private:
  explicit TraceRecordSink(std::unique_ptr<TraceWriter> writer);

  std::unique_ptr<TraceWriter> writer_;
  mutable std::mutex mu_;
  transport::StageStats stats_;
};

// EventSink tee: Append to the trace, then forward to `downstream`
// untouched. The recorded stream is exactly what the downstream indexed, so
// a replay of the file is the run's twin.
class RecordingEventSink final : public tracer::EventSink {
 public:
  RecordingEventSink(TraceWriter* writer, tracer::EventSink* downstream)
      : writer_(writer), downstream_(downstream) {}

  void IndexBatch(std::vector<Json> documents) override {
    // JSON-only batches bypass the wire tap (see TraceRecordSink).
    downstream_->IndexBatch(std::move(documents));
  }
  void IndexEvents(std::string_view session,
                   std::vector<tracer::Event> events) override {
    for (const tracer::Event& event : events) (void)writer_->Append(event);
    downstream_->IndexEvents(session, std::move(events));
  }
  void IndexWire(std::string_view session,
                 std::vector<tracer::WireEvent> records) override {
    for (const tracer::WireEvent& record : records) {
      (void)writer_->Append(record);
    }
    downstream_->IndexWire(session, std::move(records));
  }
  void Flush() override {
    (void)writer_->Flush();
    downstream_->Flush();
  }

 private:
  TraceWriter* writer_;
  tracer::EventSink* downstream_;
};

}  // namespace dio::trace
