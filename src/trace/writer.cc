#include "trace/writer.h"

#include <utility>

namespace dio::trace {

Expected<std::unique_ptr<TraceWriter>> TraceWriter::Open(
    const std::string& path) {
  auto writer = std::unique_ptr<TraceWriter>(new TraceWriter(path));
  if (!writer->out_) {
    return InvalidArgument("cannot open trace file for write: " + path);
  }
  const std::string header = EncodeTraceHeader();
  writer->out_.write(header.data(),
                     static_cast<std::streamsize>(header.size()));
  if (!writer->out_) {
    return InvalidArgument("cannot write trace header: " + path);
  }
  writer->stats_.bytes = header.size();
  return writer;
}

TraceWriter::TraceWriter(std::string path)
    : path_(std::move(path)),
      out_(path_, std::ios::binary | std::ios::trunc) {}

std::uint32_t TraceWriter::InternLocked(std::string_view s) {
  if (s.empty()) return 0;
  auto it = dict_.find(std::string(s));
  if (it != dict_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(dict_.size() + 1);
  dict_.emplace(std::string(s), id);
  std::string payload;
  PutVarint(&payload, id);
  payload.append(s);
  WriteFrameLocked(TraceRecordType::kDict, payload);
  ++stats_.dict_entries;
  return id;
}

void TraceWriter::WriteFrameLocked(TraceRecordType type,
                                   const std::string& payload) {
  std::string frame;
  frame.reserve(kFramePreludeBytes + payload.size() + 4);
  frame.push_back(static_cast<char>(type));
  PutU32(&frame, static_cast<std::uint32_t>(payload.size()));
  frame.append(payload);
  PutU32(&frame, Crc32(frame.data(), frame.size()));
  out_.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  if (!out_) failed_ = true;
  stats_.bytes += frame.size();
}

Status TraceWriter::Append(const tracer::WireEvent& record) {
  std::scoped_lock lock(mu_);
  if (failed_) return Internal("trace writer failed: " + path_);

  // Dictionary entries for any new strings go first, so at decode time an
  // event record only ever references already-interned ids.
  const std::uint32_t comm_id =
      InternLocked({record.comm, record.comm_len});
  const std::uint32_t proc_name_id =
      InternLocked({record.proc_name, record.proc_name_len});
  const std::uint32_t path_id = InternLocked({record.path, record.path_len});
  const std::uint32_t path2_id =
      InternLocked({record.path2, record.path2_len});
  const std::uint32_t xattr_id =
      InternLocked({record.xattr_name, record.xattr_len});

  std::string& p = scratch_;
  p.clear();
  PutVarint(&p, record.nr);
  PutVarint(&p, record.phase);
  PutZigZag(&p, record.pid);
  PutZigZag(&p, record.tid);
  PutZigZag(&p, record.cpu);
  PutZigZag(&p, record.time_enter - prev_time_enter_);
  PutZigZag(&p, record.time_exit - record.time_enter);
  PutZigZag(&p, record.ret);
  PutVarint(&p, record.count);
  PutZigZag(&p, record.arg_offset);
  PutZigZag(&p, record.file_offset);
  PutZigZag(&p, record.fd);
  PutZigZag(&p, record.whence);
  PutVarint(&p, record.flags);
  PutVarint(&p, record.mode);
  PutVarint(&p, record.file_type);
  PutVarint(&p, comm_id);
  PutVarint(&p, proc_name_id);
  PutVarint(&p, path_id);
  PutVarint(&p, path2_id);
  PutVarint(&p, xattr_id);
  PutVarint(&p, record.tag_valid ? 1 : 0);
  if (record.tag_valid) {
    PutVarint(&p, record.tag_dev);
    PutVarint(&p, record.tag_ino);
    PutZigZag(&p, record.tag_ts - record.time_enter);
  }
  // Truncation counters are almost always zero; a presence bitmap keeps the
  // common case to one byte while still round-tripping them exactly.
  std::uint64_t trunc_bits = 0;
  const std::uint16_t trunc[] = {record.comm_trunc, record.proc_name_trunc,
                                 record.path_trunc, record.path2_trunc,
                                 record.xattr_trunc};
  for (std::size_t i = 0; i < 5; ++i) {
    if (trunc[i] != 0) trunc_bits |= 1ull << i;
  }
  PutVarint(&p, trunc_bits);
  for (std::size_t i = 0; i < 5; ++i) {
    if (trunc[i] != 0) PutVarint(&p, trunc[i]);
  }

  WriteFrameLocked(TraceRecordType::kEvent, p);
  if (failed_) return Internal("trace write failed: " + path_);
  prev_time_enter_ = record.time_enter;
  ++stats_.events;
  return Status::Ok();
}

Status TraceWriter::Append(const tracer::Event& event) {
  tracer::WireEvent record;
  tracer::FillWireEvent(&record, event);
  return Append(record);
}

Status TraceWriter::Flush() {
  std::scoped_lock lock(mu_);
  out_.flush();
  if (!out_) {
    failed_ = true;
    return Internal("trace flush failed: " + path_);
  }
  return Status::Ok();
}

bool TraceWriter::failed() const {
  std::scoped_lock lock(mu_);
  return failed_;
}

TraceWriterStats TraceWriter::stats() const {
  std::scoped_lock lock(mu_);
  return stats_;
}

// ---- TraceRecordSink ----------------------------------------------------

Expected<std::unique_ptr<TraceRecordSink>> TraceRecordSink::Open(
    const std::string& path) {
  if (path.empty()) {
    return InvalidArgument(
        "trace sink requires a path (transport.trace_path)");
  }
  auto writer = TraceWriter::Open(path);
  if (!writer.ok()) return writer.status();
  return std::unique_ptr<TraceRecordSink>(
      new TraceRecordSink(std::move(*writer)));
}

TraceRecordSink::TraceRecordSink(std::unique_ptr<TraceWriter> writer)
    : writer_(std::move(writer)) {
  stats_.stage = "trace";
}

Status TraceRecordSink::Submit(transport::EventBatch batch) {
  std::scoped_lock lock(mu_);
  // A failed writer rejects the batch before it enters the ledger (like
  // CollectorSink's scripted failures): the caller owns that accounting.
  if (writer_->failed()) {
    return Internal("trace writer failed: " + writer_->path());
  }
  stats_.batches_in += 1;
  stats_.events_in += batch.size();
  std::uint64_t recorded = 0;
  Status status;
  for (const tracer::Event& event : batch.events) {
    if (status = writer_->Append(event); !status.ok()) break;
    ++recorded;
  }
  for (const tracer::WireEvent& record : batch.wire) {
    if (!status.ok()) break;
    if (status = writer_->Append(record); !status.ok()) break;
    ++recorded;
  }
  // What was not recorded — JSON-only documents, which cannot be mapped
  // back to the wire layout, and the rest of a batch whose write failed —
  // is counted as dropped, so the stage ledger still balances.
  const std::uint64_t unrecorded = batch.size() - recorded;
  stats_.events_out += recorded;
  stats_.dropped_events += unrecorded;
  if (recorded > 0 || unrecorded == 0) {
    stats_.batches_out += 1;
  } else {
    stats_.dropped_batches += 1;
  }
  return status;
}

void TraceRecordSink::Flush() { (void)writer_->Flush(); }

void TraceRecordSink::CollectStats(
    std::vector<transport::StageStats>* out) const {
  std::scoped_lock lock(mu_);
  out->push_back(stats_);
}

}  // namespace dio::trace
