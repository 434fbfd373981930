// Where the tracer's consumer threads ship decoded events. In production
// this is the head of a transport::Pipeline (transport/pipeline.h): a
// bounded queue with an explicit backpressure policy, optionally retry and
// fan-out stages, and one or more terminal sinks (backend bulk client,
// trace file). Tests use in-memory sinks.
//
// Contract the transport layer relies on:
//  * IndexBatch/IndexEvents are called concurrently by N consumer threads.
//  * Flush() is the deterministic drain barrier: when it returns, every
//    previously submitted batch has been delivered or accounted as lost
//    downstream. DioTracer::Stop() calls it after the consumers join, so
//    teardown order is always consumers -> transport queues -> sinks.
#pragma once

#include <string_view>
#include <vector>

#include "common/json.h"
#include "tracer/event.h"

namespace dio::tracer {

class EventSink {
 public:
  virtual ~EventSink() = default;
  // Bulk ingestion of a batch of event documents (mirrors Elasticsearch's
  // _bulk API used by the paper's tracer).
  virtual void IndexBatch(std::vector<Json> documents) = 0;
  // Fast path: decoded binary events, NOT yet materialized as JSON. The
  // consumer threads call this so per-event Json allocation happens inside
  // the sink (for BulkClient: on the sender thread / at store ingest),
  // keeping the ring-drain loops lean. The default implementation converts
  // eagerly and forwards to IndexBatch, so simple sinks only implement that.
  virtual void IndexEvents(std::string_view session,
                           std::vector<Event> events) {
    std::vector<Json> documents;
    documents.reserve(events.size());
    for (const Event& event : events) {
      documents.push_back(event.ToJson(session));
    }
    IndexBatch(std::move(documents));
  }
  // Fastest path: owned copies of the fixed-layout wire records, exactly as
  // they crossed the ring (typed ingest). Sinks that understand the binary
  // form (transport::Pipeline -> backend::BulkClient -> ElasticStore's
  // typed-ingest route) forward it untouched; the default materializes to
  // Events and falls back to IndexEvents so simple sinks keep working.
  virtual void IndexWire(std::string_view session,
                         std::vector<WireEvent> records) {
    std::vector<Event> events;
    events.reserve(records.size());
    for (const WireEvent& record : records) {
      events.push_back(MaterializeEvent(record));
    }
    IndexEvents(session, std::move(events));
  }
  // Called at session end so the sink can flush/refresh.
  virtual void Flush() {}
};

}  // namespace dio::tracer
