// The transport layer: everything between the tracer's consumer threads and
// the terminal sinks (backend bulk client, trace file, ...).
//
// The paper ships events asynchronously in batches to a remote backend and
// accepts event discard under load as the cost of a lossy channel (§II-C,
// §III-D). This layer makes that channel explicit and composable: a chain of
// `Transport` stages, each accounting for what it accepted, delivered, and
// lost, so the discard experiment can report *where* events were lost (ring
// vs. transport queue vs. sink) instead of a single opaque number.
//
// Stage vocabulary (each is a Transport; decorators own their downstream):
//   QueueTransport     bounded queue + sender thread + Backpressure policy
//   RetryingTransport  timeout / exponential backoff / dead-letter / faults
//   FanOutSink         tees one stream to N downstream sinks
//   BulkClient         terminal: synchronous bulk-index into ElasticStore
//   TraceRecordSink    terminal: trace v1 file (trace/writer.h), the spool
//   CollectorSink      terminal: in-memory (tests, benches)
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "tracer/event.h"

namespace dio::transport {

// What a bounded stage does when a batch arrives and the queue is full.
enum class Backpressure {
  kBlock,       // producer waits for space (lossless; stalls consumers)
  kDropNewest,  // incoming batch is discarded
  kDropOldest,  // oldest queued batch is discarded to make room
};

[[nodiscard]] std::string_view ToString(Backpressure policy);
Expected<Backpressure> BackpressureFromString(std::string_view name);

// The unit shipped through the pipeline: a batch of events for one session,
// in deferred binary form (`events`, materialized as late as possible, on
// the far side of the queue hop), as tagged fixed-layout binary records
// (`wire`, the typed-ingest fast path: never converted to JSON unless a
// JSON-consuming sink asks), and/or pre-materialized JSON `documents`.
struct EventBatch {
  std::string session;
  std::vector<tracer::Event> events;
  std::vector<tracer::WireEvent> wire;
  std::vector<Json> documents;

  [[nodiscard]] std::size_t size() const {
    return events.size() + wire.size() + documents.size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  // Converts all deferred events — `events` first, then `wire` — into
  // documents (appended after any pre-materialized ones) and clears both.
  // Wire records materialize through WireEventToJson, byte-identical to the
  // Event route, so a sink's output does not depend on which form arrived.
  void Materialize();

  // Content fingerprint for duplicate-delivery detection: an acked-but-
  // nacked batch re-driven by the retry stage hashes identically, so an
  // ack-aware sink (the cluster router) can acknowledge it again without
  // re-applying. Hashes the session plus every record's decoded fields —
  // never raw struct bytes, whose padding is unspecified.
  [[nodiscard]] std::uint64_t Fingerprint() const;
};

// Per-stage accounting, surfaced in session info and the bench reports.
// Invariant every stage maintains once Flush() returns:
//   batches_in == batches_out + dropped_batches + dead_letter_batches
// (and the same for events), so loss is attributable per stage.
struct StageStats {
  std::string stage;  // stage name, e.g. "queue", "retry", "fanout", "bulk"

  std::uint64_t batches_in = 0;   // accepted by Submit()
  std::uint64_t batches_out = 0;  // successfully handed downstream
  std::uint64_t events_in = 0;
  std::uint64_t events_out = 0;

  // Backpressure losses (queue stages), split by policy for the bench.
  std::uint64_t dropped_batches = 0;
  std::uint64_t dropped_events = 0;
  std::uint64_t dropped_newest = 0;  // batches dropped on arrival
  std::uint64_t dropped_oldest = 0;  // batches evicted from the queue

  // Retry stage accounting.
  std::uint64_t retries = 0;          // re-attempts after a failure
  std::uint64_t faults_injected = 0;  // simulated network failures
  std::uint64_t dead_letter_batches = 0;  // given up after retries/deadline
  std::uint64_t dead_letter_events = 0;

  std::size_t queue_depth = 0;      // snapshot at stats() time
  std::size_t max_queue_depth = 0;  // high-water mark

  [[nodiscard]] Json ToJson() const;
};

// One stage of the shipping path. Decorator stages own their downstream and
// forward Flush()/CollectStats() so a chain behaves as one object.
//
// Contract:
//  * Submit() is thread-safe. For synchronous stages the returned Status is
//    the delivery outcome; for queueing stages it is the acceptance outcome
//    (delivery happens on the stage's own thread).
//  * Flush() drains everything in flight through this stage, then flushes
//    downstream — so a chain flush is deterministic: queues first, sinks
//    last, exactly the teardown order DioService relies on.
//  * CollectStats() appends this stage's stats, then its downstream's, so a
//    chain renders head-to-sink in order.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual Status Submit(EventBatch batch) = 0;
  virtual void Flush() = 0;
  virtual void CollectStats(std::vector<StageStats>* out) const = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;
};

}  // namespace dio::transport
