// ClusterBulkSink: the terminal transport stage for a clustered backend —
// the drop-in replacement for backend::BulkClient when `cluster.nodes` is
// set. One Submit = one simulated network hop + one replicated, ack-gated
// router ingest. A rejected ingest (ack level unsatisfiable during a crash
// or partition) surfaces as the Submit status, so the retry stage above
// re-drives the batch exactly like a failed bulk request; the router's
// fingerprint dedupe keeps the re-drive exactly-once. Accepted batches
// become searchable on the same refresh deadline as BulkClient's.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "backend/bulk_client.h"
#include "cluster/router.h"
#include "common/clock.h"
#include "tracer/sink.h"
#include "transport/transport.h"

namespace dio::cluster {

class ClusterBulkSink final : public transport::Transport,
                              public tracer::EventSink {
 public:
  // `refresh_interval` is BulkClientOptions::refresh_interval_ms in
  // nanoseconds: after an accepted Submit the sink refreshes the index on
  // every node once that long has passed on `clock` since its last refresh
  // (0 = only on Flush). A refused Submit never refreshes.
  ClusterBulkSink(ClusterRouter* router, std::string index,
                  Nanos network_latency_ns = 200 * kMicrosecond,
                  Clock* clock = SteadyClock::Instance(),
                  Nanos refresh_interval =
                      backend::BulkClientOptions::kDefaultRefreshIntervalMs *
                      kMillisecond);

  ClusterBulkSink(const ClusterBulkSink&) = delete;
  ClusterBulkSink& operator=(const ClusterBulkSink&) = delete;

  Status Submit(transport::EventBatch batch) override;
  // Drains deferred replication (Settle) and refreshes the index on every
  // node, so teardown leaves the cluster quiescent and searchable.
  void Flush() override;
  void CollectStats(std::vector<transport::StageStats>* out) const override;
  [[nodiscard]] std::string_view name() const override { return "cluster"; }

  // tracer::EventSink facade for direct use without a pipeline.
  void IndexBatch(std::vector<Json> documents) override;
  void IndexEvents(std::string_view session,
                   std::vector<tracer::Event> events) override;

  // Submit() calls refused by the router (ack unsatisfiable) — the ledger
  // checker's expected in/out gap for this stage.
  [[nodiscard]] std::uint64_t rejected_batches() const;
  [[nodiscard]] std::uint64_t rejected_events() const;

  [[nodiscard]] ClusterRouter* router() { return router_; }
  [[nodiscard]] const std::string& index() const { return index_; }

 private:
  ClusterRouter* router_;
  std::string index_;
  Nanos network_latency_ns_;
  Clock* clock_;
  backend::RefreshDeadline refresh_;

  mutable std::mutex mu_;
  transport::StageStats stats_;
  std::uint64_t rejected_batches_ = 0;
  std::uint64_t rejected_events_ = 0;
};

}  // namespace dio::cluster
