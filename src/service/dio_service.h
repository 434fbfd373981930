// DioService: multi-session deployment (§II-F).
//
// "As the tracer component labels each tracing execution with a unique
// session name, one can deploy DIO as a service, setting up the analysis
// pipeline on dedicated servers and allowing multiple executions of DIO's
// tracer on different machines and by distinct users."
//
// The service owns the lifecycle of named tracing sessions against one
// shared backend: start/stop, metadata (who/when/how many events), and the
// post-session analysis entry points (correlation, detectors). Each session
// ships events through its own transport pipeline (transport/pipeline.h):
// bounded queue -> optional retry -> bulk/trace sinks, assembled from
// [transport] config. Session info carries the per-stage drop/retry/
// dead-letter accounting so loss is attributable per stage.
#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "backend/bulk_client.h"
#include "backend/correlation.h"
#include "backend/detectors.h"
#include "backend/store.h"
#include "cluster/cluster_sink.h"
#include "common/config.h"
#include "common/status.h"
#include "tracer/tracer.h"
#include "transport/pipeline.h"

namespace dio::service {

// The service's backend tier, built from config: a single embedded store by
// default, or — when the config sets any `cluster.*` knob — a hash-routed
// primary/replica cluster of embedded stores (cluster.{nodes,replicas,ack},
// see ClusterOptions::FromConfig). `query` points at whichever one serves
// analysis.
struct BackendTier {
  std::unique_ptr<backend::ElasticStore> store;
  std::unique_ptr<cluster::ClusterRouter> router;
  backend::QueryBackend* query = nullptr;

  [[nodiscard]] bool clustered() const { return router != nullptr; }
};

Expected<BackendTier> BuildBackendTier(const Config& config);

struct SessionInfo {
  std::string name;
  std::string owner;
  bool active = false;
  Nanos started_at = 0;
  Nanos stopped_at = 0;
  std::uint64_t events_emitted = 0;
  // Lost before the transport: ring-buffer overwrites + pending-map overflow.
  std::uint64_t events_dropped = 0;
  // Lost inside the transport chain, summed across stages.
  std::uint64_t transport_dropped = 0;     // backpressure drops (queue)
  std::uint64_t transport_retries = 0;     // delivery re-attempts
  std::uint64_t transport_dead_letters = 0;  // abandoned after retries
  // Per-stage StageStats::ToJson array, head to sink (queue, retry, sinks).
  Json transport_stages;
  // Cluster deployments only: ClusterRouter::HealthJson() at snapshot time
  // (per-node liveness, fan-out pool stats, replication/log counters,
  // per-index watermark lag). Null in single-store deployments.
  Json cluster_health;
  // Backend filter-bitmap cache traffic for this session's index
  // (hits/misses/evictions across segments and, in a cluster, nodes). Null
  // until the session's index exists.
  Json filter_cache;

  [[nodiscard]] Json ToJson() const;
};

class DioService {
 public:
  DioService(os::Kernel* kernel, backend::ElasticStore* store);
  // Cluster deployment: sessions ship through a ClusterBulkSink (replicated,
  // ack-gated ingest) and analysis scatter/gathers across the nodes.
  DioService(os::Kernel* kernel, cluster::ClusterRouter* router);
  ~DioService();

  DioService(const DioService&) = delete;
  DioService& operator=(const DioService&) = delete;

  // Starts a tracing session; options.session_name must be unique among
  // live AND finished sessions (each maps to a backend index). The shipping
  // path is assembled from `pipeline_options`; the "bulk" sink resolves to
  // a BulkClient built from `client_options`, or on a cluster to a
  // ClusterBulkSink with the same network latency and refresh interval.
  Expected<SessionInfo> StartSession(
      tracer::TracerOptions options, std::string owner = "",
      backend::BulkClientOptions client_options = {},
      transport::PipelineOptions pipeline_options = {});

  // Config-driven variant: [tracer] -> TracerOptions, [transport] ->
  // PipelineOptions + BulkClientOptions. Unrecognized keys in either
  // section are warned about at parse time; a rejected value fails the
  // call with the parser's error, which names the key.
  Expected<SessionInfo> StartSessionFromConfig(const Config& config,
                                               std::string owner = "");

  // Stops tracing; the session's data stays queryable (post-mortem, §II).
  // Teardown is deterministic: consumers join, then the transport chain is
  // flushed queue-first so every accepted batch is delivered or accounted.
  Status StopSession(const std::string& name);
  void StopAll();

  [[nodiscard]] std::vector<SessionInfo> ListSessions() const;
  [[nodiscard]] Expected<SessionInfo> GetSession(const std::string& name) const;

  // Analysis over a session's index (live or stopped).
  Expected<backend::CorrelationStats> Correlate(const std::string& name);
  Expected<std::vector<backend::Finding>> Diagnose(const std::string& name);

  // The single embedded store, or nullptr in cluster deployments.
  [[nodiscard]] backend::ElasticStore* store() { return store_; }
  // The cluster router, or nullptr in single-store deployments.
  [[nodiscard]] cluster::ClusterRouter* router() { return router_; }
  // The analysis surface — never null.
  [[nodiscard]] backend::QueryBackend* query_backend() { return backend_; }

 private:
  struct Session {
    SessionInfo info;
    // The pipeline owns the whole transport chain, terminal BulkClient
    // included. Declared before the tracer so the tracer (the producer)
    // is destroyed first.
    std::unique_ptr<transport::Pipeline> pipeline;
    std::unique_ptr<tracer::DioTracer> tracer;
  };

  [[nodiscard]] SessionInfo SnapshotLocked(const Session& session) const;
  void RefreshInfoLocked(Session& session) const;

  os::Kernel* kernel_;
  backend::ElasticStore* store_ = nullptr;
  cluster::ClusterRouter* router_ = nullptr;
  backend::QueryBackend* backend_ = nullptr;
  mutable std::mutex mu_;
  std::map<std::string, Session> sessions_;
};

}  // namespace dio::service
