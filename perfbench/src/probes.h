// Probes the benchmark wraps around the DIO stack's layer boundaries.
//
//   HeadProbe      EventSink wrapper around the pipeline head handed to the
//                  tracer (consumer thread -> transport queue).
//   TerminalProbe  Transport wrapper around the terminal sink (queue sender
//                  thread -> BulkClient / ClusterBulkSink). Always records
//                  the one thing the plain run needs: when each event
//                  became searchable (hook-to-searchable freshness).
//   QueryProbe     QueryBackend wrapper handed to the correlator, the
//                  detectors and the dashboards.
//
// With tracing off the probes only forward, except TerminalProbe's
// visibility stamp. With tracing on they also record spans (name, start,
// end, parent) into a SpanLog kept in memory and written when the run ends,
// plus per-call latency samples for the per-layer metrics.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "backend/query_backend.h"
#include "common/clock.h"
#include "tracer/sink.h"
#include "transport/transport.h"

namespace perfbench {

using dio::Nanos;

inline Nanos Now() { return dio::SteadyClock::Instance()->NowNanos(); }

struct Span {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  std::string name;
  Nanos start = 0;
  Nanos end = 0;
};

// Thread-safe in-memory span store. Disabled logs record nothing and hand
// out id 0, so callers need no branches of their own.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  // Opens a span; parent 0 means "the calling thread's current span".
  std::uint32_t Begin(std::string name, std::uint32_t parent = 0);
  void End(std::uint32_t id);
  // Records an already-finished span.
  std::uint32_t Add(std::string name, std::uint32_t parent, Nanos start,
                    Nanos end);

  // The calling thread's innermost open span (0 if none).
  static std::uint32_t Current();

  [[nodiscard]] std::vector<Span> Snapshot() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // index = id - 1
};

// RAII span that becomes the thread's current span while open.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, std::uint32_t parent = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  SpanLog* log_;
  std::uint32_t id_;
  std::uint32_t saved_current_;
};

// Per-name totals: span count, summed duration, and summed self time (the
// duration minus the part of it covered by the span's children).
struct SpanTotals {
  std::uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<Span>& spans);

// Sorted-copy nearest-rank percentile; 0 for an empty sample.
double Percentile(std::vector<double> samples, double pct);
double Mean(const std::vector<double>& samples);

// Samples stamped with when they happened.
struct TimedSamples {
  std::vector<Nanos> at;
  std::vector<double> value;

  void Add(Nanos when, double v) {
    at.push_back(when);
    value.push_back(v);
  }
  // Splits the samples into consecutive `window`-long intervals (from the
  // first stamp) and appends the `pct` percentile of every interval holding
  // at least `min_samples` samples to `out`.
  void WindowPercentiles(Nanos window, double pct, std::size_t min_samples,
                         std::vector<double>* out) const;
};

// Traced runs: when each batch reached the pipeline head, keyed by its first
// record, so the terminal side can time the queue hop and parent its span.
class BatchArrivals {
 public:
  void Record(const dio::tracer::WireEvent& first, std::uint32_t span,
              Nanos at);
  // Claims the arrival of the batch whose first record is `first`.
  bool Take(const dio::tracer::WireEvent& first, std::uint32_t* span,
            Nanos* at);

 private:
  static std::uint64_t Key(const dio::tracer::WireEvent& first);

  std::mutex mu_;
  std::unordered_map<std::uint64_t, std::pair<std::uint32_t, Nanos>> arrivals_;
};

class HeadProbe final : public dio::tracer::EventSink {
 public:
  HeadProbe(dio::tracer::EventSink* inner, BatchArrivals* arrivals,
            SpanLog* spans)
      : inner_(inner), arrivals_(arrivals), spans_(spans) {}

  void IndexBatch(std::vector<dio::Json> documents) override;
  void IndexEvents(std::string_view session,
                   std::vector<dio::tracer::Event> events) override;
  void IndexWire(std::string_view session,
                 std::vector<dio::tracer::WireEvent> records) override;
  void Flush() override { inner_->Flush(); }

  // Traced runs: time_enter -> pipeline-head wait, ms, one per event.
  [[nodiscard]] std::vector<double> batch_wait_ms() const;

 private:
  dio::tracer::EventSink* inner_;
  BatchArrivals* arrivals_;
  SpanLog* spans_;
  mutable std::mutex mu_;
  std::vector<double> batch_wait_ms_;
};

// How many events of `index` a query can see right now.
std::uint64_t VisibleEvents(const dio::backend::QueryBackend& backend,
                            const std::string& index);

class TerminalProbe final : public dio::transport::Transport {
 public:
  // `backend` is read for visibility after every call (not through a probe,
  // so these reads never count as queries).
  TerminalProbe(std::unique_ptr<dio::transport::Transport> inner,
                const dio::backend::QueryBackend* backend, std::string index,
                BatchArrivals* arrivals, SpanLog* spans);

  dio::Status Submit(dio::transport::EventBatch batch) override;
  void Flush() override;
  void CollectStats(
      std::vector<dio::transport::StageStats>* out) const override {
    inner_->CollectStats(out);
  }
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }

  struct Samples {
    // Every event, by time_enter, in plain and traced runs.
    TimedSamples freshness_ms;
    // Traced runs only.
    std::vector<double> queue_ms;          // pipeline head -> Submit
    std::vector<double> submit_ms;         // Submits that made no event visible
    std::vector<double> refresh_ms;        // Submits and Flushes that did
    std::vector<double> terminal_call_ms;  // every Submit
    double submit_busy_s = 0;              // summed Submit time
    std::uint64_t submitted_events = 0;
    double flush_s = 0;                    // summed Flush time
  };
  // Call only once the pipeline is quiescent (after Flush).
  [[nodiscard]] const Samples& samples() const { return samples_; }

 private:
  // Stamps every delivered event a query can now see. Sender thread only.
  void StampVisible(Nanos now);

  std::unique_ptr<dio::transport::Transport> inner_;
  const dio::backend::QueryBackend* backend_;
  std::string index_;
  BatchArrivals* arrivals_;
  SpanLog* spans_;
  // Sender-thread state (the queue stage has exactly one sender).
  std::deque<Nanos> unseen_enter_;  // time_enter of delivered, unseen events
  std::uint64_t seen_ = 0;
  Samples samples_;
};

class QueryProbe final : public dio::backend::QueryBackend {
 public:
  QueryProbe(dio::backend::QueryBackend* inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  [[nodiscard]] dio::Expected<dio::backend::SearchResult> Search(
      const std::string& index,
      const dio::backend::SearchRequest& request) const override;
  [[nodiscard]] dio::Expected<std::size_t> Count(
      const std::string& index,
      const dio::backend::Query& query) const override;
  [[nodiscard]] dio::Expected<dio::backend::AggResult> Aggregate(
      const std::string& index, const dio::backend::Query& query,
      const dio::backend::Aggregation& agg) const override;
  dio::Expected<std::size_t> UpdateByQuery(
      const std::string& index, const dio::backend::Query& query,
      const std::function<bool(dio::Json&)>& update) override;
  void Refresh(const std::string& index) override;
  [[nodiscard]] bool HasIndex(const std::string& index) const override {
    return inner_->HasIndex(index);
  }
  [[nodiscard]] dio::Expected<dio::backend::IndexStats> Stats(
      const std::string& index) const override {
    return inner_->Stats(index);
  }

  struct Samples {
    std::vector<double> search_ms, count_ms, aggregate_ms;
    double update_by_query_s = 0;
    std::uint64_t search_hits = 0;
  };
  // Traced runs: every sample so far.
  [[nodiscard]] Samples samples() const;

 private:
  // Runs `call`; in traced runs also records it as span `name` and hands
  // its duration (ms) and result to `record` under the sample lock.
  template <typename Call, typename Record>
  auto Timed(const char* name, const Call& call, const Record& record) const {
    if (!spans_->enabled()) return call();
    const Nanos start = Now();
    auto result = call();
    const Nanos end = Now();
    spans_->Add(name, SpanLog::Current(), start, end);
    std::scoped_lock lock(mu_);
    record(static_cast<double>(end - start) / 1e6, result);
    return result;
  }

  dio::backend::QueryBackend* inner_;
  SpanLog* spans_;
  mutable std::mutex mu_;
  mutable Samples samples_;
};

}  // namespace perfbench
