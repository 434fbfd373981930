#include "probes.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

namespace {
thread_local std::uint32_t current_span = 0;
}  // namespace

// ---- spans ------------------------------------------------------------------

std::uint32_t SpanLog::Begin(std::string name, std::uint32_t parent) {
  if (!enabled_) return 0;
  return Add(std::move(name), parent == 0 ? current_span : parent, Now(), 0);
}

void SpanLog::End(std::uint32_t id) {
  if (!enabled_ || id == 0) return;
  const Nanos now = Now();
  std::scoped_lock lock(mu_);
  spans_[id - 1].end = now;
}

std::uint32_t SpanLog::Add(std::string name, std::uint32_t parent, Nanos start,
                           Nanos end) {
  if (!enabled_) return 0;
  std::scoped_lock lock(mu_);
  Span span;
  span.id = static_cast<std::uint32_t>(spans_.size() + 1);
  span.parent = parent;
  span.name = std::move(name);
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

std::uint32_t SpanLog::Current() { return current_span; }

std::vector<Span> SpanLog::Snapshot() const {
  std::scoped_lock lock(mu_);
  return spans_;
}

ScopedSpan::ScopedSpan(SpanLog* log, std::string name, std::uint32_t parent)
    : log_(log),
      id_(log->Begin(std::move(name), parent)),
      saved_current_(current_span) {
  if (id_ != 0) current_span = id_;
}

ScopedSpan::~ScopedSpan() {
  log_->End(id_);
  current_span = saved_current_;
}

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<Span>& spans) {
  // Children intervals per parent, clipped to the parent and merged, give
  // the covered part; self = duration - covered.
  std::vector<std::vector<std::pair<Nanos, Nanos>>> children(spans.size() + 1);
  for (const Span& span : spans) {
    if (span.parent != 0 && span.parent <= spans.size() && span.end > 0) {
      children[span.parent].emplace_back(span.start, span.end);
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (const Span& span : spans) {
    if (span.end <= 0) continue;
    auto& kids = children[span.id];
    std::sort(kids.begin(), kids.end());
    Nanos covered = 0;
    Nanos cursor = span.start;
    for (const auto& [start, end] : kids) {
      const Nanos lo = std::max(start, cursor);
      const Nanos hi = std::min(end, span.end);
      if (hi > lo) {
        covered += hi - lo;
        cursor = hi;
      }
    }
    SpanTotals& t = totals[span.name];
    t.count += 1;
    t.total_ms += static_cast<double>(span.end - span.start) / 1e6;
    t.self_ms += static_cast<double>(span.end - span.start - covered) / 1e6;
  }
  return totals;
}

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(samples.size())));
  const std::size_t idx =
      std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(idx),
                   samples.end());
  return samples[idx];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

void TimedSamples::WindowPercentiles(Nanos window, double pct,
                                     std::size_t min_samples,
                                     std::vector<double>* out) const {
  if (at.empty()) return;
  std::vector<std::size_t> order(at.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [this](std::size_t a, std::size_t b) { return at[a] < at[b]; });
  const Nanos origin = at[order.front()];
  std::vector<double> bucket;
  Nanos bucket_index = 0;
  const auto close = [&] {
    if (bucket.size() >= min_samples) out->push_back(Percentile(bucket, pct));
    bucket.clear();
  };
  for (const std::size_t i : order) {
    const Nanos index = (at[i] - origin) / window;
    if (index != bucket_index) {
      close();
      bucket_index = index;
    }
    bucket.push_back(value[i]);
  }
  close();
}

// ---- HeadProbe --------------------------------------------------------------

std::uint64_t BatchArrivals::Key(const dio::tracer::WireEvent& first) {
  return static_cast<std::uint64_t>(first.time_enter) * 1000003u +
         static_cast<std::uint32_t>(first.tid);
}

void BatchArrivals::Record(const dio::tracer::WireEvent& first,
                           std::uint32_t span, Nanos at) {
  std::scoped_lock lock(mu_);
  arrivals_[Key(first)] = {span, at};
}

bool BatchArrivals::Take(const dio::tracer::WireEvent& first,
                         std::uint32_t* span, Nanos* at) {
  std::scoped_lock lock(mu_);
  auto it = arrivals_.find(Key(first));
  if (it == arrivals_.end()) return false;
  *span = it->second.first;
  *at = it->second.second;
  arrivals_.erase(it);
  return true;
}

void HeadProbe::IndexBatch(std::vector<dio::Json> documents) {
  inner_->IndexBatch(std::move(documents));
}

void HeadProbe::IndexEvents(std::string_view session,
                            std::vector<dio::tracer::Event> events) {
  inner_->IndexEvents(session, std::move(events));
}

void HeadProbe::IndexWire(std::string_view session,
                          std::vector<dio::tracer::WireEvent> records) {
  if (!spans_->enabled() || records.empty()) {
    inner_->IndexWire(session, std::move(records));
    return;
  }
  const Nanos arrived = Now();
  ScopedSpan span(spans_, "tracer.batch", SpanLog::Current());
  {
    std::scoped_lock lock(mu_);
    for (const dio::tracer::WireEvent& record : records) {
      batch_wait_ms_.push_back(
          static_cast<double>(arrived - record.time_enter) / 1e6);
    }
  }
  arrivals_->Record(records.front(), span.id(), arrived);
  inner_->IndexWire(session, std::move(records));
}

std::vector<double> HeadProbe::batch_wait_ms() const {
  std::scoped_lock lock(mu_);
  return batch_wait_ms_;
}

// ---- TerminalProbe ----------------------------------------------------------

std::uint64_t VisibleEvents(const dio::backend::QueryBackend& backend,
                            const std::string& index) {
  auto stats = backend.Stats(index);
  return stats.ok() ? stats->doc_count : 0;
}

TerminalProbe::TerminalProbe(std::unique_ptr<dio::transport::Transport> inner,
                             const dio::backend::QueryBackend* backend,
                             std::string index, BatchArrivals* arrivals,
                             SpanLog* spans)
    : inner_(std::move(inner)),
      backend_(backend),
      index_(std::move(index)),
      arrivals_(arrivals),
      spans_(spans) {}

dio::Status TerminalProbe::Submit(dio::transport::EventBatch batch) {
  for (const dio::tracer::WireEvent& record : batch.wire) {
    unseen_enter_.push_back(record.time_enter);
  }
  for (const dio::tracer::Event& event : batch.events) {
    unseen_enter_.push_back(event.time_enter);
  }
  if (!spans_->enabled()) {
    dio::Status status = inner_->Submit(std::move(batch));
    StampVisible(Now());
    return status;
  }

  std::uint32_t head_span = 0;
  Nanos arrived = 0;
  const std::size_t events = batch.size();
  const Nanos start = Now();
  if (!batch.wire.empty() &&
      arrivals_->Take(batch.wire.front(), &head_span, &arrived)) {
    samples_.queue_ms.push_back(static_cast<double>(start - arrived) / 1e6);
  }
  const std::uint64_t seen_before = seen_;
  dio::Status status = inner_->Submit(std::move(batch));
  const Nanos end = Now();
  spans_->Add("transport.deliver", head_span, start, end);
  StampVisible(end);
  const double ms = static_cast<double>(end - start) / 1e6;
  samples_.terminal_call_ms.push_back(ms);
  (seen_ > seen_before ? samples_.refresh_ms : samples_.submit_ms)
      .push_back(ms);
  samples_.submit_busy_s += ms / 1e3;
  samples_.submitted_events += events;
  return status;
}

void TerminalProbe::Flush() {
  const Nanos start = Now();
  inner_->Flush();
  const Nanos end = Now();
  StampVisible(end);
  if (spans_->enabled()) {
    spans_->Add("transport.flush", SpanLog::Current(), start, end);
    samples_.refresh_ms.push_back(static_cast<double>(end - start) / 1e6);
    samples_.flush_s += static_cast<double>(end - start) / 1e9;
  }
}

void TerminalProbe::StampVisible(Nanos now) {
  if (unseen_enter_.empty()) return;
  const std::uint64_t visible = VisibleEvents(*backend_, index_);
  while (seen_ < visible && !unseen_enter_.empty()) {
    samples_.freshness_ms.Add(
        unseen_enter_.front(),
        static_cast<double>(now - unseen_enter_.front()) / 1e6);
    unseen_enter_.pop_front();
    ++seen_;
  }
}

// ---- QueryProbe -------------------------------------------------------------

dio::Expected<dio::backend::SearchResult> QueryProbe::Search(
    const std::string& index,
    const dio::backend::SearchRequest& request) const {
  return Timed(
      "backend.search", [&] { return inner_->Search(index, request); },
      [this](double ms, const auto& result) {
        samples_.search_ms.push_back(ms);
        if (result.ok()) samples_.search_hits += result->hits.size();
      });
}

dio::Expected<std::size_t> QueryProbe::Count(
    const std::string& index, const dio::backend::Query& query) const {
  return Timed(
      "backend.count", [&] { return inner_->Count(index, query); },
      [this](double ms, const auto&) { samples_.count_ms.push_back(ms); });
}

dio::Expected<dio::backend::AggResult> QueryProbe::Aggregate(
    const std::string& index, const dio::backend::Query& query,
    const dio::backend::Aggregation& agg) const {
  return Timed(
      "backend.aggregate",
      [&] { return inner_->Aggregate(index, query, agg); },
      [this](double ms, const auto&) { samples_.aggregate_ms.push_back(ms); });
}

dio::Expected<std::size_t> QueryProbe::UpdateByQuery(
    const std::string& index, const dio::backend::Query& query,
    const std::function<bool(dio::Json&)>& update) {
  return Timed(
      "backend.update_by_query",
      [&] { return inner_->UpdateByQuery(index, query, update); },
      [this](double ms, const auto&) {
        samples_.update_by_query_s += ms / 1e3;
      });
}

void QueryProbe::Refresh(const std::string& index) {
  ScopedSpan span(spans_, "backend.refresh");
  inner_->Refresh(index);
}

QueryProbe::Samples QueryProbe::samples() const {
  std::scoped_lock lock(mu_);
  return samples_;
}

}  // namespace perfbench
