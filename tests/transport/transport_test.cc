// Transport pipeline unit tests. Deliberately backend-free (CollectorSink /
// the trace file sink / test-local sinks only) so this file also runs under
// the ThreadSanitizer stress target, which recompiles the transport sources
// with -fsanitize=thread.
#include "transport/pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

#include "common/config.h"
#include "transport/fan_out_sink.h"
#include "transport/queue_transport.h"
#include "transport/retrying_transport.h"
#include "trace/reader.h"
#include "trace/writer.h"
#include "transport/sinks.h"

namespace dio::transport {
namespace {

Json Doc(int i) {
  Json doc = Json::MakeObject();
  doc.Set("i", i);
  return doc;
}

EventBatch DocBatch(std::initializer_list<int> ids) {
  EventBatch batch;
  batch.session = "test";
  for (int i : ids) batch.documents.push_back(Doc(i));
  return batch;
}

tracer::Event MakeEvent(os::SyscallNr nr, std::int64_t ret) {
  tracer::Event event;
  event.nr = nr;
  event.pid = 1;
  event.tid = 1;
  event.comm = "t";
  event.proc_name = "p";
  event.time_enter = 10;
  event.time_exit = 20;
  event.ret = ret;
  return event;
}

// Terminal sink whose deliveries block until the test opens the gate —
// makes queue-full scenarios deterministic instead of latency-raced.
class GateSink final : public Transport {
 public:
  Status Submit(EventBatch batch) override {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return open_; });
    stats_.batches_in += 1;
    stats_.events_in += batch.size();
    batch.Materialize();
    for (Json& doc : batch.documents) documents_.push_back(std::move(doc));
    stats_.batches_out += 1;
    stats_.events_out += batch.size();
    return Status::Ok();
  }
  void Flush() override {}
  void CollectStats(std::vector<StageStats>* out) const override {
    std::scoped_lock lock(mu_);
    out->push_back(stats_);
  }
  [[nodiscard]] std::string_view name() const override { return "gate"; }

  void Open() {
    std::scoped_lock lock(mu_);
    open_ = true;
    cv_.notify_all();
  }
  [[nodiscard]] std::vector<Json> documents() const {
    std::scoped_lock lock(mu_);
    return documents_;
  }

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
  std::vector<Json> documents_;
  StageStats stats_;
};

std::size_t QueueDepthOf(const Transport& transport) {
  std::vector<StageStats> stats;
  transport.CollectStats(&stats);
  return stats.front().queue_depth;
}

void CheckStageBalance(const StageStats& stage) {
  EXPECT_EQ(stage.batches_in,
            stage.batches_out + stage.dropped_batches +
                stage.dead_letter_batches)
      << "stage " << stage.stage;
  EXPECT_EQ(stage.events_in,
            stage.events_out + stage.dropped_events + stage.dead_letter_events)
      << "stage " << stage.stage;
}

TEST(BackpressureTest, StringRoundTrip) {
  for (Backpressure policy : {Backpressure::kBlock, Backpressure::kDropNewest,
                              Backpressure::kDropOldest}) {
    auto parsed = BackpressureFromString(ToString(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(BackpressureFromString("drop-newest").ok());
  EXPECT_FALSE(BackpressureFromString("").ok());
}

TEST(EventBatchTest, MaterializeAppendsAfterExistingDocuments) {
  EventBatch batch;
  batch.session = "s";
  batch.documents.push_back(Doc(1));
  batch.events.push_back(MakeEvent(os::SyscallNr::kWrite, 4));
  EXPECT_EQ(batch.size(), 2u);
  batch.Materialize();
  EXPECT_TRUE(batch.events.empty());
  ASSERT_EQ(batch.documents.size(), 2u);
  EXPECT_EQ(batch.documents[0].GetInt("i"), 1);
  EXPECT_EQ(batch.documents[1].GetString("syscall"), "write");
  EXPECT_EQ(batch.documents[1].GetString("session"), "s");
}

TEST(QueueTransportTest, DeliversEverythingUnderBlock) {
  auto collector = std::make_unique<CollectorSink>();
  CollectorSink* sink = collector.get();
  QueueTransportOptions options;
  options.max_queued_batches = 4;
  options.policy = Backpressure::kBlock;
  QueueTransport queue(std::move(collector), options);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(queue.Submit(DocBatch({i})).ok());
  }
  queue.Flush();
  EXPECT_EQ(sink->document_count(), 100u);
  std::vector<StageStats> stats;
  queue.CollectStats(&stats);
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].stage, "queue");
  EXPECT_EQ(stats[0].batches_in, 100u);
  EXPECT_EQ(stats[0].batches_out, 100u);
  EXPECT_EQ(stats[0].dropped_batches, 0u);
  EXPECT_GE(stats[0].max_queue_depth, 1u);
  for (const StageStats& stage : stats) CheckStageBalance(stage);
}

TEST(QueueTransportTest, BlockPolicyStallsProducerUntilSpace) {
  auto gate = std::make_unique<GateSink>();
  GateSink* sink = gate.get();
  QueueTransportOptions options;
  options.max_queued_batches = 1;
  options.policy = Backpressure::kBlock;
  QueueTransport queue(std::move(gate), options);

  // First batch is popped by the sender and parks inside the closed gate.
  ASSERT_TRUE(queue.Submit(DocBatch({1})).ok());
  while (QueueDepthOf(queue) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Second fills the queue; third must block the producer.
  ASSERT_TRUE(queue.Submit(DocBatch({2})).ok());
  std::atomic<bool> third_done{false};
  std::thread producer([&] {
    EXPECT_TRUE(queue.Submit(DocBatch({3})).ok());
    third_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_done.load());

  sink->Open();
  producer.join();
  EXPECT_TRUE(third_done.load());
  queue.Flush();
  EXPECT_EQ(sink->documents().size(), 3u);
}

TEST(QueueTransportTest, DropNewestDiscardsIncomingWhenFull) {
  auto gate = std::make_unique<GateSink>();
  GateSink* sink = gate.get();
  QueueTransportOptions options;
  options.max_queued_batches = 1;
  options.policy = Backpressure::kDropNewest;
  QueueTransport queue(std::move(gate), options);

  ASSERT_TRUE(queue.Submit(DocBatch({1})).ok());
  while (QueueDepthOf(queue) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(queue.Submit(DocBatch({2})).ok());      // fills the queue
  ASSERT_TRUE(queue.Submit(DocBatch({3, 4})).ok());   // dropped (counted)
  sink->Open();
  queue.Flush();

  const std::vector<Json> docs = sink->documents();
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(docs[0].GetInt("i"), 1);
  EXPECT_EQ(docs[1].GetInt("i"), 2);
  std::vector<StageStats> stats;
  queue.CollectStats(&stats);
  EXPECT_EQ(stats[0].batches_in, 3u);
  EXPECT_EQ(stats[0].batches_out, 2u);
  EXPECT_EQ(stats[0].dropped_batches, 1u);
  EXPECT_EQ(stats[0].dropped_newest, 1u);
  EXPECT_EQ(stats[0].dropped_oldest, 0u);
  EXPECT_EQ(stats[0].dropped_events, 2u);
  for (const StageStats& stage : stats) CheckStageBalance(stage);
}

TEST(QueueTransportTest, DropOldestEvictsQueuedBatch) {
  auto gate = std::make_unique<GateSink>();
  GateSink* sink = gate.get();
  QueueTransportOptions options;
  options.max_queued_batches = 1;
  options.policy = Backpressure::kDropOldest;
  QueueTransport queue(std::move(gate), options);

  ASSERT_TRUE(queue.Submit(DocBatch({1})).ok());
  while (QueueDepthOf(queue) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(queue.Submit(DocBatch({2})).ok());  // fills the queue
  ASSERT_TRUE(queue.Submit(DocBatch({3})).ok());  // evicts batch 2
  sink->Open();
  queue.Flush();

  const std::vector<Json> docs = sink->documents();
  ASSERT_EQ(docs.size(), 2u);
  EXPECT_EQ(docs[0].GetInt("i"), 1);
  EXPECT_EQ(docs[1].GetInt("i"), 3);  // newest survived, oldest evicted
  std::vector<StageStats> stats;
  queue.CollectStats(&stats);
  EXPECT_EQ(stats[0].dropped_oldest, 1u);
  EXPECT_EQ(stats[0].dropped_newest, 0u);
  for (const StageStats& stage : stats) CheckStageBalance(stage);
}

// Satellite: the Flush-after-drop invariant. After drops under load, a
// Flush() must leave every stage's ledger balanced — accepted equals
// delivered plus dropped, with the queue empty.
TEST(QueueTransportTest, FlushAfterDropsKeepsAccountingBalanced) {
  auto collector = std::make_unique<CollectorSink>(
      CollectorOptions{.deliver_latency_ns = 100 * kMicrosecond});
  CollectorSink* sink = collector.get();
  QueueTransportOptions options;
  options.max_queued_batches = 2;
  options.policy = Backpressure::kDropNewest;
  QueueTransport queue(std::move(collector), options);
  constexpr int kBatches = 64;
  for (int i = 0; i < kBatches; ++i) {
    ASSERT_TRUE(queue.Submit(DocBatch({i})).ok());
  }
  queue.Flush();
  std::vector<StageStats> stats;
  queue.CollectStats(&stats);
  const StageStats& q = stats[0];
  EXPECT_EQ(q.batches_in, static_cast<std::uint64_t>(kBatches));
  EXPECT_GT(q.dropped_batches, 0u);  // the slow sink forced drops
  EXPECT_EQ(q.queue_depth, 0u);      // flush drained the queue
  EXPECT_EQ(sink->document_count(),
            static_cast<std::size_t>(kBatches) - q.dropped_batches);
  for (const StageStats& stage : stats) CheckStageBalance(stage);
}

TEST(RetryingTransportTest, DeliversAfterTransientFaults) {
  auto collector = std::make_unique<CollectorSink>();
  CollectorSink* sink = collector.get();
  sink->FailNext(2);
  RetryOptions options;
  options.max_attempts = 5;
  options.initial_backoff_ns = 1;
  options.jitter = 0.0;
  RetryingTransport retry(std::move(collector), options);
  ASSERT_TRUE(retry.Submit(DocBatch({1, 2})).ok());
  EXPECT_EQ(sink->document_count(), 2u);
  std::vector<StageStats> stats;
  retry.CollectStats(&stats);
  EXPECT_EQ(stats[0].stage, "retry");
  EXPECT_EQ(stats[0].retries, 2u);
  EXPECT_EQ(stats[0].batches_out, 1u);
  EXPECT_EQ(stats[0].dead_letter_batches, 0u);
  for (const StageStats& stage : stats) CheckStageBalance(stage);
}

TEST(RetryingTransportTest, DeadLettersAfterAttemptBudget) {
  auto collector = std::make_unique<CollectorSink>();
  CollectorSink* sink = collector.get();
  sink->FailNext(100);
  RetryOptions options;
  options.max_attempts = 3;
  options.initial_backoff_ns = 1;
  RetryingTransport retry(std::move(collector), options);
  EXPECT_FALSE(retry.Submit(DocBatch({1, 2, 3})).ok());
  EXPECT_EQ(sink->document_count(), 0u);
  std::vector<StageStats> stats;
  retry.CollectStats(&stats);
  EXPECT_EQ(stats[0].retries, 2u);  // 3 attempts = 2 re-attempts
  EXPECT_EQ(stats[0].dead_letter_batches, 1u);
  EXPECT_EQ(stats[0].dead_letter_events, 3u);
  for (const StageStats& stage : stats) CheckStageBalance(stage);
}

TEST(RetryingTransportTest, DeadlineCutsRetriesShort) {
  auto collector = std::make_unique<CollectorSink>();
  collector->FailNext(100);
  RetryOptions options;
  options.max_attempts = 1000;
  options.initial_backoff_ns = kMillisecond;
  options.backoff_multiplier = 1.0;
  options.jitter = 0.0;
  options.deadline_ns = 5 * kMillisecond;
  RetryingTransport retry(std::move(collector), options);
  EXPECT_FALSE(retry.Submit(DocBatch({1})).ok());
  std::vector<StageStats> stats;
  retry.CollectStats(&stats);
  EXPECT_LT(stats[0].retries, 1000u);  // deadline fired long before budget
  EXPECT_EQ(stats[0].dead_letter_batches, 1u);
}

TEST(RetryingTransportTest, FaultHookTakesPrecedenceAndIsCounted) {
  auto collector = std::make_unique<CollectorSink>();
  CollectorSink* sink = collector.get();
  RetryOptions options;
  options.max_attempts = 5;
  options.initial_backoff_ns = 1;
  options.fault_rate = 1.0;  // would always fail — the hook must win
  RetryingTransport retry(std::move(collector), options);
  retry.set_fault_hook([](const EventBatch&, std::size_t attempt) {
    return attempt <= 2 ? Unavailable("simulated outage") : Status::Ok();
  });
  ASSERT_TRUE(retry.Submit(DocBatch({7})).ok());
  EXPECT_EQ(sink->document_count(), 1u);
  std::vector<StageStats> stats;
  retry.CollectStats(&stats);
  EXPECT_EQ(stats[0].faults_injected, 2u);
  EXPECT_EQ(stats[0].batches_out, 1u);
}

TEST(FanOutSinkTest, EveryChildSeesEveryBatch) {
  std::vector<std::unique_ptr<Transport>> children;
  children.push_back(std::make_unique<CollectorSink>());
  children.push_back(std::make_unique<CollectorSink>());
  auto* first = static_cast<CollectorSink*>(children[0].get());
  auto* second = static_cast<CollectorSink*>(children[1].get());
  FanOutSink fanout(std::move(children));
  ASSERT_TRUE(fanout.Submit(DocBatch({1, 2, 3})).ok());
  EXPECT_EQ(first->document_count(), 3u);
  EXPECT_EQ(second->document_count(), 3u);
  std::vector<StageStats> stats;
  fanout.CollectStats(&stats);
  ASSERT_EQ(stats.size(), 3u);  // fanout + 2 children
  EXPECT_EQ(stats[0].stage, "fanout");
  EXPECT_EQ(stats[0].batches_out, 1u);
}

TEST(FanOutSinkTest, OneChildFailingDoesNotStarveTheOther) {
  std::vector<std::unique_ptr<Transport>> children;
  children.push_back(std::make_unique<CollectorSink>());
  children.push_back(std::make_unique<CollectorSink>());
  auto* failing = static_cast<CollectorSink*>(children[0].get());
  auto* healthy = static_cast<CollectorSink*>(children[1].get());
  failing->FailNext(1);
  FanOutSink fanout(std::move(children));
  EXPECT_FALSE(fanout.Submit(DocBatch({1})).ok());  // error propagates up
  EXPECT_EQ(failing->document_count(), 0u);
  EXPECT_EQ(healthy->document_count(), 1u);  // but the healthy child got it
  std::vector<StageStats> stats;
  fanout.CollectStats(&stats);
  EXPECT_EQ(stats[0].batches_in, 1u);
  EXPECT_EQ(stats[0].batches_out, 0u);  // in/out delta marks the failure
  EXPECT_EQ(stats[0].dead_letter_batches, 0u);  // retry above owns dead letters
}

// Resolves "collector" to a CollectorSink (stored in `*out`) and "trace" to
// a trace file sink at options.trace_path, the way the service's factory
// does; any other name is unknown.
Pipeline::SinkFactory CollectorFactory(CollectorSink** out) {
  return [out](const std::string& name, const PipelineOptions& options)
             -> Expected<std::unique_ptr<Transport>> {
    if (name == "trace") {
      auto sink = trace::TraceRecordSink::Open(options.trace_path);
      if (!sink.ok()) return sink.status();
      return std::unique_ptr<Transport>(std::move(*sink));
    }
    if (name != "collector") return InvalidArgument("unknown sink: " + name);
    auto sink = std::make_unique<CollectorSink>();
    *out = sink.get();
    return std::unique_ptr<Transport>(std::move(sink));
  };
}

TEST(PipelineTest, DefaultChainIsQueueThenSink) {
  CollectorSink* sink = nullptr;
  PipelineOptions options;
  options.sinks = {"collector"};
  auto pipeline =
      Pipeline::Build("session-a", options, CollectorFactory(&sink));
  ASSERT_TRUE(pipeline.ok());
  EXPECT_EQ((*pipeline)->retry_stage(), nullptr);

  (*pipeline)->IndexBatch({Doc(1), Doc(2)});
  (*pipeline)->IndexEvents("session-a",
                           {MakeEvent(os::SyscallNr::kWrite, 1)});
  (*pipeline)->Flush();
  EXPECT_EQ(sink->document_count(), 3u);

  const auto stats = (*pipeline)->Stats();
  ASSERT_EQ(stats.size(), 2u);
  EXPECT_EQ(stats[0].stage, "queue");
  EXPECT_EQ(stats[1].stage, "collector");
  EXPECT_EQ(stats[0].events_in, 3u);
  for (const StageStats& stage : stats) CheckStageBalance(stage);

  const Json json = (*pipeline)->StatsJson();
  ASSERT_TRUE(json.is_array());
  ASSERT_EQ(json.as_array().size(), 2u);
  EXPECT_EQ(json.as_array()[0].GetString("stage"), "queue");
}

TEST(PipelineTest, RetryStageAppearsWhenEnabled) {
  CollectorSink* sink = nullptr;
  PipelineOptions options;
  options.sinks = {"collector"};
  options.retry_enabled = true;
  options.retry.initial_backoff_ns = 1;
  auto pipeline =
      Pipeline::Build("session-b", options, CollectorFactory(&sink));
  ASSERT_TRUE(pipeline.ok());
  ASSERT_NE((*pipeline)->retry_stage(), nullptr);

  // Every delivery fails twice before succeeding: still zero loss.
  sink->FailNext(2);
  (*pipeline)->IndexBatch({Doc(1)});
  (*pipeline)->Flush();
  EXPECT_EQ(sink->document_count(), 1u);
  const auto stats = (*pipeline)->Stats();
  ASSERT_EQ(stats.size(), 3u);
  EXPECT_EQ(stats[0].stage, "queue");
  EXPECT_EQ(stats[1].stage, "retry");
  EXPECT_EQ(stats[2].stage, "collector");
  EXPECT_EQ(stats[1].retries, 2u);
  EXPECT_EQ(stats[1].dead_letter_batches, 0u);
}

TEST(PipelineTest, FanOutToSpoolAndFactorySink) {
  const std::string path = ::testing::TempDir() + "pipeline_spool.trace";
  CollectorSink* sink = nullptr;
  PipelineOptions options;
  options.sinks = {"collector", "trace"};
  options.trace_path = path;
  auto pipeline =
      Pipeline::Build("session-c", options, CollectorFactory(&sink));
  ASSERT_TRUE(pipeline.ok());
  (*pipeline)->IndexEvents("session-c", {MakeEvent(os::SyscallNr::kRead, 9),
                                         MakeEvent(os::SyscallNr::kWrite, 3)});
  (*pipeline)->Flush();

  EXPECT_EQ(sink->document_count(), 2u);
  auto records = trace::ReadTraceFile(path);
  ASSERT_TRUE(records.ok()) << records.status().message();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].nr, static_cast<std::uint8_t>(os::SyscallNr::kRead));
  EXPECT_EQ((*records)[1].ret, 3);

  const auto stats = (*pipeline)->Stats();
  ASSERT_EQ(stats.size(), 4u);  // queue, fanout, collector, trace
  EXPECT_EQ(stats[0].stage, "queue");
  EXPECT_EQ(stats[1].stage, "fanout");
  EXPECT_EQ(stats[2].stage, "collector");
  EXPECT_EQ(stats[3].stage, "trace");
  for (const StageStats& stage : stats) CheckStageBalance(stage);
  std::remove(path.c_str());
}

TEST(PipelineTest, BuildFailsForUnknownSinkOrMissingFactory) {
  PipelineOptions options;
  options.sinks = {"bulk"};
  EXPECT_FALSE(Pipeline::Build("s", options, nullptr).ok());
  CollectorSink* sink = nullptr;
  options.sinks = {"wat"};
  EXPECT_FALSE(Pipeline::Build("s", options, CollectorFactory(&sink)).ok());
  options.sinks = {"trace"};
  options.trace_path = "";  // trace sink without a path
  EXPECT_FALSE(Pipeline::Build("s", options, CollectorFactory(&sink)).ok());
  // There is no built-in sink: "spool" is just an unknown name.
  options.sinks = {"spool"};
  options.trace_path = ::testing::TempDir() + "never_written.trace";
  EXPECT_FALSE(Pipeline::Build("s", options, nullptr).ok());
  EXPECT_FALSE(Pipeline::Build("s", options, CollectorFactory(&sink)).ok());
}

// Config-driven acceptance: fault injection plus Block backpressure plus a
// generous retry budget gives zero event loss end to end.
TEST(PipelineTest, ZeroLossUnderInjectedFaultsWithBlockPolicy) {
  CollectorSink* sink = nullptr;
  PipelineOptions options;
  options.sinks = {"collector"};
  options.queue.policy = Backpressure::kBlock;
  options.queue.max_queued_batches = 4;
  options.retry.fault_rate = 0.5;  // every other delivery attempt fails
  options.retry.max_attempts = 64;
  options.retry.initial_backoff_ns = 1;
  options.retry.max_backoff_ns = 10;
  auto pipeline = Pipeline::Build("lossy", options, CollectorFactory(&sink));
  ASSERT_TRUE(pipeline.ok());
  constexpr int kBatches = 50;
  for (int i = 0; i < kBatches; ++i) {
    (*pipeline)->IndexBatch({Doc(2 * i), Doc(2 * i + 1)});
  }
  (*pipeline)->Flush();
  EXPECT_EQ(sink->document_count(), static_cast<std::size_t>(2 * kBatches));
  const auto stats = (*pipeline)->Stats();
  const StageStats& retry = stats[1];
  EXPECT_GT(retry.faults_injected, 0u);
  EXPECT_GT(retry.retries, 0u);
  EXPECT_EQ(retry.dead_letter_batches, 0u);
  for (const StageStats& stage : stats) CheckStageBalance(stage);
}

TEST(PipelineOptionsTest, FromConfigParsesTransportSection) {
  auto config = Config::ParseString(R"(
[transport]
queue_depth = 7
backpressure = drop_oldest
retry = true
retry_max_attempts = 9
retry_initial_backoff_ns = 1000
retry_backoff_multiplier = 3.0
retry_max_backoff_ns = 5000
retry_jitter = 0.1
retry_deadline_ns = 99999
fault_rate = 0.25
fault_seed = 1234
sinks = bulk, trace
trace_path = /tmp/dio-spool.trace
)");
  ASSERT_TRUE(config.ok());
  auto options = PipelineOptions::FromConfig(*config);
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->queue.max_queued_batches, 7u);
  EXPECT_EQ(options->queue.policy, Backpressure::kDropOldest);
  EXPECT_TRUE(options->retry_enabled);
  EXPECT_EQ(options->retry.max_attempts, 9u);
  EXPECT_EQ(options->retry.initial_backoff_ns, 1000);
  EXPECT_DOUBLE_EQ(options->retry.backoff_multiplier, 3.0);
  EXPECT_EQ(options->retry.max_backoff_ns, 5000);
  EXPECT_DOUBLE_EQ(options->retry.jitter, 0.1);
  EXPECT_EQ(options->retry.deadline_ns, 99999);
  EXPECT_DOUBLE_EQ(options->retry.fault_rate, 0.25);
  EXPECT_EQ(options->retry.fault_seed, 1234u);
  ASSERT_EQ(options->sinks.size(), 2u);
  EXPECT_EQ(options->sinks[0], "bulk");
  EXPECT_EQ(options->sinks[1], "trace");
  EXPECT_EQ(options->trace_path, "/tmp/dio-spool.trace");
}

TEST(PipelineOptionsTest, FromConfigRejectsBadValues) {
  auto bad_policy = Config::ParseString("[transport]\nbackpressure = yolo\n");
  ASSERT_TRUE(bad_policy.ok());
  EXPECT_FALSE(PipelineOptions::FromConfig(*bad_policy).ok());

  auto bad_rate = Config::ParseString("[transport]\nfault_rate = 1.5\n");
  ASSERT_TRUE(bad_rate.ok());
  EXPECT_FALSE(PipelineOptions::FromConfig(*bad_rate).ok());
}

// Satellite: unknown [transport] keys are reported instead of silently
// ignored. WarnUnknownKeys returns what it warned about.
TEST(PipelineOptionsTest, UnknownKeysAreReported) {
  auto config = Config::ParseString(
      "[transport]\nqeue_depth = 8\nbackpressure = block\n");
  ASSERT_TRUE(config.ok());
  const auto unknown = WarnUnknownKeys(
      *config, "transport", {"queue_depth", "backpressure"});
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "transport.qeue_depth");
  // Parsing still succeeds — the typo falls back to the default, loudly.
  auto options = PipelineOptions::FromConfig(*config);
  ASSERT_TRUE(options.ok());
  EXPECT_EQ(options->queue.max_queued_batches, 1024u);
}

}  // namespace
}  // namespace dio::transport
