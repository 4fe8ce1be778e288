#include "probes.h"

#include <mutex>
#include <string>
#include <utility>

namespace gridbench {

using namespace ugc;

// ------------------------------------------------------------------ net/grid

MessageSample::MessageSample(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  messages_.reserve(capacity);
}

void MessageSample::offer(const Message& message) {
  ++seen_;
  if (messages_.size() < capacity_) {
    messages_.push_back(message);
    return;
  }
  const std::uint64_t slot = rng_.uniform(seen_);
  if (slot < capacity_) {
    messages_[slot] = message;
  }
}

void TracingTransport::send(GridNodeId from, GridNodeId to,
                            const Message& message) {
  const Span span(send_span_, task_of(message).value);
  if (sample_ != nullptr) {
    sample_->offer(message);
  }
  inner_.send(from, to, message);
}

void TracedNode::on_message(GridNodeId from, const Message& message,
                            Transport&) {
  const Span span(SpanName::kSupervisorGrid, task_of(message).value);
  if (sample_ != nullptr) {
    sample_->offer(message);
  }
  inner_.on_message(from, message, tracing_);
}

bool TracedNode::flush(Transport&) { return inner_.flush(tracing_); }

bool TracedNode::on_quiescent(Transport&) {
  const Span span(SpanName::kSupervisorGrid, 0);
  return inner_.on_quiescent(tracing_);
}

// -------------------------------------------------------------------- scheme

namespace {

class TracedParticipantSession final : public ParticipantSession {
 public:
  TracedParticipantSession(std::unique_ptr<ParticipantSession> inner,
                           std::uint64_t task)
      : inner_(std::move(inner)), task_(task) {}

  void on_message(const SchemeMessage& message) override {
    const Span span(SpanName::kParticipantProve, task_);
    inner_->on_message(message);
  }
  std::optional<SchemeMessage> next_message() override {
    const Span span(SpanName::kParticipantProve, task_);
    return inner_->next_message();
  }
  ScreenerReport screener_report() const override {
    return inner_->screener_report();
  }
  std::uint64_t honest_evaluations() const override {
    return inner_->honest_evaluations();
  }
  bool finished() const override { return inner_->finished(); }

 private:
  std::unique_ptr<ParticipantSession> inner_;
  std::uint64_t task_;
};

class TracedSupervisorSession final : public SupervisorSession {
 public:
  TracedSupervisorSession(std::unique_ptr<SupervisorSession> inner,
                          std::optional<Task> task, SchemeConfig config,
                          ExchangeLog& log)
      : inner_(std::move(inner)),
        task_(std::move(task)),
        config_(std::move(config)),
        log_(log) {}

  std::vector<Bytes> planted_images(TaskId task) const override {
    return inner_->planted_images(task);
  }
  void on_message(TaskId task, const SchemeMessage& message) override {
    const Span span(SpanName::kSupervisorScheme, task.value);
    remember(message);
    inner_->on_message(task, message);
  }
  std::optional<SchemeOutbound> next_message() override {
    std::optional<SchemeOutbound> out = inner_->next_message();
    if (out.has_value() && capturing()) {
      if (const auto* challenge =
              std::get_if<SampleChallenge>(&out->message)) {
        samples_ = challenge->samples;
      }
    }
    return out;
  }
  std::optional<Verdict> next_verdict() override {
    std::optional<Verdict> verdict = inner_->next_verdict();
    if (verdict.has_value() && verdict->accepted() && capturing() &&
        commitment_.has_value() && response_.has_value()) {
      log_.add(CapturedExchange{*task_, config_, *commitment_, samples_,
                                std::move(*response_)});
      response_.reset();
    }
    return verdict;
  }
  std::optional<TaskHits> next_hits() override { return inner_->next_hits(); }
  std::optional<std::uint64_t> resume_epoch(TaskId task) const override {
    return inner_->resume_epoch(task);
  }
  std::uint64_t results_verified() const override {
    return inner_->results_verified();
  }

 private:
  bool capturing() const { return task_.has_value() && !log_.full(); }

  void remember(const SchemeMessage& message) {
    if (!capturing()) {
      return;
    }
    if (const auto* commitment = std::get_if<Commitment>(&message)) {
      commitment_ = *commitment;
    } else if (const auto* response = std::get_if<ProofResponse>(&message)) {
      response_ = *response;
    } else if (const auto* batch =
                   std::get_if<BatchProofResponse>(&message)) {
      response_ = *batch;
    } else if (const auto* proof = std::get_if<NiCbsProof>(&message)) {
      // NI-CBS derives its samples from the root; an accepted proof
      // answers exactly those, in order.
      commitment_ = proof->commitment;
      samples_.clear();
      for (const SampleProof& sample : proof->response.proofs) {
        samples_.push_back(sample.index);
      }
      response_ = proof->response;
    }
  }

  std::unique_ptr<SupervisorSession> inner_;
  std::optional<Task> task_;  // set for single-task groups only
  SchemeConfig config_;
  ExchangeLog& log_;
  std::optional<Commitment> commitment_;
  std::vector<LeafIndex> samples_;
  std::optional<std::variant<ProofResponse, BatchProofResponse>> response_;
};

class TracedScheme final : public VerificationScheme {
 public:
  TracedScheme(std::shared_ptr<const VerificationScheme> base,
               ExchangeLog& log)
      : base_(std::move(base)), log_(log) {}

  std::string name() const override { return base_->name(); }
  std::optional<SchemeKind> kind() const override { return base_->kind(); }
  std::size_t replicas(const SchemeConfig& config) const override {
    return base_->replicas(config);
  }
  bool trusts_screener_reports() const override {
    return base_->trusts_screener_reports();
  }

  std::unique_ptr<ParticipantSession> open_participant(
      ParticipantContext context) const override {
    const std::uint64_t task = context.task.id.value;
    std::unique_ptr<ParticipantSession> inner;
    {
      const Span span(SpanName::kParticipantCommit, task);
      inner = base_->open_participant(std::move(context));
    }
    return std::make_unique<TracedParticipantSession>(std::move(inner), task);
  }

  std::unique_ptr<SupervisorSession> open_supervisor(
      SupervisorContext context) const override {
    std::optional<Task> task;
    if (context.tasks.size() == 1) {
      task = context.tasks.front();
    }
    SchemeConfig config = context.config;
    std::unique_ptr<SupervisorSession> inner;
    {
      const Span span(SpanName::kSupervisorScheme,
                      task.has_value() ? task->id.value : 0);
      inner = base_->open_supervisor(std::move(context));
    }
    return std::make_unique<TracedSupervisorSession>(
        std::move(inner), std::move(task), std::move(config), log_);
  }

 private:
  std::shared_ptr<const VerificationScheme> base_;
  ExchangeLog& log_;
};

// ----------------------------------------------------------------- workloads

// Per-thread f timing; owned by the registry below so a thread's totals
// outlive it (the participant's parallel_for threads exit per sweep).
struct FunctionAccumulator {
  std::uint64_t calls = 0;
  std::uint64_t timed_calls = 0;
  std::int64_t timed_ns = 0;
};

std::mutex accumulator_mutex;
std::vector<std::unique_ptr<FunctionAccumulator>> accumulators;

FunctionAccumulator& thread_accumulator() {
  thread_local FunctionAccumulator* accumulator = [] {
    const std::lock_guard<std::mutex> lock(accumulator_mutex);
    accumulators.push_back(std::make_unique<FunctionAccumulator>());
    return accumulators.back().get();
  }();
  return *accumulator;
}

// Times one f evaluation in 16: f is tens of nanoseconds, so timing every
// call would mostly measure the clock.
class TimedFunction final : public ComputeFunction {
 public:
  explicit TimedFunction(std::shared_ptr<const ComputeFunction> inner)
      : inner_(std::move(inner)) {}

  Bytes evaluate(std::uint64_t x) const override {
    FunctionAccumulator& accumulator = thread_accumulator();
    if ((++accumulator.calls & 15) != 0) {
      return inner_->evaluate(x);
    }
    const std::int64_t start = now_ns();
    Bytes value = inner_->evaluate(x);
    accumulator.timed_ns += now_ns() - start;
    ++accumulator.timed_calls;
    return value;
  }
  void evaluate_into(std::uint64_t x,
                     std::span<std::uint8_t> out) const override {
    FunctionAccumulator& accumulator = thread_accumulator();
    if ((++accumulator.calls & 15) != 0) {
      inner_->evaluate_into(x, out);
      return;
    }
    const std::int64_t start = now_ns();
    inner_->evaluate_into(x, out);
    accumulator.timed_ns += now_ns() - start;
    ++accumulator.timed_calls;
  }
  std::size_t result_size() const override { return inner_->result_size(); }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<const ComputeFunction> inner_;
};

// ------------------------------------------------------------------- store

class CountingStore final : public store::ReputationStore {
 public:
  CountingStore(std::unique_ptr<store::ReputationStore> inner,
                std::atomic<std::uint64_t>& syncs)
      : inner_(std::move(inner)), syncs_(syncs) {}

  std::optional<store::ReputationRecord> get(
      const store::WorkerId& id) const override {
    return inner_->get(id);
  }
  void put(const store::WorkerId& id,
           const store::ReputationRecord& record) override {
    inner_->put(id, record);
  }
  void sync() override {
    syncs_.fetch_add(1, std::memory_order_relaxed);
    inner_->sync();
  }
  std::vector<std::pair<store::WorkerId, store::ReputationRecord>> snapshot()
      const override {
    return inner_->snapshot();
  }
  std::size_t size() const override { return inner_->size(); }

 private:
  std::unique_ptr<store::ReputationStore> inner_;
  std::atomic<std::uint64_t>& syncs_;
};

}  // namespace

std::unique_ptr<TracedRegistries> make_traced_registries(ExchangeLog& log) {
  auto registries = std::make_unique<TracedRegistries>();
  const SchemeRegistry& builtin = SchemeRegistry::global();
  for (const std::string& name : builtin.names()) {
    registries->schemes.register_scheme(
        std::make_shared<TracedScheme>(builtin.share(name), log));
  }
  for (const std::string& name : WorkloadRegistry::global().names()) {
    registries->workloads.register_workload(
        name, [name](std::uint64_t seed) {
          WorkloadBundle bundle = WorkloadRegistry::global().make(name, seed);
          bundle.f = std::make_shared<TimedFunction>(std::move(bundle.f));
          return bundle;
        });
  }
  return registries;
}

FunctionTiming function_timing() {
  const std::lock_guard<std::mutex> lock(accumulator_mutex);
  FunctionTiming timing;
  for (const auto& accumulator : accumulators) {
    timing.timed_calls += accumulator->timed_calls;
    timing.timed_ns += accumulator->timed_ns;
  }
  return timing;
}

std::unique_ptr<store::ReputationStore> make_counting_store(
    std::unique_ptr<store::ReputationStore> inner,
    std::atomic<std::uint64_t>& syncs) {
  return std::make_unique<CountingStore>(std::move(inner), syncs);
}

}  // namespace gridbench
