#pragma once

// The traced run's probes. Each one wraps a public interface of one layer
// and forwards every call unchanged, so a traced wave runs the same code
// paths and puts the same bytes on the wire as an untraced one:
//
//   TracingTransport   Transport (net): spans send(), samples messages
//   TracedNode         GridNode (grid): spans the supervisor's callbacks
//   traced schemes     VerificationScheme (scheme): spans session calls and
//                      keeps accepted exchanges for the core replay
//   timed workloads    ComputeFunction (workloads): samples f's cost
//   counting store     ReputationStore (store): counts sync() barriers

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

#include "common/rng.h"
#include "grid/transport.h"
#include "scheme/registry.h"
#include "store/reputation_store.h"
#include "trace.h"
#include "workloads/registry.h"

namespace gridbench {

// Uniform sample (reservoir) of the messages one node sent and received,
// re-run through the wire codec after the run.
class MessageSample {
 public:
  MessageSample(std::size_t capacity, std::uint64_t seed);

  void offer(const ugc::Message& message);
  const std::vector<ugc::Message>& messages() const { return messages_; }

 private:
  std::size_t capacity_;
  std::uint64_t seen_ = 0;
  ugc::Rng rng_;
  std::vector<ugc::Message> messages_;
};

// Forwards to the transport a node was handed, spanning every send.
class TracingTransport final : public ugc::Transport {
 public:
  TracingTransport(ugc::Transport& inner, SpanName send_span,
                   MessageSample* sample)
      : inner_(inner), send_span_(send_span), sample_(sample) {}

  void send(ugc::GridNodeId from, ugc::GridNodeId to,
            const ugc::Message& message) override;
  bool offline(ugc::GridNodeId node) const override {
    return inner_.offline(node);
  }
  const ugc::NetworkStats& stats() const override { return inner_.stats(); }

  // Gives a wrapped node the id its decorator was registered under, so the
  // node's own sends carry the same sender id as without the decorator.
  static void bind(ugc::GridNode& node, ugc::GridNodeId id) {
    assign_id(node, id);
  }

 private:
  ugc::Transport& inner_;
  SpanName send_span_;
  MessageSample* sample_;
};

// GridNode decorator for the supervisor: spans on_message and on_quiescent,
// forwards flush unspanned (a no-op under the serial session pump, called
// once per loop round), and hands the inner node a TracingTransport.
class TracedNode final : public ugc::GridNode {
 public:
  TracedNode(ugc::GridNode& inner, ugc::Transport& transport,
             MessageSample* sample)
      : inner_(inner),
        tracing_(transport, SpanName::kSupervisorSend, sample),
        sample_(sample) {}

  void on_message(ugc::GridNodeId from, const ugc::Message& message,
                  ugc::Transport& transport) override;
  bool flush(ugc::Transport& transport) override;
  bool on_quiescent(ugc::Transport& transport) override;
  void on_crash() override { inner_.on_crash(); }

  TracingTransport& transport() { return tracing_; }

 private:
  ugc::GridNode& inner_;
  TracingTransport tracing_;
  MessageSample* sample_;
};

// One accepted exchange as the supervisor session saw it: enough to re-run
// the paper's Step 4 (core/verification.h) offline.
struct CapturedExchange {
  ugc::Task task;
  ugc::SchemeConfig config;
  ugc::Commitment commitment;
  std::vector<ugc::LeafIndex> samples;
  std::variant<ugc::ProofResponse, ugc::BatchProofResponse> response;
};

// Filled on the supervisor's protocol thread only, like every session.
class ExchangeLog {
 public:
  explicit ExchangeLog(std::size_t capacity) : capacity_(capacity) {}

  bool full() const { return log_.size() >= capacity_; }
  void add(CapturedExchange exchange) {
    if (!full()) {
      log_.push_back(std::move(exchange));
    }
  }
  const std::vector<CapturedExchange>& exchanges() const { return log_; }

 private:
  std::size_t capacity_;
  std::vector<CapturedExchange> log_;
};

// Private registries whose entries wrap the built-in schemes and
// workloads; Plan::schemes / Plan::registry and ParticipantNode::Options
// select them for traced waves only. Wrapped schemes keep the built-in
// name and kind, so assignments are byte-identical to untraced waves.
struct TracedRegistries {
  ugc::SchemeRegistry schemes;
  ugc::WorkloadRegistry workloads;
};

std::unique_ptr<TracedRegistries> make_traced_registries(ExchangeLog& log);

// f evaluations the timed workloads sampled (one in 16 is timed), summed
// over every thread. Call after the threads that evaluate f have joined.
struct FunctionTiming {
  std::uint64_t timed_calls = 0;
  std::int64_t timed_ns = 0;
};
FunctionTiming function_timing();

// ReputationStore decorator counting durability barriers.
std::unique_ptr<ugc::store::ReputationStore> make_counting_store(
    std::unique_ptr<ugc::store::ReputationStore> inner,
    std::atomic<std::uint64_t>& syncs);

}  // namespace gridbench
