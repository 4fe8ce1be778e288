#include "replay.h"

#include <stdexcept>

#include "common/rng.h"
#include "core/verification.h"
#include "crypto/hash_function.h"
#include "merkle/partial_tree.h"
#include "wire/messages.h"
#include "workloads/registry.h"

namespace gridbench {

using namespace ugc;

namespace {

constexpr std::int64_t kMinReplayNs = 50'000'000;
constexpr int kMinPasses = 3;

// Runs pass() until both bounds are met; returns ns per pass.
template <typename Pass>
double time_passes(Pass&& pass) {
  const std::int64_t start = now_ns();
  int passes = 0;
  std::int64_t elapsed = 0;
  do {
    pass();
    ++passes;
    elapsed = now_ns() - start;
  } while (passes < kMinPasses || elapsed < kMinReplayNs);
  return static_cast<double>(elapsed) / passes;
}

const TreeSettings& tree_settings(const SchemeConfig& config) {
  return config.kind == SchemeKind::kNiCbs ? config.nicbs.tree
                                           : config.cbs.tree;
}

// The proof-carrying payload of a message, encoded as the message type the
// view decoders read: an NI-CBS proof's response travels as a
// ProofResponse.
std::optional<Bytes> proof_payload(const Message& message) {
  if (std::holds_alternative<ProofResponse>(message) ||
      std::holds_alternative<BatchProofResponse>(message)) {
    return encode_message(message);
  }
  if (const auto* proof = std::get_if<NiCbsProof>(&message)) {
    return encode_message(Message{proof->response});
  }
  return std::nullopt;
}

}  // namespace

ReplayResults run_replays(const std::vector<Message>& messages,
                          const std::vector<CapturedExchange>& exchanges,
                          const WorkloadSpec& spec,
                          std::uint64_t workload_seed) {
  ReplayResults results;
  std::uint64_t sink = 0;

  // wire: the sampled traffic mix through the codec.
  results.frames = messages.size();
  std::vector<Bytes> encoded;
  std::vector<Bytes> proofs;
  for (const Message& message : messages) {
    encoded.push_back(encode_message(message));
    if (std::optional<Bytes> payload = proof_payload(message)) {
      proofs.push_back(std::move(*payload));
    }
  }
  if (!messages.empty()) {
    Bytes scratch;
    results.encode_ns_per_frame =
        time_passes([&] {
          for (const Message& message : messages) {
            encode_message_into(message, scratch);
            sink += scratch.size();
          }
        }) /
        static_cast<double>(messages.size());
    results.decode_ns_per_frame =
        time_passes([&] {
          for (const Bytes& frame : encoded) {
            sink += decode_message(frame).index();
          }
        }) /
        static_cast<double>(encoded.size());
  }
  results.proof_frames = proofs.size();
  if (!proofs.empty()) {
    WireViewArena arena;
    results.view_decode_ns_per_frame =
        time_passes([&] {
          for (const Bytes& frame : proofs) {
            if (static_cast<MessageType>(frame[0]) ==
                MessageType::kBatchProofResponse) {
              sink += decode_batch_proof_response_view(frame, arena)
                          .siblings.size();
            } else {
              sink += decode_proof_response_view(frame, arena).proofs.size();
            }
          }
        }) /
        static_cast<double>(proofs.size());
  }

  // core: Step 4 on accepted exchanges, with a fresh verifier so the
  // replay's f evaluations stay out of the run's counters.
  const WorkloadBundle bundle =
      WorkloadRegistry::global().make("test", workload_seed);
  const std::shared_ptr<const ResultVerifier> verifier =
      bundle.make_verifier();
  results.exchanges = exchanges.size();
  if (!exchanges.empty()) {
    VerifyScratch scratch;
    std::vector<Task> tasks;
    for (const CapturedExchange& exchange : exchanges) {
      tasks.push_back(Task::make(exchange.task.id, exchange.task.domain,
                                 bundle.f, bundle.screener));
    }
    results.verify_us =
        time_passes([&] {
          for (std::size_t i = 0; i < exchanges.size(); ++i) {
            const CapturedExchange& exchange = exchanges[i];
            const TreeSettings& settings = tree_settings(exchange.config);
            const Verdict verdict = std::visit(
                [&](const auto& response) {
                  if constexpr (std::is_same_v<
                                    std::decay_t<decltype(response)>,
                                    ProofResponse>) {
                    return verify_sample_proofs(
                        tasks[i], settings, exchange.commitment,
                        exchange.samples, response, *verifier, nullptr,
                        scratch);
                  } else {
                    return verify_batch_response(
                        tasks[i], settings, exchange.commitment,
                        exchange.samples, response, *verifier, nullptr,
                        scratch);
                  }
                },
                exchange.response);
            if (!verdict.accepted()) {
              throw std::runtime_error(
                  "replay: an accepted exchange failed to verify: " +
                  verdict.detail);
            }
          }
        }) /
        1e3 / static_cast<double>(exchanges.size());
  }

  // merkle: the commitment tree over n precomputed leaves.
  const TreeSettings& settings = tree_settings(spec.scheme);
  const std::unique_ptr<HashFunction> tree_hash = make_hash(settings.tree_hash);
  std::vector<Bytes> leaves;
  for (std::uint64_t x = 0; x < spec.points; ++x) {
    leaves.push_back(bundle.f->evaluate(x));
  }
  results.merkle_build_us =
      time_passes([&] {
        const PartialMerkleTree tree = PartialMerkleTree::build(
            spec.points, settings.storage_subtree_height,
            [&](LeafIndex i) { return leaves[i.value]; }, *tree_hash);
        sink += tree.root()[0];
      }) /
      1e3;

  // crypto: one interior node, two digests in, one out.
  constexpr int kPairs = 100'000;
  const std::unique_ptr<HashFunction> hash = make_hash(HashAlgorithm::kSha256);
  Rng rng(workload_seed);
  Bytes left = rng.bytes(hash->digest_size());
  const Bytes right = rng.bytes(hash->digest_size());
  results.hash_pair_ns = time_passes([&] {
                           for (int i = 0; i < kPairs; ++i) {
                             hash->hash_pair(left, right, left);
                           }
                         }) /
                         kPairs;
  sink += left[0];

  volatile std::uint64_t observed = sink;  // keeps the replayed work live
  (void)observed;
  return results;
}

}  // namespace gridbench
