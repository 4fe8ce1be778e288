#pragma once

// Offline re-runs, after the traced waves, of material the probes
// captured: the wire codec over the sampled messages, the paper's Step 4
// over accepted exchanges, the commitment tree build, and the hash the
// tree is built from. Each loop runs until it has taken at least
// kMinReplayNs, so the per-call figures average many calls.

#include <cstdint>
#include <vector>

#include "load.h"
#include "probes.h"

namespace gridbench {

struct ReplayResults {
  std::size_t frames = 0;
  double encode_ns_per_frame = 0;       // encode_message_into
  double decode_ns_per_frame = 0;       // decode_message
  std::size_t proof_frames = 0;
  double view_decode_ns_per_frame = 0;  // the zero-copy proof decoders
  std::size_t exchanges = 0;
  double verify_us = 0;        // verify_sample_proofs / verify_batch_response
  double merkle_build_us = 0;  // one commitment tree over n leaves
  double hash_pair_ns = 0;     // HashFunction::hash_pair, two digests
};

// Throws if an accepted exchange fails to verify again.
ReplayResults run_replays(const std::vector<ugc::Message>& messages,
                          const std::vector<CapturedExchange>& exchanges,
                          const WorkloadSpec& spec,
                          std::uint64_t workload_seed);

}  // namespace gridbench
